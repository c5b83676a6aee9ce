"""Utility functions, the virtual-utility transform, and reserve optimization.

Closed-form oracles: for uniform(0,1) the inverse hazard is 1-v, so
phi(v) = u(v) - u'(v)(1-v); with u(x) = x^a the zero sits at v = a/(1+a).
In quantile space v = price(q) = 1 - q.
"""
import contextlib
import io
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from riskauctions import (
    SpecParseError,
    capped,
    check_virtual_utility_monotone,
    cli,
    default_family,
    exponential,
    gen_regular,
    irregular_example,
    left_triangle,
    linear,
    make_distribution,
    maximize_single_bidder,
    optimal_reserve,
    parse_utilities,
    parse_utility,
    power,
    revenue_curve,
    uniform,
    virtual_utility_at_quantile,
)


class TestUtilityValues:
    def test_linear(self):
        u = linear()
        assert u(0.0) == 0.0
        assert u(0.7) == 0.7
        assert u.derivative(0.7) == 1.0
        assert u.is_smooth and u.kink is None
        assert u.label == "linear"

    @given(st.floats(0.05, 1.0), st.floats(0.0, 10.0))
    def test_power_closed_form(self, alpha, x):
        u = power(alpha)
        assert u(x) == pytest.approx(x ** alpha, rel=1e-12)
        if x > 1e-9:
            assert u.derivative(x) == pytest.approx(alpha * x ** (alpha - 1.0), rel=1e-12)

    def test_capped(self):
        u = capped(0.3)
        assert u(0.0) == 0.0
        assert u(0.1) == 0.1
        assert u(0.5) == 0.3
        assert u.derivative(0.1) == 1.0
        assert u.derivative(0.5) == 0.0
        # right derivative at the kink, per the one-sided convention
        assert u.derivative(0.3) == 0.0
        assert u.kink == 0.3 and not u.is_smooth

    def test_arrays(self):
        u = capped(0.3)
        np.testing.assert_array_equal(u(np.array([0.1, 0.5])), [0.1, 0.3])
        np.testing.assert_array_equal(u.derivative(np.array([0.1, 0.5])), [1.0, 0.0])
        # a float takes a path of its own (no array), which must answer a
        # Python float with the array kernel's bits, edges included
        rng = np.random.default_rng(66)
        random = np.exp(rng.uniform(math.log(1e-320), math.log(1e300), 2000))
        edges = [0.0, -0.0, 5e-324, 2.0 ** -1022, 1e308, math.inf, math.nan]
        utilities = default_family() + (power(1.0), power(1e-300), capped(5e-324),
                                        capped(1e300))
        for u in utilities:
            caps = [] if u.kink is None else [u.kink, math.nextafter(u.kink, 0.0),
                                              math.nextafter(u.kink, math.inf)]
            xs = np.concatenate([edges, caps, random])
            for f in (u, u.derivative):
                want = f(xs)
                for x, w in zip(xs.tolist(), want):
                    got = f(x)
                    assert type(got) is float, (u.label, x)
                    assert np.float64(got).tobytes() == w.tobytes(), (u.label, f, x, got, w)

    def test_parameter_validation(self):
        for bad in (0.0, 1.2, -0.3):
            with pytest.raises(SpecParseError):
                power(bad)
        for bad in (0.0, -1.0):
            with pytest.raises(SpecParseError):
                capped(bad)


class TestDefaultFamily:
    def test_members(self):
        fam = default_family()
        labels = [u.label for u in fam]
        assert len(fam) == 11
        assert labels[:3] == ["linear", "power:0.5", "power:0.333333"]
        caps = [u.kink for u in fam if u.kink is not None]
        assert len(caps) == 8
        assert caps[0] == pytest.approx(1e-4) and caps[-1] == pytest.approx(1e-1)
        # log-spaced grid of cap levels
        ratios = np.diff(np.log(caps))
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-9)
        assert fam == parse_utilities("family:default")
        assert default_family() is fam  # built once, on the first call

    def test_members_are_normalized_monotone_concave(self):
        xs = np.linspace(0.0, 2.0, 201)
        for u in default_family():
            ys = u(xs)
            assert ys[0] == 0.0
            assert np.all(np.diff(ys) >= -1e-12), u.label
            second = ys[2:] - 2.0 * ys[1:-1] + ys[:-2]
            assert np.all(second <= 1e-9), u.label

    def test_empty_family_rejected(self):
        with pytest.raises(SpecParseError):
            parse_utilities("family:")


class TestVirtualUtility:
    def test_known_zeros(self):
        d = uniform(0.0, 1.0)
        assert virtual_utility_at_quantile(d, linear(), 0.5) == pytest.approx(0.0, abs=1e-12)
        assert virtual_utility_at_quantile(d, power(0.5), 2.0 / 3.0) == pytest.approx(
            0.0, abs=1e-12)
        assert virtual_utility_at_quantile(d, power(1.0 / 3.0), 0.75) == pytest.approx(
            0.0, abs=1e-12)

    @given(st.floats(0.01, 0.99))
    def test_linear_matches_virtual_value(self, q):
        # for a risk-neutral seller it is the marginal revenue R'(q)
        for d in (uniform(0.0, 1.0), exponential(1.0), left_triangle(0.01)):
            assert virtual_utility_at_quantile(d, linear(), q) == pytest.approx(
                d.marginal_revenue(q), abs=1e-12)

    @given(st.floats(0.05, 0.95), st.floats(0.1, 1.0))
    def test_uniform_formula(self, q, alpha):
        v = float(uniform(0.0, 1.0).price(q))
        got = virtual_utility_at_quantile(uniform(0.0, 1.0), power(alpha), q)
        want = v ** alpha - alpha * v ** (alpha - 1.0) * (1.0 - v)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_capped_branches_and_top_atom(self):
        # both branches of the capped utility, and u(p0) on a top atom
        assert virtual_utility_at_quantile(uniform(0.0, 1.0), capped(0.3), 0.8) == \
            pytest.approx(-0.6)
        assert virtual_utility_at_quantile(uniform(0.0, 1.0), capped(0.3), 0.5) == \
            pytest.approx(0.3)
        assert virtual_utility_at_quantile(left_triangle(0.01), power(0.5), 0.01) == 10.0

    @given(st.floats(0.01, 0.99), st.sampled_from(default_family()),
           st.sampled_from([uniform(0.0, 1.0), uniform(0.5, 2.0), exponential(0.3)]))
    def test_quantile_form_matches_value_form(self, q, u, d):
        # (1 - F)/f at price(q) is price(q) - R'(q)
        p = float(d.price(q))
        if u.kink is None or p != u.kink:
            want = float(u(p)) - float(u.derivative(p)) * float(d.inverse_hazard(p))
            assert virtual_utility_at_quantile(d, u, q) == pytest.approx(
                want, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("d", [
        uniform(0.0, 1.0), uniform(0.8, 1.5), exponential(2.5), left_triangle(0.01),
        irregular_example(0.05), gen_regular(3, 16),
        revenue_curve([(0.0, 0.0), (0.3, 0.6), (1.0, 0.8)])], ids=lambda d: d.label)
    def test_arrays_give_the_scalar_bits(self, d):
        qs = np.concatenate([np.linspace(0.0, 1.0, 1001)[1:], d.breakpoints(),
                             np.nextafter(d.breakpoints(), 2.0)])
        for u in default_family():
            got = virtual_utility_at_quantile(d, u, qs)
            want = np.array([virtual_utility_at_quantile(d, u, float(q)) for q in qs])
            assert got.tobytes() == want.tobytes(), u.label


class TestOptimalReserve:
    def test_known_values(self):
        d = uniform(0.0, 1.0)
        assert optimal_reserve(d, linear()) == pytest.approx(0.5, abs=1e-9)
        assert optimal_reserve(d, power(0.5)) == pytest.approx(1.0 / 3.0, abs=1e-9)
        assert optimal_reserve(d, power(1.0 / 3.0)) == pytest.approx(0.25, abs=1e-9)
        assert optimal_reserve(exponential(1.0), linear()) == pytest.approx(1.0, abs=1e-9)
        assert optimal_reserve(left_triangle(0.05), linear()) == 20.0

    @given(st.floats(0.1, 1.0))
    def test_uniform_power_closed_form(self, alpha):
        r = optimal_reserve(uniform(0.0, 1.0), power(alpha))
        assert r == pytest.approx(alpha / (1.0 + alpha), abs=1e-8)

    @pytest.mark.parametrize("d", [uniform(0.0, 1.0), uniform(1.0, 4.0), exponential(2.0)],
                             ids=lambda d: d.label)
    def test_linear_reserve_is_monopoly_price(self, d):
        assert optimal_reserve(d, linear()) == pytest.approx(
            d.monopoly_price()[0], abs=1e-8)

    def test_zero_residual(self):
        d = uniform(0.0, 1.0)
        r = optimal_reserve(d, power(0.5))
        assert abs(virtual_utility_at_quantile(d, power(0.5), d.sale_probability(r))) < 1e-9

    def test_rejections(self):
        with pytest.raises(ValueError):
            optimal_reserve(uniform(0.0, 1.0), capped(0.1))
        with pytest.raises(ValueError):
            optimal_reserve(irregular_example(0.01), linear())
        # virtual utility positive on the whole support: everyone buys at 2
        assert optimal_reserve(uniform(2.0, 3.0), linear()) == 2.0


class TestMaximizeSingleBidder:
    def test_known_values(self):
        d = uniform(0.0, 1.0)
        p, val = maximize_single_bidder(d, linear())
        assert (p, val) == pytest.approx((0.5, 0.25), abs=1e-6)
        p, val = maximize_single_bidder(d, capped(0.01))
        assert (p, val) == pytest.approx((0.01, 0.0099), rel=1e-6)
        p, val = maximize_single_bidder(d, power(0.5))
        assert (p, val) == pytest.approx(
            (1.0 / 3.0, math.sqrt(1.0 / 3.0) * (2.0 / 3.0)), abs=1e-6)
        # on the top atom, and at the bottom of the support
        assert maximize_single_bidder(left_triangle(0.05), linear()) == (20.0, 1.0)
        assert maximize_single_bidder(uniform(0.8, 1.5), power(0.5))[0] == 0.8

    def test_agrees_with_reserve_for_smooth_utilities(self):
        # the closed-form reserves: p^a * e^(-rate p) peaks at p = a/rate,
        # and p^a * (1 - p) at p = a/(1 + a)
        for alpha, u in ((1.0, linear()), (0.5, power(0.5)), (1 / 3, power(1 / 3)),
                         (1e-3, power(1e-3))):
            for rate in (1e-3, 1.0, 2.5, 1e3):
                p, _ = maximize_single_bidder(exponential(rate), u)
                assert p == pytest.approx(alpha / rate, rel=1e-12), (alpha, rate)
            p, _ = maximize_single_bidder(uniform(0.0, 1.0), u)
            assert p == pytest.approx(alpha / (1 + alpha), rel=1e-12), alpha

    def test_handles_irregular_and_capped(self):
        # exact optima: the top atom, and on the second segment, where
        # R = 1.99 - 99q, the maximum of q * sqrt(price) = sqrt(1.99q - 99q^2)
        # at q = 1.99/198, price 99
        assert maximize_single_bidder(irregular_example(0.01), linear()) == (100.0, 1.0)
        assert maximize_single_bidder(irregular_example(0.01), power(0.5))[0] == 99.0
        p, val = maximize_single_bidder(irregular_example(0.01), capped(0.01))
        assert (p, val) == pytest.approx((0.01, 0.01 / 1.01), rel=1e-6)


def curve_spec(seed: int, breakpoints: int) -> str:
    d = gen_regular(seed, breakpoints)
    return "revenue-curve:" + ";".join(f"{q!r}:{r!r}" for q, r in d.points)


# Regular inputs, as CLI specs at full float precision.
REGULAR_SPECS = st.one_of(
    st.builds(curve_spec, st.integers(0, 2 ** 31 - 1), st.integers(2, 64)),
    st.floats(1e-9, 0.49).map(lambda eps: f"left-triangle:{eps!r}"),
    st.builds(lambda a, w: f"uniform:{a!r},{a + w!r}",
              st.floats(1e-3, 10.0), st.floats(1e-3, 10.0)),
    st.floats(1e-3, 1e3).map(lambda rate: f"exponential:{rate!r}"),
)
FAMILY = st.sampled_from(default_family())


def nonconcave_spec(seed: int, breakpoints: int) -> str:
    """A curve through random points whose price falls from left to right."""
    rng = np.random.default_rng(seed)
    qs = np.append(np.sort(rng.uniform(0.0, 1.0, breakpoints)), 1.0).tolist()
    prices = np.sort(rng.uniform(0.0, 10.0, breakpoints + 1))[::-1].tolist()
    return "revenue-curve:" + ";".join(f"{q!r}:{q * p!r}" for q, p in zip(qs, prices))


IRREGULAR_SPECS = st.one_of(
    st.floats(1e-9, 0.33).map(lambda eps: f"irregular-example:{eps!r}"),
    st.builds(nonconcave_spec, st.integers(0, 2 ** 31 - 1), st.integers(2, 32)),
)


class TestSingleBidderSearch:
    """The quantile-space bisection, one concave piece of the curve at a time."""

    @given(REGULAR_SPECS | IRREGULAR_SPECS, FAMILY)
    def test_beats_a_dense_grid_at_the_returned_price(self, spec, u):
        d = make_distribution(spec)
        p, val = maximize_single_bidder(d, u)
        qs = np.linspace(0.0, 1.0, 20_001)[1:]
        assert val >= float(np.max(np.asarray(u(d.price(qs))) * qs)) * (1 - 1e-12)
        # a price one ulp above an atom would sell with far lower probability
        assert float(u(p)) * d.sale_probability(p) == pytest.approx(val, rel=1e-12)

    @given(st.floats(0.0, 10.0), st.floats(1e-3, 10.0), st.floats(0.01, 1.0))
    def test_uniform_power_reserve_closed_form(self, a, w, alpha):
        d = uniform(a, a + w)
        want = max(alpha * d.b / (1.0 + alpha), a)
        assert maximize_single_bidder(d, power(alpha))[0] == pytest.approx(want, abs=1e-12)

    @given(REGULAR_SPECS, FAMILY)
    def test_printed_reserve_never_exceeds_the_computed_one(self, spec, u):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["price", spec, "--utility", u.spec_string]) == 0
        printed = float(out.getvalue().splitlines()[-1].removeprefix("r_u_star="))
        r = maximize_single_bidder(make_distribution(spec), parse_utility(u.spec_string))[0]
        assert r - 1e-11 * abs(r) <= printed <= r

    def test_atom_price_is_printed_rounded_down(self):
        # nearest rounding gives 304.364896988 (as p_star prints), above the
        # atom, where nothing sells
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli.main(["price", "left-triangle:0.00328553", "--utility", "linear"])
        assert out.getvalue().endswith("r_u_star=304.364896987\n")
        d = left_triangle(0.00328553)
        assert maximize_single_bidder(d, linear())[0] == 304.3648969877006
        assert d.sale_probability(304.364896987) >= d.points[1][0]  # the atom's mass
        assert d.sale_probability(304.364896988) == 0.0


class TestMonotoneCheck:
    """phi_u can fall only at a breakpoint, by u'(p_b) times the slope drop."""

    @pytest.mark.parametrize("d", [uniform(0.0, 1.0), exponential(1.0), left_triangle(0.01),
                                   gen_regular(3), gen_regular(4, 64)], ids=lambda d: d.label)
    def test_passes_on_regular_with_observed_plus_zero(self, d):
        for u in default_family():
            rep = check_virtual_utility_monotone(d, u)
            assert rep.passed and (rep.observed, rep.margin) == (0.0, 0.0)
            assert math.copysign(1.0, rep.observed) == 1.0  # never prints -0
            assert rep.instances_checked == len(d.breakpoints())

    def test_fails_on_irregular_at_the_breakpoint(self):
        rep = check_virtual_utility_monotone(irregular_example(0.01), linear())
        assert not rep.passed
        assert rep.margin == rep.observed == pytest.approx(-99.0, rel=1e-15)
        assert rep.worst_instance.endswith("phi_u jumps -99 at price 0.5 (q=0.02)")
        assert rep.instances_checked == 3

    @pytest.mark.parametrize("eps,u,slope", [
        (0.001, capped(2.0), 1.0),  # no point of a 10,000-point grid falls in (0.5, 2)
        (0.01, power(0.5), 0.5 ** 0.5),  # u'(0.5) = 0.5 * 0.5^-0.5
        (0.05, linear(), 1.0),
    ])
    def test_reports_the_exact_fall(self, eps, u, slope):
        # at price 0.5 the slope drops from (eps - 1)/eps to 0
        rep = check_virtual_utility_monotone(irregular_example(eps), u)
        fall = slope * (eps - 1.0) / eps
        assert not rep.passed
        assert abs(rep.observed - fall) <= rep.tolerance + 2.0 ** -50 * abs(fall)

    def test_a_cap_below_the_fall_hides_it(self):
        # above the cap u' = 0, so phi_u = B is flat across the breakpoint
        rep = check_virtual_utility_monotone(irregular_example(0.01), capped(0.3))
        assert rep.passed and math.copysign(1.0, rep.observed) == 1.0

    def test_infinite_slope_at_price_zero_is_no_nan(self):
        # price 0 from q = 0.7 on: u'(0) is infinite for a power; the drop at
        # 0.8 is 0 and no jump, the one at 0.7 is -2.5 and an infinite fall
        d = make_distribution("revenue-curve:0:0;0.5:0.5;0.7:0;0.8:0;1:0")
        rep = check_virtual_utility_monotone(d, power(0.5))
        assert not rep.passed and rep.observed == -math.inf and rep.tolerance == 0.0
        assert check_virtual_utility_monotone(d, linear()).observed == pytest.approx(-2.5)


def scaled(d, j: int):
    """``d`` with every value times 2^j: exact in floats for these inputs."""
    if d.kind == "uniform":
        return uniform(math.ldexp(d.a, j), math.ldexp(d.b, j))
    if d.kind == "exponential":
        return exponential(math.ldexp(d.rate, -j))
    return revenue_curve([(q, math.ldexp(r, j)) for q, r in d.points])


@pytest.mark.parametrize("spec", [
    "uniform:0,1", "uniform:0.3,2", "exponential:1", "left-triangle:0.01",
    "irregular-example:0.01", "irregular-example:0.001",
    "revenue-curve:0:0;0.2:5e-13;0.3:5.2e-13;0.6:1e-12;1:5e-13",
    "revenue-curve:0:0;0.1:0.3;0.7:2.1;1:3", "revenue-curve:0:0;0.5:0.5;0.7:0;0.8:0;1:0",
    curve_spec(7, 8)])
def test_verdicts_do_not_depend_on_the_value_scale(spec):
    # is_regular, is_mhr and every monotone verdict stay; linear, and a cap
    # scaled with the values, are exact, so their observed scales bit for bit
    d = make_distribution(spec)

    def verdicts(d, j):
        reps = [check_virtual_utility_monotone(d, u)
                for u in (linear(), capped(math.ldexp(0.3, j)), power(0.5))]
        return ([d.is_regular(), d.is_mhr()] + [r.passed for r in reps],
                [math.ldexp(r.observed, -j) for r in reps[:2]])

    want = verdicts(d, 0)
    for j in range(-60, 61):
        assert verdicts(scaled(d, j), j) == want, j


class TestParsing:
    def test_utility_forms(self):
        assert parse_utility("linear").label == "linear"
        assert parse_utility("power:0.5").label == "power:0.5"
        assert parse_utility("capped:0.01").label == "capped:0.01"
        assert parse_utility("power:1")(0.4) == 0.4

    @pytest.mark.parametrize("bad,prefix", [
        ("power:0", "power utility needs"), ("power:1.5", "power utility needs"),
        ("capped:0", "capped utility needs"), ("capped:-1", "capped utility needs"),
        ("cubic", "malformed utility spec"), ("power:x", "malformed utility spec"),
        ("", "malformed utility spec"), ("linear:1", "malformed utility spec"),
        ("capped:", "malformed utility spec"), ("cubic:1", "unknown utility kind")])
    def test_malformed_utilities(self, bad, prefix):
        with pytest.raises(SpecParseError) as info:
            parse_utility(bad)
        assert str(info.value).startswith(prefix)

    def test_family_forms(self):
        assert len(parse_utilities("family:default")) == 11
        fam = parse_utilities("family:linear;capped:0.2")
        assert [u.label for u in fam] == ["linear", "capped:0.2"]
        for bad in ("family:", "family", "familyx:linear", "family:cubic"):
            with pytest.raises(SpecParseError):
                parse_utilities(bad)

    def test_utility_or_family(self):
        assert parse_utilities("linear") == (linear(),)
        assert parse_utilities("family:default") == default_family()

    def test_spec_string_round_trip(self):
        # parameters serialize at 6 significant digits (power:0.333333), so
        # the reparsed utility matches only to that precision
        for u in default_family():
            again = parse_utility(u.spec_string)
            xs = np.linspace(0.0, 1.0, 50)
            np.testing.assert_allclose(again(xs), u(xs), rtol=1e-5, atol=1e-12)
