"""Distribution behaviors: closed forms, revenue-curve algebra, sampling.

Oracle formulas are written out independently at the top of each section;
the frozen constants in assertions were produced by those oracles.
"""
import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import assume, given
from hypothesis import strategies as st

from riskauctions import (
    NotDifferentiableError,
    RevenueCurveDistribution,
    SpecParseError,
    exponential,
    gen_regular,
    irregular_example,
    left_triangle,
    make_distribution,
    revenue_curve,
    uniform,
)


# Left-triangle closed forms, derived by hand from the curve through
# (0,0), (eps,1), (1,0): the leading chord is an atom of mass eps at value
# 1/eps; on the continuous part the survival solves q = 1/(1 + (1-eps)v).
def lt_sale(v, eps):
    return 1.0 / (1.0 + (1.0 - eps) * v)


def lt_price(q, eps):
    return (1.0 / q - 1.0) / (1.0 - eps) if q > eps else 1.0 / eps


class TestUniform:
    def test_closed_forms(self):
        d = uniform(0.0, 1.0)
        assert d.cdf(0.5) == pytest.approx(0.5, abs=1e-12)
        assert d.cdf(0.0) == 0.0
        assert d.cdf(1.5) == 1.0
        with pytest.raises(ValueError):
            d.cdf(-0.3)
        assert d.quantile(0.25) == pytest.approx(0.25, abs=1e-12)
        assert d.sale_probability(0.25) == pytest.approx(0.75, abs=1e-12)
        assert d.price(0.4) == pytest.approx(0.6, abs=1e-12)
        assert d.revenue(0.4) == pytest.approx(0.24, abs=1e-12)
        assert d.inverse_hazard(0.25) == pytest.approx(0.75, abs=1e-12)
        # the virtual value 2v - 1 at v = price(q) = 1 - q
        assert d.marginal_revenue(0.5) == pytest.approx(0.0, abs=1e-12)
        assert d.marginal_revenue(0.0) == pytest.approx(1.0, abs=1e-12)
        assert d.support == (0.0, 1.0)
        assert d.sale_probability(1.0) == 0.0  # no atom at the top

    def test_shifted_interval(self):
        d = uniform(1.0, 3.0)
        assert d.cdf(2.0) == pytest.approx(0.5, abs=1e-12)
        assert d.quantile(0.25) == pytest.approx(1.5, abs=1e-12)
        assert d.marginal_revenue(0.5) == pytest.approx(1.0, abs=1e-12)
        assert d.monopoly_price() == pytest.approx((1.5, 0.75), abs=1e-9)

    def test_invalid_interval(self):
        with pytest.raises(SpecParseError):
            uniform(2.0, 1.0)
        with pytest.raises(SpecParseError):
            uniform(-1.0, 1.0)


class TestExponential:
    def test_closed_forms(self):
        d = exponential(1.0)
        assert d.cdf(1.0) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)
        assert d.quantile(0.5) == pytest.approx(math.log(2.0), abs=1e-12)
        assert d.price(0.25) == pytest.approx(math.log(4.0), abs=1e-12)
        assert d.revenue(0.25) == pytest.approx(0.25 * math.log(4.0), abs=1e-12)
        assert d.inverse_hazard(3.7) == pytest.approx(1.0, abs=1e-12)
        # the virtual value v - 1 at v = price(q) = -log(q)
        assert d.marginal_revenue(math.exp(-1.0)) == pytest.approx(0.0, abs=1e-12)

    def test_rate_scaling(self):
        d = exponential(2.0)
        assert d.quantile(0.5) == pytest.approx(math.log(2.0) / 2.0, abs=1e-12)
        assert d.inverse_hazard(9.0) == pytest.approx(0.5, abs=1e-12)
        assert d.marginal_revenue(math.exp(-1.0)) == pytest.approx(0.0, abs=1e-12)
        assert d.monopoly_price() == pytest.approx((0.5, math.exp(-1.0)), abs=1e-12)

    def test_invalid_rate(self):
        with pytest.raises(SpecParseError):
            exponential(0.0)
        with pytest.raises(SpecParseError):
            exponential(-2.0)

    @pytest.mark.parametrize("rate", [1.0, 0.37, 5e3])
    def test_price_at_one_is_positive_zero(self, rate):
        d = exponential(rate)
        assert math.copysign(1.0, d.price(1.0)) == 1.0
        assert math.copysign(1.0, d.price(np.float64(1.0))) == 1.0
        assert math.copysign(1.0, d.price(np.array([0.5, 1.0]))[1]) == 1.0

    @given(q=st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0, 1e-300, 1.0 - 2.0 ** -53]),
           rate=st.floats(1e-3, 1e3))
    def test_price_bits_unchanged_but_the_sign_at_one(self, q, rate):
        """Adding +0.0 only turns price(1) = -0.0 into +0.0."""
        d = exponential(rate)
        with np.errstate(divide="ignore"):
            want = -np.log(np.array([q])) / rate
        if q == 1.0:
            want = np.zeros(1)
        assert np.float64(d.price(q)).tobytes() == want.tobytes()
        assert d.price(np.array([q])).tobytes() == want.tobytes()


class TestLeftTriangle:
    def test_closed_forms(self):
        eps = 0.01
        d = left_triangle(eps)
        assert d.support == pytest.approx((0.0, 100.0))
        assert d.points[1] == (eps, 1.0)  # an atom of mass eps at 1/eps
        assert d.cdf(1.0) == pytest.approx(1.0 - lt_sale(1.0, eps), abs=1e-12)
        assert d.cdf(1.0) == pytest.approx(0.4974874371859297, abs=1e-12)
        assert d.sale_probability(1.0) == pytest.approx(0.5025125628140703, abs=1e-12)
        assert d.quantile(0.5) == pytest.approx(1.0 / 0.99, abs=1e-12)
        assert d.quantile(0.99) == pytest.approx(100.0, rel=1e-9)
        assert d.quantile(0.995) == 100.0
        assert d.price(0.005) == 100.0
        assert d.revenue(eps) == pytest.approx(1.0, abs=1e-12)
        assert d.revenue(0.505) == pytest.approx((1.0 - 0.505) / 0.99, abs=1e-12)

    def test_virtual_value_is_segment_slope(self):
        # the continuous branch of the curve has constant slope -1/(1-eps)
        d = left_triangle(0.01)
        for v in (0.5, 1.0, 40.0):
            q = d.sale_probability(v)
            assert d.marginal_revenue(q) == pytest.approx(-1.0 / 0.99, abs=1e-9)

    def test_eps_range(self):
        for bad in (0.0, 0.5, 0.7, -0.1):
            with pytest.raises(SpecParseError):
                left_triangle(bad)

    @pytest.mark.parametrize("make", [left_triangle, irregular_example])
    def test_price_never_rounds_below_zero(self, make):
        # R(1) = 0, and intercept/q + slope on the last segment rounds to
        # -2.2e-16 or +2.2e-16 at q = 1 for some eps; the clamp lifts only
        # the negative roundings, to 0
        for eps in np.linspace(0.001, 0.3, 300):
            d = make(float(eps))
            assert d.price(1.0) in (0.0, 2.0 ** -52, 2.0 ** -53)
            assert d.price(np.linspace(0.9, 1.0, 101)).min() >= 0.0


class TestMonopoly:
    def test_builtin_values(self):
        assert uniform(0.0, 1.0).monopoly_price() == (0.5, 0.5)
        assert exponential(1.0).monopoly_price() == (1.0, math.exp(-1.0))
        p, q = left_triangle(0.01).monopoly_price()
        assert (p, q) == pytest.approx((100.0, 0.01), abs=1e-12)
        assert p * q == pytest.approx(1.0, abs=1e-12)

    def test_reserve_clamped_to_support(self):
        # when the unconstrained maximizer b/2 falls below the interval,
        # everyone buys at the lowest value
        assert uniform(2.0, 3.0).monopoly_price() == pytest.approx((2.0, 1.0), abs=1e-9)

    def test_scaled_uniform(self):
        assert uniform(0.0, 4.0).monopoly_price() == pytest.approx((2.0, 0.5), abs=1e-9)


class TestShapeFlags:
    def test_regular_and_mhr_table(self):
        cases = [
            (uniform(0.0, 1.0), True, True),
            (exponential(1.0), True, True),
            (left_triangle(0.01), True, False),
            (irregular_example(0.01), False, False),
        ]
        for d, want_regular, want_mhr in cases:
            assert d.is_regular() is want_regular, d.label
            assert d.is_mhr() is want_mhr, d.label

    def test_gen_regular_is_regular(self):
        for seed in (0, 1, 2):
            assert gen_regular(seed).is_regular()


class TestKinks:
    def test_hazard_raises_at_interior_kink(self):
        d = revenue_curve([(0.0, 0.0), (0.2, 0.5), (0.6, 0.8), (1.0, 0.9)])
        kink = 0.35 / 0.6 + 0.75
        with pytest.raises(NotDifferentiableError):
            d.inverse_hazard(kink)
        # just off the kink both one-sided slopes are recovered
        assert d.marginal_revenue(d.sale_probability(kink - 1e-6)) == pytest.approx(
            0.25, abs=1e-5)
        assert d.marginal_revenue(d.sale_probability(kink + 1e-6)) == pytest.approx(
            0.75, abs=1e-5)

    def test_hazard_raises_at_top_atom(self):
        d = left_triangle(0.01)
        with pytest.raises(NotDifferentiableError):
            d.inverse_hazard(100.0)

    def test_outside_support_rejected(self):
        d = left_triangle(0.01)
        with pytest.raises(ValueError):
            d.inverse_hazard(101.0)


class TestVectorization:
    @pytest.mark.parametrize(
        "d",
        [uniform(0.0, 1.0), exponential(1.0), left_triangle(0.01), gen_regular(4)],
        ids=lambda d: d.label,
    )
    def test_arrays_match_scalars(self, d):
        qs = np.linspace(0.05, 1.0, 17)
        vs = np.asarray([d.price(float(q)) for q in qs])
        for fn, xs in ((d.price, qs), (d.revenue, qs), (d.quantile, qs - 0.05),
                       (d.cdf, vs), (d.sale_probability, vs)):
            got = fn(xs)
            want = np.asarray([fn(float(x)) for x in xs])
            assert got.shape == xs.shape
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


# Revenue curves answer a float q without NumPy; that path must give the
# same bits as the array path, on and around every breakpoint too.
EPS_GRID = [float(e) for e in np.linspace(0.001, 0.3, 300)]
CURVES = st.one_of(
    st.builds(gen_regular, st.integers(0, 2 ** 31 - 1), st.integers(2, 64)),
    st.builds(left_triangle, st.sampled_from(EPS_GRID)),
    st.builds(irregular_example, st.sampled_from(EPS_GRID)),
)
SPECIAL_QS = [0.0, -0.0, 1.0, 1.5, 1e300, -0.25, -1.0, math.inf, -math.inf, math.nan,
              5e-324]


def same_bits(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


class TestScalarPrice:
    def test_breakpoints(self):
        assert uniform(0.0, 1.0).breakpoints() == ()
        assert exponential(2.0).breakpoints() == ()
        assert left_triangle(0.1).breakpoints() == (0.1,)
        assert irregular_example(0.01).breakpoints() == (0.01, 0.02, 0.99)
        d = gen_regular(5, breakpoints=9)
        assert d.breakpoints() == tuple(q for q, _ in d.points[1:-1])
        assert len(d.breakpoints()) == 8

    @given(CURVES, st.data())
    def test_float_path_is_bit_identical_to_array_path(self, d, data):
        qs = [q for q, _ in d.points]
        q1 = qs[1]
        near = [math.nextafter(q, to) for q in qs for to in (-math.inf, math.inf)]
        drawn = data.draw(st.lists(st.one_of(
            st.floats(0.0, 1.0),
            st.floats(0.0, q1),
            st.floats(allow_nan=True, allow_infinity=True)), max_size=20))
        for q in qs + near + SPECIAL_QS + drawn:
            for x in (q, np.float64(q)):
                got = d.price(x)
                assert type(got) is float
                want = float(d.price(np.array([x]))[0])
                assert same_bits(got, want), (d.label, q, got, want)
                if q <= q1:
                    assert got == d.price(q1)


    @pytest.mark.parametrize("breakpoints", [2, 8, 64])
    def test_float_sale_probability_is_bit_identical_across_junctions(self, breakpoints):
        # the prices within 40 floats of every breakpoint price, q = 1's and
        # the atom's included
        for seed in range(300):
            d = gen_regular(seed, breakpoints)
            for vs in price_windows(d):
                got = np.array([d.sale_probability(float(v)) for v in vs])
                want = d.sale_probability(vs)
                assert np.array_equal(got.view(np.int64), want.view(np.int64)), (seed, vs[0])

    @pytest.mark.parametrize("d", [
        # the typed stretch of price 3.1 on (0, 0.4], whose intercept rounds below 0
        make_distribution("revenue-curve:0:0;0.04:0.124;0.4:1.24;1:0.62"),
        left_triangle(0.01), irregular_example(0.05), gen_regular(0, 2)], ids=lambda d: d.label)
    def test_float_sale_probability_at_special_values(self, d):
        lo, hi = d.support
        specials = [0.0, -0.0, -1.0, math.inf, -math.inf, math.nan, lo, hi, 5e-324, 1e300]
        for vs in [specials] + price_windows(d):
            for v in vs:
                for x in (float(v), np.float64(v)):
                    got = d.sale_probability(x)
                    assert type(got) is float
                    want = float(d.sale_probability(np.array([x]))[0])
                    assert same_bits(got, want), (d.label, v)
        # NaN sorts after every price, as in np.searchsorted
        assert d.sale_probability(math.nan) == d.sale_probability(lo) == 1.0

    def test_price_at_one_is_the_lowest_value(self):
        # q = 1 has a segment of its own through (1, R(1)); on the last
        # segment's line it was off R(1) by up to 7.9e-15 relative on 4,302
        # of these 9,000 curves
        for breakpoints in (2, 8, 64):
            for seed in range(3000):
                d = gen_regular(seed, breakpoints)
                assert d.price(1.0) == d.support[0] > 0.0, (seed, breakpoints)
                assert d.price(np.array([1.0]))[0] == d.support[0]

    def test_price_at_a_breakpoint_sells_at_it(self):
        # a/q + b of the segment ending at the kink rounds one ulp above the
        # kink's price R/q; there that segment's price is within 3.2e-4 of
        # its slope b, so its sale probability a/(p - b) one ulp above the
        # kink was 1.1e-12 below q
        d = make_distribution("revenue-curve:0.0006766393418269345:0.004871378868778844;"
                              "0.34746352624922205:2.444815376040425;1.0:1.2226418798582317")
        q = d.breakpoints()[1]
        assert d.price(q) == d.price(np.array([q]))[0] == 2.444815376040425 / q
        assert d.sale_probability(d.price(q)) == pytest.approx(q, rel=1e-15)


class TestMarginalRevenue:
    def test_closed_forms(self):
        assert uniform(1.0, 3.0).marginal_revenue(0.25) == 2.0
        assert exponential(2.0).marginal_revenue(math.exp(-1.0)) == pytest.approx(0.0, abs=1e-15)
        assert exponential(2.0).marginal_revenue(1.0) == -0.5

    def test_curve_slope_from_the_left(self):
        d = left_triangle(0.1)
        # on (0, q1] the slope is the atom's price, at the kink too
        assert d.marginal_revenue(0.05) == d.marginal_revenue(0.1) == d.price(0.1) == 10.0
        assert d.marginal_revenue(math.nextafter(0.1, 1.0)) == -1.0 / 0.9
        got = d.marginal_revenue(np.array([0.05, 0.1, 0.5, 1.0]))
        assert got.tolist() == [d.marginal_revenue(q) for q in (0.05, 0.1, 0.5, 1.0)]

    @given(st.one_of(
        st.builds(gen_regular, st.integers(0, 2 ** 31 - 1), st.integers(2, 64)),
        st.builds(left_triangle, st.floats(1e-9, 0.49)),
        st.builds(lambda a, w: uniform(a, a + w), st.floats(0.0, 10.0), st.floats(1e-3, 10.0)),
        st.builds(exponential, st.floats(1e-3, 1e3)),
    ), st.floats(0.01, 0.99))
    def test_matches_central_difference_of_revenue(self, d, q):
        h = 1e-6
        assume(all(abs(q - b) > h for b in d.breakpoints()))
        want = (d.revenue(q + h) - d.revenue(q - h)) / (2 * h)
        # the truncation error h^2 R'''(q)/6 is below 2e-6 on these inputs (the
        # exponential's |R'''| = 1/(rate q^2)); rounding adds about 1e-10 * R
        assert d.marginal_revenue(q) == pytest.approx(want, rel=1e-7, abs=1e-7 * (1 + d.price(q)))


class TestInvariants:
    @pytest.mark.parametrize(
        "d",
        [uniform(0.0, 1.0), uniform(1.0, 3.0), exponential(1.0),
         exponential(0.5), left_triangle(0.01), gen_regular(7)],
        ids=lambda d: d.label,
    )
    def test_quantile_cdf_round_trip(self, d):
        # stay on the continuous part: atoms make the round trip overshoot
        hi = 1.0 - (d.points[1][0] if hasattr(d, "points") else 0.0)  # the top atom
        ps = np.linspace(1e-4, hi - 1e-9 if hi < 1.0 else 1.0 - 1e-4, 400)
        vs = d.quantile(ps)
        np.testing.assert_allclose(d.cdf(vs), ps, rtol=0, atol=1e-8)

    @pytest.mark.parametrize(
        "d",
        [uniform(0.0, 1.0), exponential(2.0), left_triangle(0.05),
         irregular_example(0.01), gen_regular(13)],
        ids=lambda d: d.label,
    )
    def test_revenue_equals_q_times_price(self, d):
        qs = np.linspace(1e-4, 1.0, 10_000)
        np.testing.assert_allclose(d.revenue(qs), qs * d.price(qs), rtol=0, atol=1e-8)

    @given(st.floats(0.01, 0.99), st.floats(0.01, 0.99))
    def test_cdf_monotone_on_gen_regular(self, p1, p2):
        d = gen_regular(21)
        lo, hi = sorted((p1, p2))
        assert d.quantile(lo) <= d.quantile(hi) + 1e-12


def sample(d, seed, n):
    return d.quantile(np.random.default_rng(seed).random(n))


class TestSampling:
    def test_deterministic_for_fixed_seed(self):
        d = exponential(1.0)
        a = sample(d, 11, 1000)
        b = sample(d, 11, 1000)
        c = sample(d, 12, 1000)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("d", [uniform(0.0, 1.0), exponential(1.0)],
                             ids=lambda d: d.label)
    def test_ks_distance_small(self, d):
        x = sample(d, 5, 1_000_000)
        stat = scipy.stats.kstest(x, d.cdf).statistic
        assert stat <= 0.002

    def test_left_triangle_atom_fraction(self):
        d = left_triangle(0.01)
        x = sample(d, 5, 1_000_000)
        assert abs(np.mean(x == 100.0) - 0.01) <= 0.001
        assert x.max() <= 100.0 and x.min() >= 0.0


def float_run(p, width):
    """The floats within ``width`` steps of p >= 0, in increasing order (NaN
    for the steps below 0)."""
    return (np.array([p]).view(np.int64)[0] + np.arange(-width, width + 1)).view(np.float64)


def float_window(p, width=256):
    """The floats of [0, 1) within ``width`` steps of p, in increasing order."""
    xs = float_run(p, width)
    return xs[(xs >= 0.0) & (xs < 1.0)]


def junction_windows(d, width=40):
    """The floats of (0, 1] within ``width`` steps of each breakpoint of d
    and of q = 1, one increasing run per point."""
    runs = [float_run(b, width) for b in d.breakpoints() + (1.0,)]
    return [xs[(xs > 0.0) & (xs <= 1.0)] for xs in runs]


def price_windows(d, width=40):
    """The floats within ``width`` steps of each breakpoint price of d, the
    top of the support included, one increasing run per price (NaN for
    the steps below 0)."""
    return [float_run(p, width) for p in d._prices.tolist()]


class TestCurveSaleShapes:
    """Curve ``cdf`` (strict search) and ``sale_probability`` (non-strict)
    give the same bits whatever the shape of their input."""

    @pytest.mark.parametrize("d", [left_triangle(0.01), irregular_example(0.05),
                                   make_distribution("revenue-curve:0:0;0.1:0.3;0.3:0.9;1:1"),
                                   make_distribution("revenue-curve:0:0;0.3:0.6;1:0.8"),
                                   gen_regular(11, 2), gen_regular(4, 64)], ids=lambda d: d.label)
    @pytest.mark.parametrize("name", ["cdf", "sale_probability"])
    def test_shapes_keep_the_bits(self, d, name):
        f = getattr(d, name)
        grid = np.array(price_windows(d))  # one row per breakpoint price
        flat = grid.ravel()
        bits = f(flat).view(np.int64)
        assert f(grid).shape == grid.shape
        assert np.array_equal(f(grid).ravel().view(np.int64), bits)
        zero_d = np.array([f(np.array(x)) for x in flat])
        assert np.array_equal(zero_d.view(np.int64), bits)
        ints = [int(x) for x in flat if math.isfinite(x)]
        as_int = np.array([f(i) for i in ints])
        assert np.array_equal(as_int.view(np.int64), f(np.array(ints, dtype=float)).view(np.int64))


class TestMonotoneQuantile:
    """Monte Carlo ranks uniforms in place of bids, which needs every kind's
    quantile nondecreasing on the floats; it is checked on runs of
    consecutive floats, not assumed."""

    # 0 and the top of [0, 1), binade edges of p and of 1 - p, and the
    # middle of each binade down to 2^-60
    POINTS = [0.0, math.nextafter(1.0, 0.0), 0.5, 0.25, 0.75, 1.0 - 2.0 ** -10, 1e-300] + [
        1.5 * 2.0 ** -e for e in range(1, 61)]

    @pytest.mark.parametrize("d", [uniform(0.0, 1.0), uniform(0.3, 7.0), uniform(2.5, 2.5 + 1e-9),
                                   exponential(1.0), exponential(2.0), exponential(1e-3),
                                   exponential(37.0), left_triangle(0.01), irregular_example(0.05),
                                   gen_regular(11, 2), gen_regular(4, 64)], ids=lambda d: d.label)
    def test_nondecreasing_in_floats(self, d):
        rng = np.random.default_rng(3)
        for p in self.POINTS + rng.random(200).tolist():
            v = d.quantile(float_window(p))
            assert np.all(np.diff(v) >= 0.0), p

    @given(st.floats(0.0, 1.0, exclude_max=True), st.floats(1e-3, 1e3))
    def test_exponential_is_nondecreasing_in_floats(self, p, rate):
        v = exponential(rate).quantile(float_window(p, 64))
        assert np.all(np.diff(v) >= 0.0)

    @pytest.mark.parametrize("breakpoints", [2, 8, 64])
    def test_curve_prices_are_nonincreasing_across_junctions(self, breakpoints):
        # the rounded prices of two segments used to cross where they meet:
        # 571 step-ups of up to 27 ulps in these 900 curves, and price(1)
        # above price(1 - 2^-53) on 6 of them
        for seed in range(300):
            d = gen_regular(seed, breakpoints)
            for qs in junction_windows(d):
                assert np.all(np.diff(d.price(qs)) <= 0.0), (seed, qs[0])

    @pytest.mark.parametrize("spec", ["revenue-curve:0:0;0.04:0.124;0.4:1.24;1:0.62",
                                      "revenue-curve:0:0;0.09:0.369;0.43:1.763;1:0.8815",
                                      "revenue-curve:0:0;0.14:0.686;0.4:1.96;1:0.98"])
    def test_curve_prices_are_nonincreasing_inside_segments(self, spec):
        # typed with one price from q1 to q2, this segment's intercept rounds
        # below 0 while its end prices differ by an ulp: a/q + b rose with q,
        # and the survival at the top price, a/(v - b), was -inf
        d = make_distribution(spec)
        q1, q2 = d.breakpoints()[:2]
        assert np.all(np.diff(d.price(np.linspace(q1, q2, 2001))) <= 0.0)
        assert d.sale_probability(d.support[1]) == q2

    def test_former_step_down_is_gone(self):
        # where the two segments of this curve meet, the price rounded one ulp
        # up as q fell past the breakpoint: the uniform one float above lo got
        # a bid one ulp lower; both are on the 2^-53 grid of rng.random()
        d = gen_regular(11, 2)
        lo, hi = 0.6643429071282383, 0.6643429071282384
        assert hi == math.nextafter(lo, 1.0)
        assert d.quantile(lo) <= d.quantile(hi) == 1.0262870976275371


class TestRevenueCurveConstruction:
    def test_rejects_bad_points(self):
        with pytest.raises(SpecParseError):
            revenue_curve([(0.0, 0.0), (0.5, -0.1), (1.0, 0.0)])
        with pytest.raises(SpecParseError):
            revenue_curve([(0.0, 0.0), (0.4, 0.5), (0.4, 0.6), (1.0, 0.0)])
        with pytest.raises(SpecParseError):
            revenue_curve([(0.0, 0.5)])

    @pytest.mark.parametrize("points", [
        [(0.0, 0.0), (0.3, 0.6), (1.0, 0.8)],
        [(0.25, 1.0), (1.0, 0.0)],  # the origin is put in front, as by the constructor
        [(0.0, 0.0), (0.1, 0.3), (0.3, 0.9), (1.0, 1.0)]])
    def test_one_constructor_for_arrays_and_pairs(self, points):
        qs, rs = (np.array(v) for v in zip(*points))
        a, b = RevenueCurveDistribution(qs, rs), revenue_curve(points)
        for name in ("_qs", "_rs", "_slopes", "_intercepts", "_prices"):
            assert np.array_equal(getattr(a, name).view(np.int64),
                                  getattr(b, name).view(np.int64)), name
        assert (a.kind, a.label, a.breakpoints()) == (b.kind, b.label, b.breakpoints())
        qs[1] = 0.9  # the curve keeps copies
        assert a.points == b.points

    def test_constructor_rejections(self):
        with pytest.raises(SpecParseError, match="one length"):
            RevenueCurveDistribution([0.0, 0.5, 1.0], [0.0, 1.0])
        with pytest.raises(SpecParseError, match="one length"):
            RevenueCurveDistribution(np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(SpecParseError, match="strictly increasing"):
            RevenueCurveDistribution([0.0, 0.4, 0.4, 1.0], [0.0, 0.5, 0.6, 0.0])
        with pytest.raises(SpecParseError, match="nonnegative"):
            RevenueCurveDistribution([0.0, 0.5, 1.0], [0.0, -0.1, 0.0])

    @pytest.mark.parametrize("q", ["nan", "inf", "-inf"])
    def test_rejects_a_non_finite_interior_q(self, q):
        # a NaN difference is neither > 0 nor <= 0, so only a test that every
        # difference is > 0 catches it
        with pytest.raises(SpecParseError, match="strictly increasing"):
            make_distribution(f"revenue-curve:0:0;{q}:0.5;1:1")
        with pytest.raises(SpecParseError, match="strictly increasing"):
            RevenueCurveDistribution([0.0, float(q), 1.0], [0.0, 0.5, 1.0])

    def test_every_curve_is_one_kind(self):
        curves = [left_triangle(0.01), irregular_example(0.05), gen_regular(3, 8),
                  revenue_curve([(0.0, 0.0), (0.3, 0.6), (1.0, 0.8)])]
        assert {d.kind for d in curves} == {"revenue_curve"}

    def test_irregular_curve_is_not_regular(self):
        assert not revenue_curve([(0.0, 0.0), (0.2, 1.0), (0.4, 0.2), (1.0, 0.0)]).is_regular()

    def test_typed_equal_prices_parse_as_one_price(self):
        # 0.3/0.1 rounds to 2.9999999999999996 and 0.9/0.3 to 3.0: a rise of
        # one ulp between prices that are equal as typed
        d = make_distribution("revenue-curve:0:0;0.1:0.3;0.3:0.9;1:1")
        qs = np.concatenate([np.linspace(1e-6, 0.3, 1001)] + junction_windows(d)[:2])
        qs = qs[qs <= 0.3]
        assert np.all(d.price(qs) == 2.9999999999999996)
        assert d.support == (1.0, 2.9999999999999996)

    def test_price_rise_is_allowed_up_to_six_rounding_units(self):
        # three roundings per typed price r/q, u = 2^-53 each, so 6u between two
        with pytest.raises(SpecParseError, match="nonincreasing"):
            revenue_curve([(0.0, 0.0), (0.5, 0.5), (1.0, 1.0 + 1e-13)])
        with pytest.raises(SpecParseError, match="nonincreasing"):
            revenue_curve([(0.0, 0.0), (0.5, 0.5), (1.0, 1.0 + 8 * 2.0 ** -52)])
        d = revenue_curve([(0.0, 0.0), (0.5, 0.5), (1.0, 1.0 + 2.0 ** -52)])
        # the rise is taken out: one price on all of (0, 1]
        assert d.support == (1.0, 1.0)
        assert d.price(1.0) == d.price(np.array([1.0]))[0] == 1.0

    def test_generated_breakpoint_prices_are_unchanged(self):
        # every generated curve's float prices are already nonincreasing
        for breakpoints in (2, 8, 64):
            for seed in range(3000):
                d = gen_regular(seed, breakpoints)
                bp = d._rs[1:] / d._qs[1:]
                raw = np.concatenate(([bp[0]], bp))
                assert np.array_equal(d._prices.view(np.int64), raw.view(np.int64)), seed

    def test_irregular_example_eps_cap(self):
        with pytest.raises(SpecParseError):
            irregular_example(0.4)


class TestParsing:
    def test_known_forms(self):
        assert make_distribution("uniform:0,1").label == "uniform:0,1"
        assert make_distribution("exponential:2").label == "exponential:2"
        assert make_distribution("left-triangle:0.01").label == "left-triangle:0.01"
        assert make_distribution("irregular-example:0.01").label == "irregular-example:0.01"
        d = make_distribution("revenue-curve:0:0;0.5:0.8;1:1")
        assert d.cdf(1.0) == 0.0
        assert d.support == pytest.approx((1.0, 1.6))

    @pytest.mark.parametrize("bad", [
        "uniform", "uniform:1", "uniform:2,1", "uniform:a,b",
        "exponential:-1", "left-triangle:0.9", "gauss:1", "revenue-curve:0;1",
        "uniform:1,2,3", "revenue-curve:",
    ])
    def test_malformed_specs(self, bad):
        with pytest.raises(SpecParseError):
            make_distribution(bad)

    @pytest.mark.parametrize(
        "d",
        [uniform(0.0, 1.0), exponential(2.0), left_triangle(0.01)],
        ids=lambda d: d.label,
    )
    def test_spec_string_round_trip_exact(self, d):
        again = make_distribution(d.spec_string)
        vs = d.quantile(np.linspace(0.01, 0.95, 40))
        np.testing.assert_allclose(again.cdf(vs), d.cdf(vs), rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "d", [irregular_example(0.01), gen_regular(3)], ids=lambda d: d.label,
    )
    def test_spec_string_round_trip_curve(self, d):
        # a number prints in full where 6 significant digits would not read back
        assert make_distribution(d.spec_string).points == d.points

    def test_label_names_the_distribution_exactly(self):
        a = make_distribution("revenue-curve:0:0;0.1234567:0.9;1:0.3")
        b = make_distribution("revenue-curve:0:0;0.1234571:0.9;1:0.3")
        assert (a.label, b.label) == ("revenue-curve:0:0;0.1234567:0.9;1:0.3",
                                      "revenue-curve:0:0;0.1234571:0.9;1:0.3")
        for spec in ("uniform:0.123456789,1", "exponential:0.1", "exponential:3.000000001",
                     "left-triangle:0.0123456789", "irregular-example:0.1"):
            assert make_distribution(spec).label == spec
        third = left_triangle(1 / 3 - 0.01)
        assert float(third.label.split(":")[1]) == 1 / 3 - 0.01
