"""Mechanism execution rules, hedged prices, and the truthfulness audit.

The allocation-probability oracle recomputes E[min(k, X)]/n with exact
rational arithmetic; hedged price oracles chain the closed forms by hand.
"""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskauctions import (
    PostedPriceMechanism,
    SpecParseError,
    VcgMechanism,
    allocation_probability,
    batch_outcomes,
    batch_revenue,
    exponential,
    gen_regular,
    hedge_limited_price,
    hedge_unlimited_price,
    irregular_example,
    left_triangle,
    parse_mechanism,
    uniform,
)
from riskauctions.mechanisms import _revenue


def binom_pmf_fractions(n, p):
    """Exact Binomial(n, p) pmf for a rational p."""
    p = Fraction(p)
    return [math.comb(n, x) * p**x * (1 - p) ** (n - x) for x in range(n + 1)]


def argsort_outcomes(m, b):
    """Reference (win, pay): a stable argsort ranks the bids, realizing
    lower-index tie-breaking, and VCG winners are the top k at or above the
    reserve paying max(reserve, (k+1)-st highest bid)."""
    rows, n = b.shape
    if isinstance(m, PostedPriceMechanism):
        mask = b >= m.price
        win = mask & (np.cumsum(mask, axis=1) <= m.k)
        return win, np.where(win, m.price, 0.0)
    order = np.argsort(-b, axis=1, kind="stable")
    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order, np.broadcast_to(np.arange(n), (rows, n)).copy(), axis=1)
    if m.k < n:
        kth1 = np.take_along_axis(b, order[:, m.k:m.k + 1], axis=1)[:, 0]
    else:
        kth1 = np.zeros(rows)
    unit_price = np.maximum(m.reserve, kth1)
    win = (ranks < m.k) & (b >= m.reserve)
    return win, np.where(win, unit_price[:, None], 0.0)


def sorted_revenue(m, b):
    """batch_revenue by its definition: min(k, #bids at or above the price or
    reserve) times the unit price, the (k+1)-st highest bid read off a full
    np.sort of each row."""
    level = m.price if isinstance(m, PostedPriceMechanism) else m.reserve
    sold = np.minimum(np.count_nonzero(b >= level, axis=1), m.k)
    if isinstance(m, PostedPriceMechanism):
        return sold * m.price
    n = b.shape[1]
    if m.k >= n:
        return sold * np.full(len(b), m.reserve)
    return sold * np.maximum(m.reserve, np.sort(b, axis=1)[:, n - 1 - m.k])


def run(m, bids):
    """(winners, payments, revenue) of one bid profile, as a one-row
    batch_outcomes call."""
    win, pay = batch_outcomes(m, bids)
    return tuple(np.nonzero(win[0])[0].tolist()), pay[0], float(pay[0].sum())


def allocation_oracle(n, k, q_r):
    pmf = binom_pmf_fractions(n, q_r)
    return sum(min(k, x) * w for x, w in enumerate(pmf)) / n


class TestPostedPrice:
    def test_first_accepters_in_index_order(self):
        winners, payments, revenue = run(PostedPriceMechanism(0.5, 1), [0.3, 0.6, 0.8])
        assert winners == (1,)
        assert revenue == pytest.approx(0.5)
        np.testing.assert_allclose(payments, [0.0, 0.5, 0.0])

    def test_supply_two(self):
        winners, _, revenue = run(PostedPriceMechanism(0.5, 2), [0.3, 0.6, 0.8])
        assert winners == (1, 2)
        assert revenue == pytest.approx(1.0)

    def test_no_sale(self):
        winners, _, revenue = run(PostedPriceMechanism(0.9, 3), [0.3, 0.6, 0.8])
        assert winners == ()
        assert revenue == 0.0

    def test_acceptance_at_equality(self):
        winners, _, _ = run(PostedPriceMechanism(0.5, 2), [0.5, 0.4])
        assert winners == (0,)

    @given(st.lists(st.floats(0.0, 2.0), min_size=1, max_size=7),
           st.floats(0.0, 2.0), st.integers(1, 7))
    def test_revenue_identity(self, bids, p, k):
        winners, _, revenue = run(PostedPriceMechanism(p, k), bids)
        y = sum(1 for b in bids if b >= p)
        assert revenue == pytest.approx(p * min(y, k), abs=1e-12)
        assert len(winners) == min(y, k)


class TestVcg:
    def test_vickrey(self):
        winners, payments, _ = run(VcgMechanism(1, 0.0), [0.3, 0.8, 0.5])
        assert winners == (1,)
        assert payments[1] == pytest.approx(0.5)

    def test_two_units(self):
        winners, payments, revenue = run(VcgMechanism(2, 0.0), [0.9, 0.7, 0.4])
        assert winners == (0, 1)
        np.testing.assert_allclose(payments, [0.4, 0.4, 0.0])
        assert revenue == pytest.approx(0.8)

    def test_reserve_binds(self):
        winners, payments, _ = run(VcgMechanism(1, 0.6), [0.7, 0.5])
        assert winners == (0,)
        assert payments[0] == pytest.approx(0.6)

    def test_reserve_excludes(self):
        winners, _, revenue = run(VcgMechanism(2, 0.6), [0.7, 0.5])
        assert winners == (0,)
        assert revenue == pytest.approx(0.6)

    def test_ties_break_to_lower_index(self):
        winners, payments, _ = run(VcgMechanism(1, 0.0), [0.5, 0.5, 0.3])
        assert winners == (0,)
        assert payments[0] == pytest.approx(0.5)

    def test_missing_competitor_bid_is_zero(self):
        # with one bidder the second-highest bid defaults to 0
        winners, payments, _ = run(VcgMechanism(1, 0.0), [0.7])
        assert winners == (0,)
        assert payments[0] == 0.0

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
           st.integers(1, 8), st.floats(0.0, 0.8))
    def test_supply_beyond_bidders_is_posted_at_reserve(self, bids, extra, r):
        n = len(bids)
        vcg = run(VcgMechanism(n + extra - 1, r), bids)
        posted = run(PostedPriceMechanism(r, n + extra - 1), bids)
        assert vcg[0] == posted[0]
        np.testing.assert_allclose(vcg[1], posted[1], atol=1e-12)


MECHS = [
    PostedPriceMechanism(0.52, 1),
    PostedPriceMechanism(0.37, 2),
    VcgMechanism(1, 0.0),
    VcgMechanism(1, 0.43),
    VcgMechanism(2, 0.31),
    VcgMechanism(3, 0.5),
]


class TestOutcomeInvariants:
    @given(st.lists(st.floats(0.0, 2.0), min_size=1, max_size=8),
           st.integers(0, len(MECHS) - 1))
    def test_core_invariants(self, bids, mi):
        m = MECHS[mi]
        winners, payments, revenue = run(m, bids)
        assert len(winners) <= m.k
        for i, b in enumerate(bids):
            if i in winners:
                assert payments[i] <= b + 1e-12
            else:
                assert payments[i] == 0.0
        assert revenue == pytest.approx(float(np.sum(payments)), abs=1e-12)

    @settings(max_examples=200)
    @given(st.integers(1, 40), st.integers(0, 2 ** 32 - 1), st.booleans(),
           st.sampled_from(["ties", "atom", "uniform"]),
           st.sampled_from(["zero", "bid", "random"]), st.data())
    def test_batch_matches_single_runs(self, n, seed, posted, bid_kind, price_kind, data):
        k = data.draw(st.integers(1, n + 2), label="k")
        # 1024 rows take the column pass in batch, 16 rows and one row np.partition
        rows = data.draw(st.sampled_from([16, 1024]), label="rows")
        rng = np.random.default_rng(seed)
        shape = (rows, n)
        if bid_kind == "ties":
            vals = rng.integers(0, 4, shape).astype(float)
        elif bid_kind == "atom":
            vals = left_triangle(0.2).quantile(rng.random(shape))
        else:
            vals = rng.random(shape) * 1.5
        price = {"zero": 0.0, "bid": float(vals[rng.integers(rows), rng.integers(n)]),
                 "random": float(rng.random() * 1.2 * vals.max())}[price_kind]
        m = PostedPriceMechanism(price, k) if posted else VcgMechanism(k, price)
        win, pay = batch_outcomes(m, vals)
        ref_win, ref_pay = argsort_outcomes(m, vals)
        np.testing.assert_array_equal(win, ref_win)
        np.testing.assert_array_equal(pay, ref_pay)
        rev, pay_sum = batch_revenue(m, vals), pay.sum(axis=1)
        if k <= 4:
            np.testing.assert_array_equal(rev, pay_sum)
        else:
            # min(k, sold) * price rounds once, the row sum once per winner
            assert np.all(np.abs(rev - pay_sum) <= k * 2.0 ** -52 * pay_sum)
        for j in range(16):
            winners, payments, revenue = run(m, vals[j])
            np.testing.assert_array_equal(win[j], [i in winners for i in range(n)])
            np.testing.assert_array_equal(pay[j], payments)
            assert revenue == float(pay_sum[j])


    @settings(max_examples=200)
    @given(st.integers(1, 40), st.integers(0, 2 ** 32 - 1), st.booleans(),
           st.sampled_from(["ties", "atom", "uniform"]),
           st.sampled_from(["zero", "k-th bid", "random"]), st.data())
    def test_batch_revenue_keeps_its_bits(self, n, seed, posted, bid_kind, level_kind, data):
        k = data.draw(st.integers(1, n + 2), label="k")
        # 2,048 rows take the column pass, 16 rows np.partition
        rows = data.draw(st.sampled_from([16, 2048]), label="rows")
        rng = np.random.default_rng(seed)
        if bid_kind == "ties":
            vals = rng.integers(0, 4, (rows, n)).astype(float)
        elif bid_kind == "atom":
            vals = left_triangle(0.2).quantile(rng.random((rows, n)))
        else:
            vals = rng.random((rows, n)) * 1.5
        # at the k-th highest bid of a row, which the ties repeat
        kth = np.sort(vals[rng.integers(rows)])[::-1][min(k, n) - 1]
        level = {"zero": 0.0, "k-th bid": float(kth),
                 "random": float(rng.random() * 1.2 * vals.max())}[level_kind]
        m = PostedPriceMechanism(level, k) if posted else VcgMechanism(k, level)
        got, want = batch_revenue(m, vals), sorted_revenue(m, vals)
        assert got.dtype == want.dtype == np.float64
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    @settings(max_examples=200)
    @given(st.lists(st.tuples(st.integers(1, 64), st.integers(1, 600), st.integers(1, 70)),
                    min_size=1, max_size=4),
           st.booleans(), st.integers(0, 2 ** 32 - 1))
    def test_sale_counts_match_count_nonzero(self, tiles, posted, seed):
        # posted prices and k >= n count the entries at or above the cut of
        # each row; one scratch buffer serves tiles of every shape in turn, as
        # in eval_mc, and a fifth of the entries sit exactly at the cut
        rng = np.random.default_rng(seed)
        work: dict = {}
        for n, rows, k in tiles:
            cut = float(rng.random())
            tile = rng.random((rows, n))
            tile[rng.random((rows, n)) < 0.2] = cut
            if not posted:
                k = max(k, n)
            m = PostedPriceMechanism(0.75, k) if posted else VcgMechanism(k, 0.75)
            got = _revenue(m, tile, cut, None, work)
            want = np.minimum(np.count_nonzero(tile >= cut, axis=1), k) * 0.75
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


class TestTruthfulness:
    """No bidder can gain by deviating, and winners pay their threshold bid."""

    @pytest.mark.parametrize("m", MECHS, ids=lambda m: m.label)
    def test_no_profitable_deviation(self, m):
        instances, n, grid = 10_000, 3, 100
        rng = np.random.default_rng(17)
        vals = rng.random((instances, n)) * 1.2
        win, pay = batch_outcomes(m, vals)
        truthful = np.where(win, vals - pay, 0.0)
        devs = np.linspace(0.0, 1.2, grid)
        worst = -np.inf
        for i in range(n):
            b = np.broadcast_to(vals, (grid, instances, n)).copy()
            b[:, :, i] = devs[:, None]
            w, p = batch_outcomes(m, b.reshape(-1, n))
            w_i = w[:, i].reshape(grid, instances)
            p_i = p[:, i].reshape(grid, instances)
            dev_u = np.where(w_i, vals[None, :, i] - p_i, 0.0)
            worst = max(worst, float((dev_u - truthful[None, :, i]).max()))
        assert worst <= 1e-9

    @pytest.mark.parametrize("m", MECHS, ids=lambda m: m.label)
    def test_winners_pay_threshold(self, m):
        rng = np.random.default_rng(23)
        vals = rng.random((200, 3)) * 1.2
        for row in vals:
            winners, payments, _ = run(m, row)
            for i in winners:
                t = payments[i]
                above = row.copy()
                above[i] = t + 1e-6
                assert i in run(m, above)[0]
                if t > 1e-6:
                    below = row.copy()
                    below[i] = t - 1e-6
                    assert i not in run(m, below)[0]


class TestAllocationProbability:
    def test_edges(self):
        assert allocation_probability(5, 5, 0.37) == 0.37
        assert allocation_probability(3, 7, 0.37) == 0.37
        assert allocation_probability(6, 2, 0.0) == 0.0
        assert allocation_probability(5, 2, 1.0) == pytest.approx(0.4, abs=1e-15)

    def test_two_bidders_one_unit(self):
        assert allocation_probability(2, 1, 0.75) == pytest.approx(15 / 32, abs=1e-15)

    @pytest.mark.parametrize("n,k", [(1, 1), (4, 2), (7, 3), (8, 8), (12, 5)])
    def test_matches_exact_rational_oracle(self, n, k):
        for q_r in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(19, 20)):
            want = float(allocation_oracle(n, k, q_r))
            got = allocation_probability(n, k, float(q_r))
            assert got == pytest.approx(want, abs=1e-13)

    def test_refuses_huge_n(self):
        with pytest.raises(ValueError):
            allocation_probability(10 ** 15, 5, 0.6)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            allocation_probability(5, 0, 0.5)
        with pytest.raises(ValueError):
            allocation_probability(5, 2, 1.2)


class TestHedgePrices:
    def test_unlimited(self):
        assert hedge_unlimited_price(uniform(0.0, 1.0)) == pytest.approx(0.25, abs=1e-12)
        assert hedge_unlimited_price(exponential(1.0)) == pytest.approx(
            math.exp(-1.0), abs=1e-12)
        assert hedge_unlimited_price(left_triangle(0.01)) == pytest.approx(1.0, abs=1e-9)

    def test_unlimited_requires_regular(self):
        with pytest.raises(ValueError):
            hedge_unlimited_price(irregular_example(0.01))

    def test_limited_uniform_closed_form(self):
        # r = 1/4, q_r = 3/4, q = 15/32, price = 1 - q = 17/32
        assert hedge_limited_price(uniform(0.0, 1.0), 2, 1) == pytest.approx(
            17 / 32, abs=1e-12)
        assert hedge_limited_price(uniform(0.0, 1.0), 3, 1) == pytest.approx(
            0.671875, abs=1e-12)

    def test_limited_exponential_closed_form(self):
        # r = 1/e, q_r = e^(-1/e), q = (1 - (1-q_r)^3)/3, price = -ln(q)
        q_r = math.exp(-math.exp(-1.0))
        want = -math.log((1.0 - (1.0 - q_r) ** 3) / 3.0)
        got = hedge_limited_price(exponential(1.0), 3, 1)
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx(1.1282069753061033, abs=1e-12)

    def test_full_supply_reduces_to_unlimited(self):
        assert hedge_limited_price(uniform(0.0, 1.0), 3, 3) == pytest.approx(
            0.25, abs=1e-12)

    @pytest.mark.parametrize(
        "d", [uniform(0.0, 1.0), exponential(1.0), left_triangle(0.01), gen_regular(5)],
        ids=lambda d: d.label)
    @pytest.mark.parametrize("n,k", [(2, 1), (5, 2), (9, 4), (6, 6)])
    def test_pipeline_consistency(self, d, n, k):
        p_star, q_star = d.monopoly_price()
        q_r = float(d.sale_probability(p_star * q_star))
        q = allocation_probability(n, k, q_r)
        assert k / (2 * n) - 1e-12 <= q <= k / n + 1e-12
        assert hedge_limited_price(d, n, k) == pytest.approx(
            float(d.quantile(1.0 - q)), abs=1e-12)

    def test_limited_requires_regular(self):
        with pytest.raises(ValueError):
            hedge_limited_price(irregular_example(0.01), 2, 1)


class TestFactories:
    def test_derived_kinds(self):
        d = uniform(0.0, 1.0)
        m, _ = parse_mechanism("myerson:1", d)
        assert isinstance(m, VcgMechanism)
        assert (m.k, m.reserve) == pytest.approx((1, 0.5), abs=1e-9)
        m, _ = parse_mechanism("opt-single:power:0.5", d)
        assert (m.k, m.reserve) == pytest.approx((1, 1 / 3), abs=1e-9)
        m, _ = parse_mechanism("hedge:2,2", d)
        assert isinstance(m, PostedPriceMechanism)
        assert m.price == pytest.approx(0.25, abs=1e-12)
        m, _ = parse_mechanism("hedge:2,1", d)
        assert m.price == pytest.approx(17 / 32, abs=1e-12)

    def test_derived_price_error_propagation(self):
        with pytest.raises(ValueError, match="regular") as info:
            parse_mechanism("hedge:2,2", irregular_example(0.01))
        assert not isinstance(info.value, SpecParseError)

    @pytest.mark.parametrize("spec", ["hedge:2,1", "myerson:1", "opt-single:linear"])
    def test_derived_kinds_need_a_distribution(self, spec):
        with pytest.raises(SpecParseError, match="needs a distribution"):
            parse_mechanism(spec)

    # well-formed derived specs that name no mechanism: the error names the
    # kind, not the function that would have priced it
    @pytest.mark.parametrize("spec,d", [
        ("hedge:3,0", uniform(0.0, 1.0)),
        ("hedge:0,0", uniform(0.0, 1.0)),
        ("myerson:0", uniform(0.0, 1.0)),
        ("opt-single:linear", irregular_example(0.01)),
    ])
    def test_derived_kind_errors_name_the_kind(self, spec, d):
        with pytest.raises(SpecParseError) as info:
            parse_mechanism(spec, d)
        assert str(info.value).startswith(f"{spec.split(':')[0]} mechanism needs ")

    def test_parse_forms(self):
        d = uniform(0.0, 1.0)
        m, implied = parse_mechanism("posted:0.5,2", d)
        assert isinstance(m, PostedPriceMechanism)
        assert (m.price, m.k, implied) == (0.5, 2, None)
        m, implied = parse_mechanism("vcg:2,0.3", d)
        assert (m.k, m.reserve, implied) == (2, 0.3, None)
        m, implied = parse_mechanism("hedge:3,1", d)
        assert implied == 3
        assert m.label == "hedge:3,1"
        assert m.price == pytest.approx(0.671875, abs=1e-12)
        m, implied = parse_mechanism("myerson:2", d)
        assert m.label == "myerson:2"
        assert m.reserve == pytest.approx(0.5, abs=1e-9)
        m, implied = parse_mechanism("opt-single:power:0.5", d)
        assert m.label == "opt-single:power:0.5"
        assert m.reserve == pytest.approx(1 / 3, abs=1e-9)

    @pytest.mark.parametrize("bad", [
        "posted:1", "posted:-1,2", "vcg:0,0", "frob:1", "opt-single:capped:0.1",
        "posted:a,b", "hedge:2", "hedge:0,1", "myerson:x",
    ])
    def test_parse_rejections(self, bad):
        with pytest.raises(SpecParseError):
            parse_mechanism(bad, uniform(0.0, 1.0))

    def test_constructor_validation(self):
        with pytest.raises(SpecParseError):
            PostedPriceMechanism(-0.1, 1)
        with pytest.raises(SpecParseError):
            PostedPriceMechanism(0.5, 0)
        with pytest.raises(SpecParseError):
            VcgMechanism(1, -0.2)

    def test_labels(self):
        assert PostedPriceMechanism(0.5, 2).label == "posted:0.5,2"
        assert VcgMechanism(2, 0.3).label == "vcg:2,0.3"
        assert VcgMechanism(2, 0.3, name="myerson:2").label == "myerson:2"
