"""The binomial kernel against 40-digit mpmath, its windows and rows; the
sign-change bisection; the adaptive Gauss-Kronrod quadrature.
"""
import math
import tracemalloc
from fractions import Fraction
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riskauctions import numerics
from riskauctions.numerics import (BINOM_BUDGET, BINOM_TAIL, GK21_NODES, GK21_WEIGHTS,
                                  PMF_ERR, PMF_ERR_LAMBDA, QUAD_EPSABS, QUAD_EPSREL,
                                  STIRLERR_EXACT, binom_halfwidth, binom_pmf,
                                  binom_expect, binom_pmf_rows, binom_window, bisect_root,
                                  gauss_kronrod, order_stat_pdf)

SPECIAL_PS = [0.0, 1.0, 1e-300, 1.0 - 2.0 ** -53]
U = 2.0 ** -53


def mp_pmf_and_lambda(n, p, y):
    """The Bin(n, p) pmf at y to 40 digits, and lambda = bd0(y, np) +
    bd0(n - y, nq) of the kernel's error bound."""
    with mpmath.workdps(40):
        p, q = mpmath.mpf(p), 1 - mpmath.mpf(p)
        pmf = mpmath.binomial(n, y) * p ** y * q ** (n - y)
        lam = ((y * mpmath.log(y / (n * p)) if y else 0)
               + ((n - y) * mpmath.log((n - y) / (n * q)) if y < n else 0))
        return pmf, float(lam)


def test_stirlerr_constants_against_mpmath():
    with mpmath.workdps(40):
        for y in range(1, 16):
            want = (mpmath.loggamma(y + 1) - (y + mpmath.mpf(0.5)) * mpmath.log(y) + y
                    - mpmath.log(2 * mpmath.pi) / 2)
            assert STIRLERR_EXACT[y] == float(want), y
        # the series takes over above 15; its error, which enters the pmf's
        # exponent as it is, stays below 2^-52 (the truncation at 16)
        for y in (16, 17, 40, 1000, 10 ** 6):
            want = (mpmath.loggamma(y + 1) - (y + mpmath.mpf(0.5)) * mpmath.log(y) + y
                    - mpmath.log(2 * mpmath.pi) / 2)
            got = float(numerics._stirlerr_range(y, y)[0])
            assert abs(got - want) <= 2 * U, y


@pytest.mark.parametrize("n,p", [(60, 0.95), (10 ** 4, 0.5), (10 ** 4, 1e-3),
                                 (10 ** 6, 0.37), (10 ** 8, 0.5)])
def test_kernel_within_its_stated_bound(n, p):
    # y at the mean and 1, 3, 8 and 30 standard deviations either side
    sd = math.sqrt(n * p * (1 - p))
    ys, pmf, _ = binom_window(n, p)
    for z in (0, 1, 3, 8, 30):
        for y in {min(max(round(n * p + s * z * sd), 0), n) for s in (-1, 1)}:
            if not ys[0] <= y <= ys[-1]:
                continue  # outside the window at 30 sd
            got = float(pmf[int(y - ys[0])])
            want, lam = mp_pmf_and_lambda(n, p, y)
            assert abs(got - want) <= (PMF_ERR + PMF_ERR_LAMBDA * lam) * U * want, (y, lam)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 400), p=st.floats(1e-6, 1.0, exclude_max=True))
def test_kernel_within_its_stated_bound_on_whole_rows(n, p):
    # both sides of n = 180, where the deviance series starts
    for y, got in enumerate(binom_pmf(n, p).tolist()):
        want, lam = mp_pmf_and_lambda(n, p, y)
        if want > 1e-300:
            assert abs(got - want) <= (PMF_ERR + PMF_ERR_LAMBDA * lam) * U * want, y


@settings(max_examples=300, deadline=None)
@given(n=st.integers(0, 200),
       drawn=st.lists(st.floats(0.0, 1.0), max_size=12),
       order=st.randoms(use_true_random=False))
def test_rows_are_bit_equal_to_one_pmf_per_call(n, drawn, order):
    ps = drawn + SPECIAL_PS
    order.shuffle(ps)
    rows = binom_pmf_rows(n, ps)
    assert rows.shape == (len(ps), n + 1)
    for p, row in zip(ps, rows):
        assert binom_pmf(n, p).tobytes() == row.tobytes(), p
        ys, pmf, _ = binom_window(n, p)
        assert pmf.tobytes() == row[int(ys[0]):int(ys[-1]) + 1].tobytes(), p


def test_edge_rows_are_unit_vectors():
    rows = binom_pmf_rows(4, [0.0, 1.0, 0.0])
    assert rows.tolist() == [[1, 0, 0, 0, 0], [0, 0, 0, 0, 1], [1, 0, 0, 0, 0]]
    assert binom_pmf_rows(0, [0.0, 0.3, 1.0]).tolist() == [[1.0], [1.0], [1.0]]
    assert binom_pmf_rows(7, []).shape == (0, 8)
    for p, y in ((0.0, 0.0), (1.0, 7.0)):
        assert [a.tolist() for a in binom_window(7, p)[:2]] == [[y], [1.0]]


def test_edge_rows_raise_no_overflow_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = binom_pmf_rows(10_000, [0.0, 1.0, 0.5])
    assert rows[0, 0] == 1.0 and rows[1, -1] == 1.0 and rows[:2].sum() == 2.0


def test_rows_sum_to_one():
    rows = binom_pmf_rows(60, np.linspace(0.0, 1.0, 41))
    np.testing.assert_allclose(rows.sum(axis=1), 1.0, rtol=0, atol=60 * 2 * U)


@pytest.mark.parametrize("n", [1, 21, 22, 1000, 20_000, 10 ** 6, 10 ** 8])
@pytest.mark.parametrize("p", [1e-9, 1e-3, 0.37, 0.5, 1 - 1e-6])
def test_windows_sum_to_one_within_their_tail(n, p):
    ys, pmf, tail = binom_window(n, p)
    assert np.array_equal(ys, np.arange(ys[0], ys[-1] + 1))
    assert tail == (0.0 if len(ys) == n + 1 else BINOM_TAIL)
    assert len(ys) <= min(n + 1, 2 * binom_halfwidth(n) + 3)
    assert abs(float(pmf.sum()) - 1.0) <= n * 2 * U + tail


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 2000),
       p=st.one_of(st.floats(1e-6, 1.0, exclude_max=True),
                   st.floats(-323.0, -6.0).map(lambda e: 10.0 ** e)),
       cut=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 32 - 1))
# pmf(2) = 1e-600 underflows to 0, and every count above it
@example(n=2000, p=1e-300, cut=1.0, seed=1)
# pmf(1) = 1.5e-320 is subnormal, pmf(2) and up underflow
@example(n=3, p=5e-321, cut=1.0, seed=2)
@example(n=1, p=0.5, cut=1.0, seed=3)
def test_binom_expect_within_its_abserr(n, p, cut, seed):
    # random weights in [0, 1), those past a random count 0; the truth sums
    # the whole row to 60 digits
    w_all = np.random.default_rng(seed).random(n + 1)
    w_all[round(cut * n) + 1:] = 0.0

    def weight(y):
        return w_all[y[:max(round(cut * n) - int(y[0]) + 1, 0)].astype(int)]

    value, abserr = binom_expect(n, p, weight, lambda: 1.0)
    with mpmath.workdps(60):
        q = mpmath.mpf(p)
        truth = mpmath.fsum(mpmath.mpf(float(w)) * mpmath.binomial(n, y) * q ** y
                            * (1 - q) ** (n - y) for y, w in enumerate(w_all) if w)
        assert abs(value - truth) <= abserr


@pytest.mark.parametrize("p", [1.3e-160, 8.43e-161, 5.2e-162, 3.48e-162])
def test_binom_expect_counts_the_rounding_of_subnormal_pmfs(p):
    # pmf(2) = p^2 is subnormal, so it rounds absolutely, by up to 2^-1075;
    # at weight 1000 that is far above the value's relative errors
    value, abserr = binom_expect(2, p, lambda y: np.where(y == 2, 1000.0, 0.0), lambda: 1000.0)
    with mpmath.workdps(60):
        assert abs(value - 1000 * mpmath.mpf(p) ** 2) <= abserr


def test_binom_expect_counts_the_rounding_of_subnormal_products():
    # 3 2^-1074 times the pmfs 1/4, 1/2, 1/4: each product is subnormal and
    # rounds up, so the float sum is 4 units where the exact one is 3
    w = 3 * 2.0 ** -1074
    value, abserr = binom_expect(2, 0.5, lambda y: np.full(3, w), lambda: w)
    exact = sum(Fraction(w) * Fraction(math.comb(2, y), 4) for y in range(3))
    assert Fraction(value) != exact
    assert abs(Fraction(value) - exact) <= Fraction(abserr)


def test_binom_expect_asks_for_the_largest_weight_only_when_it_needs_it():
    def never():
        raise AssertionError("w_max called")

    # a whole window of normal pmfs states its error relative to the value
    value, abserr = binom_expect(21, 0.5, lambda y: y, never)
    assert value == pytest.approx(10.5, rel=1e-15) and 0 < abserr < 1e-12
    # with a tail, or a pmf below 2^-1022, it needs the largest weight
    for n, p in ((22, 0.5), (3, 1e-300)):
        assert binom_expect(n, p, lambda y: y, lambda: n)[1] >= 2.0 ** -1074 * n
    # p = 0 and p = 1 are one exact count, whose one product the bound
    # still counts
    value, abserr = binom_expect(5, 0.0, lambda y: y + 1, never)
    assert value == 1.0 and abserr <= 2.0 ** -51
    assert binom_expect(5, 1.0, lambda y: y[:0], never) == (0.0, 0.0)


def test_small_n_windows_are_whole_rows():
    # a > n up to n = 21, so nothing is left out whatever p is
    assert binom_halfwidth(21) > 21
    for n in range(22):
        for p in (1e-300, 1e-3, 0.5, 0.999):
            ys, _, tail = binom_window(n, p)
            assert (ys[0], ys[-1], tail) == (0, n, 0.0)


def test_huge_n_is_refused_before_anything_is_allocated():
    tracemalloc.start()
    try:
        for call in (lambda: binom_window(10 ** 15, 0.5), lambda: binom_window(10 ** 400, 0.5),
                     lambda: binom_pmf(BINOM_BUDGET, 0.5),
                     lambda: binom_pmf_rows(1000, np.full(BINOM_BUDGET // 1000, 0.5))):
            with pytest.raises(ValueError, match="more than the 4194304 terms allowed"):
                call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20  # the last call's 4,194 probabilities, no rows
    # the largest window that fits: n = 2 * 10^11, about 2.9 million terms
    assert 2 * binom_halfwidth(2 * 10 ** 11) + 3 <= BINOM_BUDGET


def test_validation_matches_the_scalar_form():
    for call in (lambda: binom_pmf_rows(-1, [0.5]), lambda: binom_pmf(-1, 0.5),
                 lambda: binom_window(-1, 0.5)):
        with pytest.raises(ValueError, match="nonnegative"):
            call()
    for bad in (-1e-12, 1.0 + 1e-12, math.nan, math.inf):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            binom_pmf_rows(5, [0.5, bad])
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            binom_pmf(5, bad)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            binom_window(5, bad)
    with pytest.raises(ValueError, match="1-d"):
        binom_pmf_rows(5, [[0.5]])


@given(st.floats(1e-300, 1.0, exclude_max=True))
def test_bisect_root_keeps_the_lower_end_at_float_resolution(root):
    seen = []

    def f(x):
        seen.append(x)
        return 1.0 if x <= root else -1.0

    assert bisect_root(f, 0.0, 1.0) == root
    assert 0.0 not in seen and 1.0 not in seen
    assert len(seen) <= 1074


def test_bisect_root_without_a_nonnegative_point_returns_lo():
    assert bisect_root(lambda x: -1.0, 0.0, 1.0) == 0.0


def test_gauss_kronrod_rule_degrees():
    # on [-1, 1] the 21-point Kronrod rule integrates x^j exactly for
    # j <= 31, its embedded 10-point Gauss rule for j <= 19
    kronrod, gauss = GK21_WEIGHTS.T
    assert np.all(np.diff(GK21_NODES) > 0) and GK21_NODES[10] == 0.0
    assert np.array_equal(GK21_NODES, -GK21_NODES[::-1])
    assert np.count_nonzero(gauss) == 10
    x, w = np.polynomial.legendre.leggauss(10)
    np.testing.assert_allclose(GK21_NODES[gauss > 0], x, rtol=0, atol=1e-15)
    np.testing.assert_allclose(gauss[gauss > 0], w, rtol=0, atol=1e-15)
    for j in range(32):
        exact = (1 - (-1) ** (j + 1)) / (j + 1)
        assert abs(kronrod @ GK21_NODES ** j - exact) <= 1e-15, j
        if j < 20:
            assert abs(gauss @ GK21_NODES ** j - exact) <= 1e-15, j
    assert abs(gauss @ GK21_NODES ** 20 - 2 / 21) > 1e-7


def test_gauss_kronrod_converges_within_its_estimate():
    calls = []

    def f(x):
        calls.append(len(x))
        return np.sqrt(x) * np.cos(10 * x)  # a square-root end at 0

    want = float(mpmath.quad(lambda x: mpmath.sqrt(x) * mpmath.cos(10 * x), [0, 1]))
    val, err = gauss_kronrod(f, [0.0, 0.5, 1.0])
    assert err <= max(QUAD_EPSABS, QUAD_EPSREL * abs(val))
    assert abs(val - want) <= err
    assert calls[0] == 2 * 21 and all(c % 21 == 0 for c in calls)


def test_gauss_kronrod_edges():
    assert gauss_kronrod(np.exp, [1.0, 1.0]) == (0.0, 0.0)
    val, err = gauss_kronrod(lambda x: x ** 5, [0.0, 0.3, 0.3, 1.0])
    assert abs(val - 1 / 6) <= err and 0.0 < err <= 1e-14  # the rounding floor


def test_gauss_kronrod_reports_a_hit_budget(monkeypatch):
    # 1/sqrt(x) on (0, 1] needs ever smaller panels at 0; with room for 30,
    # the error estimate stays above the target and covers the true error
    monkeypatch.setattr(numerics, "GK_MAX_PANELS", 30)
    calls = []

    def f(x):
        calls.append(len(x))
        return 1.0 / np.sqrt(x)

    val, err = gauss_kronrod(f, [0.0, 1.0])
    assert err > max(QUAD_EPSABS, QUAD_EPSREL * abs(val))
    assert abs(val - 2.0) <= err
    assert sum(calls) <= 21 * (1 + 2 * 29)


@pytest.mark.parametrize("t,n", [(2, 5), (3, 40), (600, 1200), (5000, 10_000), (2, 10 ** 6)])
def test_order_stat_pdf_takes_arrays(t, n):
    # the kernel branch (the middle two) runs the same NumPy operations on a
    # float and on an array; the polynomial branch's power differs between
    # Python floats and NumPy by an ulp or so
    qs = np.concatenate([[0.0, 5e-324, 1e-300, 1.0 - 2.0 ** -53, 1.0],
                         np.random.default_rng(1).random(2000)])
    pdf = order_stat_pdf(t, n)
    one_at_a_time = np.array([pdf(float(q)) for q in qs])
    assert all(isinstance(pdf(float(q)), float) for q in qs[:5])
    np.testing.assert_allclose(pdf(qs), one_at_a_time, rtol=1e-15, atol=0.0)
    assert pdf(qs)[0] == 0.0 and pdf(qs)[4] == 0.0


@pytest.mark.parametrize("t,n,q", [(600, 1200, 0.5), (600, 1200, 0.47),
                                   (5000, 10_000, 0.51), (1100, 3000, 0.35)])
def test_order_stat_pdf_kernel_branch_against_mpmath(t, n, q):
    # n pmf(t - 1; n - 1, q), within the kernel's bound (and a rounding of n)
    got = order_stat_pdf(t, n)(q)
    want, lam = mp_pmf_and_lambda(n - 1, q, t - 1)
    assert abs(got - n * want) <= (PMF_ERR + 1 + PMF_ERR_LAMBDA * lam) * U * n * want
