"""Binomial pmf rows: bit identity with the one-pmf-per-call formula; the
sign-change bisection; the adaptive Gauss-Kronrod quadrature.

`scalar_binom_pmf` is the log-space formula that evaluated one pmf per call
before the row form existed; every row must reproduce its bits.
"""
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from riskauctions import numerics
from riskauctions.numerics import (GK21_NODES, GK21_WEIGHTS, MAX_EXACT_N, QUAD_EPSABS,
                                  QUAD_EPSREL, binom_pmf, binom_pmf_rows, bisect_root,
                                  gauss_kronrod, order_stat_pdf)

SPECIAL_PS = [0.0, 1.0, 1e-300, 1.0 - 2.0 ** -53]


def scalar_binom_pmf(n, p):
    y = np.arange(n + 1)
    if p == 0.0 or p == 1.0:
        out = np.zeros(n + 1)
        out[0 if p == 0.0 else n] = 1.0
        return out
    return np.exp(gammaln(n + 1) - gammaln(y + 1) - gammaln(n - y + 1)
                  + y * math.log(p) + (n - y) * math.log1p(-p))


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
        want = scalar_binom_pmf(n, p)
        assert row.tobytes() == want.tobytes(), p
        assert binom_pmf(n, p).tobytes() == want.tobytes(), p


def test_edge_rows_are_unit_vectors():
    rows = binom_pmf_rows(4, [0.0, 1.0, 0.0])
    assert rows.tolist() == [[1, 0, 0, 0, 0], [0, 0, 0, 0, 1], [1, 0, 0, 0, 0]]
    assert binom_pmf_rows(0, [0.0, 0.3, 1.0]).tolist() == [[1.0], [1.0], [1.0]]
    assert binom_pmf_rows(7, []).shape == (0, 8)


def test_edge_rows_raise_no_overflow_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = binom_pmf_rows(MAX_EXACT_N, [0.0, 1.0, 0.5])
    assert rows[0, 0] == 1.0 and rows[1, -1] == 1.0 and rows[:2].sum() == 2.0


def test_rows_sum_to_one():
    rows = binom_pmf_rows(60, np.linspace(0.0, 1.0, 41))
    np.testing.assert_allclose(rows.sum(axis=1), 1.0, rtol=0, atol=1e-13)


def test_validation_matches_the_scalar_form():
    for call in (lambda: binom_pmf_rows(-1, [0.5]), lambda: binom_pmf(-1, 0.5)):
        with pytest.raises(ValueError, match="nonnegative"):
            call()
    for call in (lambda: binom_pmf_rows(MAX_EXACT_N + 1, [0.5]),
                 lambda: binom_pmf(MAX_EXACT_N + 1, 0.5)):
        with pytest.raises(ValueError, match="limited to n <= 10000"):
            call()
    for bad in (-1e-12, 1.0 + 1e-12, math.nan, math.inf):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            binom_pmf_rows(5, [0.5, bad])
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            binom_pmf(5, bad)
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
    # the log-space branch (the middle two) runs the same NumPy operations
    # on a float and on an array; the polynomial branch's power differs
    # between Python floats and NumPy by an ulp or so
    qs = np.concatenate([[0.0, 5e-324, 1e-300, 1.0 - 2.0 ** -53, 1.0],
                         np.random.default_rng(1).random(2000)])
    pdf = order_stat_pdf(t, n)
    one_at_a_time = np.array([pdf(float(q)) for q in qs])
    assert all(isinstance(pdf(float(q)), float) for q in qs[:5])
    np.testing.assert_allclose(pdf(qs), one_at_a_time, rtol=1e-15, atol=0.0)
    assert pdf(qs)[0] == 0.0 and pdf(qs)[4] == 0.0
