"""Binomial pmf rows: bit identity with the one-pmf-per-call formula; the
sign-change bisection.

`scalar_binom_pmf` is the log-space formula that evaluated one pmf per call
before the row form existed; every row must reproduce its bits.
"""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from riskauctions.numerics import MAX_EXACT_N, binom_pmf, binom_pmf_rows, bisect_root

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
