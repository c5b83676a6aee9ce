"""Small numeric building blocks shared across the package.

Everything here is deterministic: no global RNG state, no caches that
depend on call order.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln

# Binomial sums are evaluated as exact log-space sums; beyond this size the
# caller should fall back to sampling instead of trusting a huge direct sum.
MAX_EXACT_N = 10_000

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi
_INV_PHI_SQ = (3.0 - math.sqrt(5.0)) / 2.0  # 1/phi^2


def golden_section_max(f, lo: float, hi: float, rel_tol: float = 1e-10,
                       max_iter: int = 200) -> tuple[float, float]:
    """Maximize a unimodal ``f`` on [lo, hi]; returns (argmax, max).

    Interval shrinks by 1/phi per step, so convergence is geometric and the
    iteration cap is only a safety net.
    """
    if not hi > lo:
        raise ValueError("golden_section_max needs hi > lo")
    a, b = lo, hi
    h = b - a
    c = a + _INV_PHI_SQ * h
    d = a + _INV_PHI * h
    fc, fd = f(c), f(d)
    scale = max(abs(lo), abs(hi), 1.0)
    for _ in range(max_iter):
        if h <= rel_tol * scale:
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            h = b - a
            c = a + _INV_PHI_SQ * h
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + _INV_PHI * h
            fd = f(d)
    x = c if fc >= fd else d
    return x, f(x)


def bisect_root(f, lo: float, hi: float) -> float:
    """Sign change of a nonincreasing ``f`` on (lo, hi), to float resolution.

    The ends are taken as f(lo) >= 0 > f(hi) and never evaluated, so ``f``
    need not be defined there.  Returns the lower end a of the final bracket
    [a, b]: f(a) >= 0 > f(b) (a = lo if no point reached f >= 0) and no float
    lies strictly between a and b.  Every step halves the bracket, so on
    (0, 1] this takes at most 1,074 steps, and 53 to 59 for a change
    between 0.01 and 1.
    """
    a, b = lo, hi
    while True:
        m = 0.5 * (a + b)
        if not a < m < b:
            return a
        if f(m) >= 0:
            a = m
        else:
            b = m


def binom_pmf_rows(n: int, ps) -> np.ndarray:
    """Binomial pmfs over y = 0..n, one row per success probability in ``ps``
    (shape (len(ps), n + 1)), exact to roundoff in log space.

    The logs are taken per p with ``math.log``/``math.log1p`` and every
    operation is elementwise, so each row is the same bits whatever the
    other rows are.  p = 0 and p = 1 give unit vectors.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > MAX_EXACT_N:
        raise ValueError(f"exact binomial sums are limited to n <= {MAX_EXACT_N}")
    ps = np.asarray(ps, dtype=float)
    if ps.ndim != 1:
        raise ValueError("success probabilities must form a 1-d sequence")
    ps = ps.tolist()
    log_p, log_q = [], []
    for p in ps:
        if not 0.0 <= p <= 1.0:
            raise ValueError("success probability must lie in [0, 1]")
        # p = 0 and p = 1 borrow the logs of p = 1/2, which cannot overflow
        # exp; their rows are reset below
        x = p if 0.0 < p < 1.0 else 0.5
        log_p.append(math.log(x))
        log_q.append(math.log1p(-x))
    y = np.arange(n + 1)
    g = gammaln(y + 1)  # reversed, it is gammaln(n - y + 1), as y reversed is n - y
    out = np.exp(gammaln(n + 1) - g - g[::-1]
                 + y * np.array(log_p)[:, None] + y[::-1] * np.array(log_q)[:, None])
    for i, p in enumerate(ps):
        if p == 0.0 or p == 1.0:
            out[i] = 0.0
            out[i, 0 if p == 0.0 else n] = 1.0
    return out


def binom_pmf(n: int, p: float) -> np.ndarray:
    """Binomial pmf vector over y = 0..n: the one-row case of binom_pmf_rows."""
    return binom_pmf_rows(n, [p])[0]


def order_stat_pdf(t: int, n: int):
    """Density q -> n!/((t-1)!(n-t)!) q^(t-1) (1-q)^(n-t) of the t-th smallest
    of n uniforms, for a float q in [0, 1].

    The constant is the correctly rounded integer when it fits a float.
    Otherwise (t - 1 and n - t both large, so the density is 0 at both ends)
    the density is taken in log space, with the constant's log from lgamma:
    about 1e-11 relative off at n = 10,000 and 1e-9 at n = 10^6.
    """
    log_c = math.lgamma(n + 1) - math.lgamma(t) - math.lgamma(n - t + 1)
    if log_c < 709.0:  # below log(max float) = 709.78, whatever lgamma's rounding
        coef = float(n * math.comb(n - 1, t - 1))
        return lambda q: coef * q ** (t - 1) * (1.0 - q) ** (n - t)

    def log_space_pdf(q):
        if not 0.0 < q < 1.0:
            return 0.0
        return math.exp(log_c + (t - 1) * math.log(q) + (n - t) * math.log1p(-q))

    return log_space_pdf


def order_stat_cdf(t: int, n: int, x) -> float:
    """P[t-th smallest of n uniforms <= x]: at least t of the n fall at or
    below x, P[Bin(n, x) >= t] (the regularized incomplete beta function)."""
    return float(binom_pmf(n, x)[t:].sum())
