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


# QUADPACK's 21-point Gauss-Kronrod pair on [-1, 1] (QK21; Piessens et al.,
# 1983): the Kronrod nodes in ascending order, the Kronrod weights, and the
# weights of the embedded 10-point Gauss rule, whose nodes are the Kronrod
# nodes at odd indices (zero weight at the others).
_GK21_HALF = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
              0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
              0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
              0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
              0.294392862701460198131126603103866, 0.148874338981631210884826001129720)
_K21_HALF = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
             0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
             0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
             0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
             0.142775938577060080797094273138717, 0.147739104901338491374841515972068)
_K21_MID = 0.149445554002916905664936468389821
_G10_HALF = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
             0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
             0.295524224714752870173892994651338)
GK21_NODES = np.array([-x for x in _GK21_HALF] + [0.0] + list(_GK21_HALF[::-1]))
GK21_WEIGHTS = np.zeros((21, 2))  # columns: Kronrod, Gauss
GK21_WEIGHTS[:, 0] = _K21_HALF + (_K21_MID,) + _K21_HALF[::-1]
GK21_WEIGHTS[1:10:2, 1] = _G10_HALF
GK21_WEIGHTS[11:20:2, 1] = _G10_HALF[::-1]
GK_MAX_PANELS = 2_000
QUAD_EPSABS, QUAD_EPSREL = 1e-12, 1e-8  # the accuracy every quadrature asks for
_ROUNDOFF_FLOOR = 50.0 * 2.0 ** -52  # QUADPACK's: 50 ulps of the panel's integral of |f|


def quad_target(value: float) -> float:
    """The accuracy every quadrature asks for at this value."""
    return max(QUAD_EPSABS, QUAD_EPSREL * abs(value))


def gauss_kronrod(f, edges) -> tuple[float, float]:
    """Adaptive 21-point Gauss-Kronrod integral of ``f`` over [edges[0],
    edges[-1]], as (value, abserr).

    ``f`` maps a 1-d array of points to the array of its values; it is called
    once per round, on the 21 nodes of every new panel, and never at a panel's
    ends.  The first panels lie between consecutive ``edges`` (sorted), so a
    kink or a jump placed on an edge costs nothing.  A panel's error estimate
    is |K - G|, its Kronrod value less its Gauss value, but at least 50 ulps of
    its integral of |f| (QUADPACK's rounding floor); abserr is their sum.  While
    abserr is above the target max(QUAD_EPSABS, QUAD_EPSREL * |value|), every
    panel whose |K - G| is above its share of the target, in proportion to its
    width, is halved.  It stops at GK_MAX_PANELS panels, which bounds memory,
    or when no such panel can be halved in floats, with abserr above the
    target: the value did not converge.
    """
    edges = np.asarray(edges, dtype=float)
    a, b = edges[:-1], edges[1:]
    a, b = a[b > a], b[b > a]
    span = float(edges[-1] - edges[0]) if len(a) else 0.0
    lo = hi = val = diff = floor = np.empty(0)
    while len(a):
        half = 0.5 * (b - a)
        mid = 0.5 * (a + b)
        fx = np.asarray(f((mid[:, None] + half[:, None] * GK21_NODES).ravel()),
                        dtype=float).reshape(len(a), 21)
        kg = (fx @ GK21_WEIGHTS) * half[:, None]
        lo, hi = np.concatenate((lo, a)), np.concatenate((hi, b))
        val = np.concatenate((val, kg[:, 0]))
        diff = np.concatenate((diff, np.abs(kg[:, 0] - kg[:, 1])))
        floor = np.concatenate((floor, _ROUNDOFF_FLOOR * (np.abs(fx) @ GK21_WEIGHTS[:, 0])
                                * half))
        target = quad_target(float(val.sum()))
        if not float(np.maximum(diff, floor).sum()) > target:
            break
        # halving cannot lower the rounding floor, so |K - G| alone decides
        mid = 0.5 * (lo + hi)
        split = np.flatnonzero((diff > target * (hi - lo) / span) & (lo < mid) & (mid < hi))
        room = max(GK_MAX_PANELS - len(lo), 0)
        if len(split) > room:
            split = split[np.argsort(-diff[split], kind="stable")[:room]]
        keep = np.ones(len(lo), dtype=bool)
        keep[split] = False
        a = np.concatenate((lo[split], mid[split]))
        b = np.concatenate((mid[split], hi[split]))
        lo, hi, val, diff, floor = lo[keep], hi[keep], val[keep], diff[keep], floor[keep]
    return float(val.sum()), float(np.maximum(diff, floor).sum())


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
    of n uniforms, for q in [0, 1], a float or an array.

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
        q = np.asarray(q, dtype=float)
        inside = (q > 0.0) & (q < 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(inside, np.exp(log_c + (t - 1) * np.log(q)
                                          + (n - t) * np.log1p(-q)), 0.0)
        return float(out) if out.ndim == 0 else out

    return log_space_pdf


def order_stat_cdf(t: int, n: int, x) -> float:
    """P[t-th smallest of n uniforms <= x]: at least t of the n fall at or
    below x, P[Bin(n, x) >= t] (the regularized incomplete beta function)."""
    return float(binom_pmf(n, x)[t:].sum())
