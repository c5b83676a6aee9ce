"""Small numeric building blocks shared across the package.

Everything here is deterministic: no global RNG state, and the one cache
(the last binomial window) never changes a result.
"""
from __future__ import annotations

import functools
import math

import numpy as np


def elementwise(kernel, x, lo=None, hi=None, message: str = ""):
    """``kernel`` applied to ``x`` as a float array: a float in, a float out.

    ``x`` is a number or an array-like.  The kernel sees a NumPy array (0-d
    for a number) and returns values of the same shape, which come back as a
    Python float for a 0-d input.  Before it runs, an element below ``lo`` or
    above ``hi`` raises ValueError(``message``); NaN passes.
    """
    a = np.asarray(x, dtype=float)
    if (lo is not None and (a < lo).any()) or (hi is not None and (a > hi).any()):
        raise ValueError(message)
    out = kernel(a)
    return float(out) if a.ndim == 0 else out


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


# -- binomial probabilities --------------------------------------------------
#
# One pmf kernel, C. Loader's saddle-point form ("Fast and Accurate
# Computation of Binomial Probabilities", 2000; the method behind R's dbinom):
#
#   pmf(y) = exp(stirlerr(n) - stirlerr(y) - stirlerr(n - y)
#                - bd0(y, np) - bd0(n - y, nq)) * sqrt(n / (2 pi y (n - y)))
#
# for 0 < y < n, with pmf(0) = exp(n log1p(-p)) and pmf(n) = exp(n log p).
# stirlerr(y) = log(y!) - log(sqrt(2 pi y) (y/e)^y) is the error of Stirling's
# formula and bd0(x, m) = x log(x/m) + m - x >= 0 the deviance of x from m.

# stirlerr(y) for y = 0..15, correctly rounded (stirlerr(0) is never used)
STIRLERR_EXACT = (0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
                  0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
                  0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
                  0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
                  0.006408994188004207, 0.0059513701127588475, 0.005554733551962801)


def _stirlerr_series(y):
    """Stirling's series 1/(12y) - 1/(360y^3) + ... to 1/(1188y^9), for y > 15,
    where the next term is below 2^-53."""
    w = 1.0 / (y * y)
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - w / 1188) * w) * w) * w) / y


# every y below 4,096 is looked up; the series makes the same bits on demand
_STIRLERR = np.concatenate((STIRLERR_EXACT, _stirlerr_series(np.arange(16.0, 4096.0))))


def _stirlerr_range(lo: int, hi: int) -> np.ndarray:
    """stirlerr(y) for y = lo..hi, 0 < lo <= hi."""
    if hi < len(_STIRLERR):
        return _STIRLERR[lo:hi + 1]
    tail = _stirlerr_series(np.arange(max(lo, len(_STIRLERR)), hi + 1, dtype=float))
    return tail if lo >= len(_STIRLERR) else np.concatenate((_STIRLERR[lo:], tail))


# bd0's series in v = (x - m)/(x + m) where |v| < 0.1: bd0 = (x - m) v +
# x v^3 (2/3 + 2v^2/5 + ...); the eight terms leave out less than 2^-60 of it
_BD0_SERIES = tuple(2.0 / (2 * j + 3) for j in range(8))[::-1]
# without the series, the log1p form's error of about 4 |y - np| 2^-53 is
# within the stated bound up to n = 360, as lambda >= 2 (y - np)^2 / n
# (Pinsker); half that is where the series starts
_SERIES_N = 180
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitting constant


def _mean(n: int, p):
    """(hi, lo, nq): n p = hi + lo, and n (1 - p) to within a relative 2^-53
    (1 - p is exact for p > 1/2, and n - hi loses nothing below).  p is a
    float or an array; the arithmetic is the same, and so are the bits.  lo is
    exact (Dekker's product, for n < 2^53) where bd0's series may run, n >
    _SERIES_N, and 0 below, as the log1p form's bound already counts the
    |y - np| 2^-53 that the rounding of np costs."""
    hi = n * p
    if n <= _SERIES_N:
        lo = 0.0
    else:
        c = _SPLIT * p
        p_hi = c - (c - p)
        p_lo = p - p_hi
        n_hi, n_lo = float(n >> 27 << 27), float(n & (2 ** 27 - 1))
        lo = ((n_hi * p_hi - hi) + n_hi * p_lo + n_lo * p_hi) + n_lo * p_lo
    if isinstance(p, float):
        return hi, lo, n * (1.0 - p) if p > 0.5 else n - hi
    return hi, lo, np.where(p > 0.5, n * (1.0 - p), n - hi)


_CHUNK = 2 ** 16  # pmf values per kernel pass: bounds the temporaries


def _bd0(x, m, d, series: bool, tiny: bool):
    """bd0(x, m) = x log(x/m) + m - x, given d = x - m (exactly): x log1p(d/m) -
    d, and with ``series`` its series where |d| < (x + m)/10.  ``tiny`` says
    m may be 0 or below 2^-960, where x/m can overflow: log x - log m stands
    in there."""
    if tiny:
        with np.errstate(over="ignore", divide="ignore"):
            log_ratio = np.log1p(d / m)
            np.copyto(log_ratio, np.log(x) - np.log(m), where=np.isinf(log_ratio))
    else:  # x/m <= max(1/p, 2^53) <= 2^960: nothing overflows
        log_ratio = np.log1p(d / m)
    out = x * log_ratio - d
    if series:
        v = d / (x + m)
        w = v * v
        poly = _BD0_SERIES[0] * w + _BD0_SERIES[1]
        for c in _BD0_SERIES[2:]:
            poly *= w
            poly += c
        np.copyto(out, d * v + x * v * w * poly, where=w < 0.01)
    return out


def _interior(n: int, lo: int, hi: int, mean, mean_lo, nq, tiny: bool) -> np.ndarray:
    """The kernel at y = lo..hi (0 < lo <= hi < n): one value per y, or a row
    per success probability when ``mean``, ``mean_lo`` and ``nq`` from `_mean`
    are columns rather than floats.  y - np is exact; n - y - nq is its
    negative."""
    y = np.arange(lo, hi + 1, dtype=float)
    st = (_stirlerr_range(n, n)[0] - _stirlerr_range(lo, hi)
          - _stirlerr_range(n - hi, n - lo)[::-1])
    d = (y - mean) - mean_lo
    rest = n - y
    series = n > _SERIES_N
    lam = _bd0(y, mean, d, series, tiny) + _bd0(rest, nq, -d, series, tiny)
    return np.exp(st - lam) * np.sqrt((n / (2.0 * math.pi)) / (y * rest))


def _fill(out: np.ndarray, n: int, lo: int, ps: np.ndarray) -> None:
    """Write the pmf at y = lo, lo + 1, ... into the columns of ``out``, one
    row per success probability in ``ps`` (each strictly inside (0, 1))."""
    rows = len(ps)
    if not rows:
        return
    p = float(ps[0]) if rows == 1 else ps[:, None]
    mean, mean_lo, nq = _mean(n, p)
    tiny = (p if rows == 1 else ps.min()) < 2.0 ** -960
    hi = lo + out.shape[1] - 1
    if lo == 0:
        out[:, 0] = np.exp(n * np.log1p(-ps))
    if hi == n:
        out[:, -1] = np.exp(n * np.log(ps))
    step = max(_CHUNK // rows, 1)
    for a in range(max(lo, 1), min(hi, n - 1) + 1, step):
        b = min(a + step - 1, hi, n - 1)
        out[:, a - lo:b - lo + 1] = _interior(n, a, b, mean, mean_lo, nq, tiny)


BINOM_TAIL = 2.0 ** -60  # the mass a window may leave out
BINOM_BUDGET = 2 ** 22  # terms of one binomial window or set of rows: 32 MiB of float64
# relative error of a pmf value: at most (PMF_ERR + PMF_ERR_LAMBDA * lambda) * 2^-53
PMF_ERR, PMF_ERR_LAMBDA = 16.0, 48.0


def binom_halfwidth(n: int) -> int:
    """a = ceil(sqrt(n ln(2/BINOM_TAIL) / 2)), so that P[|Y - np| > a] <=
    2 exp(-2a^2/n) <= BINOM_TAIL for Y ~ Bin(n, p) (Hoeffding, 1963).  At
    n <= 21, a > n, so the window is all of 0..n for every p."""
    return math.ceil(math.sqrt(n * 61.0 * math.log(2.0) / 2.0))


def _check_terms(n: int, terms: int) -> None:
    if terms > BINOM_BUDGET:
        raise ValueError(f"a binomial sum over n = {n} needs more than the "
                         f"{BINOM_BUDGET} terms allowed")


def _check_args(n: int, p_ok) -> None:
    if n < 0:
        raise ValueError("n must be nonnegative")
    if not p_ok:
        raise ValueError("success probability must lie in [0, 1]")


def binom_window(n: int, p: float) -> tuple[np.ndarray, np.ndarray, float]:
    """(y, pmf, tail): the Bin(n, p) pmf at the consecutive counts y (a float
    array) within n p +- `binom_halfwidth(n)`, and a bound on the mass
    outside them: BINOM_TAIL, or 0 when y is all of 0..n.  A sum over y of
    weights in [0, W] times the pmf is thus within tail * W of the full sum.

    Each value has a relative error below (PMF_ERR + PMF_ERR_LAMBDA * lambda)
    * 2^-53, lambda = bd0(y, np) + bd0(n - y, nq) (about z^2/2 at z standard
    deviations), which the exponent's rounding makes unavoidable.  Where bd0's
    series applies (n > 180, |y - np| < (y + np) / 10), np is carried to twice
    float precision and bd0 is exact to a few ulps; elsewhere its log1p form
    loses at most 4 |y - np| ulps, the rounding of np included, which is
    below 41 bd0 ulps.  Against 40-digit mpmath (n up to 10^9, z up to 30,
    every y up to n = 2,000) the largest error seen was 0.5 of the bound.  As
    pmf * lambda <= 1/e, each value is also within (PMF_ERR * pmf +
    PMF_ERR_LAMBDA / e) * 2^-53 absolutely.

    Raises ValueError before allocating anything if n could need a window of
    more than BINOM_BUDGET terms, whatever p is.  The arrays are read-only: the
    last window is kept, as an exact evaluation asks for its counts and then
    sums over it, once per group of a utility family's rows.
    """
    return _window(n, float(p))[:3]


def binom_expect(n: int, p: float, weight, w_max):
    """(value, abserr): value = sum of weight(y) pmf(y) over the counts y of
    `binom_window(n, p)`.  ``weight`` maps them to weights in [0, W], and may
    return only the first few (the rest weigh 0); ``w_max()``, called only
    when needed, is W.  A 1-d weight gives two floats.  A 2-d weight, one row
    per expectation over the same counts, gives two arrays, one value per
    row, with W from ``w_max()`` per row; a row sums to the bits it would
    alone.  abserr bounds |value - E[weight(Y)]|, Y ~ Bin(n, p),
    by a term per known error: tail W; rel value for the pmfs, rel = (PMF_ERR
    + PMF_ERR_LAMBDA lambda_max) 2^-53, as lambda <= 0.05 - log pmf (Stirling
    terms below 0.042, root factor at most 1; lambda = -log pmf at y = 0, n);
    2^-1074 W per pmf below 2^-1022 and 2^-1075 per product, rounded absolutely
    if subnormal, their sum rounded up to whole 2^-1074s (2^-1075 is 0.0);
    gamma_(m+1) value for the sum of m terms, gamma_m = m u / (1 - m u), u =
    2^-53 (Higham, Accuracy and Stability, eq. 3.5); and if p is subnormal, so
    up to 2^-1074 off, y_max 2^-1074 / p in rel, as pmf(y) goes as p^y.  rel
    and the count of small pmfs stay with the window."""
    y, pmf, tail, rel, small = _window(n, float(p))
    w = weight(y)
    terms = w.shape[-1]
    value = np.add.reduce(w * pmf[:terms], axis=-1)  # np.sum without its wrapper
    m = (terms + 1) * 2.0 ** -53
    err = (rel + m / (1.0 - m)) * value + (terms + 1) // 2 * 2.0 ** -1074
    if tail or small:
        err += (tail + small * 2.0 ** -1074) * w_max()
    return (float(value), float(err)) if w.ndim == 1 else (value, err)


@functools.lru_cache(maxsize=1)
def _window(n: int, p: float):
    """`binom_window`'s (y, pmf, tail), checked, and `binom_expect`'s rel and small."""
    _check_args(n, 0.0 <= p <= 1.0)
    a = binom_halfwidth(n) if n < 2 ** 60 else BINOM_BUDGET  # too wide either way
    _check_terms(n, min(n + 1, 2 * a + 3))
    if p == 0.0 or p == 1.0:
        y, pmf, tail, rel, small = np.array([n * p]), np.ones(1), 0.0, 0.0, 0
    else:
        lo = max(0, math.floor(n * p - a))  # one count to spare either side for
        hi = min(n, math.ceil(n * p + a))  # the rounding of n p
        out = np.empty((1, hi - lo + 1))
        _fill(out, n, lo, np.array([p]))
        y, pmf = np.arange(lo, hi + 1, dtype=float), out[0]
        tail = 0.0 if lo == 0 and hi == n else BINOM_TAIL
        lam = 0.05 - math.log(pmf.min() or pmf[pmf > 0.0].min())  # the least positive pmf
        sub = hi * 2.0 ** -1074 / p if p < 2.0 ** -1022 else 0.0  # a subnormal p's rounding
        rel = (PMF_ERR + PMF_ERR_LAMBDA * lam) * 2.0 ** -53 + sub
        small = int(np.count_nonzero(pmf < 2.0 ** -1022))
    y.flags.writeable = pmf.flags.writeable = False
    return y, pmf, tail, rel, small


def binom_pmf_rows(n: int, ps) -> np.ndarray:
    """Binomial pmfs over y = 0..n, one row per success probability in ``ps``
    (shape (len(ps), n + 1)), each value to the accuracy `binom_window`
    states.  Every operation is elementwise, so each row is the same bits
    whatever the other rows are.  p = 0 and p = 1 give unit vectors.  The rows
    take at most BINOM_BUDGET values in all."""
    ps = np.asarray(ps, dtype=float)
    if ps.ndim != 1:
        raise ValueError("success probabilities must form a 1-d sequence")
    _check_args(n, np.all((ps >= 0.0) & (ps <= 1.0)))
    _check_terms(n, len(ps) * (n + 1))
    out = np.zeros((len(ps), n + 1))
    out[ps == 0.0, 0] = 1.0
    out[ps == 1.0, n] = 1.0
    inside = (ps > 0.0) & (ps < 1.0)
    rows = np.empty((int(inside.sum()), n + 1))
    _fill(rows, n, 0, ps[inside])
    out[inside] = rows
    return out


def binom_pmf(n: int, p: float) -> np.ndarray:
    """Binomial pmf vector over y = 0..n: the one-row case of binom_pmf_rows."""
    return binom_pmf_rows(n, [p])[0]


POLY_MAX_EXPONENT = 2 ** 20  # largest n - t for order_stat_pdf's polynomial


def order_stat_pdf(t: int, n: int):
    """Density q -> n!/((t-1)!(n-t)!) q^(t-1) (1-q)^(n-t) of the t-th smallest
    of n uniforms (2 <= t <= n), for q in [0, 1], a float or an array.

    Where n - t <= POLY_MAX_EXPONENT and the constant fits a float, the
    constant is the correctly rounded integer and the density a polynomial:
    three array operations per quadrature round, against about fifteen for
    the kernel, and every VCG quadrature at small n takes this branch.  The
    rounding of 1 - q, at most 2^-53 relative, grows to (n - t) 2^-53 in the
    power, 1.2e-10 at most here.  C(n-1, m) >= 2^m for m = min(t-1, n-t), so
    from m = 1,024 on the constant overflows.  Otherwise the density is n
    pmf(t-1; n-1, q), the binomial kernel elementwise in q, with the error
    bound of `binom_window`.
    """
    if not 2 <= t <= n:
        raise ValueError("need 2 <= t <= n")
    if n >= 2 ** 53:  # _mean's split of n into two halves needs n < 2^53
        raise ValueError("n must be below 2^53")
    if n - t <= POLY_MAX_EXPONENT and min(t - 1, n - t) < 1024:
        try:
            coef = float(n * math.comb(n - 1, t - 1))
        except OverflowError:
            pass
        else:
            return lambda q: coef * q ** (t - 1) * (1.0 - q) ** (n - t)
    y, trials = t - 1, n - 1

    def kernel(q):
        out = _interior(trials, y, y, *_mean(trials, q.reshape(-1, 1)), True)  # q may be 0
        return n * out.reshape(q.shape)

    return functools.partial(elementwise, kernel)


def order_stat_cdf(t: int, n: int, x) -> float:
    """P[t-th smallest of n uniforms <= x]: at least t of the n fall at or
    below x, P[Bin(n, x) >= t] (the regularized incomplete beta function).
    It sums the whole row rather than a window, so that a tail far below
    BINOM_TAIL keeps its relative accuracy; n may reach BINOM_BUDGET - 1."""
    return float(binom_pmf(n, x)[t:].sum())
