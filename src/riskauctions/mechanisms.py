"""Sale mechanisms: posted prices and VCG with reserves.

Both mechanisms are truthful: fixing everyone else, a winner pays exactly the
lowest bid at which she would still win.  Posted prices serve bidders in index
order while supply lasts; VCG serves the k highest bids that clear the
reserve, all paying max(reserve, (k+1)-st highest bid).  Ties break toward
the lower index, and a bid exactly at the price or reserve is accepted.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .distributions import Distribution, SpecParseError, parse_spec
from .numerics import binom_expect
from .utilities import UtilityFunction, optimal_reserve, parse_utility

__all__ = [
    "PostedPriceMechanism",
    "VcgMechanism",
    "batch_outcomes",
    "batch_revenue",
    "hedge_unlimited_price",
    "allocation_probability",
    "hedge_limited_price",
    "parse_mechanism",
]


def _as_matrix(bids) -> np.ndarray:
    arr = np.asarray(bids, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] < 1:
        raise ValueError("bids must form a nonempty profile")
    if not np.all(np.isfinite(arr)) or np.any(arr < 0):
        raise ValueError("bids must be finite and nonnegative")
    return arr


@dataclass(frozen=True)
class PostedPriceMechanism:
    price: float
    k: int
    name: str = ""

    def __post_init__(self):
        if not (math.isfinite(self.price) and self.price >= 0) or self.k < 1:
            raise SpecParseError("posted price needs a finite price >= 0 and k >= 1")

    @property
    def label(self) -> str:
        return self.name or f"posted:{self.price:g},{self.k}"


@dataclass(frozen=True)
class VcgMechanism:
    k: int
    reserve: float = 0.0
    name: str = ""

    def __post_init__(self):
        if not (math.isfinite(self.reserve) and self.reserve >= 0) or self.k < 1:
            raise SpecParseError("vcg needs a finite reserve >= 0 and k >= 1")

    @property
    def label(self) -> str:
        return self.name or f"vcg:{self.k},{self.reserve:g}"


Mechanism = PostedPriceMechanism | VcgMechanism

COUNT_BLOCK = 2 ** 15  # entries `_revenue` compares per count: 256 KiB of float64


def _scratch(work: dict | None, key: str, shape: tuple[int, int]) -> np.ndarray:
    """An uninitialized float array of ``shape``: a fresh one without
    ``work``, else a view of the buffer kept there under ``key``, which is
    reallocated only when a larger one is asked for."""
    if work is None:
        return np.empty(shape)
    buf = work.get(key)
    if buf is None or buf.shape[0] < shape[0] or buf.shape[1] < shape[1]:
        buf = work[key] = np.empty(shape)
    return buf[:shape[0], :shape[1]]


def _top_bids(b: np.ndarray, j: int, work: dict | None = None) -> list[np.ndarray]:
    """The j <= n highest entries of each row, in descending order, one
    vector per rank.  Tall tiles (the Monte Carlo case) take a running
    max/min insertion over the columns, so every NumPy call spans all rows;
    short ones, where those n*j calls would cost more than the entries, take
    one np.partition at n - j and sort the j entries above it (partitioning
    at all j ranks costs O(n) per rank).  Both give the exact order
    statistics.  With ``work`` the transposed columns and the rank vectors
    reuse its buffers."""
    rows, n = b.shape
    if rows < max(1024, n):
        p = np.partition(b, n - j, axis=1)[:, n - j:]
        p.sort(axis=1)
        return [p[:, j - 1 - i] for i in range(j)]
    cols = _scratch(work, "cols", (n, rows))
    np.copyto(cols, b.T)
    top = _scratch(work, "top", (j + 1, rows))
    top[:j] = 0.0
    top = list(top)
    spare = top.pop()
    for c in range(n):
        x = cols[c]
        last = min(c, j - 1)
        for i in range(last):
            np.maximum(top[i], x, out=spare)
            np.minimum(top[i], x, out=x)
            top[i], spare = spare, top[i]
        np.maximum(top[last], x, out=top[last])  # what falls below it is dropped
    return top


def _vcg_order_stats(m: VcgMechanism, b: np.ndarray):
    """(k-th highest bid, unit price max(reserve, (k+1)-st highest bid)) per
    row.  With k >= n every bid clearing the reserve wins and pays it, and
    the k-th highest bid is None."""
    if m.k >= b.shape[1]:
        return None, np.full(b.shape[0], float(m.reserve))
    top = _top_bids(b, m.k + 1)
    return top[m.k - 1], np.maximum(m.reserve, top[m.k])


def batch_outcomes(m: Mechanism, bids) -> tuple[np.ndarray, np.ndarray]:
    """(win mask, payments), vectorized over rows of profiles."""
    b = _as_matrix(bids)
    if isinstance(m, PostedPriceMechanism):
        mask = b >= m.price
        win = mask & (np.cumsum(mask, axis=1) <= m.k)
        pay = np.where(win, m.price, 0.0)
        return win, pay
    kth, price = _vcg_order_stats(m, b)
    win = b >= m.reserve
    if kth is not None:
        # bids above the k-th highest win; the slots left go to the bids tied
        # with it, lowest index first
        above = b > kth[:, None]
        tied = b == kth[:, None]
        slots = m.k - np.count_nonzero(above, axis=1)
        win &= above | (tied & (np.cumsum(tied, axis=1) <= slots[:, None]))
    return win, np.where(win, price[:, None], 0.0)


def _least_bid(m: Mechanism) -> float:
    """The least bid that can win a unit: the posted price or the reserve."""
    return m.price if isinstance(m, PostedPriceMechanism) else m.reserve


def _revenue(m: Mechanism, b: np.ndarray, cut: float | None = None, bid=None,
             work: dict | None = None) -> np.ndarray:
    """Revenue of each row of ``b``: min(k, #bids at or above the price or
    reserve) times the unit price, which is the posted price, the reserve
    when k >= n, else max(reserve, (k+1)-st highest bid).

    ``b`` holds bids, and ``cut`` and ``bid`` are None; or entries that the
    nondecreasing array function ``bid`` maps to bids, with ``cut`` the least
    entry whose bid reaches the price or reserve.  Ranking commutes with a
    nondecreasing map, so only the (k+1)-st highest entry of each row is
    turned into a bid, and the min(k, ...) count is the number of the k
    highest entries at or above the cut.  ``work`` holds the scratch buffers
    of the count and of `_top_bids`."""
    if cut is None:
        cut = _least_bid(m)
    if isinstance(m, PostedPriceMechanism) or m.k >= b.shape[1]:
        # Count along the rows by products with a vector of ones, a block of
        # rows at a time: the 0/1 sums are count_nonzero's exact integers, and
        # come several times faster on rows of a few entries.
        rows, n = b.shape
        step = max(COUNT_BLOCK // n, 1)
        hit = _scratch(work, "hit", (min(step, rows), n))
        ones = np.ones(n)
        sold = np.empty(rows)
        for lo in range(0, rows, step):
            block = hit[:min(step, rows - lo)]
            np.greater_equal(b[lo:lo + step], cut, out=block)
            np.matmul(block, ones, out=sold[lo:lo + step])
        np.minimum(sold, m.k, out=sold)
        # times the posted price, or the reserve
        return np.multiply(sold, _least_bid(m), out=sold)
    top = _top_bids(b, m.k + 1, work)
    sold = np.zeros(b.shape[0], dtype=np.intp)
    for row in top[:m.k]:
        sold += row >= cut
    kth = top[m.k] if bid is None else bid(top[m.k])
    return sold * np.maximum(m.reserve, kth)


def batch_revenue(m: Mechanism, bids) -> np.ndarray:
    """Revenue of each row of profiles: min(k, #bids at or above the price or
    reserve) times the unit price.  No per-bid win or payment matrix is
    built, and the product is rounded once, so for k >= 5 it may differ from
    summing `batch_outcomes` payments in the last bits."""
    return _revenue(m, _as_matrix(bids))


# -- hedged posted prices ------------------------------------------------------


def hedge_unlimited_price(d: Distribution) -> float:
    """Monopoly price discounted by the monopoly sale probability.

    Requires a concave revenue curve; the discount is what converts the
    risk-neutral optimum into a price that sells with probability >= 1/2.
    """
    if not d.is_regular():
        raise ValueError("hedged pricing requires a regular (concave revenue) distribution")
    p_star, q_star = d.monopoly_price()
    return p_star * q_star


def allocation_probability(n: int, k: int, q_r: float) -> float:
    """E[min(k, X)] / n for X ~ Binomial(n, q_r): the chance a given bidder is
    served when everyone above the price is served while k units last, by `binom_expect`."""
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive integers")
    if not 0.0 <= q_r <= 1.0:
        raise ValueError("q_r must lie in [0, 1]")
    if k >= n:
        return q_r
    return binom_expect(n, q_r, lambda y: np.minimum(y, k), lambda: k)[0] / n


def hedge_limited_price(d: Distribution, n: int, k: int) -> float:
    """Supply-aware hedged price: discount the hedged unlimited price down to
    the quantile actually served when only k of n bidders can win."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    r = hedge_unlimited_price(d)
    q_r = d.sale_probability(r)
    q = allocation_probability(n, k, q_r)
    return d.price(q)


# -- construction ---------------------------------------------------------------


def _pair(rest: str, first, second) -> tuple:
    a, b = rest.split(",")
    return first(a), second(b)


def _needs(d: Distribution | None, kind: str) -> Distribution:
    if d is None:
        raise SpecParseError(f"{kind} mechanism needs a distribution")
    return d


def _fixed(m: Mechanism):
    return lambda d: (m, None)


def _hedge(n: int, k: int, d: Distribution | None):
    d = _needs(d, "hedge")
    if n < 1 or k < 1:
        raise SpecParseError("hedge mechanism needs n >= 1 and k >= 1")
    p = hedge_unlimited_price(d) if k >= n else hedge_limited_price(d, n, k)
    return PostedPriceMechanism(p, k, name=f"hedge:{n},{k}"), n


def _myerson(k: int, d: Distribution | None):
    d = _needs(d, "myerson")
    if k < 1:
        raise SpecParseError("myerson mechanism needs k >= 1")
    return VcgMechanism(k, d.monopoly_price()[0], name=f"myerson:{k}"), None


def _opt_single(u: UtilityFunction, d: Distribution | None):
    d = _needs(d, "opt-single")
    if not u.is_smooth:
        raise SpecParseError(f"opt-single mechanism needs a smooth utility, not {u.label}")
    if not d.is_regular():
        raise SpecParseError("opt-single mechanism needs a regular distribution")
    return VcgMechanism(1, optimal_reserve(d, u), name=f"opt-single:{u.label}"), None


# A kind's converter turns the text after its colon into a function that
# builds (mechanism, the bidder count the spec carries) from the distribution.
_MECHANISM_KINDS = {
    "posted": lambda rest: _fixed(PostedPriceMechanism(*_pair(rest, float, int))),
    "vcg": lambda rest: _fixed(VcgMechanism(*_pair(rest, int, float))),
    "hedge": lambda rest: partial(_hedge, *_pair(rest, int, int)),
    "myerson": lambda rest: partial(_myerson, int(rest)),
    "opt-single": lambda rest: partial(_opt_single, parse_utility(rest)),
}


def parse_mechanism(spec: str, d: Distribution | None = None):
    """Parse ``posted:p,k | vcg:k,r | hedge:n,k | myerson:k | opt-single:<utility>``
    into (mechanism, the bidder count a hedge spec carries, else None).  The
    derived kinds (hedge, myerson, opt-single) resolve their price or reserve
    from ``d`` after `parse_spec`, so errors there keep their own message."""
    return parse_spec(spec, _MECHANISM_KINDS, "mechanism")(d)
