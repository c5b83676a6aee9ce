"""The three benchmark workloads: inputs, operations and output checks.

Every workload is a fixed list of operations generated from the benchmark
seed before timing starts.  An operation is a call through a public entry
point (``riskauctions.cli.main`` or a public library function) whose result
is checked after the pass:

- ``OK``: the output is correct;
- ``KNOWN_DEFECT``: the program exits 2 on a valid input, for one of two
  known reasons.  ``optimal_reserve`` finds no sign change on its bracket
  (on every piecewise-linear curve, whose bracket ends on the top atom, and
  on ``uniform:a,b`` when the best reserve is ``a``); or ``dist`` asks for
  the CDF at price(1), which rounds to a tiny negative number on some
  curves that end at R(1) = 0 (``frontier`` then prints NaN ratios for
  the power utilities instead of exiting 2).  Counted in the reported ``failed_frac``,
  not in the result's ``failed``;
- anything else: a message saying why the operation failed.
"""
from __future__ import annotations

import csv
import functools
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import riskauctions
from riskauctions import cli

import reference as ref

OK = "ok"
KNOWN_DEFECT = "known-defect"
HERE = Path(__file__).resolve().parent


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], str]


def cli_call(argv: list[str]):
    """(exit code, stdout, stderr) of one in-process CLI invocation."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a traceback counts as a failed operation
            rc = f"raised {type(exc).__name__}: {exc}"
    return rc, out.getvalue(), err.getvalue()


def _csv(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def _nums(rows, col) -> np.ndarray:
    return np.array([float(r[col]) for r in rows])


def _all_close(got, want, rtol: float) -> bool:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and bool(np.all(
        np.abs(got - want) <= rtol * np.maximum(np.abs(got), np.abs(want)) + ref.ATOL))


# -- verify ------------------------------------------------------------------------


def _check_verify(expected: list[str]):
    def check(res) -> str:
        rc, out, err = res
        if rc != 0:
            return f"exit {rc}: {err.strip()[:200]}"
        rows = _csv(out)
        header, body = rows[0], rows[1:]
        passed = body and all(r[header.index("passed")] == "true" for r in body)
        names = [r[0] if header[1] != "instance" else f"{r[0]}|{r[1]}" for r in body]
        if names != expected:
            return "row names differ from verify_rows.json"
        return OK if passed else "a row did not pass"
    return check


def build_verify(seed: int) -> list[Op]:
    riskauctions.default_family()
    expected = json.loads((HERE / "verify_rows.json").read_text())
    return [Op(name, lambda a=argv: cli_call(a), _check_verify(expected[name]))
            for name, argv in (("lemmas all", ["lemmas", "all", "--seed", str(seed)]),
                               ("reproduce", ["reproduce", "--seed", str(seed)]))]


def warm_verify(ops: list[Op]) -> None:
    cli_call(["lemmas", "all", "--samples", "1000"])
    cli_call(["reproduce", "--samples", "1000"])


# -- mc-eval -----------------------------------------------------------------------

MC_SAMPLES = 262_144  # four 65,536-row chunks per call
# (mechanism spec, distribution, n, utility); n * 65,536 rows * 8 B runs
# from 1 MiB to 16 MiB per chunk
MC_CASES = (
    ("posted:0.5,1", "uniform:0,1", 2, "linear"),
    ("posted:0.8,3", "exponential:1", 8, "power:0.5"),
    ("vcg:1,0.5", "uniform:0,1", 4, "capped:0.3"),
    ("vcg:1,1.2", "exponential:1", 16, "power:0.5"),
    ("vcg:2,0", "uniform:0,1", 6, "linear"),
    ("vcg:4,0", "exponential:2", 32, "capped:5"),
    ("vcg:3,0.5", "uniform:0,1", 10, "power:0.5"),
    ("vcg:2,1", "exponential:1", 24, "linear"),
)
# `eval --utility family:default` on an MC case: one seed, eleven utilities
MC_FAMILY_CASE = ("vcg:2,0.5", "uniform:0,1", 6)


def _mc_exact(mech, d, n: int, u, dist_spec: str) -> float:
    """The library's exact evaluator where one applies, else reference.vcg_value."""
    if isinstance(mech, riskauctions.PostedPriceMechanism):
        return riskauctions.eval_posted_exact(d, mech.price, n, mech.k, u).mean_utility
    if mech.reserve == 0.0:
        return riskauctions.eval_vcg_exact(d, n, mech.k, u).mean_utility
    if mech.k == 1:
        return riskauctions.eval_second_price_exact(d, mech.reserve, n, u).mean_utility
    return float(ref.vcg_value(ref.parse_dist(dist_spec), n, mech.k, mech.reserve,
                               [ref.parse_utility(u.label)])[0])


def _check_mc(exact: Callable[[], float]):
    def check(res) -> str:
        want = exact()
        if abs(res.mean_utility - want) <= 4.0 * res.ci_halfwidth + 1e-9 * max(1.0, abs(want)):
            return OK
        return f"mean {res.mean_utility!r} vs exact {want!r}, ci {res.ci_halfwidth!r}"
    return check


def _mc_op(label, mech_spec, dist_spec, n, u, seed, samples) -> Op:
    d = riskauctions.make_distribution(dist_spec)
    mech, _ = riskauctions.parse_mechanism(mech_spec, d)
    exact = functools.cache(lambda: _mc_exact(mech, d, n, u, dist_spec))
    return Op(label, lambda: riskauctions.eval_mc(mech, d, n, u, samples, seed),
              _check_mc(exact))


def build_mc_eval(seed: int, samples: int = MC_SAMPLES) -> list[Op]:
    ops = []
    for i, (mech, dist, n, u) in enumerate(MC_CASES):
        ops.append(_mc_op(f"{mech} {dist} n={n} {u}", mech, dist, n,
                          riskauctions.parse_utility(u), seed * 100 + i, samples))
    mech, dist, n = MC_FAMILY_CASE
    for u in riskauctions.default_family():
        ops.append(_mc_op(f"{mech} {dist} n={n} {u.label} (family)", mech, dist, n, u,
                          seed * 100 + len(MC_CASES), samples))
    return ops


def warm_mc_eval(ops: list[Op]) -> None:
    for op in build_mc_eval(0, samples=1_000)[:len(MC_CASES) + 1]:
        op.call()


# -- exact-queries -----------------------------------------------------------------

FAMILY = ["--utility", "family:default"]
# query template -> (count per pass, distribution kinds to cycle through)
ALL_KINDS = ("uniform", "exponential", "left-triangle", "irregular-example", "curve")
REGULAR = ("uniform", "exponential", "left-triangle", "curve")
TEMPLATES = {
    "dist": (100, ALL_KINDS),
    "price-nk": (240, ALL_KINDS),
    "price-smooth": (100, ("uniform", "uniform", "exponential", "exponential",
                           "left-triangle", "curve", "curve")),
    "price-capped": (100, ALL_KINDS),
    "eval-posted": (150, ALL_KINDS),
    "eval-hedge": (100, REGULAR),
    "eval-vcg1": (40, ("uniform",) * 8 + ("exponential",) * 8
                  + ("left-triangle", "left-triangle", "irregular-example", "curve")),
    "eval-opt-single": (50, ("uniform", "uniform", "exponential", "left-triangle",
                             "left-triangle")),
    "frontier": (20, ALL_KINDS),
    "lemmas-tail": (70, ("uniform", "exponential", "left-triangle", "curve", "curve")),
    "lemmas-vcg-chain": (40, ("left-triangle",)),
}


def _spec(kind: str, rng: np.random.Generator, breakpoints: int) -> str:
    """A distribution spec at full float precision."""
    if kind == "uniform":
        b = float(rng.uniform(0.5, 3.0))
        a = 0.0 if rng.random() < 0.5 else float(rng.uniform(0.0, 0.6)) * b
        return f"uniform:{a!r},{b!r}"
    if kind == "exponential":
        return f"exponential:{float(rng.uniform(0.5, 4.0))!r}"
    if kind == "left-triangle":
        return f"left-triangle:{float(10 ** rng.uniform(-3.0, -0.6)):.6g}"
    if kind == "irregular-example":
        return f"irregular-example:{float(rng.uniform(0.005, 0.3)):.6g}"
    d = riskauctions.gen_regular(int(rng.integers(2 ** 31)), breakpoints)
    return "revenue-curve:" + ";".join(f"{q!r}:{r!r}" for q, r in d.points)


def _reserve_defect(d: ref.RefDist, u: ref.RefUtility) -> bool:
    """True where optimal_reserve exits 2 on a valid input today."""
    if u.kind == "capped":
        return False
    if d.is_curve:
        return True
    if d.kind == "uniform":
        a, b = d.params
        alpha = 1.0 if u.kind == "linear" else u.param
        return alpha * b / (1.0 + alpha) < a
    return False


def _defect_or(defect: bool, check_ok: Callable[[str], str]):
    def check(res) -> str:
        rc, out, err = res
        if defect and rc == 2 and err.startswith("error:"):
            return KNOWN_DEFECT
        if rc != 0:
            return f"exit {rc}: {err.strip()[:200]}"
        return check_ok(out)
    return check


def _check_dist(d: ref.RefDist, grid: int):
    def check(out: str) -> str:
        rows = _csv(out)[1:]
        q = np.arange(1, grid + 1) / grid
        price = d.price(q)
        cdf = np.where(q <= d.atom(), 1.0, 1.0 - q)
        for col, want, rtol in ((0, q, ref.EXACT_RTOL), (1, q * price, ref.EXACT_RTOL),
                                (2, price, ref.EXACT_RTOL), (3, cdf, 1e-9)):
            if len(rows) != grid or not _all_close(_nums(rows, col), want, rtol):
                return f"dist column {col} differs from the reference"
        return OK
    return check


def _check_price(d: ref.RefDist, n, k, u):
    def check(out: str) -> str:
        got = dict(line.split("=", 1) for line in out.splitlines())
        p_star, q_star = d.monopoly()
        want = {"p_star": p_star, "q_star": q_star}
        if d.is_regular():
            want["hedge_unlimited"] = p_star * q_star
            if n is not None:
                want["hedge_limited"] = ref.hedge_price(d, n, k)
        if set(got) != set(want) | ({"r_u_star"} if u else set()):
            return f"price keys {sorted(got)}"
        for key, val in want.items():
            if not ref.close(float(got[key]), val, ref.EXACT_RTOL):
                return f"{key}={got[key]} vs reference {val!r}"
        if u is not None:
            r = float(got["r_u_star"])
            r_ref, best = ref.optimal_reserve(d, u)
            if ref.single_bidder_value(d, u, r) < best * (1 - 1e-9) - ref.ATOL:
                return f"r_u_star={r!r} earns less than the reference {r_ref!r}"
            if u.kind != "capped" and not d.is_curve and not ref.close(r, r_ref, 1e-6):
                return f"r_u_star={r!r} vs reference {r_ref!r}"
        return OK
    return check


def _check_eval(d: ref.RefDist, kind: str, n: int, k: int, price: Callable[[], float]):
    """``price()`` gives the posted price or the VCG reserve."""
    fam = ref.default_family()

    def check(out: str) -> str:
        rows = _csv(out)[1:]
        if kind == "vcg":
            mean = ref.vcg_value(d, n, k, price(), fam)
        else:
            mean = ref.posted_value(d, price(), n, k, fam)
        rev = ref.myerson_revenue(d, n, k)
        bench = np.array([float(u(rev)) for u in fam])
        if len(rows) != len(fam) or [r[4] for r in rows] != [u.label for u in fam]:
            return "eval rows differ from the default family"
        if any(r[2] != str(n) or r[3] != str(k) or r[5] != "exact" for r in rows):
            return "eval n, k or method differ"
        for col, want in ((6, mean), (7, np.zeros(len(fam))), (8, bench), (9, mean / bench)):
            if not _all_close(_nums(rows, col), want, ref.QUAD_RTOL):
                return f"eval column {col} differs from the reference"
        return OK
    return check


def _check_frontier(d: ref.RefDist):
    fam = ref.default_family()

    def check(out: str) -> str:
        if d.price_one_negative() and "nan" in out:
            return KNOWN_DEFECT  # u(price(1)) of a power utility is NaN
        rows = _csv(out)
        if rows[0][2:-1] != [f"ratio_{u.label}" for u in fam]:
            return "frontier header differs"
        rows = rows[1:]
        prices, sale, ratios = ref.frontier(d, fam, 1000)
        want = [prices, sale] + list(ratios) + [ratios.min(axis=0)]
        if len(rows) != len(prices):
            return f"frontier has {len(rows)} rows, reference {len(prices)}"
        for col, w in enumerate(want):
            if not _all_close(_nums(rows, col), w, ref.EXACT_RTOL):
                return f"frontier column {col} differs from the reference"
        return OK
    return check


def _check_tail(d: ref.RefDist):
    def check(out: str) -> str:
        rows = _csv(out)[1:]
        p_star, q_star = d.monopoly()
        want = [("half-bound[", 0.5, 1e-9, float(d.sale(p_star * q_star)), ref.EXACT_RTOL)]
        want += [("tail[", 0.25, 1e-6, obs, ref.QUAD_RTOL)
                 for obs in ref.tail_observed(d, ((2, 2), (2, 5), (5, 10)))]
        if len(rows) != len(want):
            return f"{len(rows)} lemma rows"
        for row, (prefix, claimed, tol, obs, rtol) in zip(rows, want):
            if not row[0].startswith(prefix) or not ref.close(float(row[3]), obs, rtol):
                return f"{row[0]} observed {row[3]} vs reference {obs!r}"
            if abs(obs - claimed) > 1e-5 and (row[1] == "true") != (obs >= claimed - tol):
                return f"{row[0]} passed={row[1]}"
        return OK
    return check


def _check_chain(out: str) -> str:
    rows = _csv(out)[1:]
    if len(rows) == 1 and rows[0][0].startswith("vcg-chain[") and rows[0][1] == "true":
        return OK
    return "vcg-chain row missing or failed"


def _query(template: str, spec: str, rng: np.random.Generator, index: int):
    """(argv, check) for one query of ``template`` on ``spec``."""
    d = ref.parse_dist(spec)
    if template == "dist":
        grid = (20, 50, 100)[index % 3]
        argv = ["dist", spec] + (["--grid", str(grid)] if grid != 100 else [])
        return argv, _defect_or(d.price_one_negative(), _check_dist(d, grid))
    if template == "price-nk":
        n = int(rng.integers(1, 65))
        k = int(rng.integers(1, n + 1))
        return (["price", spec, "--n", str(n), "--k", str(k)],
                _defect_or(False, _check_price(d, n, k, None)))
    if template in ("price-smooth", "price-capped"):
        if template == "price-capped":
            uspec = f"capped:{float(10 ** rng.uniform(-3.0, 0.0))!r}"
        else:
            uspec = "linear" if index % 4 == 0 else f"power:{float(rng.uniform(0.2, 1.0))!r}"
        u = ref.parse_utility(uspec)
        return (["price", spec, "--utility", uspec],
                _defect_or(_reserve_defect(d, u), _check_price(d, None, None, u)))
    if template == "eval-posted":
        n = int(rng.integers(1, 65))
        k = 1 if index % 2 == 0 else n + int(rng.integers(0, 3))
        price = float(d.price(rng.uniform(0.05, 0.95)))
        argv = ["eval", "--mech", f"posted:{price!r},{k}", "--dist", spec, "--n", str(n)]
        return argv + FAMILY, _defect_or(False, _check_eval(d, "posted", n, k, lambda: price))
    if template == "eval-hedge":
        n = int(rng.integers(1, 65))
        k = 1 if index % 2 == 0 else n
        argv = ["eval", "--mech", f"hedge:{n},{k}", "--dist", spec]
        return argv + FAMILY, _defect_or(False, _check_eval(
            d, "posted", n, k, lambda: ref.hedge_price(d, n, k)))
    if template == "eval-vcg1":
        n = int(rng.integers(2, 33))
        argv = ["eval", "--mech", "vcg:1,0", "--dist", spec, "--n", str(n)]
        return argv + FAMILY, _defect_or(False, _check_eval(d, "vcg", n, 1, lambda: 0.0))
    if template == "eval-opt-single":
        n = int(rng.integers(1, 17))
        lin = ref.RefUtility("linear")
        argv = ["eval", "--mech", "opt-single:linear", "--dist", spec, "--n", str(n)]
        return argv + FAMILY, _defect_or(_reserve_defect(d, lin), _check_eval(
            d, "vcg", n, 1, lambda: ref.optimal_reserve(d, lin)[0]))
    if template == "frontier":
        return ["frontier", spec], _defect_or(False, _check_frontier(d))
    if template == "lemmas-tail":
        return (["lemmas", "half-bound", "tail", "--dist", spec],
                _defect_or(False, _check_tail(d)))
    if template == "lemmas-vcg-chain":
        return ["lemmas", "vcg-chain", "--dist", spec], _defect_or(True, _check_chain)
    raise KeyError(template)


def build_exact_queries(seed: int) -> list[Op]:
    """Each template gets its count of queries, cycling through its
    distribution kinds; its curves get breakpoint counts spread evenly over
    2..64.  Only the shuffles and the parameters depend on the seed, so every
    seed asks for the same mix of work."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(7,)))
    ops = []
    for template, (count, kinds) in TEMPLATES.items():
        kind_list = [kinds[i % len(kinds)] for i in range(count)]
        curves = kind_list.count("curve")
        bps = list(rng.permutation(np.linspace(2, 64, max(curves, 1)).round().astype(int)))
        for i, kind in enumerate(rng.permutation(kind_list)):
            spec = _spec(str(kind), rng, int(bps.pop()) if kind == "curve" else 0)
            riskauctions.make_distribution(spec)
            argv, check = _query(template, spec, rng, i)
            ops.append(Op(template, lambda a=argv: cli_call(a), check))
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


def warm_exact_queries(ops: list[Op]) -> None:
    seen = set()
    for op in ops:
        if op.label not in seen:
            seen.add(op.label)
            op.call()


WORKLOADS = {
    "verify": (build_verify, warm_verify),
    "mc-eval": (build_mc_eval, warm_mc_eval),
    "exact-queries": (build_exact_queries, warm_exact_queries),
}
