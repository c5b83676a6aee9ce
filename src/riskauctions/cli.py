"""Command line front end.

Subcommands: ``dist`` (curve tables), ``price`` (monopoly/hedged/reserve
prices), ``eval`` (expected utility of a mechanism), ``lemmas`` (bound
checks), ``reproduce`` (the headline constants table), ``frontier``
(single-bidder price sweep).  All numeric output uses 12 significant digits
and CSV rows end in CRLF, so identical invocations are byte-identical.

Exit codes: 0 success, 1 a verification row failed, 2 usage or parse error,
3 an unexpected internal error (one line on stderr, no traceback).
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import decimal
import functools
import sys

import numpy as np

from .distributions import Distribution, SpecParseError, exponential, \
    irregular_example, left_triangle, make_distribution, uniform
from .evaluation import (eval_vcg_exact, evaluate, myerson_revenue,
                         virtual_utility_identity_stats)
from .lemmas import (MHR_BOUND, SELECTIONS, check_allocation_bound,
                     check_capped_binomial_grid, check_hedge_limited,
                     check_hedge_unlimited, check_tail, check_vcg_chain,
                     frontier_search, run_selections)
from .mechanisms import VcgMechanism, hedge_limited_price, hedge_unlimited_price, \
    parse_mechanism
from .report import CSV_COLUMNS
from .utilities import (capped, default_family, linear, maximize_single_bidder,
                        optimal_reserve, parse_utility_or_family, power)

MIN_SAMPLES = 1_000
MAX_GRID = 1_000_000


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int,)):
        return str(x)
    return f"{float(x):.12g}"


def _fmt_toward_zero(x: float) -> str:
    """``_fmt`` with the 12 digits rounded toward zero, so a printed price never
    exceeds the computed one (rounding an atom's price up names a price that
    never sells)."""
    toward_zero = decimal.Context(prec=12, rounding=decimal.ROUND_DOWN)
    return _fmt(float(toward_zero.plus(decimal.Decimal(x))))


def _read_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                key, sep, value = line.partition("=")
                if not sep or not key.strip():
                    raise SpecParseError(f"{path}:{lineno}: expected 'key = value'")
                values[key.strip()] = value.strip()
    except OSError as exc:
        raise SpecParseError(f"cannot read config file: {exc}") from exc
    return values


_CONVERTERS = {
    "seed": int, "samples": int, "grid": int, "n": int, "k": int,
    "out": str, "format": str, "dist": str, "mech": str, "utility": str,
    "family": str, "spec": str,
}


def _resolve(args: argparse.Namespace, defaults: dict, svg_ok: bool = False) -> None:
    """Fill unset options from the config file, then from hard defaults."""
    cfg = _read_config(args.config) if getattr(args, "config", None) else {}
    unknown = set(cfg) - set(_CONVERTERS)
    if unknown:
        raise SpecParseError(f"unknown config keys: {', '.join(sorted(unknown))}")
    for key, conv in _CONVERTERS.items():
        if not hasattr(args, key) or getattr(args, key) is not None:
            continue
        if key in cfg:
            try:
                setattr(args, key, conv(cfg[key]))
            except ValueError as exc:
                raise SpecParseError(f"config key {key}: {exc}") from exc
        elif key in defaults:
            setattr(args, key, defaults[key])
    if getattr(args, "samples", None) is not None and args.samples < MIN_SAMPLES:
        raise SpecParseError(f"samples must be at least {MIN_SAMPLES}")
    if getattr(args, "format", None) == "svg" and not svg_ok:
        raise SpecParseError("svg output applies to dist and frontier only")


def _check_grid(grid: int) -> None:
    """Reject a grid before anything of its size is allocated."""
    if grid < 1:
        raise SpecParseError("grid must be positive")
    if grid > MAX_GRID:
        raise SpecParseError(f"grid must be at most {MAX_GRID}")


@contextlib.contextmanager
def _output(out: str | None):
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            yield fh
    else:
        yield sys.stdout


def _emit(text: str, out: str | None) -> None:
    with _output(out) as fh:
        fh.write(text)


CSV_BLOCK_ROWS = 4096


def _csv_blocks(table: np.ndarray):
    """CSV text of a float table, CSV_BLOCK_ROWS rows per string, every cell
    as ``_fmt`` prints a float ('%.12g' and f'{x:.12g}' agree on every float,
    NaN, infinities and -0 included)."""
    row = ",".join(["%.12g"] * table.shape[1]) + "\r\n"
    for start in range(0, len(table), CSV_BLOCK_ROWS):
        block = table[start:start + CSV_BLOCK_ROWS]
        yield (row * len(block)) % tuple(block.ravel().tolist())


def _write_csv(header, rows, out: str | None) -> None:
    """Write the header and then the rows as they come: string rows through
    one csv.writer, a float table (a 2-d array) a block of rows at a time, so
    a large table is never held as text."""
    with _output(out) as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(header)
        if isinstance(rows, np.ndarray):
            fh.writelines(_csv_blocks(rows))
        else:
            writer.writerows(rows)


def _svg_line_plot(xs, ys, xlabel: str, ylabel: str, title: str) -> str:
    width, height = 640, 420
    left, right, top, bottom = 70, 20, 40, 50
    xmin, xmax = float(min(xs)), float(max(xs))
    ymin, ymax = min(0.0, float(min(ys))), float(max(ys))
    if xmax <= xmin:
        xmax = xmin + 1.0
    if ymax <= ymin:
        ymax = ymin + 1.0

    def sx(v):
        return left + (v - xmin) / (xmax - xmin) * (width - left - right)

    def sy(v):
        return height - bottom - (v - ymin) / (ymax - ymin) * (height - top - bottom)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
        f'<line x1="{left}" y1="{height - bottom}" x2="{width - right}" '
        f'y2="{height - bottom}" stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{height - bottom}" '
        f'stroke="black"/>',
    ]
    for i in range(5):
        xv = xmin + i * (xmax - xmin) / 4
        yv = ymin + i * (ymax - ymin) / 4
        parts.append(f'<line x1="{sx(xv):.2f}" y1="{height - bottom}" '
                     f'x2="{sx(xv):.2f}" y2="{height - bottom + 5}" stroke="black"/>')
        parts.append(f'<text x="{sx(xv):.2f}" y="{height - bottom + 20}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="11">{xv:.4g}</text>')
        parts.append(f'<line x1="{left - 5}" y1="{sy(yv):.2f}" x2="{left}" '
                     f'y2="{sy(yv):.2f}" stroke="black"/>')
        parts.append(f'<text x="{left - 9}" y="{sy(yv) + 4:.2f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">{yv:.4g}</text>')
    pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
    parts.append(f'<polyline points="{pts}" fill="none" stroke="#1f6fb2" '
                 f'stroke-width="1.5"/>')
    parts.append(f'<text x="{(left + width - right) / 2:.1f}" y="{height - 12}" '
                 f'text-anchor="middle" font-family="sans-serif" '
                 f'font-size="13">{xlabel}</text>')
    parts.append(f'<text x="18" y="{(top + height - bottom) / 2:.1f}" '
                 f'text-anchor="middle" font-family="sans-serif" font-size="13" '
                 f'transform="rotate(-90 18 {(top + height - bottom) / 2:.1f})">'
                 f'{ylabel}</text>')
    parts.append("</svg>\n")
    return "\n".join(parts)


# -- subcommands -----------------------------------------------------------------


def cmd_dist(args) -> int:
    _resolve(args, {"seed": 42, "samples": 1_000_000, "format": "csv", "grid": 100},
             svg_ok=True)
    d = make_distribution(args.spec)
    _check_grid(args.grid)
    qs = np.arange(1, args.grid + 1) / args.grid
    revenue = d.revenue(qs)
    if args.format == "svg":
        _emit(_svg_line_plot(qs.tolist(), revenue.tolist(), "sale probability q",
                             "expected revenue", d.label), args.out)
        return 0
    prices = d.price(qs)
    table = np.column_stack((qs, revenue, prices, d.cdf(prices)))
    _write_csv(["q", "revenue", "price", "cdf_at_price"], table, args.out)
    return 0


def cmd_price(args) -> int:
    _resolve(args, {"seed": 42, "samples": 1_000_000, "format": "csv"})
    d = make_distribution(args.spec)
    p_star, q_star = d.monopoly_price()
    lines = [f"p_star={_fmt(p_star)}", f"q_star={_fmt(q_star)}"]
    if d.is_regular():
        lines.append(f"hedge_unlimited={_fmt(hedge_unlimited_price(d))}")
        if args.n is not None:
            k = args.k if args.k is not None else 1
            lines.append(f"hedge_limited={_fmt(hedge_limited_price(d, args.n, k))}")
    if args.utility is not None:
        u = parse_utility_or_family(args.utility)
        if hasattr(u, "members"):
            raise SpecParseError("price takes a single utility, not a family")
        lines.append(f"r_u_star={_fmt_toward_zero(maximize_single_bidder(d, u)[0])}")
    _emit("".join(line + "\n" for line in lines), args.out)
    return 0


def cmd_eval(args) -> int:
    _resolve(args, {"seed": 42, "samples": 1_000_000, "format": "csv",
                    "utility": "linear"})
    d = make_distribution(args.dist)
    mech, implied_n = parse_mechanism(args.mech, d)
    n = args.n if args.n is not None else (implied_n if implied_n else 1)
    if n < 1:
        raise SpecParseError("n must be at least 1")
    parsed = parse_utility_or_family(args.utility)
    members = list(parsed.members) if hasattr(parsed, "members") else [parsed]
    rev, _ = myerson_revenue(d, n, mech.k, args.seed, args.samples)
    rows = []
    for u in members:
        res = evaluate(mech, d, n, u, args.samples, args.seed)
        res = res.against(float(u(rev)))
        rows.append([args.mech, args.dist, str(n), str(mech.k), u.label,
                     res.method, _fmt(res.mean_utility), _fmt(res.ci_halfwidth),
                     _fmt(res.benchmark), _fmt(res.ratio)])
    _write_csv(["mechanism", "dist", "n", "k", "utility", "method",
                "mean_utility", "ci_halfwidth", "benchmark", "ratio"], rows, args.out)
    return 0


def cmd_lemmas(args) -> int:
    _resolve(args, {"seed": 42, "samples": 1_000_000, "format": "csv"})
    d = make_distribution(args.dist) if args.dist else None
    names = args.selection or ["all"]
    for name in names:
        if name != "all" and name not in SELECTIONS:
            raise SpecParseError(
                f"unknown check {name!r}; choose from: "
                f"{', '.join(sorted(SELECTIONS))}, all")
    reports = run_selections(names, d, args.seed)
    _write_csv(CSV_COLUMNS, [r.csv_row() for r in reports], args.out)
    return 0 if all(r.passed for r in reports) else 1


def _reproduce_rows() -> list[list[str]]:
    tight_fam = (linear(), capped(1e-5))
    rows = []

    def add(name, instance, claimed, computed, passed):
        rows.append([name, instance, _fmt(claimed), _fmt(computed), _fmt(passed)])

    r = check_hedge_unlimited(uniform(0.0, 1.0), 5, default_family())
    add("hedge-unlimited-floor", "uniform:0,1 n=5", r.claimed_bound, r.observed,
        r.passed)
    r = check_hedge_unlimited(exponential(1.0), 5, default_family())
    add("hedge-unlimited-floor", "exponential:1 n=5", r.claimed_bound, r.observed,
        r.passed)
    fr = frontier_search(left_triangle(0.001), tight_fam, 1000)
    add("frontier-maximin", "left-triangle:0.001", 0.5, fr.best_min_ratio,
        fr.best_min_ratio >= 0.5 - 1e-6)
    fr = frontier_search(exponential(1.0), tight_fam, 1000)
    add("frontier-maximin", "exponential:1", MHR_BOUND, fr.best_min_ratio,
        abs(fr.best_min_ratio - MHR_BOUND) <= 1e-3)
    fr = frontier_search(irregular_example(0.01), tight_fam, 1000)
    add("frontier-ceiling", "irregular-example:0.01", 0.05, fr.best_min_ratio,
        fr.best_min_ratio <= 0.05)
    for n, k, label in ((2, 1, "uniform:0,1 n=2 k=1"), (10, 3, "uniform:0,1 n=10 k=3")):
        r = check_hedge_limited(uniform(0.0, 1.0), n, k, default_family())
        add("hedge-limited-floor", label, r.claimed_bound, r.observed, r.passed)
    r = check_hedge_limited(exponential(1.0), 8, 2, default_family())
    add("hedge-limited-floor", "exponential:1 n=8 k=2", r.claimed_bound, r.observed,
        r.passed)
    for n in (2, 3, 5):
        fam = (linear(), power(0.5))
        worst = min(
            _vickrey_ratio(uniform(0.0, 1.0), n, u) for u in fam)
        add("vickrey-vs-optimal", f"uniform:0,1 n={n}", 1.0 - 1.0 / n, worst,
            worst >= 1.0 - 1.0 / n - 1e-9)
    r = check_vcg_chain(uniform(0.0, 1.0), 6, 2, default_family())
    add("vcg-chain-slack", "uniform:0,1 n=6 k=2", r.claimed_bound, r.observed,
        r.passed)
    r = check_allocation_bound()
    add("allocation-bracket", "n<=60, q_r in {0.5..1.0}", r.claimed_bound,
        r.observed, r.passed)
    r = check_capped_binomial_grid()
    add("capped-binomial-floor", "n<=60, q step 0.01", r.claimed_bound, r.observed,
        r.passed)
    r = check_tail(uniform(0.0, 1.0), 2, 2)
    add("tail-quarter", "uniform:0,1 t=2 n=2", r.claimed_bound, r.observed, r.passed)
    r = check_tail(left_triangle(1e-4), 2, 2)
    add("tail-quarter-tight", "left-triangle:0.0001 t=2 n=2", r.claimed_bound,
        r.observed, r.passed and r.observed <= 0.26)
    st = virtual_utility_identity_stats(uniform(0.0, 1.0), VcgMechanism(1, 0.5),
                                        linear(), 1)
    ok = max(abs(st["lhs"] - 0.25), abs(st["rhs"] - 0.25)) <= st["tolerance"]
    add("virtual-utility-quarter", "uniform:0,1 vcg:1,0.5 linear n=1", 0.25,
        st["lhs"], ok)
    return rows


def _vickrey_ratio(d: Distribution, n: int, u) -> float:
    vick = eval_vcg_exact(d, n, 1, u).mean_utility
    opt = eval_vcg_exact(d, n, 1, u, optimal_reserve(d, u)).mean_utility
    return vick / opt


def cmd_reproduce(args) -> int:
    _resolve(args, {"seed": 42, "samples": 1_000_000, "format": "csv"})
    rows = _reproduce_rows()
    _write_csv(["name", "instance", "claimed", "computed", "passed"], rows, args.out)
    return 0 if all(row[4] == "true" for row in rows) else 1


def cmd_frontier(args) -> int:
    _resolve(args, {"seed": 42, "samples": 1_000_000, "format": "csv",
                    "grid": 1000, "family": "family:default"}, svg_ok=True)
    d = make_distribution(args.spec)
    parsed = parse_utility_or_family(args.family)
    fam = list(parsed.members) if hasattr(parsed, "members") else [parsed]
    _check_grid(args.grid)
    fr = frontier_search(d, fam, args.grid)
    min_ratio = fr.ratios.min(axis=0)
    if args.format == "svg":
        _emit(_svg_line_plot(fr.prices, min_ratio, "posted price",
                             "worst utility ratio", d.label), args.out)
        return 0
    header = (["price", "sale_prob"]
              + [f"ratio_{lab}" for lab in fr.utility_labels] + ["min_ratio"])
    table = np.column_stack((fr.prices, fr.sale_probs, fr.ratios.T, min_ratio))
    _write_csv(header, table, args.out)
    return 0


# -- wiring ----------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args leaves it as
    it was and returns a fresh Namespace on each call."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="RNG seed for all sampling (default 42)")
    common.add_argument("--samples", type=int, default=None,
                        help="Monte Carlo sample count (default 1000000)")
    common.add_argument("--out", default=None, help="write output to this file")
    common.add_argument("--config", default=None,
                        help="'key = value' file; flags override it")
    common.add_argument("--format", choices=("csv", "svg"), default=None,
                        help="output format (svg: dist and frontier only)")

    parser = argparse.ArgumentParser(
        prog="riskauctions",
        description="Posted-price and VCG mechanisms under seller risk "
                    "aversion: curves, prices, expected utilities, and "
                    "numerical checks of the approximation guarantees.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dist", parents=[common],
                       help="tabulate revenue curve, prices, and CDF")
    p.add_argument("spec", help="distribution spec, e.g. uniform:0,1")
    p.add_argument("--grid", type=int, default=None,
                   help="number of quantile rows (default 100)")
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("price", parents=[common],
                       help="monopoly, hedged, and utility-optimal prices")
    p.add_argument("spec")
    p.add_argument("--n", type=int, default=None, help="bidders (limited supply)")
    p.add_argument("--k", type=int, default=None, help="units (limited supply)")
    p.add_argument("--utility", default=None,
                   help="also report this utility's optimal reserve")
    p.set_defaults(func=cmd_price)

    p = sub.add_parser("eval", parents=[common],
                       help="expected utility of a mechanism")
    p.add_argument("--mech", required=True,
                   help="posted:p,k | vcg:k,r | hedge:n,k | myerson:k | "
                        "opt-single:<utility>")
    p.add_argument("--dist", required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--utility", default=None,
                   help="utility or family spec (default linear)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("lemmas", parents=[common],
                       help="run bound checks; nonzero exit if any fail")
    p.add_argument("selection", nargs="*",
                   help=f"checks to run ({', '.join(sorted(SELECTIONS))}) "
                        "or 'all' (default)")
    p.add_argument("--dist", default=None,
                   help="run the selected checks on this distribution")
    p.set_defaults(func=cmd_lemmas)

    p = sub.add_parser("reproduce", parents=[common],
                       help="recompute the headline constants table")
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("frontier", parents=[common],
                       help="single-bidder posted-price frontier")
    p.add_argument("spec")
    p.add_argument("--family", default=None,
                   help="utility family spec (default family:default)")
    p.add_argument("--grid", type=int, default=None,
                   help="price grid size (default 1000)")
    p.set_defaults(func=cmd_frontier)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SpecParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a crash must not read as a failed check (1)
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
