#!/usr/bin/env python3
"""Recompute the headline guarantee table and print it aligned.

Runs the same rows as `riskauctions reproduce` (hedge floors, frontier
maximin values, VCG comparisons, allocation and tail brackets, the
virtual-utility identity) and renders an aligned text table instead of CSV.
Every row is exact, so the table takes no seed.  Exits 1 if any row fails.

Example:
    PYTHONPATH=src python3 scripts/reproduce_table.py --out reproduce.csv
"""
import argparse
import csv
import io
import sys
import contextlib

from riskauctions.cli import main as cli_main


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="also write the raw CSV here")
    args = ap.parse_args(argv)

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(["reproduce"])
    raw = buf.getvalue()
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(raw)

    rows = list(csv.reader(io.StringIO(raw)))
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    for r in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
    n_bad = sum(1 for r in rows[1:] if r[-1] != "true")
    print(f"\n{len(rows) - 1} rows, {n_bad} failing")
    return code


if __name__ == "__main__":
    sys.exit(main())
