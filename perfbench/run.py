"""Benchmark of the riskauctions package.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout: the package is imported from
``src/``, never from an installed copy, and the run stops with exit code 2
when ``src/riskauctions`` is missing.  With ``--trace 0`` it prints the
end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` it prints the
per-layer metrics of one traced pass.  The last line of standard output is
one JSON object; a full record, and the spans of a traced run, go to
``perfbench/out/``.  See ``perfbench/README.md``.
"""
from __future__ import annotations

import os

# one thread per process on a shared machine; set before NumPy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_PROBES = 5
WORKLOAD_NAMES = ("verify", "mc-eval", "exact-queries")


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    raise SystemExit(2)


def import_package():
    """Import riskauctions from this checkout's ``src`` and the workloads."""
    if not (SRC / "riskauctions" / "__init__.py").is_file():
        fail(f"no src/riskauctions under {ROOT}; run from a source checkout")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import riskauctions
    if Path(riskauctions.__file__).resolve().parent != SRC / "riskauctions":
        fail(f"imported riskauctions from {riskauctions.__file__}, not from {SRC}")
    import workloads
    return workloads


def measure_setup(workload: str, seed: int) -> list[float]:
    """Wall time of fresh interpreters that import the package and build the
    workload's inputs, then exit."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(Path(__file__).resolve()), "--probe",
                        "--workload", workload, "--seed", str(seed)],
                       check=True, stdout=subprocess.DEVNULL, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return times


def run_pass(ops):
    """(wall seconds, per-operation seconds, outputs) of one pass."""
    lat, outs = [], []
    t_pass = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        outs.append(op.call())
        lat.append(time.perf_counter() - t0)
    return time.perf_counter() - t_pass, lat, outs


class Checker:
    """Checks outputs; an output seen before for the same operation reuses
    its verdict."""

    def __init__(self, ops):
        self.ops = ops
        self.seen: dict[tuple[int, object], str] = {}
        self.verdicts: list[str] = []

    def __call__(self, outs) -> None:
        for i, (op, out) in enumerate(zip(self.ops, outs)):
            key = (i, out)
            if key not in self.seen:
                try:
                    self.seen[key] = op.check(out)
                except Exception as exc:  # a malformed output fails its check
                    self.seen[key] = f"check raised {type(exc).__name__}: {exc}"
            self.verdicts.append(self.seen[key])

    def tally(self, ok: str, defect: str) -> dict:
        failures = [v for v in self.verdicts if v not in (ok, defect)]
        known = sum(v == defect for v in self.verdicts)
        attempted = len(self.verdicts)
        return {"attempted": attempted, "failed": len(failures), "known_defects": known,
                "failed_frac": (len(failures) + known) / attempted,
                "known_defect_frac": known / attempted, "failures": failures[:10]}


def timed_run(ops, seconds: float, checker: Checker) -> dict:
    import numpy as np
    walls, lats = [], []
    while sum(walls) < seconds:
        wall, lat, outs = run_pass(ops)
        walls.append(wall)
        lats.append(lat)
        checker(outs)
    # each operation's median over the passes: robust to stalls of a few
    # seconds on a shared machine, which hit a whole pass but not every pass
    per_op = np.median(np.asarray(lats), axis=0) * 1e3
    return {
        "run_s": float(per_op.sum()) / 1e3,
        "query_p50_ms": float(np.percentile(per_op, 50)),
        "query_p99_ms": float(np.percentile(per_op, 99)),
        "passes": len(walls), "pass_walls_s": walls,
    }


def traced_run(ops, checker: Checker, spans_path: Path) -> dict:
    from tracing import Tracer, layer_metrics
    wall_u, _, outs = run_pass(ops)
    checker(outs)
    tracer = Tracer()
    tracer.install()
    try:
        wall_t, _, outs = run_pass(ops)
    finally:
        tracer.uninstall()
    checker(outs)
    metrics = layer_metrics(tracer)
    metrics.update({"bench.pass.untraced_s": wall_u, "bench.pass.traced_s": wall_t,
                    "bench.trace.overhead_s": wall_t - wall_u})
    tracer.write(spans_path)
    return metrics


def environment(seed: int) -> dict:
    import numpy
    import scipy
    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {"nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "seed": seed, "commit": commit,
            "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS",
                                                   "OPENBLAS_NUM_THREADS",
                                                   "MKL_NUM_THREADS")}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true",
                    help="only import the package and build the inputs (setup_s)")
    args = ap.parse_args(argv)
    if args.seed < 0:
        fail("--seed must be nonnegative")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = import_package()
    build, warm = workloads.WORKLOADS[args.workload]
    if args.probe:
        build(args.seed)
        return 0

    setup = [] if args.trace else measure_setup(args.workload, args.seed)
    ops = build(args.seed)
    warm(ops)
    checker = Checker(ops)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics = traced_run(ops, checker, OUT / f"spans-{stem}.csv.gz")
        wanted = spec["per_layer"]
    else:
        metrics = timed_run(ops, args.seconds, checker)
        metrics["setup_s"] = statistics.median(setup)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        wanted = spec["end_to_end"]
    tally = checker.tally(workloads.OK, workloads.KNOWN_DEFECT)
    metrics["bench.ops.failed_frac"] = tally["failed_frac"]
    metrics["bench.ops.known_defect_frac"] = tally["known_defect_frac"]

    env = environment(args.seed)
    record = {"workload": args.workload, "trace": args.trace, "env": env,
              "setup_probes_s": setup, "ops_per_pass": len(ops), "tally": tally,
              "metrics": metrics}
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print("env: " + " ".join(f"{k}={v}" for k, v in env.items() if k != "threads"))
    print(f"workload={args.workload} operations/pass={len(ops)} "
          f"attempted={tally['attempted']} failed={tally['failed']} "
          f"known_defects={tally['known_defects']} "
          f"failed_frac={tally['failed_frac']:.4g} (base {tally['attempted']})")
    for msg in tally["failures"]:
        print(f"  failure: {msg}", file=sys.stderr)
    result = {}
    for m in wanted:
        result[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
        print(f"{m['name']} = {metrics[m['name']]:.6g} {m['unit']}")
    print(json.dumps({"correct": tally["failed"] == 0, "attempted": tally["attempted"],
                      "failed": tally["failed"], "metrics": result}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
