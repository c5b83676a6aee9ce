"""Span tracing of the riskauctions layers, installed from outside the package.

``Tracer.install()`` replaces each traced function with a wrapper in every
module namespace that binds it (``batch_outcomes`` lives in ``mechanisms``,
``evaluation`` and ``lemmas``, for instance), wraps the ``Distribution``
methods on each class that defines them, ``UtilityFunction.__call__``, SciPy's
``quad`` as bound in ``evaluation``, and the entries of ``lemmas.SELECTIONS``.
``uninstall()`` puts the originals back.

A span is (name, start, end, parent) and is kept in memory; ``write()`` dumps
them at the end.  Counters that give the waste ratios are recorded by the
same wrappers, from the call arguments.
"""
from __future__ import annotations

import gzip
import time
import weakref
from collections import Counter

import numpy as np

import riskauctions
from riskauctions import (cli, distributions, evaluation, lemmas, mechanisms,
                          numerics, report, utilities)

MODULES = (riskauctions, cli, distributions, evaluation, lemmas, mechanisms,
           numerics, report, utilities)

# traced module functions: span name -> (module that defines it, attribute)
FUNCTIONS = {
    "utilities.optimal_reserve": (utilities, "optimal_reserve"),
    "utilities.maximize_single_bidder": (utilities, "maximize_single_bidder"),
    "utilities.check_virtual_utility_monotone": (utilities, "check_virtual_utility_monotone"),
    "mechanisms.batch_outcomes": (mechanisms, "batch_outcomes"),
    "mechanisms.allocation_probability": (mechanisms, "allocation_probability"),
    "mechanisms.hedge_limited_price": (mechanisms, "hedge_limited_price"),
    "numerics.binom_pmf": (numerics, "binom_pmf"),
    "numerics.golden_section_max": (numerics, "golden_section_max"),
    "numerics.bisect_root": (numerics, "bisect_root"),
    "evaluation.eval_mc": (evaluation, "eval_mc"),
    "evaluation.eval_posted_exact": (evaluation, "eval_posted_exact"),
    "evaluation.eval_vcg_exact": (evaluation, "eval_vcg_exact"),
    "evaluation.eval_second_price_exact": (evaluation, "eval_second_price_exact"),
    "evaluation.myerson_revenue": (evaluation, "myerson_revenue"),
    "evaluation.virtual_utility_identity_stats": (evaluation, "virtual_utility_identity_stats"),
    "lemmas.frontier_search": (lemmas, "frontier_search"),
    "cli.main": (cli, "main"),
}

DIST_CLASSES = (distributions.Distribution, distributions.Uniform,
                distributions.Exponential, distributions.RevenueCurveDistribution)
DIST_METHODS = ("draw", "price", "monopoly_price")


def _draw_key(d, rng, shape):
    ss = getattr(rng.bit_generator, "seed_seq", None)
    seed_id = (ss.entropy, tuple(ss.spawn_key)) if ss is not None else ("rng", id(rng))
    return d.label, seed_id, tuple(np.atleast_1d(shape).tolist())


def _batch_span(args) -> str:
    kind = "posted" if isinstance(args[0], mechanisms.PostedPriceMechanism) else "vcg"
    return f"mechanisms.batch_outcomes.{kind}"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.span_name: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []
        self.count = Counter()
        self.keys = {"draw": set(), "batch_outcomes": set(), "binom_pmf": set()}
        self._drawn: dict[int, tuple] = {}  # id(bids) -> (weakref, draw key)

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        idx = len(self.starts)
        self.span_name.append(nid)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, observe=None):
        """``observe(args, result, raised)`` runs after the span closes."""
        def traced(*args, **kwargs):
            idx = self._open(name(args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(idx)
                if observe is not None:
                    observe(args, None, True)
                raise
            self._close(idx)
            if observe is not None:
                observe(args, result, False)
            return result
        traced.__wrapped__ = fn
        return traced

    # -- counters from call arguments -----------------------------------------

    def _on_draw(self, args, result, raised):
        if raised:
            return
        d, rng, shape = args[:3]
        key = _draw_key(d, rng, shape)
        self.keys["draw"].add(key)
        self.count["draw.values"] += int(np.size(result))
        self._drawn[id(result)] = (weakref.ref(result), key)

    def _on_batch(self, args, result, raised):
        m, bids = args[:2]
        ref, key = self._drawn.get(id(bids), (None, None))
        if ref is None or ref() is not bids:
            key = ("untracked", id(bids))
        self.keys["batch_outcomes"].add((key, m))
        self.count["batch_outcomes.rows"] += int(np.shape(bids)[0]) if np.ndim(bids) == 2 else 1

    def _on_binom(self, args, result, raised):
        self.keys["binom_pmf"].add((int(args[0]), float(args[1])))

    def _on_eval_mc(self, args, result, raised):
        if not raised:
            self.count["eval_mc.samples"] += result.samples

    def _on_myerson(self, args, result, raised):
        if not raised and result[1] > 0:
            self.count["myerson_revenue.mc_calls"] += 1

    def _on_reserve(self, args, result, raised):
        if raised:
            self.count["optimal_reserve.raised"] += 1

    # -- installation ---------------------------------------------------------

    def _set(self, obj, attr, value):
        self._patched.append((obj, attr, getattr(obj, attr) if not isinstance(obj, dict)
                              else obj[attr]))
        if isinstance(obj, dict):
            obj[attr] = value
        else:
            setattr(obj, attr, value)

    def _patch_everywhere(self, original, wrapper):
        for mod in MODULES:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def install(self) -> None:
        observers = {
            "mechanisms.batch_outcomes": self._on_batch,
            "numerics.binom_pmf": self._on_binom,
            "evaluation.eval_mc": self._on_eval_mc,
            "evaluation.myerson_revenue": self._on_myerson,
            "utilities.optimal_reserve": self._on_reserve,
        }
        for name, (mod, attr) in FUNCTIONS.items():
            original = getattr(mod, attr)
            span = _batch_span if attr == "batch_outcomes" else name
            self._patch_everywhere(original, self.wrap(span, original, observers.get(name)))
        self._set(evaluation, "quad", self.wrap("evaluation.quad", evaluation.quad))
        for cls in DIST_CLASSES:
            for meth in DIST_METHODS:
                if meth in cls.__dict__:
                    self._set(cls, meth, self.wrap(f"distributions.{meth}", cls.__dict__[meth],
                                                   self._on_draw if meth == "draw" else None))
        self._set(utilities.UtilityFunction, "__call__",
                  self.wrap("utilities.apply", utilities.UtilityFunction.__call__))
        for sel, fn in list(lemmas.SELECTIONS.items()):
            self._set(lemmas.SELECTIONS, sel, self.wrap(f"lemmas.selection.{sel}", fn))

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._patched):
            if isinstance(obj, dict):
                obj[attr] = original
            else:
                setattr(obj, attr, original)
        self._patched.clear()
        self._drawn.clear()

    # -- results ----------------------------------------------------------------

    def _arrays(self):
        start = np.asarray(self.starts)
        dur = np.asarray(self.ends) - start
        parent = np.asarray(self.parents, dtype=np.int64)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        return np.asarray(self.span_name, dtype=np.int64), dur, dur - child, parent

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds, self seconds; plus totals."""
        names, dur, self_t, parent = self._arrays()
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        incl = np.bincount(names, weights=dur, minlength=k)
        self_s = np.bincount(names, weights=self_t, minlength=k)
        per = {n: (int(calls[i]), float(incl[i]), float(self_s[i]))
               for i, n in enumerate(self.names)}
        return {"per_name": per, "self_sum_s": float(self_t.sum()),
                "top_level_s": float(dur[parent < 0].sum()), "spans": len(dur)}

    def write(self, path) -> None:
        names, dur, _, parent = self._arrays()
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent\n")
            for nid, s, e, p in zip(names.tolist(), self.starts, self.ends, parent.tolist()):
                fh.write(f"{self.names[nid]},{s!r},{e!r},{p}\n")


def _ratio(distinct: int, base: int) -> float:
    return distinct / base if base else 1.0


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Every per-layer figure the trace yields, keyed ``<module>.<function>.<stat>``.

    A span name gives ``.calls`` and ``.self_s`` (span time minus the time of
    its child spans); a ``lemmas.selection.*`` span gives ``.wall_s``.  A
    ratio whose base is zero (the layer was not called) reads 1.0.
    """
    summ = tr.summary()
    per = summ["per_name"]
    names = (list(FUNCTIONS) + ["evaluation.quad", "utilities.apply"]
             + [f"distributions.{m}" for m in DIST_METHODS]
             + ["mechanisms.batch_outcomes.vcg", "mechanisms.batch_outcomes.posted"])
    out: dict[str, float] = {}
    for name in names:
        calls, _, self_s = per.get(name, (0, 0.0, 0.0))
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s
    for sel in lemmas.SELECTIONS:
        out[f"lemmas.selection.{sel}.wall_s"] = per.get(f"lemmas.selection.{sel}", (0, 0.0, 0.0))[1]
    out["mechanisms.batch_outcomes.calls"] = (out["mechanisms.batch_outcomes.vcg.calls"]
                                              + out["mechanisms.batch_outcomes.posted.calls"])
    out["distributions.draw.values"] = tr.count["draw.values"]
    out["distributions.draw.unique_frac"] = _ratio(len(tr.keys["draw"]),
                                                   out["distributions.draw.calls"])
    out["mechanisms.batch_outcomes.rows"] = tr.count["batch_outcomes.rows"]
    out["mechanisms.batch_outcomes.unique_frac"] = _ratio(
        len(tr.keys["batch_outcomes"]), out["mechanisms.batch_outcomes.calls"])
    out["numerics.binom_pmf.unique_frac"] = _ratio(len(tr.keys["binom_pmf"]),
                                                   out["numerics.binom_pmf.calls"])
    out["evaluation.eval_mc.samples"] = tr.count["eval_mc.samples"]
    out["evaluation.myerson_revenue.mc_calls"] = tr.count["myerson_revenue.mc_calls"]
    out["utilities.optimal_reserve.raised"] = tr.count["optimal_reserve.raised"]
    out["bench.trace.self_sum_s"] = summ["self_sum_s"]
    out["bench.trace.spans"] = summ["spans"]
    return out
