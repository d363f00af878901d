"""Span tracer for the traced run, and the per-layer metrics built from it.

The tracer wraps each layer function at the place where callers look it up:
a module attribute when callers use the module's global name (`schemes` calls
`solve_coset` by the name it imported from `cosets`), a class attribute for
methods.  Spans are kept in memory, one list and one stack per thread, and
the originals are put back by `uninstall`.
"""

from __future__ import annotations

import functools
import itertools
import os
import statistics
import threading
import time
from collections import defaultdict

import numpy as np


def _coset_key(args, result):
    # the stacked system the elimination solved: repeated keys are re-solves
    return {"key": hash((result.matrix.tobytes(), result.target.tobytes()))}


def _rows(args, result):
    return {"rows": int(result.shape[0])}


def _scored(args, result):
    return {"scored": args[0].size}


def _scored_product(args, result):
    pairs = args[0].size * args[1].size
    return {"scored": pairs, "score_bytes": 8 * pairs}


def _matrices(args, result):
    return {"matrices": len(result)}


def _written(args, result):
    prefix = args[2]
    return {"bytes": sum(os.path.getsize(f"{prefix}{s}")
                         for s in (".csv", "_records.csv", ".json", ".gp"))}


SCHEME_FUNCTIONS = (
    "sw_decode", "ch_encode", "ch_decode", "gp_encode", "gp_decode",
    "lossy_encode", "lossy_decode", "wz_encode", "wz_decode", "oho_encode_y",
    "oho_decode", "sample_message")
DIAGNOSTIC_CHECKS = ("return_prob_exhaustive", "hash_sum_exhaustive",
                     "collision_bound_check", "saturation_bound_check")
TYPE_CHECKS = ("exprob", "typical_trans", "type_lemma", "typical_aep",
               "typical_prob", "typical_number")


def targets():
    """(span name, owner, attribute, counter) for every wrapped function."""
    from cosetcode import cosets, diagnostics, gf, harness, matrices, schemes
    from cosetcode import types_lab

    out = [
        ("cosets.solve_coset", schemes, "solve_coset", _coset_key),
        ("cosets.elements", cosets.CosetDescription, "elements", _rows),
        ("cosets.ml_code_iid", schemes, "ml_code_iid", _scored),
        ("cosets.ml_code_cond_iid", schemes, "ml_code_cond_iid", _scored),
        ("cosets.ml_code_product", schemes, "ml_code_product", _scored_product),
        ("schemes.build_instance", schemes, "build_instance", None),
        ("matrices.generate_mackay", schemes, "generate_mackay", None),
        ("matrices.matvec", matrices.SparseMatrix, "matvec", None),
        ("matrices.rank_and_image", matrices.SparseMatrix, "rank_and_image", None),
        ("matrices.sample_image_point", schemes, "sample_image_point", None),
        ("gf.FieldSpec", gf.FieldSpec, "__init__", None),
        ("harness.run_experiment", harness, "run_experiment", None),
        ("harness.run_trial", harness, "run_trial", None),
        ("harness.sample_source", harness, "sample_source", None),
        ("harness.sample_channel", harness, "sample_channel", None),
        ("harness.write_outputs", harness, "write_outputs", _written),
        ("diagnostics.enumerate_mackay", diagnostics, "enumerate_mackay",
         _matrices),
        ("diagnostics.alpha_beta", diagnostics, "alpha_beta", None),
        ("diagnostics.walk_dist_closed", diagnostics, "walk_dist_closed", None),
    ]
    out += [(f"schemes.{f}", schemes, f, None) for f in SCHEME_FUNCTIONS]
    out += [(f"diagnostics.{f}", diagnostics, f, None) for f in DIAGNOSTIC_CHECKS]
    out += [(f"types_lab.check_{f}", types_lab, f"check_{f}", None)
            for f in TYPE_CHECKS]
    return out


class Tracer:
    """Records a span around every call of the wrapped functions."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []  # one span list per thread that made a call
        self._ids = itertools.count(1)
        self._saved = []

    def install(self):
        for name, owner, attr, count in targets():
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, count))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _thread_state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack, local.spans = [], []
            with self._lock:
                self._threads.append((threading.get_ident(), local.spans))
        return local.stack, local.spans

    def _wrap(self, name, fn, count):
        clock, next_id = time.perf_counter_ns, self._ids.__next__

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, spans = self._thread_state()
            frame = [next_id(), 0]  # span id, ns covered by child spans
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            start = clock()
            result = failed = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                failed = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                extra = count(args, result) if count and failed is None else None
                spans.append((frame[0], parent, name, start, end,
                              end - start - frame[1], failed, extra))
                if stack:
                    # counting is wrapper overhead: keep it out of the parent
                    stack[-1][1] += clock() - start

        return traced

    def spans(self):
        """All spans as (thread, id, parent, name, start_ns, end_ns, self_ns,
        raised, counters) tuples."""
        with self._lock:
            return [(tid,) + s for tid, spans in self._threads for s in spans]


def summarize(spans) -> dict:
    """Per span name: calls, self_ms, summed counters, distinct keys."""
    out = defaultdict(lambda: defaultdict(float))
    keys = defaultdict(set)
    for _tid, _id, _parent, name, start, end, self_ns, _raised, extra in spans:
        agg = out[name]
        agg["calls"] += 1
        agg["self_ms"] += self_ns / 1e6
        agg["ms"] += (end - start) / 1e6
        for k, v in (extra or {}).items():
            if k == "key":
                keys[name].add(v)
            else:
                agg[k] += v
    for name, seen in keys.items():
        out[name]["distinct"] = len(seen)
    return out


# name -> (unit, better); `TIMED` ones are medians over traced rounds, the
# others are counts from the first traced round, which repeat exactly for a seed
# (but for the few bytes of wall time in the JSON that write_outputs writes)
PER_LAYER = {}
TIMED = set()


def _layer(name, unit, better, timed=False):
    PER_LAYER[name] = (unit, better)
    if timed:
        TIMED.add(name)


for _fn in ("solve_coset", "elements", "ml_code_iid", "ml_code_cond_iid",
            "ml_code_product"):
    _layer(f"cosets.{_fn}.calls", "count", "lower")
    _layer(f"cosets.{_fn}.self_ms", "ms", "lower", timed=True)
_layer("cosets.solve_coset.distinct_share", "ratio", "higher")
_layer("cosets.elements.rows", "count", "lower")
for _fn in ("ml_code_iid", "ml_code_cond_iid", "ml_code_product"):
    _layer(f"cosets.{_fn}.scored", "count", "lower")
_layer("cosets.ml_code_product.score_bytes", "bytes", "lower")
for _fn in ("build_instance",) + SCHEME_FUNCTIONS:
    _layer(f"schemes.{_fn}.calls", "count", "lower")
    _layer(f"schemes.{_fn}.self_ms", "ms", "lower", timed=True)
_layer("schemes.eps_warnings", "count", "lower")
_layer("schemes.dims_clamped", "count", "lower")
for _fn in ("generate_mackay", "matvec", "rank_and_image", "sample_image_point"):
    _layer(f"matrices.{_fn}.calls", "count", "lower")
    _layer(f"matrices.{_fn}.self_ms", "ms", "lower", timed=True)
_layer("gf.FieldSpec.calls", "count", "lower")
_layer("gf.FieldSpec.self_ms", "ms", "lower", timed=True)
_layer("harness.run_trial.calls", "count", "lower")
_layer("harness.run_trial.self_ms", "ms", "lower", timed=True)
_layer("harness.sample_source.self_ms", "ms", "lower", timed=True)
_layer("harness.sample_channel.self_ms", "ms", "lower", timed=True)
_layer("harness.write_outputs.ms", "ms", "lower", timed=True)
_layer("harness.write_outputs.bytes", "bytes", "lower")
_layer("harness.trial_ms_p50", "ms", "lower", timed=True)
_layer("harness.trial_ms_p90", "ms", "lower", timed=True)
_layer("harness.trial_samples", "count", "higher")
_layer("harness.trial_busy_share", "ratio", "higher", timed=True)
_layer("harness.encoder_failure_share", "ratio", "lower")
_layer("harness.block_error", "ratio", "lower")
_layer("harness.block_error_rows", "count", "higher")
_layer("harness.distortion", "ratio", "lower")
_layer("harness.distortion_rows", "count", "higher")
_layer("diagnostics.enumerate_mackay.self_ms", "ms", "lower", timed=True)
_layer("diagnostics.enumerate_mackay.matrices", "count", "lower")
_layer("diagnostics.alpha_beta.self_ms", "ms", "lower", timed=True)
for _fn in DIAGNOSTIC_CHECKS:
    _layer(f"diagnostics.{_fn}.calls", "count", "lower")
    _layer(f"diagnostics.{_fn}.self_ms", "ms", "lower", timed=True)
_layer("diagnostics.walk_dist_closed.self_ms", "ms", "lower", timed=True)
for _fn in TYPE_CHECKS:
    _layer(f"types_lab.check_{_fn}.self_ms", "ms", "lower", timed=True)
_layer("trace.untraced_ops_per_s", "ops/s", "higher", timed=True)
_layer("trace.traced_ops_per_s", "ops/s", "higher", timed=True)
_layer("trace.overhead_share", "ratio", "lower", timed=True)


SPAN_FIELDS = ("calls", "self_ms", "ms", "rows", "scored", "score_bytes",
               "matrices", "bytes")


def round_metrics(summary, rnd, threads: int, admissibility: dict) -> dict:
    """Per-layer metrics of one traced round, except the `trace.*` ones."""
    def span(name, field):
        return summary[name][field] if name in summary else 0.0

    out = {}
    for metric in PER_LAYER:
        name, _, field = metric.rpartition(".")
        if field in SPAN_FIELDS:
            out[metric] = span(name, field)
    calls = span("cosets.solve_coset", "calls")
    out["cosets.solve_coset.distinct_share"] = (
        span("cosets.solve_coset", "distinct") / calls if calls else 0.0)
    trial_ms = [r.seconds * 1e3 for r in rnd.records]
    p50, p90 = np.percentile(trial_ms, [50, 90]) if trial_ms else (0.0, 0.0)
    out["harness.trial_ms_p50"] = float(p50)
    out["harness.trial_ms_p90"] = float(p90)
    out["harness.trial_samples"] = len(trial_ms)
    experiment_ms = span("harness.run_experiment", "ms")
    out["harness.trial_busy_share"] = (
        span("harness.run_trial", "ms") / (threads * experiment_ms)
        if experiment_ms else 0.0)
    out["harness.encoder_failure_share"] = (
        rnd.encoder_failures / len(rnd.records) if rnd.records else 0.0)
    out["harness.block_error"] = _mean(rnd.error_rows)
    out["harness.block_error_rows"] = len(rnd.error_rows)
    out["harness.distortion"] = _mean(rnd.distortion_rows)
    out["harness.distortion_rows"] = len(rnd.distortion_rows)
    out["schemes.eps_warnings"] = admissibility["eps_warnings"]
    out["schemes.dims_clamped"] = admissibility["dims_clamped"]
    return out


def _mean(values):
    return statistics.fmean(values) if values else 0.0


def combine(rounds: list) -> dict:
    """Timed metrics: median over traced rounds; counts: the first round."""
    return {k: statistics.median(r[k] for r in rounds) if k in TIMED
            else rounds[0][k] for k in rounds[0]}
