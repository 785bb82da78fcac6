"""Outside-in tracing: span wrappers around the program's public functions.

The wrappers are installed from the benchmark's own files, under the names
the program's callers use (``harness.approximate`` and
``direct_method.approximate`` are one function reached through two module
attributes), and only for a traced run; the untraced run installs nothing.
Each call records a span ``(name, start, end, parent, run_id, key, info)``:
``parent`` is the index of the enclosing span or -1, ``key`` identifies the
call's input (for distinct-input ratios) and ``info`` holds what the result
says about the work done (iterations, series terms). Spans stay in memory
and are written out when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import statistics
from contextlib import contextmanager
from time import perf_counter

import numpy as np


class Tracer:
    """The spans of one traced workload run."""

    def __init__(self, run_id: int = 0):
        self.spans: list = []
        self.run_id = run_id
        self._stack: list = []
        self._fkeys: dict = {}

    def function_key(self, f) -> str:
        """Value identity of a TestFunction: equal configs give equal keys.

        The function is kept referenced so that its ``id`` is not reused
        while the cache lives.
        """
        hit = self._fkeys.get(id(f))
        if hit is None:
            hit = self._fkeys[id(f)] = (f, repr(f))
        return hit[1]

    def wrap(self, name: str, fn, key=None, info=None):
        """``fn`` recording a span named ``name`` per call.

        ``key(args, kwargs)`` and ``info(result)``, when given, fill the
        span's key and info.
        """
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            out = None
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.run_id,
                              key(args, kwargs) if key else None,
                              info(out) if info and out is not None else None)

        return traced


def write_spans(tracers: list, path):
    """Write the spans of several runs as gzip'd JSON lines.

    The first line names the fields of the rows that follow; ``index`` and
    ``parent`` number the spans within their run.
    """
    fields = ["run", "index", "name", "start", "end", "parent", "info"]
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        fh.write(json.dumps(fields) + "\n")
        for tracer in tracers:
            for i, (name, start, end, parent, run_id, _key, info) in enumerate(tracer.spans):
                fh.write(json.dumps([run_id, i, name, start, end, parent, info]) + "\n")


def _vec(x) -> bytes:
    return np.asarray(x, dtype=np.complex128).tobytes()


def _targets(tracer: Tracer):
    """(owner, attribute, span name, key, info) for every wrapper."""
    from jensenlab import bounds, direct_method, harness, inequality, model, space

    def eval_key(args, kwargs):
        return tracer.function_key(args[0]), _vec(args[1])

    approx_signature = inspect.signature(direct_method.approximate)

    def approx_key(args, kwargs):
        bound = approx_signature.bind(*args, **kwargs)
        bound.apply_defaults()
        f, x, *rest = bound.arguments.values()
        return (tracer.function_key(f), _vec(x), *rest)

    def approx_info(rep):
        return {"iterations": rep.iterations, "converged": rep.converged}

    def phi_info(pt):
        return {"terms": pt.terms, "coverage_truncated": pt.coverage_truncated}

    return [
        (space.NormedSpace, "norm", "space.norm", None, None),
        (harness, "draw_samples", "space.draw_samples", None, None),
        (inequality, "draw_samples", "space.draw_samples", None, None),
        (space, "draw_samples", "space.draw_samples", None, None),
        (model, "evaluate", "model.evaluate", eval_key, None),
        (direct_method, "evaluate", "model.evaluate", eval_key, None),
        (inequality, "evaluate", "model.evaluate", eval_key, None),
        (bounds, "evaluate", "model.evaluate", eval_key, None),
        (inequality, "defect", "inequality.defect", None, None),
        (inequality, "measure_envelope", "inequality.measure_envelope", None, None),
        (harness, "approximate", "direct_method.approximate", approx_key, approx_info),
        (direct_method, "approximate", "direct_method.approximate", approx_key, approx_info),
        (direct_method, "orbit_term", "direct_method.orbit_term", None, None),
        (bounds, "phi_tilde_norm", "bounds.phi_tilde_norm", None, phi_info),
        (bounds, "audit", "bounds.audit", None, None),
        (harness, "build_experiment", "harness.build_experiment", None, None),
        (harness, "run_verify", "harness.run_verify", None, None),
        (harness, "run_sweep", "harness.run_sweep", None, None),
    ]


@contextmanager
def installed(tracer: Tracer):
    """Install the wrappers for the duration of the block, then restore.

    A name the program no longer has is skipped; its metrics then read 0.
    """
    saved = []
    try:
        for owner, attr, name, key, info in _targets(tracer):
            original = owner.__dict__.get(attr)
            if original is None:
                continue
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, key, info))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans: list) -> list:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _n, start, end, *_ in spans]
    for _n, start, end, parent, *_ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def _pct(values: list, q: float) -> float:
    """The q-quantile (0..1) by linear interpolation; 0.0 for no values."""
    return float(np.quantile(values, q)) if values else 0.0


def layer_metrics(spans: list) -> dict:
    """Per-layer numbers of one workload run, from its spans."""
    selfs = self_times(spans)
    by_name: dict = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)

    def calls(name):
        return len(by_name.get(name, ()))

    def self_s(name):
        return float(sum(selfs[i] for i in by_name.get(name, ())))

    def total_s(name):
        return float(sum(spans[i][2] - spans[i][1] for i in by_name.get(name, ())))

    def distinct_ratio(name):
        keys = [spans[i][5] for i in by_name.get(name, ())]
        return len(set(keys)) / len(keys) if keys else 0.0

    def infos(name, field):
        return [spans[i][6][field] for i in by_name.get(name, ()) if spans[i][6]]

    approx_ms = [1e3 * (spans[i][2] - spans[i][1]) for i in by_name.get("direct_method.approximate", ())]
    iterations = infos("direct_method.approximate", "iterations")
    envelope_s = total_s("inequality.measure_envelope")
    evaluate_calls = calls("model.evaluate")
    return {
        "space.norm.calls": (calls("space.norm"), "count"),
        "space.norm.self_s": (self_s("space.norm"), "s"),
        "space.draw_samples.s": (total_s("space.draw_samples"), "s"),
        "model.evaluate.calls": (evaluate_calls, "count"),
        "model.evaluate.self_s": (self_s("model.evaluate"), "s"),
        "model.evaluate.us_per_call": (
            1e6 * total_s("model.evaluate") / evaluate_calls if evaluate_calls else 0.0, "us"),
        "model.evaluate.distinct_ratio": (distinct_ratio("model.evaluate"), "ratio"),
        "inequality.defect.calls": (calls("inequality.defect"), "count"),
        "inequality.defect.self_s": (self_s("inequality.defect"), "s"),
        "inequality.measure_envelope.s": (envelope_s, "s"),
        "inequality.measure_envelope.triples_per_s": (
            calls("inequality.defect") / envelope_s if envelope_s else 0.0, "1/s"),
        "direct_method.approximate.calls": (calls("direct_method.approximate"), "count"),
        "direct_method.approximate.self_s": (self_s("direct_method.approximate"), "s"),
        "direct_method.approximate.ms_p50": (_pct(approx_ms, 0.5), "ms"),
        "direct_method.approximate.ms_p90": (_pct(approx_ms, 0.9), "ms"),
        "direct_method.approximate.iterations_mean": (
            statistics.fmean(iterations) if iterations else 0.0, "count"),
        "direct_method.approximate.iterations_max": (max(iterations, default=0), "count"),
        "direct_method.approximate.not_converged": (
            sum(1 for c in infos("direct_method.approximate", "converged") if not c), "count"),
        "direct_method.approximate.distinct_ratio": (
            distinct_ratio("direct_method.approximate"), "ratio"),
        "direct_method.orbit_term.calls": (calls("direct_method.orbit_term"), "count"),
        "bounds.phi_tilde_norm.calls": (calls("bounds.phi_tilde_norm"), "count"),
        "bounds.phi_tilde_norm.self_s": (self_s("bounds.phi_tilde_norm"), "s"),
        "bounds.phi_tilde_norm.terms_mean": (
            statistics.fmean(infos("bounds.phi_tilde_norm", "terms"))
            if infos("bounds.phi_tilde_norm", "terms") else 0.0, "count"),
        "bounds.phi_tilde_norm.coverage_truncated": (
            sum(infos("bounds.phi_tilde_norm", "coverage_truncated")), "count"),
        "bounds.audit.s": (total_s("bounds.audit"), "s"),
        "harness.build_experiment.calls": (calls("harness.build_experiment"), "count"),
        "harness.build_experiment.s": (total_s("harness.build_experiment"), "s"),
        "harness.run_verify.calls": (calls("harness.run_verify"), "count"),
        "harness.run_verify.self_s": (self_s("harness.run_verify"), "s"),
        "harness.render.s": (total_s("harness.render"), "s"),
    }
