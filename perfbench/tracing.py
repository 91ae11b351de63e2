"""In-memory spans around the calls the benchmark and ``justnow.cli`` make into each layer.

A traced run wraps the public functions of ``justnow.data``, ``fitting``,
``evaluation`` and ``model`` by rebinding the module attributes that name
them (in every ``justnow`` module that imported them), and opens a span for
each call.  ``composite_probability`` is called once per point and vote, so
it is counted rather than spanned.  The benchmark opens the ``cli.*`` spans
itself, around each ``cli.run`` call.  Nothing is patched in untraced runs.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import statistics
import time
from dataclasses import dataclass, field

import justnow
from justnow import cli, data, evaluation, fitting, model

_MODULES = (justnow, cli, data, evaluation, fitting, model)


def _config(args, kwargs):
    return args[1] if len(args) > 1 else kwargs.get("config", fitting.FitConfig())


def _fit_attrs(args, kwargs, report):
    attrs = {"multistarts": _config(args, kwargs).multistart_count}
    if report is not None:
        if isinstance(report.model, model.FactorizedModel):
            shape = (len(report.model.events), len(report.model.adverbials))
        else:
            shape = (
                len({e for e, _ in report.model.pairs}),
                len({a for _, a in report.model.pairs}),
            )
        attrs.update(
            iterations=report.iterations,
            residuals=report.residual_count,
            converged=int(report.converged),
            shape=f"{shape[0]}x{shape[1]}",
        )
    return attrs


def _file_bytes(args, kwargs, result):
    path = args[1]
    return {"bytes": os.path.getsize(path)} if os.path.exists(path) else {}


# (module, function, span name, attributes taken from (args, kwargs, result)).
_SPANNED = (
    (data, "generate_synthetic", "data.generate_synthetic", None),
    (data, "save_csv", "data.save_csv", _file_bytes),
    (data, "load_csv", "data.load_csv", lambda a, k, r: {"rows": len(r)} if r is not None else {}),
    (fitting, "fit_factorized", "fitting.fit_factorized", _fit_attrs),
    (fitting, "fit_baseline", "fitting.fit_baseline", _fit_attrs),
    (evaluation, "accuracy", "evaluation.accuracy", lambda a, k, r: {"records": len(a[1])}),
    (evaluation, "compare", "evaluation.compare", None),
    (model, "load_model", "model.load_model", None),
    (model, "load_baseline", "model.load_model", None),
    (model, "load_any_model", "model.load_model", None),
    (model, "best_adverbial", "model.best_adverbial", None),
)
_COUNTED = ((model, "composite_probability", "model.composite_probability_calls"),)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class NullTracer:
    """Untraced runs: spans cost one no-op context manager."""

    def span(self, name: str):
        return contextlib.nullcontext()


class Tracer:
    """Records spans (name, start, end, parent) and call counters in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._stack.append(index)
        try:
            yield self.spans[index]
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def _spanned(self, fn, name, attrs_fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = None
            try:
                with self.span(name) as span:
                    result = fn(*args, **kwargs)
            finally:
                # Attributes are taken after the span closes, also when the call raised.
                if attrs_fn is not None:
                    span.attrs.update(attrs_fn(args, kwargs, result))
            return result

        return wrapper

    def _counted(self, fn, name):
        counters = self.counters
        counters.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Rebind the traced functions in every justnow module, restoring them on exit."""
        replaced = []
        wrappers = [
            (getattr(m, fn), self._spanned(getattr(m, fn), name, attrs_fn))
            for m, fn, name, attrs_fn in _SPANNED
        ] + [(getattr(m, fn), self._counted(getattr(m, fn), name)) for m, fn, name in _COUNTED]
        try:
            for original, wrapper in wrappers:
                for module in _MODULES:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            replaced.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in replaced:
                setattr(module, attr, original)

    def write(self, path) -> None:
        doc = {
            "spans": [
                {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, **s.attrs}
                for s in self.spans
            ],
            "counters": self.counters,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


# Percentiles tried for a latency tail, highest first.
_TAIL_PERCENTILES = (99.9, 99.0, 90.0)


def tail(samples: list[float]) -> tuple[float, float, int] | None:
    """(percentile, value, samples beyond it) for the highest percentile with >= 10 beyond."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in _TAIL_PERCENTILES:
        rank = math.ceil(pct / 100.0 * n)
        if n - rank >= 10:
            return pct, ordered[rank - 1], n - rank
    return None


def layer_metrics(tracer: Tracer, rounds: int, rungs) -> tuple[dict[str, float], str]:
    """Per-layer metrics per round from one traced run, plus a note on the predict tail."""
    by_name: dict[str, list[Span]] = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)

    def total(name, key=None, where=lambda s: True):
        spans = [s for s in by_name.get(name, []) if where(s)]
        if key is None:
            return sum(s.duration for s in spans) / rounds
        return sum(s.attrs.get(key, 0) for s in spans) / rounds

    def calls(name):
        return len(by_name.get(name, [])) / rounds

    m = {
        "data.generate_synthetic_s": total("data.generate_synthetic"),
        "data.save_csv_s": total("data.save_csv"),
        "data.load_csv_s": total("data.load_csv"),
        "data.load_csv_calls": calls("data.load_csv"),
        "data.rows_loaded": total("data.load_csv", "rows"),
        "data.csv_bytes": total("data.save_csv", "bytes"),
        "fitting.fit_factorized_s": total("fitting.fit_factorized"),
        "fitting.factorized_iterations": total("fitting.fit_factorized", "iterations"),
        "fitting.residual_count": total("fitting.fit_factorized", "residuals"),
        "fitting.fit_single_start_s": total(
            "fitting.fit_factorized", where=lambda s: s.attrs.get("multistarts") == 1
        ),
        "fitting.fit_baseline_s": total("fitting.fit_baseline"),
        "fitting.baseline_iterations": total("fitting.fit_baseline", "iterations"),
        "fitting.baseline_converged": total("fitting.fit_baseline", "converged"),
        "evaluation.accuracy_s": total("evaluation.accuracy"),
        "evaluation.records_scored": total("evaluation.accuracy", "records"),
        "evaluation.compare_s": total("evaluation.compare"),
        "model.load_model_s": total("model.load_model"),
        "model.load_model_calls": calls("model.load_model"),
        "model.composite_probability_calls": tracer.counters.get(
            "model.composite_probability_calls", 0
        )
        / rounds,
        "model.best_adverbial_s": total("model.best_adverbial"),
    }
    for e, a in rungs:
        shape = f"{e}x{a}"
        for family in ("factorized", "baseline"):
            m[f"fitting.fit_{family}_s.{shape}"] = total(
                f"fitting.fit_{family}", where=lambda s: s.attrs.get("shape") == shape
            )
    for sub in ("synthesize", "fit", "fit-baseline", "compare", "plot-data", "evaluate"):
        m[f"cli.{sub.replace('-', '_')}_s"] = total(f"cli.{sub}")
    # Self time: duration minus the direct children's durations (calls are sequential).
    children = [0.0] * len(tracer.spans)
    for s in tracer.spans:
        if s.parent is not None:
            children[s.parent] += s.duration
    m["cli.self_s"] = (
        sum(s.duration - children[i] for i, s in enumerate(tracer.spans) if s.name.startswith("cli."))
        / rounds
    )
    predict_ms = [s.duration * 1e3 for s in by_name.get("cli.predict", [])]
    m["cli.predict_calls"] = len(predict_ms) / rounds
    m["cli.predict_p50_ms"] = statistics.median(predict_ms) if predict_ms else 0.0
    found = tail(predict_ms)
    m["cli.predict_tail_ms"] = found[1] if found else 0.0
    if found:
        note = f"predict tail: p{found[0]:g} of {len(predict_ms)} calls, {found[2]} beyond it"
    elif predict_ms:
        note = f"predict tail: {len(predict_ms)} calls, too few for a tail; reported 0"
    else:
        note = "predict tail: no predict calls"
    return m, note
