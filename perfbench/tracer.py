"""Spans around the public functions of each emgadapt layer, recorded from outside.

`Tracer.install` replaces every traced function at every place the package
binds it: the defining module and each module that imported it by name
(``from .kernels import gram`` leaves a second reference in `lssvm`, `mkal`
and `multi_adapt`).  Sites are found by identity over all loaded
``emgadapt`` modules, so a new import site is picked up without listing it
here.  `uninstall` puts the original objects back.

Each span records its name, start, end, parent and a few work counts.
Spans stay in memory; `write_jsonl` writes them out when the run ends.
A span's self time is its duration minus the durations of its direct
children (calls are synchronous and single-threaded, so children never
overlap).
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    counts: dict = field(default_factory=dict)


def _stem_bytes(stem) -> int:
    stem = Path(stem)
    if stem.suffix:
        stem = stem.with_suffix("")
    return sum(p.stat().st_size for p in (stem.with_suffix(".csv"), stem.with_suffix(".json")))


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


# Counts taken after a call returns: (args, kwargs, result) -> {count: value}.
def _gram_counts(args, kwargs, result):
    return {"entries": int(result.size)}


def _solve_counts(args, kwargs, result):
    # Computed, not measured: LU of the (N+1)-square bordered matrix plus
    # one forward/back substitution per target column.
    n = _arg(args, kwargs, 0, "kmat").shape[0] + 1
    cols = _arg(args, kwargs, 2, "targets").shape[1]
    return {"flops": 2.0 / 3.0 * n**3 + 2.0 * n * n * cols}


def _rows_counts(args, kwargs, result):
    return {"rows": int(result.shape[0])}


def _mkal_counts(args, kwargs, result):
    return {"zero_model": int(not np.any(result.dual_coeffs))}


def _cells_counts(args, kwargs, result):
    return {"cells": len(result.cells)}


def _written_counts(args, kwargs, result):
    return {"bytes": sum(Path(p).stat().st_size for p in result)}


def _load_counts(args, kwargs, result):
    return {"bytes": _stem_bytes(_arg(args, kwargs, 0, "stem"))}


# (defining module, function, span name, counts taken after the call)
TRACED = (
    ("emgadapt.kernels", "gram", "kernels.gram", _gram_counts),
    ("emgadapt.lssvm", "fit", "lssvm.fit", None),
    ("emgadapt.lssvm", "solve_dual_system", "lssvm.solve", _solve_counts),
    ("emgadapt.lssvm", "bordered_inverse_block", "lssvm.loo_inverse", None),
    ("emgadapt.lssvm", "decision_scores", "lssvm.predict", None),
    ("emgadapt.model_selection", "select", "model_selection.select", None),
    ("emgadapt.model_selection", "cross_validate", "model_selection.cross_validate", None),
    ("emgadapt.multi_adapt", "source_scores", "multi_adapt.source_scores", _rows_counts),
    ("emgadapt.multi_adapt", "fit_ma", "multi_adapt.fit_ma", None),
    ("emgadapt.mkal", "fit_mkal", "mkal.fit", _mkal_counts),
    ("emgadapt.mkal", "predict_mkal", "mkal.predict", None),
    ("emgadapt.hl2l", "stacking_dataset", "hl2l.stacking", None),
    ("emgadapt.hl2l", "fit_hl2l", "hl2l.fit", None),
    ("emgadapt.baselines", "fit_no_transfer", "baselines.no_transfer", None),
    ("emgadapt.baselines", "fit_prior_features", "baselines.prior_features", None),
    ("emgadapt.harness", "run_experiment", "harness.run_experiment", _cells_counts),
    ("emgadapt.harness", "train_source_model", "harness.source_models", None),
    ("emgadapt.harness", "write_run_outputs", "harness.write_outputs", _written_counts),
    ("emgadapt.signals", "load_dataset", "signals.load_dataset", _load_counts),
)


def package_modules() -> list:
    """Every module of the emgadapt package, imported."""
    pkg = importlib.import_module("emgadapt")
    for info in pkgutil.iter_modules(pkg.__path__):
        importlib.import_module(f"emgadapt.{info.name}")
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "emgadapt" or name.startswith("emgadapt."))]


def import_sites(fn) -> list[tuple[object, str]]:
    """(module, attribute) pairs of the package that bind `fn`."""
    return [(m, attr) for m in package_modules() for attr, v in vars(m).items() if v is fn]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, counts):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else None)
            spans.append(span)
            stack.append(idx)
            if name == "model_selection.select":
                args, kwargs = _count_fits(span, args, kwargs)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if counts is not None:
                span.counts.update(counts(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module_name, attr, name, counts in TRACED:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self._wrap(name, original, counts)
            for module, site in import_sites(original):
                setattr(module, site, wrapper)
                self._patches.append((module, site, original))

    def uninstall(self) -> None:
        for module, site, original in reversed(self._patches):
            setattr(module, site, original)
        self._patches.clear()

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "counts": s.counts}) + "\n")


def _count_fits(span: Span, args, kwargs):
    """Replace select's fit_fn argument by one that counts its calls."""
    fit_fn = _arg(args, kwargs, 1, "fit_fn")
    span.counts["fits"] = 0

    def counted(*a, **k):
        span.counts["fits"] += 1
        return fit_fn(*a, **k)

    if len(args) > 1:
        args = (args[0], counted, *args[2:])
    else:
        kwargs = dict(kwargs, fit_fn=counted)
    return args, kwargs


def self_times(spans: list[Span]) -> list[float]:
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total_s, self_s and summed counts."""
    out: dict[str, dict[str, float]] = {}
    for s, own in zip(spans, self_times(spans)):
        row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s.end - s.start
        row["self_s"] += own
        for key, value in s.counts.items():
            row[key] = row.get(key, 0) + value
    return out


def hl2l_layer1_fits(spans: list[Span]) -> int:
    """lssvm.fit calls whose nearest hl2l ancestor is the stacking step."""
    n = 0
    for s in spans:
        if s.name != "lssvm.fit":
            continue
        p = s.parent
        while p is not None and not spans[p].name.startswith("hl2l."):
            p = spans[p].parent
        n += p is not None and spans[p].name == "hl2l.stacking"
    return n
