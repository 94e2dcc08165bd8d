"""Benchmark runner for emgadapt.

    python3 perfbench/run.py --workload cohort-ai-small --seed 0 --seconds 40 --trace 0

Run from the repository root: the package is imported from ``src/``.
Workloads, metric names and units are defined in BENCHMARK.json and
`workloads.py`.  The BLAS thread count is pinned to 1 before numpy loads.

A run repeats the timed section while the timed sections are expected to
end within ``--seconds`` in all (at least once).  Before every iteration
the workload is set up afresh `SETUPS_PER_ITERATION` times and the
iteration runs on the newest inputs; after the last one it is set up again
until there were at least `SETUP_REPEATS` set-ups taking `SETUP_SECONDS`
in all.  `setup_s` is the median set-up time: spreading the set-ups over
the run keeps it from depending on the speed of the host during a few
seconds only.
With ``--trace 0`` it reports the end-to-end metrics: median wall time,
set-up time, peak RSS of this process and the share of operations that
passed the output check.  With ``--trace 1`` it alternates untraced and
traced iterations and reports per-layer metrics from the traced ones as
means per iteration (wall times too, so self times add up to at most the
traced wall time); the spans are written to
``.bench_build/perfbench/`` when the run ends.

Every set-up's subject splits and every iteration's output files are
compared byte for byte with the first ones made for the same workload, seed
and source tree (digests kept in ``.bench_build/perfbench/digests``).  A
mismatch or a failed structural check counts the affected operations
(subject splits, experiment cells) as failed.
The last line of stdout is the JSON result.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK = ROOT / ".bench_build" / "perfbench"
SETUP_REPEATS = 3
SETUPS_PER_ITERATION = 2
SETUP_SECONDS = 5.0


def _import_package():
    src = ROOT / "src"
    if not (src / "emgadapt" / "__init__.py").is_file():
        sys.exit(f"error: {src}/emgadapt not found; run from the repository root")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "machine": platform.machine(),
    }


def _blas_threads() -> int | str:
    """Thread count reported by the loaded OpenBLAS, or the pinned setting."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return f"pinned {os.environ['OPENBLAS_NUM_THREADS']}"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py")]):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


class Reference:
    """Digests of the first inputs and outputs made for a workload and seed."""

    def __init__(self, workload: str, seed: int):
        self.path = WORK / "digests" / f"{workload}-seed{seed}-{source_digest()}.json"
        self.digests = json.loads(self.path.read_text()) if self.path.exists() else {}

    def failed_ops(self, groups: dict, expected_ops: int, prefix: str = "") -> int:
        """Operations not in a group that passed its check and matches its
        reference; a digest seen for the first time becomes the reference."""
        new = {prefix + k: g.digest for k, g in groups.items()
               if g.ok and prefix + k not in self.digests}
        if new:
            self.digests.update(new)
            self.path.parent.mkdir(parents=True, exist_ok=True)
            tmp = self.path.with_suffix(f".{os.getpid()}.tmp")
            tmp.write_text(json.dumps(self.digests, sort_keys=True))
            os.replace(tmp, self.path)
        good = sum(g.ops for k, g in groups.items()
                   if g.ok and self.digests[prefix + k] == g.digest)
        return expected_ops - good


def layer_metrics(names, spans, n_traced: int, traced_wall: float, plain_wall: float,
                  accuracy: dict) -> dict:
    """Per-layer values per traced iteration.  A name ``<span>.<key>`` is the
    span's ``calls``, ``total_s``, ``self_s`` or one of its counts."""
    from tracer import hl2l_layer1_fits, layer_totals

    totals = layer_totals(spans)

    def get(span, key):
        return totals.get(span, {}).get(key, 0) / n_traced

    fits = get("mkal.fit", "calls")
    derived = {
        "mkal.fit.zero_model_frac": get("mkal.fit", "zero_model") / fits if fits else 0.0,
        "model_selection.select.share": get("model_selection.select", "total_s") / traced_wall,
        "hl2l.layer1_fits": hl2l_layer1_fits(spans) / n_traced,
        "harness.cells": get("harness.run_experiment", "cells"),
        "layers.self_s": sum(t["self_s"] for t in totals.values()) / n_traced,
        "trace.wall_s": traced_wall,
        "trace.overhead_frac": (traced_wall - plain_wall) / plain_wall,
    }
    values = {}
    for name in names:
        if name in derived:
            values[name] = derived[name]
        elif name.startswith("acc."):
            values[name] = accuracy.get(name[len("acc."):], 0.0)
        else:
            values[name] = get(*name.rsplit(".", 1))
    return values


def measure(workload, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    """Set up, run the timed loop, check outputs; return the result object."""
    from tracer import Tracer

    work = WORK / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    reference = Reference(workload.name, seed)
    setups, attempted, failed = [], 0, 0

    def set_up():
        nonlocal attempted, failed
        shutil.rmtree(work / f"setup{len(setups) - 1}", ignore_errors=True)
        t0 = time.perf_counter()
        inputs = workload.setup(work / f"setup{len(setups)}", seed)
        setups.append(time.perf_counter() - t0)
        attempted += workload.input_ops
        try:
            failed += reference.failed_ops(workload.check_inputs(inputs), workload.input_ops,
                                           prefix="input:")
        except (OSError, ValueError, KeyError) as exc:
            print(f"input check failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            failed += workload.input_ops
        return inputs

    try:
        tracer = Tracer()
        plain, traced, accuracy = [], [], {}
        while True:
            for _ in range(SETUPS_PER_ITERATION):
                inputs = None  # free the last inputs first, so peak RSS holds one copy
                inputs = set_up()
            with_trace = trace and len(plain) > len(traced)
            outdir = work / f"out{len(plain) + len(traced)}"
            expected = workload.ops(inputs)
            if with_trace:
                tracer.install()
            error = None
            t0 = time.perf_counter()
            try:
                workload.run(inputs, outdir)
            except Exception as exc:  # the iteration's operations count as failed
                error = exc
            finally:
                elapsed = time.perf_counter() - t0
                tracer.uninstall()
            (traced if with_trace else plain).append(elapsed)
            if error is None:
                try:
                    checked = workload.check(inputs, outdir)
                except (OSError, ValueError) as exc:
                    error = exc
            attempted += expected
            if error is None:
                failed += reference.failed_ops(checked.groups, expected)
                accuracy = accuracy or checked.accuracy
            else:
                print(f"iteration failed: {type(error).__name__}: {error}", file=sys.stderr)
                failed += expected
            shutil.rmtree(outdir, ignore_errors=True)
            # start another iteration only if the timed sections should end
            # within the budget; a traced run ends on a complete untraced/traced pair
            timed = plain + traced
            unpaired = trace and len(plain) > len(traced)
            if not unpaired and sum(timed) + statistics.median(timed) > seconds:
                break
        while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_SECONDS:
            set_up()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if trace:
        tracer.write_jsonl(WORK / f"spans-{workload.name}-seed{seed}.jsonl")
        values = layer_metrics([m["name"] for m in spec["per_layer"]], tracer.spans, len(traced),
                               statistics.mean(traced), statistics.mean(plain), accuracy)
        section = "per_layer"
    else:
        values = {
            "wall_s": statistics.median(plain),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
            "ok_frac": 1.0 - failed / attempted,
        }
        section = "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    if set(values) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    print(f"setup_s {[round(x, 3) for x in setups]}, untraced {[round(x, 3) for x in plain]}, "
          f"traced {[round(x, 3) for x in traced]}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        sys.exit(f"error: {spec_path} not found; run from the repository root")
    spec = json.loads(spec_path.read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    _import_package()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    print("env " + json.dumps(environment(), sort_keys=True))
    result = measure(WORKLOADS[args.workload], args.seed, seconds, bool(args.trace), spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
