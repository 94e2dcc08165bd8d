"""Fast self-test of the benchmark on tiny inputs.

    python3 perfbench/selftest.py

Run from the repository root.  Each workload runs with tiny sizes through
the same `run.main` the benchmark command uses, once untraced and once
traced, and the test checks the printed result line: every metric of
BENCHMARK.json with its unit, per-layer self times within the traced wall
time, and the per-workload span expectations.  It also checks that the
tracer repoints every import site and restores them, and that the output
check rejects altered result files.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import shutil
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (pins BLAS threads before numpy loads)

run._import_package()
import tracer  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "cohort-ai-small": workloads.CohortAiSmall(
        name="selftest-cohort", subjects=3, amputee_fraction=0.34, channels=4,
        movement_ms=300.0, sizes=(16, 24), seeds=1, grid_c=(1.0, 10.0),
        grid_gamma=(0.01, 0.1), folds=2,
    ),
    "cli-ai-large": workloads.CliAiLarge(
        name="selftest-cli",
        synth_flags=("--classes", 4, "--channels", 3, "--movement-ms", 400, "--rest-ms", 300),
        sizes=(16, 24),
        run_flags=("--grid-c", "1,10", "--grid-gamma", "0.1,1", "--folds", 2),
    ),
}

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def run_tiny(name: str, trace: int) -> dict:
    """Run one tiny workload through run.main and parse its last stdout line."""
    saved = workloads.WORKLOADS[name]
    workloads.WORKLOADS[name] = TINY[name]
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", name, "--seed", "3", "--seconds", "0",
                             "--trace", str(trace)])
    finally:
        workloads.WORKLOADS[name] = saved
    assert code == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.work = run.WORK.parent / "perfbench-selftest"
        run.WORK = cls.work
        run.SETUP_SECONDS = 0.0  # tiny set-ups: the repeat count alone is enough here
        cls.results = {(n, t): run_tiny(n, t) for n in TINY for t in (0, 1)}

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work, ignore_errors=True)

    def test_every_metric_is_printed_with_its_unit(self):
        for (name, trace), res in self.results.items():
            with self.subTest(workload=name, trace=trace):
                self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                self.assertGreaterEqual(res["attempted"], 1)
                wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                self.assertEqual(got, wanted)
                for v in res["metrics"].values():
                    self.assertTrue(math.isfinite(v["value"]))

    def test_every_per_layer_metric_is_measured_on_some_workload(self):
        # a misspelt span or count name would read as 0 everywhere
        for m in SPEC["per_layer"]:
            with self.subTest(metric=m["name"]):
                self.assertTrue(any(self.results[(n, 1)]["metrics"][m["name"]]["value"]
                                    for n in TINY))

    def test_workload_names_and_reasons_match_benchmark_json(self):
        listed = {w["name"]: w["why"] for w in SPEC["workloads"]}
        self.assertEqual(listed, {n: w.why for n, w in workloads.WORKLOADS.items()})

    def test_self_times_fit_inside_the_traced_wall_time(self):
        for name in TINY:
            m = {k: v["value"] for k, v in self.results[(name, 1)]["metrics"].items()}
            with self.subTest(workload=name):
                self.assertGreater(m["layers.self_s"], 0.0)
                self.assertLessEqual(m["layers.self_s"], m["trace.wall_s"])

    def test_spans_show_the_expected_layers(self):
        cohort = {k: v["value"] for k, v in self.results[("cohort-ai-small", 1)]["metrics"].items()}
        self.assertGreater(cohort["mkal.fit.calls"], 0)
        self.assertTrue(0.0 <= cohort["mkal.fit.zero_model_frac"] <= 1.0)
        hl2l_cells = cohort["harness.cells"] / len(workloads.harness.METHODS)
        self.assertEqual(cohort["hl2l.layer1_fits"], 2 * hl2l_cells)
        cli = {k: v["value"] for k, v in self.results[("cli-ai-large", 1)]["metrics"].items()}
        self.assertEqual(cli["mkal.fit.calls"], 0)
        self.assertGreater(cli["model_selection.select.fits"], 0)
        self.assertGreater(cli["signals.load_dataset.bytes"], 0)

    def test_install_repoints_every_import_site_and_uninstall_restores(self):
        originals = [getattr(sys.modules[mod], attr) for mod, attr, _, _ in tracer.TRACED]
        sites = [tracer.import_sites(fn) for fn in originals]
        gram_modules = {m.__name__ for m, _ in sites[0]}
        self.assertTrue({"emgadapt.kernels", "emgadapt.lssvm", "emgadapt.mkal",
                         "emgadapt.multi_adapt"} <= gram_modules)
        t = tracer.Tracer()
        t.install()
        try:
            for fn, fn_sites in zip(originals, sites):
                self.assertEqual(tracer.import_sites(fn), [])
                for module, attr in fn_sites:
                    self.assertIs(getattr(module, attr).__wrapped__, fn)
        finally:
            t.uninstall()
        for fn, fn_sites in zip(originals, sites):
            for module, attr in fn_sites:
                self.assertIs(getattr(module, attr), fn)

    def test_output_check_rejects_altered_files(self):
        w = TINY["cohort-ai-small"]
        inputs = w.setup(self.work / "check", 5)
        out = self.work / "check-out"
        w.run(inputs, out)
        good = w.check(inputs, out)
        self.assertTrue(all(g.ok for g in good.groups.values()))
        ref = run.Reference("selftest-check", 5)
        self.assertEqual(ref.failed_ops(good.groups, w.ops(inputs)), 0)

        conf = out / "confusion_MA_16.csv"
        lines = conf.read_text().splitlines()
        lines[1] = lines[1].rsplit(",", 1)[0] + "," + str(int(lines[1].rsplit(",", 1)[1]) + 1)
        conf.write_text("\n".join(lines) + "\n")
        self.assertFalse(w.check(inputs, out).groups["MA_16"].ok)

        altered = dict(good.groups)
        altered["MA_24"] = dataclasses.replace(good.groups["MA_24"], digest="0")
        self.assertEqual(ref.failed_ops(altered, w.ops(inputs)), w.seeds)

    def test_input_check_rejects_altered_feature_files(self):
        w = TINY["cli-ai-large"]
        ref = run.Reference("selftest-inputs", 5)
        first = w.check_inputs(w.setup(self.work / "inputs0", 5))
        self.assertEqual(len(first), w.input_ops)
        self.assertEqual(ref.failed_ops(first, w.input_ops, prefix="input:"), 0)
        feats, seed = w.setup(self.work / "inputs1", 5)
        self.assertEqual(w.check_inputs((feats, seed)), first)

        split = sorted(first)[0]
        csv = feats / f"{split}.csv"
        lines = csv.read_text().splitlines()
        csv.write_text("\n".join(lines[:-1]) + "\n")  # one row short of the manifest
        self.assertFalse(w.check_inputs((feats, seed))[split].ok)
        csv.write_text("\n".join([*lines[:-1], lines[-1].replace("1", "2", 1)]) + "\n")
        changed = w.check_inputs((feats, seed))
        self.assertTrue(changed[split].ok)
        self.assertEqual(ref.failed_ops(changed, w.input_ops, prefix="input:"), 1)

if __name__ == "__main__":
    unittest.main()
