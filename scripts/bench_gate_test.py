#!/usr/bin/env python3
"""Self-test of scripts/bench_gate.py against fixture result files.

Runs the gate as a program over the repository's BENCH_core.json and result
files written to a temp directory: the pinned micro_core names as
google-benchmark JSON, every other pinned name in one of two flat objects.
Standard library only; run it directly (it exits non-zero on failure) or as
the ctest bench_gate_selftest.
"""

import json
import math
import pathlib
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = pathlib.Path(__file__).resolve().parent.parent
GATE = ROOT / "scripts" / "bench_gate.py"
BASELINE = ROOT / "BENCH_core.json"
MICRO_SUFFIX = "_items_per_s"


def at_least(pin, fraction):
    """The smallest rate whose ratio to `pin` is >= `fraction`."""
    value = pin * fraction
    while value / pin < fraction:
        value = math.nextafter(value, math.inf)
    return value


class GateTest(unittest.TestCase):
    def setUp(self):
        self.tmp = pathlib.Path(tempfile.mkdtemp(prefix="bench-gate-test-"))
        self.addCleanup(shutil.rmtree, self.tmp)
        self.baseline = json.loads(BASELINE.read_text())
        self.pins = {
            name: pinned["baseline"]
            for name, pinned in self.baseline["metrics"].items()
        }
        self.floor = self.baseline["floor_fraction"]

    def write(self, name, doc):
        path = self.tmp / name
        path.write_text(json.dumps(doc))
        return path

    def write_results(self, rates):
        """Splits `rates` over a google-benchmark file and two flat ones.

        Both flat files carry the unpinned "captures", which the gate must
        ignore.
        """
        micro = {"context": {}, "benchmarks": []}
        flat = [{"captures": 1.0}, {"captures": 2.0}]
        for i, (name, rate) in enumerate(sorted(rates.items())):
            if name.startswith("BM_"):
                run = name[: -len(MICRO_SUFFIX)]
                micro["benchmarks"].append({
                    "name": f"{run}_median", "run_name": run,
                    "run_type": "aggregate", "aggregate_name": "median",
                    "items_per_second": rate,
                })
            else:
                flat[i % 2][name] = rate
        return [self.write("micro_core.json", micro),
                self.write("a.json", flat[0]),
                self.write("b.json", flat[1])]

    def gate(self, results, *extra, baseline=BASELINE):
        out = self.tmp / "artifact.json"
        proc = subprocess.run(
            [sys.executable, str(GATE), "--baseline", str(baseline),
             "--out", str(out), *extra, *map(str, results)],
            capture_output=True, text=True)
        artifact = json.loads(out.read_text()) if out.exists() else None
        return proc, artifact

    def test_every_metric_at_the_floor_passes(self):
        rates = {n: at_least(p, self.floor) for n, p in self.pins.items()}
        proc, artifact = self.gate(self.write_results(rates))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertEqual(set(artifact["metrics"]), set(self.pins))
        for name, metric in artifact["metrics"].items():
            self.assertEqual(metric["current"], rates[name], name)
            self.assertEqual(metric["baseline"], self.pins[name], name)
        self.assertEqual(artifact["floor_fraction"], self.floor)

    def test_one_metric_below_the_floor_fails_by_name(self):
        rates = dict(self.pins)
        rates["store_encode_samples_per_s"] *= 0.69
        proc, artifact = self.gate(self.write_results(rates))
        self.assertEqual(proc.returncode, 1)
        self.assertIn("store_encode_samples_per_s:", proc.stderr)
        self.assertEqual(proc.stderr.count("x of the pinned"), 1, proc.stderr)
        self.assertEqual(
            artifact["metrics"]["store_encode_samples_per_s"]["current"],
            rates["store_encode_samples_per_s"])

    def test_missing_pinned_name_fails_by_name(self):
        rates = dict(self.pins)
        del rates["flame_spans_per_s"]
        proc, artifact = self.gate(self.write_results(rates))
        self.assertEqual(proc.returncode, 1)
        self.assertIn("flame_spans_per_s: no measurement produced",
                      proc.stderr)
        self.assertIsNone(artifact["metrics"]["flame_spans_per_s"]["current"])

    def test_pinned_name_in_two_files_fails_by_name(self):
        results = self.write_results(dict(self.pins))
        results.append(self.write(
            "again.json",
            {"rollup_captures_per_s": self.pins["rollup_captures_per_s"]}))
        proc, _ = self.gate(results)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("rollup_captures_per_s: found in 2 result files",
                      proc.stderr)

    def test_google_benchmark_input(self):
        # Medians win over means and stddevs; a repetition-less entry is
        # taken as it is; entries without items_per_second are skipped.
        rates = dict(self.pins)
        results = self.write_results(rates)
        dispatch = "BM_SimulatorEventDispatch/1000"
        synth = "BM_MonsoonCaptureSynthesis/10"
        missing = "BM_MonsoonCaptureSynthesis/60"
        micro = json.loads(results[0].read_text())
        micro["benchmarks"] = [
            e for e in micro["benchmarks"]
            if e["run_name"] not in (synth, missing)
        ]
        pin = self.pins[dispatch + MICRO_SUFFIX]
        for aggregate, rate in (("mean", 0.1 * pin), ("stddev", 0.01 * pin)):
            micro["benchmarks"].append({
                "name": f"{dispatch}_{aggregate}", "run_name": dispatch,
                "run_type": "aggregate", "aggregate_name": aggregate,
                "items_per_second": rate,
            })
        micro["benchmarks"].append({
            "name": synth, "run_name": synth, "run_type": "iteration",
            "items_per_second": 1.5 * self.pins[synth + MICRO_SUFFIX],
        })
        micro["benchmarks"].append({
            "name": f"{missing}_median", "run_name": missing,
            "run_type": "aggregate", "aggregate_name": "median",
        })
        micro["benchmarks"].append({
            "name": "BM_CdfQuantiles", "run_name": "BM_CdfQuantiles",
            "run_type": "iteration", "real_time": 1.0,
        })
        results[0].write_text(json.dumps(micro))
        proc, artifact = self.gate(results)
        self.assertEqual(proc.returncode, 1)
        self.assertEqual(
            proc.stderr.strip().splitlines()[1:],
            [f"  {missing}{MICRO_SUFFIX}: no measurement produced"])
        metrics = artifact["metrics"]
        self.assertEqual(metrics[dispatch + MICRO_SUFFIX]["current"], pin)
        self.assertEqual(metrics[synth + MICRO_SUFFIX]["current"],
                         1.5 * self.pins[synth + MICRO_SUFFIX])

    def test_repin_refused_when_a_requirement_is_short(self):
        baseline = self.tmp / "BENCH_core.json"
        shutil.copyfile(BASELINE, baseline)
        before = baseline.read_bytes()
        rates = {name: 1.7 * pin for name, pin in self.pins.items()}
        proc, _ = self.gate(
            self.write_results(rates), "--repin",
            "--require", "store_synth_samples_per_s=1.8",
            baseline=baseline)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("re-pin REFUSED", proc.stderr)
        self.assertIn("store_synth_samples_per_s:", proc.stderr)
        self.assertEqual(baseline.read_bytes(), before)

    def test_repin_rounds_the_new_pins_and_keeps_the_old_as_pre_pr(self):
        baseline = self.tmp / "BENCH_core.json"
        shutil.copyfile(BASELINE, baseline)
        rates = {name: 2.0246912 * pin for name, pin in self.pins.items()}
        proc, _ = self.gate(
            self.write_results(rates), "--repin",
            "--require", "store_synth_samples_per_s=1.8",
            "--note", "fixture re-pin", baseline=baseline)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        repinned = json.loads(baseline.read_text())
        self.assertEqual(repinned["note"], "fixture re-pin")
        self.assertEqual(repinned["floor_fraction"], self.floor)
        self.assertEqual(set(repinned["metrics"]), set(self.pins))
        for name, metric in repinned["metrics"].items():
            self.assertEqual(metric["pre_pr"], self.pins[name], name)
            self.assertEqual(metric["baseline"], float(f"{rates[name]:.3g}"),
                             name)


if __name__ == "__main__":
    unittest.main()
