"""The benchmark's own tests (about two minutes):

    python3 perfbench/selftest.py

The same seed gives identical inputs and, in separate processes, identical
outputs; another seed gives other inputs; tracing changes no output (every
traced run compares its traced passes with untraced ones); every printed
metric name and unit matches BENCHMARK.json.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 20260809


def _metrics(spec_key):
    return [(m["name"], m["unit"]) for m in SPEC[spec_key]]


def _worker(workload, seed, seconds, trace):
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), workload,
                           str(seed), str(seconds), "1" if trace else "0"],
                          stdout=subprocess.PIPE, text=True, check=True, cwd=ROOT)
    return json.loads(proc.stdout.splitlines()[-1])


def _run(workload, trace):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
                          stdout=subprocess.PIPE, text=True, check=True, cwd=ROOT)
    lines = proc.stdout.splitlines()
    return lines[-2], json.loads(lines[-1])


class Inputs(unittest.TestCase):
    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        for w in workloads.WORKLOADS:
            with self.subTest(workload=w):
                self.assertEqual(workloads.make_inputs(w, SEED), workloads.make_inputs(w, SEED))
                self.assertNotEqual(workloads.make_inputs(w, SEED),
                                    workloads.make_inputs(w, SEED + 1))


class MetricNames(unittest.TestCase):
    def test_declared_metrics_match_benchmark_json(self):
        self.assertEqual(list(run.END_TO_END), _metrics("end_to_end"))
        self.assertEqual(list(tracing.PER_LAYER), _metrics("per_layer"))
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual(run.WORKLOADS, workloads.WORKLOADS)

    def test_printed_metrics_match_benchmark_json(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            _summary, result = _run("flows", trace)
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertEqual([(k, v["unit"]) for k, v in result["metrics"].items()],
                             _metrics(key))


class Outputs(unittest.TestCase):
    def test_deterministic_and_unchanged_by_tracing(self):
        for w in workloads.WORKLOADS:
            with self.subTest(workload=w):
                first, second = _worker(w, SEED, 1, True), _worker(w, SEED, 1, True)
                for r in (first, second):
                    self.assertEqual(r["failed"], 0)
                    self.assertTrue(r["consistent"], "traced outputs differ from untraced")
                self.assertEqual(first["inputs_digest"], second["inputs_digest"])
                self.assertEqual(first["digest"], second["digest"])
                other = _worker(w, SEED + 1, 0, False)  # set-up only
                self.assertNotEqual(other["inputs_digest"], first["inputs_digest"])


if __name__ == "__main__":
    unittest.main()
