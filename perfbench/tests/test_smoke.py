"""Smoke check of the benchmark: every metric it promises is printed.

    python3 -m unittest discover -s perfbench/tests -v

Runs every workload once per mode for one second and checks that the result
line names exactly the metrics of BENCHMARK.json, which in turn must be the
metrics listed below. Also checks that a directory without the program's
sources fails without printing a result. Takes about two minutes.
"""

import json
import pathlib
import shutil
import subprocess
import sys
import unittest

ROOT = pathlib.Path(__file__).resolve().parents[2]

END_TO_END = [
    "events_per_cpu_s", "slide_p50_us", "slide_p99_us", "alloc_bytes_per_event",
    "avg_candidates", "state_model_kb", "state_serialized_kb", "setup_s",
    "batch_p50_ms", "batch_p90_ms", "spark_events_per_s",
]
PER_LAYER = [
    "sap.plain_slide_us", "sap.unit_slide_us", "sap.unit_slide_cpu_share", "sap.partitions_live",
    "scoretree.topk_offer_ns", "scoretree.insert_ns", "scoretree.delete_ns",
    "scoretree.desc_walk_ns", "scoretree.alloc_bytes_per_op",
    "wrt.evaluate_us", "partitioner.join_us", "partitioner.join_accept_ratio",
    "tbui.on_object_ns", "tbui.complete_unit_us", "tbui.k_unit_share",
    "meaningful.savl_insert_ns", "meaningful.savl_admit_ratio",
    "meaningful.savl_collect_top_us", "meaningful.savl_expire_us", "ring.at_ns",
    "spark.state_ser_ms", "spark.state_deser_ms", "spark.state_bytes",
    "spark.algo_ms_per_batch", "spark.overhead_ms_per_batch",
    "driver.metric_sample_us", "driver.slide_copy_ns", "driver.trace_overhead_ratio",
    "verify.windows_checked",
]
WORKLOADS = ["regular_stock", "highspeed_stock", "highspeed_timer"]


def run(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", trace]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=900)


class Smoke(unittest.TestCase):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_spec_names_the_metrics_and_workloads(self):
        self.assertEqual([m["name"] for m in self.spec["end_to_end"]], END_TO_END)
        self.assertEqual([m["name"] for m in self.spec["per_layer"]], PER_LAYER)
        self.assertEqual([w["name"] for w in self.spec["workloads"]], WORKLOADS)

    def test_every_metric_is_printed(self):
        for workload in WORKLOADS:
            for trace, names in (("0", END_TO_END), ("1", PER_LAYER)):
                with self.subTest(workload=workload, trace=trace):
                    done = run(ROOT, workload, trace)
                    self.assertEqual(done.returncode, 0)
                    result = json.loads(done.stdout.strip().splitlines()[-1])
                    self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(sorted(result["metrics"]), sorted(names))
                    for name, metric in result["metrics"].items():
                        self.assertIsInstance(metric["value"], (int, float), name)

    def test_fails_without_program_sources(self):
        bare = ROOT / ".bench_build" / "smoke-bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            done = run(bare, "regular_stock", "0")
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
