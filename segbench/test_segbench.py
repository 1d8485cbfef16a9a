#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 segbench/test_segbench.py

Runs segbench at a small size (n = 16384, short phases) through run.py:
exact counts repeat for one seed, a second seed changes the inputs, a
traced run answers and counts exactly like an untraced one, the telemetry
validator rejects malformed records, and run.py refuses to run where there
are no sources. Takes about a minute (the first call also builds).
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # keep segbench/ free of __pycache__
import run  # noqa: E402  (segbench/run.py)

SMALL = ["--seconds", "0.5", "--n", "16384", "--probe-ops", "150",
         "--cold-queries", "200"]
COUNT_METRICS = ("cold_ios_mean", "space_bytes_per_segment",
                 "write_bytes_per_mutation")


def bench(workload, seed, trace=0):
    """Runs run.py; returns (result line, full report)."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace)] + SMALL,
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        check=False)
    if done.returncode != 0:
        raise AssertionError("run.py failed:\n" + done.stderr[-3000:])
    result = json.loads(done.stdout.strip().splitlines()[-1])
    with open(os.path.join(run.REPORT_DIR, "%s-seed%d-trace%d.json"
                           % (workload, seed, trace))) as f:
        report = json.load(f)
    return result, report


def values(report, names):
    by_name = {m["name"]: m["value"] for m in report["metrics"]}
    return {name: by_name[name] for name in names}


class SegbenchTest(unittest.TestCase):

    def test_result_line_follows_the_contract(self):
        result, report = bench("read_warm", 5)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"], report["errors"])
        self.assertGreaterEqual(result["attempted"], 1)
        end_to_end, _ = run.metric_lists()
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in end_to_end})
        for m in end_to_end:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
        for key in ("nproc", "cpu_model", "build_type", "engine_name",
                    "direct_io", "data_fs", "pool_frames", "tier_bytes"):
            self.assertIn(key, report["context"])
        self.assertEqual(report["seed"], 5)

    def test_counts_repeat_exactly_for_one_seed(self):
        for workload in ("read_warm", "read_cold"):
            _, first = bench(workload, 7)
            _, second = bench(workload, 7)
            self.assertEqual(first["exact"], second["exact"], workload)
            self.assertEqual(values(first, COUNT_METRICS),
                             values(second, COUNT_METRICS), workload)

    def test_second_seed_changes_inputs(self):
        _, a = bench("read_cold", 7)
        _, b = bench("read_cold", 8)
        self.assertNotEqual(a["exact"]["inputs"], b["exact"]["inputs"])
        self.assertNotEqual(a["exact"]["cold_answers"],
                            b["exact"]["cold_answers"])

    def test_traced_run_answers_and_counts_like_untraced(self):
        for workload in ("read_warm", "read_cold"):
            plain_result, plain = bench(workload, 9, trace=0)
            traced_result, traced = bench(workload, 9, trace=1)
            self.assertTrue(plain_result["correct"])
            self.assertTrue(traced_result["correct"], traced["errors"])
            self.assertEqual(plain["exact"], traced["exact"], workload)
            _, per_layer = run.metric_lists()
            self.assertEqual(set(traced_result["metrics"]),
                             {m["name"] for m in per_layer})
            summary = traced["trace_summary"]
            self.assertGreater(summary["spans"], 0)
            # Self times are summed from spans, client times from clocks
            # read outside them: the spans cover what the clients saw.
            for self_us, client_us in (
                    (sum(summary["self_us"].values()), summary["client_us"]),
                    (summary["probe_self_us"], summary["probe_client_us"])):
                self.assertLessEqual(self_us, client_us)
                self.assertGreater(self_us, 0.99 * client_us)

    def test_validator_rejects_malformed_records(self):
        good = {"metrics": [
            {"name": "query_p50_us", "value": 5.0, "unit": "us",
             "kind": "time", "samples": 100, "beyond": 50, "max": 9.0},
            {"name": "query_p99_us", "value": 8.0, "unit": "us",
             "kind": "time", "samples": 100, "beyond": 1, "max": 9.0},
            {"name": "cold_ios_mean", "value": 6.08, "unit": "pages/query",
             "kind": "count"},
            {"name": "cold_ios_max", "value": 7, "unit": "pages/query",
             "kind": "count"},
        ]}
        self.assertEqual(run.validate(good, []), [])

        def broken(index, **change):
            report = json.loads(json.dumps(good))
            report["metrics"][index].update(change)
            return run.validate(report, [])

        self.assertTrue(broken(3, value=0))            # max below mean
        self.assertTrue(broken(0, value=8.5))          # p50 above p99
        self.assertTrue(broken(1, value=9.5))          # p99 above max
        self.assertTrue(broken(2, unit="us"))          # count in a time unit
        self.assertTrue(broken(0, kind="count"))       # time field, count
        self.assertTrue(broken(2, unit=""))            # no unit
        missing = run.validate(good, [{"name": "setup_s", "unit": "s"}])
        self.assertTrue(missing)

    def test_refuses_without_sources(self):
        bare = os.path.join(run.ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "segbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "segbench/run.py", "--workload", "read_warm",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=180, check=False)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
