#!/usr/bin/env python3
"""Runs one segbench workload and prints the benchmark result line.

    python3 segbench/run.py --workload read_warm --seed 1 --seconds 30 --trace 0

Run from the root of a SegDB checkout. Builds segbench (the library from
src/ plus segbench/*.cc) into .bench_build/segbench, runs one workload,
validates the telemetry of its report, and prints as the last stdout line
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are BENCHMARK.json's end_to_end list, with --trace 1
its per_layer list. The full report (run context, sample counts, flags,
exact counts) is kept in .bench_build/segbench-reports/. See README.md.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "segbench")
DATA_DIR = os.path.join(ROOT, ".bench_build", "segbench-data")
REPORT_DIR = os.path.join(ROOT, ".bench_build", "segbench-reports")
# Compiler and program temporaries stay inside the checkout too.
TMP_DIR = os.path.join(ROOT, ".bench_build", "tmp")
RUN_TIMEOUT_S = 170

TIME_UNITS = {"s", "ms", "us"}
KINDS = {"time", "count", "ratio", "rate", "bytes"}
# A name that says it holds a time: ..._us, ..._us.p50, ..._us_per_x, setup_s.
TIME_NAME = re.compile(r"(^|[._])(us|ms|s)($|[._])")


def fail(message, code=1):
    sys.stderr.write("segbench: %s\n" % message)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no SegDB sources under %s (run from a checkout root)" % ROOT, 2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    os.makedirs(TMP_DIR, exist_ok=True)
    os.environ["TMPDIR"] = TMP_DIR
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=840, check=False)
        if done.returncode != 0:
            fail("build step failed: %s" % " ".join(cmd))
    return os.path.join(BUILD_DIR, "segbench")


def metric_lists():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return bench["end_to_end"], bench["per_layer"]


def percentile_pairs(names):
    """(p50, p99) name pairs drawn from one sample set."""
    pairs = []
    for name in names:
        for lo, hi in (("_p50_", "_p99_"), (".p50", ".p99")):
            if lo in name and name.replace(lo, hi) in names:
                pairs.append((name, name.replace(lo, hi)))
    return pairs


def validate(report, wanted):
    """Telemetry checks; returns a list of problems (empty when clean)."""
    problems = []
    by_name = {m["name"]: m for m in report["metrics"]}
    for m in report["metrics"]:
        name, unit, kind = m["name"], m.get("unit", ""), m.get("kind")
        if not unit:
            problems.append("%s has no unit" % name)
        if kind not in KINDS:
            problems.append("%s has unknown kind %r" % (name, kind))
        says_time = bool(TIME_NAME.search(name.replace("per_s", "")))
        if says_time != (kind == "time") or (unit in TIME_UNITS) != (
                kind == "time"):
            problems.append("%s: name, unit %r and kind %r disagree on "
                            "whether it holds a time" % (name, unit, kind))
        if "samples" in m and not m.get("flagged"):
            if m["value"] > m["max"]:
                problems.append("%s = %r exceeds its max %r"
                                % (name, m["value"], m["max"]))
    for lo, hi in percentile_pairs(by_name):
        a, b = by_name[lo], by_name[hi]
        if a.get("flagged") or b.get("flagged"):
            continue
        if not a["value"] <= b["value"] <= b["max"]:
            problems.append("%s %r <= %s %r <= max %r fails"
                            % (lo, a["value"], hi, b["value"], b["max"]))
    if "cold_ios_max" in by_name and "cold_ios_mean" in by_name:
        if by_name["cold_ios_max"]["value"] < by_name["cold_ios_mean"]["value"]:
            problems.append("cold_ios_max < cold_ios_mean")
    for ratio in ("success_ratio", "error_rate", "pool.hit_ratio"):
        if ratio in by_name and not 0 <= by_name[ratio]["value"] <= 1:
            problems.append("%s outside [0, 1]" % ratio)
    for spec in wanted:
        m = by_name.get(spec["name"])
        if m is None:
            problems.append("%s missing from the report" % spec["name"])
        elif m["unit"] != spec["unit"]:
            problems.append("%s unit %r, BENCHMARK.json says %r"
                            % (spec["name"], m["unit"], spec["unit"]))
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Smaller runs for the benchmark's own tests; the defaults are the
    # benchmark.
    parser.add_argument("--n", type=int)
    parser.add_argument("--probe-ops", type=int)
    parser.add_argument("--cold-queries", type=int)
    args = parser.parse_args()

    binary = build()
    end_to_end, per_layer = metric_lists()
    wanted = per_layer if args.trace else end_to_end
    os.makedirs(DATA_DIR, exist_ok=True)
    os.makedirs(REPORT_DIR, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--data-dir", DATA_DIR]
    for flag in ("n", "probe_ops", "cold_queries"):
        value = getattr(args, flag)
        if value is not None:
            cmd += ["--" + flag.replace("_", "-"), str(value)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, check=False, text=True)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    if done.returncode != 0:
        fail("segbench exited with %d" % done.returncode)
    report = json.loads(done.stdout.strip().splitlines()[-1])

    problems = validate(report, wanted)
    flagged = {}
    metrics = {}
    for spec in wanted:
        m = next((x for x in report["metrics"] if x["name"] == spec["name"]),
                 None)
        if m is None:
            continue
        if m.get("flagged"):
            if spec in end_to_end:
                problems.append("%s not reportable: %s"
                                % (spec["name"], m["flagged"]))
            flagged[spec["name"]] = m["flagged"]
        elif spec in end_to_end and m["value"] == 0:
            problems.append("%s reads 0" % spec["name"])
        metrics[spec["name"]] = {"value": m["value"], "unit": m["unit"]}
    report["flagged"] = flagged
    report["validation"] = problems
    path = os.path.join(REPORT_DIR, "%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w") as f:
        json.dump(report, f, indent=1)
    if problems:
        fail("telemetry validation failed (%s):\n  %s"
             % (path, "\n  ".join(problems)))
    for name, why in sorted(flagged.items()):
        sys.stderr.write("segbench: flagged, not measured here: %s (%s)\n"
                         % (name, why))
    if not report["correct"]:
        sys.stderr.write("segbench: seed %d FAILED its correctness checks: %s\n"
                         % (args.seed, "; ".join(report["errors"])))
    print(json.dumps({"correct": report["correct"],
                      "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": metrics}))
    sys.stdout.flush()
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
