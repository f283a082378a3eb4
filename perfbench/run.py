#!/usr/bin/env python3
"""Repo benchmark: one command for every workload, metric and check.

Run from the repository root:

    python3 perfbench/run.py --workload bird_serve --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke      # every workload, both modes, tiny

The first call builds the library and the harness (perfbench/CMakeLists.txt)
into .bench_build/perfbench. Each call runs one workload in its own process
and prints, as the last line of stdout, one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the end-to-end
metrics declared in BENCHMARK.json; --trace 1 reports the per-layer ones and
writes the span log to .bench_work/. The line before it records the run
conditions. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("spider_eval", "bird_serve", "fleet_churn")
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def work_dir():
    path = os.path.join(ROOT, ".bench_work")
    os.makedirs(path, exist_ok=True)
    return path


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def build():
    """Configures (once) and builds the harness; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("library sources (src/) not found next to perfbench/")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))

    def step(cmd):
        # Build output goes to stderr: stdout carries only the result.
        return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr).returncode == 0

    def configure():
        return step(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])

    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        if not configure():
            raise BenchError("cmake configure failed")
    cmd = ["cmake", "--build", out, "--target", "codes_perfbench", "-j", jobs]
    if not step(cmd):
        # A stale cache (e.g. a moved checkout): reconfigure once.
        subprocess.run(["rm", "-rf", out], check=False)
        if not configure() or not step(cmd):
            raise BenchError("build failed")
    return os.path.join(out, "codes_perfbench")


def run_harness(binary, workload, seed, seconds, trace, smoke):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        cmd += ["--trace-out", os.path.join(
            work_dir(), "trace-%s-%d.jsonl" % (workload, seed))]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
    if proc.returncode != 0:
        raise BenchError("%s exited with %d" % (workload, proc.returncode))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("%s printed no report" % workload)
    return json.loads(lines[-1])


def declared_metrics(spec, trace):
    return spec["per_layer"] if trace else spec["end_to_end"]


def metric_problems(report, spec, trace):
    """Every declared metric is emitted with its declared unit, and nothing
    undeclared is emitted."""
    problems = []
    emitted = report["metrics"]
    declared = declared_metrics(spec, trace)
    names = {m["name"] for m in declared}
    for m in declared:
        got = emitted.get(m["name"])
        if got is None:
            problems.append("missing metric %s" % m["name"])
        elif got["unit"] != m["unit"]:
            problems.append("metric %s has unit %s, declared %s"
                            % (m["name"], got["unit"], m["unit"]))
    for name in emitted:
        if name not in names:
            problems.append("undeclared metric %s" % name)
    return problems


def build_id(binary):
    with open(binary, "rb") as f:
        return hashlib.sha1(f.read()).hexdigest()[:16]


def repeat_problems(report, binary, smoke):
    """ex_pct, ts_pct and the served-SQL digest must be identical across
    runs of one build, workload and seed (either mode: both serve the same
    first pass). The first such run records them."""
    records = os.path.join(work_dir(), "records", build_id(binary))
    os.makedirs(records, exist_ok=True)
    key = "%s-%d%s" % (report["workload"], report["seed"],
                       "-smoke" if smoke else "")
    path = os.path.join(records, key + ".json")
    mine = {k: report[k] for k in ("digest", "ex_pct", "ts_pct")}
    if os.path.isfile(path):
        with open(path, encoding="utf-8") as f:
            first = json.load(f)
        return ["%s differs from an earlier run of this seed (%s vs %s)"
                % (k, mine[k], first[k]) for k in mine if mine[k] != first[k]]
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        json.dump(mine, f)
    os.replace(tmp, path)
    return []


def result_line(report, spec, trace, correct):
    metrics = {m["name"]: report["metrics"][m["name"]]
               for m in declared_metrics(spec, trace)}
    return json.dumps({"correct": correct, "attempted": report["attempted"],
                       "failed": report["failed"], "metrics": metrics})


def run_one(args, spec):
    binary = build()
    report = run_harness(binary, args.workload, args.seed, args.seconds,
                         args.trace, smoke=False)
    problems = metric_problems(report, spec, args.trace)
    if problems:
        raise BenchError("; ".join(problems))
    failed_checks = [k for k, ok in report["checks"].items() if not ok]
    failed_checks += repeat_problems(report, binary, smoke=False)
    for problem in failed_checks:
        print("check failed: %s" % problem, file=sys.stderr)
    correct = report["correct"] and not failed_checks
    print(json.dumps({"workload": report["workload"], "seed": report["seed"],
                      "trace": report["trace"], "checks": report["checks"],
                      "conditions": report["conditions"],
                      "ex_pct": report["ex_pct"], "ts_pct": report["ts_pct"],
                      "digest": report["digest"]}))
    print(result_line(report, spec, args.trace, correct))
    return 0 if correct else 1


def run_smoke(spec):
    """Each workload for a few requests, in both modes: every declared
    metric is emitted with its unit and every check passes."""
    binary = build()
    declared = {w["name"] for w in spec["workloads"]}
    if declared != set(WORKLOADS):
        raise BenchError("BENCHMARK.json workloads %s != %s"
                         % (sorted(declared), sorted(WORKLOADS)))
    failures = []
    for workload in WORKLOADS:
        for trace in (False, True):
            start = time.monotonic()
            report = run_harness(binary, workload, 1, 1, trace, smoke=True)
            problems = metric_problems(report, spec, trace)
            problems += [k for k, ok in report["checks"].items() if not ok]
            problems += repeat_problems(report, binary, smoke=True)
            if not report["correct"]:
                problems.append("report marked incorrect")
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print("smoke %-12s trace=%d %5.1fs %s"
                  % (workload, trace, time.monotonic() - start, status))
            failures += problems
    return 0 if not failures else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload briefly in both modes")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not 1 <= args.seconds <= 600:
        parser.error("--seconds must be in [1, 600]")
    if not args.smoke and args.workload is None:
        parser.error("--workload is required (or --smoke)")
    args.trace = bool(args.trace)
    try:
        spec = load_spec()
        return run_smoke(spec) if args.smoke else run_one(args, spec)
    except (BenchError, OSError, ValueError, KeyError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
