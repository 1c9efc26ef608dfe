#!/usr/bin/env python3
"""The repository benchmark: one command per workload run.

    python3 perfbench/run.py --workload join_ingest --seed 1 --seconds 25 \
        --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. The first run builds the library and the
perfbench measuring program from source into .bench_build/ (CMake,
Release); later runs rebuild incrementally. Each run prints the machine and
build context, every metric by name with its unit, the output checks, and
as its last line one JSON object {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are the end-to-end ones; with
--trace 1 they are the per-layer ones and the spans go to
.bench_out/trace-<workload>-<seed>.jsonl. A failed output check makes the
exit code 1.

--self-test runs every workload at a tiny scale, asserts that each metric
is emitted with its unit and that the trace file has the span fields, and
asserts that every output check rejects a deliberately perturbed expected
answer.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170
SPAN_FIELDS = ("name", "start", "end", "parent", "trace_id")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once, then builds incrementally. Serialized by a lock so
    concurrent runs in one checkout never build over each other."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found at %s/src" % ROOT)
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                      "-j", "3"])
        with open(log_path, "w") as log:
            for step in steps:
                if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT,
                                   cwd=ROOT) != 0:
                    with open(log_path) as f:
                        sys.stderr.write(f.read()[-4000:])
                    fail("build failed: " + " ".join(step))


def source_digest():
    """SHA-256 over the library and benchmark sources: identifies the code
    measured when the checkout is not a git repository."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def code_identity():
    """The git commit, or a digest of the sources outside a git checkout."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            return {"git_commit": subprocess.check_output(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                stderr=subprocess.DEVNULL, text=True).strip()}
        except (OSError, subprocess.CalledProcessError):
            pass
    return {"git_commit": "none (not a git checkout)",
            "source_digest": source_digest()}


def load_json(name):
    with open(os.path.join(ROOT, name)) as f:
        return json.load(f)


def declared_metrics():
    """{"end_to_end": {name: unit}, "per_layer": {name: unit}} from
    BENCHMARK.json."""
    spec = load_json("BENCHMARK.json")
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def contract_metrics(values, trace):
    """Gives the measured {name: value} of one run the units BENCHMARK.json
    declares. Returns (metrics, unmeasured, unknown): every declared metric
    of the run's kind with its unit, a per-layer one the workload does not
    measure reading 0; the declared names not measured; and measured names
    BENCHMARK.json does not declare."""
    declared = declared_metrics()["per_layer" if trace else "end_to_end"]
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
               for name, unit in declared.items()}
    unmeasured = sorted(set(declared) - set(values))
    unknown = sorted(set(values) - set(declared))
    return metrics, unmeasured, unknown


def layers_expected(workload):
    """The per-layer metrics metric_map.json says a workload exercises."""
    layer_map = load_json("perfbench/metric_map.json")["per_layer"]
    return sorted(n for n, m in layer_map.items() if workload in m["on"])


def measure(workload, seed, seconds, trace, extra=()):
    """Runs the measuring program once; returns (exit code, result or
    None)."""
    os.makedirs(OUT_DIR, exist_ok=True)
    command = [BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--work-dir", os.path.relpath(OUT_DIR, ROOT)]
    if trace:
        command += ["--trace-file", os.path.relpath(
            trace_path(workload, seed), ROOT)]
    command += list(extra)
    try:
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    sys.stderr.write(proc.stderr[-4000:])
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return proc.returncode, None
    try:
        return proc.returncode, json.loads(lines[-1])
    except json.JSONDecodeError:
        return proc.returncode, None


def trace_path(workload, seed):
    return os.path.join(OUT_DIR, "trace-%s-%s.jsonl" % (workload, seed))


def report(result, trace, unmeasured):
    context = dict(result["context"], **code_identity())
    print("context: " + json.dumps(context, sort_keys=True))
    if context["build_type"] != "Release" or not context["ndebug"]:
        print("WARNING: non-Release build; compare only like with like")
    notes = result["notes"]
    for name, metric in sorted(result["metrics"].items()):
        if name in unmeasured:
            continue
        line = "%-34s %16.6g %s" % (name, metric["value"], metric["unit"])
        if name == "answer_tail_us":
            line += "  (p%.4g of %d answer calls)" % (
                notes["answer_tail_percentile"], notes["answer_samples"])
        print(line)
    if unmeasured:
        print("not exercised by %s, reported as 0: %s" % (
            result["workload"], ", ".join(unmeasured)))
    if notes.get("uncorrected"):
        print("host probe median %.4g ms; the ingest, answer and wall "
              "timings above are corrected to its reference speed; as "
              "measured: %s" % (
                  notes["host_probe_ms"], ", ".join(
                      "%s %.6g" % item
                      for item in sorted(notes["uncorrected"].items()))))
    failed_checks = [c for c in result["checks"] if not c["ok"]]
    print("checks: %d run, %d failed; %d repetitions" % (
        len(result["checks"]), len(failed_checks), notes["repetitions"]))
    for check in failed_checks:
        print("FAILED CHECK %s: %s" % (check["name"], check["detail"]))
    if notes["first_error"]:
        print("first failed call: " + notes["first_error"])
    if trace:
        print("spans: " + os.path.relpath(
            trace_path(result["workload"], result["seed"]), ROOT))
    with open(os.path.join(OUT_DIR, "result-%s-%s-trace%d.json" % (
            result["workload"], result["seed"], trace)), "w") as f:
        json.dump(dict(result, context=context), f, indent=1, sort_keys=True)


def run_once(args):
    build()
    code, result = measure(args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        fail("%s produced no result (exit code %d)" % (args.workload, code))
    result["seed"] = args.seed
    result["metrics"], unmeasured, unknown = contract_metrics(
        result["metrics"], args.trace)
    if unknown:
        fail("measured metrics BENCHMARK.json does not declare: %s" % unknown)
    if not args.trace and unmeasured:
        fail("end-to-end metrics not measured: %s" % unmeasured)
    report(result, args.trace, unmeasured)
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    return 0 if result["correct"] and code == 0 else 1


def self_test():
    build()
    problems = []
    failing_checks = []
    for workload in [w["name"] for w in load_json("BENCHMARK.json")[
            "workloads"]]:
        for trace in (0, 1):
            code, result = measure(workload, 1, 0.05, trace, ["--tiny"])
            label = "%s trace=%d" % (workload, trace)
            if result is None:
                problems.append("%s: no result (exit %d)" % (label, code))
                continue
            metrics, unmeasured, unknown = contract_metrics(
                result["metrics"], trace)
            missing = (unmeasured if not trace else sorted(
                set(unmeasured) & set(layers_expected(workload))))
            if missing or unknown:
                problems.append("%s: not measured %s; undeclared %s" % (
                    label, missing, unknown))
            if any(not m["unit"] or not isinstance(m["value"], (int, float))
                   for m in metrics.values()):
                problems.append("%s: a metric lacks a value or unit" % label)
            if not result["correct"] or code != 0:
                failing_checks.append("%s: %s" % (label, "; ".join(
                    c["name"] + ": " + c["detail"]
                    for c in result["checks"] if not c["ok"])))
            if trace:
                with open(trace_path(workload, 1)) as f:
                    spans = [json.loads(line) for line in f]
                if not spans or any(
                        any(k not in s for k in SPAN_FIELDS) for s in spans):
                    problems.append("%s: span file lacks %s" % (
                        label, SPAN_FIELDS))
            print("%-28s %d metrics measured, correct=%s" % (
                label, len(result["metrics"]), result["correct"]))
        code, result = measure(workload, 1, 0.05, 0, ["--tiny", "--perturb"])
        rejected = result is not None and not result["correct"] and code != 0
        print("%-28s perturbed expected answer rejected=%s" % (
            workload, rejected))
        if not rejected:
            problems.append(workload + ": perturbed expected answer accepted")
    for line in failing_checks:
        print("OUTPUT CHECK FAILED " + line)
    for line in problems:
        print("SELF-TEST PROBLEM " + line)
    ok = not problems and not failing_checks
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.workload:
        parser.error("--workload is required")
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
