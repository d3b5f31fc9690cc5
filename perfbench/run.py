#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Builds `perfbench` (a cargo package of its own) in release mode into
`$CARGO_TARGET_DIR` (default `.bench_build` at the repository root), runs
the benchmark binary for one workload, and measures peak resident memory
from outside (`wait4`) on a separate fresh process that sets up and runs
one problem of the workload. The last line of standard output
is one JSON object: `correct`, `attempted`, `failed` and `metrics`, where
`metrics` holds every end-to-end metric of BENCHMARK.json (`--trace 0`) or
every per-layer metric (`--trace 1`). `--workload all` runs every workload
in turn and prints one combined object with workload-prefixed names.

The exit code is non-zero when the build fails, any run fails its
correctness checks, or the metric set differs from BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within 180 s; stop a runaway binary before that.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def build(target):
    manifest = os.path.join(HERE, "Cargo.toml")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    except OSError as e:
        fail(f"cannot run cargo: {e}")
    if done.returncode != 0:
        fail("build failed")
    return os.path.join(target, "release", "ag-perfbench")


def spawn(cmd):
    """Runs `cmd`; returns (stdout lines, exit code, peak RSS in KiB)."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        # wait4 reports this child's own peak resident set size (KiB).
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        watchdog.cancel()
    return out.rstrip("\n").split("\n"), proc.returncode, usage.ru_maxrss


def parse_result(lines, code, what):
    try:
        return json.loads(lines[-1])
    except ValueError:
        fail(f"{what}: no result line (exit code {code})")


def run_workload(binary, args, workload, target):
    """Runs one workload; returns (result dict, exit code)."""
    cmd = [
        binary,
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    probe = None
    if args.trace:
        trace_dir = os.path.join(target, "perfbench-traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(trace_dir, f"{workload}-seed{args.seed}.jsonl")]
    else:
        # Peak memory comes from a fresh process that sets up and runs one
        # problem, so it does not depend on how many samples a run took.
        lines, code, rss_kib = spawn(cmd + ["--once", "1"])
        probe = parse_result(lines, code, f"{workload} memory probe")
        if code != 0:
            print("\n".join(lines[:-1]))
    lines, code, _ = spawn(cmd)
    for line in lines[:-1]:
        print(line)
    result = parse_result(lines, code, workload)
    if probe is not None:
        result["attempted"] += probe["attempted"]
        result["failed"] += probe["failed"]
        result["correct"] = result["correct"] and probe["correct"]
        result["metrics"]["peak_rss_mib"] = {"value": rss_kib / 1024.0, "unit": "MiB"}
        code = code or (0 if probe["correct"] else 1)
    return result, code


def check_metrics(spec, result, trace, workload):
    section = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in section}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if want != got:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        fail(f"{workload}: metrics differ from BENCHMARK.json (missing {missing}, extra {extra}, or units)")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    for w in workloads:
        if w not in names:
            fail(f"unknown workload {w!r}; known: {', '.join(names)}")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))
    binary = build(target)

    results, code = {}, 0
    for w in workloads:
        result, rc = run_workload(binary, args, w, target)
        check_metrics(spec, result, args.trace, w)
        results[w] = result
        code = code or rc
    if len(workloads) == 1:
        final = results[workloads[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    sys.exit(code or (0 if final["correct"] else 1))


if __name__ == "__main__":
    main()
