#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: scale-1m, engine-faulted, service-backlog, service-heavy, or
`all` to run the four one after another, each in its own process.

The script builds the `perfbench` package (perfbench/Cargo.toml) in
release mode into $CARGO_TARGET_DIR (default `.bench_build`), runs it, and
relays its output. For one workload, the last line of standard output is
one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`. It is printed only when the run finished and its metric names
match BENCHMARK.json (`end_to_end` with --trace 0, `per_layer` with
--trace 1); otherwise the script exits non-zero. Trace files and scratch
journals go to $CARGO_TARGET_DIR/perfbench.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["scale-1m", "engine-faulted", "service-backlog", "service-heavy"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(msg, code=1):
    print(f"perfbench/run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def expected_metrics(trace):
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(binary, args, env, trace):
    """Runs the benchmark binary; returns (error or None, output lines)."""
    try:
        run = subprocess.run(
            [binary, *args], env=env, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        return f"benchmark run failed: {e}", []
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0:
        return f"benchmark exited with code {run.returncode}", lines
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return f"last line is not a JSON result: {lines[-1]!r}", lines[:-1]
    got, want = set(result.get("metrics", {})), expected_metrics(trace)
    if got != want:
        return (
            "metric names differ from BENCHMARK.json: "
            f"missing {sorted(want - got)}, unexpected {sorted(got - want)}",
            lines[:-1],
        )
    return None, lines


def main():
    args = sys.argv[1:]
    opts = dict(zip(args[::2], args[1::2]))
    trace = opts.get("--trace") == "1"
    os.chdir(ROOT)
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = [
        "cargo", "build", "--release", "--offline", "--locked", "--quiet",
        "--manifest-path", os.path.join("perfbench", "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if built.returncode != 0:
        fail(f"build failed with exit code {built.returncode}")

    binary = os.path.join(target, "release", "perfbench")
    base = [*args, "--out", os.path.join(target, "perfbench")]
    if opts.get("--workload") != "all":
        err, lines = run_one(binary, base, env, trace)
        print("\n".join(lines), flush=True)
        if err:
            fail(err)
        return
    failures = []
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        one = [name if i > 0 and base[i - 1] == "--workload" else a for i, a in enumerate(base)]
        err, lines = run_one(binary, one, env, trace)
        print("\n".join(lines), flush=True)
        if err:
            failures.append(f"{name}: {err}")
    if failures:
        fail("; ".join(failures))


if __name__ == "__main__":
    main()
