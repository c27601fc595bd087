#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of the repository.  The first form builds the
`perfbench` package (release, offline) into `$CARGO_TARGET_DIR`, default
`.bench_build`, then runs one measurement; its last line of standard output
is the JSON result.  Build output goes to standard error.

`--selftest` runs every workload of BENCHMARK.json briefly, traced and
untraced, and fails when a metric named there is missing or has no unit,
when a clean run reports a failure, or when a run with a deliberately
altered reference digest is not counted as failed.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end well inside the 180 s the benchmark contract allows.
RUN_TIMEOUT_S = 170
SELFTEST_SECONDS = "1"


def build():
    """Build the benchmark binary and return its path (exit on failure)."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, check=False)
    except OSError as e:
        sys.exit(f"perfbench: cannot run cargo: {e}")
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed with code {done.returncode}")
    return os.path.join(target, "release", "perfbench")


def run(binary, args):
    """Run one measurement; return (exit code, stdout text)."""
    try:
        done = subprocess.run(
            [binary, *args], stdout=subprocess.PIPE, text=True,
            timeout=RUN_TIMEOUT_S, check=False,
        )
    except subprocess.TimeoutExpired:
        return 124, ""
    return done.returncode, done.stdout


def last_json(text):
    lines = text.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def selftest(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {
        "0": [m["name"] for m in spec["end_to_end"]],
        "1": [m["name"] for m in spec["per_layer"]],
    }
    problems = []
    for w in [entry["name"] for entry in spec["workloads"]]:
        base = ["--workload", w, "--seed", "7", "--seconds", SELFTEST_SECONDS]
        for trace in ("0", "1"):
            code, out = run(binary, base + ["--trace", trace])
            res = last_json(out) if code == 0 else None
            if res is None:
                problems.append(f"{w} trace={trace}: exit code {code}, no result")
                continue
            metrics = res["metrics"]
            for name in wanted[trace]:
                if name not in metrics:
                    problems.append(f"{w} trace={trace}: metric {name} missing")
                elif not metrics[name].get("unit"):
                    problems.append(f"{w} trace={trace}: metric {name} has no unit")
            if not res["correct"] or res["failed"] != 0:
                problems.append(f"{w} trace={trace}: clean run reported failures")
        code, out = run(binary, base + ["--trace", "0", "--corrupt-digest"])
        res = last_json(out) if code == 0 else None
        if res is None or res["correct"] or res["failed"] == 0:
            problems.append(f"{w}: altered digest was not counted as a failed operation")
        print(f"selftest {w}: checked", file=sys.stderr)
    for p in problems:
        print(f"selftest FAIL: {p}", file=sys.stderr)
    print("selftest " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


def main():
    binary = build()
    if sys.argv[1:] == ["--selftest"]:
        sys.exit(selftest(binary))
    code, out = run(binary, sys.argv[1:])
    sys.stdout.write(out)
    sys.exit(code)


if __name__ == "__main__":
    main()
