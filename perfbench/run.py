#!/usr/bin/env python3
"""The repository benchmark: builds the simulator and the benchmark
program from this checkout, runs one workload in a fresh process, checks
what it printed and prints one JSON result line as the last line of
standard output.

    python3 perfbench/run.py --workload lan_paxos --seed 1 --seconds 15 --trace 0

--trace 0 reports the end-to-end metrics (measured untraced); --trace 1
reports the per-layer metrics from a traced run and writes its spans to
<build>/perfbench/traces/. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the checkout. See perfbench/NOTES.md.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1
# The program must finish well inside the 180 s a run may take.
PROGRAM_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    """Configures (once) and builds the benchmark program; returns its path.
    Compiler output goes to stderr so stdout stays the result channel."""
    if not (out / "Makefile").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", str(out), "--target", "paxi_perfbench",
         "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out / "paxi_perfbench"


def check_result(result, spec, trace):
    """Returns a list of problems with the program's result object."""
    problems = []
    if not isinstance(result.get("correct"), bool):
        problems.append("'correct' is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result.get(key), int) or result[key] < 0:
            problems.append(f"'{key}' is not a whole number")
    if isinstance(result.get("attempted"), int) and result["attempted"] < 1:
        problems.append("no operation was attempted")
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = result.get("metrics", {})
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            problems.append(f"metric {m['name']} missing")
        elif got.get("unit") != m["unit"]:
            problems.append(f"metric {m['name']} has unit {got.get('unit')}, "
                            f"want {m['unit']}")
        elif not isinstance(got.get("value"), (int, float)) or \
                not math.isfinite(got["value"]):
            problems.append(f"metric {m['name']} is not a finite number")
    return problems


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if os.environ.get("PAXI_AUDIT", "").startswith("1"):
        log("refusing to measure with PAXI_AUDIT=1: the invariant auditor "
            "makes it a different program")
        return 2

    out = build_dir()
    try:
        program = build(out)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1
    traces = out / "traces"
    results = out / "results"
    traces.mkdir(parents=True, exist_ok=True)
    results.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    cmd = [str(program), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", str(traces / f"{tag}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=PROGRAM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark program ran past {PROGRAM_TIMEOUT_S} s; stopped it")
        return 1
    if proc.returncode != 0:
        log(f"benchmark program exited with {proc.returncode}")
        return 1
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log("benchmark program printed nothing")
        return 1
    result = json.loads(lines[-1])
    problems = check_result(result, spec, args.trace)
    if problems:
        for p in problems:
            log(f"bad result: {p}")
        return 1

    # The full record (build type, cores, pinning, repetitions, seed) is
    # kept beside the metrics; the contract line carries only the result.
    (results / f"{tag}.json").write_text(json.dumps(result, indent=1) + "\n")
    log("env: " + json.dumps(result.get("env", {}), sort_keys=True))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: result["metrics"][m["name"]] for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
