#!/usr/bin/env python3
"""End-to-end benchmark of the wflock stack: build, run, check.

Usage, from the repository root:

    python3 perfbench/run.py --workload kv_async_open|bank_sync|hot_trylock|all \
        --seed N --seconds S --trace 0|1

Builds perfbench/ (CMake, Release) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when the variable is unset, then runs the binary.
It prints every metric by name with its unit and ends with one JSON
line {correct, attempted, failed, metrics}: the end-to-end metrics with
--trace 0, the per-layer ones with --trace 1. A traced run also writes its
spans as Chrome trace-event JSON under <build root>/traces. Exits non-zero
when the build fails, an output check fails, or the run exceeds its time
limit (the whole process group is then killed).
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("kv_async_open", "bank_sync", "hot_trylock")
RUN_TIMEOUT_S = 170


def build(build_dir: Path) -> Path:
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", str(HERE), "-B", str(build_dir),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(build_dir), "-j", jobs]]
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    return build_dir / "wfl_perfbench"


def expected_metrics(trace: int):
    """Metric names BENCHMARK.json lists for this mode, if it is present."""
    spec = Path("BENCHMARK.json")
    if not spec.is_file():
        return None
    doc = json.loads(spec.read_text())
    return {m["name"] for m in doc["per_layer" if trace else "end_to_end"]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        ap.error("--seed must be >= 0 and --seconds in [1, 600]")

    build_root = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        exe = build(build_root / "perfbench")
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", str(build_root / "traces")]
    # Own process group: the binary forks one child per episode, and a
    # time-out must take all of them down.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s and was killed",
              file=sys.stderr)
        return 3
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode != 0:
        return proc.returncode if proc.returncode > 0 else 1

    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("perfbench: no result line", file=sys.stderr)
        return 4
    want = expected_metrics(args.trace)
    if want is not None and set(result["metrics"]) != want:
        print("perfbench: metrics disagree with BENCHMARK.json: "
              f"{sorted(set(result['metrics']) ^ want)}", file=sys.stderr)
        return 5
    return 0


if __name__ == "__main__":
    sys.exit(main())
