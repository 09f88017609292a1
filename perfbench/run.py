#!/usr/bin/env python3
"""Build and run the ravel benchmark.

    python3 perfbench/run.py --workload <paper-grid|fault-soak|long-call>
                             --seed N --seconds S --trace <0|1>

Builds the `ravel-perfbench` binary from the checkout's sources (release
profile, offline, into $CARGO_TARGET_DIR or `.bench_build`), runs it,
and passes its output through. The last stdout line is the result
object: {"correct", "attempted", "failed", "metrics"}. Exits non-zero,
without a result line, when the build or the run fails or the result is
malformed. A traced run (`--trace 1`) writes its spans to
`<target dir>/spans-<workload>-<seed>.jsonl`.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def run_bounded(cmd, timeout, **kw):
    """Runs `cmd`, killing it (and waiting for it) on timeout."""
    proc = subprocess.Popen(cmd, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"{cmd[0]} exceeded {timeout} s")
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["paper-grid", "fault-soak", "long-call"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    manifest = BENCH_DIR / "Cargo.toml"
    if not (ROOT / "crates" / "harness" / "Cargo.toml").is_file():
        fail(f"no ravel sources next to {BENCH_DIR.name}/ (expected crates/harness)")
    env = dict(os.environ)
    target = Path(env.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    env["CARGO_TARGET_DIR"] = str(target)
    code, _ = run_bounded(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(manifest)],
        BUILD_TIMEOUT_S,
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if code != 0:
        fail(f"build failed (exit {code})")

    binary = target / "release" / "ravel-perfbench"
    cmd = [
        str(binary),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.trace:
        cmd += ["--spans-out", str(target / f"spans-{args.workload}-{args.seed}.jsonl")]
    code, out = run_bounded(cmd, RUN_TIMEOUT_S, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = out.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    if code != 0:
        fail(f"benchmark exited {code}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        fail(f"last line is not JSON: {e}")
    if set(result) != RESULT_KEYS or not result["metrics"]:
        fail(f"malformed result keys {sorted(result)}")
    print(lines[-1])


if __name__ == "__main__":
    main()
