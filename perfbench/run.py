"""sqflab benchmark: one seeded workload, measured end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  With --trace 0 it measures set-up time in
fresh interpreters, then runs the workload untraced in its own process and
prints every end-to-end metric.  With --trace 1 the workload process wraps
the six layers in spans and counters and prints every per-layer metric.
Both modes replay the five README commands and compare their stdout bytes
with perfbench/golden.json.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from worker import CALIBRATION_S, calibration_time  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Set-up probes per run, half before the workload and half after it, so that
# a slow spell of the machine moves their median less.
SETUP_PROBES = 12
# A set-up probe imports nothing but sqflab (and what sqflab imports), so that
# work sqflab drops or defers at import shows in setup_s.
PROBE = "from sqflab.cli_runner import build_parser; build_parser(); print('ready', flush=True)"
TIMEOUT_S = 150
# Seconds of calibrate() timed before each set-up probe.
PROBE_CALIBRATION_S = 0.005


def child_env() -> dict[str, str]:
    # A fixed hash seed removes one source of run-to-run timing variation.
    env = dict(os.environ, PYTHONPATH=str(SRC), SQFLAB_WORKERS="1", PYTHONHASHSEED="0")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def setup_times(n: int) -> list[tuple[float, float]]:
    """(mean calibrate() time, wall time from spawning an interpreter to sqflab's CLI being ready)."""
    times = []
    for _ in range(n):
        cal = calibration_time(PROBE_CALIBRATION_S)
        t0 = perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", PROBE],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        ) as proc:
            line = proc.stdout.readline()
            times.append((cal, perf_counter() - t0))
            proc.wait(timeout=TIMEOUT_S)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError("set-up probe did not become ready")
    return times


def golden_mismatches() -> list[str]:
    """README commands whose stdout bytes differ from the recorded digests."""
    bad = []
    for case in json.loads((HERE / "golden.json").read_text(encoding="utf-8")):
        out = subprocess.run(
            [sys.executable, "-m", "sqflab.cli_runner", *case["command"].split()],
            cwd=ROOT, env=child_env(), capture_output=True, timeout=TIMEOUT_S,
        )
        digest = hashlib.sha256(out.stdout).hexdigest()
        if out.returncode != 0 or digest != case["sha256"] or len(out.stdout) != case["bytes"]:
            bad.append(f"sqflab {case['command']}: exit {out.returncode}, {len(out.stdout)} bytes")
    return bad


def run_workload(args: argparse.Namespace) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    out = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
                         timeout=TIMEOUT_S)
    if out.returncode != 0:
        raise RuntimeError(f"workload process exited with {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (SRC / "sqflab" / "cli_runner.py").is_file():
        print(f"error: no sqflab sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    try:
        # The first probe also writes bytecode, so it is not counted.
        setup = [] if args.trace else setup_times(SETUP_PROBES // 2 + 1)[1:]
        result = run_workload(args)
        bad = golden_mismatches()
        setup += [] if args.trace else setup_times(SETUP_PROBES // 2)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    if setup:
        wall = statistics.median(w for _, w in setup)
        metrics["setup_s"] = (statistics.median(w * CALIBRATION_S / c for c, w in setup), "s")
    failed_ratio = result["failed"] / result["attempted"]
    if args.trace:
        metrics["failed_ops_ratio"] = (failed_ratio, "ratio")
    for line in bad:
        print(f"golden output differs: {line}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{result['samples']} requests measured, {result['attempted']} attempted")
    if not args.trace:
        print(f"  latency_tail_s is p{result['tail_pct']:g}; times are scaled to calibrate() = "
              f"{CALIBRATION_S} s (median scale {result['speed_scale']:.4g}; "
              f"unscaled latency_p50_s {result['raw_latency_p50_s']:.6g} s, setup_s {wall:.6g} s)")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"  {name} = {value:.6g} {unit}")
    if not args.trace:
        print(f"  failed_ops_ratio = {failed_ratio:.6g} ratio")
    print(f"  golden README outputs: {'match' if not bad else f'{len(bad)} differ'}")
    print(json.dumps({
        "correct": result["failed"] == 0 and not bad,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
