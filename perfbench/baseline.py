"""Run the benchmark over several seeds and write a baseline file.

    python3 perfbench/baseline.py --out perfbench/baseline.json

Run from the repository root.  For each workload it makes one untraced run
for each of the seeds 1 to 10 and one traced run (seed 1), each of
BENCHMARK.json's run_seconds, then records each end-to-end
metric's median, quartiles and spread (quartile distance over median, as
statistics.quantiles(values, n=4) gives them), the traced per-layer values,
and the environment: Python version, nproc and the src/ line count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SEEDS = list(range(1, 11))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs not correct\n{out.stderr}")
    return result


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]

    report = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "src_lines": src_lines(),
        "seconds": seconds,
        "seeds": SEEDS,
        "workloads": {},
    }
    for workload in WORKLOADS:
        runs = [run_once(workload, seed, seconds, 0) for seed in SEEDS]
        traced = run_once(workload, SEEDS[0], seconds, 1)
        e2e = {name: summary([r["metrics"][name]["value"] for r in runs]) for name in runs[0]["metrics"]}
        report["workloads"][workload] = {
            "attempted": [r["attempted"] for r in runs],
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": e2e,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        for name, s in e2e.items():
            print(f"{workload:18s} {name:20s} median {s['median']:.6g} spread {s['spread']:.3f}", flush=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
