"""One measured workload process.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root with `src` on PYTHONPATH; `run.py` does that.
The workload mode is a closed loop with one client: it calls
`sqflab.cli_runner.main(argv)` in process, one request after the other,
verifies each output, and prints one JSON line of raw results.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
from fractions import Fraction
from itertools import count
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

WORKDIR = HERE / ".work"

# A shared 2-core x86_64 host was measured switching between a fast and a
# slow state (about 1.5 times slower) every few tens of milliseconds to
# seconds, and drifting in speed by up to a quarter over minutes, for reasons
# outside the program (other tenants).  Every time metric is therefore scaled
# by CALIBRATION_S / (the mean time of calibrate() measured next to it), a
# fixed piece of work that the program under test cannot change.
# CALIBRATION_S is calibrate()'s time on that host
# in a quiet spell, so scaled values read as seconds on that host.  run.py
# also prints the unscaled median latency and set-up time.
CALIBRATION_S = 0.000604
# After each request the worker times calibrate() for this share of the
# request's latency, and at least once.
CALIBRATE_SHARE = 0.02
_CALIBRATION_BYTES = bytes(range(256)) * 128
_CALIBRATION_DOC = {f"k{i}": [i, str(i), {"x": i / 7}] for i in range(60)}


def calibrate() -> float:
    """Seconds taken by a fixed piece of work that exercises the interpreter and memory.

    Interpreted integer work and byte-slice sums, then a JSON round trip,
    Fraction sums and a keyed sort: standard-library code of the kind the
    requests run, which the program under test cannot change.  Work that
    touches more code slows down more in the host's slow state than a tight
    loop does, and this mix follows the workloads' slowdowns more closely
    than either part alone.
    """
    t0 = perf_counter()
    total = 0
    for i in range(2000):
        total += i * i % 7
    for d in (1, 3, 7):
        total += sum(_CALIBRATION_BYTES[d::d])
    json.loads(json.dumps(_CALIBRATION_DOC))
    f = Fraction(0)
    for i in range(1, 40):
        f += Fraction(i, i + 7)
    sorted(_CALIBRATION_DOC, key=lambda k: k[::-1])
    return perf_counter() - t0


def calibration_time(min_s: float) -> float:
    """Mean calibrate() time over at least `min_s` seconds and at least one call."""
    times = [calibrate()]
    deadline = perf_counter() + min_s - times[0]
    while perf_counter() < deadline:
        times.append(calibrate())
    return statistics.fmean(times)


class _Capture:
    """Stands in for sys.stdout/sys.stderr and notes when the first byte arrives."""

    def __init__(self) -> None:
        self.parts: list[str] = []
        self.first: float | None = None

    def write(self, text: str) -> int:
        if self.first is None and text:
            self.first = perf_counter()
        self.parts.append(text)
        return len(text)

    def flush(self) -> None:
        pass

    def text(self) -> str:
        return "".join(self.parts)


def call(main, argv: list[str]) -> tuple[int, str, str, float, float]:
    """(exit code, stdout, stderr, latency, time to first stdout byte) of one request."""
    out, err = _Capture(), _Capture()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    t0 = perf_counter()
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    finally:
        t1 = perf_counter()
        sys.stdout, sys.stderr = saved
    first = (out.first if out.first is not None else t1) - t0
    return rc, out.text(), err.text(), t1 - t0, first


def rows_emitted(argv: list[str], stdout: str) -> int:
    """CSV data rows for scan, one record per JSON document otherwise."""
    if argv[0] == "scan":
        return max(stdout.count("\n") - 1, 0)
    return 1 if stdout else 0


class Loop:
    """Runs requests, verifies them and keeps the per-request samples."""

    def __init__(self, main) -> None:
        self.main = main
        self.latency: list[float] = []
        self.first_output: list[float] = []
        self.index: list[int] = []  # attempt number of each verified request
        self.failed = 0
        self.failed_latency = 0.0

    def run(self, argv: list[str], check, tracer: Tracer | None = None) -> float:
        """Run and verify one request; its latency."""
        rc, out, err, latency, first = call(self.main, argv)
        if tracer is not None:
            tracer.counters["cli_runner.output_bytes"] += len(out.encode())
            tracer.counters["cli_runner.rows_emitted"] += rows_emitted(argv, out)
            tracer.counters["request_s"] += latency
            tracer.end_request()
        try:
            reason = f"exit code {rc}: {err.strip()[:200]}" if rc != 0 else check(out)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            reason = f"unparsable output: {exc!r}"
        if reason is not None:
            self.failed += 1
            self.failed_latency += latency
            print(f"FAILED {' '.join(argv)}: {reason}", file=sys.stderr)
            return latency
        self.index.append(self.attempted)
        self.latency.append(latency)
        self.first_output.append(first)
        return latency

    @property
    def attempted(self) -> int:
        return len(self.latency) + self.failed

    def requests_per_s(self) -> float:
        """Verified requests per second of request service time."""
        return len(self.latency) / (sum(self.latency) + self.failed_latency)


def percentile(values: list[float], pct: float) -> float:
    """Linearly interpolated percentile (numpy's default method); p50 is the median."""
    ordered = sorted(values)
    k = (len(ordered) - 1) * pct / 100
    lo = int(k)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (k - lo)


def rounds(values: list[float], size: int) -> list[list[float]]:
    """Consecutive rounds of `size` samples, an even number of them when there are two or more.

    A round is one period of the workload's input pattern, so every round
    sees the same mix of inputs, and on pipeline-large-x and count-box-wide
    each pair of rounds mirrors the other (see workloads.latin_rounds); so
    an incomplete last round, and an unpaired last whole round, are dropped.
    A machine slowdown that spans a few rounds then moves a median over
    rounds less than it moves a statistic of all samples.
    """
    whole = [values[i : i + size] for i in range(0, len(values) - size + 1, size)]
    return whole[: len(whole) // 2 * 2] or whole or [values]


def untraced(name: str, stream, seconds: float, main) -> dict:
    """Requests one after another for `seconds`; the end-to-end metrics, time scaled by calibration.

    cal[i] is the mean calibrate() time just before request i (and just
    after request i - 1).  A request is scaled by the mean of the cal
    values from `calibration_reach` requests before it to as many after it:
    0 on workloads of short requests, so that each is scaled by the state of
    the machine it ran in; more where one request outlasts several changes
    of that state and the calibrations next to it say little about it.
    """
    workload = workloads.WORKLOADS[name]
    size, reach = workload.round_size, workload.calibration_reach
    loop = Loop(main)
    cal = [calibration_time(0.0)]
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        latency = loop.run(*next(stream))
        cal.append(calibration_time(CALIBRATE_SHARE * latency))
    scale = [
        CALIBRATION_S / statistics.fmean(cal[max(i - reach, 0) : i + 2 + reach]) for i in loop.index
    ]
    latency = [v * s for v, s in zip(loop.latency, scale)]
    first_output = [v * s for v, s in zip(loop.first_output, scale)]
    whole = rounds(latency, size)
    return {
        "attempted": loop.attempted,
        "failed": loop.failed,
        "samples": sum(map(len, whole)),
        "tail_pct": workload.tail_pct,
        "raw_latency_p50_s": statistics.median(map(statistics.median, rounds(loop.latency, size))),
        "speed_scale": statistics.median(scale),
        "metrics": {
            "requests_per_s": (statistics.median(len(r) / sum(r) for r in whole), "1/s"),
            "latency_p50_s": (statistics.median(map(statistics.median, whole)), "s"),
            "latency_tail_s": (statistics.median(percentile(r, workload.tail_pct) for r in whole), "s"),
            "first_output_p50_s": (statistics.median(map(statistics.median, rounds(first_output, size))), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        },
    }


def traced(stream, seconds: float, main) -> dict:
    """Alternate traced and untraced requests from one stream for `seconds`.

    Replaying the same request untraced would find the program's caches warm,
    so the two halves get neighbouring, distinct requests instead.  The
    traced one is the first of a pair, then the second of the next pair, so
    that neither half always gets the same count-box orientation and dyadic
    flag, or the same scan q_max stratum.
    """
    tracer = Tracer()
    loop, plain = Loop(main), Loop(main)
    deadline = perf_counter() + seconds
    for pair in count():
        if perf_counter() >= deadline:
            break
        for trace in ((True, False), (False, True))[pair % 2]:
            if not trace:
                plain.run(*next(stream))
                continue
            tracer.install()
            try:
                loop.run(*next(stream), tracer=tracer)
            finally:
                tracer.uninstall()

    n = loop.attempted
    c = tracer.counters
    metrics = {f"{layer}.self_s": (tracer.self_s[layer] / n, "s/req") for layer in LAYERS}
    for key in (
        "arith_core.sieve_calls", "arith_core.sieve_bytes", "arith_core.is_squarefree_calls",
        "progression_stats.error_term_calls", "decomposition_pipeline.term_evals",
        "decomposition_pipeline.boxes", "congruence_count.boxes_counted", "congruence_count.n_visited",
        "congruence_count.root_solves", "exponent_calculus.theta_solves", "exponent_calculus.vertex_solves",
        "cli_runner.output_bytes", "cli_runner.rows_emitted",
    ):
        metrics[key] = (c[key] / n, "B/req" if key.endswith("bytes") else "count/req")
    for layer in LAYERS:
        metrics[f"{layer}.errors"] = (c[f"{layer}.errors"], "count")
    calls = c["progression_stats.error_term_calls"]
    metrics["progression_stats.error_term_useful_ratio"] = (
        c["progression_stats.error_term_distinct"] / calls if calls else 1.0, "ratio")
    visited = c["congruence_count.n_visited"]
    metrics["congruence_count.root_cache_hit_ratio"] = (
        1 - c["congruence_count.root_solves"] / visited if visited else 0.0, "ratio")
    metrics["trace.span_coverage"] = (tracer.covered_s / c["request_s"], "ratio")
    metrics["trace.traced_requests_per_s"] = (loop.requests_per_s(), "1/s")
    metrics["trace.untraced_requests_per_s"] = (plain.requests_per_s(), "1/s")
    metrics["trace.overhead_ratio"] = (plain.requests_per_s() / loop.requests_per_s(), "ratio")
    return {
        "attempted": loop.attempted + plain.attempted,
        "failed": loop.failed + plain.failed,
        "samples": n,
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    from sqflab import cli_runner

    def cli_main(argv: list[str]) -> int:
        # Looked up per call, so that the tracer's wrapper of main is used.
        return cli_runner.main(argv)

    workdir = WORKDIR / f"{args.workload}-{args.seed}"
    try:
        stream = workloads.requests(args.workload, args.seed, workdir)
        warm = Loop(cli_main)
        for argv in workloads.WORKLOADS[args.workload].warmup:
            warm.run(list(argv), lambda out: None)
        # What is alive now (interpreter, sqflab and benchmark modules) is
        # left out of every later garbage collection, so that a full
        # collection costs what the requests allocate, as in a CLI process
        # that serves a single request.
        gc.collect()
        gc.freeze()
        if args.trace:
            result = traced(stream, args.seconds, cli_main)
        else:
            result = untraced(args.workload, stream, args.seconds, cli_main)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["attempted"] += warm.attempted
    result["failed"] += warm.failed
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
