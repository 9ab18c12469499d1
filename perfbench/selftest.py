"""Tests of the benchmark itself (not of sqflab).

    python3 perfbench/selftest.py          # or: python3 -m pytest perfbench/selftest.py

Run from the repository root; it takes about ten seconds.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from sqflab import cli_runner  # noqa: E402

WORKDIR = HERE / ".work" / "selftest"


def _first(name: str, seed: int, n: int) -> list:
    return list(itertools.islice(workloads.requests(name, seed, WORKDIR / name), n))


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_same_seed_same_argv() -> None:
    for name in workloads.WORKLOADS:
        a = [argv for argv, _ in _first(name, 7, 40)]
        b = [argv for argv, _ in _first(name, 7, 40)]
        c = [argv for argv, _ in _first(name, 8, 40)]
        assert a == b, name
        assert a != c, name


def _corrupt(argv: list[str], out: str) -> str:
    """A wrong answer that still parses: the kind of bug the checks exist for."""
    if argv[0] == "scan":
        lines = out.splitlines(keepends=True)
        row = lines[-1].split(",")
        row[3] = str(int(row[3]) + 1)  # count_ap of the last row
        return "".join(lines[:-1]) + ",".join(row)
    r = json.loads(out)
    if argv[0] == "pipeline":
        # Shift every route consistently; only the independent count can tell.
        for key in ("e_direct", "e_decomposed", "head"):
            r[key] = str(Fraction(r[key]) + 1)
    elif argv[0] == "count-box":
        r["symmetry"]["mirrored_count"] += 1
    else:
        r["theta"] = str(Fraction(r["theta"]) - Fraction(1, 1000))
    return json.dumps(r, indent=2) + "\n"


def test_corrupted_output_counts_as_failed() -> None:
    for name in workloads.WORKLOADS:
        argv, check = _first(name, 3, 1)[0]
        rc, out, _, _, _ = worker.call(cli_runner.main, argv)
        assert rc == 0 and check(out) is None, name

        def corrupting_main(argv: list[str]) -> int:
            rc, out, _, _, _ = worker.call(cli_runner.main, argv)
            sys.stdout.write(_corrupt(argv, out))
            return rc

        loop = worker.Loop(corrupting_main)
        with contextlib.redirect_stderr(io.StringIO()) as err:
            loop.run(argv, check)
        assert loop.failed / loop.attempted > 0 and "FAILED" in err.getvalue(), name


def test_self_time_on_nested_spans() -> None:
    spans = [
        ["cli_runner", "main", -1, 0.0, 10.0],
        ["decomposition_pipeline", "pipeline_report", 0, 1.0, 9.0],
        ["progression_stats", "error_term", 1, 2.0, 5.0],
        ["arith_core", "squarefree_flags", 2, 3.0, 4.0],
        ["congruence_count", "count_box", 1, 6.0, 8.0],
        ["congruence_count", "class_count", 4, 6.5, 7.5],
    ]
    got = tracer.self_times(spans)
    assert got == {
        "cli_runner": 2.0,
        "decomposition_pipeline": 3.0,
        "progression_stats": 2.0,
        "arith_core": 1.0,
        "congruence_count": 2.0,
    }
    assert sum(got.values()) == 10.0
    assert tracer.covered_time(spans) == 8.0  # pipeline_report, main's only child


def test_tracer_rebinds_and_restores() -> None:
    from sqflab import decomposition_pipeline, progression_stats

    original = progression_stats.error_term
    t = tracer.Tracer()
    t.install()
    try:
        assert decomposition_pipeline.error_term is not original
        assert cli_runner.error_term is decomposition_pipeline.error_term
        worker.call(cli_runner.main, ["pipeline", "--x", "100000", "--q", "21", "--a", "5"])
    finally:
        t.uninstall()
    assert decomposition_pipeline.error_term is original and cli_runner.error_term is original
    assert {s[1] for s in t.spans} >= {"main", "pipeline_report", "error_term", "count_box"}
    assert t.counters["progression_stats.error_term_calls"] == 1


def _traced(name: str, seconds: float) -> dict:
    stream = workloads.requests(name, 5, WORKDIR / name)
    return worker.traced(stream, seconds, lambda argv: cli_runner.main(argv))


# Least span coverage per workload.  On optimize-menus about a tenth of a
# request is cli_runner's own argument parsing and JSON building, which no
# layer span below main covers.
MIN_COVERAGE = {"pipeline-large-x": 0.95, "scan-cached-grid": 0.95, "count-box-wide": 0.95, "optimize-menus": 0.85}


def test_traced_run_covers_requests_and_reports_every_metric() -> None:
    expected = {m["name"] for m in _benchmark()["per_layer"]} - {"failed_ops_ratio"}
    for name in workloads.WORKLOADS:
        result = _traced(name, 1.0)
        assert result["failed"] == 0, name
        assert set(result["metrics"]) == expected, name
        assert result["metrics"]["trace.span_coverage"][0] >= MIN_COVERAGE[name], name


def test_missing_layer_wrapper_lowers_coverage() -> None:
    saved = tracer.SPANS["congruence_count"]
    tracer.SPANS["congruence_count"] = ()
    try:
        coverage = _traced("count-box-wide", 0.5)["metrics"]["trace.span_coverage"][0]
    finally:
        tracer.SPANS["congruence_count"] = saved
    assert coverage < MIN_COVERAGE["count-box-wide"], coverage


def test_untraced_metrics_match_benchmark_json() -> None:
    expected = {m["name"] for m in _benchmark()["end_to_end"]} - {"setup_s"}
    stream = workloads.requests("optimize-menus", 1, WORKDIR / "optimize-menus")
    result = worker.untraced("optimize-menus", stream, 0.5, cli_runner.main)
    assert set(result["metrics"]) == expected


def test_refuses_to_run_without_sources() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
        cmd = _benchmark()["command"] + ["--workload", "optimize-menus", "--seed", "1", "--seconds", "1",
                                         "--trace", "0"]
        out = subprocess.run(cmd, cwd=tmp, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0 and '"correct"' not in out.stdout


if __name__ == "__main__":
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    try:
        for test in tests:
            test()
            print(f"ok   {test.__name__}")
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
