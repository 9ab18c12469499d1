"""The names perfbench's tracer wraps must exist in sqflab.

`perfbench/tracer.py` wraps layer-entry functions by name and patches the
term counters into `decomposition_pipeline`'s namespace; `install()` raises
when one of those names is gone.  Running it here turns a refactor that
would break the traced benchmark run into a failing unit test.
"""

import contextlib
import io
import sys
from math import gcd
from pathlib import Path

import pytest

from sqflab import cli_runner, decomposition_pipeline, progression_stats

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    import tracer

    return tracer


def test_tracer_installs_counts_and_restores(tracer):
    originals = {
        name: getattr(decomposition_pipeline, name)
        for name in ("count_coprime", "discrepancy", "tail_split", "decompose_error")
    }
    t = tracer.Tracer()
    t.install()
    try:
        assert decomposition_pipeline.count_coprime is not progression_stats.count_coprime
        # q = 1000003 leaves the top column past the head-residue table, so
        # its boxes are counted from the m side.
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [
                cli_runner.main(["pipeline", "--x", "10000", "--q", q, "--a", "3"])
                for q in ("101", "1000003")
            ]
    finally:
        t.uninstall()
    assert codes == [0, 0]
    assert t.counters["decomposition_pipeline.term_evals"] > 0
    assert t.counters["decomposition_pipeline.boxes"] > 0
    assert {s[1] for s in t.spans} >= {"main", "pipeline_report", "error_term", "count_box"}
    # The box layer the benchmark measures: one count_box span per covering
    # box, each inside its evaluate_bounds span.
    boxes = t.counters["decomposition_pipeline.boxes"]
    names = [s[1] for s in t.spans]
    assert names.count("count_box") == names.count("evaluate_bounds") == boxes
    assert all(t.spans[s[2]][1] == "evaluate_bounds" for s in t.spans if s[1] == "count_box")
    for name, fn in originals.items():
        assert getattr(decomposition_pipeline, name) is fn


@pytest.mark.parametrize("q", [891249, 111])
def test_traced_u2_box_counts_one_root_solve_per_distinct_c(tracer, q):
    # The u = 2 side of count-box --u 2 --v -1 solves the roots of each
    # distinct c = a*n^-1 (mod q) once: at most one solve per n of its
    # window.  891249 = 3*297083 solves its large prime per c; 111 = 3*37
    # sweeps both primes, and its window of 2500 n holds every unit.
    n_top, a = 2500, 5
    t = tracer.Tracer()
    t.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_runner.main(
                ["count-box", "--u", "2", "--v", "-1", "--m", "3000", "--n", str(n_top),
                 "--q", str(q), "--a", str(a)]
            )
    finally:
        t.uninstall()
    assert code == 0
    distinct = {a * pow(n, -1, q) % q for n in range(1, n_top + 1) if gcd(n, q) == 1}
    assert 0 < t.counters["congruence_count.root_solves"] == len(distinct) <= n_top


def test_traced_optimize_solves_one_vertex_per_box_supremum(tracer):
    # verify_choices takes two box suprema, and each solves its winning
    # vertex once: exponent_calculus.vertex_solves counts those solves.
    t = tracer.Tracer()
    t.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_runner.main(["optimize", "--menu", "default"])
    finally:
        t.uninstall()
    assert code == 0
    assert t.counters["exponent_calculus.vertex_solves"] == 2
    assert [s[1] for s in t.spans].count("sup_box_exponent") == 2
