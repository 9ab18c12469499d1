"""CLI surface: exit codes, output schemas, determinism."""

import hashlib
import json
from pathlib import Path

import pytest

from sqflab import cli_runner, congruence_count
from sqflab.cli_runner import CSV_HEADER, main

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"
BOX = ["count-box", "--u", "1", "--v", "-2", "--q", "7", "--a", "1"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_error_term_json(capsys):
    code, out, _ = run_cli(capsys, "error-term", "--x", "30", "--q", "5", "--a", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["error"] == "5/4"
    assert payload["count_ap"] == 5
    assert payload["count_coprime"] == 15
    assert payload["phi"] == 4


def test_error_term_decompose_flag(capsys):
    code, out, _ = run_cli(
        capsys, "error-term", "--x", "1000", "--q", "13", "--a", "4", "--decompose"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["error_decomposed"] == payload["error"]
    assert payload["identity_ok"] is True


def test_error_term_rejects_nonsquarefree(capsys):
    code, _, err = run_cli(capsys, "error-term", "--x", "30", "--q", "12", "--a", "1")
    assert code == 2
    assert "divisible" in err


def test_error_term_rejects_noncoprime(capsys):
    code, _, err = run_cli(capsys, "error-term", "--x", "30", "--q", "10", "--a", "5")
    assert code == 2
    assert "coprime" in err


def test_identity_violation_is_exit_3(capsys, monkeypatch):
    from fractions import Fraction

    monkeypatch.setattr(cli_runner, "decompose_error", lambda *a, **k: Fraction(1, 7))
    code, _, err = run_cli(
        capsys, "error-term", "--x", "30", "--q", "5", "--a", "1", "--decompose"
    )
    assert code == 3
    assert "internal error" in err


@pytest.mark.parametrize(
    "counts, message",
    [
        ((8, 15), "progression count lies outside [0, x // q + 1]"),  # cap 30 // 5 + 1 = 7
        ((5, 31), "coprime count lies outside [count_ap, x]"),
        ((5, 4), "coprime count lies outside [count_ap, x]"),
    ],
)
def test_count_over_its_cap_is_exit_3(capsys, monkeypatch, counts, message):
    from sqflab import progression_stats

    monkeypatch.setattr(progression_stats, "_squarefree_counts", lambda *a: counts)
    code, out, err = run_cli(capsys, "error-term", "--x", "30", "--q", "5", "--a", "1")
    assert (code, out) == (3, "")
    assert f"internal error: {message}" in err


def test_box_count_over_its_cap_is_exit_3(capsys, monkeypatch):
    cap = (10 // 7 + 1) * 10  # (m_span // q + 1) * n_span for (u, v) = (1, -2)
    monkeypatch.setattr(congruence_count, "class_count", lambda *a: cap + 1)
    code, out, err = run_cli(capsys, *BOX, "--m", "10", "--n", "10")
    assert (code, out) == (3, "")
    assert f"internal error: count {cap + 1} exceeds its provable cap {cap}" in err


def test_scan_computes_each_class_once(capsys, monkeypatch):
    calls = []
    least = cli_runner.least_squarefree
    monkeypatch.setattr(
        cli_runner,
        "least_squarefree",
        lambda modulus, a: calls.append((modulus.q, a)) or least(modulus, a),
    )
    code, out, _ = run_cli(
        capsys, "scan", "--x", "1000", "2000", "5000", "--q-max", "10", "--a", "all"
    )
    assert code == 0
    data = out.encode("utf-8")
    assert (len(data), hashlib.sha256(data).hexdigest()) == (
        3189, "4eb5e9fa391b14314127aa699d0e83cca7c544017cb1c357cedc1e4dfa01d2eb"
    )
    assert len(calls) == len(set(calls)) == 20  # one per (q, a); 60 rows


def test_scan_builds_no_task_above_the_largest_x(capsys, monkeypatch):
    built = []
    rows_for_q = cli_runner._scan_rows_for_q
    monkeypatch.setattr(
        cli_runner, "_scan_rows_for_q", lambda task: built.append(task[0]) or rows_for_q(task)
    )
    _, small, _ = run_cli(capsys, "scan", "--x", "100", "--q-max", "100", "--workers", "1")
    built.clear()
    code, out, _ = run_cli(capsys, "scan", "--x", "100", "--q-max", "2000000", "--workers", "1")
    assert code == 0
    assert out == small and len(out.encode("utf-8")) == 3252
    assert built and max(built) <= 100


def test_scan_header_and_rows(capsys):
    code, out, _ = run_cli(capsys, "scan", "--x", "1000", "--q-max", "10", "--a", "all")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == CSV_HEADER
    # one row per unit class of each squarefree q <= min(10, x)
    # q: 1,2,3,5,6,7,10 with phi 1,1,2,4,2,6,4 = 20 rows
    assert len(lines) == 1 + 20
    first = lines[1].split(",")
    assert first[:3] == ["1000", "1", "0"]


def test_scan_empty_range(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--x", "50", "--q-min", "60", "--q-max", "70"
    )
    assert code == 0
    assert out == CSV_HEADER + "\n"


def test_scan_deterministic_and_resumable(capsys):
    args = ["scan", "--x", "500", "--q-max", "30", "--a", "sample:2", "--seed", "9"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical at fixed seed

    code3, out3, _ = run_cli(capsys, *args, "--start-row", "5")
    body = out1.strip().split("\n")[1:]
    resumed = out3.strip().split("\n")[1:]
    assert resumed == body[5:]


def test_scan_workers_do_not_change_output(capsys):
    args = ["scan", "--x", "300", "--q-max", "40"]
    _, serial, _ = run_cli(capsys, *args, "--workers", "1")
    _, parallel, _ = run_cli(capsys, *args, "--workers", "2")
    assert serial == parallel


def test_scan_bad_range(capsys):
    code, _, err = run_cli(capsys, "scan", "--x", "100", "--q-min", "9", "--q-max", "3")
    assert code == 2
    assert "q range" in err


def test_count_box(capsys, monkeypatch):
    counted = []
    count_box = congruence_count.count_box
    monkeypatch.setattr(
        congruence_count,
        "count_box",
        lambda query, column=None: counted.append(query) or count_box(query, column),
    )
    code, out, _ = run_cli(
        capsys,
        "count-box",
        "--u", "1", "--v", "-2", "--m", "10", "--n", "10", "--q", "7", "--a", "1",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 15
    assert payload["symmetry"]["equal"] is True
    assert payload["bounds"]["trivial"] == pytest.approx(100 / 7 + 10)
    # The box is counted once and its mirror once.
    assert [(q.u, q.v) for q in counted] == [(1, -2), (2, -1)]


PIPELINE = ["pipeline", "--x", "1000000", "--q", "3981", "--a", "7"]


@pytest.mark.parametrize(
    "argv",
    [
        BOX + ["--m", "inf", "--n", "10"],
        BOX + ["--m", "nan", "--n", "10"],
        BOX + ["--m", "10", "--n", "-3"],
        PIPELINE + ["--n0", "nan"],
        PIPELINE + ["--m0", "0"],
    ],
)
def test_box_and_anchor_bounds_must_be_finite_and_positive(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "must be finite and > 0" in captured.err


SCAN = ["scan", "--x", "1000", "--q-max", "5"]
WALK = f"above the budget of {cli_runner.COUNT_BOX_WALK_MAX}"
WORK = f"x // q = 5000000000000 is above the budget of {cli_runner.ERROR_TERM_WORK_MAX}"
ROOT = "isqrt(x) = 31622776 is above the sieve bound 10000000"
BUDGET = [
    (["error-term", "--x", str(10**13), "--q", "2", "--a", "1"], WORK),
    (["pipeline", "--x", str(10**13), "--q", "2", "--a", "1"], WORK),
    (["scan", "--x", "100", str(10**13), "--q-min", "2", "--q-max", "3"], WORK),
    # x // q is within the budget here; isqrt(x) is not.
    (["pipeline", "--x", str(10**15), "--q", "1000003", "--a", "1"], ROOT),
    (["error-term", "--x", str(10**15), "--q", "1000003", "--a", "1"], ROOT),
]


@pytest.mark.parametrize(
    "argv, message",
    [
        (PIPELINE + ["--alpha", "5"], "alpha must lie in [0, 1]"),
        (PIPELINE + ["--alpha", "-1"], "alpha must lie in [0, 1]"),
        (SCAN + ["--start-row", "-3"], "--start-row must be >= 0"),
        (SCAN + ["--a", "sample:0"], "sample size must be >= 1"),
        (["scan", "--x", "100", "--q-max", "1", "--a", "foo"], "--a must be an integer"),
        (["scan", "--x", "100", "--q-max", "3", "--a", "foo"], "--a must be an integer"),
        (BOX + ["--m", "10", "--n", "1e9"], "box walks 1000000000 integers, " + WALK),
        # For v < 0 the symmetry mirror walks the m side.
        (BOX + ["--m", "1e9", "--n", "10"], "box walks 1000000000 integers, " + WALK),
        (BOX + ["--m", "2e7", "--n", "10", "--dyadic"], "box walks 20000000 integers, " + WALK),
        *BUDGET,
    ],
)
def test_out_of_range_options_exit_2(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize("argv, message", BUDGET)
def test_error_term_budget_refuses_before_any_sieving(capsys, monkeypatch, argv, message):
    def unreachable(*args, **kwargs):
        raise AssertionError("sieved or counted past the budget")

    for name in ("error_term", "pipeline_report", "squarefree_flags"):
        monkeypatch.setattr(cli_runner, name, unreachable)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert message in err


def test_count_box_budget_spares_the_unwalked_side(capsys):
    # For v > 0 there is no mirror, so only the n side counts.
    code, out, _ = run_cli(
        capsys, "count-box", "--u", "1", "--v", "2", "--m", "1e9", "--n", "10",
        "--q", "7", "--a", "1",
    )
    assert code == 0
    assert json.loads(out)["count"] > 0


def test_readme_commands_match_golden_digests(capsys):
    """The README commands print the bytes recorded in perfbench/golden.json."""
    for case in json.loads(GOLDEN.read_text(encoding="utf-8")):
        code, out, _ = run_cli(capsys, *case["command"].split())
        data = out.encode("utf-8")
        assert code == 0, case["command"]
        assert (len(data), hashlib.sha256(data).hexdigest()) == (
            case["bytes"], case["sha256"]
        ), case["command"]


# Digests of outputs above the 2^22 flag cache, recorded before the
# progression sieve and the sublinear coprime count replaced the [1, x] walk.
ABOVE_THE_CACHE = [
    ("error-term --x 4194305 --q 3981 --a 7 --decompose", 227,
     "205e152c2c6c7604738d02efcece3ded9e780f5c83798624b7abfaaf96792a0b"),
    ("error-term --x 50000000 --q 30030 --a 1 --decompose", 236,
     "8bfc4fb449d9f18ea7caf7226f87d8aa61d99f5b02b27135d23d117fd8cbacd5"),
    ("pipeline --x 30000000 --q 3981 --a 7", 4805,
     "a35776fd88569e1216d14ca5aa05f0fb770e9879b334d3ad26fd6af6af0ce141"),
    ("scan --x 8388608 --q-max 12 --a all", 2055,
     "4ad397fc7c65e3c1726946433104fb748cf67273a2d4ee4cbb62bd9a7d02b671"),
    # Box columns longer than q, so the counts fold n modulo q; recorded
    # before the fold replaced the walk over every n of each box.
    ("pipeline --x 10000000000 --q 3981 --a 7", 4852,
     "f604d370632aafbe68c18d9f2255bb49646c251a0ecf7d485fee0b83e9e6b220"),
]


@pytest.mark.parametrize("command, size, digest", ABOVE_THE_CACHE)
def test_outputs_above_the_flag_cache_match_pinned_digests(capsys, command, size, digest):
    code, out, _ = run_cli(capsys, *command.split())
    data = out.encode("utf-8")
    assert code == 0
    assert (len(data), hashlib.sha256(data).hexdigest()) == (size, digest)


def test_pipeline_report_json(capsys):
    code, out, _ = run_cli(
        capsys, "pipeline", "--x", "10000", "--q", "101", "--a", "3"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["identity_ok"] is True
    assert payload["majorization_ok"] is True
    assert payload["e_direct"] == payload["e_decomposed"]
    assert payload["boxes"]
    assert set(payload["boxes"][0]) == {
        "m_anchor", "n_anchor", "count", "regime", "bound", "ratio",
        "amplification_applicable",
    }


def test_optimize_default_menu(capsys):
    code, out, _ = run_cli(capsys, "optimize")
    assert code == 0
    payload = json.loads(out)
    assert payload["theta"] == "25/36"
    assert payload["corollary_exponent"] == "36/25"
    assert payload["binding_constraint"] == "box-supremum"
    assert payload["anchor_checks"]["all_passed"] is True


def test_optimize_one_sided_menu(capsys):
    code, out, _ = run_cli(capsys, "optimize", "--menu", "one-sided")
    assert code == 0
    payload = json.loads(out)
    assert payload["theta"] == "28/45"
    # Unchanged since its box term was derived instead of written out.
    data = out.encode("utf-8")
    assert (len(data), hashlib.sha256(data).hexdigest()) == (
        1705, "adc28ee76bf0ce82af859fb951d8e87cba9119bbb053f73ba5489ce5500d328d"
    )


def test_optimize_menu_file(tmp_path, capsys):
    menu = tmp_path / "menu.txt"
    menu.write_text("solo 1/2 -3/8\n")
    code, out, _ = run_cli(capsys, "optimize", "--menu-file", str(menu))
    assert code == 0
    payload = json.loads(out)
    assert payload["theta"] == "4/5"

    bad = tmp_path / "bad.txt"
    bad.write_text("broken-line 1/2\n")
    code, _, err = run_cli(capsys, "optimize", "--menu-file", str(bad))
    assert code == 2

    # A zero denominator is an input error naming its line, not a traceback.
    bad.write_text("ok 1 0\nt0 1/0 1\n")
    code, out, err = run_cli(capsys, "optimize", "--menu-file", str(bad))
    assert (code, out) == (2, "")
    assert err.startswith("error: line 2: ")


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run_cli(
        capsys, "error-term", "--x", "30", "--q", "5", "--a", "1",
        "--output", str(target),
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["error"] == "5/4"
