"""CLI surface: exit codes, output schemas, determinism."""

import argparse
import concurrent.futures
import hashlib
import json
import os
import random
import signal
import subprocess
import sys
import time
import tracemalloc
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from fractions import Fraction
from io import StringIO
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqflab import arith_core, cli_runner, congruence_count, progression_stats
from sqflab.arith_core import factor_modulus, is_squarefree
from sqflab.cli_runner import CSV_HEADER, main
from sqflab.decomposition_pipeline import pipeline_report
from sqflab.exponent_calculus import RHO_MIN, verify_choices
from sqflab.progression_stats import count_coprime, error_term

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"
GRID = Path(__file__).with_name("cli_grid.json")
README = Path(__file__).resolve().parents[1] / "README.md"
BOX = ["count-box", "--u", "1", "--v", "-2", "--q", "7", "--a", "1"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the block after seconds, so a scan that waits on
    its worker processes fails its test instead of stalling the whole run."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


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


def test_a_modulus_left_unfactored_exits_2(capsys, monkeypatch):
    # With the trial-division bound at 100, 101 * 103 stands for a q whose
    # cofactor is still above MOBIUS_SIEVE_MAX^2 when the bound is reached.
    monkeypatch.setattr(arith_core, "MOBIUS_SIEVE_MAX", 100)
    for command in (
        "error-term --x 100 --q 10403 --a 1",
        "count-box --u 1 --v -2 --m 10 --n 10 --q 10403 --a 1",
    ):
        code, out, err = run_cli(capsys, *command.split())
        assert (code, out) == (2, "")
        assert "unfactored by trial division up to MOBIUS_SIEVE_MAX = 100" in err


def test_error_term_rejects_noncoprime(capsys):
    code, _, err = run_cli(capsys, "error-term", "--x", "30", "--q", "10", "--a", "5")
    assert code == 2
    assert "coprime" in err


def test_identity_violation_is_exit_3(capsys, monkeypatch):
    monkeypatch.setattr(cli_runner, "decompose_error", lambda *a, **k: Fraction(1, 7))
    code, out, err = run_cli(
        capsys, "error-term", "--x", "30", "--q", "5", "--a", "1", "--decompose"
    )
    assert (code, out) == (3, "")
    assert err == "internal error: decomposition identity violated: 5/4 != 1/7\n"


def test_symmetry_violation_is_exit_3(tmp_path, capsys, monkeypatch):
    count_box = congruence_count.count_box

    def mirror_off_by_one(query, column=None):  # the mirror of u = 1, v = -2 has u = 2
        return count_box(query, column) + (query.u == 2)

    monkeypatch.setattr(congruence_count, "count_box", mirror_off_by_one)
    target = tmp_path / "box.json"
    for output in ([], ["--output", str(target)]):
        code, out, err = run_cli(capsys, *BOX, "--m", "10", "--n", "10", *output)
        assert (code, out) == (3, "")
        assert err == "internal error: symmetry relation violated: 15 != 16\n"
    assert not target.exists()


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

    monkeypatch.setattr(progression_stats, "_class_counts", lambda *a: [counts[0]])
    monkeypatch.setattr(progression_stats, "_coprime_count", lambda *a: counts[1])
    # Both commands read their counts through error_terms, which checks them.
    for command in (
        ["error-term", "--x", "30", "--q", "5", "--a", "1"],
        ["scan", "--x", "30", "--q-min", "5", "--q-max", "5", "--a", "1"],
    ):
        code, out, err = run_cli(capsys, *command)
        assert (code, out) == (3, ""), command
        assert f"internal error: {message}" in err, command


# `scan --x 1000 --q-max 6 --a all`: the header and every row of q = 1..6.
ROWS_OF_Q_UP_TO_6 = (
    CSV_HEADER + "\n"
    "1000,1,0,608,608,0,1,0,1,1\n"
    "1000,2,1,404,404,0,1,0,1,0.368567304323\n"
    "1000,3,1,227,456,-1,1,0.0500263403913,1,0.205563211114\n"
    "1000,3,2,229,456,1,1,0.0500263403913,2,0.411126422228\n"
    "1000,5,1,127,507,1,4,0.01526418929,1,0.0985106520605\n"
    "1000,5,2,127,507,1,4,0.01526418929,2,0.197021304121\n"
    "1000,5,3,127,507,1,4,0.01526418929,3,0.295531956181\n"
    "1000,5,4,126,507,-3,4,0.0457925678701,14,1.37914912885\n"
    "1000,6,1,148,303,-7,2,0.227872976801,1,0.0757638785882\n"
    "1000,6,5,155,303,7,2,0.227872976801,5,0.378819392941\n"
)


def test_scan_class_counts_off_the_coprime_count_is_exit_3(capsys, monkeypatch):
    counts_of = progression_stats._class_counts

    def one_too_many(limit, q, residues):
        counts = counts_of(limit, q, residues)
        return [counts[0] + (q == 7)] + counts[1:]

    monkeypatch.setattr(progression_stats, "_class_counts", one_too_many)
    for workers in ("1", "2"):
        scan = ["scan", "--x", "1000", "--q-max", "10", "--a", "all", "--workers", workers]
        with time_limit(60):
            code, out, err = run_cli(capsys, *scan)
        # The rows of every (x, q) before the failed one are already written.
        assert (code, out) == (3, ROWS_OF_Q_UP_TO_6), workers
        assert err == (
            "internal error: class counts of q = 7 at x = 1000 sum to 532, "
            "not to the coprime count 531\n"
        )
    # A sample of the units has no sum to check.
    code, _, _ = run_cli(capsys, "scan", "--x", "1000", "--q-max", "10", "--a", "sample:2")
    assert code == 0


def test_box_count_over_its_cap_is_exit_3(capsys, monkeypatch):
    cap = (10 // 7 + 1) * 10  # (m_span // q + 1) * n_span for (u, v) = (1, -2)
    monkeypatch.setattr(congruence_count, "class_count", lambda *a: cap + 1)
    code, out, err = run_cli(capsys, *BOX, "--m", "10", "--n", "10")
    assert (code, out) == (3, "")
    assert f"internal error: count {cap + 1} exceeds its provable cap {cap}" in err


def test_scan_computes_each_class_once(capsys, monkeypatch):
    calls = []
    least = cli_runner.least_squarefree_members
    monkeypatch.setattr(
        cli_runner,
        "least_squarefree_members",
        lambda x, modulus, residues: calls.extend((modulus.q, a) for a in residues)
        or least(x, modulus, residues),
    )
    # A pool of two runs its calls in this process, one q each, and hands
    # each q's classes from the call of one x to that of the next.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(cli_runner.os, "cpu_count", lambda: 2)
    for workers in ("1", "2"):
        calls.clear()
        code, out, _ = run_cli(
            capsys, "scan", "--x", "1000", "2000", "5000", "--q-max", "10", "--a", "all",
            "--workers", workers,
        )
        assert code == 0
        data = out.encode("utf-8")
        assert (len(data), hashlib.sha256(data).hexdigest()) == (
            3189, "4eb5e9fa391b14314127aa699d0e83cca7c544017cb1c357cedc1e4dfa01d2eb"
        )
        assert len(calls) == len(set(calls)) == 20  # one per (q, a); 60 rows


def test_scan_rows_equal_one_error_term_each(capsys):
    # Scan builds each row from the integer counts; error_term builds its
    # Fraction.  x lies on both sides of the 2^22 flag cache, and at each x
    # q = 1 has error 0 and the other q errors of both signs.
    rng = random.Random(2026)
    x_values = [rng.randrange(2**21, 2**22), rng.randrange(2**22 + 1, 2**22 + 2**20)]
    code, out, _ = run_cli(
        capsys, "scan", "--x", *map(str, x_values), "--q-max", "40", "--a", "sample:3",
        "--seed", str(rng.randrange(2**16)), "--workers", "1",
    )
    assert code == 0
    signs = set()
    for row in out.splitlines()[1:]:
        x, q, a, *columns = row.split(",")[:8]
        res = error_term(int(x), factor_modulus(int(q)), int(a))
        assert columns == [
            str(res.progression_count), str(res.coprime_count), str(res.error.numerator),
            str(res.error.denominator), cli_runner._fmt_float(res.reference_ratio),
        ], row
        signs.add((int(x) > 2**22, (res.error > 0) - (res.error < 0)))
    assert signs == {(above, sign) for above in (False, True) for sign in (-1, 0, 1)}


def test_scan_builds_no_task_above_the_largest_x(capsys, monkeypatch):
    built = []
    residues_for = cli_runner._residues_for
    counted = cli_runner.error_terms
    monkeypatch.setattr(
        cli_runner, "_residues_for",
        lambda modulus, policy, seed: built.append(modulus.q) or residues_for(modulus, policy, seed),
    )
    monkeypatch.setattr(
        cli_runner, "error_terms",
        lambda x, tasks: built.extend(m.q for m, _ in tasks) or counted(x, tasks),
    )
    _, small, _ = run_cli(capsys, "scan", "--x", "100", "--q-max", "100", "--workers", "1")
    built.clear()
    code, out, _ = run_cli(capsys, "scan", "--x", "100", "--q-max", "2000000", "--workers", "1")
    assert code == 0
    assert out == small and len(out.encode("utf-8")) == 3252
    assert built and max(built) <= 100


@pytest.fixture
def flag_tables(monkeypatch):
    """Lengths of the flag tables progression_stats builds, from empty caches."""
    built = []
    flags_fn = progression_stats.squarefree_flags
    monkeypatch.setattr(
        progression_stats, "squarefree_flags",
        lambda start, length: built.append(length) or flags_fn(start, length),
    )
    progression_stats._flag_prefix.cache_clear()
    progression_stats._squarefree_counts.cache_clear()
    return built


def test_scan_at_one_x_builds_one_squarefree_table_for_every_q(capsys, monkeypatch, flag_tables):
    coprime_counts = []
    count = progression_stats._coprime_count
    monkeypatch.setattr(
        progression_stats, "_coprime_count",
        lambda limit, modulus: coprime_counts.append(modulus.q) or count(limit, modulus),
    )
    code, out, _ = run_cli(
        capsys, "scan", "--x", "1048576", "--q-max", "40", "--a", "all", "--workers", "1"
    )
    assert code == 0 and len(out.splitlines()) > 200
    assert len(coprime_counts) == len(set(coprime_counts)) == 26  # one per q
    # The classes and every coprime count read [1, x]; the one recursion that
    # checks the squarefree counts of x reads t = 2 * isqrt(x) flags.
    assert sorted(flag_tables) == [2048, 1048576]


def test_scan_builds_one_squarefree_table_per_x(capsys, flag_tables):
    # x walks the outer loop, so a second x builds its tables once more, not once per q.
    code, out, _ = run_cli(
        capsys, "scan", "--x", "1048576", "2097152", "--q-max", "40", "--a", "all",
        "--workers", "1",
    )
    assert code == 0 and len(out.splitlines()) > 400
    assert sorted(flag_tables) == [2048, 2896, 1048576, 2097152]


def test_scan_checks_the_squarefree_counts_once_per_x(capsys, monkeypatch, flag_tables):
    checks = []
    recursion = progression_stats._coprime_recursion
    monkeypatch.setattr(
        progression_stats, "_coprime_recursion",
        lambda limit, primes: checks.append((limit, primes)) or recursion(limit, primes),
    )
    code, _, _ = run_cli(
        capsys, "scan", "--x", "1048576", "2097152", "--q-max", "40", "--a", "1",
        "--workers", "1",
    )
    assert code == 0
    assert checks == [(1048576, ()), (2097152, ())]


@pytest.fixture
def corrupt_flag(flag_tables):
    """Flip the cached flag of n = 5001 of [1, 2^20], above 2 * isqrt(2^20) = 2048."""
    progression_stats._flag_prefix(2**20)[5000] ^= 1
    yield
    progression_stats._flag_prefix.cache_clear()
    progression_stats._squarefree_counts.cache_clear()


def test_a_wrong_cached_flag_is_exit_3(capsys, corrupt_flag):
    # The class counts and the coprime count both read the corrupted flags, so
    # only the recursion, which reads its own 2 * isqrt(x) flags, can tell.
    message = (
        "internal error: the flags of [1, 1048576] hold 637460 squarefree numbers, "
        "the recursion counts 637461\n"
    )
    for argv in (
        ["scan", "--x", "1048576", "--q-max", "10", "--a", "all", "--workers", "1"],
        ["error-term", "--x", "1048576", "--q", "7", "--a", "3"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (3, "", message)


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


def test_scan_writes_each_task_as_soon_as_it_is_counted(monkeypatch):
    stdout = StringIO()
    written_before = {}
    count = progression_stats._coprime_count

    def noting(limit, modulus):
        written_before[modulus.q] = stdout.getvalue()
        return count(limit, modulus)

    # The coprime count runs once per (x, q), as its classes are counted.
    monkeypatch.setattr(progression_stats, "_coprime_count", noting)
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["scan", "--x", "1000", "--q-max", "10", "--a", "all", "--workers", "1"]) == 0
    header, *rows = stdout.getvalue().splitlines(keepends=True)
    assert list(written_before) == [1, 2, 3, 5, 6, 7, 10]
    # Nothing is written before the first (x, q) is counted.  The header goes
    # out with its rows, and each later task's rows before the next is counted.
    assert written_before[1] == ""
    for q, before in written_before.items():
        if q > 1:
            assert before == header + "".join(r for r in rows if int(r.split(",")[1]) < q)


RESUMED = ["scan", "--x", "300", "1000", "--q-max", "10", "--a", "all"]


def _json_of(csv):
    """The JSON document of a CSV scan: its rows as objects of strings, dumped with indent 2."""
    keys = CSV_HEADER.split(",")
    return json.dumps([dict(zip(keys, line.split(","))) for line in csv.splitlines()[1:]], indent=2)


@pytest.mark.parametrize(
    "command",
    [
        "scan --x 1000 300 --q-max 10 --a all",
        "scan --x 1000 300 --q-max 10 --a all --start-row 13",
        "scan --x 1000 300 --q-max 10 --a all --start-row 40",
        "scan --x 50 --q-min 60 --q-max 70",
        "scan --x 1048576 --q-max 40 --a sample:3 --seed 4 --workers 2",
        "scan --x 4194300 4194310 --q-max 30 --a sample:2 --start-row 7",
    ],
)
def test_scan_json_is_the_indented_dump_of_its_rows(capsys, command):
    code, csv, _ = run_cli(capsys, *command.split())
    with time_limit(60):
        assert run_cli(capsys, *command.split(), "--format", "json") == (0, _json_of(csv) + "\n", "")


def test_a_json_scan_writes_each_task_as_soon_as_it_is_counted(monkeypatch):
    # The same class count off by one at q = 7 as in
    # test_scan_class_counts_off_the_coprime_count_is_exit_3.
    counts_of = progression_stats._class_counts

    def one_too_many(limit, q, residues):
        counts = counts_of(limit, q, residues)
        return [counts[0] + (q == 7)] + counts[1:]

    stdout = StringIO()
    written_before = {}
    count = progression_stats._coprime_count

    def noting(limit, modulus):
        written_before[modulus.q] = stdout.getvalue()
        return count(limit, modulus)

    monkeypatch.setattr(progression_stats, "_coprime_count", noting)
    monkeypatch.setattr(progression_stats, "_class_counts", one_too_many)
    monkeypatch.setattr(sys, "stdout", stdout)
    scan = ["scan", "--x", "1000", "--q-max", "10", "--a", "all", "--format", "json"]
    assert main([*scan, "--workers", "1"]) == 3
    # Each task's rows are out before the next is counted, and a failure
    # leaves the rows of the tasks before it: a document without its end.
    rows = json.loads(_json_of(ROWS_OF_Q_UP_TO_6))
    assert list(written_before) == [1, 2, 3, 5, 6, 7]
    assert written_before[1] == ""
    for q, before in written_before.items():
        if q > 1:
            assert json.loads(before + "\n]") == [row for row in rows if int(row["q"]) < q]
    assert stdout.getvalue() == written_before[7]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_start_row_counts_no_task_wholly_before_it(capsys, monkeypatch, tmp_path, workers):
    full = run_cli(capsys, *RESUMED, "--workers", "1")[1]
    header, *body = full.splitlines(keepends=True)
    assert len(body) == 40  # 20 classes of q <= 10 at each of two x
    # Worker processes are forked from this one, so the calls go to a file.
    calls = tmp_path / "calls"
    count = progression_stats._coprime_count

    def noting(limit, modulus):
        with open(calls, "a", encoding="utf-8") as fh:
            fh.write(f"{limit},{modulus.q}\n")
        return count(limit, modulus)

    # The coprime count runs once per (x, q), as its classes are counted.
    monkeypatch.setattr(progression_stats, "_coprime_count", noting)
    # Task boundaries 0, 4, 20 and 40; rows inside a task 6 and 25; past the end 41.
    for k in (0, 4, 6, 20, 25, 40, 41):
        calls.write_text("")
        with time_limit(60):
            code, out, _ = run_cli(capsys, *RESUMED, "--workers", workers, "--start-row", str(k))
        assert (code, out) == (0, header + "".join(body[k:])), k
        # The (x, q) tasks counted are exactly those with a row from k on.
        kept = dict.fromkeys(",".join(row.split(",")[:2]) + "\n" for row in body[k:])
        assert sorted(calls.read_text().splitlines(keepends=True)) == sorted(kept), k


# At x = 2^20 the classes of these q share host moduli: 2, 3, 5, 6, 7 and more
# are counted through 210.
HOSTED = ["scan", "--x", "1048576", "--q-max", "60", "--a", "all"]
HOSTED_ROWS = (
    "1048576,1,0,637461,637461,0,1,0,1,1\n"
    "1048576,2,1,424973,424973,0,1,0,1,0.368567304323\n"
)


def test_a_cached_x_counts_through_hosts_with_the_same_bytes_on_both_paths(
    capsys, monkeypatch
):
    counted = []
    count = progression_stats._class_counts
    monkeypatch.setattr(
        progression_stats, "_class_counts",
        lambda limit, q, residues: counted.append(q) or count(limit, q, residues),
    )
    code, out, err = serial = run_cli(capsys, *HOSTED, "--workers", "1")
    data = out.encode("utf-8")
    assert (code, err, len(data), hashlib.sha256(data).hexdigest()) == (
        0, "", 51064, "5ab3562fc129998d014a924f79e6b656f812c29df4e43453cbdd65795652e318"
    )
    assert out.startswith(CSV_HEADER + "\n" + HOSTED_ROWS)
    # Hosts above the window were read, and the q they serve were not read alone.
    assert 210 in counted and 2 not in counted and 3 not in counted
    with time_limit(120):
        assert run_cli(capsys, *HOSTED, "--workers", "2") == serial


@pytest.mark.parametrize("workers", ["1", "2"])
def test_scan_writes_its_first_rows_before_listing_any_later_q(monkeypatch, workers):
    stdout = StringIO()
    written_before = {}
    residues_for = cli_runner._residues_for

    def noting(modulus, policy, seed):
        written_before[modulus.q] = stdout.getvalue()
        return residues_for(modulus, policy, seed)

    monkeypatch.setattr(cli_runner, "_residues_for", noting)
    monkeypatch.setattr(sys, "stdout", stdout)
    # A pool of two runs its calls in this process, in order.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(cli_runner.os, "cpu_count", lambda: 2)
    assert main([*HOSTED, "--workers", workers]) == 0
    # q = 1 is listed and counted alone.  The other 36 q are listed once its
    # rows are out, call by call for the host plan of each: serially in one
    # call, and in a pool of two in 8 calls of at most 37 // 8 + 1 = 5 q.
    assert written_before.pop(1) == ""
    assert sorted(written_before) == [q for q in range(2, 61) if is_squarefree(q)]
    first_rows = CSV_HEADER + "\n" + HOSTED_ROWS.splitlines(keepends=True)[0]
    listed_after = sorted(set(written_before.values()), key=len)
    assert listed_after[0] == first_rows
    assert all(text.startswith(first_rows) for text in listed_after)
    assert len(listed_after) == {"1": 1, "2": 8}[workers]


def test_two_scans_in_one_process_count_their_hosts_alike(capsys, monkeypatch):
    # Host counts live only while their x's tasks are counted, so a second
    # scan in the same process reads them again, as a fresh process would.
    counted = []
    count = progression_stats._class_counts
    monkeypatch.setattr(
        progression_stats, "_class_counts",
        lambda limit, q, residues: counted.append((limit, q)) or count(limit, q, residues),
    )
    first = run_cli(capsys, *HOSTED, "--workers", "1")
    calls = list(counted)
    assert run_cli(capsys, *HOSTED, "--workers", "1") == first
    assert counted == calls * 2 and (1048576, 210) in calls


@pytest.mark.parametrize("workers", ["1", "2"])
def test_start_row_inside_a_host_group_gives_the_tail(capsys, workers):
    full = run_cli(capsys, *HOSTED, "--workers", "1")[1]
    header, *body = full.splitlines(keepends=True)
    # Rows 1, 2-3 and 4-7 are q = 2, 3 and 5, which share the host 210: k = 1
    # starts at its first member, 3 and 6 inside later ones, and the last row
    # is that of q = 59, counted alone.
    for k in (1, 3, 6, 100, len(body) - 1):
        with time_limit(120):
            code, out, _ = run_cli(capsys, *HOSTED, "--workers", workers, "--start-row", str(k))
        assert (code, out) == (0, header + "".join(body[k:])), k


def test_scan_class_counts_folded_off_the_coprime_count_is_exit_3(capsys, monkeypatch):
    counts_of = progression_stats._class_counts

    def one_too_many(limit, q, residues):
        counts = counts_of(limit, q, residues)
        if q == 210:
            counts[residues.index(4)] += 1  # 4 mod 210 lifts 1 mod 3, and no class of q = 2
        return counts

    monkeypatch.setattr(progression_stats, "_class_counts", one_too_many)
    code, out, err = run_cli(capsys, *HOSTED, "--workers", "1")
    # The rows of q = 1, counted alone, and of q = 2, folded right, are written.
    assert (code, out) == (3, CSV_HEADER + "\n" + HOSTED_ROWS)
    assert err == (
        "internal error: class counts of q = 3 at x = 1048576 sum to 478087, "
        "not to the coprime count 478086\n"
    )


def test_each_host_modulus_is_lifted_once(capsys, monkeypatch):
    lifted = []
    lifts = progression_stats._lifts
    monkeypatch.setattr(
        progression_stats, "_lifts",
        lambda host, classes: lifted.append(host) or lifts(host, classes),
    )
    read = []
    count = progression_stats._class_counts
    monkeypatch.setattr(
        progression_stats, "_class_counts",
        lambda limit, q, residues: read.append(q) or count(limit, q, residues),
    )
    assert run_cli(capsys, *HOSTED, "--workers", "1")[0] == 0
    # The cost rule lifts each planned group once, and its read reuses the lift.
    assert 210 in lifted and len(lifted) == len(set(lifted))
    assert {q for q in read if q > 60} <= set(lifted)


def test_scan_sieves_only_its_q_window(capsys, monkeypatch):
    calls = []
    flags_fn = cli_runner.squarefree_flags
    monkeypatch.setattr(
        cli_runner, "squarefree_flags",
        lambda start, length: calls.append((start, length)) or flags_fn(start, length),
    )
    code, out, _ = run_cli(
        capsys, "scan", "--x", "100000", "--q-min", "99990", "--q-max", "200000"
    )
    assert code == 0
    assert [line.split(",")[1] for line in out.splitlines()[1:]] == [
        str(q) for q in range(99990, 100001) if is_squarefree(q)
    ]
    # Every x below q_min: an empty window.
    assert run_cli(capsys, "scan", "--x", "50", "--q-min", "60", "--q-max", "70")[0] == 0
    assert calls == [(99990, 11), (60, 0)]


def _listed_sample(modulus, k, seed):
    """scan's sample drawn from a list of every unit of q: the oracle of the draw by rank."""
    q = modulus.q
    units = [a for a in range(1, q) if gcd(a, q) == 1]
    if len(units) <= k:
        return units
    return sorted(random.Random(f"{seed}:{q}").sample(units, k))


@settings(max_examples=300, deadline=None)
@given(
    q=st.integers(2, 10**5).filter(is_squarefree),
    seed=st.integers(0, 2**32),
    data=st.data(),
)
def test_sampled_residues_match_a_listing_of_every_unit(q, seed, data):
    modulus = factor_modulus(q)
    k = data.draw(st.one_of(st.integers(1, 64), st.integers(1, modulus.phi + 1)))
    assert cli_runner._residues_for(modulus, ("sample", k), seed) == _listed_sample(
        modulus, k, seed
    )


@pytest.mark.parametrize("q", [2, 30030, 510510])
def test_sampled_residues_of_edge_moduli_match_a_listing(q):
    modulus = factor_modulus(q)
    phi = modulus.phi
    for k in sorted({1, 2, 20, 200, phi // 2, phi - 1, phi, phi + 1} - {0}):
        for seed in (0, 7, 2026):
            assert cli_runner._residues_for(modulus, ("sample", k), seed) == _listed_sample(
                modulus, k, seed
            ), (k, seed)


def test_a_sample_drawn_by_a_sweep_holds_only_its_units():
    # At q = 510510 a sample of 1000 of its 92160 units is drawn by one sweep.
    modulus = factor_modulus(510510)
    tracemalloc.start()
    try:
        residues = cli_runner._residues_for(modulus, ("sample", 1000), 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert residues == _listed_sample(modulus, 1000, 0)
    assert peak < 2**20


class _CharCount:
    """A stdout that keeps only the number of characters written to it, so
    tracemalloc sees what the command holds, not a copy of its output."""

    chars = 0

    def write(self, text):
        self.chars += len(text)
        return len(text)

    def flush(self):
        pass


def _traced_peak(command):
    """(exit code, characters written, tracemalloc peak) of one command, from cold flag caches."""
    progression_stats._flag_prefix.cache_clear()
    progression_stats._squarefree_counts.cache_clear()
    stdout = _CharCount()
    tracemalloc.start()
    try:
        with redirect_stdout(stdout):
            code = main(command.split())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, stdout.chars, peak


def test_a_scan_of_many_q_holds_no_string_per_class():
    # 77,164 rows over 366 q: each q's classes are held as 8-byte integers
    # for its x, and its lines only until they are written (0.31 times the
    # output).  When every class of every q was listed with its CSV columns
    # before the first row, and held to the end, the peak was 2.4 times it.
    code, chars, peak = _traced_peak("scan --x 262144 --q-max 600 --a all --workers 1")
    assert code == 0 and chars > 5 * 10**6
    assert peak < chars / 2, peak / chars


def test_a_json_scan_of_one_large_q_holds_one_chunk():
    # The JSON document is written one chunk of rows at a time (3.2 times
    # the output at this q); as one dump of every row it peaked at 10.6 times.
    code, chars, peak = _traced_peak(
        "scan --x 1048576 --q-min 65537 --q-max 65537 --a all --format json --workers 1"
    )
    assert code == 0 and chars > 15 * 10**6
    assert peak < 3.5 * chars, peak / chars


class _Writes:
    """A stdout that keeps each write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


def test_a_large_q_is_built_and_written_2_16_rows_at_a_time(monkeypatch):
    # q = 131071 has 131070 classes; --start-row starts the first chunk.
    scan = "scan --x 131072 --q-min 131071 --q-max 131071 --a all --workers 1".split()
    least = cli_runner.least_squarefree_members
    full = None
    for start, sizes in ((0, [65536, 65534]), (65535, [65535]), (70000, [61070])):
        calls = []
        monkeypatch.setattr(
            cli_runner, "least_squarefree_members",
            lambda x, modulus, residues: calls.append(len(residues)) or least(x, modulus, residues),
        )
        stdout = _Writes()
        with redirect_stdout(stdout):
            assert main([*scan, "--start-row", str(start)]) == 0
        # n_q_a is found per chunk, and each chunk is one write.
        assert calls == sizes, start
        assert [text.count("\n") for text in stdout.writes] == [sizes[0] + 1, *sizes[1:]]
        header, *rows = "".join(stdout.writes).splitlines(keepends=True)
        full = full or rows
        assert (header, rows) == (CSV_HEADER + "\n", full[start:]), start


def test_a_scan_of_one_large_q_holds_no_object_per_row():
    # One (x, q) of 65536 rows: its lines, their joined chunk and its
    # integer columns are each about its output's size (4.2 times it in
    # all).  A record and a Fraction per row, held while the lines were
    # built, took the peak to 9.8 times it, and the CSV columns of every
    # class, listed before the first row, to 5.9 times.
    code, chars, peak = _traced_peak(
        "scan --x 1048576 --q-min 65537 --q-max 65537 --a all --workers 1"
    )
    assert code == 0 and chars > 5 * 10**6
    assert peak < 4.5 * chars, peak / chars


def test_a_small_sample_of_a_paper_scale_modulus_lists_no_unit(monkeypatch):
    """sample:20 at q = 223092870, with phi(q) = 36495360, finds its classes by rank."""

    def unreachable(*args):
        raise AssertionError("listed the units of q")

    modulus = factor_modulus(223092870)
    monkeypatch.setattr(cli_runner, "gcd", unreachable)
    with time_limit(30):
        residues = cli_runner._residues_for(modulus, ("sample", 20), 5)
    assert all(gcd(a, modulus.q) == 1 for a in residues)
    # Each a is the unit whose rank among the units of q is the drawn index.
    ranks = [count_coprime(a, modulus) - 1 for a in residues]
    assert ranks == sorted(random.Random(f"5:{modulus.q}").sample(range(modulus.phi), 20))


def test_scan_workers_do_not_change_output(capsys):
    for args in (
        ["scan", "--x", "300", "--q-max", "40"],
        ["scan", "--x", "1000", "300", "--q-max", "40", "--a", "all"],
        # q = 2 and q = 6 both reject a = 2: the error names the first.
        ["scan", "--x", "100", "1000", "--q-max", "30", "--a", "2"],
    ):
        serial = run_cli(capsys, *args, "--workers", "1")
        with time_limit(60):
            parallel = run_cli(capsys, *args, "--workers", "2")
        assert serial == parallel


def test_scan_worker_that_dies_is_exit_3(capsys, monkeypatch):
    test_process = os.getpid()

    def exit_in_a_worker(*args):
        if os.getpid() == test_process:
            raise AssertionError("scan counted in the test process, not in a worker")
        os._exit(1)

    monkeypatch.setattr(cli_runner.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(cli_runner, "error_terms", exit_in_a_worker)
    with time_limit(60):
        code, out, err = run_cli(capsys, "scan", "--x", "300", "--q-max", "40", "--workers", "2")
    assert (code, out) == (3, "")
    assert err.startswith("internal error: A process in the process pool was terminated")


@pytest.mark.parametrize("workers", ["0", "-1", "abc", "1.5"])
def test_scan_workers_must_be_a_positive_integer(capsys, monkeypatch, workers):
    with pytest.raises(SystemExit) as exc:
        main([*SCAN, "--workers", workers])
    assert exc.value.code == 2
    assert "argument --workers" in capsys.readouterr().err
    # SQFLAB_WORKERS is the default of scan's --workers alone.
    monkeypatch.setenv("SQFLAB_WORKERS", workers)
    with pytest.raises(SystemExit) as exc:
        main(SCAN)
    assert exc.value.code == 2
    assert "argument --workers" in capsys.readouterr().err
    assert run_cli(capsys, *SCAN, "--workers", "1")[0] == 0
    assert run_cli(capsys, "optimize")[0] == 0


class _SerialPool:
    """A stand-in for ProcessPoolExecutor that records its size and starts no process."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def map(self, func, iterable, chunksize=1):
        return map(func, iterable)

    def shutdown(self, cancel_futures=False):
        pass


@pytest.mark.parametrize(
    "workers, q_max, cores, size",
    [
        ("1000000", "40", 3, 3),  # capped at the cores
        ("1000000", "3", 8, 3),  # capped at the q tasks: 1, 2, 3
        ("2", "40", 8, 2),
        ("1000000", "40", 1, None),  # one core: no pool
        ("1000000", "1", 8, None),  # one q task: no pool
    ],
)
def test_scan_pool_is_capped_by_tasks_and_cores(capsys, monkeypatch, workers, q_max, cores, size):
    monkeypatch.setattr(_SerialPool, "sizes", [])
    # scan imports the pool only when it starts one.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(cli_runner.os, "cpu_count", lambda: cores)
    args = ["scan", "--x", "300", "--q-max", q_max, "--a", "all"]
    pooled = run_cli(capsys, *args, "--workers", workers)
    assert _SerialPool.sizes == ([size] if size else [])
    assert pooled == run_cli(capsys, *args, "--workers", "1")


@pytest.mark.parametrize(
    "argv, code, err",
    [
        ("optimize --menu default", 0, ""),
        ("error-term --x 0 --q 1 --a 0", 2, "error: x must be >= 1, got 0\n"),
        ("bogus", 2, "sqflab: error: argument command: invalid choice: 'bogus'"),
    ],
)
def test_console_entry_point_exits_with_mains_code(capsys, argv, code, err):
    # run() is what the installed `sqflab` script calls: it reads sys.argv
    # and exits with main's code, or with argparse's on a usage error.
    src = Path(__file__).resolve().parents[1] / "src"
    script = (
        f"import sys\nsys.path.insert(0, {str(src)!r})\n"
        "from sqflab.cli_runner import run\nrun()\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script, *argv.split()], capture_output=True, timeout=60
    )
    assert done.returncode == code
    assert err in done.stderr.decode()
    if code == 0:
        assert (main(argv.split()), done.stderr) == (0, b"")
        assert done.stdout == capsys.readouterr().out.encode()


def test_runs_on_the_standard_library_alone():
    # No site-packages: every module imports and a command runs without them.
    src = Path(__file__).resolve().parents[1] / "src"
    script = (
        "import pkgutil, sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "import sqflab\n"
        "for info in pkgutil.iter_modules(sqflab.__path__, 'sqflab.'):\n"
        "    __import__(info.name)\n"
        "from sqflab.cli_runner import main\n"
        "raise SystemExit(main(['optimize']))\n"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", script], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["theta"] == "25/36"


def test_a_cold_start_loads_no_process_pool():
    # The probe that the benchmark times as set-up: only a pooled scan imports the pool.
    src = Path(__file__).resolve().parents[1] / "src"
    script = (
        f"import sys\nsys.path.insert(0, {str(src)!r})\n"
        "from sqflab.cli_runner import build_parser\nbuild_parser()\n"
        "print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_scan_into_a_closed_pipe_exits_2_with_one_line():
    # At x = 10^10 these 6077 squarefree moduli take minutes; the reader stops after
    # the header and two rows and closes the pipe.
    src = Path(__file__).resolve().parents[1] / "src"
    script = (
        f"import sys\nsys.path.insert(0, {str(src)!r})\n"
        "from sqflab.cli_runner import run\nrun()\n"
    )
    argv = "scan --x 10000000000 --q-min 10000 --q-max 20000 --a 1".split()
    proc = subprocess.Popen(
        [sys.executable, "-c", script, *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    try:
        with time_limit(30):
            lines = [proc.stdout.readline() for _ in range(3)]
        proc.stdout.close()
        assert proc.wait(timeout=10) == 2
        err = proc.stderr.read().decode()
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert lines[0].decode() == CSV_HEADER + "\n" and all(lines)
    assert err == "error: [Errno 32] Broken pipe\n"


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
WINDOW = (
    f"error: the modulus window [100000, {10**14}] holds {10**14 - 99999} integers, "
    f"above the budget of {cli_runner.SCAN_WINDOW_MAX}\n"
)
BUDGET = [
    (["error-term", "--x", str(10**13), "--q", "2", "--a", "1"], WORK),
    (["pipeline", "--x", str(10**13), "--q", "2", "--a", "1"], WORK),
    (["scan", "--x", "100", str(10**13), "--q-min", "2", "--q-max", "3"], WORK),
    # x // q is within the budget here; isqrt(x) is not.
    (["pipeline", "--x", str(10**15), "--q", "1000003", "--a", "1"], ROOT),
    (["error-term", "--x", str(10**15), "--q", "1000003", "--a", "1"], ROOT),
    # Both error-term budgets hold here; the modulus window does not.
    (["scan", "--x", str(10**14), "--q-min", "100000", "--q-max", str(10**14)], WINDOW),
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


def test_scan_window_budget_counts_only_the_integers_below_the_largest_x(capsys, monkeypatch):
    monkeypatch.setattr(cli_runner, "SCAN_WINDOW_MAX", 10)
    assert run_cli(capsys, "scan", "--x", "10", "--q-max", "1000")[0] == 0
    code, out, err = run_cli(capsys, "scan", "--x", "11", "--q-max", "1000")
    assert (code, out) == (2, "")
    assert err == "error: the modulus window [1, 11] holds 11 integers, above the budget of 10\n"


def test_scan_all_classes_budget_refuses_before_listing(capsys, monkeypatch):
    def unreachable(*args):
        raise AssertionError("listed the units of q")

    monkeypatch.setattr(cli_runner, "SCAN_CLASSES_MAX", 10)
    # phi(11) = 10 is at the budget; phi(13) = 12 is above it.
    scan = ["scan", "--x", "100", "--a", "all", "--workers", "1"]
    assert run_cli(capsys, *scan, "--q-min", "11", "--q-max", "11")[0] == 0
    monkeypatch.setattr(cli_runner, "gcd", unreachable)
    code, out, err = run_cli(capsys, *scan, "--q-min", "13", "--q-max", "13")
    assert (code, out) == (2, "")
    assert err == "error: --a all at q = 13 lists phi(q) = 12 units, above the budget of 10\n"


def test_scan_sampled_classes_budget_refuses_before_listing(capsys, monkeypatch):
    def unreachable(*args):
        raise AssertionError("listed the classes of q")

    monkeypatch.setattr(cli_runner, "SCAN_CLASSES_MAX", 10)
    # A sample of 10 of the 12 units of 13 is at the budget; one of 11 is above it.
    scan = ["scan", "--x", "100", "--q-min", "13", "--q-max", "13", "--workers", "1"]
    assert run_cli(capsys, *scan, "--a", "sample:10")[0] == 0
    monkeypatch.setattr(cli_runner, "_residues_for", unreachable)
    code, out, err = run_cli(capsys, *scan, "--a", "sample:11")
    assert (code, out) == (2, "")
    assert err == "error: --a sample:11 at q = 13 lists 11 units, above the budget of 10\n"


def test_scan_all_classes_of_a_paper_scale_modulus_exit_2(capsys):
    with time_limit(5):
        code, out, err = run_cli(
            capsys, "scan", "--x", str(10**12), "--q-min", "223092870", "--q-max", "223092870",
            "--a", "all", "--workers", "1",
        )
    assert (code, out) == (2, "")
    assert err == (
        "error: --a all at q = 223092870 lists phi(q) = 36495360 units, "
        f"above the budget of {cli_runner.SCAN_CLASSES_MAX}\n"
    )


def test_scan_refuses_an_over_budget_q_before_listing_any_class(capsys, monkeypatch):
    # q = 1048582 is within the budget, q = 1048583 is not: nothing of the
    # first is listed before the second is refused.
    listed = []
    residues_for = cli_runner._residues_for
    monkeypatch.setattr(
        cli_runner, "_residues_for",
        lambda modulus, policy, seed: listed.append(modulus.q) or residues_for(modulus, policy, seed),
    )
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "scan", "--x", "1048583", "--q-min", "1048582", "--q-max", "1048583",
        "--a", "all", "--workers", "1",
    )
    assert time.perf_counter() - start < 0.5
    assert (code, out, listed) == (2, "", [])
    assert err == (
        "error: --a all at q = 1048583 lists phi(q) = 1048582 units, "
        "above the budget of 1048576\n"
    )


def test_count_box_budget_spares_the_unwalked_side(capsys):
    # For v > 0 there is no mirror, so only the n side counts.
    code, out, _ = run_cli(
        capsys, "count-box", "--u", "1", "--v", "2", "--m", "1e9", "--n", "10",
        "--q", "7", "--a", "1",
    )
    assert code == 0
    assert json.loads(out)["count"] > 0


EXPONENT = "unsupported exponent u={}; only u in {{1, 2}} is implemented"


@pytest.mark.parametrize(
    "command, message",
    [
        # 2 * side overflows to inf before any floor.
        ("--u 1 --v -2 --m 1e308 --n 10 --q 101 --a 3 --dyadic", "dyadic side m = 1e+308"),
        ("--u 1 --v 2 --m 10 --n 1e308 --q 101 --a 3 --dyadic", "dyadic side n = 1e+308"),
        ("--u 1 --v 2 --m 1e308 --n 10 --q 101 --a 3 --dyadic", "dyadic side m = 1e+308"),
        # The mirror of v < 0 has u = -v; the box's own u is checked first.
        ("--u 1 --v -3 --m 9000000 --n 9000000 --q 999983 --a 5", EXPONENT.format(3)),
        ("--u 3 --v -4 --m 100 --n 100 --q 1009 --a 5", EXPONENT.format(3)),
        # Empty boxes, whose mirror cannot be counted either.
        ("--u 1 --v -3 --m 0.5 --n 100 --q 1009 --a 5", EXPONENT.format(3)),
        ("--u 3 --v 1 --m 100 --n 0.5 --q 1009 --a 5", EXPONENT.format(3)),
    ],
)
def test_count_box_refuses_before_counting(capsys, monkeypatch, command, message):
    def unreachable(*args):
        raise AssertionError("counted a refused box")

    monkeypatch.setattr(congruence_count, "_residue_window", unreachable)
    code, out, err = run_cli(capsys, "count-box", *command.split())
    assert (code, out) == (2, "")
    assert f"error: {message}" in err


def test_readme_commands_match_golden_digests(capsys):
    """The README commands print the bytes recorded in perfbench/golden.json."""
    for case in json.loads(GOLDEN.read_text(encoding="utf-8")):
        code, out, _ = run_cli(capsys, *case["command"].split())
        data = out.encode("utf-8")
        assert code == 0, case["command"]
        assert (len(data), hashlib.sha256(data).hexdigest()) == (
            case["bytes"], case["sha256"]
        ), case["command"]


def test_readme_library_example_runs():
    section = README.read_text(encoding="utf-8").split("\n## Library example\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})


def _parsed(parser, argv):
    """(Namespace or None, exit code, stdout, stderr) of one parse."""
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            return parser.parse_args(argv), None, out.getvalue(), err.getvalue()
        except SystemExit as exc:
            return None, exc.code, out.getvalue(), err.getvalue()


def test_a_parser_of_one_subcommand_parses_as_the_full_parser(tmp_path):
    commands = [
        case["command"]
        for path in (GRID, GOLDEN)
        for case in json.loads(path.read_text(encoding="utf-8"))
    ]
    # Usage errors and help texts of each subcommand's own parser.
    commands += [
        "pipeline", "pipeline --help", "scan --x", "scan -h extra", "count-box --u 1",
        "error-term --x abc --q 1 --a 1", "optimize --menu nope", "optimize optimize",
    ]
    usage_errors = 0
    for command in commands:
        argv = command.replace("{tmp}", str(tmp_path)).split()
        if argv[0] not in cli_runner.COMMANDS:
            continue
        one = _parsed(cli_runner.build_parser(argv[0]), argv)
        assert one == _parsed(cli_runner.build_parser(), argv), command
        usage_errors += one[1] is not None
    assert usage_errors >= 15


def test_a_parser_of_one_subcommand_registers_it_alone():
    def choices(parser):
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        return list(sub.choices)

    assert choices(cli_runner.build_parser("optimize")) == ["optimize"]
    assert choices(cli_runner.build_parser()) == list(cli_runner.COMMANDS)


def test_an_empty_argv_prints_the_full_usage_line(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    assert capsys.readouterr() == (
        "",
        "usage: sqflab [-h] {error-term,scan,count-box,pipeline,optimize} ...\n"
        "sqflab: error: the following arguments are required: command\n",
    )


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
    # q > isqrt(x) + 1, so the top column reaches past the head-residue
    # table; recorded before that column was counted from its m side.
    ("pipeline --x 10000000000 --q 9699690 --a 1", 17669,
     "3c0675164b08e644d5a125d54659d03abe966f6cb19ea4847f27b25bdfb055ab"),
    ("pipeline --x 10000000000 --q 1000000007 --a 3", 28924,
     "314e6db0b2fc6fe8d8f8b0a2e46fcbb12b3b5a4e65c9d80ebd66b3679c4d4dd0"),
    # Recorded before every count took its residues from batch inversion
    # over an n-window: a dyadic box with N < q < 2N, the u = 2 and v = 1
    # orientations, a q above 2^63 (list-held residues), and a decomposition
    # pass with q > isqrt(x) above the flag cache.
    ("count-box --u 1 --v -2 --m 3000 --n 5000 --q 7919 --a 3 --dyadic", 512,
     "38554e95a817cd611e7628e1a301f6cd4fe09db162722be69c3112737cd70677"),
    ("count-box --u 2 --v -1 --m 20000 --n 3000 --q 3981 --a 7", 516,
     "64349dea6681404d395426f917aa69178f630d83b77408771ed9fa5d0913808e"),
    ("count-box --u 1 --v 1 --m 5000 --n 20000 --q 30030 --a 17 --dyadic", 445,
     "e35d5918dc76aeeecbe80457d08815e711dceaa69465cf9663496faea6441d85"),
    ("count-box --u 1 --v -2 --m 2000 --n 3000 --q 32589158477190044730 --a 59", 623,
     "d6cd7788349dc60827e5f0c96107c5b80e3f6a0503e72a861d7d11b69b1cb14e"),
    ("error-term --x 50000000 --q 1000003 --a 1 --decompose", 249,
     "d503e27a642a6c56d917c6a23604d7dddef5bacfbc242806bad8bd6b20af9416"),
    # Recorded before boxes were counted from sorted residue multisets: a
    # folded box with a partial period and repeated c, the u = 2 roots of
    # v = 2 and v = -2, and a q far above both spans.
    ("count-box --u 2 --v -2 --m 4000 --n 3000 --q 1001 --a 4 --dyadic", 511,
     "8761f5d9eb5345a399b9a8da4721c8b96fc81ca4b7e1e79a4129cf935d536f14"),
    ("count-box --u 2 --v 2 --m 700 --n 2500 --q 2310 --a 1", 441,
     "965ec31bd7af2164ece0d695edfe382d71b832f902293054f75d6a5af950be81"),
    ("count-box --u 1 --v 2 --m 9000 --n 7000 --q 3003 --a 5 --dyadic", 445,
     "2bd378a9c8eaac2f5b1a1b4dcf954c4553afb86aa76279f9a6a450b9925b93c4"),
    ("count-box --u 2 --v -2 --m 2500 --n 2500 --q 223092870 --a 1", 610,
     "5fca4c5e2eb383cb91f26fa90b67269ab3e0de195f6aa98e24090922c3efcb34"),
    # Recorded before the u = 2 roots were solved once per residue mod each
    # prime of q: 297083 of 3*297083 above 16 times a short window (solved
    # per residue), the prime 70793 and 23*19421 under it (swept), a full
    # period of 510510 and partial ones; each orientation runs u = 2 on one
    # side of the symmetry check.
    ("count-box --u 2 --v -1 --m 3000 --n 2500 --q 891249 --a 5", 599,
     "4c1bb9fb9da21723cf1cde0b01653044d8ce62327da6cc5efcc173341732cc3e"),
    ("count-box --u 1 --v -2 --m 30000 --n 20000 --q 70793 --a 3 --dyadic", 515,
     "1fdce7509736a52df85498d6309958ddffea225e59cbd2120360d5a71b5f5740"),
    ("count-box --u 2 --v -1 --m 40000 --n 600000 --q 510510 --a 19", 520,
     "05a34de02ebc94566340c689c97f03b8eb64de7292770426f7d710df420e5b14"),
    ("count-box --u 1 --v -2 --m 9000 --n 700 --q 446683 --a 2 --dyadic", 595,
     "77fb607a64b9bd69345c32633b4586772b56d259a17a4aa0a7a8ab0e09d0079b"),
]


# Scans inside the flag cache whose prefix spans several blocks of the
# class count, recorded before the classes of one (x, q) were read block by
# block: x at 2^22, just above 2^21 and in between; q below 16, where a
# block holds the most rows; a sample; two workers; and a q near 2^20, whose
# classes of four flags are each read in one slice.
ACROSS_FLAG_BLOCKS = [
    ("scan --x 2097153 3000017 4194304 --q-max 81 --a all", 286119,
     "718ad77a35678e6472f039260a2ffb28099a3562a7bf2995e8c885cbbaa4238a"),
    ("scan --x 4194304 --q-max 15 --a all", 3785,
     "688b6c0db66c123f4094965064cb8cb3eb542b214d4445c72ce720fa5e549233"),
    ("scan --x 3000017 4194304 --q-min 100 --q-max 400 --a sample:5", 130851,
     "12e7485af071486ef20b0b1513519857ea43d278ce8c13aba7d56ae57cbf1f15"),
    ("scan --x 2097153 4194304 --q-max 40 --a all --workers 2", 47425,
     "54a097bce36dc65ce11498dae960524fa984e94f7477abd1f9e5ff1bf07d1ac1"),
    ("scan --x 4194304 --q-min 1048573 --q-max 1048573 --a 5", 158,
     "eb9be4c8d8c33bf3c6665baca73088925e4a216dd2a75be41dc8344c9f2ce713"),
]


# Sampled scans of large q, recorded while each sample was drawn from a list
# of every unit of q: one q, a window of q, and JSON output.
SAMPLED_BY_RANK = [
    ("scan --x 10000000 --q-min 9699690 --q-max 9699690 --a sample:20", 1926,
     "d8e8d802b994f88b8ba71c924dab3ba310ed440f5d3722dbe19ab77e2bebfc3a"),
    ("scan --x 10000000 --q-min 9699600 --q-max 9699700 --a sample:20", 116110,
     "a9844860d71d624d6b996e61e84409fca4ca1f0db9d95841cf9b976c7d479976"),
    ("scan --x 2000000 --q-min 510510 --q-max 510530 --a sample:12 --seed 3 --format json",
     48616, "19978b5c98d2f1a98cfda2552af5612158f129c8ef2eed4b1846af81700bb0d3"),
]


def check_pinned_digest(capsys, command, size, digest):
    with time_limit(120):
        code, out, _ = run_cli(capsys, *command.split())
    data = out.encode("utf-8")
    assert code == 0
    assert (len(data), hashlib.sha256(data).hexdigest()) == (size, digest)


# One check under three names, so that each table keeps its test ids.
@pytest.mark.parametrize("command, size, digest", ABOVE_THE_CACHE)
def test_outputs_above_the_flag_cache_match_pinned_digests(capsys, command, size, digest):
    check_pinned_digest(capsys, command, size, digest)


@pytest.mark.parametrize("command, size, digest", ACROSS_FLAG_BLOCKS)
def test_scans_across_flag_blocks_match_pinned_digests(capsys, command, size, digest):
    check_pinned_digest(capsys, command, size, digest)


@pytest.mark.parametrize("command, size, digest", SAMPLED_BY_RANK)
def test_sampled_scans_of_large_moduli_match_pinned_digests(capsys, command, size, digest):
    check_pinned_digest(capsys, command, size, digest)


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


# q = 1; q <= isqrt(x); q > isqrt(x) + 1, where the top column counts from its m side.
@pytest.mark.parametrize("x, q, a", [(10**4, 1, 0), (10**6, 101, 3), (10**6, 1009, 5)])
def test_pipeline_report_returns_the_payload_with_exact_fractions(capsys, x, q, a):
    rationals = {
        "alpha", "e_direct", "e_decomposed", "head", "tail_small_n", "main_term_removed",
        "majorization_lhs", "majorization_rhs",
    }
    report = pipeline_report(x, factor_modulus(q), a)
    assert {key for key, v in report.items() if type(v) is Fraction} == rationals
    code, out, _ = run_cli(capsys, "pipeline", "--x", str(x), "--q", str(q), "--a", str(a))
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == list(report)
    assert [list(row) for row in payload["boxes"]] == [list(row) for row in report["boxes"]]
    assert payload == {key: str(v) if key in rationals else v for key, v in report.items()}


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


def test_optimize_theta_below_the_anchor_domain(tmp_path, capsys):
    # The anchor choices are defined on [1/2, 1) only; a theta below it is
    # reported with no anchor checks, as one at 1 or above is.
    menu = tmp_path / "menu.txt"
    menu.write_text("t 3/5 0\n")
    code, out, err = run_cli(capsys, "optimize", "--menu-file", str(menu), "--rho-min", "1/4")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert (payload["theta"], payload["anchor_checks"]) == ("2/5", None)
    assert payload["corollary_exponent"] == "5/2"


@pytest.mark.parametrize(
    "argv",
    [["--menu", "default"], ["--menu", "one-sided"], ["--menu-file", "{menu}", "--rho-min", "0"]],
)
def test_optimize_prints_the_anchor_checks_that_verify_choices_returns(tmp_path, capsys, argv):
    # The menu file's theta, 2/5, lies below the anchor domain [1/2, 1).
    menu = tmp_path / "menu.txt"
    menu.write_text("t 3/5 0\n")
    code, out, err = run_cli(capsys, "optimize", *[a.replace("{menu}", str(menu)) for a in argv])
    assert (code, err) == (0, "")
    payload = json.loads(out)
    printed, theta = payload["anchor_checks"], Fraction(payload["theta"])
    expected = None
    if RHO_MIN <= theta < 1:
        choice = verify_choices(theta)
        exact = {k for k, v in choice.items() if type(v) is Fraction}
        assert exact == {"rho", "m0_exponent", "n0_exponent"}
        expected = {k: str(v) if k in exact else v for k, v in choice.items()}
    # json.dumps keeps key order, so this compares the keys' order too.
    assert json.dumps(printed) == json.dumps(expected)
    assert (printed is None) == (argv[0] == "--menu-file")


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run_cli(
        capsys, "error-term", "--x", "30", "--q", "5", "--a", "1",
        "--output", str(target),
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["error"] == "5/4"


@pytest.mark.parametrize(
    "command",
    ["error-term --x 30 --q 5 --a 1 --decompose", "scan --x 1000 --q-max 5 --a all"],
)
def test_output_into_a_missing_directory_exits_2(tmp_path, capsys, command):
    target = tmp_path / "missing" / "out"
    code, out, err = run_cli(capsys, *command.split(), "--output", str(target))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and str(target) in err
    assert not target.parent.exists()


# One (x, q) of phi(q) = 1048572 rows: before its first byte, scan lists and
# counts every class (1.6-2.3 s on a 2-core VM), and it ends after 5.3-7.3 s
# at 124 MB max RSS.
ONE_LARGE_Q = "scan --x 4194304 --q-min 1048573 --q-max 1048573 --a all --workers 1".split()


def _unreachable(*args, **kwargs):
    raise AssertionError("the command's work ran")


@pytest.mark.parametrize("command", [
    ONE_LARGE_Q, "pipeline --x 1000000000000 --q 223092870 --a 1".split()
])
def test_an_output_that_cannot_be_opened_is_refused_before_any_work(
    tmp_path, capsys, monkeypatch, command
):
    monkeypatch.setattr(cli_runner, "_scan_tasks", _unreachable)
    monkeypatch.setattr(cli_runner, "pipeline_report", _unreachable)
    (tmp_path / "file").touch()
    for target, message in (
        (tmp_path / "missing" / "out", "[Errno 2] No such file or directory"),
        (tmp_path, "[Errno 21] Is a directory"),
        (tmp_path / "file" / "out", "[Errno 20] Not a directory"),
    ):
        with time_limit(5):
            code, out, err = run_cli(capsys, *command, "--output", str(target))
        # open() raises the same error; without the check it came after the work.
        assert (code, out, err) == (2, "", f"error: {message}: {str(target)!r}\n")
        with pytest.raises(OSError, match=message.replace("[", r"\[")):
            open(target, "w")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]


def test_an_output_in_a_directory_that_cannot_be_written_is_refused(
    tmp_path, capsys, monkeypatch
):
    monkeypatch.setattr(cli_runner, "_scan_tasks", _unreachable)
    read_only = tmp_path / "read-only"
    read_only.mkdir()
    read_only.chmod(0o555)
    target = read_only / "out"
    with monkeypatch.context() as m:
        if os.access(read_only, os.W_OK):
            # A privileged user writes there anyway: have scan see what others see.
            m.setattr(os, "access", lambda path, mode: False)
        else:
            with pytest.raises(PermissionError, match=r"\[Errno 13\] Permission denied"):
                open(target, "w")
        code, out, err = run_cli(capsys, *ONE_LARGE_Q, "--output", str(target))
    assert (code, out, err) == (2, "", f"error: [Errno 13] Permission denied: {str(target)!r}\n")
    assert list(read_only.iterdir()) == []


def test_a_command_that_fails_leaves_its_output_file_as_it_was(tmp_path, capsys):
    target = tmp_path / "out"
    command = ["error-term", "--x", "30", "--q", "12", "--a", "1", "--output", str(target)]
    assert run_cli(capsys, *command) == (2, "", "error: 12 is divisible by 2^2\n")
    assert not target.exists()
    target.write_text("kept")
    assert run_cli(capsys, *command) == (2, "", "error: 12 is divisible by 2^2\n")
    assert target.read_text() == "kept"


def test_start_row_past_every_row_lists_no_class(capsys, monkeypatch):
    for name in ("_residues_for", "least_squarefree_members", "error_terms"):
        monkeypatch.setattr(cli_runner, name, _unreachable)
    with time_limit(5):
        code, out, err = run_cli(capsys, *ONE_LARGE_Q, "--start-row", "2000000")
    assert (code, out, err) == (0, CSV_HEADER + "\n", "")


@pytest.mark.parametrize("workers", ["1", "2"])
def test_start_row_lists_the_classes_of_kept_tasks_only(capsys, monkeypatch, tmp_path, workers):
    full = run_cli(capsys, *RESUMED, "--workers", "1")[1]
    header, *body = full.splitlines(keepends=True)
    # Worker processes are forked from this one, so the calls go to a file.
    calls = tmp_path / "calls"
    residues_for = cli_runner._residues_for

    def noting(modulus, policy, seed):
        with open(calls, "a", encoding="utf-8") as fh:
            fh.write(f"{modulus.q}\n")
        return residues_for(modulus, policy, seed)

    monkeypatch.setattr(cli_runner, "_residues_for", noting)
    # Rows 0-19 are x = 300, rows 20-39 x = 1000; row 25 is in (1000, 5).
    for k, listed in ((0, [1, 2, 3, 5, 6, 7, 10]), (20, [1, 2, 3, 5, 6, 7, 10]),
                      (25, [5, 6, 7, 10]), (40, []), (41, [])):
        calls.write_text("")
        with time_limit(60):
            code, out, _ = run_cli(capsys, *RESUMED, "--workers", workers, "--start-row", str(k))
        assert (code, out) == (0, header + "".join(body[k:])), k
        assert sorted(int(q) for q in calls.read_text().split()) == listed, k


ROWS_OF_Q_UP_TO_6_AT_100 = (
    CSV_HEADER + "\n"
    "100,1,0,61,61,0,1,0,1,1\n"
    "100,2,1,41,41,0,1,0,1,0.368567304323\n"
    "100,3,1,23,46,0,1,0,1,0.205563211114\n"
    "100,3,2,23,46,0,1,0,2,0.411126422228\n"
    "100,5,1,14,51,5,4,0.186338998125,1,0.0985106520605\n"
    "100,5,2,14,51,5,4,0.186338998125,2,0.197021304121\n"
    "100,5,3,12,51,-3,4,0.111803398875,3,0.295531956181\n"
    "100,6,1,15,31,-1,2,0.076546554462,1,0.0757638785882\n"
    "100,6,5,16,31,1,2,0.076546554462,5,0.378819392941\n"
)


def test_a_class_list_off_its_planned_count_is_exit_3(capsys, monkeypatch):
    residues_for = cli_runner._residues_for

    def one_short_at_7(modulus, policy, seed):
        residues = residues_for(modulus, policy, seed)
        return residues[:-1] if modulus.q == 7 else residues

    monkeypatch.setattr(cli_runner, "_residues_for", one_short_at_7)
    code, out, err = run_cli(capsys, "scan", "--x", "100", "--q-max", "30", "--a", "sample:3")
    # Each q's classes are checked at its turn, after the rows before it are written.
    assert (code, out) == (3, ROWS_OF_Q_UP_TO_6_AT_100)
    assert err == "internal error: q = 7 lists 2 classes, not 3\n"


@pytest.mark.parametrize("policy", [("unit", 5), ("all", 0), ("sample", 1), ("sample", 4)])
def test_q_1_lists_its_one_class_0(policy):
    one = factor_modulus(1)
    assert cli_runner._check_classes(one, policy) == 1
    assert cli_runner._residues_for(one, policy, 0) == [0]


@pytest.mark.parametrize(
    "command",
    [
        "scan --x 1000 300 --q-max 10 --a all",
        "scan --x 1000 300 --q-max 10 --a all --start-row 13",
        "scan --x 1000 --q-max 30 --a sample:2 --format json --start-row 5",
        "scan --x 50 --q-min 60 --q-max 70",
    ],
)
def test_scan_output_file_gets_the_bytes_of_stdout(tmp_path, capsys, command):
    target = tmp_path / "out"
    code, out, _ = run_cli(capsys, *command.split())
    assert (code, run_cli(capsys, *command.split(), "--output", str(target))) == (0, (0, "", ""))
    assert target.read_bytes() == out.encode("utf-8")


@pytest.mark.parametrize(
    "command",
    [
        "count-box --u 1 --v 1 --m 1e308 --n 10 --q 1 --a 1",
        "count-box --u 2 --v 1 --m 1e308 --n 10 --q 2 --a 1",
    ],
)
def test_count_box_ratio_against_an_infinite_bound_is_zero(capsys, command):
    code, out, err = run_cli(capsys, *command.split())
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["count"] > 10**308
    infinite = [name for name, bound in payload["bounds"].items() if bound == float("inf")]
    assert "trivial" in infinite
    assert all(payload["ratios"][name] == 0.0 for name in infinite)


SUCCESS = [
    "error-term --x 1000 --q 13 --a 4 --decompose",
    "scan --x 1000 --q-max 5",
    "scan --x 1000 --q-max 5 --format json",
    "count-box --u 1 --v -2 --m 10 --n 10 --q 7 --a 1",
    "pipeline --x 10000 --q 101 --a 3",
    "optimize",
]
REFUSED = [
    "error-term --x 30 --q 12 --a 1",
    "scan --x 100 --q-min 9 --q-max 3",
    "count-box --u 1 --v -3 --m 10 --n 10 --q 7 --a 1",
    "pipeline --x 10000 --q 101 --a 3 --alpha 5",
    "optimize --menu-file no-such-menu.txt",
]


def test_main_writes_each_result_once_and_nothing_on_failure(capsys, monkeypatch):
    emitted = []
    monkeypatch.setattr(cli_runner, "_emit", lambda result, output: emitted.append(result))
    for command in SUCCESS:
        emitted.clear()
        assert run_cli(capsys, *command.split()) == (0, "", "")
        assert len(emitted) == 1, command
    for command in REFUSED:
        emitted.clear()
        code, out, err = run_cli(capsys, *command.split())
        assert (code, out, emitted) == (2, "", []), command
        assert err.startswith("error: ")
    monkeypatch.setattr(cli_runner, "decompose_error", lambda *a, **k: Fraction(1, 7))
    count_box = congruence_count.count_box
    monkeypatch.setattr(  # the mirror of u = 1, v = -2 has u = 2
        congruence_count, "count_box",
        lambda query, column=None: 0 if query.u == 2 else count_box(query, column),
    )

    def violated(*args, **kwargs):
        raise arith_core.InvariantError("decomposition identity violated: 1 != 2")

    monkeypatch.setattr(cli_runner, "pipeline_report", violated)
    for command in (SUCCESS[0], SUCCESS[3], SUCCESS[4]):
        emitted.clear()
        code, out, err = run_cli(capsys, *command.split())
        assert (code, out, emitted) == (3, "", []), command
        assert err.startswith("internal error: ")
