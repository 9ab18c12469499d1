"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and the recorded monitoring values.
"""

import contextlib
import csv
import io
import math
import random
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

from sqflab import cli_runner
from sqflab.arith_core import factor_modulus, mobius_segment, mobius_sieve
from sqflab.congruence_count import BoxQuery, count_box, scan_boxes
from sqflab.decomposition_pipeline import decompose_error, pipeline_report
from sqflab.exponent_calculus import (
    DEFAULT_MENU,
    best_alpha,
    compute_theta,
    corollary_exponent,
    verify_choices,
)
from sqflab.progression_stats import error_term, squarefree_moduli

SEED = 20260810


def report(criterion: str, ok: bool, detail: str = "") -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


# -- criterion 1 -------------------------------------------------------------


def test_criterion_1_decomposition_identity_exact():
    checked = 0
    failures = []
    for x in (10**2, 10**3, 10**4):
        for modulus in squarefree_moduli(100):
            residues = [0] if modulus.q == 1 else [
                a for a in range(1, modulus.q) if gcd(a, modulus.q) == 1
            ]
            for a in residues:
                direct = error_term(x, modulus, a).error
                decomposed = decompose_error(x, modulus, a)
                checked += 1
                if direct != decomposed:
                    failures.append((x, modulus.q, a, direct, decomposed))
    report(
        "criterion 1 (decomposition identity, exact)",
        not failures,
        f"{checked} (x, q, a) triples, zero tolerance; failures: {failures[:3]}",
    )


# -- criteria 2 and 3 --------------------------------------------------------


@lru_cache(maxsize=1)
def _instances():
    rng = random.Random(SEED)
    moduli = [m for m in squarefree_moduli(300) if m.q >= 2]
    out = []
    for _ in range(1000):
        m = rng.choice(moduli)
        while True:
            a = rng.randrange(1, m.q)
            if gcd(a, m.q) == 1:
                break
        mb = rng.randrange(1, 201) + rng.choice((0, 0.5))
        nb = rng.randrange(1, 201) + rng.choice((0, 0.5))
        uv = rng.choice(((1, -2), (2, -1)))
        out.append((uv, mb, nb, m, a))
    return out


def _oracle(u, v, m_hi, n_hi, q, a):
    lhs = [pow(m, u, q) for m in range(1, math.floor(m_hi) + 1)]
    rhs = []
    for n in range(1, math.floor(n_hi) + 1):
        if v < 0 and gcd(n, q) != 1:
            continue
        rhs.append(a * pow(n, v, q) % q)
    total = 0
    for t in rhs:
        for s in lhs:
            if s == t:
                total += 1
    return total


def test_criterion_2_count_box_oracle_equivalence():
    failures = []
    for (u, v), mb, nb, m, a in _instances():
        fast = count_box(BoxQuery(u, v, mb, nb, m, a))
        brute = _oracle(u, v, mb, nb, m.q, a)
        if fast != brute:
            failures.append((u, v, mb, nb, m.q, a, fast, brute))
    report(
        "criterion 2 (count_box == double-loop oracle)",
        not failures,
        f"1000 randomized instances, zero tolerance; failures: {failures[:3]}",
    )


def test_criterion_3_symmetry_exact():
    failures = []
    for (u, v), mb, nb, m, a in _instances():
        direct = count_box(BoxQuery(u, v, mb, nb, m, a))
        mirrored = count_box(BoxQuery(-v, -u, nb, mb, m, a))
        if direct != mirrored:
            failures.append((u, v, mb, nb, m.q, a, direct, mirrored))
    report(
        "criterion 3 (orientation symmetry, exact)",
        not failures,
        f"1000 randomized instances, zero tolerance; failures: {failures[:3]}",
    )


# -- criterion 4 -------------------------------------------------------------


def test_criterion_4_exponent_calculus_exact():
    alpha = best_alpha((Fraction(2, 3), Fraction(1, 4)), (Fraction(1, 4), Fraction(2, 3)))
    theta = compute_theta(DEFAULT_MENU)
    choices = verify_choices(Fraction(25, 36))
    ok = (
        alpha.alpha == Fraction(2, 15)
        and alpha.exponent == Fraction(11, 36)
        and theta.feasible
        and theta.theta == Fraction(25, 36)
        and corollary_exponent(theta.theta) == Fraction(36, 25)
        and choices["all_passed"]
    )
    report(
        "criterion 4 (exponent calculus, exact rationals)",
        ok,
        f"alpha={alpha.alpha}, exponent={alpha.exponent}, theta={theta.theta}, "
        f"reciprocal={corollary_exponent(theta.theta)}, anchors_pass={choices['all_passed']}",
    )


# -- criterion 5 -------------------------------------------------------------


def test_criterion_5_finite_x_majorization():
    rng = random.Random(SEED + 5)
    flags_cache = {}
    runs = []
    plan = [(10**4, 8), (10**5, 7), (10**6, 5)]
    for x, how_many in plan:
        for _ in range(how_many):
            exponent = rng.uniform(0.52, 0.68)
            q = round(x**exponent)
            while True:
                try:
                    m = factor_modulus(q)
                    break
                except Exception:
                    q += 1
            while True:
                a = rng.randrange(1, m.q)
                if gcd(a, m.q) == 1:
                    break
            runs.append((x, m, a))
    failures = []
    worst_slack = None
    for x, m, a in runs:
        rep = pipeline_report(x, m, a)
        if not (rep["identity_ok"] and rep["majorization_ok"]):
            failures.append((x, m.q, a))
        slack = rep["majorization_rhs"] - abs(rep["e_direct"])
        if worst_slack is None or slack < worst_slack:
            worst_slack = slack
    report(
        "criterion 5 (finite-x majorization, exact inequality)",
        not failures,
        f"{len(runs)} pipeline runs up to x=1e6; min slack {float(worst_slack):.3f}; "
        f"failures: {failures}",
    )


# -- criterion 6 -------------------------------------------------------------


def scan_column_max(argv: str, column: str, keys: tuple[str, ...]):
    """Max of one column of a seeded scan's CSV, with the columns that locate it."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli_runner.main(["scan", *argv.split(), "--seed", str(SEED)]) == 0
    rows = list(csv.DictReader(io.StringIO(out.getvalue())))
    best = max(rows, key=lambda row: float(row[column]))
    return float(best[column]), tuple(int(best[k]) for k in keys)


def test_criterion_6_monitored_regressions(geometric_grid):
    hooley = ("--x 1000 10000 100000 --q-max 300 --a sample:4", "ratio_hooley", ("X", "q", "a"))
    ref_a = scan_column_max(*hooley)
    ref_b = scan_column_max(*hooley)

    def pierce_scan():
        m = factor_modulus(10001)  # 73 * 137
        rows = scan_boxes(m, 3, geometric_grid(10001, ratio=2.0))
        best, arg = 0.0, None
        for query, rep in rows:
            if rep.pierce_mn is not None:
                ratio = rep.count / rep.pierce_mn
                if ratio > best:
                    best, arg = ratio, (query.m_bound, query.n_bound)
        return best, arg

    pierce_a = pierce_scan()
    pierce_b = pierce_scan()

    least = ("--x 10000 --q-max 10000 --a sample:8", "ratio_corollary", ("q", "a", "n_q_a"))
    least_a = scan_column_max(*least)
    least_b = scan_column_max(*least)

    stable = ref_a == ref_b and pierce_a == pierce_b and least_a == least_b
    report(
        "criterion 6 (monitored regressions, stable at fixed seed)",
        stable,
        f"hooley_ratio_max={ref_a[0]:.6f} at (x,q,a)={ref_a[1]}; "
        f"count/pierce_max={pierce_a[0]:.6f} at (M,N)={pierce_a[1]}; "
        f"least_sqfree_ratio_max={least_a[0]:.6f} at (q,a,n)={least_a[1]}",
    )


# -- criterion 7 -------------------------------------------------------------


def _squarefree_by_trial_division(n: int) -> bool:
    if n < 4:
        return True
    p = 2
    while p * p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return False
        p += 1 if p == 2 else 2
    if n == 1:
        return True
    r = isqrt(n)
    return r * r != n


def test_criterion_7_sieve_correctness():
    limit = 10**6
    # windowed sieve: segmented Mobius windows covering [1, limit]
    chunk = 1 << 17
    sieved_sum = 0
    for start in range(1, limit + 1, chunk):
        seg = mobius_segment(start, min(chunk, limit + 1 - start))
        sieved_sum += sum(1 for v in seg if v != 0)
    oracle_sum = sum(1 for n in range(1, limit + 1) if _squarefree_by_trial_division(n))

    full = mobius_sieve(limit)
    rng = random.Random(SEED + 7)
    window_mismatches = 0
    for _ in range(100):
        start = rng.randrange(1, limit - 1000)
        length = rng.randrange(0, 1000)
        seg = mobius_segment(start, length)
        if list(seg) != list(full[start - 1 : start - 1 + length]):
            window_mismatches += 1

    ok = sieved_sum == oracle_sum and window_mismatches == 0
    report(
        "criterion 7 (sieve correctness)",
        ok,
        f"sum mu^2 up to 1e6: sieve={sieved_sum}, oracle={oracle_sum}; "
        f"segment/full mismatches: {window_mismatches}/100",
    )
