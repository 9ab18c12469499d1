"""The exact identity, tail split, box enumeration, and majorization stages."""

import math
import random
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqflab import congruence_count, decomposition_pipeline
from sqflab.arith_core import InvariantError, factor_modulus
from sqflab.congruence_count import BoxQuery, count_dyadic, evaluate_bounds, residue_table
from sqflab.decomposition_pipeline import (
    TailSplit,
    _coverage_gap,
    _decompose,
    covering_boxes,
    decompose_error,
    enumerate_boxes,
    default_anchor_choices,
    pipeline_report,
    small_m_estimate,
    tail_split,
)
from sqflab.progression_stats import (
    count_coprime,
    discrepancy,
    error_term,
    squarefree_moduli,
)


def test_decompose_spec_examples():
    m5 = factor_modulus(5)
    assert decompose_error(30, m5, 1) == Fraction(5, 4)
    assert decompose_error(30, m5, 1) == error_term(30, m5, 1).error
    assert decompose_error(5000, factor_modulus(1), 0) == 0


def test_decompose_equals_direct_on_random_grid():
    rng = random.Random(12)
    moduli = [m for m in squarefree_moduli(100) if m.q > 1]
    for _ in range(80):
        m = rng.choice(moduli)
        x = rng.randrange(m.q, 5000)
        a = rng.choice([r for r in range(1, m.q) if gcd(r, m.q) == 1])
        assert decompose_error(x, m, a) == error_term(x, m, a).error, (x, m.q, a)


def test_tail_split_boundaries():
    m5 = factor_modulus(5)
    x = 30
    full = decompose_error(x, m5, 1)
    at_root = tail_split(x, m5, 1, math.sqrt(30))
    assert at_root.head == 0 and at_root.tail == full

    at_one = tail_split(x, m5, 1, 1)
    # only the n = 1 term is at or below the cutoff
    assert at_one.tail == discrepancy(30, m5, 1)
    assert at_one.head + at_one.tail == full


def test_tail_split_reassembles_for_every_cutoff():
    m7 = factor_modulus(7)
    x = 2000
    full = decompose_error(x, m7, 3)
    for n0 in range(1, isqrt(x) + 1):
        split = tail_split(x, m7, 3, n0)
        assert split.head + split.tail == full


def test_tail_split_range_validation():
    m5 = factor_modulus(5)
    with pytest.raises(ValueError):
        tail_split(30, m5, 1, 0.5)
    with pytest.raises(ValueError):
        tail_split(30, m5, 1, 6)
    with pytest.raises(ValueError):
        tail_split(30, m5, 1, float("nan"))
    with pytest.raises(ValueError):
        pipeline_report(30, m5, 1, n0=float("nan"))


def mobius_oracle(n):
    sign, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if n > 1 else sign


def decomposition_oracle(x, m, a, n0):
    """(head, tail, removed main term) summed term by term from discrepancies."""
    head = tail = removed = Fraction(0)
    for n in range(1, isqrt(math.floor(x)) + 1):
        mu = mobius_oracle(n)
        if mu == 0 or gcd(n, m.q) != 1:
            continue
        term = mu * discrepancy(Fraction(x) / (n * n), m, a * pow(n, -2, m.q))
        if n <= n0:
            tail += term
        else:
            head += term
            removed += Fraction(count_coprime(Fraction(x) / (n * n), m), m.phi)
    return head, tail, removed


_MODULI = [factor_modulus(q) for q in (1, 2, 3, 5, 6, 7, 30, 97, 101, 210, 2310)]


@st.composite
def decomposition_inputs(draw):
    x = draw(
        st.one_of(
            st.integers(min_value=1, max_value=10**5),
            st.fractions(min_value=1, max_value=10**5, max_denominator=7),
        )
    )
    m = draw(st.sampled_from(_MODULI))
    a = draw(st.sampled_from([c for c in range(m.q) if gcd(c, m.q) == 1]))
    root = isqrt(math.floor(x))
    n0 = draw(
        st.one_of(
            st.just(1),
            st.just(root),
            st.integers(min_value=1, max_value=root),
            st.floats(min_value=1, max_value=math.sqrt(x)),
        )
    )
    return x, m, a, n0


@given(decomposition_inputs())
@settings(max_examples=200, deadline=None)
def test_one_pass_against_term_by_term_sum(inputs):
    x, m, a, n0 = inputs
    split, removed, _ = _decompose(x, m, a, n0)
    assert (split.head, split.tail, removed) == decomposition_oracle(x, m, a, n0)


def test_error_term_decompose_and_tail_split_build_one_table_each(monkeypatch):
    # Each builds the table of a/n^2 up to isqrt(x), at q = 7 far below
    # isqrt(x) as well as above it.
    built = []
    monkeypatch.setattr(
        decomposition_pipeline,
        "residue_table",
        lambda *args: built.append(args) or residue_table(*args),
    )
    for q, a in ((7, 3), (3981, 7)):
        m = factor_modulus(q)
        built.clear()
        assert decompose_error(10**6, m, a) == error_term(10**6, m, a).error
        split = tail_split(10**6, m, a, 10)
        assert (split.head, split.tail) == decomposition_oracle(10**6, m, a, 10)[:2]
        assert built == [(-2, m, a, 1000)] * 2


def test_enumerate_boxes_exhaustive_small():
    x = 2**20
    boxes = enumerate_boxes(x, 1, 1)
    expected = sorted(
        (float(2**i), float(2**j))
        for i in range(30)
        for j in range(30)
        if 2**i * 4**j <= 8 * x
    )
    assert sorted(boxes) == expected
    assert boxes == sorted(boxes)  # deterministic (M, N) order


def test_enumerate_boxes_empty_and_validation():
    assert enumerate_boxes(10, 1, 1000) == []
    with pytest.raises(ValueError):
        enumerate_boxes(100, 0.5, 1)


def test_covering_boxes_partition_every_head_pair():
    x, n0 = 500, 3.0
    m7 = factor_modulus(7)
    boxes = covering_boxes(x, n0)
    for n in range(1, isqrt(x) + 1):
        if n <= n0 or gcd(n, 7) != 1:
            continue
        for m in range(1, x // (n * n) + 1):
            hits = [
                (mb, nb)
                for mb, nb in boxes
                if mb < m <= 2 * mb and nb < n <= 2 * nb
            ]
            assert len(hits) == 1, (m, n, hits)


@given(
    x=st.integers(min_value=1, max_value=10**7),
    kind=st.sampled_from(["float", "integer", "below", "above"]),
    t=st.floats(min_value=0, max_value=1),
    k=st.integers(min_value=0, max_value=12),
)
@settings(max_examples=200, deadline=None)
def test_covering_boxes_pass_the_integer_coverage_certificate(x, kind, t, k):
    # n0 anywhere in [1, sqrt(x)], as a float or an integer, or one ulp
    # either side of sqrt(x) / 2^k, where an n-anchor lands on sqrt(x).
    root = math.sqrt(x)
    if kind in ("float", "integer"):
        n0 = 1 + t * (root - 1)
        n0 = math.floor(n0) if kind == "integer" else n0
    else:
        n0 = math.nextafter(root / 2**k, 0 if kind == "below" else math.inf)
        n0 = min(max(n0, 1.0), root)
    assert _coverage_gap(x, n0, covering_boxes(x, n0)) is None


def test_coverage_gap_names_each_missing_range():
    x, n0 = 10**6, 37.5
    boxes = covering_boxes(x, n0)
    n_anchors = sorted({n for _, n in boxes})
    assert n_anchors == [37.5, 75.0, 150.0, 300.0, 600.0]
    # The first column needs m <= 10**6 // 38**2 = 692, which (512, 1024] covers.
    assert max(m for m, n in boxes if n == n0) == 512
    for dropped, gap in [
        ({(512, n0)}, "the column N = 37.5 covers m <= 512 only"),
        ({(0.5, n0)}, "the column N = 37.5 covers m <= 0 only"),
        ({(m, 150.0) for m, n in boxes if n == 150.0}, "the n-ranges jump from 150 to 300"),
        ({(m, 600.0) for m, n in boxes if n == 600.0}, "the n-ranges stop at 600 < isqrt(x)"),
    ]:
        assert _coverage_gap(x, n0, [b for b in boxes if b not in dropped]) == gap


def test_pipeline_raises_on_a_coverage_gap(monkeypatch):
    # The column N = 40 needs m <= 10**4 // 41**2 = 5, so its box (4, 8]
    # is needed, yet it holds too few solutions for the majorization to
    # notice that it is missing.
    boxes = covering_boxes(10**4, 10.0)
    dropped = (4.0, 40.0)
    assert dropped == max(b for b in boxes if b[1] == 40.0)
    monkeypatch.setattr(
        decomposition_pipeline, "covering_boxes", lambda *a: [b for b in boxes if b != dropped]
    )
    with pytest.raises(InvariantError, match="covering boxes leave a gap: the column"):
        pipeline_report(10**4, factor_modulus(101), 3, n0=10.0)


def test_pipeline_builds_one_column_per_n_anchor(monkeypatch):
    # Each column reads the pass's table once where the table holds its
    # n-range: one full period for q below isqrt(x), the n up to isqrt(x)
    # for q above it, whose top column counts from its m side instead.
    built = []
    residues = congruence_count._m_residues
    monkeypatch.setattr(
        congruence_count,
        "_m_residues",
        lambda *args: built.append(args) or residues(*args),
    )
    x = 10**8
    full_periods = set()
    # The default n0 leaves q = 30 a single column, so it gets a lower one.
    for q, n0 in ((30, 100.0), (3981, None), (1000003, None)):
        built.clear()
        rep = pipeline_report(x, factor_modulus(q), 7, n0=n0)
        n_anchors = {row["n_anchor"] for row in rep["boxes"]}
        assert len(rep["boxes"]) > len(n_anchors) > 1
        from_table = [args for args in built if len(args) > 6]
        held = [n for n in n_anchors if q <= isqrt(x) or math.floor(2 * n) <= isqrt(x)]
        assert sorted(args[2:4] for args in from_table) == sorted((n, 2 * n) for n in held)
        # The other calls count the top column's boxes from their m side.
        assert all(args[:2] == (2, -1) for args in built if len(args) <= 6)
        for args in from_table:
            values, n_hi = args[6], args[3]
            assert len(values) == q or math.floor(n_hi) < len(values)
            full_periods.add(len(values) == q)
    assert full_periods == {True, False}


@pytest.mark.parametrize("x", [10**6, 10**8])
@pytest.mark.parametrize("q", [1, 2, 30, 2310, 3981])
def test_pipeline_builds_one_table_for_the_pass_and_every_column(monkeypatch, x, q):
    # q below isqrt(x) gives a table of one period, read at n mod q; q above
    # it a table that ends at isqrt(x).
    tables = []
    build = congruence_count.residue_table
    monkeypatch.setattr(
        decomposition_pipeline,
        "residue_table",
        lambda *args: tables.append(build(*args)) or tables[-1],
    )
    m = factor_modulus(q)
    a = q - 1 if q > 1 else 0
    rep = pipeline_report(x, m, a)
    assert rep["identity_ok"]
    assert len(tables) == 1
    (table,) = tables
    assert (table.v, table.modulus, table.a) == (-2, m, a)
    assert len(table.values) == min(q, isqrt(x) + 1)
    for n, c in enumerate(table.values):
        assert c == (a * pow(n, -2, q) % q if gcd(n, q) == 1 else -1), n


def test_pipeline_with_a_modulus_above_2_to_the_63():
    m = factor_modulus(math.prod(p for p in range(2, 54) if all(p % d for d in range(2, p))))
    rep = pipeline_report(10**4, m, 1)
    assert rep["identity_ok"] and rep["majorization_ok"]
    assert rep["e_direct"] == error_term(10**4, m, 1).error


def test_small_m_estimate_examples():
    m = factor_modulus(97)
    assert small_m_estimate(1, 97, m) == 2.0
    assert small_m_estimate(3, 50, m) < 6


def test_pipeline_report_asserts_and_reports():
    m101 = factor_modulus(101)
    rep = pipeline_report(10**4, m101, 3)
    assert rep["identity_ok"] and rep["majorization_ok"]
    assert rep["e_direct"] == error_term(10**4, m101, 3).error
    assert rep["head"] + rep["tail_small_n"] == rep["e_decomposed"]
    # majorization right side recomputes from parts
    assert rep["majorization_rhs"] == (
        Fraction(rep["sum_box_counts"]) + abs(rep["tail_small_n"]) + rep["main_term_removed"]
    )
    # box counts match independent dyadic recounts
    for row in rep["boxes"][:10]:
        assert row["count"] == count_dyadic(row["m_anchor"], row["n_anchor"], m101, 3)
    assert rep["sup_box_count"] == max(r["count"] for r in rep["boxes"])
    regimes = {row["regime"] for row in rep["boxes"]}
    assert regimes <= {"crude", "amplified", "trivial"}
    # Every non-crude row's bound is evaluate_bounds' on the same dyadic box.
    m3981 = factor_modulus(3981)
    wide = pipeline_report(10**6, m3981, 7)
    assert any(row["regime"] == "amplified" for row in wide["boxes"])
    for report, modulus in ((rep, m101), (wide, m3981)):
        for row in report["boxes"]:
            query = BoxQuery(
                1, -2, row["m_anchor"], row["n_anchor"], modulus, report["a"], dyadic=True
            )
            bounds = evaluate_bounds(query)
            assert row["count"] == bounds.count
            assert row["amplification_applicable"] == (bounds.pierce_mn is not None)
            if row["regime"] != "crude":
                amplified = bounds.interpolated is not None
                assert row["regime"] == ("amplified" if amplified else "trivial")
                assert row["bound"] == (bounds.interpolated if amplified else bounds.trivial)


@pytest.mark.parametrize(
    "shift, boxes, message",
    [(1, None, "decomposition identity violated"), (0, [], "majorization violated")],
)
def test_pipeline_invariant_failures_raise_invariant_error(monkeypatch, shift, boxes, message):
    m101 = factor_modulus(101)
    error = error_term(10**4, m101, 3).error
    assert error != 0
    # A decomposition off by `shift`; with no boxes and no tail or main
    # term, the majorization's right side is 0 < |error|.
    monkeypatch.setattr(
        decomposition_pipeline,
        "_decompose",
        lambda *a: (
            TailSplit(head=error + shift, tail=Fraction(0)),
            Fraction(0),
            residue_table(-2, m101, 3, 100),
        ),
    )
    if boxes is not None:
        monkeypatch.setattr(decomposition_pipeline, "covering_boxes", lambda *a: boxes)
    with pytest.raises(InvariantError, match=message):
        pipeline_report(10**4, m101, 3)


def test_pipeline_report_degenerate_modulus():
    rep = pipeline_report(1000, factor_modulus(1), 0)
    assert rep["e_direct"] == 0
    assert rep["identity_ok"] and rep["majorization_ok"]


def test_pipeline_report_default_anchor_choices():
    x = 10**6
    q = 4001  # prime near x**0.6
    m = factor_modulus(q)
    m0, n0 = default_anchor_choices(x, q)
    assert m0 == 2.0 * max(x * q**-1.5, 1.0)
    assert n0 == pytest.approx(2.0 * math.sqrt(x) * q**-0.375)
    rep = pipeline_report(x, m, 7)
    assert (rep["m0"], rep["n0"]) == (m0, n0)
    assert rep["identity_ok"] and rep["majorization_ok"]
    # every reported box really intersects the covered region
    for row in rep["boxes"]:
        assert row["m_anchor"] * row["n_anchor"] ** 2 <= 8 * x
    # small-q clamp: formula value would exceed sqrt(x)
    _, n0_small = default_anchor_choices(100, 2)
    assert n0_small == 10.0


def test_pipeline_rejects_bad_inputs():
    m5 = factor_modulus(5)
    with pytest.raises(Exception):
        pipeline_report(30, m5, 5)  # non-coprime residue
    with pytest.raises(ValueError):
        pipeline_report(0.5, m5, 1)
    # Rejected up front, although x = 1 has no boxes to evaluate.
    with pytest.raises(ValueError, match=r"alpha must lie in \[0, 1\]"):
        pipeline_report(1, m5, 1, alpha=Fraction(5))


def test_pipeline_refuses_a_deep_mobius_prefix_before_the_direct_count(monkeypatch):
    def unreachable(*args):
        raise AssertionError("a table or the direct route ran before the refusal")

    sieved = []
    sieve = decomposition_pipeline.mobius_sieve
    monkeypatch.setattr(
        decomposition_pipeline, "mobius_sieve", lambda limit: sieved.append(limit) or sieve(limit)
    )
    m = factor_modulus(1000003)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(decomposition_pipeline, "error_term", unreachable)
        patch.setattr(decomposition_pipeline, "residue_table", unreachable)
        for run in (
            lambda: pipeline_report(10**15, m, 1),
            lambda: decompose_error(10**15, m, 1),
            lambda: tail_split(10**15, m, 1, 10),
        ):
            with pytest.raises(ValueError, match="exceeds the Mobius sieve bound"):
                run()
    assert sieved == [isqrt(10**15)] * 3
    # A report that completes sieves once, and so does the next one at the
    # same x: no cache holds a Mobius prefix between calls.
    sieved.clear()
    for _ in range(2):
        assert pipeline_report(10**6, m, 1)["identity_ok"]
    assert sieved == [1000, 1000]


def test_decompose_counts_the_coprime_integers_once_per_y(monkeypatch):
    x, m = 58887204, factor_modulus(3162)
    calls = []
    monkeypatch.setattr(
        decomposition_pipeline,
        "count_coprime",
        lambda y, modulus: calls.append(y) or count_coprime(y, modulus),
    )
    split, _, _ = _decompose(x, m, 1, 100)
    terms = [n for n in range(1, isqrt(x) + 1) if gcd(n, 3162) == 1 and mobius_oracle(n)]
    assert len(calls) == len(set(calls)) == len({x // (n * n) for n in terms}) == 305
    assert split.total == error_term(x, m, 1).error
