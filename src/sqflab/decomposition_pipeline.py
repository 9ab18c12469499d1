"""Exact decomposition of the progression error term and its dyadic majorization.

The error term E factors through the square-part identity into a weighted
sum of interval discrepancies, one term per squarefree n <= sqrt(x) coprime
to q.  This module reproduces that identity exactly, splits off the small-n
tail, enumerates the dyadic boxes that cover the remaining double sum, and
assembles a per-stage report in which |E| is bounded by fully computed
quantities: box counts, the exact tail, and the exact removed main term.
No implied constants appear anywhere in the asserted inequality.

The head, the tail and the removed main term all come from a single pass
over n in integer arithmetic: each term's progression and coprime counts
are integers at floor(x) // n^2, accumulated per side of the cutoff, and
the only division, by phi(q), happens once at the end.

Both stages are indexed by the residue a/n^2 mod q: term n counts the
class a/n^2, and a box counts the m with m = a/n^2.  Each is computed once:
the decomposition pass builds its Mobius values and one `ResidueTable` of
a/n^2 for n below min(q, isqrt(x) + 1), by batch inversion, and reads the
table at n mod q, so for q <= isqrt(x) it computes q residues, not one per
n.  The pass returns the table, and `pipeline_report` lends it to every box
column; only the top column can reach past it, when q > isqrt(x) + 1, and
that column counts its boxes from their m side, n^2 = a/m, whose ranges
hold at most 8 integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import isqrt

from sqflab.arith_core import InvariantError, Modulus, Real, mobius_sieve
from sqflab.congruence_count import (
    BoxQuery,
    ResidueColumn,
    ResidueTable,
    check_alpha,
    evaluate_bounds,
    residue_table,
)
from sqflab.exponent_calculus import BLEND, M_ANCHOR, N_ANCHOR
from sqflab.progression_stats import (
    _unit_residue,
    count_coprime,
    discrepancy,  # noqa: F401  the per-term quantity; perfbench's tracer counts it here
    error_term,
)


@dataclass(frozen=True)
class TailSplit:
    """Exact split of the decomposed error at the small-n cutoff."""

    head: Fraction
    tail: Fraction

    @property
    def total(self) -> Fraction:
        return self.head + self.tail


def _check_cutoff(x: Real, n0: Real) -> None:
    # Written so that a NaN cutoff fails the test too.
    if not (n0 >= 1 and float(n0) <= math.sqrt(float(x))):
        raise ValueError(f"n0 must lie in [1, sqrt(x)], got {n0}")


def _decompose(
    x: Real, modulus: Modulus, a: int, n0: Real
) -> tuple[TailSplit, Fraction, ResidueTable]:
    """The decomposed error split at n0, the removed main term and the head table, in one pass.

    Term n of the square-part identity is mu(n) * discrepancy(x/n^2, q, a/n^2)
    for squarefree n <= sqrt(x) coprime to q, and a discrepancy is
    count_ap - count_coprime/phi(q).  The pass sums, per side of the cutoff
    (n <= n0 is the tail, n > n0 the head), mu(n)*count_ap and
    mu(n)*count_coprime as integers at y = floor(x) // n^2; on the head it
    also sums count_coprime without the mu(n) weight, which is the main term
    the majorization removes.  It divides by phi(q) once, at the end.
    `a` must already be a unit in [0, q).

    The pass builds what it reads: the Mobius values up to isqrt(x) first,
    so that a too-large isqrt(x) is refused before any table, then the table
    of a/n^2 up to isqrt(x).  The residue of term n is read from it at
    n mod q, and its -1 entries mark the n not coprime to q.  The table is
    returned for the box columns, which read the same residues.
    """
    fx = math.floor(x)
    n_max = isqrt(fx)
    n_split = min(math.floor(n0), n_max)
    mu = mobius_sieve(n_max)  # index i holds mu(i + 1)
    table = residue_table(-2, modulus, a, n_max)
    residues = table.values
    q = modulus.q
    sums = []
    last_y = cop_n = 0  # y only falls as n grows: count_coprime once per y
    for first, last in ((1, n_split), (n_split + 1, n_max)):
        ap = cop = unsigned_cop = 0
        for n in compress(range(first, last + 1), mu[first - 1 : last]):  # squarefree n
            m = mu[n - 1]
            r = residues[n % q]
            if r < 0:
                continue
            y = fx // (n * n)
            if y != last_y:
                last_y, cop_n = y, count_coprime(y, modulus)
            ap += m * ((y + q - (r or q)) // q)  # count_ap(y, q, r), y >= 1
            cop += m * cop_n
            unsigned_cop += cop_n
        sums.append((ap, cop, unsigned_cop))
    (tail_ap, tail_cop, _), (head_ap, head_cop, removed) = sums
    phi = modulus.phi
    split = TailSplit(
        head=Fraction(head_ap) - Fraction(head_cop, phi),
        tail=Fraction(tail_ap) - Fraction(tail_cop, phi),
    )
    return split, Fraction(removed, phi), table


def decompose_error(x: Real, modulus: Modulus, a: int) -> Fraction:
    """Error term reassembled from the square-part identity, exactly.

    Must equal error_term(x, q, a).error for every input; the equality is
    the central correctness check of the pipeline.
    """
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    return _decompose(x, modulus, _unit_residue(modulus, a), 0)[0].total


def tail_split(x: Real, modulus: Modulus, a: int, n0: Real) -> TailSplit:
    """Split the decomposition into n <= n0 (tail) and n > n0 (head).

    head + tail reassembles the full error term exactly; the tail is the
    part the analysis absorbs into an O(N0) allowance, computed here
    instead of bounded.
    """
    _check_cutoff(x, n0)
    return _decompose(x, modulus, _unit_residue(modulus, a), n0)[0]


def small_m_estimate(m_bound: Real, n_bound: Real, modulus: Modulus) -> float:
    """Crude per-column estimate M * (N/q + 1) for boxes with small M."""
    return float(m_bound) * (float(n_bound) / modulus.q + 1.0)


def enumerate_boxes(x: Real, n0: Real, m0: Real = 1) -> list[tuple[float, float]]:
    """Dyadic anchors (M, N) = (m0 * 2^i, n0 * 2^j) with M*N^2 <= 8x, ordered by (M, N).

    This is the region left after the small-M columns are split off.
    """
    if n0 < 1 or m0 < 1:
        raise ValueError("anchors must be >= 1")
    cap = 8 * float(x)
    boxes: list[tuple[float, float]] = []
    m_anchor = float(m0)
    while m_anchor * float(n0) ** 2 <= cap:
        n_anchor = float(n0)
        while m_anchor * n_anchor**2 <= cap:
            boxes.append((m_anchor, n_anchor))
            n_anchor *= 2
        m_anchor *= 2
    return boxes


def covering_boxes(x: Real, n0: Real) -> list[tuple[float, float]]:
    """Dyadic anchors whose boxes cover every (m, n) pair of the head sum.

    m-anchors start at 1/2 so the column m = 1 is covered by (1/2, 1]; the
    analysis region starts at M >= 1, but an exact majorization cannot
    afford to lose that column.  n-anchors start at n0 exactly, matching
    the strict n > n0 cutoff of the head.
    """
    fx = math.floor(x)
    n_max = isqrt(fx)
    boxes: list[tuple[float, float]] = []
    n_anchor = float(n0)
    while n_anchor < n_max:
        m_cap = float(x) / n_anchor**2
        m_anchor = 0.5
        while m_anchor < m_cap:
            boxes.append((m_anchor, n_anchor))
            m_anchor *= 2
        n_anchor *= 2
    return sorted(boxes)


def default_anchor_choices(x: Real, q: int) -> tuple[float, float]:
    """Default (m0, n0): the exponent-optimal anchors, clamped to validity.

    m0 = 2*max(x * q^c, 1) with c the q-exponent of M_ANCHOR, and
    n0 = 2*sqrt(x) * q^c with c that of N_ANCHOR; n0 is clamped into
    [1, sqrt(x)] since tiny q pushes the formula outside the region where
    a tail split makes sense.  sqrt(x) is math.sqrt, not a float power,
    because the two round differently.
    """
    xf = float(x)
    m0 = 2.0 * max(xf * q ** float(M_ANCHOR.coeff_rho), 1.0)
    n0 = 2.0 * math.sqrt(xf) * q ** float(N_ANCHOR.coeff_rho)
    n0 = min(max(n0, 1.0), math.sqrt(xf))
    return m0, n0


def _box_row(
    m_anchor: float,
    n_anchor: float,
    modulus: Modulus,
    a: int,
    m0: float,
    alpha: Fraction,
    column: ResidueColumn,
) -> dict:
    """One covering box: its exact count and the bound that governs it.

    The count, the amplification applicability and the amplified and
    trivial bounds of the dyadic box all come from evaluate_bounds, which
    counts the box from its n-anchor's column: on the n side, or on the m
    side for a column past the head-residue table.  Boxes with M < m0 are
    held to the crude small_m_estimate instead.
    """
    query = BoxQuery(1, -2, m_anchor, n_anchor, modulus, a, dyadic=True)
    report = evaluate_bounds(query, alpha, column)
    if m_anchor < m0:
        regime, bound = "crude", small_m_estimate(m_anchor, n_anchor, modulus)
    elif report.interpolated is not None:
        regime, bound = "amplified", report.interpolated
    else:
        regime, bound = "trivial", report.trivial
    return {
        "m_anchor": m_anchor,
        "n_anchor": n_anchor,
        "count": report.count,
        "regime": regime,
        "bound": bound,
        "ratio": report.count / bound if bound > 0 else float("inf"),
        "amplification_applicable": report.pierce_mn is not None,
    }


def _coverage_gap(x: Real, n0: Real, boxes: list[tuple[float, float]]) -> str | None:
    """Where the boxes fail to cover the head pairs, or None if they cover them.

    Decided on the integer ranges the counts use: the n-ranges
    (floor(N), floor(2N)] must tile (floor(n0), isqrt(x)], and in each
    column the m-ranges (floor(M), floor(2M)] must tile
    (0, x // (floor(N) + 1)^2], up to the largest m that pairs with an n of
    that column in the head.  The last range of each may overshoot its end.
    """
    fx = math.floor(x)
    m_anchors: dict[float, list[float]] = {}
    for m_anchor, n_anchor in boxes:
        m_anchors.setdefault(n_anchor, []).append(m_anchor)
    n_reach = math.floor(n0)
    for n_anchor in sorted(m_anchors):
        n_lo = math.floor(n_anchor)
        if n_lo != n_reach:
            return f"the n-ranges jump from {n_reach} to {n_lo}"
        m_reach = 0
        for m_anchor in sorted(m_anchors[n_anchor]):
            if math.floor(m_anchor) != m_reach:
                break
            m_reach = math.floor(2 * m_anchor)
        if m_reach < fx // (n_lo + 1) ** 2:
            return f"the column N = {n_anchor} covers m <= {m_reach} only"
        n_reach = math.floor(2 * n_anchor)
    if n_reach < isqrt(fx):
        return f"the n-ranges stop at {n_reach} < isqrt(x)"
    return None


def pipeline_report(
    x: Real,
    modulus: Modulus,
    a: int,
    m0: float | None = None,
    n0: float | None = None,
    alpha: Fraction = BLEND.alpha,
) -> dict:
    """Run the full decomposition once and return the per-stage report.

    The report is the `pipeline` command's JSON payload, with its keys in
    the same order, holding every rational as an exact Fraction.
    e_direct comes from the sieve route (error_term); e_decomposed, the
    head/tail split at n0 and the removed main term come from one integer
    pass over the decomposition terms, so the identity check compares two
    independent computations.  `esup_reference` is the analysis-shaped
    right side (log x)^2 * sup + m0 + n0 + x/(n0*q) with constant 1, kept
    as a float for ratio monitoring only.

    Raises InvariantError if the exact identity or the exact majorization
    fails, or if the covering boxes miss a head pair (the majorization
    means nothing then); all three are internal invariants, so a failure
    means a bug, not unlucky inputs.
    """
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    check_alpha(alpha)
    a = _unit_residue(modulus, a)
    default_m0, default_n0 = default_anchor_choices(x, modulus.q)
    m0 = default_m0 if m0 is None else float(m0)
    n0 = default_n0 if n0 is None else float(n0)
    _check_cutoff(x, n0)

    # The pass comes first, so its Mobius sieve refuses a too-large isqrt(x)
    # before the direct route runs.  Every column reads the pass's table;
    # only the top column can reach past it, and its m-ranges hold at most
    # 8 integers, so it counts from the m side.
    split, cross, table = _decompose(x, modulus, a, n0)
    boxes = covering_boxes(x, n0)
    direct = error_term(x, modulus, a)
    columns = {
        n_anchor: ResidueColumn(1, n_anchor, 2 * n_anchor, table) for _, n_anchor in boxes
    }
    rows = [
        _box_row(m_anchor, n_anchor, modulus, a, m0, alpha, columns[n_anchor])
        for m_anchor, n_anchor in boxes
    ]
    sum_counts = sum(row["count"] for row in rows)
    sup_count = max((row["count"] for row in rows), default=0)
    rhs = Fraction(sum_counts) + abs(split.tail) + cross

    xf = float(x)
    esup = (
        math.log(xf) ** 2 * sup_count + m0 + n0 + xf / (n0 * modulus.q)
    )
    e_direct, e_decomposed = direct.error, split.total
    report = {
        "x": x,
        "q": modulus.q,
        "a": a,
        "m0": m0,
        "n0": n0,
        "alpha": alpha,
        "e_direct": e_direct,
        "e_decomposed": e_decomposed,
        "identity_ok": e_direct == e_decomposed,
        "head": split.head,
        "tail_small_n": split.tail,
        "main_term_removed": cross,
        "sum_box_counts": sum_counts,
        "sup_box_count": sup_count,
        "majorization_lhs": abs(e_direct),
        "majorization_rhs": rhs,
        "majorization_ok": abs(e_direct) <= rhs,
        "esup_reference": esup,
        "boxes": rows,
    }
    if not report["identity_ok"]:
        raise InvariantError(f"decomposition identity violated: {e_direct} != {e_decomposed}")
    if not report["majorization_ok"]:
        raise InvariantError(f"majorization violated: |{e_direct}| > {rhs}")
    gap = _coverage_gap(x, n0, boxes)
    if gap is not None:
        raise InvariantError(f"covering boxes leave a gap: {gap}")
    return report
