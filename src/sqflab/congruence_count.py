"""Counting solutions of m^u = a*n^v (mod q) inside boxes, with bound envelopes.

Counts are exact integers obtained by solving for the residue classes of m
that the n side hits, with n folded modulo q, and counting lattice points
by division; the cost is O(min(N, q) * roots), never O(M*N).  Negative
exponents follow the convention that n^v means the modular inverse of n
raised to |v|.

Bound envelopes (trivial, Weil, Pierce amplification, and the alpha
interpolation between the two Pierce orientations) are evaluated with
implied constant 1; callers get measured count/bound ratios and decide what
to make of them.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import gcd
from typing import Iterable, Sequence

from sqflab.arith_core import InvariantError, Modulus, NotCoprimeError
from sqflab.exponent_calculus import AMPLIFICATION_MN, AMPLIFICATION_RANGE, BLEND
from sqflab.progression_stats import Real

# The analysis exponents as the floats the bound envelopes use.
_AMP_M, _AMP_N = map(float, AMPLIFICATION_MN)
_AMP_RANGE = float(AMPLIFICATION_RANGE)


def sqrt_mod_prime(c: int, p: int) -> list[int]:
    """All x in [0, p) with x*x = c (mod p), p prime.

    Tonelli-Shanks in the general case; p = 2 and c = 0 are handled directly,
    and quadratic non-residues return the empty list.
    """
    c %= p
    if p == 2:
        return [c]
    if c == 0:
        return [0]
    ls = pow(c, (p - 1) // 2, p)
    if ls == p - 1:
        return []
    if p % 4 == 3:
        r = pow(c, (p + 1) // 4, p)
        return sorted({r, p - r})
    # Tonelli-Shanks: write p-1 = s * 2^e with s odd.
    s, e = p - 1, 0
    while s % 2 == 0:
        s //= 2
        e += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    base = pow(z, s, p)
    r = pow(c, (s + 1) // 2, p)
    t = pow(c, s, p)
    m = e
    while t != 1:
        i, sq = 0, t
        while sq != 1:
            sq = sq * sq % p
            i += 1
        b = pow(base, 1 << (m - i - 1), p)
        r = r * b % p
        base = b * b % p
        t = t * base % p
        m = i
    return sorted({r, p - r})


def power_roots(c: int, modulus: Modulus, u: int) -> list[int]:
    """All residues x mod q with x**u = c (mod q), for u in {1, 2}.

    Squarefree q lets the u = 2 case reduce to one square root per prime
    factor, recombined through the Chinese remainder basis.  Exponents
    u >= 3 are outside the supported surface and raise.
    """
    q = modulus.q
    c %= q
    if u == 1:
        return [c]
    if u != 2:
        raise ValueError(f"unsupported exponent u={u}; only u in {{1, 2}} is implemented")
    if q == 1:
        return [0]
    per_prime = []
    for p in modulus.prime_factors:
        roots = sqrt_mod_prime(c, p)
        if not roots:
            return []
        per_prime.append(roots)
    combined = [0]
    for roots, e in zip(per_prime, modulus.crt_basis):
        combined = [(x + r * e) % q for x in combined for r in roots]
    return sorted(combined)


@dataclass(frozen=True)
class BoxQuery:
    """Parameters of one congruence-box count.

    dyadic=False counts over [1, m_bound] x [1, n_bound]; dyadic=True counts
    over the half-open box (m_bound, 2*m_bound] x (n_bound, 2*n_bound].
    """

    u: int
    v: int
    m_bound: Real
    n_bound: Real
    modulus: Modulus
    residue: int
    dyadic: bool = False

    def __post_init__(self) -> None:
        if self.u <= 0:
            raise ValueError(f"u must be positive, got {self.u}")
        if self.v == 0:
            raise ValueError("v must be nonzero")
        if gcd(self.residue, self.modulus.q) != 1:
            raise NotCoprimeError(
                f"residue {self.residue} is not coprime to {self.modulus.q}"
            )

    @property
    def ranges(self) -> tuple[Real, Real, Real, Real]:
        """(m_lo, m_hi, n_lo, n_hi): the box is (m_lo, m_hi] x (n_lo, n_hi]."""
        if self.dyadic:
            return self.m_bound, 2 * self.m_bound, self.n_bound, 2 * self.n_bound
        return 0, self.m_bound, 0, self.n_bound


def _residue_weights(
    v: int, n_lo: Real, n_hi: Real, modulus: Modulus, a: int
) -> dict[int, int]:
    """The residues c = a*n^v (mod q) of the n in (n_lo, n_hi], each with its weight.

    c depends on n mod q only, so a range longer than q is folded: its
    first q integers stand for the q residues of n, each weighted by the
    range's full periods, plus one for those in its partial period.  For
    v < 0 the n not coprime to q cannot satisfy the congruence and are
    skipped.  The m of a solution of m^u = a*n^v are the roots of c.
    """
    q = modulus.q
    a %= q
    # Integers in (n_lo, n_hi] are floor(n_lo)+1 .. floor(n_hi).
    n_first = max(math.floor(n_lo), 0) + 1
    periods, partial = divmod(max(math.floor(n_hi) - n_first + 1, 0), q)
    weights: dict[int, int] = {}
    for first, stop, weight in (
        (n_first, n_first + partial, periods + 1),
        (n_first + partial, n_first + q, periods),
    ):
        if weight == 0:
            continue
        for n in range(first, stop):
            if v < 0 and gcd(n, q) != 1:
                continue
            c = a * pow(n, v, q) % q
            weights[c] = weights.get(c, 0) + weight
    return weights


def class_count(
    u: int,
    v: int,
    m_lo: Real,
    m_hi: Real,
    n_lo: Real,
    n_hi: Real,
    modulus: Modulus,
    a: int,
) -> int:
    """Solutions of m^u = a*n^v (mod q) with m in (m_lo, m_hi], n in (n_lo, n_hi].

    Diagnostic entry point: `a` may be any residue (the sum rule over all
    classes needs the non-unit ones).  For v < 0, n runs over the n coprime
    to q only; other n cannot satisfy the congruence and are skipped.
    m ranges over positive integers only.  This is the one-range case of
    ResidueColumn: the weights are summed directly, with no sort.
    """
    q = modulus.q
    # With f_lo, f_hi >= 0, #{f_lo < m <= f_hi : m = r (mod q)} is
    # (f_hi - r) // q - (f_lo - r) // q.
    f_lo = max(math.floor(m_lo), 0)
    f_hi = max(math.floor(m_hi), 0)
    return sum(
        w * ((f_hi - r) // q - (f_lo - r) // q)
        for c, w in _residue_weights(v, n_lo, n_hi, modulus, a).items()
        for r in power_roots(c, modulus, u)
    )


@dataclass(frozen=True)
class ResidueColumn:
    """The m-residues of one n-range, sorted once to answer many m-ranges.

    count(m_lo, m_hi) equals class_count(u, v, m_lo, m_hi, n_lo, n_hi,
    modulus, a).  With f = floor(m_hi) = Q*q + R, the sum of
    w_r * ((f - r) // q) is total*Q minus the weight of the residues above
    R, so an m-range costs two bisects.  The residues are built on the
    first count.
    """

    u: int
    v: int
    n_lo: Real
    n_hi: Real
    modulus: Modulus
    a: int

    @cached_property
    def _table(self) -> tuple[list[int], list[int]]:
        """Sorted residues and the prefix sums of their weights."""
        weights = _residue_weights(self.v, self.n_lo, self.n_hi, self.modulus, self.a)
        # Distinct c have disjoint roots, so each residue of m appears once.
        pairs = sorted(
            (r, w) for c, w in weights.items() for r in power_roots(c, self.modulus, self.u)
        )
        return [r for r, _ in pairs], list(accumulate((w for _, w in pairs), initial=0))

    def count(self, m_lo: Real, m_hi: Real) -> int:
        residues, prefix = self._table
        (q_lo, r_lo), (q_hi, r_hi) = (
            divmod(max(math.floor(m), 0), self.modulus.q) for m in (m_lo, m_hi)
        )
        return (
            prefix[-1] * (q_hi - q_lo)
            + prefix[bisect_right(residues, r_hi)]
            - prefix[bisect_right(residues, r_lo)]
        )

    def serves(self, query: BoxQuery) -> bool:
        """Whether the query's box has this column's congruence and n-range."""
        q = self.modulus.q
        _, _, n_lo, n_hi = query.ranges
        return (query.u, query.v, query.modulus, query.residue % q) == (
            self.u, self.v, self.modulus, self.a % q
        ) and (math.floor(n_lo), math.floor(n_hi)) == (
            math.floor(self.n_lo), math.floor(self.n_hi)
        )


def _assert_count_caps(query: BoxQuery, count: int) -> None:
    """Hard caps provable without implied constants; violation is a bug."""
    q = query.modulus.q
    m_lo, m_hi, n_lo, n_hi = query.ranges
    m_span = math.floor(m_hi) - math.floor(m_lo)
    n_span = math.floor(n_hi) - math.floor(n_lo)
    if (query.u, query.v) == (1, -2):
        cap = (m_span // q + 1) * n_span
    elif (query.u, query.v) == (2, -1):
        cap = (1 << query.modulus.omega) * (n_span // q + 1) * m_span
    else:
        return
    if count > max(cap, 0):
        raise InvariantError(
            f"count {count} exceeds its provable cap {cap} for {query}"
        )


def count_box(query: BoxQuery, column: ResidueColumn | None = None) -> int:
    """Exact solution count for the box described by `query`.

    A caller counting several boxes over one n-range passes that range's
    column, built for the query's congruence and n-range.
    """
    if column is None:
        count = class_count(
            query.u, query.v, *query.ranges, query.modulus, query.residue
        )
    elif column.serves(query):
        count = column.count(*query.ranges[:2])
    else:
        raise InvariantError(f"{column} does not hold the n side of {query}")
    _assert_count_caps(query, count)
    return count


def count_dyadic(m_anchor: Real, n_anchor: Real, modulus: Modulus, a: int) -> int:
    """Solutions of m*n^2 = a (mod q) with m in (M, 2M], n in (N, 2N]."""
    return count_box(BoxQuery(1, -2, m_anchor, n_anchor, modulus, a, dyadic=True))


@dataclass(frozen=True)
class SymmetryCheck:
    """Pair of counts related by swapping box orientation and exponents."""

    query: BoxQuery
    mirrored: BoxQuery
    count: int
    mirrored_count: int

    @property
    def equal(self) -> bool:
        return self.count == self.mirrored_count


def check_symmetry(query: BoxQuery, count: int | None = None) -> SymmetryCheck:
    """Compare a count against its mirror with (u, v) -> (-v, -u) and M, N swapped.

    The mirror only exists for v < 0 (otherwise the mirrored u would not be
    positive).  The two exact counts must always agree; the pair is returned
    for reporting.  A caller already holding count_box(query) passes it as
    `count`, so only the mirror is counted.
    """
    if query.v >= 0:
        raise ValueError("symmetry mirror requires v < 0")
    mirrored = replace(
        query, u=-query.v, v=-query.u, m_bound=query.n_bound, n_bound=query.m_bound
    )
    return SymmetryCheck(
        query=query,
        mirrored=mirrored,
        count=count_box(query) if count is None else count,
        mirrored_count=count_box(mirrored),
    )


@dataclass(frozen=True)
class BoundReport:
    """Bound envelopes for one box, all with implied constant 1.

    Inapplicable fields (box outside the amplification range) are None, not
    an exception.  `ratios` maps bound name to count/bound for the bounds
    that apply.
    """

    count: int
    trivial: float
    weil: float
    pierce_mn: float | None
    pierce_nm: float | None
    interpolated: float | None
    alpha: Fraction

    def ratios(self) -> dict[str, float | None]:
        out: dict[str, float | None] = {}
        for name in ("trivial", "weil", "pierce_mn", "pierce_nm", "interpolated"):
            bound = getattr(self, name)
            if bound is None or bound == 0.0:
                out[name] = None
            else:
                out[name] = self.count / bound
        return out


def pierce_applicable(m_bound: float, n_bound: float, q: int) -> bool:
    """Amplification range: 1 <= M <= q^AMPLIFICATION_RANGE and 1 <= N < q/2."""
    return 1 <= m_bound <= q**_AMP_RANGE and 1 <= n_bound < q / 2


def check_alpha(alpha: Fraction) -> None:
    """Reject interpolation weights outside [0, 1]."""
    if not 0 <= alpha <= 1:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")


def evaluate_bounds(
    query: BoxQuery,
    alpha: Fraction = BLEND.alpha,
    column: ResidueColumn | None = None,
) -> BoundReport:
    """Evaluate every bound envelope for a box, plus the measured count.

    This is the one place a box bound is evaluated; the pipeline's box table
    reads its count, envelopes and applicability from here.  The box is
    counted once.  The amplification bound M^e * N^f takes (e, f) from
    AMPLIFICATION_MN, and its swap gives the (N, M) orientation.  alpha
    interpolates between the two; at the endpoints it reproduces them
    exactly, and the default BLEND.alpha turns the product into a pure
    power of M*N^2.  `column`, if given, is passed on to count_box.
    """
    check_alpha(alpha)
    m = float(query.m_bound)
    n = float(query.n_bound)
    q = query.modulus.q
    count = count_box(query, column)
    trivial = m * n / q + min(m, n)
    weil = m * n / q + (m + n) / math.sqrt(q) + math.sqrt(q)
    mn_ok = pierce_applicable(m, n, q)
    nm_ok = pierce_applicable(n, m, q)
    pierce_mn = m**_AMP_M * n**_AMP_N if mn_ok else None
    pierce_nm = m**_AMP_N * n**_AMP_M if nm_ok else None
    interpolated = None
    if mn_ok and nm_ok:
        af = float(alpha)
        interpolated = pierce_mn**af * pierce_nm ** (1 - af)
    return BoundReport(
        count=count,
        trivial=trivial,
        weil=weil,
        pierce_mn=pierce_mn,
        pierce_nm=pierce_nm,
        interpolated=interpolated,
        alpha=alpha,
    )


def geometric_grid(
    q: int,
    lo_exponent: float = 1 - _AMP_RANGE,
    hi_exponent: float = _AMP_RANGE,
    ratio: float = 2.0,
) -> list[tuple[float, float]]:
    """(M, N) lattice with both sides running over q^lo..q^hi geometrically.

    By default the sides run up to the amplification range and down as far
    below sqrt(q) as that is above it.
    """
    if ratio <= 1:
        raise ValueError("ratio must exceed 1")
    sides = []
    side = q**lo_exponent
    top = q**hi_exponent
    while side <= top * (1 + 1e-12):
        sides.append(side)
        side *= ratio
    return [(m, n) for m in sides for n in sides]


def scan_boxes(
    modulus: Modulus,
    a: int,
    boxes: Iterable[tuple[Real, Real]],
    u: int = 1,
    v: int = -2,
    alpha: Fraction = BLEND.alpha,
    dyadic: bool = False,
) -> list[tuple[BoxQuery, BoundReport]]:
    """Evaluate bounds over a grid of boxes, ordered by (M, N)."""
    rows = []
    for m_bound, n_bound in sorted(boxes):
        query = BoxQuery(u, v, m_bound, n_bound, modulus, a, dyadic)
        rows.append((query, evaluate_bounds(query, alpha)))
    return rows
