"""Counting solutions of m^u = a*n^v (mod q) inside boxes, with bound envelopes.

Counts are exact integers: the residue classes of m that the n side hits,
with n folded modulo q, are held as sorted multisets, and an m-range is
counted from them with two bisects per multiset; the cost is sorting
O(min(N, q) * roots) residues, never O(M*N).  For u = 2 the roots of every
c are found one prime p of q at a time: a p of at most _SWEEP_FACTOR times
the window's distinct c is squared out once into a table of all its roots,
and a larger p is solved per c.  Negative exponents follow the convention
that n^v means the modular inverse of n raised to |v|.  The residues of any
n-window come from one batch inversion; a ResidueColumn walks its n side
where its table holds it, its m side past it.

Bound envelopes (trivial, Weil, Pierce amplification, and the alpha
interpolation between the two Pierce orientations) are evaluated with
implied constant 1; callers get measured count/bound ratios and decide what
to make of them.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from itertools import compress
from math import gcd
from typing import Iterable, Sequence

from sqflab.arith_core import InvariantError, Modulus, NotCoprimeError, Real
from sqflab.exponent_calculus import AMPLIFICATION_MN, AMPLIFICATION_RANGE, BLEND

# The analysis exponents as the floats the bound envelopes use.
_AMP_M, _AMP_N = map(float, AMPLIFICATION_MN)
_AMP_RANGE = float(AMPLIFICATION_RANGE)

# A residue table below this modulus fits array("q").
_INT64_END = 1 << 63

# _prime_roots squares all of [0, p/2] when the prime p is at most this many
# times the number of distinct c it serves; otherwise each c is solved mod p.
_SWEEP_FACTOR = 16


def sqrt_mod_prime(c: int, p: int) -> list[int]:
    """All x in [0, p) with x*x = c (mod p), p prime, in no particular order.

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
        return [r, p - r]
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
    return [r, p - r]


def check_root_exponent(u: int) -> None:
    """Reject a root exponent that the counts do not solve (u outside {1, 2})."""
    if u not in (1, 2):
        raise ValueError(f"unsupported exponent u={u}; only u in {{1, 2}} is implemented")


def power_roots(
    c: int, modulus: Modulus, prime_roots: Sequence[Sequence[int] | None]
) -> list[int]:
    """All residues x mod q with x*x = c (mod q), in no particular order.

    Only square roots are solved here: the u = 1 count reads its one root,
    c itself, directly.  Squarefree q reduces them to one square root per
    prime factor, recombined through the Chinese remainder basis.  The
    primes are tried smallest first, so a non-residue mod any of them
    returns early.  The roots mod p come from the table for p in
    `prime_roots` (built by _prime_roots) where it has one, and from
    sqrt_mod_prime where it holds None.
    """
    q = modulus.q
    c %= q
    per_prime = []
    for p, swept in zip(modulus.prime_factors, prime_roots):
        if swept is None:
            roots = sqrt_mod_prime(c, p)
        else:  # x <= p - x, and x is the one root of 0 (and of 1 mod 2)
            x = swept[c % p]
            roots = (x, p - x) if 0 < x < p - x else (x,) if x >= 0 else ()
        if not roots:
            return []
        per_prime.append(roots)
    combined = [0]
    for roots, e in zip(per_prime, modulus.crt_basis):
        combined = [(x + r * e) % q for x in combined for r in roots]
    return combined


def _prime_roots(modulus: Modulus, distinct: int) -> list[Sequence[int] | None]:
    """Per prime p of q, the smaller square root of every residue mod p (-1 if none), or None.

    `distinct` is the number of distinct c that power_roots will solve.  A
    prime with p <= _SWEEP_FACTOR * distinct is swept: squaring every x in
    [0, p/2] fills an array of p entries, so no array holds more than
    _SWEEP_FACTOR entries per c it serves.  A larger prime gets None, and
    power_roots solves each c that reaches it with sqrt_mod_prime; the c of
    a window that short against p rarely share a residue mod p.  The roots
    of r are x and p - x, which are one root when x = 0 or p = 2.
    """
    out: list[Sequence[int] | None] = []
    for p in modulus.prime_factors:
        roots = None
        if p <= _SWEEP_FACTOR * distinct:
            roots = array("q", [-1]) * p
            for x in range(p // 2 + 1):
                roots[x * x % p] = x
        out.append(roots)
    return out


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
        for name, side in (("m", self.m_bound), ("n", self.n_bound)) if self.dyadic else ():
            if abs(2 * side) == math.inf:
                raise ValueError(f"dyadic side {name} = {side} doubles past the largest float")

    @property
    def ranges(self) -> tuple[Real, Real, Real, Real]:
        """(m_lo, m_hi, n_lo, n_hi): the box is (m_lo, m_hi] x (n_lo, n_hi]."""
        if self.dyadic:
            return self.m_bound, 2 * self.m_bound, self.n_bound, 2 * self.n_bound
        return 0, self.m_bound, 0, self.n_bound

    @property
    def mirror(self) -> BoxQuery:
        """The box counted from its other side: (u, v) -> (-v, -u), M and N swapped.

        n^-v = a*m^-u has the solutions of m^u = a*n^v with m and n
        exchanged, so the two counts agree.  The mirror exists only for
        v < 0; otherwise its u would not be positive.
        """
        if self.v >= 0:
            raise ValueError("symmetry mirror requires v < 0")
        return replace(self, u=-self.v, v=-self.u, m_bound=self.n_bound, n_bound=self.m_bound)


@dataclass(frozen=True)
class ResidueTable:
    """c[n] = a*n^v (mod q) for 0 <= n < len(values), read at n mod q.

    An entry is -1 where n^v does not exist (v < 0 and gcd(n, q) > 1).  The
    values cover one full period of n (len(values) == q) or end before q;
    a short table holds the n up to its end only.  The decomposition pass
    builds one for v = -2 up to isqrt(x), reads every a*n^-2 from it, and
    lends it to the pipeline's box columns; a column whose n-range it holds
    reads its residues from it.
    """

    v: int
    modulus: Modulus
    a: int
    values: Sequence[int] = field(repr=False)

    def holds(self, n_last: int) -> bool:
        """Whether the values give a*n^v for every n <= n_last."""
        return len(self.values) == self.modulus.q or n_last < len(self.values)


def _residue_window(v: int, modulus: Modulus, a: int, n_first: int, stop: int) -> Sequence[int]:
    """a*n^v (mod q) for n_first <= n < stop; -1 where v < 0 and gcd(n, q) > 1.

    For v < 0 the units n are inverted together (Montgomery's batch
    inversion): a forward pass stores at each unit the product of the units
    before it, one pow inverts the product of them all, and a backward pass
    takes each n^-1 from the stored product and the running inverse, two
    multiplications per n.  Residues below 2^63 are held in a compact
    array("q"); a larger modulus keeps a list.  |v| <= 2 is raised by
    multiplication, a larger |v| by pow, as n**|v| would grow huge.
    """
    q = modulus.q
    k = abs(v)
    if v >= 0:
        ns = range(n_first, stop)
        values = [a * (n * n if k == 2 else n if k == 1 else pow(n, k, q)) % q for n in ns]
        return array("q", values) if q <= _INT64_END else values
    size = stop - n_first
    window = array("q", [-1]) * size if q <= _INT64_END else [-1] * size
    units = bytearray(b"\x01") * size
    for p in modulus.prime_factors:
        first = -n_first % p
        units[first::p] = bytes(len(range(first, size, p)))
    product = 1
    for i in compress(range(size), units):
        window[i] = product
        product = product * (n_first + i) % q
    inverse = pow(product, -1, q)  # of every unit in the window
    for i in compress(range(size - 1, -1, -1), reversed(units)):
        inv = inverse * window[i] % q  # n^-1
        inverse = inverse * (n_first + i) % q
        window[i] = a * (inv * inv if k == 2 else inv if k == 1 else pow(inv, k, q)) % q
    return window


def residue_table(v: int, modulus: Modulus, a: int, n_top: int) -> ResidueTable:
    """The table of a*n^v (mod q) for 0 <= n < min(q, n_top + 1).

    Its values are the residue window that starts at n = 0.
    """
    q = modulus.q
    a %= q
    return ResidueTable(v, modulus, a, _residue_window(v, modulus, a, 0, min(q, n_top + 1)))


def _m_residues(
    u: int, v: int, n_lo: Real, n_hi: Real, modulus: Modulus, a: int,
    values: Sequence[int] | None = None,
) -> tuple[tuple[list[int], int], ...]:
    """The m-residues of the n in (n_lo, n_hi], as sorted multisets with weights.

    The m of a solution of m^u = a*n^v are the roots of c = a*n^v (mod q),
    solved once per distinct c; for v < 0 the n not coprime to q (c = -1)
    have none.  c depends on n mod q only, so a range longer than q is
    folded.  For u = 1 the c of its first q integers are one multiset,
    weighted by its full periods, and those of its partial period another;
    for u = 2 each root is held once, grouped by the number of n with its c,
    so at most q residues are held.  The c come from one residue window, or
    as one or two slices of `values` when given: the values of a
    ResidueTable of a*n^v (mod q) that holds every n of the range.  A u
    outside {1, 2} is refused before any n is read.
    """
    check_root_exponent(u)
    q = modulus.q
    a %= q
    # Integers in (n_lo, n_hi] are floor(n_lo)+1 .. floor(n_hi).
    n_first = max(math.floor(n_lo), 0) + 1
    periods, partial = divmod(max(math.floor(n_hi) - n_first + 1, 0), q)
    stop = n_first + (q if periods else partial)
    if values is None:
        cs = _residue_window(v, modulus, a, n_first, stop)
    else:
        i = n_first % q
        j = i + stop - n_first
        cs = values[i:j] if j <= q else values[i:] + values[: j - q]
    # Without a full period, cs is the partial period itself, weighted by 1.
    head = cs[:partial] if periods else ()
    if u == 1:  # the one root of c is c itself
        sets = ((list(cs), periods or 1), (list(head), 1))
    else:  # distinct c have disjoint roots: each is kept once, by its c's weight
        counts, head_counts = Counter(cs), Counter(head)
        counts.pop(-1, None)
        prime_roots = _prime_roots(modulus, len(counts))
        buckets = defaultdict(list)
        for c, k in counts.items():
            buckets[k * (periods or 1) + head_counts.get(c, 0)] += power_roots(
                c, modulus, prime_roots
            )
        del counts, prime_roots  # freed before the roots are sorted
        sets = tuple((roots, w) for w, roots in buckets.items())
    for roots, _ in sets:  # sorted, with the c = -1 of the non-units dropped
        roots.sort()
        del roots[: bisect_right(roots, -1)]
    return sets


def _count_m_range(sets: Iterable[tuple[list[int], int]], m_lo: Real, m_hi: Real, q: int) -> int:
    """The m in (m_lo, m_hi], m >= 1, that lie in the weighted residue multisets.

    With floor(m) = Q*q + R, a multiset of size s holds s*(Q_hi - Q_lo) of
    them plus its residues in (R_lo, R_hi], which two bisects count.
    """
    (q_lo, r_lo), (q_hi, r_hi) = (divmod(max(math.floor(m), 0), q) for m in (m_lo, m_hi))
    return sum(
        w * (len(rs) * (q_hi - q_lo) + bisect_right(rs, r_hi) - bisect_right(rs, r_lo))
        for rs, w in sets
    )


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
    ResidueColumn, counted by the same two helpers.
    """
    return _count_m_range(_m_residues(u, v, n_lo, n_hi, modulus, a), m_lo, m_hi, modulus.q)


@dataclass(frozen=True)
class ResidueColumn:
    """The m-residues of one n-range, sorted once to answer many m-ranges.

    The congruence m^u = a*n^v (mod q) takes v, q and a from `table`, and
    count(m_lo, m_hi) equals class_count(u, v, m_lo, m_hi, n_lo, n_hi,
    modulus, a).  Where the table holds the n-range, the column walks its n
    side: its sorted residue multisets are read from the table on the first
    count, and each m-range then costs two bisects per multiset.  Past the
    table's end it walks its m side, which needs v < 0 and a unit a: each
    count is class_count(-v, -u, n_lo, n_hi, m_lo, m_hi, modulus, a), the
    mirror n^-v = a*m^-u.
    """

    u: int
    n_lo: Real
    n_hi: Real
    table: ResidueTable

    @cached_property
    def _residues(self) -> tuple[tuple[list[int], int], ...] | None:
        """The n side's weighted residue multisets; None on the m side."""
        t = self.table
        n_last = math.floor(self.n_hi)
        if not t.holds(n_last):
            if t.v < 0 and gcd(t.a, t.modulus.q) == 1:
                return None
            raise InvariantError(f"{t} ends below n = {n_last}")
        return _m_residues(self.u, t.v, self.n_lo, self.n_hi, t.modulus, t.a, t.values)

    def count(self, m_lo: Real, m_hi: Real) -> int:
        t = self.table
        if self._residues is None:
            return class_count(-t.v, -self.u, self.n_lo, self.n_hi, m_lo, m_hi, t.modulus, t.a)
        return _count_m_range(self._residues, m_lo, m_hi, t.modulus.q)

    def serves(self, query: BoxQuery) -> bool:
        """Whether the query's box has this column's congruence and n-range."""
        t = self.table
        _, _, n_lo, n_hi = query.ranges
        return (query.u, query.v, query.modulus, query.residue % t.modulus.q) == (
            self.u, t.v, t.modulus, t.a
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


def check_symmetry(query: BoxQuery, count: int) -> int:
    """The count of query.mirror (which needs v < 0), checked against `count`.

    `count` is count_box(query), which the caller already holds.  The two
    exact counts must always agree; a mismatch raises InvariantError.
    """
    mirrored = count_box(query.mirror)
    if count != mirrored:
        raise InvariantError(f"symmetry relation violated: {count} != {mirrored}")
    return mirrored


@dataclass(frozen=True)
class BoundReport:
    """Bound envelopes for one box, all with implied constant 1.

    Inapplicable fields (box outside the amplification range) are None, not
    an exception.  `ratios` maps bound name to count/bound for the bounds
    that apply; a bound that overflowed to inf gives 0.0, as it does for
    every count a float holds.
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
                out[name] = self.count / bound if bound < math.inf else 0.0
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


def scan_boxes(
    modulus: Modulus, a: int, boxes: Iterable[tuple[Real, Real]]
) -> list[tuple[BoxQuery, BoundReport]]:
    """Evaluate bounds over a grid of boxes [1, M] x [1, N] of m*n^2 = a, ordered by (M, N)."""
    rows = []
    for m_bound, n_bound in sorted(boxes):
        query = BoxQuery(1, -2, m_bound, n_bound, modulus, a)
        rows.append((query, evaluate_bounds(query)))
    return rows
