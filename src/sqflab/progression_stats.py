"""Exact counting statistics for squarefree numbers in arithmetic progressions.

The discrepancy and error-term values are `fractions.Fraction`, never floats:
downstream identity checks require exact equality.  The only floating-point
output here is the monitoring ratio against the classical square-root
error envelope.

`error_term` counts the class a mod q and the squarefree n <= x coprime to
q.  The class count has two routes.  For x <= 2^22 it reads one cached
flag prefix of [1, x] at stride q.  Above 2^22 it counts the flags of
only the progression n = a + q*k, about x / q bytes, which arith_core's
squarefree_progression sieves segment by segment.  The coprime count has one
route at every x: a signed sum of Q(x // m) over the m built from primes
of q (`_coprime_cut_points`), where Q(y) counts squarefree n <= y.  Each
Q(y) comes from y = sum over d of Q(y // d^2), every n being d^2 times a
squarefree number in exactly one way, with a prefix table of 2 * sqrt(x)
flags (at most 2^22).  Both counts use arith_core's squarefree sieve,
but neither Mobius values nor the square-part decomposition, so the
decomposition can be checked against them.
"""

from __future__ import annotations

import math
import random
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, compress
from math import gcd, isqrt
from typing import Callable, Iterable
from zlib import adler32

from sqflab.arith_core import (
    InvariantError,
    Modulus,
    NotCoprimeError,
    factor_modulus,
    is_squarefree,
    squarefree_flags,
    squarefree_progression,
)
from sqflab.exponent_calculus import COROLLARY

Real = int | float | Fraction

_FLAG_CACHE_MAX = 1 << 22


class SearchCeilingError(RuntimeError):
    """A bounded scan ran past its ceiling; treat as a bug signal."""


def _floor(x: Real) -> int:
    return math.floor(x)


def count_ap(x: Real, q: int, a: int) -> int:
    """#{1 <= m <= x : m = a (mod q)}, exactly.

    a is normalized into [0, q); no coprimality is required.
    """
    if q < 1:
        raise ValueError(f"modulus must be positive, got {q}")
    fx = _floor(x)
    if fx < 1:
        return 0
    a %= q
    if a == 0:
        return fx // q
    if fx < a:
        return 0
    return (fx - a) // q + 1


def count_coprime(x: Real, modulus: Modulus) -> int:
    """#{1 <= m <= x : gcd(m, q) = 1} via inclusion-exclusion over divisors."""
    fx = _floor(x)
    if fx < 1:
        return 0
    total = 0
    for d, mu_d in modulus.squarefree_divisors:
        total += mu_d * (fx // d)
    return total


def discrepancy(x: Real, modulus: Modulus, a: int) -> Fraction:
    """Progression count minus the coprime average, as an exact rational.

    Total in all arguments: non-unit a is allowed (the value is still well
    defined, it just is not used by the decomposition).
    """
    ap = count_ap(x, modulus.q, a)
    cop = count_coprime(x, modulus)
    return Fraction(ap) - Fraction(cop, modulus.phi)


@lru_cache(maxsize=8)
def _flag_prefix(limit: int) -> bytearray:
    """Cached squarefree flags of [1, limit], limit <= _FLAG_CACHE_MAX, kept uncopied."""
    return squarefree_flags(1, limit)


# adler32's low half is 1 + (byte sum) mod 65521, which on 0/1 flags is one
# plus the number of set flags in any run shorter than 65521 bytes.
_ADLER_RUN = 1 << 15


def _ones(flags: bytes | bytearray) -> int:
    """Set flags in flags, counted in place by adler32 over short runs."""
    view = memoryview(flags)
    return sum(
        (adler32(view[i : i + _ADLER_RUN]) & 0xFFFF) - 1
        for i in range(0, len(flags), _ADLER_RUN)
    )


def _unit_residue(modulus: Modulus, a: int) -> int:
    """a reduced into [0, q); raises NotCoprimeError unless it is a unit."""
    a %= modulus.q
    if gcd(a, modulus.q) != 1:
        raise NotCoprimeError(f"residue {a} is not coprime to {modulus.q}")
    return a


def _class_count(limit: int, q: int, a: int) -> int:
    """Squarefree n <= limit with n = a (mod q), a a unit, q > 1.

    Up to _FLAG_CACHE_MAX the class is read off the cached flags at stride
    q.  Above it only the progression n = a + q*k is sieved (a >= 1 and
    gcd(a, q) = 1, as q > 1 and a is a unit), segment by segment through
    squarefree_progression.
    """
    if limit <= _FLAG_CACHE_MAX:
        return _ones(_flag_prefix(limit)[(a - 1) % q :: q])
    return sum(map(_ones, squarefree_progression(a, q, (limit - a) // q + 1)))


def _coprime_cut_points(limit: int, modulus: Modulus) -> list[tuple[int, int]]:
    """Pairs (y, w), y ascending, with #{squarefree n <= limit, (n, q) = 1} = sum w*Q(y).

    Q(y) counts squarefree n <= y.  Since prod over p | q of (1 + p^-s)^-1
    is the sum of lambda(m) m^-s over m whose primes all divide q, each such
    m <= limit adds its Liouville sign (-1)^Omega(m) at y = limit // m.
    The weights are merged per y one prime of q at a time: each cut point y
    with weight w so far passes -w to y // p, w to y // p^2, and so on down
    to 0, so the many m that share a small y are never listed one by one.
    Zero weights are dropped as soon as they appear.
    """
    weights = {limit: 1}
    for p in modulus.prime_factors:
        merged: dict[int, int] = {}
        for y, w in weights.items():
            while y:
                merged[y] = merged.get(y, 0) + w
                y //= p
                w = -w
        weights = {y: w for y, w in merged.items() if w}
    return sorted(weights.items())


@lru_cache(maxsize=1)
def _squarefree_prefix(t: int) -> tuple[bytearray, array]:
    """Squarefree flags of [1, t] and their prefix counts, with index y holding Q(y).

    The table of the last t is kept, so the moduli of one x in a scan
    share it; one entry only, as it takes up to 20 MB at t = 2^22.
    """
    flags = squarefree_flags(1, t)
    return flags, array("I", accumulate(flags, initial=0))


def _squarefree_counter(limit: int) -> Callable[[int], int]:
    """Q(y), the number of squarefree n <= y, for y <= limit, without a walk to y.

    Every n >= 1 is d^2 * s with s squarefree in exactly one way, so
    y = sum over d >= 1 of Q(y // d^2), that is
    Q(y) = y - sum over d >= 2 of Q(y // d^2).  Q is read from a prefix
    count of squarefree_flags(1, t) up to t = 2 * isqrt(limit), at most
    _FLAG_CACHE_MAX, so the table stays as small as the flag cache; above
    t it recurses, memoized for the life of the counter.  The terms with
    d > d_max, where y // d^2 <= v and v is about the cube root of y, are
    summed per squarefree s <= v instead of per d: d^2 * s <= y holds for
    isqrt(y // s) values of d, and the first d_max of them are the terms
    already taken one by one.  The flags and prefix counts come from
    _squarefree_prefix(t), shared by every counter with the same t.
    """
    t = min(2 * isqrt(limit), _FLAG_CACHE_MAX)
    flags, prefix = _squarefree_prefix(t)
    memo: dict[int, int] = {}

    def count(y: int) -> int:
        if y <= t:
            return prefix[y]
        total = memo.get(y)
        if total is None:
            v = min(int(y ** (1 / 3)), t)
            d_big = isqrt(y // (t + 1))  # d <= d_big: y // d^2 > t
            d_max = isqrt(y // (v + 1))  # d > d_max: y // d^2 <= v
            total = (
                y
                - sum(count(y // (d * d)) for d in range(2, d_big + 1))
                - sum(prefix[y // (d * d)] for d in range(d_big + 1, d_max + 1))
                - sum(isqrt(y // s) for s in compress(range(1, v + 1), flags))
                + d_max * prefix[v]
            )
            memo[y] = total
        return total

    return count


@lru_cache(maxsize=64)
def _coprime_count(limit: int, modulus: Modulus) -> int:
    """Squarefree n <= limit coprime to q: the sum of w * Q(y) over the cut points.

    Q is _squarefree_counter(limit) at every limit, so no flag array longer
    than 2 * isqrt(limit) is built, and every q at one limit reads the same
    flag table.  Cached per (limit, q), so the classes of one modulus at
    one limit share the sum.
    """
    count = _squarefree_counter(limit)
    return sum(weight * count(y) for y, weight in _coprime_cut_points(limit, modulus))


def _squarefree_counts(limit: int, modulus: Modulus, a: int) -> tuple[int, int]:
    """(class count, coprime count) of squarefree n <= limit, a a unit.

    Neither count uses Mobius values or decomposition code, which keeps
    this route independent of the one it is checked against.  For q = 1
    the one class holds every n, so the class count is the coprime count.
    """
    if limit < 1:
        return 0, 0
    coprime = _coprime_count(limit, modulus)
    if modulus.q == 1:
        return coprime, coprime
    return _class_count(limit, modulus.q, a), coprime


def squarefree_count_ap(x: Real, modulus: Modulus, a: int) -> int:
    """Exact count of squarefree n <= x in the class a mod q (a must be a unit)."""
    a = _unit_residue(modulus, a)
    return _squarefree_counts(_floor(x), modulus, a)[0]


def squarefree_count_coprime(x: Real, modulus: Modulus) -> int:
    """Exact count of squarefree n <= x coprime to q (see _coprime_cut_points)."""
    limit = _floor(x)
    return _coprime_count(limit, modulus) if limit >= 1 else 0


@dataclass(frozen=True)
class ErrorTermResult:
    """One exact evaluation of the progression error term.

    error = progression_count - coprime_count / phi(q), held as a Fraction.
    """

    x: Real
    modulus: Modulus
    residue: int
    progression_count: int
    coprime_count: int
    error: Fraction

    def __post_init__(self) -> None:
        fx = _floor(self.x)
        if not 0 <= self.progression_count <= fx // self.modulus.q + 1:
            raise InvariantError("progression count lies outside [0, x // q + 1]")
        if not self.progression_count <= self.coprime_count <= fx:
            raise InvariantError("coprime count lies outside [count_ap, x]")


def error_term(x: Real, modulus: Modulus, a: int) -> ErrorTermResult:
    """Exact error of the squarefree count in a progression against the coprime average."""
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    a = _unit_residue(modulus, a)
    prog, cop = _squarefree_counts(_floor(x), modulus, a)
    err = Fraction(prog) - Fraction(cop, modulus.phi)
    return ErrorTermResult(
        x=x,
        modulus=modulus,
        residue=a,
        progression_count=prog,
        coprime_count=cop,
        error=err,
    )


def reference_ratio(
    x: Real, modulus: Modulus, a: int, result: ErrorTermResult | None = None
) -> float:
    """|error| divided by the classical envelope sqrt(x/q) + sqrt(q).

    Monitoring quantity for the implied constant of the square-root error
    term; reported, never asserted against.  A caller that already holds
    error_term(x, modulus, a) passes it as `result` instead of having it
    computed again.
    """
    if result is None:
        result = error_term(x, modulus, a)
    elif (result.x, result.modulus, result.residue) != (x, modulus, a % modulus.q):
        raise ValueError("result was computed for a different (x, q, a)")
    denom = math.sqrt(float(x) / modulus.q) + math.sqrt(modulus.q)
    return abs(float(result.error)) / denom


def least_squarefree(modulus: Modulus, a: int, ceiling: int | None = None) -> int:
    """Smallest positive squarefree integer congruent to a mod q.

    The scan is bounded by `ceiling` (default q*q); running past it raises,
    which at desk scale would indicate a bug rather than a genuine miss.
    """
    q = modulus.q
    a = _unit_residue(modulus, a)
    if ceiling is None:
        ceiling = max(q * q, 16)
    n = a if a >= 1 else q
    while n <= ceiling:
        if is_squarefree(n):
            return n
        n += q
    raise SearchCeilingError(
        f"no squarefree member of {a} mod {q} found up to {ceiling}"
    )


def squarefree_moduli(q_max: int) -> list[Modulus]:
    """All squarefree moduli q <= q_max, ascending."""
    flags = squarefree_flags(1, q_max)
    return [factor_modulus(q) for q in range(1, q_max + 1) if flags[q - 1]]


def _sample_units(modulus: Modulus, per_q: int, rng: random.Random) -> list[int]:
    """Deterministic sample of unit residues: q-1 plus seeded draws."""
    q = modulus.q
    if q == 1:
        return [0]
    units = {q - 1 if gcd(q - 1, q) == 1 else 1}
    attempts = 0
    while len(units) < min(per_q, modulus.phi) and attempts < 40 * per_q:
        c = rng.randrange(1, q)
        attempts += 1
        if gcd(c, q) == 1:
            units.add(c)
    return sorted(units)


def reference_ratio_grid_max(
    x_values: Iterable[int],
    q_max: int,
    residues_per_q: int = 4,
    seed: int = 0,
) -> tuple[float, tuple[int, int, int]]:
    """Max reference_ratio over a seeded grid; returns (value, (x, q, a)).

    The grid is deterministic for a fixed seed, so the recorded maximum can
    be compared between runs as a regression monitor.
    """
    rng = random.Random(seed)
    best = 0.0
    argmax = (0, 0, 0)
    moduli = squarefree_moduli(q_max)
    samples = [(m, _sample_units(m, residues_per_q, rng)) for m in moduli]
    for x in x_values:
        for modulus, residues in samples:
            if modulus.q > x:
                continue
            for a in residues:
                r = reference_ratio(x, modulus, a)
                if r > best:
                    best = r
                    argmax = (x, modulus.q, a)
    return best, argmax


def least_squarefree_ratio_max(
    q_max: int,
    residues_per_q: int = 8,
    seed: int = 0,
) -> tuple[float, tuple[int, int, int]]:
    """Max of n(q, a) / q**COROLLARY over a seeded residue sample, q squarefree.

    Returns (value, (q, a, n)).  Monitored regression quantity for the
    least-squarefree growth exponent.
    """
    rng = random.Random(seed)
    best = 0.0
    argmax = (0, 0, 0)
    for modulus in squarefree_moduli(q_max):
        for a in _sample_units(modulus, residues_per_q, rng):
            n = least_squarefree(modulus, a)
            ratio = n / float(modulus.q) ** float(COROLLARY)
            if ratio > best:
                best = ratio
                argmax = (modulus.q, a, n)
    return best, argmax
