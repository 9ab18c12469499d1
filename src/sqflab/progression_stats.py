"""Exact counting statistics for squarefree numbers in arithmetic progressions.

The discrepancy and error-term values are `fractions.Fraction`, never floats:
downstream identity checks require exact equality.  The only floating-point
output here is the monitoring ratio against the classical square-root
error envelope.

`error_term` sieves [1, x] once, in segments of squarefree flags.  The same
walk counts the class a mod q (its flags at stride q) and the squarefree
n <= x coprime to q, as a signed sum of prefix counts at the cut points
x // m for the m built from primes of q (`_coprime_cut_points`).  This
route uses neither Mobius values nor the square-part decomposition, so the
decomposition can be checked against it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Iterable
from zlib import adler32

from sqflab.arith_core import (
    InvariantError,
    Modulus,
    NotCoprimeError,
    factor_modulus,
    is_squarefree,
    squarefree_flags,
)
from sqflab.exponent_calculus import COROLLARY

Real = int | float | Fraction

_SEGMENT = 1 << 20
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
    for d, mu_d in modulus.squarefree_divisors():
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
def _flag_prefix(limit: int) -> bytes:
    """Cached squarefree indicators for [1, limit], limit <= _FLAG_CACHE_MAX."""
    return bytes(squarefree_flags(1, limit))


def _iter_flag_segments(limit: int) -> Iterable[tuple[int, bytes | bytearray]]:
    """Yield (start, flags) pairs covering [1, limit] in bounded memory.

    Segments are handed out as the sieve built them, without a copy; callers
    only read them.
    """
    if limit <= _FLAG_CACHE_MAX:
        yield 1, _flag_prefix(limit)
        return
    for start in range(1, limit + 1, _SEGMENT):
        seg_len = min(_SEGMENT, limit + 1 - start)
        yield start, squarefree_flags(start, seg_len)


# adler32's low half is 1 + (byte sum) mod 65521, which on 0/1 flags is one
# plus the number of set flags in any run shorter than 65521 bytes.
_ADLER_RUN = 1 << 15


def _ones(flags: bytes | bytearray, lo: int, hi: int) -> int:
    """Set flags in flags[lo:hi], counted in place by adler32 over short runs."""
    view = memoryview(flags)
    return sum(
        (adler32(view[i : min(i + _ADLER_RUN, hi)]) & 0xFFFF) - 1
        for i in range(lo, hi, _ADLER_RUN)
    )


def _unit_residue(modulus: Modulus, a: int) -> int:
    """a reduced into [0, q); raises NotCoprimeError unless it is a unit."""
    a %= modulus.q
    if gcd(a, modulus.q) != 1:
        raise NotCoprimeError(f"residue {a} is not coprime to {modulus.q}")
    return a


def _coprime_cut_points(limit: int, modulus: Modulus) -> list[tuple[int, int]]:
    """Pairs (y, w), y ascending, with #{squarefree n <= limit, (n, q) = 1} = sum w*Q(y).

    Q(y) counts squarefree n <= y.  Since prod over p | q of (1 + p^-s)^-1
    is the sum of lambda(m) m^-s over m whose primes all divide q, each such
    m <= limit adds its Liouville sign (-1)^Omega(m) at y = limit // m;
    equal cut points are merged and zero weights dropped.
    """
    terms = [(1, 1)]
    for p in modulus.prime_factors:
        for m, sign in terms[:]:
            while (m := m * p) <= limit:
                sign = -sign
                terms.append((m, sign))
    weights: dict[int, int] = {}
    for m, sign in terms:
        weights[limit // m] = weights.get(limit // m, 0) + sign
    return sorted((y, w) for y, w in weights.items() if w)


_COPRIME_CACHE_SIZE = 64
_coprime_counts: dict[tuple[int, Modulus], int] = {}


def _squarefree_counts(limit: int, modulus: Modulus, a: int | None) -> tuple[int, int]:
    """(class count, coprime count) of squarefree n <= limit from one segment walk.

    The class count (0 when a is None) reads the flags of a mod q at stride
    q.  The coprime count sums w * Q(y) over _coprime_cut_points, with Q
    kept as a running count of the flags up to each cut point, so every
    byte is counted once and in place.  No Mobius table and no
    decomposition code is used, which keeps this route independent of the
    one it is checked against.  The coprime count is cached per (limit, q):
    a repeat walks the class only, and a coprime-only repeat not at all.
    """
    if limit < 1:
        return 0, 0
    if modulus.q == 1 and a is not None:  # the one class mod 1 holds every n
        coprime = _squarefree_counts(limit, modulus, None)[1]
        return coprime, coprime
    key = (limit, modulus)
    coprime = _coprime_counts.get(key)
    if coprime is not None and a is None:
        return 0, coprime
    cuts = [] if coprime is not None else _coprime_cut_points(limit, modulus)
    q = modulus.q
    in_class = running = total = i = 0
    for start, flags in _iter_flag_segments(limit):
        if a is not None:
            strided = flags[(a - start) % q :: q]
            in_class += _ones(strided, 0, len(strided))
        pos = 0
        while i < len(cuts) and cuts[i][0] < start + len(flags):
            y, weight = cuts[i]
            running += _ones(flags, pos, y + 1 - start)
            pos = y + 1 - start
            total += weight * running
            i += 1
        if i < len(cuts):
            running += _ones(flags, pos, len(flags))
    if coprime is None:
        coprime = total
        if len(_coprime_counts) >= _COPRIME_CACHE_SIZE:
            del _coprime_counts[next(iter(_coprime_counts))]
        _coprime_counts[key] = coprime
    return in_class, coprime


def squarefree_count_ap(x: Real, modulus: Modulus, a: int) -> int:
    """Exact count of squarefree n <= x in the class a mod q (a must be a unit)."""
    a = _unit_residue(modulus, a)
    return _squarefree_counts(_floor(x), modulus, a)[0]


def squarefree_count_coprime(x: Real, modulus: Modulus) -> int:
    """Exact count of squarefree n <= x coprime to q (see _coprime_cut_points)."""
    return _squarefree_counts(_floor(x), modulus, None)[1]


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
