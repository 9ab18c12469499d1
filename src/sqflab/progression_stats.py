"""Exact counting statistics for squarefree numbers in arithmetic progressions.

The discrepancy and error-term values are `fractions.Fraction`, never floats:
downstream identity checks require exact equality.  The only floating-point
output here is the monitoring ratio against the classical square-root
error envelope.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt
from typing import Iterable

from sqflab.arith_core import (
    Modulus,
    NotCoprimeError,
    factor_modulus,
    is_squarefree,
    primes_up_to,
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
    primes = primes_up_to(isqrt(limit))
    for start in range(1, limit + 1, _SEGMENT):
        seg_len = min(_SEGMENT, limit + 1 - start)
        yield start, squarefree_flags(start, seg_len, primes)


def _count_ones(flags: bytes | bytearray, offset: int, stride: int) -> int:
    """Set flags at offset, offset + stride, ...; stride 1 counts without a copy."""
    if stride == 1:
        return flags.count(1, offset)
    return flags[offset::stride].count(1)


def _count_squarefree_in_class(limit: int, q: int, a: int) -> int:
    """Squarefree n <= limit with n = a (mod q); a already in [0, q)."""
    total = 0
    for start, flags in _iter_flag_segments(limit):
        total += _count_ones(flags, (a - start) % q, q)
    return total


def squarefree_count_ap(x: Real, modulus: Modulus, a: int) -> int:
    """Exact count of squarefree n <= x in the class a mod q (a must be a unit)."""
    q = modulus.q
    a %= q
    if gcd(a, q) != 1:
        raise NotCoprimeError(f"residue {a} is not coprime to {q}")
    fx = _floor(x)
    if fx < 1:
        return 0
    return _count_squarefree_in_class(fx, q, a)


def squarefree_count_coprime(x: Real, modulus: Modulus) -> int:
    """Exact count of squarefree n <= x coprime to q.

    Inclusion-exclusion over the squarefree divisors d of q: multiples of d
    that are squarefree are read off the flag windows with stride d.
    """
    fx = _floor(x)
    if fx < 1:
        return 0
    return _squarefree_coprime_cached(fx, modulus)


@lru_cache(maxsize=64)
def _squarefree_coprime_cached(limit: int, modulus: Modulus) -> int:
    total = 0
    for start, flags in _iter_flag_segments(limit):
        for d, mu_d in modulus.squarefree_divisors():
            total += mu_d * _count_ones(flags, -start % d, d)
    return total


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
        if self.progression_count > fx // self.modulus.q + 1:
            raise ValueError("progression count exceeds its hard cap")
        if self.coprime_count > fx:
            raise ValueError("coprime count exceeds the interval length")


def error_term(x: Real, modulus: Modulus, a: int) -> ErrorTermResult:
    """Exact error of the squarefree count in a progression against the coprime average."""
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    a %= modulus.q
    prog = squarefree_count_ap(x, modulus, a)
    cop = squarefree_count_coprime(x, modulus)
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
    a %= q
    if gcd(a, q) != 1:
        raise NotCoprimeError(f"residue {a} is not coprime to {q}")
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
