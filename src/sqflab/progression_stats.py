"""Exact counting statistics for squarefree numbers in arithmetic progressions.

The discrepancy and error-term values are `fractions.Fraction`, never floats:
downstream identity checks require exact equality.  The only floating-point
output here is the monitoring ratio against the classical square-root
error envelope.

`error_terms` counts the classes a mod q of a list of residues and the
squarefree n <= x coprime to q.  The class counts have two routes.  For
x <= 2^22 they read one cached flag prefix of [1, x] at stride q, block by
block for every class at once.  Above 2^22 they count the flags of only
each progression n = a + q*k, about x / q bytes, which arith_core's
squarefree_progression sieves segment by segment.  The coprime count S has
one route at every x (`_coprime_count`): every n coprime to q is d^2
times a squarefree number in exactly one way, so S(y) is the count of
integers in [1, y] coprime to q less the sum of S(y // d^2) over the
d >= 2 coprime to q.  S is read from the first 2 * sqrt(x) flags (at
most 2^22) with the multiples of the primes of q struck, and recursed
above them.  Both counts use arith_core's squarefree sieve, but neither
Mobius values nor the square-part decomposition, so the decomposition can
be checked against them.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, compress
from math import gcd, isqrt
from typing import Iterable, Sequence
from zlib import adler32

from sqflab.arith_core import (
    InvariantError,
    Modulus,
    NotCoprimeError,
    Real,
    factor_modulus,
    is_squarefree,
    squarefree_flags,
    squarefree_progression,
)

_FLAG_CACHE_MAX = 1 << 22
# Flags of one block of the class count: half of a 2 MiB L2 cache.
_BLOCK = 1 << 20


class SearchCeilingError(RuntimeError):
    """A bounded scan ran past its ceiling; treat as a bug signal."""


def count_ap(x: Real, q: int, a: int) -> int:
    """#{1 <= m <= x : m = a (mod q)}, exactly.

    The least such m is a mod q, or q for a = 0 (mod q); no coprimality is
    required.
    """
    if q < 1:
        raise ValueError(f"modulus must be positive, got {q}")
    return (max(math.floor(x), 0) - (a % q or q)) // q + 1


def count_coprime(x: Real, modulus: Modulus) -> int:
    """#{1 <= m <= x : gcd(m, q) = 1} via inclusion-exclusion over divisors."""
    fx = math.floor(x)
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
    """Cached squarefree flags of [1, limit], limit <= _FLAG_CACHE_MAX, kept uncopied.

    The class count reads them at stride q and the coprime count copies
    them before striking, so every count at one limit shares one sieve.
    """
    return squarefree_flags(1, limit)


# adler32's low half is 1 + (byte sum) mod 65521, which on 0/1 flags is one
# plus the number of set flags in any run shorter than 65521 bytes.
_ADLER_RUN = 1 << 15


def _ones(flags: bytes | bytearray) -> int:
    """Set flags in flags, counted in place by adler32 over short runs."""
    if len(flags) <= _ADLER_RUN:
        return (adler32(flags) & 0xFFFF) - 1
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


def _class_counts(limit: int, q: int, residues: Sequence[int]) -> list[int]:
    """Squarefree n <= limit with n = a (mod q), for each unit a of residues; q > 1.

    Up to _FLAG_CACHE_MAX every class is read off the one cached flag prefix
    at stride q.  A class of at most _BLOCK // 64 members lies on at most
    _BLOCK bytes of 64-byte cache lines, which stay in cache from one
    residue to the next, so it is read in one slice.  A longer class is read
    block by block: the prefix is cut into blocks of _BLOCK // q whole rows
    of q flags, and every class takes its slice of a block while the block
    is in cache.  Above the cache only each progression n = a + q*k is
    sieved (a >= 1 and gcd(a, q) = 1, as q > 1 and a is a unit), segment by
    segment through squarefree_progression.
    """
    if limit > _FLAG_CACHE_MAX:
        return [
            sum(map(_ones, squarefree_progression(a, q, (limit - a) // q + 1)))
            for a in residues
        ]
    flags = _flag_prefix(limit)
    offsets = [(a - 1) % q for a in residues]
    step = _BLOCK // q * q if limit // q > _BLOCK // 64 else limit
    counts = [0] * len(offsets)
    for start in range(0, limit, step):
        counts = [c + _ones(flags[start + i : start + step : q]) for c, i in zip(counts, offsets)]
    return counts


def _coprime_count(limit: int, modulus: Modulus) -> int:
    """S(limit), the squarefree n <= limit coprime to q, by one recursion.

    Every n coprime to q is d^2 * s in exactly one way, with s squarefree
    and d, s coprime to q, so S(y) = phi(y) - sum over d >= 2 coprime to q
    of S(y // d^2), where phi(y) counts [1, y] coprime to q; for q = 1, S
    is the plain squarefree count.  S is a prefix count of the flags of
    [1, t], t = 2 * isqrt(limit) at most _FLAG_CACHE_MAX, copied with the
    multiples of the primes of q struck; above t it recurses, memoized
    within the call.  The d with y // d^2 <= v, v about the cube root of y,
    are counted per coprime squarefree s <= v: from a prefix count of a
    coprime mask up to r, and from phi's Legendre recursion above r.  No
    Mobius value or divisor of q enters.
    """
    t = min(2 * isqrt(limit), _FLAG_CACHE_MAX)
    # r bounds every d taken one by one: d_max is at most isqrt(y // (t + 1))
    # when v = t, and at most v + 1 <= min(t, isqrt(y)) otherwise.
    r = max(isqrt(limit // (t + 1)), min(t, isqrt(limit)))
    primes = modulus.prime_factors
    flags = bytearray(_flag_prefix(t))
    coprime = bytearray(b"\x01") * r
    for p in primes:
        flags[p - 1 :: p] = bytes(len(range(p - 1, t, p)))
        coprime[p - 1 :: p] = bytes(len(range(p - 1, r, p)))
    base = array("I", accumulate(flags, initial=0))  # base[y] = S(y) for y <= t
    # units[n] = phi(n) for n <= r, which is n when no prime of q is <= r.
    units = range(r + 1)
    if any(p <= r for p in primes):
        units = array("I", accumulate(coprime, initial=0))

    def phi(y: int, i: int = len(primes)) -> int:
        """Integers in [1, y] divisible by none of the first i primes of q."""
        if i == 0 or y < primes[0]:
            return y
        return phi(y, i - 1) - phi(y // primes[i - 1], i - 1)

    memo: dict[int, int] = {}

    def count(y: int) -> int:
        if y <= t:
            return base[y]
        total = memo.get(y)
        if total is None:
            v = min(int(y ** (1 / 3)), t)
            d_big = isqrt(y // (t + 1))  # d <= d_big: y // d^2 > t
            d_max = isqrt(y // (v + 1))  # d > d_max: y // d^2 <= v
            s_big = min(y // (r + 1) ** 2, v)  # s <= s_big: isqrt(y // s) > r
            head = compress(range(2, d_big + 1), coprime[1:d_big])
            mid = compress(range(d_big + 1, d_max + 1), coprime[d_big:d_max])
            tail = compress(range(s_big + 1, v + 1), flags[s_big:v])
            total = (
                phi(y)
                - sum(count(y // (d * d)) for d in head)
                - sum(base[y // (d * d)] for d in mid)
                - sum(phi(isqrt(y // s)) for s in compress(range(1, s_big + 1), flags))
                - sum(units[isqrt(y // s)] for s in tail)
                + units[d_max] * base[v]
            )
            memo[y] = total
        return total

    return count(limit)


def squarefree_count_ap(x: Real, modulus: Modulus, a: int) -> int:
    """Exact count of squarefree n <= x in the class a mod q (a must be a unit).

    For q = 1 the one class holds every n, so it is the coprime count.
    """
    a = _unit_residue(modulus, a)
    limit = math.floor(x)
    if limit < 1:
        return 0
    if modulus.q == 1:
        return _coprime_count(limit, modulus)
    return _class_counts(limit, modulus.q, (a,))[0]


def squarefree_count_coprime(x: Real, modulus: Modulus) -> int:
    """Exact count of squarefree n <= x coprime to q (see _coprime_count)."""
    limit = math.floor(x)
    return _coprime_count(limit, modulus) if limit >= 1 else 0


@dataclass(frozen=True)
class ErrorTermResult:
    """One exact evaluation of the progression error term.

    error = progression_count - coprime_count / phi(q), held as a Fraction;
    reference_ratio is the one float read from it.
    """

    x: Real
    modulus: Modulus
    residue: int
    progression_count: int
    coprime_count: int
    error: Fraction

    def __post_init__(self) -> None:
        fx = math.floor(self.x)
        if not 0 <= self.progression_count <= fx // self.modulus.q + 1:
            raise InvariantError("progression count lies outside [0, x // q + 1]")
        if not self.progression_count <= self.coprime_count <= fx:
            raise InvariantError("coprime count lies outside [count_ap, x]")

    @property
    def reference_ratio(self) -> float:
        """|error| divided by the classical envelope sqrt(x/q) + sqrt(q).

        Monitoring quantity for the implied constant of the square-root
        error term; reported, never asserted against.
        """
        q = self.modulus.q
        return abs(float(self.error)) / (math.sqrt(float(self.x) / q) + math.sqrt(q))


def error_terms(x: Real, modulus: Modulus, residues: Iterable[int]) -> list[ErrorTermResult]:
    """Exact errors of the squarefree counts in the classes a mod q of residues.

    Every residue must be a unit; a non-unit is refused before any count.
    The coprime count is computed once and the classes are counted together.
    """
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    units = [_unit_residue(modulus, a) for a in residues]
    limit = math.floor(x)
    # Neither count uses Mobius values or decomposition code, which keeps
    # this route independent of the one it is checked against.
    cop = _coprime_count(limit, modulus)
    progs = [cop] * len(units) if modulus.q == 1 else _class_counts(limit, modulus.q, units)
    phi = modulus.phi
    return [
        ErrorTermResult(
            x=x,
            modulus=modulus,
            residue=a,
            progression_count=prog,
            coprime_count=cop,
            error=Fraction(prog * phi - cop, phi),
        )
        for a, prog in zip(units, progs)
    ]


def error_term(x: Real, modulus: Modulus, a: int) -> ErrorTermResult:
    """Exact error of the squarefree count in a progression against the coprime average."""
    return error_terms(x, modulus, (a,))[0]


def reference_ratio(x: Real, modulus: Modulus, a: int) -> float:
    """The reference_ratio of error_term(x, modulus, a)."""
    return error_term(x, modulus, a).reference_ratio


def least_squarefree(modulus: Modulus, a: int) -> int:
    """Smallest positive squarefree integer congruent to a mod q.

    The scan stops at max(q*q, 16); running past it raises, which at desk
    scale would indicate a bug rather than a genuine miss.
    """
    q = modulus.q
    a = _unit_residue(modulus, a)
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

