"""Exact integer primitives: stride sieves and modulus factorization.

All values returned here are exact Python integers.  Every sieve is a
bytearray slice per prime, with primes from one cached table (the largest
built so far).  One kernel, squarefree_progression, sieves the squarefree
flags of a progression start + step*k with terms up to about 10^14, in
segments of bounded memory; squarefree_flags is its step-1 case over a
window.  Mobius windows are built from those flags and end at or below
MOBIUS_SIEVE_MAX.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import compress
from math import gcd, isqrt, prod
from typing import Iterator

# A real bound of a count: a cutoff x or a box side.
Real = int | float | Fraction

# A Mobius window flips its signs once per prime below its end, so its end
# is capped; squarefree flags only need primes up to the square root.
MOBIUS_SIEVE_MAX = 10**7

# Longest segment of a progression sieve, in bytes (one flag per term).
_SEGMENT = 1 << 20

# 1 <-> 255 is a sign flip of a signed byte; 0 stays 0.
_FLIP = bytes.maketrans(b"\x01\xff", b"\xff\x01")


class NotSquarefreeError(ValueError):
    """Raised when a modulus carries a squared prime factor."""


class NotCoprimeError(ValueError):
    """Raised when an operation requires coprimality that does not hold."""


class InvariantError(RuntimeError):
    """An internal invariant failed: a bug signal, never an input error."""


def _primes(n: int) -> Iterator[int]:
    """Primes <= n (n >= 1) in ascending order, by Eratosthenes on a bytearray."""
    flags = bytearray(b"\x01") * (n + 1)
    flags[0] = flags[1] = 0
    for p in range(2, isqrt(n) + 1):
        if flags[p]:
            start = p * p
            flags[start :: p] = b"\x00" * ((n - start) // p + 1)
    return compress(range(n + 1), flags)


def primes_up_to(n: int) -> list[int]:
    """Primes <= n by Eratosthenes on a bytearray."""
    return list(_primes(n)) if n >= 2 else []


_prime_cache: dict[int, array] = {}


def _prime_table(bits: int) -> array:
    """Primes <= 2**bits or beyond: all primes up to any bound of that bit length.

    Only the largest table built so far is kept, since it serves every
    smaller bound; callers stop at their own bound.  It is an array of
    4-byte integers, built without an intermediate list.
    """
    held = max(_prime_cache, default=-1)
    if bits > held:
        _prime_cache.clear()
        _prime_cache[bits] = array("I", _primes(1 << bits))
        held = bits
    return _prime_cache[held]


def is_squarefree(n: int) -> bool:
    """Trial-division squarefreeness test for a single integer.

    Strips primes up to the cube root, then the remaining cofactor can only
    be squarefull if it is a perfect square.
    """
    if n <= 0:
        raise ValueError(f"positive integer required, got {n}")
    if n < 4:
        return True
    p = 2
    while p * p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return False
        p += 1 if p == 2 else 2
    if n > 1:
        r = isqrt(n)
        if r * r == n:
            return False
    return True


@dataclass(frozen=True)
class Modulus:
    """A squarefree modulus q with its prime factors, found from q alone.

    Trial division stops at MOBIUS_SIEVE_MAX, so every q <= 10^14 factors
    completely.  A q < 1, a q with a square factor (NotSquarefreeError) and
    a q left unfactored are refused: callers must not proceed with them.
    phi and omega, the Euler totient and the number of prime factors, are
    read from the factors.
    """

    q: int
    prime_factors: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        q = self.q
        if q < 1:
            raise ValueError(f"modulus must be a positive integer, got {q}")
        factors = []
        rest = q
        p = 2
        while p * p <= rest and p <= MOBIUS_SIEVE_MAX:
            if rest % p == 0:
                rest //= p
                if rest % p == 0:
                    raise NotSquarefreeError(f"{q} is divisible by {p}^2")
                factors.append(p)
            p += 1 if p == 2 else 2
        if p * p <= rest:
            raise ValueError(
                f"{q} leaves {rest} unfactored by trial division up to MOBIUS_SIEVE_MAX = "
                f"{MOBIUS_SIEVE_MAX}"
            )
        if rest > 1:
            factors.append(rest)
        object.__setattr__(self, "prime_factors", tuple(factors))

    @cached_property
    def phi(self) -> int:
        return prod(p - 1 for p in self.prime_factors)

    @cached_property
    def omega(self) -> int:
        return len(self.prime_factors)

    @cached_property
    def crt_basis(self) -> tuple[int, ...]:
        """e_i with e_i = 1 mod p_i and 0 mod the other prime factors.

        Built on first use and kept with the modulus, since square roots
        modulo q recombine through it once per residue.
        """
        q = self.q
        return tuple((q // p) * pow(q // p, -1, p) % q for p in self.prime_factors)

    @cached_property
    def squarefree_divisors(self) -> tuple[tuple[int, int], ...]:
        """All (d, mu(d)) with d | q, in increasing subset order, built on first use."""
        divisors = [(1, 1)]
        for p in self.prime_factors:
            divisors += [(d * p, -m) for d, m in divisors]
        return tuple(divisors)


def factor_modulus(q: int) -> Modulus:
    """The Modulus of q: its prime factors, or the refusal of q."""
    return Modulus(q)


def squarefree_progression(
    start: int, step: int, length: int, segment: int | None = None
) -> Iterator[bytearray]:
    """Squarefree flags (0/1 bytes) of start + step*k, 0 <= k < length, in segments.

    Requires gcd(start, step) = 1: no prime of step divides a term, and
    p^2 for any other p <= sqrt(last term) divides exactly the terms with
    k = -start * step^-1 (mod p^2).  Segments hold `segment` flags (default
    _SEGMENT), the last one fewer.  A p^2 below that strikes every segment
    at stride p^2; any other hits a segment at most once, so its hits are
    listed once, sorted, and struck one by one.
    """
    if start < 1:
        raise ValueError(f"start must be >= 1, got {start}")
    if length < 0:
        raise ValueError(f"length must be >= 0, got {length}")
    if step < 1 or gcd(start, step) != 1:
        raise ValueError(f"step {step} must be >= 1 and coprime to start {start}")
    if length == 0:
        return
    seg = min(segment or _SEGMENT, length)
    root = isqrt(start + step * (length - 1))
    strides, hits = [], []
    for p in _prime_table(root.bit_length()):
        if p > root:
            break
        p2 = p * p
        if step % p:
            k0 = -start * pow(step, -1, p2) % p2
            if p2 < seg:
                strides.append((k0, p2))
            else:
                hits.extend(range(k0, length, p2))
    hits.sort()
    h = 0
    for lo in range(0, length, seg):
        size = min(seg, length - lo)
        flags = bytearray(b"\x01") * size
        for k0, p2 in strides:
            i0 = (k0 - lo) % p2
            flags[i0::p2] = bytes(len(range(i0, size, p2)))
        while h < len(hits) and hits[h] < lo + size:
            flags[hits[h] - lo] = 0
            h += 1
        yield flags


def squarefree_flags(start: int, length: int) -> bytearray:
    """Squarefree flags (0/1 bytes) over [start, start+length): byte i is start+i.

    The step-1 progression as one segment.  Agrees with mu**2 from the
    Mobius windows but runs at C speed, which the counting layers rely on.
    """
    return next(squarefree_progression(start, 1, length, segment=length), bytearray())


def mobius_segment(start: int, length: int) -> array:
    """Mobius values over [start, start+length), ending at most at MOBIUS_SIEVE_MAX.

    A signed-byte array: byte i is mu(start + i), and start must be >= 1.
    Starts from the squarefree flags and flips the sign byte at the
    multiples of every prime below the window's end.  Every prime factor of
    every n in the window is such a prime, so a squarefree n ends up with
    (-1)^omega(n) and the others keep 0: exact by construction.
    """
    last = start + length - 1
    if last > MOBIUS_SIEVE_MAX:
        raise ValueError(
            f"window end {last} exceeds the Mobius sieve bound {MOBIUS_SIEVE_MAX}"
        )
    signs = squarefree_flags(start, length)
    for p in _prime_table(last.bit_length()):
        if p > last:
            break
        i0 = -start % p
        if i0 < length:
            signs[i0::p] = signs[i0::p].translate(_FLIP)
    return array("b", signs)


def mobius_sieve(limit: int) -> array:
    """Mobius values over [1, limit]: byte i is mu(i + 1)."""
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    return mobius_segment(1, limit)

