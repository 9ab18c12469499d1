"""Exact integer primitives: Mobius sieves, modulus factorization, modular arithmetic.

All values returned here are exact Python integers.  Sieves come in a full
flavour (small ranges) and a segmented flavour so that windows deep inside
[1, 10^9] are reachable in bounded memory.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from math import gcd, isqrt
from typing import Sequence

# Full-sieve allocations are O(limit); segments are the tool above this.
MOBIUS_SIEVE_MAX = 10**7
SEGMENT_MAX_LENGTH = 10**7


class NotSquarefreeError(ValueError):
    """Raised when a modulus carries a squared prime factor."""


class NotCoprimeError(ValueError):
    """Raised when an operation requires coprimality that does not hold."""


class InsufficientPrimesError(ValueError):
    """Raised when a prime table does not cover the sieve window."""


class InvariantError(RuntimeError):
    """An internal invariant failed: a bug signal, never an input error."""


def primes_up_to(n: int) -> list[int]:
    """Primes <= n by Eratosthenes on a bytearray."""
    if n < 2:
        return []
    flags = bytearray(b"\x01") * (n + 1)
    flags[0] = flags[1] = 0
    for p in range(2, isqrt(n) + 1):
        if flags[p]:
            start = p * p
            flags[start :: p] = b"\x00" * ((n - start) // p + 1)
    return [i for i, v in enumerate(flags) if v]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _prev_prime(n: int) -> int:
    """Largest prime <= n, or 0 when none exists."""
    while n >= 2:
        if _is_prime(n):
            return n
        n -= 1
    return 0


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
class SieveWindow:
    """Mobius values over the integer interval [start, start+length).

    mu[i] belongs to {-1, 0, +1} and is the Mobius value of start+i; the
    squarefree indicator of start+i is mu[i]**2.
    """

    start: int
    length: int
    mu: Sequence[int]

    def __post_init__(self) -> None:
        if self.start < 1:
            raise ValueError("window start must be >= 1")
        if self.length < 0:
            raise ValueError("window length must be >= 0")
        if len(self.mu) != self.length:
            raise ValueError("mu must have exactly `length` entries")

    @property
    def end(self) -> int:
        """One past the last covered integer."""
        return self.start + self.length

    def mu_at(self, n: int) -> int:
        if not self.start <= n < self.end:
            raise IndexError(f"{n} outside window [{self.start}, {self.end})")
        return self.mu[n - self.start]

    def squarefree_at(self, n: int) -> bool:
        return self.mu_at(n) != 0

    def concat(self, other: "SieveWindow") -> "SieveWindow":
        """Join with an adjacent window on the right."""
        if other.start != self.end:
            raise ValueError("windows are not adjacent")
        joined = array("b", self.mu)
        joined.extend(other.mu)
        return SieveWindow(self.start, self.length + other.length, joined)


@dataclass(frozen=True)
class Modulus:
    """A squarefree modulus with its certificate of squarefreeness.

    The product of prime_factors equals q, which is only possible for
    squarefree q; phi and omega are the Euler totient and the number of
    prime factors.
    """

    q: int
    prime_factors: tuple[int, ...]
    phi: int
    omega: int

    def __post_init__(self) -> None:
        prod = 1
        for p in self.prime_factors:
            prod *= p
        if prod != self.q:
            raise ValueError("prime_factors do not multiply to q")

    def squarefree_divisors(self) -> list[tuple[int, int]]:
        """All (d, mu(d)) with d | q, in increasing subset order."""
        divisors = [(1, 1)]
        for p in self.prime_factors:
            divisors += [(d * p, -m) for d, m in divisors]
        return divisors

    def is_coprime(self, n: int) -> bool:
        return gcd(n, self.q) == 1


def factor_modulus(q: int) -> Modulus:
    """Factor a squarefree modulus; reject anything with a square factor.

    Callers must not proceed with non-squarefree q, so the rejection is an
    exception rather than a flag.
    """
    if q < 1:
        raise ValueError(f"modulus must be a positive integer, got {q}")
    factors = []
    rest = q
    p = 2
    while p * p <= rest:
        if rest % p == 0:
            rest //= p
            if rest % p == 0:
                raise NotSquarefreeError(f"{q} is divisible by {p}^2")
            factors.append(p)
        p += 1 if p == 2 else 2
    if rest > 1:
        factors.append(rest)
    phi = 1
    for p in factors:
        phi *= p - 1
    return Modulus(q=q, prime_factors=tuple(factors), phi=phi, omega=len(factors))


def _check_prime_table(primes: Sequence[int], end: int) -> None:
    """Require every prime <= isqrt(end - 1) to be present in the table."""
    if end <= 1:
        return
    bound = isqrt(end - 1)
    needed = _prev_prime(bound)
    if needed == 0:
        return
    if not primes or primes[-1] < needed:
        have = primes[-1] if primes else None
        raise InsufficientPrimesError(
            f"prime table up to {have} cannot sieve [.., {end}); need primes to {needed}"
        )


def mobius_sieve(limit: int) -> SieveWindow:
    """Mobius values over [1, limit] by the multiplicative sieve."""
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    if limit > MOBIUS_SIEVE_MAX:
        raise ValueError(
            f"limit {limit} exceeds the full-sieve bound {MOBIUS_SIEVE_MAX}; "
            "use mobius_segment for large ranges"
        )
    mu = array("b", [1]) * (limit + 1)
    for p in primes_up_to(limit):
        for m in range(p, limit + 1, p):
            mu[m] = -mu[m]
        p2 = p * p
        for m in range(p2, limit + 1, p2):
            mu[m] = 0
    return SieveWindow(start=1, length=limit, mu=mu[1:])


def mobius_segment(
    start: int, length: int, primes: Sequence[int] | None = None
) -> SieveWindow:
    """Mobius values over [start, start+length) without sieving from 1.

    `primes` must cover every prime up to sqrt(start+length-1); pass None to
    have the table built internally.
    """
    if start < 1:
        raise ValueError(f"start must be >= 1, got {start}")
    if length < 0:
        raise ValueError(f"length must be >= 0, got {length}")
    if length > SEGMENT_MAX_LENGTH:
        raise ValueError(f"segment length {length} exceeds {SEGMENT_MAX_LENGTH}")
    end = start + length
    if length == 0:
        return SieveWindow(start=start, length=0, mu=array("b"))
    if primes is None:
        primes = primes_up_to(isqrt(end - 1))
    else:
        _check_prime_table(primes, end)

    mu = array("b", [1]) * length
    remaining = list(range(start, end))
    root = isqrt(end - 1)
    for p in primes:
        if p > root:
            break
        first = ((start + p - 1) // p) * p
        for m in range(first, end, p):
            i = m - start
            r = remaining[i] // p
            if r % p == 0:
                mu[i] = 0
                while r % p == 0:
                    r //= p
            else:
                mu[i] = -mu[i]
            remaining[i] = r
    for i in range(length):
        # Leftover cofactor is a single prime > sqrt(end-1).
        if remaining[i] > 1:
            mu[i] = -mu[i]
    return SieveWindow(start=start, length=length, mu=mu)


def squarefree_flags(
    start: int, length: int, primes: Sequence[int] | None = None
) -> bytearray:
    """Squarefree indicators (0/1 bytes) over [start, start+length).

    Marks multiples of p^2 with bytearray strides; byte i corresponds to the
    integer start+i.  Agrees with mu**2 from the Mobius windows but runs at
    C speed, which the counting layers rely on.
    """
    if start < 1:
        raise ValueError(f"start must be >= 1, got {start}")
    if length < 0:
        raise ValueError(f"length must be >= 0, got {length}")
    end = start + length
    flags = bytearray(b"\x01") * length
    if length == 0:
        return flags
    if primes is None:
        primes = primes_up_to(isqrt(end - 1))
    else:
        _check_prime_table(primes, end)
    root = isqrt(end - 1)
    for p in primes:
        if p > root:
            break
        p2 = p * p
        first = ((start + p2 - 1) // p2) * p2
        if first < end:
            i0 = first - start
            count = (end - 1 - first) // p2 + 1
            flags[i0::p2] = b"\x00" * count
    return flags


def mod_inverse(n: int, q: int) -> int:
    """Multiplicative inverse of n modulo q, in [0, q)."""
    if q < 1:
        raise ValueError(f"modulus must be positive, got {q}")
    if q == 1:
        return 0
    try:
        return pow(n, -1, q)
    except ValueError:
        raise NotCoprimeError(f"{n} is not invertible modulo {q}") from None


def mod_pow(n: int, e: int, q: int) -> int:
    """n**e modulo q, where a negative e means the inverse raised to |e|."""
    if q < 1:
        raise ValueError(f"modulus must be positive, got {q}")
    if e >= 0:
        return pow(n, e, q)
    return pow(mod_inverse(n, q), -e, q)
