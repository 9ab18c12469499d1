"""Exact counting statistics for squarefree numbers in arithmetic progressions.

The discrepancy and error-term values are `fractions.Fraction`, never floats:
downstream identity checks require exact equality.  The only floating-point
output here is the monitoring ratio against the classical square-root
error envelope.

`error_terms` counts, at one x, the classes a mod q of each task, a q with
a list of residues, and the squarefree n <= x coprime to each q.  The class
counts have two routes.  For x <= 2^22 they read one cached flag prefix of
[1, x] at stride q, block by block for every class at once.  There the q of
one call can also share a read: `host_moduli` groups them under common
multiples L, `error_terms` reads the classes mod L that lift theirs once,
and folds each class a mod q from those, the exact sum of the classes
r = a (mod q).  Above 2^22 they count the flags of only each progression
n = a + q*k, about x / q bytes, which arith_core's squarefree_progression
sieves segment by segment.  The coprime count S (`_coprime_count`) has two
routes too.  For x <= 2^22 it is the Liouville sum of Q(x // d) over the
d <= x built from primes of q, Q the plain squarefree count, and every Q is
one read of a table of Q(x // j) counted once per x off the same cached
prefix; the recursion below checks that table's Q(x) once per x.  Above
2^22, where the terms grow with x, every n coprime to q is d^2 times a
squarefree number in exactly one way, so S(y) is the count of integers in
[1, y] coprime to q less the sum of S(y // d^2) over the d >= 2 coprime to
q: S is read from the first 2 * sqrt(x) flags with the multiples of the
primes of q struck, and recursed above them.  Both counts use arith_core's
squarefree sieve, but neither Mobius values nor the square-part
decomposition, so the decomposition can be checked against them.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, compress, repeat
from math import gcd, isqrt, lcm
from typing import Callable, Iterable, Iterator, Sequence
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
# Flags, at least, in each slice of a host modulus L shared by several q:
# L <= x // HOST_SLICE_MIN.  A larger L reads shorter slices for the same
# Python call: at x = 2^22 (2-core x86_64, Python 3.11) a flag cost 0.9-1.2 ns
# in slices of 2^15 or more and 1.6-2.7 ns in slices of 2^8-2^12, and a
# round of the benchmark's scan --a all took the least time at 2^10 of 2^8-2^12.
HOST_SLICE_MIN = 1 << 10
# A q joins the host plan only when its classes alone read at least
# x // HOST_JOIN_MIN flags.  Placing a q compares it with every group so far,
# about 0.15 us each: with the 584 groups of q <= 2000 at x = 2^22 that is
# about 90 us, what x // 64 flags take to read.
HOST_JOIN_MIN = 64
# A flag read at stride s costs about 1 + s / HOST_STRIDE_COST reads at a
# stride below 64.  At x = 2^22 (same machine) reading every class cost
# 0.75-1.05 ns a flag at strides below 64, 1.05-1.3 ns at 65-510, 1.5-1.7 ns
# at 770-2310 and 1.9 ns at 3003-3965, where each flag lies on a page of its own.
HOST_STRIDE_COST = 1 << 12


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

    The class count reads them at stride q and _squarefree_counts counts
    them once for every coprime count, so every count at one limit shares
    one sieve.  The recursion at x reads its own entry, limit = 2 * isqrt(x).
    """
    return squarefree_flags(1, limit)


# adler32's low half is 1 + (byte sum) mod 65521, which on 0/1 flags is one
# plus the number of set flags in any run shorter than 65521 bytes.
_ADLER_RUN = 1 << 15


def _ones(flags: bytes | bytearray | memoryview) -> int:
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


def _check_units(modulus: Modulus, residues: Iterable[int]) -> None:
    """Raise _unit_residue's NotCoprimeError at the first non-unit of residues."""
    # The largest gcd(a, q) is 1 when every residue is a unit.
    if max(map(gcd, residues, repeat(modulus.q)), default=1) > 1:
        for a in residues:
            _unit_residue(modulus, a)


def _class_counts(limit: int, q: int, residues: Sequence[int]) -> list[int]:
    """Squarefree n <= limit with n = a (mod q), for each a of residues; q > 1.

    Up to _FLAG_CACHE_MAX every class, a unit or not, is read off the one
    cached flag prefix at stride q.  A class of at most _BLOCK // 64
    members lies on at most _BLOCK bytes of 64-byte cache lines, which stay
    in cache from one residue to the next, so it is read in one slice.  A
    longer class is read block by block: the prefix is cut into blocks of
    _BLOCK // q whole rows of q flags, and every class takes its slice of a
    block while the block is in cache.  Above the cache every a must be a
    unit, and only each progression n = a + q*k is sieved (a >= 1 and
    gcd(a, q) = 1, as q > 1), segment by segment through
    squarefree_progression.
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


def host_moduli(
    limit: int, classes: dict[int, Sequence[int]]
) -> Iterator[tuple[int, list[int], bytes]]:
    """The host moduli L that serve several q of classes (q -> its residues) at
    x = limit, each with its members in ascending order and the _lifts of
    their classes; any other q is its own host.

    Counting the classes of q alone reads classes * (limit // q) flags at
    stride q.  One read of the classes mod a multiple L of several q, those
    that lift a class of one of them, reads lifted * (limit // L) flags at
    stride L for all of them.  The q > 1 that read at least
    limit // HOST_JOIN_MIN flags alone join groups in ascending order, each
    the group whose lcm grows least (a new group if none stays within
    L <= limit // HOST_SLICE_MIN), and a group shares its L only when its
    members' own reads cost more than its lifted read, each flag weighted by
    1 + stride / HOST_STRIDE_COST.  Above the flag cache no q shares.
    """
    bound = limit // HOST_SLICE_MIN if limit <= _FLAG_CACHE_MAX else 0
    groups: list[tuple[int, list[int]]] = []  # (L, members)
    for q in sorted(classes):
        if q == 1 or q > bound or len(classes[q]) * (limit // q) < limit // HOST_JOIN_MIN:
            continue
        # q joins the group whose L grows least, the smaller L first, or a new one.
        fits = [(lcm(L, q) // L, L, i) for i, (L, _) in enumerate(groups) if lcm(L, q) <= bound]
        growth, _, i = min(fits, default=(q, 1, len(groups)))
        if i == len(groups):
            groups.append((1, []))
        L, members = groups[i]
        members.append(q)
        groups[i] = (L * growth, members)

    def read_cost(residues: int, stride: int) -> int:
        return residues * (limit // stride) * (HOST_STRIDE_COST + stride)

    for L, members in groups:
        if len(members) > 1:
            lifts = _lifts(L, [(q, classes[q]) for q in members])
            if sum(read_cost(len(classes[q]), q) for q in members) > read_cost(lifts.count(1), L):
                yield L, members, lifts


def _lifts(host: int, classes: Iterable[tuple[int, Sequence[int]]]) -> bytes:
    """One flag per residue r mod host: 1 where r lifts a class a mod q of
    classes, (q, residues) with q | host."""
    lifts = 0
    for q, residues in classes:
        mask = bytearray(q)
        for a in residues:
            mask[a % q] = 1
        lifts |= int.from_bytes(mask * (host // q), "little")
    return lifts.to_bytes(host, "little")


def _coprime_recursion(limit: int, primes: tuple[int, ...]) -> int:
    """S(limit), the squarefree n <= limit coprime to q, the product of
    primes, by one recursion; the route of _coprime_count above the cache.

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


@lru_cache(maxsize=8)
def _squarefree_counts(limit: int) -> Callable[[int], int]:
    """Q(y), the squarefree n <= y, for y = limit // d, d >= 1, and for
    y <= isqrt(limit), with 1 <= limit <= _FLAG_CACHE_MAX.

    One pass over the cached flags of [1, limit] keeps Q(y) for each
    y <= isqrt(limit) and Q(limit // j) for each j with limit // j above
    it, and each larger y = limit // d is limit // j for j = limit // y, so
    every read is one table entry.  Q(limit) must equal the recursion's
    count at q = 1, which reads only the flags of [1, 2 * isqrt(limit)]: a
    wrong flag of [1, limit] raises InvariantError here, rather than shift
    the class counts and every coprime count read from Q together.
    """
    flags = _flag_prefix(limit)
    root = isqrt(limit)
    head = array("I", accumulate(flags[:root], initial=0))
    ends = [limit // j for j in range(limit // (root + 1), 0, -1)]  # ascending, above root
    view = memoryview(flags)  # runs up to limit / 2 long, counted uncopied
    runs = (_ones(view[start:end]) for start, end in zip([0, *ends], ends))
    tail = array("I", [0]) + array("I", accumulate(runs))[::-1]  # tail[j] = Q(limit // j)

    def squarefree(y: int) -> int:
        return head[y] if y <= root else tail[limit // y]

    total, recursed = squarefree(limit), _coprime_recursion(limit, ())
    if total != recursed:
        raise InvariantError(
            f"the flags of [1, {limit}] hold {total} squarefree numbers, "
            f"the recursion counts {recursed}"
        )
    return squarefree


def _coprime_count(limit: int, modulus: Modulus) -> int:
    """S(limit), the squarefree n <= limit coprime to q, limit >= 1.

    Up to _FLAG_CACHE_MAX it is the sum of (-1)^Omega(d) * Q(limit // d)
    over the d <= limit whose primes all divide q, Q the plain squarefree
    count.  A squarefree n <= y coprime to q / p, p a prime of q, is coprime
    to p or p times a squarefree n' <= y // p coprime to q, so
    S(y) = S'(y) - S(y // p) with S' the count coprime to q / p; unfolding
    this over the powers of p and then the other primes of q leaves those
    terms.  Each Q is one read of _squarefree_counts(limit), built once per
    limit off the flags the class counts read, so no flags are copied per q:
    at limit = 2^22 q = 510510 reads 10,102 terms.  Above the cache the
    terms grow with limit (at x = 10^14 and q = 6469693230 the sum took
    18.9 s), and _coprime_recursion, which reads 2 * isqrt(limit) flags,
    counts S instead.
    """
    if limit > _FLAG_CACHE_MAX:
        return _coprime_recursion(limit, modulus.prime_factors)
    even, odd = [limit], []  # limit // d for the d with an even, an odd Omega(d)
    for p in modulus.prime_factors:
        e, o = even, odd
        while e or o:
            # Both lists are read before either grows: one more p flips the parity.
            e, o = [y // p for y in o if y >= p], [y // p for y in e if y >= p]
            even += e
            odd += o
    squarefree = _squarefree_counts(limit)
    return sum(map(squarefree, even)) - sum(map(squarefree, odd))


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


def hooley_envelope(x: Real, q: int) -> float:
    """The classical square-root error envelope sqrt(x/q) + sqrt(q) of E(x; q, a)."""
    return math.sqrt(float(x) / q) + math.sqrt(q)


@dataclass(frozen=True)
class ErrorTermResult:
    """One exact error term, built by error_term from counts error_terms checked.

    error = progression_count - coprime_count / phi(q), held as a Fraction;
    reference_ratio is the one float read from it.
    """

    x: Real
    modulus: Modulus
    residue: int
    progression_count: int
    coprime_count: int
    error: Fraction

    @property
    def reference_ratio(self) -> float:
        """|error| divided by the classical envelope (hooley_envelope).

        Monitoring quantity for the implied constant of the square-root
        error term; reported, never asserted against.
        """
        return abs(float(self.error)) / hooley_envelope(self.x, self.modulus.q)


def error_terms(
    x: Real, tasks: Sequence[tuple[Modulus, Sequence[int]]]
) -> Iterator[tuple[int, list[int]]]:
    """The squarefree counts at x in the classes a mod q of each task
    (modulus, residues): one (coprime count, class counts) pair of ints per
    task, in order, the class counts in the order of its residues.

    x < 1 and every non-unit residue are refused before any count.  Each
    task's coprime count is computed once and its classes are counted
    together, or, where host_moduli plans a host for its q among the tasks,
    each class is folded from the host's counts by an exact integer sum.  A
    host is counted at the turn of its first member and dropped after that
    of its last.  Each class count must lie in [0, x // q + 1] and the
    coprime count in [count, x], checked class by class before the task is
    yielded; a count outside raises InvariantError.
    """
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    # Residues are checked here but reduced at their task's turn: one task's units at a time.
    for modulus, residues in tasks:
        _check_units(modulus, residues)
    limit = math.floor(x)
    # A q listed again is counted alone: the plan takes its first task's classes.
    classes = {m.q: residues for m, residues in reversed(tasks)}
    hosts = {q: group for group in host_moduli(limit, classes) for q in group[1]}
    shared: dict[int, list[int]] = {}  # q -> its host's counts, read at its first member's turn
    for modulus, residues in tasks:
        q = modulus.q
        units = [a % q for a in residues]
        group = hosts.pop(q, None)
        if group and q not in shared:
            host, members, lifts = group
            lifted = list(compress(range(host), lifts))
            counts = [0] * host
            for r, count in zip(lifted, _class_counts(limit, host, lifted)):
                counts[r] = count
            shared.update(dict.fromkeys(members, counts))
        # Neither count uses Mobius values or decomposition code, which keeps
        # this route independent of the one it is checked against.
        cop = _coprime_count(limit, modulus)
        if q == 1:
            progs = [cop] * len(units)
        elif q in shared:
            counts = shared.pop(q)
            progs = [sum(counts[a::q]) for a in units]
        else:
            progs = _class_counts(limit, q, units)
        cap = limit // q + 1
        for prog in progs:
            if not 0 <= prog <= cap:
                raise InvariantError("progression count lies outside [0, x // q + 1]")
            if not prog <= cop <= limit:
                raise InvariantError("coprime count lies outside [count_ap, x]")
        yield cop, progs


def error_term(x: Real, modulus: Modulus, a: int) -> ErrorTermResult:
    """Exact error of the squarefree count in a progression against the coprime average."""
    cop, (prog,) = next(error_terms(x, [(modulus, [a])]))
    phi = modulus.phi
    return ErrorTermResult(x, modulus, a % modulus.q, prog, cop, Fraction(prog * phi - cop, phi))


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


def least_squarefree_members(x: Real, modulus: Modulus, residues: Sequence[int]) -> list[int]:
    """least_squarefree(modulus, a) for each a of residues, in order.

    For 1 <= x <= _FLAG_CACHE_MAX the candidates n = a + k*q, a = q for
    a = 0, up to min(x, max(q*q, 16)) are read off the cached flags of
    [1, x] at stride q, one row of q flags at a time for every class still
    without a member; the class counts at x read the same flags.  About 6/10
    of the classes end in the first row.  A class with no squarefree
    candidate in those flags, and every class above the cache, takes
    least_squarefree's trial division, which stops at the same ceiling and
    raises the same SearchCeilingError.
    """
    q = modulus.q
    _check_units(modulus, residues)
    limit = math.floor(x)
    if not 1 <= limit <= _FLAG_CACHE_MAX:
        return [least_squarefree(modulus, a) for a in residues]
    flags = _flag_prefix(limit)
    reach = min(limit, max(q * q, 16))
    least = [0] * len(residues)
    # Each class with the flag index of its first candidate, n - 1 = (a - 1) % q.
    pending = [(i, (a - 1) % q) for i, a in enumerate(residues)]
    for row in range(0, reach, q):
        left = []
        for i, index in pending:
            if row + index < reach and flags[row + index]:
                least[i] = row + index + 1
            else:
                left.append((i, index))
        pending = left
        if not pending:
            break
    for i, _ in pending:
        least[i] = least_squarefree(modulus, residues[i])
    return least


def squarefree_moduli(q_max: int) -> list[Modulus]:
    """All squarefree moduli q <= q_max, ascending."""
    flags = squarefree_flags(1, q_max)
    return [factor_modulus(q) for q in range(1, q_max + 1) if flags[q - 1]]

