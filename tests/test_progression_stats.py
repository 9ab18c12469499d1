"""Counting-function correctness: enumeration oracles, exact error terms."""

import math
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqflab import arith_core, progression_stats
from sqflab.arith_core import Modulus, NotCoprimeError, factor_modulus, squarefree_flags
from sqflab.progression_stats import (
    SearchCeilingError,
    count_ap,
    count_coprime,
    discrepancy,
    error_term,
    error_terms,
    least_squarefree,
    reference_ratio,
    squarefree_count_ap,
    squarefree_count_coprime,
    squarefree_moduli,
)


def squarefree_oracle(n: int) -> bool:
    p = 2
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        p += 1
    return True


def error_term_oracle(x: int, q: int, a: int) -> Fraction:
    """Per-integer trial-division evaluation of the progression error."""
    prog = sum(1 for n in range(1, x + 1) if n % q == a % q and squarefree_oracle(n))
    cop = sum(1 for n in range(1, x + 1) if gcd(n, q) == 1 and squarefree_oracle(n))
    phi = sum(1 for r in range(1, q + 1) if gcd(r, q) == 1)
    return Fraction(prog) - Fraction(cop, phi)


def test_count_ap_examples():
    assert count_ap(10, 3, 1) == 4  # {1, 4, 7, 10}
    assert count_ap(57.3, 1, 0) == 57
    assert count_ap(0.5, 3, 1) == 0
    assert count_ap(30, 5, 0) == 6


def test_count_ap_matches_enumeration():
    rng = random.Random(2)
    for _ in range(100):
        q = rng.randrange(1, 40)
        a = rng.randrange(0, q)
        x = rng.random() * 300
        expected = sum(1 for m in range(1, math.floor(x) + 1) if m % q == a)
        assert count_ap(x, q, a) == expected


@given(
    x=st.one_of(
        st.integers(min_value=0, max_value=10**5),
        st.floats(min_value=0, max_value=10**5, allow_nan=False),
    ),
    q=st.integers(min_value=1, max_value=50),
)
@settings(max_examples=200, deadline=None)
def test_count_ap_sums_to_floor(x, q):
    assert sum(count_ap(x, q, a) for a in range(q)) == math.floor(x)


def test_count_coprime_examples():
    assert count_coprime(10, factor_modulus(3)) == 7
    assert count_coprime(123.9, factor_modulus(1)) == 123
    assert count_coprime(30, factor_modulus(30)) == 8


def test_count_coprime_full_gcd_scan():
    # Every squarefree q <= 100 and every cutoff x <= 1000, exactly.
    for m in squarefree_moduli(100):
        running = 0
        expected = {}
        for n in range(1, 1001):
            if gcd(n, m.q) == 1:
                running += 1
            expected[n] = running
        for x in range(1, 1001):
            assert count_coprime(x, m) == expected[x]


def test_discrepancy_examples():
    assert discrepancy(10, factor_modulus(3), 1) == Fraction(1, 2)
    assert discrepancy(500, factor_modulus(1), 0) == 0
    assert discrepancy(30, factor_modulus(5), 1) == 0


@given(
    x=st.integers(min_value=1, max_value=5000),
    q=st.sampled_from([1, 2, 3, 5, 6, 7, 10, 15, 30, 42, 97]),
    a=st.integers(min_value=0, max_value=200),
)
@settings(max_examples=150, deadline=None)
def test_discrepancy_envelope(x, q, a):
    m = factor_modulus(q)
    d = discrepancy(x, m, a)
    assert abs(d) <= Fraction(x, q) + 1 + Fraction(x, m.phi)


def test_squarefree_counts_examples():
    m5 = factor_modulus(5)
    assert squarefree_count_ap(30, m5, 1) == 5  # {1, 6, 11, 21, 26}
    assert squarefree_count_coprime(30, m5) == 15
    assert squarefree_count_ap(1, m5, 1) == 1
    with pytest.raises(NotCoprimeError):
        squarefree_count_ap(30, m5, 0)


def test_squarefree_counts_against_oracle():
    rng = random.Random(3)
    moduli = squarefree_moduli(60)
    for _ in range(40):
        m = rng.choice(moduli)
        x = rng.randrange(1, 800)
        units = [a for a in range(m.q)] if m.q == 1 else [
            a for a in range(1, m.q) if gcd(a, m.q) == 1
        ]
        a = rng.choice(units)
        expected_ap = sum(
            1 for n in range(1, x + 1) if n % m.q == a and squarefree_oracle(n)
        )
        expected_cop = sum(
            1 for n in range(1, x + 1) if gcd(n, m.q) == 1 and squarefree_oracle(n)
        )
        assert squarefree_count_ap(x, m, a) == expected_ap
        assert squarefree_count_coprime(x, m) == expected_cop


_SQUAREFREE_UP_TO_3000 = [False] + [squarefree_oracle(n) for n in range(1, 3001)]


@given(
    x=st.integers(min_value=1, max_value=3000),
    q=st.sampled_from([1, 2, 3, 5, 6, 7, 10, 30, 42, 210, 2310]),
    a=st.integers(min_value=0, max_value=3000),
    segment=st.integers(min_value=1, max_value=200),
    cache_max=st.sampled_from([0, 10, 1000]),
)
@settings(max_examples=150, deadline=None)
def test_stride_counts_against_trial_division(x, q, a, segment, cache_max):
    # Small segment and cache sizes send most limits down the progression sieve.
    m = factor_modulus(q)
    a = 0 if q == 1 else next(c for c in range(a, a + q) if gcd(c, q) == 1) % q
    flags = _SQUAREFREE_UP_TO_3000
    want_ap = sum(1 for n in range(1, x + 1) if n % q == a and flags[n])
    want_cop = sum(1 for n in range(1, x + 1) if gcd(n, q) == 1 and flags[n])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arith_core, "_SEGMENT", segment)
        mp.setattr(progression_stats, "_FLAG_CACHE_MAX", cache_max)
        assert squarefree_count_ap(x, m, a) == want_ap
        assert squarefree_count_coprime(x, m) == want_cop


_SQUAREFREE_UP_TO_20000 = [False] + [squarefree_oracle(n) for n in range(1, 20001)]


@given(
    x=st.integers(min_value=1, max_value=20000),
    q=st.sampled_from([1, 2, 30, 2310, 30030, 223092870]),
    a=st.integers(min_value=0, max_value=20000),
    pick=st.integers(min_value=0, max_value=10**6),
    shift=st.sampled_from([-1, 0, 1]),
)
@settings(max_examples=200, deadline=None)
def test_sublinear_route_against_trial_division(x, q, a, pick, shift):
    # The first k-segment ends one before, on, or one after the first hit k0
    # of a prime p <= isqrt(x), and later segments repeat that length.
    m = factor_modulus(q)
    a = next(c for c in range(a, a + q) if gcd(c, q) == 1) % q
    flags = _SQUAREFREE_UP_TO_20000
    want_ap = sum(1 for n in range(a or q, x + 1, q) if flags[n])
    want_cop = sum(1 for n in range(1, x + 1) if gcd(n, q) == 1 and flags[n])
    primes = [
        p for p in range(2, math.isqrt(x) + 1)
        if q % p and all(p % d for d in range(2, math.isqrt(p) + 1))
    ]
    segment = 1
    if primes:
        step = primes[pick % len(primes)] ** 2
        segment = max(-a * pow(q, -1, step) % step + shift, 1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arith_core, "_SEGMENT", segment)
        mp.setattr(progression_stats, "_FLAG_CACHE_MAX", 0)
        assert (squarefree_count_ap(x, m, a), squarefree_count_coprime(x, m)) == (want_ap, want_cop)


def _cut_points_by_listing(limit, modulus):
    """Every m <= limit built from primes of q, with its Liouville sign, merged by limit // m."""
    terms = [(1, 1)]
    for p in modulus.prime_factors:
        for m, sign in terms[:]:
            while (m := m * p) <= limit:
                sign = -sign
                terms.append((m, sign))
    weights = {}
    for m, sign in terms:
        weights[limit // m] = weights.get(limit // m, 0) + sign
    return sorted((y, w) for y, w in weights.items() if w)


# q with 0 to 10 primes: 1, the primorials, primes and products of primes
# above isqrt(20000) = 141, and products that mix both sides.
_ORACLE_MODULI = [
    1, 2, 6, 30, 210, 2310, 30030, 510510, 9699690, 223092870, 6469693230,
    151, 1000003, 149 * 151, 10007 * 10009, 101 * 103 * 107, 3 * 1009 * 1013 * 1019,
]


@given(
    x=st.one_of(st.integers(min_value=1, max_value=300), st.integers(min_value=1, max_value=20000)),
    q=st.sampled_from(_ORACLE_MODULI),
    cache_max=st.sampled_from([0, 10, 1000]),
)
@settings(max_examples=200, deadline=None)
def test_coprime_count_against_trial_division(x, q, cache_max):
    # t = 0 takes every y down the recursion; t = 10 sums the tail per s and
    # counts its longest d-ranges by the Legendre phi; t = 1000 reads them
    # all from the coprime prefix.  q = 1 is the plain squarefree count.
    m = factor_modulus(q)
    flags = _SQUAREFREE_UP_TO_20000
    want = [0]
    for n in range(1, x + 1):
        want.append(want[-1] + (flags[n] and gcd(n, q) == 1))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(progression_stats, "_FLAG_CACHE_MAX", cache_max)
        assert squarefree_count_coprime(x, m) == want[x]
        if x <= 300:
            assert [squarefree_count_coprime(y, m) for y in range(x + 1)] == want


@pytest.fixture(scope="module")
def flags_past_the_cache():
    return bytes(squarefree_flags(1, 2**22 + 1))


@pytest.mark.parametrize("q", [1, 30030])
@pytest.mark.parametrize("x", [2**22 - 1, 2**22, 2**22 + 1])
def test_coprime_count_matches_a_running_flag_count(x, q, flags_past_the_cache):
    # Reference: the Liouville sum of Q over the cut points x // m, with Q
    # a running count of the flags of [1, x].
    flags = flags_past_the_cache[:x]
    m = factor_modulus(q)
    want = running = pos = 0
    for y, weight in _cut_points_by_listing(x, m):
        running += flags[pos:y].count(1)
        pos = y
        want += weight * running
    assert progression_stats._coprime_count(x, m) == want


@pytest.mark.parametrize("q", [1, 2, 30, 2310])
def test_class_counts_sum_to_coprime_count(q, monkeypatch):
    # Above the flag cache: every count below takes the sublinear route.
    monkeypatch.setattr(arith_core, "_SEGMENT", 97)
    monkeypatch.setattr(progression_stats, "_FLAG_CACHE_MAX", 100)
    m = factor_modulus(q)
    units = [a for a in range(q) if gcd(a, q) == 1]
    for x in (101, 1000, 2999):
        cop = squarefree_count_coprime(x, m)
        assert sum(squarefree_count_ap(x, m, a) for a in units) == cop
        want = sum(1 for n in range(1, x + 1) if gcd(n, q) == 1 and squarefree_oracle(n))
        assert cop == want


def test_ones_counts_long_runs_exactly():
    # All-ones runs are where a too-long adler32 run would wrap mod 65521.
    rng = random.Random(6)
    for n in (0, 1, 32768, 32769, 65520, 65521, 200_000):
        for buf in (b"\x01" * n, bytearray(rng.getrandbits(1) for _ in range(n))):
            for lo, hi in ((0, n), (n // 3, n - n // 5)):
                assert progression_stats._ones(buf[lo:hi]) == buf[lo:hi].count(1)


@given(
    limit=st.integers(min_value=1, max_value=20000),
    q=st.sampled_from([2, 3, 6, 15, 16, 17, 30, 64, 210, 2310]),
    picks=st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=12),
    block=st.sampled_from([1 << 12, 1 << 14, 1 << 20]),
    adler_run=st.sampled_from([7, 100, 1 << 15]),
)
@settings(max_examples=200, deadline=None)
def test_class_counts_against_stride_slices_and_trial_division(limit, q, picks, block, adler_run):
    # Small blocks cut [1, limit] into many blocks, and short adler32 runs
    # count each slice in several runs; the picks give unordered, repeated units.
    units = [a for a in range(1, q) if gcd(a, q) == 1]
    residues = [units[i % len(units)] for i in picks]
    flags = _SQUAREFREE_UP_TO_20000
    plain = bytes(flags[1 : limit + 1])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(progression_stats, "_BLOCK", block)
        mp.setattr(progression_stats, "_ADLER_RUN", adler_run)
        counts = progression_stats._class_counts(limit, q, residues)
    assert counts == [plain[(a - 1) % q :: q].count(1) for a in residues]
    assert counts == [
        sum(1 for n in range(a, limit + 1, q) if squarefree_oracle(n)) for a in residues
    ]


_BLOCK = progression_stats._BLOCK


@pytest.mark.parametrize("q", [2, 15, 16, 33, 255, 256, 1048573, 1048583])
@pytest.mark.parametrize("limit", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2**22])
def test_class_counts_at_the_block_edges(limit, q, flags_past_the_cache):
    # Up to q = 255 a limit of 2^22 is read in blocks, and from 1048573 on q
    # is read in one slice per class at every limit.
    flags = flags_past_the_cache[:limit]
    units = [a for a in range(1, min(q, 40)) if gcd(a, q) == 1]
    for residues in (units, units[::-1] + units[:3], [q - 1]):
        want = [flags[(a - 1) % q :: q].count(1) for a in residues]
        assert progression_stats._class_counts(limit, q, residues) == want


@pytest.mark.parametrize("q", [2, 30, 2310, 1000003])
def test_class_counts_above_the_cache(q, monkeypatch):
    # With the cache at 1000, every limit here sieves each progression alone.
    monkeypatch.setattr(progression_stats, "_FLAG_CACHE_MAX", 1000)
    monkeypatch.setattr(arith_core, "_SEGMENT", 997)
    limit = 20000
    plain = bytes(_SQUAREFREE_UP_TO_20000[1:])
    residues = [q - 1, 1, 1] + ([17, 23, 13] if q > 2 else [])
    want = [plain[(a - 1) % q :: q].count(1) for a in residues]
    assert progression_stats._class_counts(limit, q, residues) == want


@pytest.mark.parametrize(
    "q, residues", [(1, [0, 0]), (7, [3]), (30, [29, 1, 7, 1]), (2310, [1, 2309, 13])]
)
@pytest.mark.parametrize("x", [1, 1000.5, 2**20 + 3, 2**22 + 1])
def test_error_terms_equal_one_error_term_per_residue(x, q, residues):
    m = factor_modulus(q)
    assert error_terms(x, m, residues) == [error_term(x, m, a) for a in residues]


def test_error_terms_refuse_a_non_unit_before_counting(monkeypatch):
    def unreachable(*args):
        raise AssertionError("counted before the residues were checked")

    monkeypatch.setattr(progression_stats, "_coprime_count", unreachable)
    monkeypatch.setattr(progression_stats, "_class_counts", unreachable)
    with pytest.raises(NotCoprimeError, match="residue 5 is not coprime to 30"):
        error_terms(1000, factor_modulus(30), [1, 7, 5, 11])


@pytest.mark.parametrize("q", [1, 2, 30030, 1000003])
def test_long_segments_against_a_plain_sieve(q, monkeypatch):
    x = 200_003
    monkeypatch.setattr(arith_core, "_SEGMENT", 70_001)
    monkeypatch.setattr(progression_stats, "_FLAG_CACHE_MAX", 1000)
    squarefree = [True] * (x + 1)
    for d in range(2, math.isqrt(x) + 1):
        for k in range(d * d, x + 1, d * d):
            squarefree[k] = False
    m = factor_modulus(q)
    want_cop = sum(1 for n in range(1, x + 1) if squarefree[n] and gcd(n, q) == 1)
    for a in (1, q - 1):
        want_ap = sum(1 for n in range(a % q or q, x + 1, q) if squarefree[n])
        assert (squarefree_count_ap(x, m, a % q), squarefree_count_coprime(x, m)) == (want_ap, want_cop)


def test_flag_windows_above_the_cache_stay_within_t(monkeypatch):
    # Above the flag cache no flag window covers [1, x]: the only one is the
    # coprime count's table of t = 2 * isqrt(x) flags, and the class sieves
    # its progression alone, about x // q flags in segments.
    x = 2**24 + 3
    calls = {"flags": [], "progressions": []}
    flags_fn = progression_stats.squarefree_flags
    progression_fn = progression_stats.squarefree_progression

    def counted_flags(start, length):
        calls["flags"].append(length)
        return flags_fn(start, length)

    def counted_progression(start, step, length):
        calls["progressions"].append((start, step, length))
        return progression_fn(start, step, length)

    monkeypatch.setattr(progression_stats, "squarefree_flags", counted_flags)
    monkeypatch.setattr(progression_stats, "squarefree_progression", counted_progression)
    progression_stats._flag_prefix.cache_clear()
    m = factor_modulus(30030)
    first = error_term(x, m, 1)
    t = 2 * math.isqrt(x)
    assert calls == {"flags": [t], "progressions": [(1, 30030, x // 30030 + 1)]}
    # Another class at the same (x, q) builds no table: its coprime count
    # reads the kept prefix of t flags again.
    second = error_term(x, m, 17)
    assert calls == {
        "flags": [t],
        "progressions": [(1, 30030, x // 30030 + 1), (17, 30030, (x - 17) // 30030 + 1)],
    }
    info = progression_stats._flag_prefix.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    assert second.coprime_count == first.coprime_count
    plain = squarefree_flags(1, x)
    assert first.progression_count == plain[0::30030].count(1)
    assert second.progression_count == plain[16::30030].count(1)


@pytest.mark.parametrize("q", [3, 3981, 6469693230])
@pytest.mark.parametrize("x", [2**22 - 1, 2**22 + 1])
def test_error_term_reads_no_divisor_or_mobius_value(x, q, flags_past_the_cache, monkeypatch):
    # identity_ok compares the decomposition with error_term, so error_term
    # must not read what the decomposition reads.
    def refuse(*args):
        raise AssertionError("error_term read an input of the decomposition")

    monkeypatch.setattr(progression_stats, "count_coprime", refuse)
    monkeypatch.setattr(Modulus, "squarefree_divisors", property(refuse))
    monkeypatch.setattr(arith_core, "mobius_segment", refuse)
    m = factor_modulus(q)
    flags = bytearray(flags_past_the_cache[:x])
    want_ap = flags[0::q].count(1)
    for p in m.prime_factors:
        flags[p - 1 :: p] = bytes(len(range(p - 1, x, p)))
    res = error_term(x, m, 1)
    assert (res.progression_count, res.coprime_count) == (want_ap, flags.count(1))


def test_error_term_examples():
    m5 = factor_modulus(5)
    res = error_term(30, m5, 1)
    assert res.error == Fraction(5, 4)
    assert (res.progression_count, res.coprime_count) == (5, 15)
    assert error_term(1000, factor_modulus(1), 0).error == 0
    assert error_term(100, factor_modulus(7), 3).error == error_term_oracle(100, 7, 3)


def test_error_term_oracle_sweep():
    rng = random.Random(4)
    moduli = [m for m in squarefree_moduli(40) if m.q > 1]
    for _ in range(25):
        m = rng.choice(moduli)
        x = rng.randrange(m.q, 600)
        a = rng.choice([a for a in range(1, m.q) if gcd(a, m.q) == 1])
        assert error_term(x, m, a).error == error_term_oracle(x, m.q, a)


def test_reference_ratio_examples():
    m5 = factor_modulus(5)
    expected = (5 / 4) / (math.sqrt(6) + math.sqrt(5))
    assert reference_ratio(30, m5, 1) == pytest.approx(expected, rel=1e-12)
    assert reference_ratio(1000, factor_modulus(1), 0) == 0.0
    # The function reads the property of the result it computes.
    res = error_term(30, m5, 6)
    assert res.reference_ratio == reference_ratio(30, m5, 1)


def test_least_squarefree_examples():
    assert least_squarefree(factor_modulus(5), 1) == 1
    assert least_squarefree(factor_modulus(7), 4) == 11  # 4 is square-divisible
    assert least_squarefree(factor_modulus(10), 9) == 19
    assert least_squarefree(factor_modulus(1), 0) == 1


def test_least_squarefree_is_minimal():
    rng = random.Random(5)
    moduli = [m for m in squarefree_moduli(120) if m.q > 2]
    for _ in range(60):
        m = rng.choice(moduli)
        a = rng.choice([a for a in range(1, m.q) if gcd(a, m.q) == 1])
        n = least_squarefree(m, a)
        assert n % m.q == a
        assert squarefree_oracle(n)
        # no smaller member of the class is squarefree
        assert all(not squarefree_oracle(k) for k in range(a if a else m.q, n, m.q))


def test_least_squarefree_validation(monkeypatch):
    with pytest.raises(NotCoprimeError):
        least_squarefree(factor_modulus(10), 5)
    # A class with no squarefree member up to q^2 is a bug signal.
    monkeypatch.setattr(progression_stats, "is_squarefree", lambda n: False)
    with pytest.raises(SearchCeilingError):
        least_squarefree(factor_modulus(7), 4)
