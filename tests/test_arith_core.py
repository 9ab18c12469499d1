"""Sieve and modulus correctness against independent oracles."""

import dataclasses
import pickle
import random
from math import gcd, isqrt, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqflab import arith_core
from sqflab.arith_core import (
    Modulus,
    NotSquarefreeError,
    factor_modulus,
    is_squarefree,
    mobius_segment,
    mobius_sieve,
    primes_up_to,
    squarefree_flags,
    squarefree_progression,
)


def mobius_oracle(n: int) -> int:
    """Per-integer Mobius value by plain trial division."""
    count = 0
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            count += 1
        p += 1
    if n > 1:
        count += 1
    return -1 if count % 2 else 1


def test_primes_up_to_small():
    assert primes_up_to(1) == []
    assert primes_up_to(2) == [2]
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_prime_table_keeps_only_the_largest(monkeypatch):
    monkeypatch.setattr(arith_core, "_prime_cache", {})
    small = arith_core._prime_table(6)
    assert list(small) == primes_up_to(64)
    large = arith_core._prime_table(10)
    assert list(large) == primes_up_to(1024)
    # A smaller bound is served by the larger table, which is all that is held.
    assert arith_core._prime_table(6) is large
    assert list(arith_core._prime_cache) == [10]


def test_mobius_sieve_examples():
    mu = mobius_sieve(30)  # mu[i] is mu(i + 1)
    assert mu[0] == 1  # empty product
    assert mu[11] == 0
    assert mu[5] == 1
    assert mu[6] == -1
    assert mu[29] == -1  # three prime factors
    assert mobius_sieve(1)[0] == 1


def test_mobius_sieve_against_oracle():
    mu = mobius_sieve(3000)
    for n in range(1, 3001):
        assert mu[n - 1] == mobius_oracle(n), n


def test_mu_squared_sum_matches_trial_division():
    limit = 10**4
    sieved = sum(v * v for v in mobius_sieve(limit))
    oracle = sum(1 for n in range(1, limit + 1) if mobius_oracle(n) != 0)
    assert sieved == oracle


def test_mobius_sieve_rejects_bad_limits():
    with pytest.raises(ValueError):
        mobius_sieve(0)
    with pytest.raises(ValueError):
        mobius_sieve(10**9)


def test_segment_matches_full_sieve_prefix():
    full = mobius_sieve(30)
    seg = mobius_segment(1, 30)
    assert list(seg) == list(full)


def test_segment_empty():
    seg = mobius_segment(17, 0)
    assert len(seg) == 0


def test_segment_deep_window_matches_full_restriction():
    start, length = 10**6 + 1, 10**3
    full = mobius_sieve(10**6 + 10**3)
    seg = mobius_segment(start, length)
    for n in range(start, start + length):
        assert seg[n - start] == full[n - 1]


def test_segment_near_1e7_against_oracle():
    for start in (9_999_000, 5_000_000, 123_456):
        seg = mobius_segment(start, 800)
        for n in range(start, start + 800, 7):
            assert seg[n - start] == mobius_oracle(n), n


def test_segment_random_windows_match_full():
    rng = random.Random(1)
    full = mobius_sieve(200_000)
    for _ in range(30):
        start = rng.randrange(1, 199_000)
        length = rng.randrange(0, 900)
        seg = mobius_segment(start, length)
        assert list(seg) == list(full[start - 1 : start - 1 + length])


def test_window_bounds_checks():
    with pytest.raises(ValueError):
        mobius_segment(0, 5)


def test_squarefree_flags_agree_with_mu():
    mu = mobius_sieve(5000)
    flags = squarefree_flags(1, 5000)
    for i in range(5000):
        assert flags[i] == (mu[i] != 0)


def test_squarefree_flags_deep_segment():
    flags = squarefree_flags(9_999_000, 500)
    for i, n in enumerate(range(9_999_000, 9_999_500)):
        assert flags[i] == (mobius_oracle(n) != 0)


# Primes below 10^4 by trial division, and their product.
_ORACLE_PRIMES = [p for p in range(2, 10**4) if all(p % d for d in range(2, isqrt(p) + 1))]
_ORACLE_PRIMORIAL = prod(_ORACLE_PRIMES)


def squarefree_by_trial_division(n: int) -> bool:
    """Squarefreeness of 1 <= n < 10^12, dividing by every prime below 10^4 at once.

    g = gcd(n, primorial) is the product of those primes that divide n;
    one of them divides n twice exactly when it divides n // g.  What is
    left has at most two prime factors, all >= 10^4, so it is squarefree
    unless it is a square above 1.
    """
    g = gcd(n, _ORACLE_PRIMORIAL)
    rest = n // g
    if gcd(rest, g) > 1:
        return False
    r = isqrt(rest)
    return rest == 1 or r * r != rest


@given(
    step=st.sampled_from([1, 2, 30, 3981, 223092870]),
    start=st.integers(min_value=1, max_value=10**6),
    length=st.integers(min_value=0, max_value=3000),
    pick=st.integers(min_value=0, max_value=10**6),
    shift=st.sampled_from([-1, 0, 1]),
)
@settings(max_examples=50, deadline=None)
def test_progression_sieve_against_trial_division(step, start, length, pick, shift):
    # The segment length is p^2 - 1, p^2 or p^2 + 1 for a struck prime p, so
    # p^2 strikes at stride or from the hit list, and its hits fall on,
    # just before and just after segment boundaries.
    start = next(s for s in range(start, start + step + 1) if gcd(s, step) == 1)
    last = start + step * max(length - 1, 0)
    assert last < 10**12
    want = bytearray(squarefree_by_trial_division(start + step * k) for k in range(length))
    # p is a struck prime (one prime to step): one with p^2 <= length, or the first above.
    struck = [p for p in _ORACLE_PRIMES if step % p]
    p = struck[pick % (1 + sum(p * p <= length for p in struck))]
    segment = max(p * p + shift, 1)
    segments = list(squarefree_progression(start, step, length, segment))
    assert [len(s) for s in segments] == [
        min(segment, length - lo) for lo in range(0, length, segment)
    ]
    assert b"".join(segments) == want
    if step == 1:
        assert squarefree_flags(start, length) == want


def test_progression_sieve_rejects_bad_arguments():
    for args in ((0, 1, 5), (1, 1, -1), (6, 4, 5), (1, 0, 5)):
        with pytest.raises(ValueError):
            next(squarefree_progression(*args))


def test_factor_modulus_examples():
    m = factor_modulus(30)
    assert m.prime_factors == (2, 3, 5)
    assert m.phi == 8
    assert m.omega == 3
    one = factor_modulus(1)
    assert one.prime_factors == () and one.phi == 1 and one.omega == 0
    with pytest.raises(NotSquarefreeError):
        factor_modulus(12)
    with pytest.raises(ValueError):
        factor_modulus(0)


def test_modulus_is_built_from_q_alone():
    assert Modulus(30).prime_factors == (2, 3, 5)
    assert Modulus(30) == factor_modulus(30)
    # The factors are derived, so a Modulus with wrong factors cannot be built.
    with pytest.raises(TypeError):
        Modulus(q=30, prime_factors=(2, 3, 5))
    assert dataclasses.replace(factor_modulus(30), q=42).prime_factors == (2, 3, 7)
    with pytest.raises(NotSquarefreeError, match="12 is divisible by 2"):
        dataclasses.replace(factor_modulus(30), q=12)
    m = factor_modulus(9999973 * 9999991)
    m.crt_basis  # a cached property travels with the pickle
    assert pickle.loads(pickle.dumps(m)) == m
    assert pickle.loads(pickle.dumps(m)).crt_basis == m.crt_basis


def test_factor_modulus_results_pass_the_primality_check():
    # Every factor is checked against an independent list of primes.
    primes = set(primes_up_to(3000))
    for q in range(1, 3000):
        if is_squarefree(q):
            assert set(factor_modulus(q).prime_factors) <= primes
    for q, factors in (
        (1000000007, (1000000007,)),
        (9999973 * 9999991, (9999973, 9999991)),
        (32589158477190044730, tuple(primes_up_to(53))),
    ):
        assert factor_modulus(q).prime_factors == factors


def test_factor_modulus_stops_trial_division_at_the_sieve_bound(monkeypatch):
    # Every q <= MOBIUS_SIEVE_MAX^2 factors completely, even with two prime
    # factors just below the bound.
    assert factor_modulus(9999973 * 9999991).prime_factors == (9999973, 9999991)
    monkeypatch.setattr(arith_core, "MOBIUS_SIEVE_MAX", 100)
    # A cofactor that is prime, or 1, once p^2 passes it needs no divisor
    # above the bound; one that still has p^2 <= rest is refused.
    assert factor_modulus(97 * 89).prime_factors == (89, 97)
    assert factor_modulus(6 * 10007).prime_factors == (2, 3, 10007)
    for q in (101 * 103, 2 * 101 * 103, 101 * 101):
        with pytest.raises(ValueError, match="MOBIUS_SIEVE_MAX = 100"):
            factor_modulus(q)


def test_squarefree_divisors_are_built_once_per_modulus():
    m = factor_modulus(30)
    divisors = m.squarefree_divisors
    assert divisors is m.squarefree_divisors
    assert divisors == (
        (1, 1), (2, -1), (3, -1), (6, 1), (5, -1), (10, 1), (15, 1), (30, -1)
    )
    assert factor_modulus(1).squarefree_divisors == ((1, 1),)


def test_factor_modulus_phi_against_unit_count():
    for q in range(1, 301):
        try:
            m = factor_modulus(q)
        except NotSquarefreeError:
            assert not is_squarefree(q)
            continue
        assert m.phi == sum(1 for r in range(1, q + 1) if gcd(r, q) == 1)


def test_is_squarefree_against_oracle():
    for n in range(1, 4000):
        assert is_squarefree(n) == (mobius_oracle(n) != 0), n
