"""Differential tests of the sieves and square roots against sympy."""

import pytest

sympy = pytest.importorskip("sympy")

from hypothesis import example, given, settings
from hypothesis import strategies as st

from sqflab.arith_core import (
    MOBIUS_SIEVE_MAX,
    mobius_segment,
    mobius_sieve,
    primes_up_to,
)
from sqflab.congruence_count import sqrt_mod_prime


@st.composite
def windows(draw):
    """(start, length) anywhere in [1, ~2*10^6], or ending across a power of two.

    The prime table a window reads is chosen by the bit length of its last
    integer, so a window across 2^k is where that choice changes.
    """
    length = draw(st.integers(min_value=0, max_value=3000))
    if draw(st.booleans()):
        k = draw(st.integers(min_value=1, max_value=21))
        return max(1, 2**k - draw(st.integers(min_value=0, max_value=length))), length
    return draw(st.integers(min_value=1, max_value=2 * 10**6)), length


@given(window=windows())
@example(window=(1, 3000))
@example(window=(2**21 - 1500, 3000))
@settings(max_examples=30, deadline=None)
def test_mobius_segment_against_sympy(window):
    start, length = window
    seg = mobius_segment(start, length)
    assert len(seg) == length
    assert list(seg) == [sympy.mobius(n) for n in range(start, start + length)]


def test_mobius_window_end_is_capped():
    last = mobius_segment(MOBIUS_SIEVE_MAX - 99, 100)
    assert list(last[-3:]) == [sympy.mobius(n) for n in range(10**7 - 2, 10**7 + 1)]
    with pytest.raises(ValueError, match="exceeds the Mobius sieve bound"):
        mobius_segment(MOBIUS_SIEVE_MAX, 2)
    with pytest.raises(ValueError, match="exceeds the Mobius sieve bound"):
        mobius_sieve(MOBIUS_SIEVE_MAX + 1)


@given(n=st.integers(min_value=-5, max_value=200_000))
@example(n=2**16)
@example(n=2**16 + 1)
@settings(max_examples=60, deadline=None)
def test_primes_up_to_against_sympy(n):
    assert primes_up_to(n) == list(sympy.primerange(2, n + 1))


@given(k=st.integers(min_value=1, max_value=5000), c=st.integers(min_value=0, max_value=10**9))
@example(k=1, c=0)
@example(k=1, c=1)
@example(k=7, c=2)  # p = 17 = 1 (mod 16): Tonelli-Shanks with e = 4
@settings(max_examples=300, deadline=None)
def test_sqrt_mod_prime_against_sympy(k, c):
    p = sympy.prime(k)
    want = sorted(set(sympy.sqrt_mod(c, p, all_roots=True)))
    assert sorted(sqrt_mod_prime(c, p)) == want
