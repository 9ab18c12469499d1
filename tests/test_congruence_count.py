"""Box counts against the O(MN) double-loop oracle; bound envelope checks."""

import builtins
import math
import random
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqflab import congruence_count
from sqflab.arith_core import (
    InvariantError,
    Modulus,
    NotCoprimeError,
    factor_modulus,
)
from sqflab.congruence_count import (
    BoxQuery,
    ResidueColumn,
    check_symmetry,
    class_count,
    count_box,
    count_dyadic,
    evaluate_bounds,
    pierce_applicable,
    power_roots,
    residue_table,
    scan_boxes,
    sqrt_mod_prime,
)
from sqflab.decomposition_pipeline import pipeline_report
from sqflab.progression_stats import squarefree_moduli


def double_loop_oracle(u, v, m_hi, n_hi, q, a, m_lo=0, n_lo=0):
    """Brute force over every (m, n) pair in the box."""
    total = 0
    for n in range(math.floor(n_lo) + 1, math.floor(n_hi) + 1):
        if v < 0 and gcd(n, q) != 1:
            continue
        rhs = a * pow(n, v, q) % q
        for m in range(math.floor(m_lo) + 1, math.floor(m_hi) + 1):
            if pow(m, u, q) == rhs:
                total += 1
    return total


def random_instances(count, seed, q_max=300, side_max=200):
    rng = random.Random(seed)
    moduli = [m for m in squarefree_moduli(q_max) if m.q >= 2]
    out = []
    for _ in range(count):
        m = rng.choice(moduli)
        a = rng.choice([r for r in range(1, m.q) if gcd(r, m.q) == 1])
        mb = rng.randrange(1, side_max + 1) + rng.choice((0, 0.5))
        nb = rng.randrange(1, side_max + 1) + rng.choice((0, 0.5))
        uv = rng.choice(((1, -2), (2, -1)))
        out.append((uv, mb, nb, m, a))
    return out


def test_sqrt_mod_prime_exhaustive():
    for p in [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]:
        for c in range(p):
            roots = sorted(sqrt_mod_prime(c, p))
            expected = sorted(x for x in range(p) if x * x % p == c)
            assert roots == expected, (c, p)


def test_power_roots_against_brute_force():
    for m in squarefree_moduli(100):
        for c in range(min(m.q, 25)):
            expected = sorted(x for x in range(m.q) if x * x % m.q == c % m.q)
            assert sorted(power_roots(c, m, [None] * len(m.prime_factors))) == expected, (c, m.q)


def test_class_count_rejects_higher_exponents():
    # Refused on every n-range, the empty one included, before any root is solved.
    for n_hi in (0, 1, 10):
        with pytest.raises(ValueError, match="unsupported exponent u=3"):
            class_count(3, -2, 0, 10, 0, n_hi, factor_modulus(7), 1)


def _primes_below(n):
    return [p for p in range(2, n) if all(p % d for d in range(2, isqrt(p) + 1))]


def test_prime_roots_match_sqrt_mod_prime_on_every_residue_below_3000(monkeypatch):
    # Every residue of every prime below 3000, with the rule forced to each
    # side: p = 2, p = 3 (mod 4), and p = 1 (mod 4) and (mod 8), which
    # sqrt_mod_prime solves by Tonelli-Shanks.
    primes = _primes_below(3000)
    assert {2, 17, 41, 2969} <= set(primes)
    for p in primes:
        modulus = factor_modulus(p)
        tables = {}
        for side, factor in (("solve", 0), ("sweep", 10**9)):
            monkeypatch.setattr(congruence_count, "_SWEEP_FACTOR", factor)
            tables[side] = congruence_count._prime_roots(modulus, p)
        assert tables["solve"] == [None]  # power_roots calls sqrt_mod_prime
        (swept,) = tables["sweep"]
        squares = [[] for _ in range(p)]
        for x in range(p):
            squares[x * x % p].append(x)
        assert list(swept) == [roots[0] if roots else -1 for roots in squares]
        for c, expected in enumerate(squares):
            solved = sorted(power_roots(c, modulus, tables["solve"]))
            assert sorted(power_roots(c, modulus, tables["sweep"])) == solved == expected, (c, p)


def test_prime_roots_sweep_a_prime_up_to_16_times_the_c():
    # 3*37 is swept whole; 297083 of 3*297083 is above 16 times 3000 c, and
    # is swept only from 18568 c on.  Without c no prime is swept.
    def solved(q, distinct):
        return [t is None for t in congruence_count._prime_roots(factor_modulus(q), distinct)]

    assert solved(111, 50) == [False, False]
    assert solved(891249, 3000) == [False, True]
    assert solved(891249, 18567) == [False, True]
    assert solved(891249, 18568) == [False, False]
    assert solved(891249, 0) == [True, True]


def test_count_box_spec_examples():
    m7 = factor_modulus(7)
    assert count_box(BoxQuery(1, -2, 10, 10, m7, 1)) == 15
    assert count_box(BoxQuery(2, -1, 10, 10, m7, 1)) == 15
    # one m per n over a full period, any residue
    m5 = factor_modulus(5)
    for a in range(1, 5):
        assert count_box(BoxQuery(1, 1, 5, 5, m5, a)) == 5


def test_count_box_validation():
    m7 = factor_modulus(7)
    with pytest.raises(NotCoprimeError):
        BoxQuery(1, -2, 10, 10, m7, 7)
    with pytest.raises(ValueError):
        BoxQuery(0, -2, 10, 10, m7, 1)
    with pytest.raises(ValueError):
        BoxQuery(1, 0, 10, 10, m7, 1)


def test_count_box_oracle_sweep():
    for (u, v), mb, nb, m, a in random_instances(120, seed=6, q_max=200, side_max=60):
        got = count_box(BoxQuery(u, v, mb, nb, m, a))
        want = double_loop_oracle(u, v, mb, nb, m.q, a)
        assert got == want, (u, v, mb, nb, m.q, a)


def test_count_box_positive_v_oracle():
    rng = random.Random(7)
    for _ in range(40):
        m = rng.choice([x for x in squarefree_moduli(80) if x.q >= 2])
        a = rng.choice([r for r in range(1, m.q) if gcd(r, m.q) == 1])
        mb, nb = rng.randrange(1, 50), rng.randrange(1, 50)
        u, v = rng.choice(((1, 1), (1, 2), (2, 1)))
        got = count_box(BoxQuery(u, v, mb, nb, m, a))
        assert got == double_loop_oracle(u, v, mb, nb, m.q, a)


# Bounds on a half-integer grid: floors of x.5 and x.0 both occur.
_BOUND = st.integers(min_value=0, max_value=48).map(lambda k: k / 2)


@given(
    uv=st.sampled_from([(1, 1), (1, -1), (1, 2), (1, -2), (2, 1), (2, -1), (2, 2), (2, -2)]),
    m_lo=_BOUND,
    m_len=_BOUND,
    n_lo=_BOUND,
    n_len=_BOUND,
    # 3*297083, 13*13679 and 510510 have primes on both sides of the
    # square-root sweep rule for these short windows.
    q=st.sampled_from([1, 2, 3, 5, 6, 7, 10, 11, 13, 30, 31, 891249, 177827, 510510]),
    a=st.integers(min_value=0, max_value=40),
)
@settings(max_examples=300, deadline=None)
def test_class_count_against_double_loop(uv, m_lo, m_len, n_lo, n_len, q, a):
    u, v = uv
    m = factor_modulus(q)
    m_hi, n_hi = m_lo + m_len, n_lo + n_len
    got = class_count(u, v, m_lo, m_hi, n_lo, n_hi, m, a)
    assert got == double_loop_oracle(u, v, m_hi, n_hi, q, a % q, m_lo=m_lo, n_lo=n_lo)


# A fractional part for an anchor: integer, half-integer or arbitrary float.
_FRACTION = st.sampled_from([0, 0.5, 0.25, 0.7071067811865476])


@given(
    uv=st.sampled_from([(1, 1), (1, -1), (1, 2), (1, -2), (2, 1), (2, -1), (2, 2), (2, -2)]),
    q=st.sampled_from([1, 2, 30, 2310]),
    a=st.integers(min_value=0, max_value=5000),
    periods=st.integers(min_value=0, max_value=2),
    offset=st.sampled_from([-1, 0, 1]),
    below=st.floats(min_value=0, max_value=1, exclude_max=True),
    n_start=st.integers(min_value=0, max_value=5000),
    fractions=st.tuples(_FRACTION, _FRACTION),
    m_ranges=st.lists(
        st.tuples(st.integers(0, 7000), _FRACTION, st.integers(0, 12), _FRACTION),
        min_size=1,
        max_size=3,
    ),
)
@settings(max_examples=120, deadline=None)
def test_column_counts_every_m_range_like_the_oracle(
    uv, q, a, periods, offset, below, n_start, fractions, m_ranges
):
    # n-spans below q (periods = 0) or k*q - 1, k*q, k*q + 1, so the fold
    # meets empty, full and partial periods, and n not coprime to q.
    u, v = uv
    modulus = factor_modulus(q)
    span = max(periods * q + offset, 0) if periods else int(below * q)
    n_lo = n_start % (3 * q + 1) + fractions[0]
    n_hi = math.floor(n_lo) + span + fractions[1]
    column = ResidueColumn(u, n_lo, n_hi, residue_table(v, modulus, a, math.floor(n_hi)))
    # For v < 0 and a unit a, the same column on a table that ends at n = 0,
    # which leaves it to count from its m side unless q = 1 or n_hi < 1.
    unit = v < 0 and gcd(a, q) == 1
    m_side = ResidueColumn(u, n_lo, n_hi, residue_table(v, modulus, a, 0)) if unit else column
    # m from (1/2, 1] on, ranges across multiples of q, and for small q one
    # range over every residue twice, so a wrong weight cannot hide.
    ranges = [(0.5, 1.5), (0.5, 2 * q + 1.5)] if q <= 30 else [(0.5, 1.5)]
    ranges += [
        (start + f_lo, start + length + f_hi) for start, f_lo, length, f_hi in m_ranges
    ]
    for m_lo, m_hi in ranges:
        expected = double_loop_oracle(u, v, m_hi, n_hi, q, a % q, m_lo=m_lo, n_lo=n_lo)
        assert column.count(m_lo, m_hi) == expected, (m_lo, m_hi)
        assert m_side.count(m_lo, m_hi) == expected, (m_lo, m_hi)
        assert class_count(u, v, m_lo, m_hi, n_lo, n_hi, modulus, a) == expected


def test_count_box_takes_a_column_for_its_own_n_side_only():
    m = factor_modulus(30)
    column = ResidueColumn(1, 40, 80, residue_table(-2, m, 7, 80))
    # A table that ends at n = 0 leaves the column to its m side.
    m_side = ResidueColumn(1, 40, 80, residue_table(-2, m, 7, 0))
    for m_bound in (0.5, 1, 16, 45.5, 1000):
        query = BoxQuery(1, -2, m_bound, 40, m, 7, dyadic=True)
        assert count_box(query, column) == count_box(query, m_side) == count_box(query)
        assert evaluate_bounds(query, column=column) == evaluate_bounds(query)
    # The m side needs v < 0 and a unit a; past its table any other column raises.
    for v, a in ((2, 7), (-2, 6)):
        with pytest.raises(InvariantError, match="ends below n = 80"):
            ResidueColumn(1, 40, 80, residue_table(v, m, a, 0)).count(1, 500)
    for other in (
        BoxQuery(1, -2, 8, 41, m, 7, dyadic=True),
        BoxQuery(1, -2, 8, 40, m, 11, dyadic=True),
        BoxQuery(2, -1, 8, 40, m, 7, dyadic=True),
        BoxQuery(1, -2, 8, 80, m, 7),
    ):
        with pytest.raises(InvariantError, match="does not hold the n side"):
            count_box(other, column)


# A modulus above 2^63: the product of the primes up to 53.
PRIMORIAL_53 = math.prod(p for p in range(2, 54) if all(p % d for d in range(2, p)))


@pytest.mark.parametrize("q", [1, 2, 30, 2310, 3981, 10007, PRIMORIAL_53])
@pytest.mark.parametrize(
    "n_top",
    [
        0, 1, 44, 3980, 10000,
        pytest.param((1, 2), id="window-from-q-2"),
        pytest.param((3, 5000), id="window-from-3q-5000"),
    ],
)
def test_residue_table_matches_pow_entry_by_entry(q, n_top):
    # An int n_top is a table: below q it ends at n_top, above q it holds
    # one full period; the prime 10007 is above every n_top, so all its
    # n >= 1 are units.  A pair (k, back) is the window of min(q, 10^4) n
    # from max(k*q - back, 1), which crosses a multiple of q, and so a
    # multiple of every prime of q.
    modulus = factor_modulus(q)
    a = (q - 1) * 5 + 7  # reduced modulo q by the table
    for v in (-3, -2, -1, 1, 2, 3):  # |v| = 3 is raised by pow, |v| <= 2 by multiplication
        if isinstance(n_top, int):
            n_first, table = 0, residue_table(v, modulus, a, n_top)
            assert (table.v, table.modulus, table.a) == (v, modulus, a % q)
            values = table.values
            assert len(values) == min(q, n_top + 1)
        else:
            k, back = n_top
            n_first = max(k * q - back, 1)
            stop = n_first + min(q, 10**4)
            values = congruence_count._residue_window(v, modulus, a % q, n_first, stop)
            assert len(values) == stop - n_first
        for n, c in enumerate(values, n_first):
            assert c == (a * pow(n, v, q) % q if v > 0 or gcd(n, q) == 1 else -1), (v, n)


@given(
    uv=st.sampled_from([(1, -2), (2, -2), (1, -1), (2, -1), (1, 2), (2, 1)]),
    q=st.sampled_from([1, 2, 30, 2310]),
    a=st.integers(min_value=0, max_value=5000),
    periods=st.integers(min_value=0, max_value=2),
    offset=st.sampled_from([-1, 0, 1]),
    below=st.floats(min_value=0, max_value=1, exclude_max=True),
    n_start=st.integers(min_value=0, max_value=5000),
    fractions=st.tuples(_FRACTION, _FRACTION),
    reach=st.sampled_from([0, 1, 5000]),
    m_range=st.tuples(st.integers(0, 7000), _FRACTION, st.integers(0, 12), _FRACTION),
)
@settings(max_examples=120, deadline=None)
def test_column_on_a_table_counts_like_the_oracle(
    uv, q, a, periods, offset, below, n_start, fractions, reach, m_range
):
    # The table ends at the column's last n, just past it, or past a period.
    u, v = uv
    modulus = factor_modulus(q)
    span = max(periods * q + offset, 0) if periods else int(below * q)
    n_lo = n_start % (3 * q + 1) + fractions[0]
    n_hi = math.floor(n_lo) + span + fractions[1]
    table = residue_table(v, modulus, a, math.floor(n_hi) + reach)
    column = ResidueColumn(u, n_lo, n_hi, table)
    start, f_lo, length, f_hi = m_range
    for m_lo, m_hi in ((0.5, 1.5), (start + f_lo, start + length + f_hi)):
        expected = double_loop_oracle(u, v, m_hi, n_hi, q, a % q, m_lo=m_lo, n_lo=n_lo)
        assert column.count(m_lo, m_hi) == expected, (m_lo, m_hi)
        assert class_count(u, v, m_lo, m_hi, n_lo, n_hi, modulus, a) == expected


def _prime_next_to(n, step):
    """The first prime from n on, walking by step (+1 or -1)."""
    while n < 2 or any(n % d == 0 for d in range(2, isqrt(n) + 1)):
        n += step
    return n


@given(
    x=st.integers(min_value=4, max_value=2 * 10**4),
    q_kind=st.sampled_from([1, 2, 6, "below", "above", 2310, 30030, 9699690]),
    a_start=st.integers(min_value=0, max_value=10**7),
    n0_fraction=st.floats(min_value=0, max_value=1),
)
@settings(max_examples=60, deadline=None)
def test_pipeline_counts_each_box_like_the_oracle_from_either_side(
    x, q_kind, a_start, n0_fraction
):
    # The head-residue table ends at isqrt(x): q up to isqrt(x) + 1 gives a
    # full period and every column reads it; a larger q leaves the top
    # column past its end, and that column alone is counted from its m side.
    root = isqrt(x)
    if q_kind == "below":
        q = _prime_next_to(root + 1, -1)
    elif q_kind == "above":
        q = _prime_next_to(root + 2, 1)
    else:
        q = q_kind
    a = next(c for c in range(a_start, a_start + q + 1) if gcd(c, q) == 1) % q
    n0 = min(1 + n0_fraction * (math.sqrt(x) - 1), math.sqrt(x))
    calls = []
    count = congruence_count.class_count
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            congruence_count, "class_count", lambda *args: calls.append(args) or count(*args)
        )
        rep = pipeline_report(x, factor_modulus(q), a, n0=n0)
    for row in rep.boxes:
        m, n = row.m_anchor, row.n_anchor
        assert row.count == double_loop_oracle(1, -2, 2 * m, 2 * n, q, a, m_lo=m, n_lo=n)
    top = [row for row in rep.boxes if row.n_anchor == max(r.n_anchor for r in rep.boxes)]
    if q > root + 1 and top and math.floor(2 * top[0].n_anchor) > root:
        assert [args[:4] for args in calls] == [
            (2, -1, row.n_anchor, 2 * row.n_anchor) for row in top
        ]
    else:
        assert calls == []


def test_a_table_for_another_congruence_or_range_raises():
    m30, m3981 = factor_modulus(30), factor_modulus(3981)
    table = residue_table(-2, m30, 37, 200)  # a = 37 is held as 7
    assert ResidueColumn(1, 40, 80, table).count(1, 500) == (
        class_count(1, -2, 1, 500, 40, 80, m30, 7)
    )
    # A table shorter than q serves the n up to its end only; a column that
    # reaches past it counts from its m side.
    short = residue_table(-2, m3981, 7, 160)
    for n_hi in (160, 161):
        expected = double_loop_oracle(1, -2, 9000, n_hi, 3981, 7, m_lo=1, n_lo=80)
        assert ResidueColumn(1, 80, n_hi, short).count(1, 9000) == expected


def _per_prime_oracle(v, n_lo, n_hi, q, a, m_top):
    """Root hits of c = a*n^v (mod q) over the n in (n_lo, n_hi], and solutions with m <= m_top.

    The hits are the pairs (n, x) with x^2 = c, the solutions those of
    m^2 = c with 1 <= m <= m_top.  Brute force one prime at a time: c
    depends on n mod q only, so by the Chinese remainder theorem each full
    period of n gives a product over the primes p of q of sums over n mod p;
    the n of the partial period are taken one by one.
    """
    primes = factor_modulus(q).prime_factors
    images, roots = {}, {}  # per p: the n mod p giving each c, the x with each square
    for p in primes:
        images[p], roots[p] = [0] * p, [0] * p
        for n in range(p):
            roots[p][n * n % p] += 1
            if v > 0 or n:
                images[p][a * pow(n, v, p) % p] += 1
    periods, partial = divmod(n_hi - n_lo, q)
    hits = periods * math.prod(
        sum(k * r for k, r in zip(images[p], roots[p])) for p in primes
    )
    solutions = periods * sum(
        math.prod(images[p][m * m % p] for p in primes) for m in range(1, m_top + 1)
    )
    squares = [m * m % q for m in range(1, m_top + 1)]
    for n in range(n_hi - partial + 1, n_hi + 1):
        if v > 0 or gcd(n, q) == 1:
            c = a * pow(n, v, q) % q
            hits += math.prod(roots[p][c % p] for p in primes)
            solutions += squares.count(c)
    return hits, solutions


@pytest.mark.parametrize(
    "u, v, n_lo, n_hi, q, a",
    [
        (2, -2, 3000, 6000, 1001, 4),
        (2, 2, 0, 2500, 2310, 1),
        (2, -1, 0, 5000, 1009, 3),
        (2, -2, 0, 3 * 5 * 7 * 11 * 13 * 17 * 19 + 1000, 3 * 5 * 7 * 11 * 13 * 17 * 19, 1),
        # 297083 of 3*297083 and 13679 of 13*13679 are above 16 times these
        # windows, so their roots are solved per c and those of 3 and 13
        # swept; every prime of 510510 is swept, over a partial period, a
        # full one and more.
        *[
            (2, v, n_lo, n_hi, q, a)
            for v in (-2, -1, 1, 2)
            for n_lo, n_hi, q, a in (
                (0, 3000, 3 * 297083, 5),
                (500, 1200, 13 * 13679, 7),
                (100, 4100, 510510, 19),
            )
        ],
        *[(2, v, 0, 510510 + 1000, 510510, 19) for v in (-2, 2)],
        *[(2, v, 300, 300 + 13 * 13679 + 50, 13 * 13679, 7) for v in (-1, 1)],
    ],
)
def test_u2_multisets_hold_each_root_once(monkeypatch, u, v, n_lo, n_hi, q, a):
    # For v = +-2 one c is shared by up to 2^omega(q) n and has as many roots;
    # each root is held once, weighted by the n of the range that hit its c.
    modulus = factor_modulus(q)
    sets = congruence_count._m_residues(u, v, n_lo, n_hi, modulus, a)
    roots = [r for rs, _ in sets for r in rs]
    assert len(roots) == len(set(roots)) <= q
    if n_hi - n_lo <= 6000:
        hits = sum(
            len(power_roots(a * pow(n, v, q), modulus, [None] * len(modulus.prime_factors)))
            for n in range(n_lo + 1, n_hi + 1)
            if v > 0 or gcd(n, q) == 1
        )
        expected = double_loop_oracle(u, v, 40, n_hi, q, a, n_lo=n_lo)
        # Every prime solved per c, and every prime swept, give the same multisets.
        for factor in (0, 10**9):
            monkeypatch.setattr(congruence_count, "_SWEEP_FACTOR", factor)
            assert congruence_count._m_residues(u, v, n_lo, n_hi, modulus, a) == sets
    else:
        hits, expected = _per_prime_oracle(v, n_lo, n_hi, q, a, 40)
    if v < 0:  # the mirror walks the short side, so it counts the m <= 40 cheaply
        assert class_count(-v, -u, n_lo, n_hi, 0, 40, modulus, a) == expected
    assert sum(w * len(rs) for rs, w in sets) == hits
    assert congruence_count._count_m_range(sets, 0, 40, q) == expected


def test_residue_weights_read_a_table_without_pow(monkeypatch):
    m = factor_modulus(3981)
    table = residue_table(-2, m, 7, 9000)
    # Ranges inside one period, across a multiple of q, and over two periods.
    ranges = [(40, 80), (0.5, 8.7), (2000, 4000), (3980, 3981), (100, 9000)]
    expected = [congruence_count._m_residues(1, -2, lo, hi, m, 7) for lo, hi in ranges]

    def no_pow(*args):
        raise AssertionError("pow called although a table was given")

    monkeypatch.setattr(congruence_count, "pow", no_pow, raising=False)
    for (lo, hi), want in zip(ranges, expected):
        assert congruence_count._m_residues(1, -2, lo, hi, m, 7, table.values) == want
    with pytest.raises(AssertionError, match="pow called"):
        congruence_count._m_residues(1, -2, 40, 80, m, 7)

    # Without a table, the n of a box are inverted together: for v < 0,
    # class_count calls pow once however many n it walks.
    calls = []
    monkeypatch.setattr(
        congruence_count, "pow", lambda *args: calls.append(args) or builtins.pow(*args)
    )
    big = factor_modulus(1000003)
    for v in (-1, -2):
        for n_bound in (10, 10**4):
            calls.clear()
            assert class_count(1, v, 0, 50, 0, n_bound, big, 7) >= 0
            assert len(calls) == 1, (v, n_bound)


def test_residue_sum_rule():
    # Summed over every residue class, each admissible n contributes one m
    # class, so the total is floor(M) * #{n <= N coprime}.
    rng = random.Random(8)
    for _ in range(25):
        m = rng.choice([x for x in squarefree_moduli(60) if x.q >= 2])
        mb = rng.randrange(1, 40)
        nb = rng.randrange(1, 40)
        v = rng.choice((-1, -2))
        total = sum(
            class_count(1, v, 0, mb, 0, nb, m, a) for a in range(m.q)
        )
        coprime_n = sum(1 for n in range(1, nb + 1) if gcd(n, m.q) == 1)
        assert total == mb * coprime_n


def test_symmetry_examples_and_sweep():
    query = BoxQuery(1, -2, 10, 10, factor_modulus(7), 1)
    assert count_box(query) == check_symmetry(query, 15) == 15
    # The count the caller holds is checked against the mirror's, which is counted.
    with pytest.raises(InvariantError, match=r"^symmetry relation violated: 14 != 15$"):
        check_symmetry(query, 14)
    for (u, v), mb, nb, m, a in random_instances(60, seed=9, q_max=150, side_max=80):
        query = BoxQuery(u, v, mb, nb, m, a)
        count = count_box(query)
        assert check_symmetry(query, count) == count


def test_symmetry_requires_negative_v():
    with pytest.raises(ValueError):
        check_symmetry(BoxQuery(1, 1, 10, 10, factor_modulus(7), 1), 0)


def test_count_dyadic_oracle_and_identity():
    m7 = factor_modulus(7)
    assert count_dyadic(5, 5, m7, 1) == double_loop_oracle(
        1, -2, 10, 10, 7, 1, m_lo=5, n_lo=5
    )
    assert count_dyadic(0.2, 5, m7, 1) == 0  # (0.2, 0.4] holds no integer

    rng = random.Random(10)
    for _ in range(30):
        m = rng.choice([x for x in squarefree_moduli(90) if x.q >= 2])
        a = rng.choice([r for r in range(1, m.q) if gcd(r, m.q) == 1])
        mb = rng.randrange(1, 40) + rng.choice((0, 0.5))
        nb = rng.randrange(1, 40) + rng.choice((0, 0.5))

        def full(mx, nx):
            return count_box(BoxQuery(1, -2, mx, nx, m, a))

        inclusion_exclusion = (
            full(2 * mb, 2 * nb) - full(mb, 2 * nb) - full(2 * mb, nb) + full(mb, nb)
        )
        assert count_dyadic(mb, nb, m, a) == inclusion_exclusion


def test_hard_caps_hold_on_stress_boxes():
    # The caps are asserted inside count_box; these calls must not raise.
    m = factor_modulus(30)
    for mb, nb in ((1, 200), (200, 1), (500, 500), (30, 30)):
        count_box(BoxQuery(1, -2, mb, nb, m, 7))
        count_box(BoxQuery(2, -1, mb, nb, m, 7))


def test_evaluate_bounds_threshold_box():
    # At M = N = sqrt(q) the trivial and Weil envelopes agree in order.
    m = factor_modulus(10007)  # prime, squarefree
    side = math.sqrt(10007)
    rep = evaluate_bounds(BoxQuery(1, -2, side, side, m, 5))
    root = math.sqrt(10007)
    assert root <= rep.trivial <= 3 * root
    assert root <= rep.weil <= 4 * root


def test_evaluate_bounds_alpha_endpoints_and_mn2_power():
    m = factor_modulus(101)
    q = BoxQuery(1, -2, 20, 30, m, 3)
    r1 = evaluate_bounds(q, Fraction(1))
    r0 = evaluate_bounds(q, Fraction(0))
    assert r1.interpolated == r1.pierce_mn
    assert r0.interpolated == r0.pierce_nm
    r = evaluate_bounds(q, Fraction(2, 15))
    assert r.interpolated == pytest.approx((20 * 30**2) ** (11 / 36), rel=1e-12)
    with pytest.raises(ValueError):
        evaluate_bounds(q, Fraction(3, 2))


def test_evaluate_bounds_applicability_flags():
    m = factor_modulus(101)
    # N >= q/2 knocks out the (M, N) orientation.
    rep = evaluate_bounds(BoxQuery(1, -2, 10, 60, m, 1))
    assert rep.pierce_mn is None
    assert rep.interpolated is None
    assert rep.ratios()["pierce_mn"] is None
    # M > q^(3/4) does the same.
    rep2 = evaluate_bounds(BoxQuery(1, -2, 101, 10, m, 1))
    assert rep2.pierce_mn is None and rep2.pierce_nm is None
    assert not pierce_applicable(101, 10, 101)


def geometric_grid(q, ratio):
    """(M, N) with both sides running by `ratio` from q^(1/4) up to q^(3/4)."""
    sides, side = [], q**0.25
    while side <= q**0.75 * (1 + 1e-12):
        sides.append(side)
        side *= ratio
    return [(m, n) for m in sides for n in sides]


def test_scan_boxes_consistency():
    m = factor_modulus(10001)  # 73 * 137
    assert scan_boxes(m, 3, []) == []
    single = scan_boxes(m, 3, [(50, 50)])
    assert len(single) == 1
    query, rep = single[0]
    direct = evaluate_bounds(query)
    assert rep.count == direct.count and rep.trivial == direct.trivial

    grid = geometric_grid(10001, ratio=4.0)
    rows = scan_boxes(m, 3, grid)
    assert [(q.m_bound, q.n_bound) for q, _ in rows] == sorted(grid)
    for query, rep in rows:
        assert rep.count >= 0
