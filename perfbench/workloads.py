"""Seeded request streams for the four benchmark workloads, and their output checks.

Each workload turns a seed into an endless, deterministic stream of
`(argv, check)` pairs.  `argv` is exactly what `sqflab.cli_runner.main`
receives; `check(stdout_text)` returns None when the output is verified and
a one-line reason otherwise.  The checks recompute what they can by routes
that share no code with the program.

Inputs are not independent uniforms.  They come in rounds that hold the
same strata of the input ranges for every seed: Latin-hypercube rounds
(`latin_rounds`) on pipeline-large-x and count-box-wide, and fixed q-max
strata on scan-cached-grid; the seed places the inputs inside their
strata.  Every round then covers the input ranges evenly, so the median and
tail latency of a time-boxed run depend on the program, not on which corner
of the range a seed happened to favour.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from math import gcd, isqrt
from pathlib import Path
from typing import Callable, Iterator

Check = Callable[[str], "str | None"]
Request = tuple[list[str], Check]

# Requests per round of the two workloads whose inputs come from latin_rounds.
PIPELINE_ROUND = 6
COUNT_BOX_ROUND = 40

# Middles of six equal strata of [40, 80], in the order scan-cached-grid uses them.
SCAN_Q_MAX = (43, 50, 57, 77, 70, 63)

CSV_HEADER = "X,q,a,count_ap,count_coprime,E_num,E_den,ratio_hooley,n_q_a,ratio_corollary"


def latin_rounds(rng: random.Random, dims: int, size: int, design: str) -> Iterator[list[float]]:
    """Points of [0, 1)^dims in rounds of `size` that hold the same strata whatever the seed.

    Each dimension is cut into `size` equal strata, and each round has one
    point in each stratum of each dimension (a Latin hypercube).  Which
    strata share a point, and their order, are fixed by `design`, not by the
    seed, so every round of every seed has the same mix of cheap and costly
    inputs.  The seed gives each round one offset per dimension but the
    last, the place of all its points inside their strata; the next round
    takes the mirrored offsets 1 - o, so each pair of rounds is symmetric
    about the strata's middles.  The last dimension (q in both workloads
    that use this) takes no offset: its points sit at the strata's middles
    in every round.
    """
    fixed = random.Random(design)
    strata = [fixed.sample(range(size), size) for _ in range(dims)]
    while True:
        offsets = [rng.random() for _ in range(dims - 1)]
        for o in (offsets, [1.0 - v for v in offsets]):
            for k in range(size):
                yield [(s[k] + v) / size for s, v in zip(strata, o + [0.5])]


def log_uniform(lo: float, hi: float, u: float) -> int:
    return int(lo * (hi / lo) ** u)


# ---------------------------------------------------------------------------
# Independent arithmetic (trial division and small sieves; no sqflab code).


def prime_factors(n: int) -> list[int]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def is_squarefree(n: int) -> bool:
    p = 2
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        p += 1
    return True


def prev_squarefree(n: int) -> int:
    while not is_squarefree(n):
        n -= 1
    return n


def phi(q: int) -> int:
    out = q
    for p in prime_factors(q):
        out = out // p * (p - 1)
    return out


def random_unit(rng: random.Random, q: int) -> int:
    while True:
        a = rng.randrange(1, q)
        if gcd(a, q) == 1:
            return a


def mobius_table(n: int) -> list[int]:
    """mu(0..n) by a linear sieve; mu[0] is unused."""
    mu = [1] * (n + 1)
    is_comp = bytearray(n + 1)
    primes: list[int] = []
    for i in range(2, n + 1):
        if not is_comp[i]:
            primes.append(i)
            mu[i] = -1
        for p in primes:
            if i * p > n:
                break
            is_comp[i * p] = 1
            if i % p == 0:
                mu[i * p] = 0
                break
            mu[i * p] = -mu[i]
    return mu


def squarefree_error(x: int, q: int, a: int) -> Fraction:
    """count_ap - count_coprime / phi(q) for squarefree n <= x, by the O(sqrt x) route.

    mu^2(n) = sum over d^2 | n of mu(d); with n = d^2 m coprime to q this sums
    mu(d) * #{m <= x/d^2 in the class (or coprime to q)} over d <= sqrt x.
    """
    mu = mobius_table(isqrt(x))
    divisors = [(1, 1)]
    for p in prime_factors(q):
        divisors += [(d * p, -s) for d, s in divisors]
    in_class = coprime = 0
    for d in range(1, len(mu)):
        if mu[d] == 0 or gcd(d, q) != 1:
            continue
        y = x // (d * d)
        r = a * pow(d, -2, q) % q if q > 1 else 0
        in_class += mu[d] * ((y - r) // q + 1 if r else y // q)
        coprime += mu[d] * sum(s * (y // e) for e, s in divisors)
    return Fraction(in_class) - Fraction(coprime, phi(q))


# ---------------------------------------------------------------------------
# Output checks.


def _check_pipeline(x: int, q: int, a: int, out: str) -> str | None:
    r = json.loads(out)
    if r["identity_ok"] is not True or r["majorization_ok"] is not True:
        return "identity_ok or majorization_ok is not true"
    e = Fraction(r["e_direct"])
    if Fraction(r["e_decomposed"]) != e or Fraction(r["head"]) + Fraction(r["tail_small_n"]) != e:
        return "e_direct, e_decomposed and head + tail disagree"
    counts = [b["count"] for b in r["boxes"]]
    if sum(counts) != r["sum_box_counts"] or max(counts, default=0) != r["sup_box_count"]:
        return "box counts do not add up"
    rhs = r["sum_box_counts"] + abs(Fraction(r["tail_small_n"])) + Fraction(r["main_term_removed"])
    if Fraction(r["majorization_rhs"]) != rhs or not abs(e) <= rhs:
        return "majorization right side is wrong"
    if e != squarefree_error(x, q, a):
        return f"e_direct {e} differs from the independent count"
    return None


def _check_scan(x: int, q_max: int, out: str) -> str | None:
    lines = out.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return "bad CSV header"
    expected = [
        (q, a)
        for q in range(1, q_max + 1)
        if is_squarefree(q)
        for a in ([0] if q == 1 else [a for a in range(1, q) if gcd(a, q) == 1])
    ]
    rows = [line.split(",") for line in lines[1:]]
    if [(int(r[1]), int(r[2])) for r in rows] != expected or any(int(r[0]) != x for r in rows):
        return "rows do not cover (X, q, a) in order"
    class_sum: dict[int, int] = {}
    for X, q_s, a_s, cap, ccop, e_num, e_den, ratio, n_qa, cor in rows:
        q, a, n = int(q_s), int(a_s), int(n_qa)
        e = Fraction(int(e_num), int(e_den))
        if int(e_den) != e.denominator or e != Fraction(int(cap)) - Fraction(int(ccop), phi(q)):
            return f"E_num/E_den wrong at q={q} a={a}"
        if not is_squarefree(n) or n % q != a % q:
            return f"n_q_a={n} is not a squarefree member of {a} mod {q}"
        if ratio != f"{abs(float(e)) / (math.sqrt(x / q) + math.sqrt(q)):.12g}":
            return f"ratio_hooley wrong at q={q} a={a}"
        if cor != f"{n / float(q) ** (36 / 25):.12g}":
            return f"ratio_corollary wrong at q={q} a={a}"
        class_sum[q] = class_sum.get(q, 0) + int(cap)
        if q == 1 and int(ccop) != int(cap):
            return "q = 1 row is inconsistent"
    by_q = {int(r[1]): int(r[4]) for r in rows}
    if any(class_sum[q] != by_q[q] for q in by_q):
        return "class counts do not sum to the coprime count"
    total = mobius_table(isqrt(x))
    if by_q[1] != sum(m * (x // (d * d)) for d, m in enumerate(total) if d):
        return "squarefree count up to X is wrong"
    return None


def _check_count_box(out: str) -> str | None:
    r = json.loads(out)
    sym = r.get("symmetry")
    if sym is None or sym["equal"] is not True or sym["mirrored_count"] != r["count"]:
        return "symmetry check failed"
    return None


def _check_optimize(theta: Fraction, out: str) -> str | None:
    r = json.loads(out)
    if r["feasible"] is not True or Fraction(r["theta"]) != theta:
        return f"theta {r.get('theta')} != {theta}"
    slack = {k: Fraction(v) for k, v in r["slack_at_theta"].items()}
    if any(s < 0 for s in slack.values()) or slack.get(r["binding_constraint"]) != 0:
        return "slack is negative or the binding term has slack"
    if Fraction(r["corollary_exponent"]) != 1 / theta:
        return "corollary exponent is not 1/theta"
    return None


# ---------------------------------------------------------------------------
# Workloads.


def pipeline_large_x(rng: random.Random, workdir: Path) -> Iterator[Request]:
    # q is the last dimension, so it sits at its strata's middles: how a q
    # factors changes a request's cost far more than where in its stratum it
    # lies, so a seeded q would make the seed, not the program, set a run's
    # latency.
    for u in latin_rounds(rng, 2, PIPELINE_ROUND, "pipeline-large-x"):
        x = log_uniform(2**23, 2**26, u[0])
        q = prev_squarefree(log_uniform(10**3, 10**5, u[1]))
        a = random_unit(rng, q)
        argv = ["pipeline", "--x", str(x), "--q", str(q), "--a", str(a)]
        yield argv, lambda out, x=x, q=q, a=a: _check_pipeline(x, q, a, out)


def scan_cached_grid(rng: random.Random, workdir: Path) -> Iterator[Request]:
    # Rounds of six: each cached x twice, once with a q_max from the lower
    # half of [40, 80] and once from the upper half, so that each x sees
    # every q_max stratum across the round.  The seed moves each q_max by at
    # most one from its stratum's middle: a run measures only one or two
    # rounds, too few to average out where in its stratum a q_max falls.
    for i in count():
        x = 2 ** (20 + i % 3)
        q_max = SCAN_Q_MAX[i % 6] + rng.randint(-1, 1)
        argv = ["scan", "--x", str(x), "--q-max", str(q_max), "--a", "all", "--workers", "1"]
        yield argv, lambda out, x=x, q_max=q_max: _check_scan(x, q_max, out)


def count_box_wide(rng: random.Random, workdir: Path) -> Iterator[Request]:
    # Design point k of a round has orientation k // 2 % 2 and the dyadic flag
    # k // 4 % 2.  q sits at its strata's middles, as in pipeline_large_x:
    # how many roots a residue has mod q, and how dear they are to find,
    # depend on how q factors, and a seeded q alone moved a run's mean
    # latency by up to 6%.
    for i, u in enumerate(latin_rounds(rng, 3, COUNT_BOX_ROUND, "count-box-wide")):
        uv = ("1", "-2") if i // 2 % 2 == 0 else ("2", "-1")
        m = log_uniform(10**3, 3 * 10**4, u[0])
        n = log_uniform(10**3, 3 * 10**4, u[1])
        q = prev_squarefree(log_uniform(10**2, 10**6, u[2]))
        argv = ["count-box", "--u", uv[0], "--v", uv[1], "--m", str(m), "--n", str(n),
                "--q", str(q), "--a", str(random_unit(rng, q))]
        if i // 4 % 2:
            argv.append("--dyadic")
        yield argv, _check_count_box


BUILTIN_THETA = {"default": Fraction(25, 36), "one-sided": Fraction(28, 45)}


def write_menus(rng: random.Random, workdir: Path, k: int = 16) -> list[tuple[Path, Fraction]]:
    """Random feasible menus: term i meets the target 1 - rho exactly at rho_i in (1/2, 1).

    Menu j has 3 + j % 6 terms, so every seed writes the same mix of sizes.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    menus = []
    for j in range(k):
        lines, crossings = [], []
        for t in range(3 + j % 6):
            rho = Fraction(rng.randint(51, 99), 100)
            coeff_rho = Fraction(rng.randint(-7, 16), 8)
            lines.append(f"t{t} {1 - rho * (1 + coeff_rho)} {coeff_rho}")
            crossings.append(rho)
        path = workdir / f"menu-{j:02d}.txt"
        path.write_text("# random benchmark menu\n" + "\n".join(lines) + "\n", encoding="utf-8")
        menus.append((path, min(crossings)))
    return menus


def optimize_menus(rng: random.Random, workdir: Path) -> Iterator[Request]:
    # Every other pair of requests takes the random menus in turn, each pass
    # in a new seeded order, so each round of 400 takes every menu 12 or 13 times.
    menus = write_menus(rng, workdir)
    order: list[tuple[Path, Fraction]] = []
    for i in count():
        rho_min = str(Fraction(rng.randint(25, 50), 100))
        if i % 4 < 2:
            name = ("default", "one-sided")[i % 4]
            argv, theta = ["optimize", "--menu", name], BUILTIN_THETA[name]
        else:
            if not order:
                order = rng.sample(menus, len(menus))
            path, theta = order.pop()
            argv = ["optimize", "--menu-file", str(path)]
        argv += ["--rho-min", rho_min]
        yield argv, lambda out, theta=theta: _check_optimize(theta, out)


@dataclass(frozen=True)
class Workload:
    stream: Callable[[random.Random, Path], Iterator[Request]]
    # Small requests run before timing starts, so that the caches the
    # workload relies on are filled and every code path has been loaded.
    warmup: tuple[tuple[str, ...], ...]
    # Percentile of each round whose median over rounds is latency_tail_s.
    # A scan run holds one round of 6, too few for any tail, so there
    # latency_tail_s is that round's median.
    tail_pct: float
    # Requests per round of latency_p50_s: one period of the input pattern.
    round_size: int
    # Calibrations on each side of a request that its time is scaled by
    # (see worker.untraced): 0 where requests take milliseconds, more where
    # one request outlasts several changes of the machine's speed.
    calibration_reach: int


_SCAN_WARMUP = tuple(
    ("scan", "--x", str(2**k), "--q-max", "3", "--a", "all", "--workers", "1") for k in (20, 21, 22)
)

WORKLOADS: dict[str, Workload] = {
    "pipeline-large-x": Workload(
        pipeline_large_x,
        (("pipeline", "--x", str(2**23), "--q", "1001", "--a", "2"),),
        tail_pct=65,
        round_size=PIPELINE_ROUND,
        calibration_reach=3,
    ),
    "scan-cached-grid": Workload(
        scan_cached_grid, _SCAN_WARMUP, tail_pct=50, round_size=len(SCAN_Q_MAX), calibration_reach=1
    ),
    "count-box-wide": Workload(
        count_box_wide,
        (
            ("count-box", "--u", "1", "--v", "-2", "--m", "100", "--n", "100", "--q", "101", "--a", "3"),
            ("count-box", "--u", "2", "--v", "-1", "--m", "100", "--n", "100", "--q", "101", "--a", "3", "--dyadic"),
        ),
        tail_pct=90,
        round_size=COUNT_BOX_ROUND,
        calibration_reach=0,
    ),
    "optimize-menus": Workload(
        optimize_menus,
        (("optimize", "--menu", "default"), ("optimize", "--menu", "one-sided")),
        tail_pct=95,
        round_size=400,
        calibration_reach=0,
    ),
}


def requests(name: str, seed: int, workdir: Path) -> Iterator[Request]:
    """The request stream of workload `name`; the same seed gives the same argv list."""
    return WORKLOADS[name].stream(random.Random(f"{name}:{seed}"), workdir)
