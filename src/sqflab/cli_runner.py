"""Command-line surface: every subsystem as a subcommand with CSV/JSON output.

Each `_cmd_*` returns its result or raises.  The result is a JSON-ready
payload, or scan's CSV or JSON text as a generator of chunks: the start of
the document with the rows of the first (x, q), then each later chunk of
at most 2^16 rows, counted only as the generator reaches them.
`_cmd_scan` raises every refusal before it returns.  `main` refuses an
--output that cannot be opened before the command runs; it alone writes
the result, through `_emit`, and maps exceptions to exit codes: 0 success,
2 input validation failure (ValueError or OSError), 3 internal invariant
violation (RuntimeError, such as a failed identity or symmetry check: a
bug signal, distinct from misuse so CI can tell them apart).  A failure
writes nothing, except a scan that fails after its first rows (exit 3, or
exit 2 on a closed stdout): the chunks written so far stay, as CSV rows or
as a JSON document without its end.  Identical arguments and seed produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import random
import sys
from array import array
from bisect import bisect_left
from contextlib import nullcontext
from fractions import Fraction
from functools import partial
from itertools import chain, compress, groupby, islice
from math import gcd, isqrt
from operator import itemgetter
from typing import Callable, Iterator, Sequence

from sqflab.arith_core import (
    MOBIUS_SIEVE_MAX,
    InvariantError,
    Modulus,
    factor_modulus,
    squarefree_flags,
)
from sqflab.congruence_count import BoxQuery, check_root_exponent, check_symmetry, evaluate_bounds
from sqflab.decomposition_pipeline import decompose_error, pipeline_report
from sqflab.exponent_calculus import (
    BLEND,
    COROLLARY,
    MENUS,
    RHO_MIN,
    compute_theta,
    corollary_exponent,
    parse_term_menu,
    verify_choices,
)
from sqflab.progression_stats import (
    _unit_residue,
    count_coprime,
    error_term,
    error_terms,
    hooley_envelope,
    least_squarefree_members,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INVARIANT = 3

# Integers a count-box request may span: the n side of the box, and for
# v < 0 also the m side, which the symmetry mirror counts as its n side.
# A side longer than q is folded modulo q, so the work is at most q per side.
COUNT_BOX_WALK_MAX = 10**7

# Integers in scan's modulus window [q_min, min(q_max, largest x)], whose flags
# and q task list take about 60 bytes per integer before any row is built.
SCAN_WINDOW_MAX = 10**6

# Units of one q that `scan --a all` may list.  A q's classes are held as
# 8-byte integers from its first x to its last, and its rows are built and
# written 2^16 at a time: phi(q) = 1048572 (q = 1048573, one x) peaks at about
# 124 MB max RSS.
SCAN_CLASSES_MAX = 2**20

# Flags one error term may sieve: its progression n = a + q*k holds about
# x // q of them.  Its primes, its table of squarefree prefix counts and the
# decomposition's Mobius prefix all grow with isqrt(x), which
# MOBIUS_SIEVE_MAX bounds.
ERROR_TERM_WORK_MAX = 10**9

CSV_HEADER = "X,q,a,count_ap,count_coprime,E_num,E_den,ratio_hooley,n_q_a,ratio_corollary"


def _fmt_float(v: float) -> str:
    return f"{v:.12g}"


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def _positive_finite(text: str) -> float:
    """A box side or anchor: a finite real number above zero."""
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0: {text!r}")
    return value


def _worker_count(text: str) -> int:
    """scan's --workers or SQFLAB_WORKERS: a whole number of processes, at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text!r}")
    return value


def _emit(result: Iterator[str] | dict | list, output: str | None) -> None:
    """Write a command's result: scan's chunks of CSV or JSON text, each
    flushed as it comes, or anything else as one indented JSON document.

    An --output file is opened once scan's first chunk is ready, so a scan
    that fails before its first rows leaves no file behind.
    """
    if not isinstance(result, Iterator):
        text = json.dumps(result, indent=2) + "\n"
        if output is None:
            sys.stdout.write(text)
        else:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text)
        return
    first = next(result)
    sink = nullcontext(sys.stdout) if output is None else open(output, "w", encoding="utf-8")
    with sink as fh:
        for text in chain([first], result):
            fh.write(text)
            fh.flush()


def _check_output(path: str) -> None:
    """Raise the OSError that open(path, "w") would raise, creating nothing.

    A file that exists must be writable and not a directory; one that does
    not needs a writable directory to be created in.
    """
    try:
        os.stat(path)
    except FileNotFoundError:
        parent = os.path.dirname(path) or "."
        if not os.path.isdir(parent):
            raise
        writable = os.access(parent, os.W_OK | os.X_OK)
    else:
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        writable = os.access(path, os.W_OK)
    if not writable:
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)


def _check_error_term_budget(x: int, q: int) -> None:
    """Refuse an error term at (x, q) above the work budget, before any sieving."""
    if x // q > ERROR_TERM_WORK_MAX:
        raise ValueError(
            f"x // q = {x // q} is above the budget of {ERROR_TERM_WORK_MAX}"
        )
    if x > 0 and isqrt(x) > MOBIUS_SIEVE_MAX:
        raise ValueError(
            f"isqrt(x) = {isqrt(x)} is above the sieve bound {MOBIUS_SIEVE_MAX}"
        )


# ---------------------------------------------------------------------------
# error-term


def _cmd_error_term(args: argparse.Namespace) -> dict:
    modulus = factor_modulus(args.q)
    _check_error_term_budget(args.x, modulus.q)
    result = error_term(args.x, modulus, args.a)
    payload = {
        "x": args.x,
        "q": modulus.q,
        "a": result.residue,
        "phi": modulus.phi,
        "count_ap": result.progression_count,
        "count_coprime": result.coprime_count,
        "error": str(result.error),
        "reference_ratio": result.reference_ratio,
    }
    if args.decompose:
        decomposed = decompose_error(args.x, modulus, args.a)
        payload["error_decomposed"] = str(decomposed)
        payload["identity_ok"] = decomposed == result.error
        if not payload["identity_ok"]:
            raise InvariantError(
                f"decomposition identity violated: {result.error} != {decomposed}"
            )
    return payload


# ---------------------------------------------------------------------------
# scan


def _scan_policy(text: str) -> tuple[str, int]:
    """scan's --a as ("all", 0), ("sample", k) or ("unit", a)."""
    if text == "all":
        return "all", 0
    kind = "sample" if text.startswith("sample:") else "unit"
    try:
        value = int(text.removeprefix("sample:"))
    except ValueError:
        raise ValueError(
            f"--a must be an integer, 'all' or 'sample:K', got {text!r}"
        ) from None
    if kind == "sample" and value < 1:
        raise ValueError(f"sample size must be >= 1, got {text!r}")
    return kind, value


def _check_classes(modulus: Modulus, policy: tuple[str, int]) -> int:
    """The number of classes scan's --a lists for q, refused before any is listed.

    An integer a must be a unit of q; `all` lists phi(q) units and a sample
    of k min(k, phi(q)), neither of them more than SCAN_CLASSES_MAX.
    """
    kind, value = policy
    if kind == "unit":
        _unit_residue(modulus, value)
        return 1
    size = modulus.phi if kind == "all" else min(value, modulus.phi)
    if size > SCAN_CLASSES_MAX:
        option, listed = ("all", f"phi(q) = {size}") if kind == "all" else (f"sample:{value}", size)
        raise ValueError(
            f"--a {option} at q = {modulus.q} lists {listed} units, "
            f"above the budget of {SCAN_CLASSES_MAX}"
        )
    return size


def _residues_for(modulus: Modulus, policy: tuple[str, int], seed: int) -> list[int]:
    """The classes scan evaluates for q, ascending: one unit, every unit or a sample.

    `all` and a sample of k >= phi(q) list every unit, [0, q) with the
    multiples of each prime of q struck out, in C loops over q flags rather
    than a gcd per integer.  A smaller sample
    draws k ranks with random.sample(range(phi(q)), k), which reads only its
    population's length and then indexes it, so the units of these ranks are
    those that the same draw from the list of every unit gives.  The unit of
    rank j, the least a with count_coprime(a) = j + 1, is found by bisection,
    about log2(q) counts over the 2^omega divisors of q, or, where k of them
    would cost more than q gcds, by one sweep over the units that holds only
    the ranked ones and stops at the last.
    """
    q = modulus.q
    kind, value = policy
    if kind == "unit":
        return [_unit_residue(modulus, value)]
    if kind == "all" or value >= modulus.phi:
        units = bytearray(b"\x01") * q
        for p in modulus.prime_factors:
            units[::p] = bytes(len(range(0, q, p)))
        return list(compress(range(q), units))
    ranks = sorted(random.Random(f"{seed}:{q}").sample(range(modulus.phi), value))
    if value * q.bit_length() * len(modulus.squarefree_divisors) < q:
        count = partial(count_coprime, modulus=modulus)
        return [bisect_left(range(q), j + 1, key=count) for j in ranks]
    # Each rank skips the units between it and the rank before.
    units = (a for a in range(q) if gcd(a, q) == 1)
    return [next(islice(units, j - i - 1, None)) for i, j in zip([-1, *ranks], ranks)]


def _scan_rows(
    x: int,
    policy: tuple[str, int],
    seed: int,
    call: tuple[list[tuple[Modulus, int]], dict[int, tuple[array, list[int]]], int, bool],
) -> Iterator[list[str]]:
    """The CSV lines of one call (tasks, held, skip, later) of x, in order
    and ascending in a, in lists of at most 2^16 lines: those of its tasks
    (modulus, size), the first task's from its row `skip` on.

    error_terms refuses every non-unit before its first count and plans host
    moduli over all its tasks, so each q's classes are listed, or taken from
    `held`, before the first task is counted.  At its turn a task's classes
    must number its planned size, and when they are every unit of q their
    counts must sum to the coprime count: a Liouville sum of squarefree
    counts at x <= 2^22, whose flags the recursion checks once per x, and
    the recursion above.  Its n_q_a are then found 2^16 classes at a time as
    its rows are built, read off the flags its counts read where they reach.
    When the q of the call have a `later` x, each finds them all at once and
    puts them in `held` with its residues, as integers, for that x.
    """
    tasks, held, skip, later = call
    # Residues take 8 bytes each in an array: as lists of ints, the classes
    # of every q <= 4096 at one x took 130 MB.
    listed = [
        held.pop(m.q, None) or (array("q", _residues_for(m, policy, seed)), None)
        for m, _ in tasks
    ]
    counted = error_terms(x, [(m, residues) for (m, _), (residues, _) in zip(tasks, listed)])
    for (modulus, size), (residues, least) in zip(tasks, listed):
        q, phi = modulus.q, modulus.phi
        if len(residues) != size:
            raise InvariantError(f"q = {q} lists {len(residues)} classes, not {size}")
        coprime, counts = next(counted)
        if len(counts) == phi and sum(counts) != coprime:
            raise InvariantError(
                f"class counts of q = {q} at x = {x} sum to {sum(counts)}, "
                f"not to the coprime count {coprime}"
            )
        if later:
            if least is None:
                least = least_squarefree_members(x, modulus, residues)
            held[q] = residues, least
        # E = e / phi in lowest terms; int / int rounds once, as float(E) does.
        envelope = hooley_envelope(x, q)
        scale = float(q) ** float(COROLLARY)
        for start in range(skip, size, 1 << 16):
            part = slice(start, start + (1 << 16))
            members = (
                least_squarefree_members(x, modulus, residues[part]) if least is None
                else least[part]
            )
            yield [
                f"{x},{q},{a},{count},{coprime},{e // g},{phi // g},"
                f"{_fmt_float(abs(e) / phi / envelope)},{n},{_fmt_float(n / scale)}"
                for a, count, n in zip(residues[part], counts[part], members)
                for e in [count * phi - coprime]
                for g in [gcd(e, phi)]
            ]
        skip = 0


def _scan_call(collect: Callable, x: int, policy: tuple[str, int], seed: int, call: tuple) -> tuple:
    """The lines of one call of x (see _scan_rows), as `collect` gives them,
    and the classes it holds for a later x once they are read."""
    return collect(_scan_rows(x, policy, seed, call)), call[1]


def _scan_tasks(
    args: argparse.Namespace,
    policy: tuple[str, int],
    x_values: tuple[int, ...],
    q_values: list[int],
) -> Iterator[list[str]]:
    """scan's lines in (X, q, a) order from --start-row on, in lists of at
    most 2^16 lines, each (x, q)'s in lists of its own.

    The first list is empty and marks the end of the plan: every q is
    factored and checked in window order, which gives its number of
    classes, before it is yielded.  The plan keeps that one number per q.
    A task (x, q) gives one line per class, so the tasks wholly before
    --start-row are dropped unlisted and uncounted, and the first one kept
    starts at its row.  Each x's tasks are then cut into calls, each with
    its own host plan: the first task alone, so that its rows come out
    before any other q is listed, then one call per x, or in a pool calls
    of `chunk` tasks that run together.  The classes of a q and their n_q_a
    are listed at its first kept x and kept until its last: each q of an x
    below the largest has a task at every larger x.
    """
    # More processes than q or cores would only wait.
    workers = min(args.workers, len(q_values), os.cpu_count() or 1)
    # Serially a call takes the rest of an x and streams its lines; in a pool
    # it takes `chunk` tasks and lists them, to be pickled.
    pool, run, collect, chunk = None, map, iter, max(len(q_values), 1)
    if workers > 1:
        # Imported only here: it adds about 14 ms to the start of every command.
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=workers)
        run, collect, chunk = pool.map, list, len(q_values) // (4 * workers) + 1
    try:
        # map yields in task order and raises the error of the first failing
        # task in order, as a serial scan does, not of the first chunk to
        # finish.  A worker that dies raises BrokenProcessPool (exit 3)
        # rather than leaving scan waiting for its results.
        factor = partial(pool.map, chunksize=chunk) if pool else map
        moduli = list(factor(factor_modulus, q_values))
        sizes = {m.q: _check_classes(m, policy) for m in moduli}
        # x in the outer loop: every q of one x reads the same squarefree
        # table, and the rows come out in (X, q, a) order.
        tasks = [(x, m) for x in x_values for m in moduli if m.q <= x]
        first, skip = 0, args.start_row
        while first < len(tasks) and skip >= sizes[tasks[first][1].q]:
            skip -= sizes[tasks[first][1].q]
            first += 1
        yield []
        held: dict[int, tuple[array, list[int]]] = {}
        alone = 1  # the first task is a call of its own
        for x, group in groupby(tasks[first:], key=itemgetter(0)):
            group = [(m, sizes[m.q]) for _, m in group]
            cuts = [*range(alone), *range(alone, len(group), chunk), len(group)]
            calls = []
            for i, j in zip(cuts, cuts[1:]):
                part = group[i:j]
                held_part = {m.q: held.pop(m.q) for m, _ in part if m.q in held}
                calls.append((part, held_part, skip, x < x_values[-1]))
                skip = alone = 0
            # pool.map's default chunksize makes each call a job of its own,
            # so the first call's lines wait for no batch of later calls.
            for lines, kept in run(partial(_scan_call, collect, x, policy, args.seed), calls):
                yield from lines
                held.update(kept)
    finally:
        if pool:
            # After an error the tasks not yet started are dropped.
            pool.shutdown(cancel_futures=True)


def _csv_chunks(tasks: Iterator[list[str]]) -> Iterator[str]:
    """scan's CSV text: the header with the first list of lines, then each later list."""
    header = [CSV_HEADER]
    for lines in tasks:
        yield "\n".join([*header, *lines, ""])
        header = []
    if header:
        yield CSV_HEADER + "\n"


# One row as json.dumps(rows, indent=2) writes it inside the list: every
# column a string of digits, signs, points and letters, none of them escaped.
_JSON_ROW = "  {\n" + ",\n".join(f'    "{key}": "%s"' for key in CSV_HEADER.split(",")) + "\n  }"


def _json_chunks(tasks: Iterator[list[str]]) -> Iterator[str]:
    """scan's JSON text, the bytes of json.dumps(rows, indent=2) + "\\n" for
    the list of its rows as objects of strings, one chunk per list of lines."""
    opening = "[\n"
    for lines in tasks:
        yield opening + ",\n".join(_JSON_ROW % tuple(line.split(",")) for line in lines)
        opening = ",\n"
    yield "[]\n" if opening == "[\n" else "\n]\n"


def _cmd_scan(args: argparse.Namespace) -> Iterator[str]:
    if args.q_min < 1 or args.q_max < args.q_min:
        raise ValueError(f"bad q range [{args.q_min}, {args.q_max}]")
    if any(x < 1 for x in args.x):
        raise ValueError("x values must be >= 1")
    if args.start_row < 0:
        raise ValueError(f"--start-row must be >= 0, got {args.start_row}")
    policy = _scan_policy(args.a)
    x_values = tuple(sorted(set(args.x)))
    _check_error_term_budget(x_values[-1], args.q_min)
    # A q above every x has no row, so the list stops at the largest x.
    q_window = range(args.q_min, min(args.q_max, x_values[-1]) + 1)
    if len(q_window) > SCAN_WINDOW_MAX:
        raise ValueError(
            f"the modulus window [{args.q_min}, {q_window.stop - 1}] holds "
            f"{len(q_window)} integers, above the budget of {SCAN_WINDOW_MAX}"
        )
    flags = squarefree_flags(args.q_min, len(q_window))
    tasks = _scan_tasks(args, policy, x_values, list(compress(q_window, flags)))
    next(tasks)  # the plan: every refusal comes before the first row is counted
    return (_json_chunks if args.format == "json" else _csv_chunks)(tasks)


# ---------------------------------------------------------------------------
# count-box


def _cmd_count_box(args: argparse.Namespace) -> dict:
    modulus = factor_modulus(args.q)
    query = BoxQuery(args.u, args.v, args.m, args.n, modulus, args.a, args.dyadic)
    # For v < 0 the symmetry mirror counts the box again; its n side is the box's m side.
    boxes = (query, query.mirror) if args.v < 0 else (query,)
    walk = max(math.floor(b.ranges[3]) - math.floor(b.ranges[2]) for b in boxes)
    if walk > COUNT_BOX_WALK_MAX:
        raise ValueError(
            f"box walks {walk} integers, above the budget of {COUNT_BOX_WALK_MAX}"
        )
    # Refused before counting: the box's roots, then its mirror's.
    for box in boxes:
        check_root_exponent(box.u)
    report = evaluate_bounds(query, args.alpha)
    payload = {
        "u": args.u,
        "v": args.v,
        "m": args.m,
        "n": args.n,
        "q": args.q,
        "a": args.a,
        "dyadic": args.dyadic,
        "count": report.count,
        "alpha": str(report.alpha),
        "bounds": {
            "trivial": report.trivial,
            "weil": report.weil,
            "pierce_mn": report.pierce_mn,
            "pierce_nm": report.pierce_nm,
            "interpolated": report.interpolated,
        },
        "ratios": report.ratios(),
    }
    if args.v < 0:
        mirrored = check_symmetry(query, report.count)
        payload["symmetry"] = {"mirrored_count": mirrored, "equal": True}
    return payload


# ---------------------------------------------------------------------------
# pipeline


def _cmd_pipeline(args: argparse.Namespace) -> dict:
    modulus = factor_modulus(args.q)
    _check_error_term_budget(args.x, modulus.q)
    report = pipeline_report(
        args.x, modulus, args.a, m0=args.m0, n0=args.n0, alpha=args.alpha
    )
    return {k: str(v) if isinstance(v, Fraction) else v for k, v in report.items()}


# ---------------------------------------------------------------------------
# optimize


def _cmd_optimize(args: argparse.Namespace) -> dict:
    if args.menu_file is not None:
        with open(args.menu_file, encoding="utf-8") as fh:
            terms = parse_term_menu(fh.read())
        menu_name = args.menu_file
    else:
        terms = list(MENUS[args.menu])
        menu_name = args.menu
    result = compute_theta(terms, rho_min=args.rho_min)
    payload: dict = {
        "menu": menu_name,
        "terms": [
            {"label": t.label, "coeff_x": str(t.coeff_x), "coeff_rho": str(t.coeff_rho)}
            for t in terms
        ],
        "feasible": result.feasible,
        "theta": str(result.theta) if result.feasible else None,
        "binding_constraint": result.binding_constraint,
    }
    if result.feasible:
        payload["slack_at_theta"] = {k: str(v) for k, v in result.slack_at_theta.items()}
        payload["corollary_exponent"] = (
            str(corollary_exponent(result.theta)) if 0 < result.theta < 1 else None
        )
        # The anchor choices are defined for RHO_MIN <= rho < 1 only.
        choice = verify_choices(result.theta) if RHO_MIN <= result.theta < 1 else None
        payload["anchor_checks"] = None if choice is None else {
            k: str(v) if isinstance(v, Fraction) else v for k, v in choice.items()
        }
    return payload


# ---------------------------------------------------------------------------
# parser


def _error_term_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--decompose", action="store_true", help="also run the identity check")


def _scan_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--x", type=int, nargs="+", required=True, help="one or more cutoffs")
    p.add_argument("--q-min", type=int, default=1)
    p.add_argument("--q-max", type=int, required=True)
    p.add_argument(
        "--a",
        default="1",
        help="residue policy: an integer, 'all', or 'sample:K'",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--start-row", type=int, default=0, help="resume: skip leading rows")
    # A string default passes through the type too, so a bad SQFLAB_WORKERS
    # is a usage error of scan alone.
    p.add_argument(
        "--workers", type=_worker_count, default=os.environ.get("SQFLAB_WORKERS", "1")
    )
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def _count_box_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--u", type=int, required=True)
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--m", type=_positive_finite, required=True)
    p.add_argument("--n", type=_positive_finite, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--dyadic", action="store_true")
    p.add_argument("--alpha", type=_parse_fraction, default=BLEND.alpha)


def _pipeline_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--m0", type=_positive_finite, default=None)
    p.add_argument("--n0", type=_positive_finite, default=None)
    p.add_argument("--alpha", type=_parse_fraction, default=BLEND.alpha)


def _optimize_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--menu", choices=sorted(MENUS), default="default")
    p.add_argument("--menu-file", default=None, help="custom menu file (label cx crho)")
    p.add_argument("--rho-min", type=_parse_fraction, default=RHO_MIN)


# The subcommands, in the order of the help text: name -> (help, the function
# that adds its arguments, its handler).  Every one also takes --output.
COMMANDS: dict[str, tuple[str, Callable, Callable]] = {
    "error-term": (
        "exact progression error term at one (x, q, a)", _error_term_args, _cmd_error_term
    ),
    "scan": ("CSV table of error terms over a modulus range", _scan_args, _cmd_scan),
    "count-box": (
        "exact congruence-box count with bound envelopes", _count_box_args, _cmd_count_box
    ),
    "pipeline": ("full decomposition report at one (x, q, a)", _pipeline_args, _cmd_pipeline),
    "optimize": ("distribution exponent from a term menu", _optimize_args, _cmd_optimize),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of `command` alone.

    A parser of one subcommand reads that subcommand's arguments as the full
    one does.  Its metavar spells out the full choice list, so the top-level
    usage line that argparse prints on an unrecognized argument is the full
    parser's.  The full parser sets none, so its `invalid choice` and
    `required: command` errors name the argument `command`.
    """
    parser = argparse.ArgumentParser(
        prog="sqflab",
        description="Exact experiments on squarefree numbers in arithmetic progressions.",
    )
    names = list(COMMANDS) if command is None else [command]
    metavar = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_text, add_arguments, handler = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        add_arguments(p)
        p.add_argument("--output", default=None, help="write to file instead of stdout")
        p.set_defaults(func=handler)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # Only a first token that names a subcommand gets a parser of its own;
    # --help, an empty argv and anything else get the full one.
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        if args.output is not None:
            _check_output(args.output)
        _emit(args.func(args), args.output)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
