"""Command-line surface: every subsystem as a subcommand with CSV/JSON output.

Each `_cmd_*` returns its result, a JSON-ready payload or scan's CSV text,
or raises.  `main` alone writes the result, through `_emit`, and maps
exceptions to exit codes: 0 success, 2 input validation failure (ValueError
or OSError), 3 internal invariant violation (RuntimeError, such as a failed
identity or symmetry check: a bug signal, distinct from misuse so CI can
tell them apart).  Identical arguments and seed produce byte-identical
output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from bisect import bisect_left
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from functools import partial
from itertools import compress
from math import gcd, isqrt
from typing import Callable, Sequence

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
    least_squarefree,
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


def _emit(result: str | dict | list, output: str | None) -> None:
    """Write a command's result: text as it is, anything else as indented JSON."""
    text = result if isinstance(result, str) else json.dumps(result, indent=2) + "\n"
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


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


def _residues_for(modulus: Modulus, policy: tuple[str, int], seed: int) -> list[int]:
    """The classes scan evaluates for q, ascending: one unit, every unit or a sample.

    A sample of k units draws k ranks among the phi(q) units with
    random.sample(range(phi(q)), k), and finds the unit of rank j, the
    least a with count_coprime(a) = j + 1, by bisection.  random.sample
    reads only its population's length and then indexes it, so these are
    the units that the same draw from the list of every unit gives.  A
    bisection counts about log2(q) times over the 2^omega divisors of q;
    where k of them would cost more than the q gcds of that list, the list
    is drawn from instead (always for k >= phi(q), as phi(q) * 2^omega >= q).
    """
    q = modulus.q
    if q == 1:
        return [0]
    kind, value = policy
    if kind == "unit":
        return [_unit_residue(modulus, value)]
    if kind == "sample" and value * q.bit_length() * len(modulus.squarefree_divisors) < q:
        ranks = sorted(random.Random(f"{seed}:{q}").sample(range(modulus.phi), value))
        count = partial(count_coprime, modulus=modulus)
        return [bisect_left(range(q), j + 1, key=count) for j in ranks]
    units = [a for a in range(1, q) if gcd(a, q) == 1]
    if kind == "all" or len(units) <= value:
        return units
    return sorted(random.Random(f"{seed}:{q}").sample(units, value))


def _scan_classes(task: tuple[int, tuple[str, int], int]) -> tuple[Modulus, list[tuple[int, str]]]:
    """The modulus q and its classes: each a with its x-free CSV columns, n_q_a and ratio."""
    q, policy, seed = task
    modulus = factor_modulus(q)
    scale = float(q) ** float(COROLLARY)
    classes = []
    for a in _residues_for(modulus, policy, seed):
        n_qa = least_squarefree(modulus, a)
        classes.append((a, f"{n_qa},{_fmt_float(n_qa / scale)}"))
    return modulus, classes


def _scan_rows(task: tuple[int, Modulus, list[tuple[int, str]]]) -> list[str]:
    """The CSV lines of one (x, q), ascending in a.

    When the classes are every unit of q > 1, their counts, read from the
    flags at stride q, must sum to the coprime count from the Legendre
    recursion.
    """
    x, modulus, classes = task
    results = error_terms(x, modulus, [a for a, _ in classes])
    if modulus.q > 1 and len(results) == modulus.phi:
        total = sum(res.progression_count for res in results)
        coprime = results[0].coprime_count
        if total != coprime:
            raise InvariantError(
                f"class counts of q = {modulus.q} at x = {x} sum to {total}, "
                f"not to the coprime count {coprime}"
            )
    return [
        f"{x},{modulus.q},{a},{res.progression_count},{res.coprime_count},"
        f"{res.error.numerator},{res.error.denominator},{_fmt_float(res.reference_ratio)},{tail}"
        for res, (a, tail) in zip(results, classes)
    ]


def _cmd_scan(args: argparse.Namespace) -> str | list[dict]:
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
    q_tasks = [(q, policy, args.seed) for q in compress(q_window, flags)]
    # More processes than q tasks or cores would only wait.
    workers = min(args.workers, len(q_tasks), os.cpu_count() or 1)
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        # map yields in task order and raises the error of the first failing
        # task in order, as the serial loop does, not of the first chunk to
        # finish.  A worker that dies raises BrokenProcessPool (exit 3)
        # rather than leaving scan waiting for its results.
        run = partial(pool.map, chunksize=len(q_tasks) // (4 * workers) + 1) if pool else map
        per_q = list(run(_scan_classes, q_tasks))
        # x in the outer loop: every q of one x reads the same squarefree
        # table, and the rows come out in (X, q, a) order.
        row_tasks = [(x, m, classes) for x in x_values for m, classes in per_q if m.q <= x]
        lines = [line for chunk in run(_scan_rows, row_tasks) for line in chunk]
    finally:
        if pool:
            # After an error the tasks not yet started are dropped.
            pool.shutdown(cancel_futures=True)

    lines = lines[args.start_row :]
    if args.format == "json":
        keys = CSV_HEADER.split(",")
        return [dict(zip(keys, line.split(","))) for line in lines]
    return "\n".join([CSV_HEADER, *lines]) + "\n"


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
    return report.as_dict()


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
        # The anchor choices are defined for RHO_MIN <= rho < 1 only.
        choice = verify_choices(result.theta) if RHO_MIN <= result.theta < 1 else None
        payload.update(
            {
                "slack_at_theta": {k: str(v) for k, v in result.slack_at_theta.items()},
                "corollary_exponent": str(corollary_exponent(result.theta))
                if 0 < result.theta < 1
                else None,
                "anchor_checks": {
                    "rho": str(choice.rho),
                    "m0_exponent": str(choice.m0_exponent),
                    "n0_exponent": str(choice.n0_exponent),
                    "m0_floored": choice.m0_floored,
                    "all_passed": choice.all_passed,
                    "checks": [
                        {"label": c.label, "passed": c.passed, "detail": c.detail}
                        for c in choice.checks
                    ],
                }
                if choice is not None
                else None,
            }
        )
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
