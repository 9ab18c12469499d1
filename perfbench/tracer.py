"""Per-layer spans and counters, recorded from outside the program.

`Tracer.install()` wraps public functions of the six `sqflab` modules and
rebinds every `sqflab` module attribute that refers to them, because the
modules import functions by name.  Layer-entry functions get a span (name,
start, end, parent); hot inner functions get a counter only, so their time
is charged to the span that called them.  `uninstall()` restores the
originals.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
from collections import Counter
from time import perf_counter
from typing import Any, Callable, Iterable

LAYERS = (
    "arith_core",
    "progression_stats",
    "congruence_count",
    "decomposition_pipeline",
    "exponent_calculus",
    "cli_runner",
)

# Layer-entry functions: each call is a span charged to its module's layer.
SPANS: dict[str, tuple[str, ...]] = {
    "arith_core": ("primes_up_to", "squarefree_flags", "mobius_sieve", "mobius_segment", "factor_modulus"),
    "progression_stats": (
        "error_term", "reference_ratio", "squarefree_count_ap", "squarefree_count_coprime",
        "least_squarefree", "squarefree_moduli",
    ),
    "congruence_count": ("count_box", "class_count", "count_dyadic", "check_symmetry", "evaluate_bounds", "scan_boxes"),
    "decomposition_pipeline": (
        "pipeline_report", "decompose_error", "tail_split", "covering_boxes", "enumerate_boxes",
        "default_anchor_choices",
    ),
    "exponent_calculus": (
        "compute_theta", "verify_choices", "parse_term_menu", "corollary_exponent", "sup_box_exponent",
        "best_alpha", "region_constraints", "anchor_exponents",
    ),
    "cli_runner": ("main", "build_parser"),
}

# Hot inner functions: (module whose namespace is patched, function, counter).
# None patches every sqflab namespace that binds the function.
COUNTERS: tuple[tuple[str | None, str, str], ...] = (
    (None, "is_squarefree", "arith_core.is_squarefree_calls"),
    ("congruence_count", "power_roots", "congruence_count.root_solves"),
    ("decomposition_pipeline", "discrepancy", "decomposition_pipeline.term_evals"),
    ("decomposition_pipeline", "count_coprime", "decomposition_pipeline.term_evals"),
    ("exponent_calculus", "_vertex_forms", "exponent_calculus.vertex_solves"),
)


def _arg(args: tuple, kwargs: dict, i: int, name: str) -> Any:
    return args[i] if len(args) > i else kwargs[name]


def _n_visited(query: Any) -> int:
    """Integers n that class_count walks for one box, from the query alone."""
    if query.dyadic:
        return max(math.floor(2 * query.n_bound) - max(math.floor(query.n_bound), 0), 0)
    return max(math.floor(query.n_bound), 0)


class Tracer:
    """Spans of the current request plus counters and self times over all requests."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [layer, name, parent index or -1, start, end]
        self._stack: list[int] = []
        self.counters: Counter[str] = Counter()
        self.self_s: Counter[str] = Counter()
        self.covered_s = 0.0
        self._triples: set = set()
        self._undo: list[tuple[Any, str, Any]] = []

    # -- hooks computed from arguments ------------------------------------

    def _sieve(self, n_bytes: int) -> None:
        self.counters["arith_core.sieve_calls"] += 1
        self.counters["arith_core.sieve_bytes"] += max(n_bytes, 0)

    def _on_call(self, name: str, args: tuple, kwargs: dict) -> None:
        c = self.counters
        if name == "squarefree_flags" or name == "mobius_segment":
            self._sieve(_arg(args, kwargs, 1, "length"))
        elif name == "mobius_sieve":
            self._sieve(_arg(args, kwargs, 0, "limit"))
        elif name == "primes_up_to":
            self._sieve(_arg(args, kwargs, 0, "n") + 1)
        elif name == "error_term":
            modulus = _arg(args, kwargs, 1, "modulus")
            c["progression_stats.error_term_calls"] += 1
            self._triples.add((_arg(args, kwargs, 0, "x"), modulus.q, _arg(args, kwargs, 2, "a") % modulus.q))
        elif name == "count_box":
            c["congruence_count.boxes_counted"] += 1
            c["congruence_count.n_visited"] += _n_visited(_arg(args, kwargs, 0, "query"))
        elif name == "compute_theta":
            c["exponent_calculus.theta_solves"] += 1

    def _on_return(self, name: str, result: Any) -> None:
        if name in ("covering_boxes", "enumerate_boxes"):
            self.counters["decomposition_pipeline.boxes"] += len(result)

    # -- wrappers -----------------------------------------------------------

    def _span(self, layer: str, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._on_call(name, args, kwargs)
            parent = stack[-1] if stack else -1
            record = [layer, name, parent, perf_counter(), 0.0]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if parent < 0 or spans[parent][0] != layer:
                    self.counters[f"{layer}.errors"] += 1
                raise
            finally:
                record[4] = perf_counter()
                stack.pop()
            self._on_return(name, result)
            return result

        return wrapper

    def _count(self, key: str, fn: Callable) -> Callable:
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Rebind the wrapped functions in every loaded sqflab namespace."""
        for layer in LAYERS:
            importlib.import_module(f"sqflab.{layer}")
        namespaces = [m for n, m in sys.modules.items() if n == "sqflab" or n.startswith("sqflab.")]
        wrappers: dict[Any, Callable] = {}
        for layer, names in SPANS.items():
            module = sys.modules[f"sqflab.{layer}"]
            for name in names:
                fn = getattr(module, name)
                wrappers[fn] = self._span(layer, name, fn)
        self._rebind(namespaces, wrappers)
        for where, name, key in COUNTERS:
            targets = namespaces if where is None else [sys.modules[f"sqflab.{where}"]]
            fn = next(vars(m)[name] for m in targets if name in vars(m))
            self._rebind(targets, {fn: self._count(key, fn)})

    def _rebind(self, namespaces: Iterable[Any], wrappers: dict[Any, Callable]) -> None:
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                if callable(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])
                    self._undo.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._undo):
            setattr(module, attr, value)
        self._undo.clear()

    # -- per-request aggregation -------------------------------------------

    def end_request(self) -> None:
        """Fold the current request's spans into the totals and drop them."""
        for layer, s in self_times(self.spans).items():
            self.self_s[layer] += s
        self.covered_s += covered_time(self.spans)
        self.counters["progression_stats.error_term_distinct"] += len(self._triples)
        self._triples.clear()
        self.spans.clear()


def self_times(spans: Iterable[list]) -> dict[str, float]:
    """Per-layer self time: each span's duration minus the durations of its children."""
    spans = list(spans)
    out: dict[str, float] = {}
    for layer, _, parent, start, end in spans:
        out[layer] = out.get(layer, 0.0) + (end - start)
        if parent >= 0:
            parent_layer = spans[parent][0]
            out[parent_layer] = out.get(parent_layer, 0.0) - (end - start)
    return out


def covered_time(spans: list[list]) -> float:
    """Time inside the spans that a root span (cli_runner.main) calls directly.

    What is left of the root is main's own work outside build_parser and the
    layers: argument parsing and the command bodies.  A layer function left
    unwrapped would show up there, so this is the figure that span coverage
    is checked on.
    """
    return sum(end - start for _, _, parent, start, end in spans if parent >= 0 and spans[parent][2] < 0)
