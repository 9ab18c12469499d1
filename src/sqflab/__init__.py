"""Exact computational toolkit for squarefree numbers in arithmetic progressions.

Everything that can be an integer or a rational is one: counts are exact,
error terms are `fractions.Fraction`, and the exponent optimizer works in
rational arithmetic end to end.  Floating point appears only in bound
envelopes and monitoring ratios, where it is clearly labelled.
"""

from sqflab.arith_core import (
    InvariantError,
    Modulus,
    NotCoprimeError,
    NotSquarefreeError,
    factor_modulus,
    is_squarefree,
    mobius_segment,
    mobius_sieve,
    primes_up_to,
    squarefree_flags,
)
from sqflab.progression_stats import (
    ErrorTermResult,
    count_ap,
    count_coprime,
    discrepancy,
    error_term,
    error_terms,
    least_squarefree,
    reference_ratio,
    squarefree_count_ap,
    squarefree_count_coprime,
)
from sqflab.congruence_count import (
    BoundReport,
    BoxQuery,
    check_symmetry,
    count_box,
    count_dyadic,
    evaluate_bounds,
    scan_boxes,
)
from sqflab.decomposition_pipeline import (
    PipelineReport,
    covering_boxes,
    decompose_error,
    default_anchor_choices,
    enumerate_boxes,
    pipeline_report,
    small_m_estimate,
    tail_split,
)
from sqflab.exponent_calculus import (
    ExponentForm,
    LinearConstraint,
    ThetaResult,
    best_alpha,
    compute_theta,
    corollary_exponent,
    sup_box_exponent,
    verify_choices,
)

__version__ = "0.1.0"
