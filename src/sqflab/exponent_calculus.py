"""Exact-rational exponent bookkeeping and the distribution-exponent optimizer.

Sizes are tracked as X^cx * q^cr with rational cx, cr.  Writing q = X^rho
turns every bound of the analysis into a linear form in rho, every region
condition into a linear inequality over the normalized box exponents
(m, n) = (log_X M, log_X N), and the final optimization into exact rational
arithmetic: no floats, no tolerances.

Epsilon-sized factors (q^eps and friends) carry exponent zero here; they
live in the strict-inequality slack that the optimizer reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from sqflab.arith_core import InvariantError

RationalLike = Fraction | int | str


class InfeasibleError(ValueError):
    """The constraint region admits no point (or no vertex to optimize at)."""


class UnboundedError(ValueError):
    """The objective grows without bound over the region."""


class AlphaInfeasibleError(ValueError):
    """No interpolation weight in (0, 1) achieves the requested shape."""


def _frac(value: RationalLike) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


@dataclass(frozen=True)
class ExponentForm:
    """Growth exponent of a term, as a linear form coeff_x + coeff_rho * rho.

    Represents a size X^coeff_x * q^coeff_rho; with q = X^rho the overall
    X-exponent is value_at(rho).  Adding forms multiplies the sizes they
    stand for.
    """

    coeff_x: Fraction
    coeff_rho: Fraction
    label: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeff_x", _frac(self.coeff_x))
        object.__setattr__(self, "coeff_rho", _frac(self.coeff_rho))

    def value_at(self, rho: Fraction) -> Fraction:
        return self.coeff_x + self.coeff_rho * _frac(rho)

    def plus(self, other: "ExponentForm", label: str | None = None) -> "ExponentForm":
        return ExponentForm(
            self.coeff_x + other.coeff_x,
            self.coeff_rho + other.coeff_rho,
            label if label is not None else self.label,
        )

    def scaled(self, k: RationalLike) -> "ExponentForm":
        k = _frac(k)
        return ExponentForm(self.coeff_x * k, self.coeff_rho * k, self.label)


ZERO_FORM = ExponentForm(Fraction(0), Fraction(0), "one")

# The analysis exponents, read by every other module; BLEND, DEFAULT_MENU,
# THETA and COROLLARY are derived from them below.  AMPLIFICATION_MN is
# (e, f) of the amplification bound M^e * N^f, whose swap is the other
# orientation; it holds for M <= q^AMPLIFICATION_RANGE.  RHO_MIN is the
# lower end of the rho domain on which the anchor choices are defined.
# The anchors are the sizes of m0 and n0 up to their constant factor 2.
AMPLIFICATION_MN = (Fraction(2, 3), Fraction(1, 4))
AMPLIFICATION_RANGE = Fraction(3, 4)
RHO_MIN = Fraction(1, 2)
M_ANCHOR = ExponentForm(Fraction(1), Fraction(-3, 2), "m-anchor")
N_ANCHOR = ExponentForm(Fraction(1, 2), Fraction(-3, 8), "n-anchor")
EQUIDISTRIBUTION_TARGET = ExponentForm(Fraction(1), Fraction(-1), "equidistribution-target")


@dataclass(frozen=True)
class AlphaResult:
    """Interpolation weight and the resulting uniform exponent of M*N^2."""

    alpha: Fraction
    exponent: Fraction


def best_alpha(
    pair1: tuple[RationalLike, RationalLike],
    pair2: tuple[RationalLike, RationalLike],
) -> AlphaResult:
    """Weight alpha making the endpoint blend a pure power of M*N^2.

    Endpoints are (M-exponent, N-exponent) pairs; the blended bound has
    M-exponent E(a) = a*e1 + (1-a)*e2 and N-exponent F(a) likewise, and we
    solve F(a) = 2*E(a) so the bound collapses to (M*N^2)^E(a).  Identical
    endpoints make the blend constant; by convention alpha = 1/2 is
    returned with the shared M-exponent.
    """
    e1, f1 = map(_frac, pair1)
    e2, f2 = map(_frac, pair2)
    if (e1, f1) == (e2, f2):
        return AlphaResult(alpha=Fraction(1, 2), exponent=e1)
    denom = (f1 - f2) - 2 * (e1 - e2)
    num = 2 * e2 - f2
    if denom == 0:
        if num == 0:
            # Every alpha works; blend at the midpoint.
            alpha = Fraction(1, 2)
        else:
            raise AlphaInfeasibleError(
                f"no interpolation of {pair1} and {pair2} is a power of M*N^2"
            )
    else:
        alpha = num / denom
        if not 0 < alpha < 1:
            raise AlphaInfeasibleError(
                f"required weight {alpha} falls outside (0, 1)"
            )
    exponent = alpha * e1 + (1 - alpha) * e2
    # The defining equation must hold on re-substitution.
    if alpha * f1 + (1 - alpha) * f2 != 2 * exponent:
        raise InvariantError(f"weight {alpha} does not solve F(alpha) = 2*E(alpha)")
    return AlphaResult(alpha=alpha, exponent=exponent)


@dataclass(frozen=True)
class LinearConstraint:
    """coeff_m * m + coeff_n * n <= bound(x, rho)."""

    coeff_m: Fraction
    coeff_n: Fraction
    bound: ExponentForm
    label: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeff_m", _frac(self.coeff_m))
        object.__setattr__(self, "coeff_n", _frac(self.coeff_n))


# Every box has M*N^2 <= X: m + 2n <= 1 at exponent level.
VOLUME_CAP = LinearConstraint(1, 2, ExponentForm(1, 0, "volume"), "volume-cap")


def lower_bound_m(form: ExponentForm) -> LinearConstraint:
    """m >= form, written as -m <= -form."""
    return LinearConstraint(Fraction(-1), Fraction(0), form.scaled(-1), "m-floor")


def lower_bound_n(form: ExponentForm) -> LinearConstraint:
    return LinearConstraint(Fraction(0), Fraction(-1), form.scaled(-1), "n-floor")


def _vertex_forms(
    ci: LinearConstraint,
    cj: LinearConstraint,
    coeff_m: Fraction,
    coeff_n: Fraction,
    label: str,
) -> ExponentForm:
    """coeff_m * m + coeff_n * n at the meeting point of two facet lines that are not parallel.

    By Cramer's rule the point's m and n are each a weighted sum of the two
    bound forms, so the objective there is one weighted sum of them too.
    """
    det = ci.coeff_m * cj.coeff_n - ci.coeff_n * cj.coeff_m
    w_i = (coeff_m * cj.coeff_n - coeff_n * cj.coeff_m) / det
    w_j = (coeff_n * ci.coeff_m - coeff_m * ci.coeff_n) / det
    bi, bj = ci.bound, cj.bound
    return ExponentForm(
        w_i * bi.coeff_x + w_j * bj.coeff_x, w_i * bi.coeff_rho + w_j * bj.coeff_rho, label
    )


def _integer_row(a: Fraction, b: Fraction, c: Fraction) -> tuple[int, int, int, int]:
    """(a*L, b*L, c*L, L) for L the least common multiple of the denominators."""
    scale = lcm(a.denominator, b.denominator, c.denominator)
    return (
        a.numerator * (scale // a.denominator),
        b.numerator * (scale // b.denominator),
        c.numerator * (scale // c.denominator),
        scale,
    )


def sup_box_exponent(
    coeff_m: RationalLike,
    coeff_n: RationalLike,
    constraints: Sequence[LinearConstraint],
    rho: RationalLike,
) -> ExponentForm:
    """Maximize coeff_m * m + coeff_n * n over a polygon, in exact rationals.

    Constraint right sides are exponent forms evaluated at the given rho
    (with x normalized to 1); vertices are enumerated by intersecting facet
    pairs, so the returned maximum is itself a form in (x, rho) rather than
    a bare number.  Raises on empty regions and on objectives that escape
    along a recession direction.

    Each row a*m + b*n <= c, and the objective, is multiplied by the least
    common multiple of its denominators.  The factor is positive, so every
    comparison below is the rational one, made on integers; only the
    objective at the winning vertex is solved as a form.
    """
    coeff_m = _frac(coeff_m)
    coeff_n = _frac(coeff_n)
    rho = _frac(rho)
    if not constraints:
        raise UnboundedError("no constraints given")

    rows = [_integer_row(c.coeff_m, c.coeff_n, c.bound.value_at(rho)) for c in constraints]
    obj_m, obj_n, _, _ = _integer_row(coeff_m, coeff_n, Fraction(0))

    # The first vertex of greatest objective: (objective * det, det, i, j),
    # with det > 0; the objective's own scale is common to every vertex.
    best: tuple[int, int, int, int] | None = None
    for i, (a_i, b_i, c_i, _) in enumerate(rows):
        for j in range(i + 1, len(rows)):
            a_j, b_j, c_j, _ = rows[j]
            det = a_i * b_j - b_i * a_j
            if det == 0:
                continue
            # The vertex is (m_num / det, n_num / det).
            m_num = c_i * b_j - c_j * b_i
            n_num = a_i * c_j - a_j * c_i
            if det < 0:
                det, m_num, n_num = -det, -m_num, -n_num
            if any(a * m_num + b * n_num > c * det for a, b, c, _ in rows):
                continue
            value = obj_m * m_num + obj_n * n_num
            if best is None or value * best[1] > best[0] * det:
                best = (value, det, i, j)
    if best is None:
        raise InfeasibleError("constraint region is empty or has no vertex")

    # Candidate extreme rays of {d : A d <= 0}; covers pointed cones and
    # half-planes.  A ray of a row scaled by L is that row's ray times L.
    for a_k, b_k, _, scale in rows:
        for d_m, d_n in ((-b_k, a_k), (b_k, -a_k), (-a_k, -b_k)):
            if (d_m, d_n) == (0, 0):
                continue
            if all(a * d_m + b * d_n <= 0 for a, b, _, _ in rows):
                if obj_m * d_m + obj_n * d_n > 0:
                    raise UnboundedError(
                        "objective unbounded along direction "
                        f"({Fraction(d_m, scale)}, {Fraction(d_n, scale)})"
                    )

    _, _, i, j = best
    ci, cj = constraints[i], constraints[j]
    return _vertex_forms(
        ci, cj, coeff_m, coeff_n, f"box-supremum[{ci.label or i}&{cj.label or j}]"
    )


@dataclass(frozen=True)
class ThetaResult:
    """Largest admissible rho, with the constraint that stops it.

    For every rho strictly below theta, each term exponent sits strictly
    below the target's; slack_at_theta records the per-term gap at theta
    itself (zero for the binding term).  An infeasible menu has no theta.
    """

    theta: Fraction | None
    binding_constraint: str | None
    slack_at_theta: dict[str, Fraction]

    @property
    def feasible(self) -> bool:
        return self.theta is not None


def compute_theta(
    terms: Sequence[ExponentForm], rho_min: RationalLike = RHO_MIN
) -> ThetaResult:
    """sup of the rho for which every term stays at or below EQUIDISTRIBUTION_TARGET.

    All data are linear in rho, so the feasible set is an interval cut out
    by exact rational endpoints; theta is its upper end (capped at rho = 1,
    where the domain itself closes).
    """
    if not terms:
        raise ValueError("need at least one term")
    target = EQUIDISTRIBUTION_TARGET
    upper = Fraction(1)
    binding: str | None = None
    lower = _frac(rho_min)
    for term in terms:
        slope = term.coeff_rho - target.coeff_rho
        room = target.coeff_x - term.coeff_x
        if slope > 0:
            bound = room / slope
            if bound < upper:
                upper = bound
                binding = term.label
        elif slope < 0:
            lower = max(lower, room / slope)
        elif room < 0:
            return ThetaResult(theta=None, binding_constraint=term.label, slack_at_theta={})
    if lower > upper or lower >= 1:
        return ThetaResult(theta=None, binding_constraint=binding, slack_at_theta={})
    slack = {
        term.label: target.value_at(upper) - term.value_at(upper) for term in terms
    }
    return ThetaResult(
        theta=upper,
        binding_constraint=binding if binding is not None else "rho-domain-cap",
        slack_at_theta=slack,
    )


def corollary_exponent(theta: RationalLike) -> Fraction:
    """Growth exponent of the least squarefree member, 1/theta."""
    theta = _frac(theta)
    if not 0 < theta < 1:
        raise ValueError(f"theta must lie in (0, 1), got {theta}")
    return 1 / theta


# ---------------------------------------------------------------------------
# Anchor choices and their feasibility at the exponent level.

def anchor_exponents(rho: RationalLike) -> tuple[Fraction, Fraction, bool]:
    """(m0, n0) anchor exponents at a given rho, plus the m0 floor flag.

    m0 = max(M_ANCHOR, 0): the max picks up the constant floor once the
    anchor form turns negative.  n0 = N_ANCHOR.
    """
    rho = _frac(rho)
    raw_m0 = M_ANCHOR.value_at(rho)
    floored = raw_m0 < 0
    m0 = max(raw_m0, Fraction(0))
    n0 = N_ANCHOR.value_at(rho)
    return m0, n0, floored


def region_constraints(m0: Fraction, n0: Fraction) -> list[LinearConstraint]:
    """The exponent-level box region: m >= m0, n >= n0 and VOLUME_CAP."""
    return [
        lower_bound_m(ExponentForm(m0, Fraction(0), "m-anchor")),
        lower_bound_n(ExponentForm(n0, Fraction(0), "n-anchor")),
        VOLUME_CAP,
    ]


def verify_choices(rho: RationalLike) -> dict:
    """Check the anchor choices against every side condition they must meet.

    Returns optimize's `anchor_checks` payload: rho, the two anchor
    exponents (exact Fractions), the m0 floor flag, all_passed and the
    checks, each a {label, passed, detail} dict, in the command's order.

    Everything is exact: threshold comparisons, range inclusion, and the
    two box-supremum comparisons against the amplification range
    AMPLIFICATION_RANGE * rho.
    The constant factor 2 in the anchors provides the strict versions of
    the threshold inequalities; at exponent level they appear as >=.
    """
    rho = _frac(rho)
    if not RHO_MIN <= rho < 1:
        raise ValueError(f"rho must lie in [{RHO_MIN}, 1), got {rho}")
    m0, n0, floored = anchor_exponents(rho)
    amp = AMPLIFICATION_RANGE * rho
    amp_label = f"{AMPLIFICATION_RANGE.numerator}*rho/{AMPLIFICATION_RANGE.denominator}"
    checks = []
    for name, value, form, size in (
        ("m", m0, M_ANCHOR, f"X*q^({M_ANCHOR.coeff_rho})"),
        ("n", n0, N_ANCHOR, f"X^({N_ANCHOR.coeff_x})*q^({N_ANCHOR.coeff_rho})"),
    ):
        threshold = form.value_at(rho)
        detail = f"{name}0={value} vs {size} exponent {threshold} (factor 2 gives strictness)"
        checks.append((f"{name}-anchor-exceeds-threshold", value >= threshold, detail))
    # Each anchor's range ends where VOLUME_CAP meets its axis.
    cap = VOLUME_CAP.bound.value_at(rho)
    for name, value, coeff in (("m", m0, VOLUME_CAP.coeff_m), ("n", n0, VOLUME_CAP.coeff_n)):
        top = cap / coeff
        checks.append((f"{name}-anchor-range", 0 <= value <= top, f"need 0 <= {value} <= {top}"))
    constraints = region_constraints(m0, n0)
    for coeffs, name in (((1, 0), "box-m-within-amplification"),
                         ((0, 1), "box-n-within-amplification")):
        try:
            sup_form = sup_box_exponent(coeffs[0], coeffs[1], constraints, rho)
            sup_val = sup_form.value_at(rho)
            checks.append((name, sup_val <= amp, f"sup={sup_val} vs {amp_label}={amp}"))
        except InfeasibleError:
            checks.append((name, False, "region empty"))
    return {
        "rho": rho,
        "m0_exponent": m0,
        "n0_exponent": n0,
        "m0_floored": floored,
        "all_passed": all(passed for _, passed, _ in checks),
        "checks": [
            {"label": label, "passed": passed, "detail": detail}
            for label, passed, detail in checks
        ],
    }


# ---------------------------------------------------------------------------
# Term menus.

# The two amplification orientations blended into a pure power of M*N^2,
# whose supremum over boxes with M*N^2 <= X heads the default menu.
BLEND = best_alpha(AMPLIFICATION_MN, AMPLIFICATION_MN[::-1])
DEFAULT_MENU: tuple[ExponentForm, ...] = (
    ExponentForm(BLEND.exponent, Fraction(0), "box-supremum"),
    M_ANCHOR,
    N_ANCHOR,
)
THETA = compute_theta(DEFAULT_MENU).theta
COROLLARY = corollary_exponent(THETA)

# Single-orientation variant: only the (M, N)-ordered amplification bound is
# available, so the box supremum is its maximum over m >= 0, n >= N_ANCHOR,
# m + 2n <= 1 and m <= AMPLIFICATION_RANGE * rho.  The maximum sits where
# the last three facets meet, (3*rho/4, 1/2-3*rho/8) at every rho, so the
# form found at rho = RHO_MIN holds on the whole domain.  The cross term
# x/(n0*q) over the n-anchor is kept.  This is an exploratory reproduction
# attempt; it tops out at 28/45, short of the 9/13 known from a different
# argument.
_ONE_SIDED_BOX = sup_box_exponent(
    *AMPLIFICATION_MN,
    [
        lower_bound_m(ZERO_FORM),
        lower_bound_n(N_ANCHOR),
        VOLUME_CAP,
        LinearConstraint(1, 0, ExponentForm(0, AMPLIFICATION_RANGE), "amplification-range"),
    ],
    RHO_MIN,
)
ONE_SIDED_MENU: tuple[ExponentForm, ...] = (
    ExponentForm(_ONE_SIDED_BOX.coeff_x, _ONE_SIDED_BOX.coeff_rho, "box-supremum-one-sided"),
    ExponentForm(Fraction(0), Fraction(0), "m-anchor-floor"),
    N_ANCHOR,
    EQUIDISTRIBUTION_TARGET.plus(N_ANCHOR.scaled(-1), label="cross-term"),
)

MENUS: dict[str, tuple[ExponentForm, ...]] = {
    "default": DEFAULT_MENU,
    "one-sided": ONE_SIDED_MENU,
}


def parse_term_menu(text: str) -> list[ExponentForm]:
    """Parse a declarative term menu: one `label coeff_x coeff_rho` per line.

    Blank lines and '#' comments are skipped; coefficients are rationals
    like 7/12 or -5/8.  A malformed line raises ValueError naming its line.
    """
    terms = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(
                f"line {lineno}: expected `label coeff_x coeff_rho`, got {raw!r}"
            )
        label, cx, cr = parts
        try:
            cx, cr = Fraction(cx), Fraction(cr)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"line {lineno}: bad coefficient in {raw!r}: {exc}") from None
        terms.append(ExponentForm(cx, cr, label))
    if not terms:
        raise ValueError("menu contains no terms")
    return terms
