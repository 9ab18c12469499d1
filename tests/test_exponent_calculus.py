"""Exact rational optimizer checks: interpolation weight, vertex LP, theta."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sqflab.exponent_calculus import (
    BLEND,
    COROLLARY,
    DEFAULT_MENU,
    THETA,
    MENUS,
    ONE_SIDED_MENU,
    AlphaInfeasibleError,
    ExponentForm,
    InfeasibleError,
    LinearConstraint,
    UnboundedError,
    anchor_exponents,
    best_alpha,
    compute_theta,
    corollary_exponent,
    lower_bound_m,
    lower_bound_n,
    parse_term_menu,
    region_constraints,
    sup_box_exponent,
    verify_choices,
)


def test_best_alpha_amplification_pair():
    res = best_alpha((F(2, 3), F(1, 4)), (F(1, 4), F(2, 3)))
    assert res.alpha == F(2, 15)
    assert res.exponent == F(11, 36)
    assert BLEND == res
    assert DEFAULT_MENU[0].coeff_x == BLEND.exponent


def test_best_alpha_simple_pair():
    res = best_alpha((1, 0), (0, 1))
    assert res.alpha == F(1, 3)
    assert res.exponent == F(1, 3)


def test_best_alpha_degenerate_and_infeasible():
    res = best_alpha((F(1, 3), F(1, 3)), (F(1, 3), F(1, 3)))
    assert res.alpha == F(1, 2)
    with pytest.raises(AlphaInfeasibleError):
        best_alpha((1, 0), (1, 1))  # would need alpha = -1
    with pytest.raises(AlphaInfeasibleError):
        best_alpha((1, 3), (0, 1))  # blend shape constant and wrong


def test_best_alpha_resubstitution_random():
    rng = random.Random(13)
    hits = 0
    while hits < 25:
        pair1 = (F(rng.randrange(-8, 9), 12), F(rng.randrange(-8, 9), 12))
        pair2 = (F(rng.randrange(-8, 9), 12), F(rng.randrange(-8, 9), 12))
        try:
            res = best_alpha(pair1, pair2)
        except AlphaInfeasibleError:
            continue
        hits += 1
        a = res.alpha
        e = a * pair1[0] + (1 - a) * pair2[0]
        f = a * pair1[1] + (1 - a) * pair2[1]
        if pair1 != pair2:
            assert f == 2 * e
            assert res.exponent == e


def form(cx, cr=0, label=""):
    return ExponentForm(F(cx), F(cr), label)


def box_constraints(m_lo, n_lo, extras=()):
    cons = [
        lower_bound_m(form(m_lo, label="m-anchor")),
        lower_bound_n(form(n_lo, label="n-anchor")),
        LinearConstraint(F(1), F(2), form(1, label="volume"), "volume-cap"),
    ]
    cons.extend(extras)
    return cons


def test_sup_box_exponent_volume_objective():
    # Objective proportional to (1, 2) saturates the volume facet exactly.
    rho = F(25, 36)
    m0, n0, _ = anchor_exponents(rho)
    res = sup_box_exponent(F(11, 36), F(22, 36), region_constraints(m0, n0), rho)
    assert (res.coeff_x, res.coeff_rho) == (F(11, 36), F(0))


def test_sup_box_exponent_single_facet():
    rho = F(2, 3)
    cons = box_constraints(
        0, 0, extras=[LinearConstraint(F(1), F(0), form(0, F(3, 4)), "amp-range")]
    )
    res = sup_box_exponent(1, 0, cons, rho)
    assert res.value_at(rho) == F(3, 4) * rho
    assert (res.coeff_x, res.coeff_rho) == (F(0), F(3, 4))


def test_sup_box_exponent_against_dense_grid():
    rng = random.Random(14)
    step = F(1, 64)
    for _ in range(50):
        m0 = F(rng.randrange(0, 20), 96)
        n0 = F(rng.randrange(0, 20), 96)
        extras = []
        if rng.random() < 0.5:
            extras.append(
                LinearConstraint(F(1), F(0), form(F(rng.randrange(40, 96), 96)), "m-cap")
            )
        cons = box_constraints(m0, n0, extras)
        cm = F(rng.randrange(-4, 9), 6)
        cn = F(rng.randrange(-4, 9), 6)
        rho = F(rng.randrange(50, 99), 100)
        try:
            res = sup_box_exponent(cm, cn, cons, rho)
        except InfeasibleError:
            # verify the grid also finds nothing
            feasible_grid = [
                (m, n)
                for m in _grid(step)
                for n in _grid(step)
                if _feasible(cons, m, n, rho)
            ]
            assert not feasible_grid
            continue
        lp_value = res.value_at(rho)
        grid_best = None
        for m in _grid(step):
            for n in _grid(step):
                if _feasible(cons, m, n, rho):
                    val = cm * m + cn * n
                    if grid_best is None or val > grid_best:
                        grid_best = val
        assert grid_best is not None
        assert grid_best <= lp_value  # grid points are feasible, LP is the sup
        # rounding a vertex onto the grid moves each coordinate by O(step)
        assert lp_value - grid_best <= (abs(cm) + abs(cn) + 1) * 4 * step


def _grid(step):
    out = []
    v = F(0)
    while v <= 1:
        out.append(v)
        v += step
    return out


def _feasible(cons, m, n, rho):
    return all(c.coeff_m * m + c.coeff_n * n <= c.bound.value_at(rho) for c in cons)


def test_sup_box_exponent_empty_and_unbounded():
    rho = F(3, 4)
    with pytest.raises(InfeasibleError):
        sup_box_exponent(1, 0, box_constraints(F(3, 4), F(1, 2)), rho)
    unbounded = [
        lower_bound_m(form(0)),
        lower_bound_n(form(0)),
    ]
    with pytest.raises(UnboundedError):
        sup_box_exponent(1, 1, unbounded, rho)
    with pytest.raises(UnboundedError):
        sup_box_exponent(1, 0, [], rho)


def _reference_vertex_forms(ci, cj):
    """The Fraction vertex solve that sup_box_exponent used before its integer search."""
    det = ci.coeff_m * cj.coeff_n - ci.coeff_n * cj.coeff_m
    if det == 0:
        return None
    m_form = ci.bound.scaled(cj.coeff_n / det).plus(
        cj.bound.scaled(-ci.coeff_n / det), label="m*"
    )
    n_form = cj.bound.scaled(ci.coeff_m / det).plus(
        ci.bound.scaled(-cj.coeff_m / det), label="n*"
    )
    return m_form, n_form


def _reference_sup_box_exponent(coeff_m, coeff_n, constraints, rho):
    """sup_box_exponent in Fraction arithmetic, every vertex solved as forms."""
    coeff_m = F(coeff_m)
    coeff_n = F(coeff_n)
    rho = F(rho)
    if not constraints:
        raise UnboundedError("no constraints given")

    bound_values = [c.bound.value_at(rho) for c in constraints]

    def feasible(m_val, n_val):
        return all(
            c.coeff_m * m_val + c.coeff_n * n_val <= bv
            for c, bv in zip(constraints, bound_values)
        )

    best_value = None
    best_form = None
    for i in range(len(constraints)):
        for j in range(i + 1, len(constraints)):
            forms = _reference_vertex_forms(constraints[i], constraints[j])
            if forms is None:
                continue
            m_form, n_form = forms
            m_val = m_form.value_at(rho)
            n_val = n_form.value_at(rho)
            if not feasible(m_val, n_val):
                continue
            value = coeff_m * m_val + coeff_n * n_val
            if best_value is None or value > best_value:
                best_value = value
                best_form = m_form.scaled(coeff_m).plus(
                    n_form.scaled(coeff_n),
                    label=f"box-supremum[{constraints[i].label or i}&{constraints[j].label or j}]",
                )
    if best_form is None:
        raise InfeasibleError("constraint region is empty or has no vertex")

    dirs = []
    for c in constraints:
        dirs.append((-c.coeff_n, c.coeff_m))
        dirs.append((c.coeff_n, -c.coeff_m))
        dirs.append((-c.coeff_m, -c.coeff_n))
    for d_m, d_n in dirs:
        if (d_m, d_n) == (0, 0):
            continue
        if all(c.coeff_m * d_m + c.coeff_n * d_n <= 0 for c in constraints):
            if coeff_m * d_m + coeff_n * d_n > 0:
                raise UnboundedError(
                    f"objective unbounded along direction ({d_m}, {d_n})"
                )
    return best_form


def _outcome(search, *args):
    try:
        return search(*args)
    except (InfeasibleError, UnboundedError) as exc:
        return type(exc), str(exc)


# Small numerators over a few denominators: parallel and repeated facets,
# empty regions and unbounded objectives all come up often.  The facets of
# the box region are drawn too, so that bounded regions do.
_rationals = st.builds(F, st.integers(-4, 4), st.sampled_from([1, 2, 3, 7, 12]))
_forms = st.builds(ExponentForm, _rationals, _rationals)
_constraints = st.lists(
    st.one_of(
        st.builds(LinearConstraint, _rationals, _rationals, _forms, st.sampled_from(["", "a"])),
        st.builds(lower_bound_m, _forms),
        st.builds(lower_bound_n, _forms),
        st.builds(LinearConstraint, st.just(1), st.just(2), _forms, st.just("volume-cap")),
    ),
    max_size=5,
)


@settings(max_examples=400, deadline=None)
@given(_rationals, _rationals, _constraints, _rationals)
@example(1, 1, [lower_bound_m(form(0)), lower_bound_n(form(0))], F(1, 2))  # unbounded
@example(1, 0, box_constraints(F(3, 4), F(1, 2)), F(3, 4))  # empty
@example(  # parallel facets, one of them redundant
    0, 1, box_constraints(0, 0, [LinearConstraint(2, 4, form(3), "wide")]), F(2, 3)
)
@example(1, 2, box_constraints(0, 0), F(1, 2))  # a tie along the volume facet
def test_sup_box_exponent_matches_the_fraction_search(coeff_m, coeff_n, constraints, rho):
    expected = _outcome(_reference_sup_box_exponent, coeff_m, coeff_n, constraints, rho)
    assert _outcome(sup_box_exponent, coeff_m, coeff_n, constraints, rho) == expected


def test_compute_theta_reproduces_target_menu():
    res = compute_theta(DEFAULT_MENU)
    assert res.feasible
    assert res.theta == F(25, 36)
    assert THETA == F(25, 36)
    assert COROLLARY == F(36, 25)
    assert res.binding_constraint == "box-supremum"
    assert res.slack_at_theta["box-supremum"] == 0
    assert all(v >= 0 for v in res.slack_at_theta.values())


def test_compute_theta_simple_cases():
    assert compute_theta([form(0, 0, "const")]).theta == 1
    solo = compute_theta([form(F(1, 2), F(-3, 8), "solo")])
    assert solo.theta == F(4, 5)
    infeasible = compute_theta([form(2, 0, "too-big")])
    assert not infeasible.feasible and infeasible.theta is None


def test_compute_theta_monotone_under_added_terms():
    rng = random.Random(15)
    base = list(DEFAULT_MENU)
    theta = compute_theta(base).theta
    for i in range(30):
        extra = ExponentForm(
            F(rng.randrange(0, 30), 24), F(rng.randrange(-24, 25), 24), f"extra{i}"
        )
        res = compute_theta(base + [extra])
        if res.feasible:
            assert res.theta <= theta


def test_compute_theta_strict_below_theta():
    res = compute_theta(DEFAULT_MENU)
    target = ExponentForm(F(1), F(-1))
    rng = random.Random(16)
    for _ in range(20):
        rho = res.theta - F(rng.randrange(1, 50), 500)
        if rho < F(1, 2):
            continue
        for term in DEFAULT_MENU:
            assert term.value_at(rho) < target.value_at(rho)


def test_one_sided_menu_theta():
    res = compute_theta(ONE_SIDED_MENU)
    assert res.theta == F(28, 45)
    assert res.binding_constraint == "box-supremum-one-sided"
    # Derived at import from sup_box_exponent, not written out.
    assert (ONE_SIDED_MENU[0].coeff_x, ONE_SIDED_MENU[0].coeff_rho) == (F(1, 8), F(13, 32))
    # its supremum term matches a fresh vertex computation at sample rho
    for rho in (F(1, 2), F(3, 5), F(28, 45), F(9, 10)):
        n0 = F(1, 2) - F(3, 8) * rho
        cons = [
            lower_bound_m(form(0, label="m-floor")),
            lower_bound_n(ExponentForm(F(1, 2), F(-3, 8), "n-floor")),
            LinearConstraint(F(1), F(2), form(1), "volume-cap"),
            LinearConstraint(F(1), F(0), form(0, F(3, 4)), "amp-range"),
        ]
        sup = sup_box_exponent(F(2, 3), F(1, 4), cons, rho)
        menu_term = ONE_SIDED_MENU[0]
        assert sup.value_at(rho) == menu_term.value_at(rho), rho


def test_corollary_exponent():
    assert corollary_exponent(F(25, 36)) == F(36, 25)
    assert corollary_exponent(F(2, 3)) == F(3, 2)
    assert corollary_exponent(F(9, 13)) == F(13, 9)
    for bad in (0, 1, 2):
        with pytest.raises(ValueError):
            corollary_exponent(bad)


def test_verify_choices_at_key_rhos():
    rep = verify_choices(F(25, 36))
    assert rep["all_passed"]
    assert rep["m0_floored"]  # 25/36 > 2/3, the constant floor is active
    assert rep["n0_exponent"] == F(23, 96)

    half = verify_choices(F(1, 2))
    assert half["all_passed"]
    assert not half["m0_floored"]
    assert half["n0_exponent"] == F(5, 16)
    assert half["m0_exponent"] == F(1, 4)

    boundary = verify_choices(F(2, 3))
    assert boundary["all_passed"] and not boundary["m0_floored"]
    near_one = verify_choices(F(99, 100))
    assert near_one["m0_floored"] and near_one["all_passed"]

    with pytest.raises(ValueError):
        verify_choices(F(1, 4))
    with pytest.raises(ValueError):
        verify_choices(F(1))


def test_parse_term_menu():
    text = """
    # comment line
    box-supremum 11/36 0
    m-anchor 1 -3/2   # trailing comment
    n-anchor 1/2 -3/8
    """
    terms = parse_term_menu(text)
    assert [t.label for t in terms] == ["box-supremum", "m-anchor", "n-anchor"]
    assert terms == list(DEFAULT_MENU)
    assert compute_theta(terms).theta == F(25, 36)
    with pytest.raises(ValueError):
        parse_term_menu("just-two-fields 1/2")
    with pytest.raises(ValueError):
        parse_term_menu("# nothing here")
    with pytest.raises(ValueError, match="^line 2: "):
        parse_term_menu("ok 1 0\nt0 1/0 1")
    with pytest.raises(ValueError, match="^line 1: "):
        parse_term_menu("t0 one 1")


def test_menu_registry():
    assert set(MENUS) == {"default", "one-sided"}
