"""Identity verification: residuals, special cases, reports, convergence."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genfrac.funcspec import FuncSpec, parse_expression
from genfrac.identities import (
    convergence_study,
    reports_to_csv,
    verify_green,
    verify_green_rl_corollary,
    verify_ibp_2d,
)
from genfrac import identities, opmatrix
from genfrac.corpus import CORPUS_FUNCTIONS
from genfrac.identities import _moment
from genfrac.opmatrix import clear_matrix_cache, kop_end_rows, kop_matrix
from genfrac.ops1d import OperatorRequest
from genfrac.ops2d import PartialRequest, partial_kop
from genfrac.pset import ParameterSet, standard_left, standard_right
from genfrac.quadrature import (
    _SIGMA_CACHE_SIZE,
    NonFiniteSampleError,
    QuadratureRule,
    Rectangle,
    integrate_2d,
)
from genfrac.specfun import Kernel, KernelFamily, rl_family, rl_kernel, tempered_family

IBP_CONST_BOTH_SIDES = 1.5045055561273500985  # 4 / (3 gamma(3/2))

RECT = Rectangle(0.0, 1.0, 0.0, 1.0)
LEFT1 = standard_left(0.0, 1.0)
RL = rl_family()


def e2(src):
    return parse_expression(src, arity=2)


def test_ibp_constant_case():
    one = e2("1")
    r = verify_ibp_2d(one, one, one, one, 0.5, LEFT1, LEFT1, RL, RECT)
    assert r.lhs == pytest.approx(IBP_CONST_BOTH_SIDES, abs=1e-6)
    assert r.rhs_area == pytest.approx(IBP_CONST_BOTH_SIDES, abs=1e-6)
    assert r.rhs_boundary == 0.0
    assert r.rel_residual <= 1e-10


def test_a_float32_rectangle_end_is_the_float_it_rounds_to():
    # as a p-set's ends are: the rectangle equals and hashes as the float
    # one and gives its report bit for bit, and a p-set on the decimal
    # the float32 came from no longer matches it
    end = np.float32(0.1)
    rect, exact = Rectangle(0, 1, 0, end), Rectangle(0.0, 1.0, 0.0, float(end))
    assert type(rect.b2) is float and rect == exact and hash(rect) == hash(exact)
    specs = (e2("t1*t2"), e2("t1+t2^2"), e2("1+t1*t2"))
    P2 = standard_left(0.0, float(end))
    got, want = (verify_green(*specs, 0.5, LEFT1, P2, RL, r) for r in (rect, exact))
    assert json.dumps(got.to_json_dict()) == json.dumps(want.to_json_dict())
    with pytest.raises(ValueError, match="does not match rectangle axis 2"):
        verify_green(*specs, 0.5, LEFT1, standard_left(0.0, 0.1), RL, rect)


def test_ibp_zero_eta_vacuous():
    zero = e2("0*t1")
    f, g = e2("t1+t2"), e2("t1*t2")
    with pytest.warns(UserWarning, match="vacuous"):
        r = verify_ibp_2d(f, g, zero, zero, 0.5, LEFT1, LEFT1, RL, RECT)
    assert r.lhs == 0.0
    assert r.rhs_area == 0.0
    assert r.abs_residual == 0.0


def test_ibp_on_a_tiny_square_warns_vacuous():
    # the terms underflow to 0 on a square 1e-140 wide, as Green's do
    w = 1e-140
    P = standard_left(0.0, w)
    with pytest.warns(UserWarning, match="all three identity terms are below 1e-12"):
        r = verify_ibp_2d(
            e2("t1+t2"), e2("t1*t2"), e2("t1^2"), e2("t2^2"), 0.5, P, P, RL, Rectangle(0.0, w, 0.0, w)
        )
    assert max(abs(r.lhs), abs(r.rhs_area), abs(r.rhs_boundary)) < 1e-12


def test_ibp_polynomial_corpus_case():
    r = verify_ibp_2d(
        e2("t1+t2"), e2("t1*t2"), e2("t1^2"), e2("t2^2"), 0.5, LEFT1, LEFT1, RL, RECT
    )
    assert r.rel_residual <= 1e-6


def test_ibp_matches_direct_partial_op_integration():
    # the matrix-accelerated engine must agree with literal tensor-product
    # integration over pointwise partial-operator evaluations
    rule = QuadratureRule(order_per_panel=6, panels=4)
    f, g = e2("t1+t2"), e2("t1*t2")
    eta1, eta2 = e2("t1^2"), e2("t2^2")
    alpha = 0.5
    p1 = p2 = LEFT1
    r = verify_ibp_2d(f, g, eta1, eta2, alpha, p1, p2, RL, RECT, rule)

    def kfield(axis, pset, eta):
        req = PartialRequest(axis=axis, base=OperatorRequest("K", alpha, pset, RL, rule))
        return lambda X, Y: np.array(
            [
                [partial_kop(req, eta, float(x), float(y)) for y in np.atleast_1d(Y.ravel())]
                for x in np.atleast_1d(X.ravel())
            ]
        ).reshape(np.broadcast(X, Y).shape)

    lhs_direct = integrate_2d(
        lambda X, Y: g.fn(X, Y) * kfield(1, p1, eta1)(X, Y)
        + f.fn(X, Y) * kfield(2, p2, eta2)(X, Y),
        RECT,
        rule,
    )
    rhs_direct = integrate_2d(
        lambda X, Y: eta1.fn(X, Y) * kfield(1, p1.dual(), g)(X, Y)
        + eta2.fn(X, Y) * kfield(2, p2.dual(), f)(X, Y),
        RECT,
        rule,
    )
    assert r.lhs == pytest.approx(lhs_direct, rel=1e-10)
    assert r.rhs_area == pytest.approx(rhs_direct, rel=1e-10)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_grid_nonfinite_diagnostic_prints_plain_floats():
    num = r"-?\d[\d.e+-]*"
    with pytest.raises(NonFiniteSampleError, match=rf"\(t1, t2\)=\({num}, {num}\)"):
        verify_ibp_2d(
            e2("log(t1-0.5)"), e2("t1"), e2("t2"), e2("t1"), 0.5, LEFT1, LEFT1, RL, RECT
        )


def test_ibp_rejects_mismatched_pset_interval():
    p_bad = standard_left(0.0, 2.0)
    one = e2("1")
    with pytest.raises(ValueError, match="axis 1"):
        verify_ibp_2d(one, one, one, one, 0.5, p_bad, LEFT1, RL, RECT)


def test_green_smooth_case():
    r = verify_green(
        e2("t1+t2"), e2("t1*t2"), e2("sin(t1)*t2"), 0.5, LEFT1, LEFT1, RL, RECT
    )
    assert r.rel_residual <= 1e-4
    fine = verify_green(
        e2("t1+t2"),
        e2("t1*t2"),
        e2("sin(t1)*t2"),
        0.5,
        LEFT1,
        LEFT1,
        RL,
        RECT,
        QuadratureRule(panels=16),
    )
    assert fine.rel_residual <= r.rel_residual


def test_green_zero_eta_warns_vacuous():
    zero = e2("0*t1")
    with pytest.warns(UserWarning, match="vacuous"):
        r = verify_green(e2("t1+t2"), e2("t1*t2"), zero, 0.5, LEFT1, LEFT1, RL, RECT)
    assert r.lhs == 0.0
    assert r.rhs_area == 0.0
    assert r.rhs_boundary == 0.0


def test_green_boundary_vanishing_eta():
    eta = e2("t1*(1-t1)*t2*(1-t2)")
    r = verify_green(e2("t1+t2"), e2("t1*t2"), eta, 0.5, LEFT1, LEFT1, RL, RECT)
    assert abs(r.rhs_boundary) <= 1e-10
    assert r.lhs == pytest.approx(r.rhs_area, rel=1e-6)


def test_green_boundary_term_is_needed():
    # with eta == 1 the area term alone misses by an O(1) amount
    one = e2("1")
    r = verify_green(e2("t1+t2"), e2("t1*t2"), one, 0.5, LEFT1, LEFT1, RL, RECT)
    tol = 1e-4
    two_term = abs(r.lhs - r.rhs_area) / max(abs(r.lhs), abs(r.rhs_area), 1e-14)
    assert two_term > 10.0 * tol
    assert r.rel_residual <= tol


def test_green_mixed_pset_tempered_kernel():
    mixed = ParameterSet(0.0, 1.0, 0.5, 0.5)
    r = verify_green(
        e2("exp(t1-t2)"),
        e2("t2^2+1"),
        e2("exp(t1)*t2"),
        0.75,
        mixed,
        mixed,
        tempered_family(1.0),
        RECT,
    )
    assert r.rel_residual <= 1e-4


def test_green_requires_derivatives():
    f = FuncSpec.from_callable(lambda x, y: x * y, arity=2, label="xy")
    with pytest.raises(ValueError, match="derivative"):
        verify_green(f, e2("t1*t2"), e2("t1+t2"), 0.5, LEFT1, LEFT1, RL, RECT)


def test_green_right_psets_sign_conventions():
    r = verify_green(
        e2("t1+t2"),
        e2("t1*t2"),
        e2("sin(t1)*t2"),
        0.25,
        standard_right(0.0, 1.0),
        standard_right(0.0, 1.0),
        RL,
        RECT,
    )
    assert r.rel_residual <= 1e-4


def test_identities_off_unit_rectangle():
    rect = Rectangle(-1.0, 2.0, 0.5, 3.0)
    p1 = ParameterSet(-1.0, 2.0, 0.5, 0.5)
    p2 = standard_left(0.5, 3.0)
    f, g, eta1, eta2 = (e2(s) for s in ("t1+t2", "t1*t2", "sin(t1)*t2", "t1*cos(t2)"))
    r = verify_ibp_2d(f, g, eta1, eta2, 0.25, p1, p2, tempered_family(0.5), rect)
    assert r.rel_residual <= 1e-5
    gr = verify_green(f, g, eta1, 0.75, p1, p2, tempered_family(0.5), rect)
    assert gr.rel_residual <= 1e-4
    assert abs(gr.rhs_boundary) > 0.1  # the contour term carries real weight here


@pytest.mark.filterwarnings("ignore:all three identity terms")
def test_green_on_a_tiny_rectangle_is_finite_at_every_mesh():
    # at 16x32 the end panels are ~3e-19 wide; the barycentric weights
    # of unscaled node differences overflowed there
    W = 1e-11
    P = ParameterSet(0.0, W, 0.3, 0.7)
    args = (e2("1+t1"), e2("t1*t2"), e2("1+t2"), 0.5, P, P, RL, Rectangle(0.0, W, 0.0, W))
    coarse, fine = (verify_green(*args, QuadratureRule(panels=n)) for n in (8, 32))
    assert all(np.isfinite(_terms(fine)))
    scale = abs(coarse.rhs_area)
    assert _terms(fine) == pytest.approx(_terms(coarse), rel=1e-9, abs=1e-9 * scale)


@pytest.mark.filterwarnings("ignore:all three identity terms")
def test_rel_residual_is_relative_to_the_terms_on_a_tiny_rectangle():
    # the terms are ~1.4e-17 here; an absolute floor of 1e-14 under the
    # denominator made this 2.3e-18
    W = 1e-11
    P = ParameterSet(0.0, W, 0.3, 0.7)
    args = (e2("1+t1"), e2("t1*t2"), e2("1+t2"), 0.5, P, P, RL, Rectangle(0.0, W, 0.0, W))
    r = verify_green(*args, QuadratureRule(panels=32))
    scale = max(abs(r.lhs), abs(r.rhs_area) + abs(r.rhs_boundary))
    assert 1e-17 < scale < 1e-16
    assert r.rel_residual == r.abs_residual / scale
    assert 5e-16 < r.rel_residual < 2e-15


@pytest.mark.filterwarnings("ignore:all three identity terms")
def test_rel_residual_is_zero_only_when_every_term_is():
    zero = e2("0")
    r = verify_green(zero, zero, zero, 0.5, LEFT1, LEFT1, RL, RECT)
    assert (r.lhs, r.rhs_area, r.rhs_boundary, r.rel_residual) == (0.0, 0.0, 0.0, 0.0)


def test_corollary_matches_green_term_by_term():
    for fns in (("t1+t2", "t1*t2", "sin(t1)*t2"), ("exp(t1-t2)", "t2^2+1", "t1^2*t2")):
        for alpha in (0.25, 0.75):
            f, g, eta = (e2(s) for s in fns)
            a = verify_green_rl_corollary(f, g, eta, alpha, RECT)
            b = verify_green(f, g, eta, alpha, LEFT1, LEFT1, RL, RECT)
            assert a.identity == "green_rl_corollary"
            assert abs(a.lhs - b.lhs) <= 1e-12 * max(1.0, abs(b.lhs))
            assert abs(a.rhs_area - b.rhs_area) <= 1e-12 * max(1.0, abs(b.rhs_area))
            assert abs(a.rhs_boundary - b.rhs_boundary) <= 1e-12 * max(
                1.0, abs(b.rhs_boundary)
            )


def test_convergence_study_monotone():
    inputs = {
        "f": e2("t1+t2"),
        "g": e2("t1*t2"),
        "eta": e2("sin(t1)*t2"),
        "alpha": 0.5,
        "p1": LEFT1,
        "p2": LEFT1,
        "kernel": RL,
        "rect": RECT,
    }
    rules = [QuadratureRule(panels=p) for p in (8, 16, 32)]
    reports = convergence_study("green", inputs, rules)
    assert len(reports) == 3
    assert reports[-1].rel_residual <= reports[0].rel_residual
    csv = reports_to_csv(reports)
    lines = csv.strip().splitlines()
    assert lines[0] == "nodes,rel_residual,lhs,rhs_area,rhs_boundary"
    assert [int(ln.split(",")[0]) for ln in lines[1:]] == [128, 256, 512]


def test_convergence_study_zero_eta_all_levels():
    zero = e2("0*t1")
    inputs = {
        "f": e2("t1+t2"),
        "g": e2("t1*t2"),
        "eta": zero,
        "alpha": 0.5,
        "p1": LEFT1,
        "p2": LEFT1,
        "kernel": RL,
        "rect": RECT,
    }
    with pytest.warns(UserWarning, match="vacuous"):
        reports = convergence_study("green", inputs, [QuadratureRule(panels=p) for p in (4, 8)])
    assert all(r.abs_residual == 0.0 for r in reports)


def test_convergence_study_ibp_constant_all_levels():
    one = e2("1")
    inputs = {
        "f": one,
        "g": one,
        "eta1": one,
        "eta2": one,
        "alpha": 0.5,
        "p1": LEFT1,
        "p2": LEFT1,
        "kernel": RL,
        "rect": RECT,
    }
    reports = convergence_study("ibp2d", inputs, [QuadratureRule(panels=p) for p in (8, 16)])
    for r in reports:
        assert r.lhs == pytest.approx(IBP_CONST_BOTH_SIDES, abs=1e-6)
        assert r.rhs_area == pytest.approx(IBP_CONST_BOTH_SIDES, abs=1e-6)


def test_convergence_study_rejects_nonincreasing():
    inputs = {
        "f": e2("t1+t2"),
        "g": e2("t1*t2"),
        "eta1": e2("t1^2"),
        "eta2": e2("t2^2"),
        "alpha": 0.5,
        "p1": LEFT1,
        "p2": LEFT1,
        "kernel": RL,
        "rect": RECT,
    }
    with pytest.raises(ValueError, match="strictly increase"):
        convergence_study("ibp2d", inputs, [QuadratureRule(panels=8), QuadratureRule(panels=8)])
    with pytest.raises(ValueError, match="unknown identity"):
        convergence_study("stokes", inputs, [QuadratureRule(panels=8)])


def test_each_identity_check_reports_under_its_key():
    # genfrac verify and convergence_study read one table of checks; each
    # check's report carries the key it is filed under, and the study's
    # reports are those of the check at each rule
    rule = QuadratureRule(panels=4)
    common = {"f": e2("t1+t2"), "g": e2("t1*t2"), "alpha": 0.5, "rect": RECT}
    inputs = {
        "ibp2d": {**common, "eta1": e2("t1^2"), "eta2": e2("t2^2"),
                  "p1": LEFT1, "p2": LEFT1, "kernel": RL},
        "green": {**common, "eta": e2("1+t1^2"), "p1": LEFT1, "p2": LEFT1, "kernel": RL},
        "green_rl_corollary": {**common, "eta": e2("1+t1^2")},
    }
    assert set(identities.IDENTITY_CHECKS) == set(inputs)
    for key, check in identities.IDENTITY_CHECKS.items():
        report = check(rule=rule, **inputs[key])
        assert report.identity == key
        (study,) = convergence_study(key, inputs[key], [rule])
        assert study.to_json_dict() == report.to_json_dict()


def test_a_numpy_order_gives_a_report_that_serializes():
    # a float32 order used to reach the report as is, and json refused it
    specs = (e2("t1+t2"), e2("t1*t2"), e2("1+t1^2"))
    report = verify_green(*specs, np.float32(0.5), LEFT1, LEFT1, RL, RECT, QuadratureRule(panels=4))
    assert type(report.alpha) is float and report.alpha == 0.5
    assert json.loads(json.dumps(report.to_json_dict()))["alpha"] == 0.5
    ibp = verify_ibp_2d(*specs, e2("t2^2"), np.float64(0.5), LEFT1, LEFT1, RL, RECT)
    assert type(ibp.alpha) is float
    for bad in (True, np.bool_(False), "0.5"):
        with pytest.raises(ValueError, match="alpha must be a finite real"):
            verify_green(*specs, bad, LEFT1, LEFT1, RL, RECT)


def test_report_json_schema():
    r = verify_ibp_2d(
        e2("t1+t2"), e2("t1*t2"), e2("t1^2"), e2("t2^2"), 0.5, LEFT1, LEFT1, RL, RECT
    )
    doc = r.to_json_dict()
    assert set(doc) == {
        "identity",
        "lhs",
        "rhs_area",
        "rhs_boundary",
        "abs_residual",
        "rel_residual",
        "alpha",
        "kernel",
        "psets",
        "rule",
        "inputs",
    }
    assert doc["identity"] == "ibp2d"
    assert doc["psets"] == ["0,1,1,0", "0,1,1,0"]
    assert set(doc["rule"]) == {"family", "order", "panels"}
    assert set(doc["inputs"]) == {"f", "g", "eta"}
    assert doc["inputs"]["eta"] == "t1^2;t2^2"
    # lossless serialization round trip
    again = json.loads(json.dumps(doc))
    assert again["lhs"] == r.lhs
    assert again["rel_residual"] == r.rel_residual
    assert again["abs_residual"] == abs(r.lhs - (r.rhs_area + r.rhs_boundary))


def test_rules_that_differ_in_any_field_report_different_rules():
    # the report's rule is all that set the mesh its residual came from
    r = verify_ibp_2d(
        e2("t1+t2"), e2("t1*t2"), e2("t1^2"), e2("t2^2"), 0.5, LEFT1, LEFT1, RL, RECT
    )
    for field in dataclasses.fields(r.rule):
        other = dataclasses.replace(r.rule, **{field.name: getattr(r.rule, field.name) + 1})
        assert dataclasses.replace(r, rule=other).to_json_dict()["rule"] != r.to_json_dict()["rule"]


def test_matrix_cache_tells_close_tempering_rates_apart():
    args = (e2("t1+t2"), e2("t1*t2"), e2("sin(t1)*t2"), e2("t1*cos(t2)"), 0.5, LEFT1, LEFT1)
    clear_matrix_cache()
    verify_ibp_2d(*args, tempered_family(1.0), RECT)
    after_neighbour = verify_ibp_2d(*args, tempered_family(1.0000001), RECT)
    clear_matrix_cache()
    fresh = verify_ibp_2d(*args, tempered_family(1.0000001), RECT)
    assert after_neighbour.lhs == fresh.lhs


def _scaled_power_family(c):
    """c x**(alpha-1), plugged in under the label "mine" whatever c is."""

    def make(order):
        return Kernel(order, lambda x: c * np.asarray(x, dtype=float) ** (order - 1.0), 1.0 - order,
                      "mine")

    return KernelFamily("mine", make)


def test_plugged_kernels_that_share_a_label_share_no_matrix(monkeypatch):
    # a label does not identify a kernel, so a kernel without a key is
    # assembled afresh by each check, once per half, and never kept
    made = []
    assemble = opmatrix._assemble
    monkeypatch.setattr(opmatrix, "_assemble", lambda *a: made.append(a[0]) or assemble(*a))
    args = (e2("t1+t2"), e2("t1*t2"), e2("t1^2"), e2("t2^2"), 0.5, LEFT1, LEFT1)
    clear_matrix_cache()
    one, two = (verify_ibp_2d(*args, _scaled_power_family(c), RECT) for c in (1.0, 2.0))
    assert two.lhs / one.lhs == pytest.approx(2.0, rel=1e-14)
    assert made == [LEFT1, standard_right(0.0, 1.0)] * 2
    assert not any(key[0] == "kop" for key in opmatrix._CACHE)
    clear_matrix_cache()


def test_a_keyless_green_check_assembles_each_half_once(monkeypatch):
    # a half that is not kept is fetched once per check, as the pair of its
    # mesh rows and end rows, so a Green check, which reads both, assembles
    # it once
    made = []
    assemble = opmatrix._assemble
    monkeypatch.setattr(
        opmatrix, "_assemble", lambda *a: made.append(a[0].as_tuple()) or assemble(*a)
    )
    mixed = ParameterSet(0.0, 1.0, 0.3, 0.7)
    args = (e2("t1+t2"), e2("t1*t2"), e2("t1^2"), 0.5, mixed, mixed, _scaled_power_family(1.0))
    clear_matrix_cache()
    for _ in range(2):
        made.clear()
        verify_green(*args, RECT)
        assert sorted(made) == UNIT_HALVES
    assert not any(key[0] == "kop" for key in opmatrix._CACHE)
    clear_matrix_cache()


# a nonzero weight below the smallest normal double is refused by ParameterSet
_weight = st.one_of(st.just(0.0), st.floats(0.0, 2.0, allow_subnormal=False))


@pytest.mark.filterwarnings("ignore:all three identity terms")
@settings(max_examples=25, deadline=None)
@given(
    a1=st.floats(-3.0, 3.0),
    a2=st.floats(-3.0, 3.0),
    w1=st.floats(1e-2, 10.0),
    w2=st.floats(1e-2, 10.0),
    weights=st.tuples(_weight, _weight, _weight, _weight),
    alpha=st.floats(0.1, 0.9, exclude_min=True, exclude_max=True),
    kernel=st.sampled_from(["rl", "tempered"]),
)
def test_identities_hold_on_random_rectangles_and_psets(a1, a2, w1, w2, weights, alpha, kernel):
    rect = Rectangle(a1, a1 + w1, a2, a2 + w2)
    p1 = ParameterSet(rect.a1, rect.b1, weights[0], weights[1])
    p2 = ParameterSet(rect.a2, rect.b2, weights[2], weights[3])
    family = RL if kernel == "rl" else tempered_family(1.0)
    f, g, eta1, eta2 = (e2(s) for s in ("t1+t2", "t1*t2", "sin(t1)*t2", "t1*cos(t2)"))
    assert verify_green(f, g, eta1, alpha, p1, p2, family, rect).rel_residual <= 1e-4
    assert verify_ibp_2d(f, g, eta1, eta2, alpha, p1, p2, family, rect).rel_residual <= 1e-5


# -- cached grids, moments and matrices

QUAD = ("exp(t1-t2)", "t2^2+1", "sin(t1)*t2", "t1*cos(t2)")


def _terms(r):
    return (r.lhs, r.rhs_area, r.rhs_boundary)


def _both(specs, rect, rule, p=(0.3, 0.7), kernel=RL, alpha=0.4):
    f, g, eta1, eta2 = specs
    p1 = ParameterSet(rect.a1, rect.b1, *p)
    p2 = ParameterSet(rect.a2, rect.b2, *p[::-1])
    return (
        _terms(verify_ibp_2d(f, g, eta1, eta2, alpha, p1, p2, kernel, rect, rule)),
        _terms(verify_green(f, g, eta1, alpha, p1, p2, kernel, rect, rule)),
    )


def test_cached_terms_match_a_cold_run_on_every_mesh():
    specs = [e2(s) for s in QUAD]
    meshes = [
        (rect, rule)
        for rect in (RECT, Rectangle(-1.0, 0.5, 2.0, 3.25))
        for rule in (QuadratureRule(order_per_panel=8, panels=4), QuadratureRule())
    ]
    clear_matrix_cache()
    warm = [_both(specs, rect, rule) for rect, rule in meshes]
    # again, from fresh specs whose expressions are equal but not identical
    warm += [_both([e2(s) for s in QUAD], rect, rule) for rect, rule in meshes]
    cold = []
    for rect, rule in meshes:
        clear_matrix_cache()
        cold.append(_both(specs, rect, rule))
    assert warm == cold + cold
    assert len(set(cold)) == len(meshes)


def test_callables_with_one_label_keep_their_own_terms():
    def spec(src):
        e = e2(src)
        return FuncSpec.from_callable(e.fn, arity=2, label="u", partials=e.partials)

    rule = QuadratureRule(order_per_panel=8, panels=4)
    clear_matrix_cache()
    first = [spec(s) for s in QUAD]
    second = [spec(s) for s in ("t1+t2", "t1*t2", "t1^2", "t2^2")]
    got = [_both(first, RECT, rule), _both(second, RECT, rule)]
    want = [_both([e2(s) for s in QUAD], RECT, rule)]
    want.append(_both([e2(s) for s in ("t1+t2", "t1*t2", "t1^2", "t2^2")], RECT, rule))
    assert got == want
    assert got[0] != got[1]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_grid_raises_on_every_call():
    bad = e2("log(t1-0.5)")
    args = (e2("t1"), bad, e2("t2"), e2("t1"), 0.5, LEFT1, LEFT1, RL, RECT)
    for _ in range(2):
        with pytest.raises(NonFiniteSampleError):
            verify_ibp_2d(*args)
        with pytest.raises(NonFiniteSampleError):
            verify_green(*args[:3], *args[4:])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_check_that_raises_leaves_no_pending_build(monkeypatch):
    # a grid that raises comes before any assembly, on every check; a
    # kernel that raises in the second half's assembly, on a check that
    # asks for both halves a second time, keeps only the finished first half
    rule = QuadratureRule(panels=16)
    args = (e2("t1"), e2("log(t1-0.5)"), e2("t2"), e2("t1"), 0.45, LEFT1, LEFT1, RL, RECT)
    for check in (verify_ibp_2d, lambda *a: verify_green(*a[:3], *a[4:])):
        clear_matrix_cache()
        for _ in range(2):
            with pytest.raises(NonFiniteSampleError):
                check(*args, rule)
        assert not any(key[0] == "kop" for key in opmatrix._CACHE)
    made = []
    assemble = opmatrix._assemble

    def raising(x):
        raise KeyError("in the second half")

    def spy(pset, kern, rule):
        # the second half's kernel raises partway through its assembly
        made.append(pset)
        if len(made) == 2:
            kern = dataclasses.replace(kern, evaluate=raising)
        return assemble(pset, kern, rule)

    specs = [e2(s) for s in QUAD[:3]]
    clear_matrix_cache()
    verify_green(*specs, 0.4, LEFT1, LEFT1, RL, RECT, rule)
    monkeypatch.setattr(opmatrix, "_assemble", spy)
    with pytest.raises(KeyError):
        verify_green(*specs, 0.4, LEFT1, LEFT1, RL, RECT, rule)
    monkeypatch.undo()
    assert _kop_psets() == [UNIT_HALVES[1]]  # the left half, whole
    (key,) = [key for key in opmatrix._CACHE if key[0] == "kop"]
    got = opmatrix._CACHE[key][0]
    clear_matrix_cache()
    for cold, warm in zip(opmatrix.kop_pair(LEFT1, rl_kernel(0.6), rule), got):
        np.testing.assert_array_equal(cold, warm)
    clear_matrix_cache()


@pytest.mark.parametrize("budget", [200_000, 1_000])
def test_cache_stays_within_its_byte_budget(monkeypatch, budget):
    rule = QuadratureRule(order_per_panel=8, panels=4)  # 32 nodes: 8 KiB a grid
    clear_matrix_cache()
    want = [_both([e2(s) for s in QUAD], RECT, rule, alpha=a) for a in (0.2, 0.4, 0.6)]
    clear_matrix_cache()
    monkeypatch.setattr(opmatrix, "_CACHE_BYTES", budget)
    got = [_both([e2(s) for s in QUAD], RECT, rule, alpha=a) for a in (0.2, 0.4, 0.6)]
    sizes = [size for _, size in opmatrix._CACHE.values()]
    assert got == want
    assert sum(sizes) == opmatrix._CACHE.total <= budget
    if budget == 1_000:
        # grids, moments and matrices are returned but not kept; one 2 x 32
        # jump moment fits
        assert sizes == [512]
    clear_matrix_cache()


def test_cached_arrays_are_read_only():
    rule = QuadratureRule(order_per_panel=8, panels=4)
    specs = [e2(s) for s in QUAD]
    before = _both(specs, RECT, rule)
    kern = RL.instantiate(0.4)
    P = ParameterSet(0.0, 1.0, 0.3, 0.7)
    for arr in (
        kop_matrix(P, kern, rule),
        kop_end_rows(P, kern, rule),
        _moment(1, specs[1], specs[2], RECT, rule),
        _moment(2, specs[0], specs[3], RECT, rule, ends=True),
    ):
        with pytest.raises(ValueError, match="read-only"):
            arr *= 2.0
    assert _both(specs, RECT, rule) == before


def _kop_psets():
    return sorted(key[1] for key in opmatrix._CACHE if key[0] == "kop")


UNIT_HALVES = [(0.0, 1.0, 0.0, 1.0), (0.0, 1.0, 1.0, 0.0)]  # right, left of [0, 1]


@pytest.mark.parametrize("identity", ["ibp2d", "green"])
def test_every_pset_on_the_interval_shares_the_two_halves(identity):
    rule = QuadratureRule(order_per_panel=8, panels=4)
    specs = [e2(s) for s in QUAD]

    def check(w1, w2):
        p1, p2 = ParameterSet(0.0, 1.0, *w1), ParameterSet(0.0, 1.0, *w2)
        if identity == "ibp2d":
            return verify_ibp_2d(*specs, 0.4, p1, p2, RL, RECT, rule)
        return verify_green(*specs[:3], 0.4, p1, p2, RL, RECT, rule)

    # one check keeps no half; a second keeps the two it asked for again
    clear_matrix_cache()
    check((0.3, 0.7), (0.5, 0.5))
    assert _kop_psets() == []
    check((0.3, 0.7), (0.5, 0.5))
    assert _kop_psets() == UNIT_HALVES
    # a left p-set's dual is a right one, so a left check needs both halves
    clear_matrix_cache()
    check((1.0, 0.0), (1.0, 0.0))
    assert _kop_psets() == []
    check((1.0, 0.0), (1.0, 0.0))
    assert _kop_psets() == UNIT_HALVES
    for w1, w2 in (((0.0, 1.0), (0.0, 1.0)), ((0.3, 0.7), (0.5, 0.5)), ((2.0, -0.5), (0.8, 0.2))):
        check(w1, w2)
    assert _kop_psets() == UNIT_HALVES
    clear_matrix_cache()


def test_a_zero_weight_skips_its_half(monkeypatch):
    fetched = []

    def spy(pset, kern, rule):
        fetched.append(pset.as_tuple())
        return opmatrix.kop_pair(pset, kern, rule)

    monkeypatch.setattr(identities, "kop_pair", spy)
    rule = QuadratureRule(order_per_panel=8, panels=4)
    specs = [e2(s) for s in QUAD]
    right, left = UNIT_HALVES
    # lhs terms weight K_P, rhs terms K_{P*}; a check fetches each half once
    verify_ibp_2d(*specs, 0.4, LEFT1, LEFT1, RL, RECT, rule)
    assert fetched == [left, right]
    fetched.clear()
    mixed = ParameterSet(0.0, 1.0, 0.3, 0.7)
    verify_ibp_2d(*specs, 0.4, mixed, mixed, RL, RECT, rule)
    assert fetched == [left, right]
    # axis 2 on [0, 2] has no weight at all, so neither of its halves is fetched
    fetched.clear()
    tall = Rectangle(0.0, 1.0, 0.0, 2.0)
    verify_ibp_2d(*specs, 0.4, LEFT1, ParameterSet(0.0, 2.0, 0.0, 0.0), RL, tall, rule)
    assert fetched == [left, right]


@pytest.mark.parametrize("identity", ["ibp2d", "green"])
def test_a_half_over_the_budget_is_assembled_once_per_fetch(monkeypatch, identity):
    # at 16x8 a half is 130 x 128 doubles, 133 kB: over a 100 kB budget it
    # is never kept, even when a second check asks for it, so each check
    # assembles its halves again, but only once each, for the mesh rows
    # and the end rows together
    made = []
    assemble = opmatrix._assemble

    def spy(pset, *args):
        made.append(pset.as_tuple())
        return assemble(pset, *args)

    monkeypatch.setattr(opmatrix, "_assemble", spy)
    monkeypatch.setattr(opmatrix, "_CACHE_BYTES", 100_000)
    clear_matrix_cache()
    mixed = ParameterSet(0.0, 1.0, 0.3, 0.7)
    specs = [e2(s) for s in QUAD]
    for _ in range(2):
        made.clear()
        if identity == "ibp2d":
            verify_ibp_2d(*specs, 0.4, mixed, mixed, RL, RECT)
        else:
            verify_green(*specs[:3], 0.4, mixed, mixed, RL, RECT)
        assert sorted(made) == UNIT_HALVES
        assert not any(key[0] == "kop" for key in opmatrix._CACHE)
    clear_matrix_cache()


def test_fresh_specs_of_the_same_texts_add_no_grids_or_moments():
    rule = QuadratureRule(order_per_panel=8, panels=4)
    clear_matrix_cache()
    first = _both([e2(s) for s in QUAD], RECT, rule)
    # the halves are kept from the second pass on
    assert _both([e2(s) for s in QUAD], RECT, rule) == first
    keys = set(opmatrix._CACHE)
    # a moment samples its two grids and keeps neither
    assert not any(key[0] == "grid" for key in keys)
    assert _both([e2(s) for s in QUAD], RECT, rule) == first
    assert set(opmatrix._CACHE) == keys
    clear_matrix_cache()


def test_a_sweep_keeps_every_moment_of_the_corpus_quadruples(monkeypatch):
    # a refinement sweep at 128, 256 and 512 nodes with a fresh order on
    # each check assembles new halves every time; within the default
    # budget, they must not push out the moments that the next pass over
    # the same quadruples reads
    made = []

    def spy(key, build):
        if key is not None and key not in opmatrix._CACHE:
            made.append(key[0])
        return cached(key, build)

    cached = identities.cached
    monkeypatch.setattr(identities, "cached", spy)
    rules = [QuadratureRule(panels=n) for n in (8, 16, 32)]
    P = ParameterSet(0.0, 1.0, 0.3, 0.7)

    def sweep(alphas):
        for fns, alpha in zip(CORPUS_FUNCTIONS, alphas):
            f, g, eta = (e2(fns[name]) for name in ("f", "g", "eta1"))
            inputs = dict(f=f, g=g, eta=eta, alpha=alpha, p1=P, p2=P, kernel=RL, rect=RECT)
            convergence_study("green", inputs, rules)

    clear_matrix_cache()
    try:
        sweep(0.15 + 0.05 * np.arange(8))
        assert made.count(("moment", 1)) == made.count(("jump", 1)) == 8 * 3 * 2
        made.clear()
        sweep(0.55 + 0.04 * np.arange(8))
        assert [tag for tag in made if tag[0] in ("moment", "jump")] == []
    finally:
        clear_matrix_cache()


# four function triples (f, g, eta) beside the corpus's, for a sweep over twelve
SWEEP_EXTRA = (
    ("t1^2+t2", "exp(t1*t2)", "cos(t1)+t2"),
    ("sin(t1)*cos(t2)", "1+t1^2*t2", "exp(-t1)*t2^2"),
    ("t2*exp(t1)", "t1-t2^3", "sin(t1*t2)+1"),
    ("cos(2*t2)+t1", "t1^3*t2", "t1*t2*(1+t2)"),
)


def test_a_sweep_over_twelve_quadruples_rebuilds_no_moment(monkeypatch):
    # twelve quadruples at 128, 256 and 512 nodes have 288 moments, 126.7
    # MiB: they fit the shared cache only if the halves of the fresh
    # orders, each asked for by one check, are not kept.  A second sweep
    # at fresh orders then builds none of them.
    made = []

    def spy(key, build):
        if key is not None and key not in opmatrix._CACHE:
            made.append(key[0][0])
        return cached(key, build)

    cached = identities.cached
    monkeypatch.setattr(identities, "cached", spy)
    rules = [QuadratureRule(panels=n) for n in (8, 16, 32)]
    P = ParameterSet(0.0, 1.0, 0.3, 0.7)
    triples = [(fns["f"], fns["g"], fns["eta1"]) for fns in CORPUS_FUNCTIONS] + list(SWEEP_EXTRA)

    def sweep(alphas):
        for (f, g, eta), alpha in zip(triples, alphas, strict=True):
            inputs = dict(
                f=e2(f), g=e2(g), eta=e2(eta), alpha=alpha, p1=P, p2=P, kernel=RL, rect=RECT
            )
            convergence_study("green", inputs, rules)

    clear_matrix_cache()
    try:
        sweep(0.12 + 0.06 * np.arange(12))
        assert made.count("moment") + made.count("jump") == 12 * 3 * 8
        made.clear()
        sweep(0.15 + 0.06 * np.arange(12))
        assert made.count("moment") + made.count("jump") == 0
    finally:
        clear_matrix_cache()


def _counters(cache):
    return cache.hits, cache.misses, cache.evictions, cache.refusals


def test_a_third_identical_check_is_all_hits(monkeypatch):
    # a mixed Green check on the unit square reads 8 moments and both halves
    # of [0, 1].  The first check keeps its moments but not the halves (two
    # refusals), the second assembles the halves again and keeps them, and
    # the third reads all ten and assembles nothing.
    made = []
    assemble = opmatrix._assemble
    monkeypatch.setattr(opmatrix, "_assemble", lambda *a: made.append(a[0]) or assemble(*a))
    rule = QuadratureRule(order_per_panel=8, panels=4)
    mixed = ParameterSet(0.0, 1.0, 0.3, 0.7)
    specs = [e2(s) for s in QUAD[:3]]
    clear_matrix_cache()
    assert _counters(opmatrix._CACHE) == _counters(opmatrix._TABLES) == (0, 0, 0, 0)
    seen = []
    for _ in range(3):
        made.clear()
        verify_green(*specs, 0.4, mixed, mixed, RL, RECT, rule)
        seen.append((len(made), _counters(opmatrix._CACHE), _counters(opmatrix._TABLES)))
    assert seen == [
        (2, (0, 10, 0, 2), (0, 2, 0, 0)),
        (2, (8, 12, 0, 2), (2, 2, 0, 0)),
        (0, (18, 12, 0, 2), (2, 2, 0, 0)),
    ]
    clear_matrix_cache()
    assert _counters(opmatrix._CACHE) == _counters(opmatrix._TABLES) == (0, 0, 0, 0)


def test_the_record_of_keys_asked_once_stays_bounded():
    # 300 checks, each at a fresh order, ask for 600 halves once: the record
    # keeps at most its bound of keys, the cache keeps no half, and its
    # bytes are those of the 8 moments (4 of 32 x 32, 4 jumps of 2 x 32)
    rule = QuadratureRule(order_per_panel=8, panels=4)
    mixed = ParameterSet(0.0, 1.0, 0.3, 0.7)
    specs = [e2(s) for s in QUAD[:3]]
    alphas = 0.1 + 0.8 * np.arange(300) / 300

    def halves_kept_by(alpha):
        verify_green(*specs, alpha, mixed, mixed, RL, RECT, rule)
        return _kop_psets()

    clear_matrix_cache()
    try:
        assert all(halves_kept_by(alpha) == [] for alpha in alphas)
        assert len(opmatrix._ASKED) <= _SIGMA_CACHE_SIZE
        assert len(opmatrix._CACHE) == 8
        assert opmatrix._CACHE.total == 8 * (4 * 32 * 32 + 4 * 2 * 32)
        # the first order's keys have left the record, the last order's not
        assert halves_kept_by(alphas[0]) == []
        assert halves_kept_by(alphas[-1]) == UNIT_HALVES
    finally:
        clear_matrix_cache()


def test_a_cold_green_report_equals_a_warm_one():
    P1, P2 = ParameterSet(-1.0, 0.5, 0.3, 0.7), ParameterSet(2.0, 3.25, 1.0, 0.0)
    args = (*(e2(s) for s in GREEN_FNS), 0.4, P1, P2, tempered_family(0.8), OFF)
    rule = QuadratureRule(panels=32)
    clear_matrix_cache()
    cold = verify_green(*args, rule)
    warm = verify_green(*args, rule)
    for field in dataclasses.fields(cold):
        assert getattr(cold, field.name) == getattr(warm, field.name), field.name
    clear_matrix_cache()


# -- metamorphic relations of the terms, off the unit square

OFF = Rectangle(-1.0, 0.5, 2.0, 3.25)
GREEN_FNS = ("exp(t1-t2)", "t2^2+1+t1", "sin(t1)*t2+t1^2")


def _subst(src, **repl):
    """Replace t1 and t2 in an expression at once, e.g. t1="(3-t1)"."""
    names = {"t1": "\0", "t2": "\1"}
    for name, mark in names.items():
        src = src.replace(name, mark)
    for name, mark in names.items():
        src = src.replace(mark, repl.get(name, name))
    return src


def _run(identity, fns, rect, p1w, p2w, kernel, alpha=0.4):
    p1 = ParameterSet(rect.a1, rect.b1, *p1w)
    p2 = ParameterSet(rect.a2, rect.b2, *p2w)
    specs = [e2(s) for s in fns]
    if identity == "ibp2d":
        return np.array(_terms(verify_ibp_2d(*specs, alpha, p1, p2, kernel, rect)))
    return np.array(_terms(verify_green(*specs, alpha, p1, p2, kernel, rect)))


def _close(got, want, rel):
    assert np.abs(got - want).max() <= rel * np.abs(want).max(), (got, want)


@pytest.mark.parametrize("kernel", [RL, tempered_family(1.0)], ids=["rl", "tempered"])
@pytest.mark.parametrize("axis", [1, 2])
def test_terms_under_axis_reflection_with_swapped_weights(axis, kernel):
    # t -> a + b - t along one axis, with p <-> q there.  No term of the
    # integration by parts changes; a Green term along that axis changes
    # sign with the derivative, one along the other axis keeps it.
    lo, hi = (OFF.a1, OFF.b1) if axis == 1 else (OFF.a2, OFF.b2)
    mirror = {f"t{axis}": f"({lo + hi!r}-t{axis})"}
    w1, w2 = (0.3, 0.7), (0.8, 0.2)
    r1, r2 = (w1[::-1], w2) if axis == 1 else (w1, w2[::-1])
    fns = ("t1+t2", "t1*t2", "sin(t1)*t2", "t1*cos(t2)")
    _close(
        _run("ibp2d", [_subst(s, **mirror) for s in fns], OFF, r1, r2, kernel),
        _run("ibp2d", fns, OFF, w1, w2, kernel),
        1e-9,
    )
    # f = 0 keeps only the axis-1 terms of the Green check, g = 0 only axis 2
    f, g, eta = GREEN_FNS
    for fns, along in ((("0*t1", g, eta), 1), ((f, "0*t1", eta), 2)):
        sign = -1.0 if along == axis else 1.0
        _close(
            _run("green", [_subst(s, **mirror) for s in fns], OFF, r1, r2, kernel),
            sign * _run("green", fns, OFF, w1, w2, kernel),
            1e-9,
        )


@pytest.mark.parametrize("identity", ["ibp2d", "green"])
@pytest.mark.parametrize("kernel", [RL, tempered_family(1.0)], ids=["rl", "tempered"])
def test_terms_under_translation(identity, kernel):
    fns = ("t1+t2", "t1*t2", "sin(t1)*t2", "t1*cos(t2)")[: 4 if identity == "ibp2d" else 3]
    c1, c2 = 2.5, -1.75
    moved = Rectangle(OFF.a1 + c1, OFF.b1 + c1, OFF.a2 + c2, OFF.b2 + c2)
    shifted = [_subst(s, t1=f"(t1-{c1!r})", t2=f"(t2-({c2!r}))") for s in fns]
    _close(
        _run(identity, shifted, moved, (0.3, 0.7), (0.8, 0.2), kernel),
        _run(identity, fns, OFF, (0.3, 0.7), (0.8, 0.2), kernel),
        1e-9,
    )


@pytest.mark.parametrize("L", [0.25, 3.0])
@pytest.mark.parametrize("identity", ["ibp2d", "green"])
def test_power_kernel_terms_under_rescaling(identity, L):
    # u(t / L) on L * rect: the power kernel of order alpha scales by
    # L**alpha and the area by L**2; the Green check's derivatives and
    # order-(1 - alpha) kernel give L**(2 - alpha) instead
    alpha = 0.4
    fns = ("t1+t2", "t1*t2", "sin(t1)*t2", "t1*cos(t2)")[: 4 if identity == "ibp2d" else 3]
    big = Rectangle(L * OFF.a1, L * OFF.b1, L * OFF.a2, L * OFF.b2)
    scaled = [_subst(s, t1=f"(t1/{L!r})", t2=f"(t2/{L!r})") for s in fns]
    power = 2.0 + alpha if identity == "ibp2d" else 2.0 - alpha
    _close(
        _run(identity, scaled, big, (0.3, 0.7), (0.8, 0.2), RL, alpha),
        L**power * _run(identity, fns, OFF, (0.3, 0.7), (0.8, 0.2), RL, alpha),
        1e-9,
    )


@pytest.mark.parametrize("identity", ["ibp2d", "green"])
def test_terms_under_axis_transposition(identity):
    # swap (t1, P1, g, eta1) with (t2, P2, f, eta2); the Green check's one
    # eta is transposed in place
    swap = {"t1": "t2", "t2": "t1"}
    flipped = Rectangle(OFF.a2, OFF.b2, OFF.a1, OFF.b1)
    if identity == "ibp2d":
        f, g, eta1, eta2 = ("t1+t2^2", "t1*exp(t2)", "sin(t1)*t2", "t1*cos(t2)")
        swapped = [_subst(s, **swap) for s in (g, f, eta2, eta1)]
        fns = (f, g, eta1, eta2)
    else:
        fns = GREEN_FNS
        f, g, eta = fns
        swapped = [_subst(s, **swap) for s in (g, f, eta)]
    _close(
        _run(identity, swapped, flipped, (0.8, 0.2), (0.3, 0.7), tempered_family(1.0)),
        _run(identity, fns, OFF, (0.3, 0.7), (0.8, 0.2), tempered_family(1.0)),
        1e-12,
    )


@pytest.mark.parametrize("kernel", [RL, tempered_family(1.0)], ids=["rl", "tempered"])
def test_mixed_ibp_residual_is_small_but_not_zero(kernel):
    # Each half is assembled from its own convolution rows.  Read off the
    # other half's transpose, the residual would vanish by construction;
    # mirrored from it, it would be large, since the 7-panel mesh is not
    # symmetric.
    rule = QuadratureRule(order_per_panel=8, panels=7)
    p1 = ParameterSet(OFF.a1, OFF.b1, 0.3, 0.7)
    p2 = ParameterSet(OFF.a2, OFF.b2, 0.8, 0.2)
    r = verify_ibp_2d(*[e2(s) for s in QUAD], 0.4, p1, p2, kernel, OFF, rule)
    assert 1e-12 < r.rel_residual < 1e-5
