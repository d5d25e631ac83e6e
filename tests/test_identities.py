"""Identity verification: residuals, special cases, reports, convergence."""

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
from genfrac.opmatrix import clear_matrix_cache
from genfrac.ops1d import OperatorRequest
from genfrac.ops2d import PartialRequest, partial_kop
from genfrac.pset import ParameterSet, standard_left, standard_right
from genfrac.quadrature import NonFiniteSampleError, QuadratureRule, Rectangle, integrate_2d
from genfrac.specfun import rl_family, tempered_family

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


def test_ibp_zero_eta_vacuous():
    zero = e2("0*t1")
    f, g = e2("t1+t2"), e2("t1*t2")
    r = verify_ibp_2d(f, g, zero, zero, 0.5, LEFT1, LEFT1, RL, RECT)
    assert r.lhs == 0.0
    assert r.rhs_area == 0.0
    assert r.abs_residual == 0.0


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


def test_matrix_cache_tells_close_tempering_rates_apart():
    args = (e2("t1+t2"), e2("t1*t2"), e2("sin(t1)*t2"), e2("t1*cos(t2)"), 0.5, LEFT1, LEFT1)
    clear_matrix_cache()
    verify_ibp_2d(*args, tempered_family(1.0), RECT)
    after_neighbour = verify_ibp_2d(*args, tempered_family(1.0000001), RECT)
    clear_matrix_cache()
    fresh = verify_ibp_2d(*args, tempered_family(1.0000001), RECT)
    assert after_neighbour.lhs == fresh.lhs


_weight = st.one_of(st.just(0.0), st.floats(0.0, 2.0))


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
