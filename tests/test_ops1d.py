"""One-dimensional operators against the closed-form power oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genfrac.funcspec import FuncSpec, parse_expression
from genfrac.opmatrix import clear_matrix_cache
from genfrac.ops1d import OperatorRequest, aop, bop, kop, leibniz_boundary_terms
from genfrac.ops2d import PartialRequest, partial_aop, partial_bop, partial_kop
from genfrac.pset import ParameterSet, standard_left, standard_right
from genfrac.quadrature import (
    DEFAULT_RULE, Mesh, NonFiniteSampleError, QuadratureRule, composite_nodes
)
from genfrac.specfun import euler_oracle, rl_family, tempered_family

TWO_INV_GAMMA_HALF = 1.1283791670955125739
G2_OVER_G25 = 0.75225277806367504926
HALF_POW_ORACLE = 0.79788456080286535588  # 0.5**-0.5 / gamma(0.5)

LEFT = standard_left(0.0, 1.0)
RIGHT = standard_right(0.0, 1.0)
MIXED = ParameterSet(0.0, 1.0, 0.5, 0.5)
# [0, 1] and intervals whose ends lie away from 0
INTERVALS = ((0.0, 1.0), (-1.0, 0.0), (1.0, 2.0), (5.0, 5.01))
RL = rl_family()
TEMPERED = tempered_family(1.0)

ONE = parse_expression("1", arity=1)
IDENT = parse_expression("t", arity=1)


def K(alpha, pset, kernel=RL, rule=None):
    return OperatorRequest("K", alpha, pset, kernel, rule or QuadratureRule())


def A(alpha, pset, kernel=RL, rule=None):
    return OperatorRequest("A", alpha, pset, kernel, rule or QuadratureRule())


def B(alpha, pset, kernel=RL, rule=None):
    return OperatorRequest("B", alpha, pset, kernel, rule or QuadratureRule())


def test_kop_constant_left():
    assert kop(K(0.5, LEFT), ONE, 1.0) == pytest.approx(TWO_INV_GAMMA_HALF, rel=1e-10)


def test_kop_identity_left():
    assert kop(K(0.5, LEFT), IDENT, 1.0) == pytest.approx(G2_OVER_G25, rel=1e-10)


def test_kop_zero_weights():
    req = K(0.5, ParameterSet(0.0, 1.0, 0.0, 0.0))
    assert kop(req, IDENT, 0.7) == 0.0


def test_kop_endpoints_drop_one_half():
    # at t=a only the rightward half contributes; at t=b only the leftward
    req = K(0.5, MIXED)
    at_a = kop(req, ONE, 0.0)
    at_b = kop(req, ONE, 1.0)
    assert at_a == pytest.approx(0.5 * TWO_INV_GAMMA_HALF, rel=1e-10)
    assert at_b == pytest.approx(0.5 * TWO_INV_GAMMA_HALF, rel=1e-10)


def test_kop_order_one_is_plain_integral():
    # kernel identically 1: p int_a^t f + q int_t^b f
    req = K(1.0, MIXED)
    t = 0.3
    exact = 0.5 * (t**2 / 2.0) + 0.5 * ((1.0 - t**2) / 2.0)
    assert kop(req, IDENT, t) == pytest.approx(exact, rel=1e-13)


def test_kop_outside_interval():
    with pytest.raises(ValueError):
        kop(K(0.5, LEFT), ONE, 1.5)


def test_operator_alpha_validation():
    with pytest.raises(ValueError):
        OperatorRequest("A", 1.0, LEFT, RL)
    with pytest.raises(ValueError):
        OperatorRequest("B", 1.0, LEFT, RL)
    with pytest.raises(ValueError):
        OperatorRequest("K", 1.2, LEFT, RL)
    OperatorRequest("K", 1.0, LEFT, RL)  # allowed for K only
    with pytest.raises(ValueError):
        OperatorRequest("Q", 0.5, LEFT, RL)


@pytest.mark.parametrize("kind", ["K", "A", "B"])
def test_operator_order_is_a_real_number_stored_as_float(kind):
    # True == 1 passed the range check of K, and kop then gave the
    # order-1 value; a numpy real is kept, but as a float
    for bad in (True, False, np.bool_(True), "0.5", None):
        with pytest.raises(ValueError, match="alpha must be a finite real"):
            OperatorRequest(kind, bad, LEFT, RL)
    req = OperatorRequest(kind, np.float32(0.5), LEFT, RL)
    assert type(req.alpha) is float and req.alpha == 0.5


def test_kind_mismatch_rejected():
    with pytest.raises(ValueError):
        kop(A(0.5, LEFT), ONE, 0.5)
    with pytest.raises(ValueError):
        aop(K(0.5, LEFT), ONE, 0.5)
    with pytest.raises(ValueError):
        bop(K(0.5, LEFT), IDENT, 0.5)


def test_aop_constant_left():
    # derivative-type operator of the constant 1 at t=0.5
    assert aop(A(0.5, LEFT), ONE, 0.5) == pytest.approx(HALF_POW_ORACLE, rel=1e-6)


def test_aop_linear_near_right_end():
    # interior evaluation close to b, where the stencil's step shrinks
    val = aop(A(0.5, LEFT), IDENT, 0.99)
    oracle = euler_oracle("left", "rl_derivative", 0.5, 1.0, 0.0, 1.0, 0.99)
    assert oracle == pytest.approx(1.1227230955528665, rel=1e-12)
    assert val == pytest.approx(oracle, rel=1e-6)


def test_aop_zero_function():
    zero = parse_expression("0", arity=1)
    assert aop(A(0.5, LEFT), zero, 0.25) == 0.0


def test_aop_endpoint_refusal():
    for t in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            aop(A(0.5, LEFT), ONE, t)


def test_aop_one_sided_stencils_near_endpoints():
    # within 0.01 of an endpoint the stencil's step shrinks with the
    # distance to it; pick operand sides whose convolution image is smooth
    # there so the oracle is sharp
    t_lo, t_hi = 5e-5, 1.0 - 5e-5
    fwd = aop(A(0.5, RIGHT), ONE, t_lo)
    oracle_fwd = -euler_oracle("right", "rl_derivative", 0.5, 0.0, 0.0, 1.0, t_lo)
    assert fwd == pytest.approx(oracle_fwd, rel=1e-5)
    bwd = aop(A(0.5, LEFT), ONE, t_hi)
    oracle_bwd = euler_oracle("left", "rl_derivative", 0.5, 0.0, 0.0, 1.0, t_hi)
    assert bwd == pytest.approx(oracle_bwd, rel=1e-5)


def test_aop_interval_too_small_for_stencil():
    # a 3e-4-wide interval at 1e8: the float spacing there (1.5e-8) is
    # coarse against the step h = 3e-8, so the stencil cannot be placed
    tiny = ParameterSet(1e8, 1e8 + 3e-4, 1.0, 0.0)
    with pytest.raises(ValueError, match="too small"):
        aop(A(0.5, tiny), ONE, 1e8 + 1.5e-4)
    # a subnormal length: the step underflows to 0
    with pytest.raises(ValueError, match="too small"):
        aop(A(0.5, ParameterSet(0.0, 1e-320, 1.0, 0.0)), ONE, 5e-321)
    # 1e-12 from the end of [1, 2]: the step 1e-14 is below the float
    # spacing there
    with pytest.raises(ValueError, match="too small"):
        aop(A(0.5, ParameterSet(1.0, 2.0, 1.0, 0.0)), ONE, 1.0 + 1e-12)


@pytest.mark.parametrize("end", ["weighted", "unweighted"])
@pytest.mark.parametrize("beta", [0, 1, 2])
@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
def test_aop_near_endpoints_matches_oracle(alpha, side, beta, end):
    # the power of the distance to the operand's base point, evaluated near
    # the end that carries the p-set's weight, 1e-2 ... 1e-10 of the
    # interval from it (A grows like d**(beta-alpha) there), on [0, 1] and
    # on intervals whose ends lie away from 0; or near the end that carries
    # none, 1e-14 ... 1e-2 from it (K is smooth there and A bounded), an
    # end at 0.  Next to an end e the operand's arguments round by about
    # eps*|e|: a point with 100*eps*|e| > 1e-6*d must be refused (at
    # t = -1 + 1e-9 on [-1, 0] A was 2.5e-6 off), every other point
    # matches the oracle.
    if end == "unweighted":
        if side == "left":
            cases = [(-1.0, 0.0, standard_left(-1.0, 0.0), 1.0, "(t+1)")]
        else:
            cases = [(0.0, 1.0, RIGHT, -1.0, "(1-t)")]
        ks = range(2, 15)
    elif side == "left":
        cases = [(a, b, standard_left(a, b), 1.0, f"(t-({a!r}))") for a, b in INTERVALS]
        ks = range(2, 11)
    else:
        cases = [(a, b, standard_right(a, b), -1.0, f"({b!r}-t)") for a, b in INTERVALS]
        ks = range(2, 11)
    near_a = (side == "left") == (end == "weighted")
    for a, b, pset, sign, base in cases:
        f = parse_expression(f"{base}^{beta}", arity=1)
        for k in ks:
            t = a + 10.0**-k * (b - a) if near_a else b - 10.0**-k * (b - a)
            want = sign * euler_oracle(side, "rl_derivative", alpha, beta, a, b, t)
            d = min(t - a, b - t)
            if 100.0 * np.finfo(float).eps * abs(a if near_a else b) > 1e-6 * d:
                with pytest.raises(ValueError, match="too small"):
                    aop(A(alpha, pset), f, t)
                continue
            if k > 6 and end == "unweighted":
                # the values of K may no longer resolve the shrunken step
                try:
                    got = aop(A(alpha, pset), f, t)
                except ValueError as exc:
                    assert "too small" in str(exc)
                    continue
            else:
                got = aop(A(alpha, pset), f, t)
            assert got == pytest.approx(want, rel=1e-6), t


def test_aop_symmetric_midpoint_zero_is_returned():
    # K of 1 on a symmetric p-set is even about the midpoint, so A is 0
    # there; the full step's rounding is no reason to refuse it
    sym = ParameterSet(0.0, 1.0, 1.0, 1.0)
    assert abs(aop(A(0.5, sym), ONE, 0.5)) <= 1e-9


@pytest.mark.parametrize("alpha", [0.3, 0.5])
def test_aop_rescales_to_small_interval(alpha):
    # power kernel, left p-set: A of f(t/L) on [0, L] at L*u is
    # L**(-alpha) times A of f on [0, 1] at u
    L = 1e-4
    f = parse_expression("1+t^2+sin(t)", arity=1)
    f_scaled = parse_expression("1+(t/0.0001)^2+sin(t/0.0001)", arity=1)
    for u in (0.25, 0.5, 0.9):
        unit = aop(A(alpha, LEFT), f, u)
        small = aop(A(alpha, standard_left(0.0, L)), f_scaled, L * u)
        assert small == pytest.approx(L ** (-alpha) * unit, rel=1e-9)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_operand_nonfinite_diagnostic_prints_plain_float():
    with pytest.raises(NonFiniteSampleError, match=r"tau=-?\d[\d.e+-]*$"):
        kop(K(0.5, LEFT), parse_expression("log(t-0.5)", arity=1), 1.0)


def test_bop_constant_is_zero():
    req = B(0.5, LEFT)
    c = parse_expression("-3.7", arity=1)
    assert abs(bop(req, c, 0.7)) <= 1e-12


def test_bop_identity_left():
    assert bop(B(0.5, LEFT), IDENT, 1.0) == pytest.approx(TWO_INV_GAMMA_HALF, rel=1e-10)


def test_bop_right_sign_convention():
    # the rightward operator of f(tau)=tau at t=0 is the full integral of
    # the kernel; the standard right Caputo derivative is its negation
    val = bop(B(0.5, RIGHT), IDENT, 0.0)
    assert val == pytest.approx(TWO_INV_GAMMA_HALF, rel=1e-10)
    right_caputo = -euler_oracle("right", "caputo_derivative", 0.5, 1.0, 0.0, 1.0, 0.0)
    assert val == pytest.approx(-right_caputo, rel=1e-10)


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize(
    ("beta", "d", "bound"),
    [(0.25, 1e-6, 7.1e-2), (0.5, 1e-6, 4.4e-3), (0.75, 1e-6, 1.9e-4), (2.5, 1e-3, 2.5e-11)],
)
def test_bop_resolves_an_operand_rough_at_the_weighted_end(side, beta, d, bound):
    # B differentiates (t-a)**beta, so its integrand is singular at a for
    # beta < 1 and rough there for beta = 2.5.  d = 1e-6 lies in the first
    # panel of [0, 1], d = 1e-3 in the second, with the first one near.
    # The bounds are the errors of the graded singular rule that preceded
    # the mesh-aligned one.
    pset, t, base = (LEFT, d, "t") if side == "left" else (RIGHT, 1.0 - d, "(1-t)")
    sign = 1.0 if side == "left" else -1.0
    want = sign * euler_oracle(side, "caputo_derivative", 0.1, beta, 0.0, 1.0, t)
    got = bop(B(0.1, pset), parse_expression(f"{base}^{beta}", arity=1), t)
    assert abs(got - want) <= bound * abs(want)


def test_kop_and_bop_are_zero_where_the_half_is_empty_on_a_rounded_mesh():
    # -0.1 + (0.2 - -0.1) rounds above 0.2; the mesh still ends at 0.2, so
    # the rightward half there integrates over nothing
    a, b = -0.1, 0.2
    assert a + (b - a) > b
    f = parse_expression("1+t^2", arity=1)
    assert kop(K(0.1, standard_right(a, b)), f, b) == 0.0
    assert bop(B(0.1, standard_right(a, b)), f, b) == 0.0
    assert kop(K(0.1, standard_left(a, b)), f, a) == 0.0


def test_kop_skips_a_panel_that_rounding_collapses():
    # at 256 panels the end panels of [1e4, 1e4 + 1] are narrower than the
    # float spacing at 1e4 and round to width 0; a target in the second
    # panel has the first one near
    a, b = 1e4, 1e4 + 1.0
    rule = QuadratureRule(panels=256)
    _, _, edges = composite_nodes(a, b, rule)
    assert edges[1] == a and edges[-2] == b
    d = 0.5 * (edges[2] - edges[1])
    want = d**0.3 / math.gamma(1.3)
    assert kop(K(0.3, standard_left(a, b), rule=rule), ONE, a + d) == pytest.approx(want, rel=1e-12)
    assert kop(K(0.3, standard_right(a, b), rule=rule), ONE, b - d) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize(
    "pset, t",
    [(ParameterSet(-1.0, 1.0, p, q), t) for p, q in ((1.0, 0.0), (0.0, 1.0), (0.5, 0.5))
     for t in (5e-324, -5e-324, 1e-310, -1e-310)] + [(RIGHT, 5e-324), (RIGHT, 1e-310)],
)
def test_a_target_a_subnormal_distance_past_an_edge_takes_the_edge_value(pset, t):
    # 0 is an inner edge of the mesh of [-1, 1], and the unweighted end of
    # RIGHT; a Gauss-Jacobi piece from it to t would underflow to width 0
    assert 0.0 in composite_nodes(pset.a, pset.b, QuadratureRule())[2]
    f = parse_expression("1+t", arity=1)
    for req, op in ((K(0.5, pset), kop), (B(0.5, pset), bop)):
        assert op(req, f, t) == pytest.approx(op(req, f, 0.0), rel=0.0, abs=1e-12)


@pytest.mark.parametrize("pset, t", [(LEFT, 5e-324), (LEFT, 1e-310), (MIXED, 2e-308),
                                     (standard_right(-1.0, 0.0), -5e-324)])
def test_a_target_closer_to_a_weighted_end_than_the_smallest_normal_is_refused(pset, t):
    for req, op in ((K(0.5, pset), kop), (B(0.5, pset), bop)):
        with pytest.raises(ValueError, match=f"is {abs(t)!r} from the end .* smallest normal"):
            op(req, IDENT, t)


def test_bop_requires_derivative():
    f = FuncSpec.from_callable(lambda x: np.abs(x), arity=1, label="abs")
    with pytest.raises(ValueError, match="derivative"):
        bop(B(0.5, LEFT), f, 0.5)


def test_linearity():
    f = parse_expression("sin(t)", arity=1)
    g = parse_expression("t^2", arity=1)
    fg = parse_expression("2*sin(t) - 3*t^2", arity=1)
    for req in (K(0.5, MIXED), B(0.25, MIXED), A(0.75, MIXED)):
        op = {"K": kop, "A": aop, "B": bop}[req.kind]
        lhs = op(req, fg, 0.37)
        rhs = 2.0 * op(req, f, 0.37) - 3.0 * op(req, g, 0.37)
        assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-12)


@pytest.mark.parametrize("kernel", [RL, TEMPERED], ids=["rl", "tempered"])
@pytest.mark.parametrize("alpha", [0.25, 0.75])
def test_rl_caputo_relation(kernel, alpha):
    # leftward p-set: A f = B f + f(a) k_{1-alpha}(t - a)
    f = parse_expression("exp(t) + t^2", arity=1)
    kern = kernel.instantiate(1.0 - alpha)
    corr = leibniz_boundary_terms(LEFT, kern, fa=float(f(0.0)), fb=float(f(1.0)))
    for t in (0.2, 0.5, 0.8):
        a_val = aop(A(alpha, LEFT, kernel), f, t)
        b_val = bop(B(alpha, LEFT, kernel), f, t)
        rhs = b_val + float(corr(np.array([t]))[0])
        assert a_val == pytest.approx(rhs, rel=1e-6)


def test_one_dim_integration_by_parts_light():
    # int g (K_P eta) = int eta (K_{P*} g) for one polynomial pair
    from genfrac.ops1d import _kop_values
    from genfrac.quadrature import composite_nodes

    g = parse_expression("1+t", arity=1)
    eta = parse_expression("t^2", arity=1)
    rule = QuadratureRule()
    x, w, _ = composite_nodes(0.0, 1.0, rule)
    for pset in (LEFT, RIGHT, MIXED):
        req = K(0.5, pset, RL, rule)
        req_d = K(0.5, pset.dual(), RL, rule)
        lhs = float(np.dot(w, np.asarray(g.fn(x)) * _kop_values(req, eta, x)))
        rhs = float(np.dot(w, np.asarray(eta.fn(x)) * _kop_values(req_d, g, x)))
        assert lhs == pytest.approx(rhs, rel=1e-8)


def test_l1_bound_light(uniform_mesh):
    # ||K f||_1 <= (|p|+|q|) ||k||_1 ||f||_1 for one rough operand
    from genfrac.ops1d import _kop_values
    from genfrac.quadrature import integrate_singular

    rng = np.random.default_rng(1)
    xs = np.linspace(0.0, 1.0, 11)
    ys = rng.uniform(-1.0, 1.0, size=11)
    f = FuncSpec.from_callable(lambda x: np.interp(x, xs, ys), arity=1, label="pw-linear")
    x, w = uniform_mesh(8, 64)
    req = K(0.5, MIXED, RL, QuadratureRule(order_per_panel=8, panels=4))
    lhs = float(np.dot(w, np.abs(_kop_values(req, f, x))))
    kern = RL.instantiate(0.5)
    kmass = integrate_singular(lambda u: 1.0, kern, 0.0, 1.0, "lo")
    fnorm = float(np.dot(w, np.abs(f.fn(x))))
    assert lhs <= (abs(MIXED.p) + abs(MIXED.q)) * kmass * fnorm + 1e-9


# Metamorphic properties on random intervals, weights, orders and operands.
# Each compares the package with itself under a change of variables, so the
# quadrature error cancels and only rounding and aop's difference step remain.
_OPERANDS = ("exp(t)*sin(2*t)+t^2", "cos(t)-t^3", "1+t", "sin(3*t)*t", "exp(-t/2)")
_OPS = {"K": kop, "A": aop, "B": bop}
_TOL = {"K": 1e-10, "A": 1e-7, "B": 1e-10}


def _composed(expr, inner):
    """The operand t -> f(inner(t)) as a parsed expression."""
    return parse_expression(expr.replace("t", f"({inner})"), arity=1)


_cases = st.fixed_dictionaries(
    {
        "a": st.floats(-3.0, 3.0),
        "width": st.floats(-2.0, 1.0).map(lambda e: 10.0**e),
        "p": st.sampled_from([0.0, 1.0]) | st.floats(0.0, 2.0, allow_subnormal=False),
        "q": st.sampled_from([0.0, 1.0]) | st.floats(0.0, 2.0, allow_subnormal=False),
        "alpha": st.floats(0.1, 0.9),
        "s": st.floats(0.05, 0.95),
        "expr": st.sampled_from(_OPERANDS),
        "kernel": st.sampled_from([RL, TEMPERED]),
    }
)


@settings(max_examples=30, deadline=None)
@given(case=_cases)
def test_reflection_swaps_weights(case):
    # g(t) = f(a+b-t): (K_P g)(a+b-t) = (K_P* f)(t); A and B pick up the
    # sign of the chain rule, since A = d/dt o K and B = K o d/dt
    a, b = case["a"], case["a"] + case["width"]
    P = ParameterSet(a, b, case["p"], case["q"])
    t = a + case["s"] * case["width"]
    g = _composed(case["expr"], f"{a + b!r}-t")
    f = parse_expression(case["expr"], arity=1)
    for kind, op in _OPS.items():
        got = op(OperatorRequest(kind, case["alpha"], P, case["kernel"]), g, a + b - t)
        want = op(OperatorRequest(kind, case["alpha"], P.dual(), case["kernel"]), f, t)
        sign = 1.0 if kind == "K" else -1.0
        assert got == pytest.approx(sign * want, rel=_TOL[kind], abs=1e-9), kind


@settings(max_examples=30, deadline=None)
@given(case=_cases, shift=st.floats(-50.0, 50.0))
def test_translation_leaves_operators_unchanged(case, shift):
    a, b = case["a"], case["a"] + case["width"]
    t = a + case["s"] * case["width"]
    f = parse_expression(case["expr"], arity=1)
    moved = _composed(case["expr"], f"t-({shift!r})")
    for kind, op in _OPS.items():
        want = op(OperatorRequest(kind, case["alpha"], ParameterSet(a, b, case["p"], case["q"]),
                                  case["kernel"]), f, t)
        P = ParameterSet(a + shift, b + shift, case["p"], case["q"])
        got = op(OperatorRequest(kind, case["alpha"], P, case["kernel"]), moved, t + shift)
        assert got == pytest.approx(want, rel=_TOL[kind], abs=1e-9), kind


@settings(max_examples=30, deadline=None)
@given(case=_cases, scale=st.floats(-3.0, 3.0).map(lambda e: 10.0**e))
def test_rescaling_multiplies_power_kernel_integral(case, scale):
    # the power kernel is homogeneous: k(L x) = L**(alpha-1) k(x)
    a, b = case["a"], case["a"] + case["width"]
    t = a + case["s"] * case["width"]
    f = parse_expression(case["expr"], arity=1)
    want = kop(K(case["alpha"], ParameterSet(a, b, case["p"], case["q"])), f, t)
    P = ParameterSet(scale * a, scale * b, case["p"], case["q"])
    got = kop(K(case["alpha"], P), _composed(case["expr"], f"t/{scale!r}"), scale * t)
    assert got == pytest.approx(scale ** case["alpha"] * want, rel=_TOL["K"], abs=1e-300)


def test_the_1d_path_builds_each_mesh_once():
    # fresh orders and mixed weights on one interval share its mesh, in
    # kop, aop, bop and the partial operators alike; the kept arrays are
    # read-only, and clear_matrix_cache drops the mesh
    clear_matrix_cache()
    rng = np.random.default_rng(22)
    f, g = parse_expression("sin(3*t)+t^2"), parse_expression("t1*t2+cos(t1)", arity=2)
    ops = {"K": (kop, partial_kop), "A": (aop, partial_aop), "B": (bop, partial_bop)}
    for _ in range(4):
        p = float(rng.uniform(-2.0, 2.0))
        P = ParameterSet(0.0, 1.0, p, 1.0 - p)
        for kind, (op, partial) in ops.items():
            req = OperatorRequest(kind, float(rng.uniform(0.1, 0.9)), P, RL)
            op(req, f, 0.7)
            partial(PartialRequest(1, req), g, 0.3, 0.6)
    info = Mesh.of.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 23, 1)
    mesh = Mesh.of(0.0, 1.0, DEFAULT_RULE)
    for x in (mesh.edges, mesh.widths, mesh.far_weights, *(a for side in mesh.far for a in side)):
        with pytest.raises(ValueError, match="read-only"):
            x[...] = 0.0
    clear_matrix_cache()
    assert Mesh.of.cache_info().currsize == 0
