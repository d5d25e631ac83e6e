"""One-dimensional operators against the closed-form power oracle."""

import numpy as np
import pytest

from genfrac.funcspec import FuncSpec, parse_expression
from genfrac.ops1d import OperatorRequest, aop, bop, kop, leibniz_boundary_terms
from genfrac.pset import ParameterSet, standard_left, standard_right
from genfrac.quadrature import NonFiniteSampleError, QuadratureRule
from genfrac.specfun import euler_oracle, rl_family, tempered_family

TWO_INV_GAMMA_HALF = 1.1283791670955125739
G2_OVER_G25 = 0.75225277806367504926
HALF_POW_ORACLE = 0.79788456080286535588  # 0.5**-0.5 / gamma(0.5)

LEFT = standard_left(0.0, 1.0)
RIGHT = standard_right(0.0, 1.0)
MIXED = ParameterSet(0.0, 1.0, 0.5, 0.5)
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
    # interior evaluation close to b exercises the one-sided stencil
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
    # within 2h of an endpoint the stencil shifts one-sided; pick operand
    # sides whose convolution image is smooth there so the oracle is sharp
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


def test_l1_bound_light():
    # ||K f||_1 <= (|p|+|q|) ||k||_1 ||f||_1 for one rough operand
    from genfrac.ops1d import _kop_values
    from genfrac.quadrature import composite_nodes, integrate_singular

    rng = np.random.default_rng(1)
    xs = np.linspace(0.0, 1.0, 11)
    ys = rng.uniform(-1.0, 1.0, size=11)
    f = FuncSpec.from_callable(lambda x: np.interp(x, xs, ys), arity=1, label="pw-linear")
    rule = QuadratureRule(order_per_panel=8, panels=64, grading_strength=1.0)
    x, w, _ = composite_nodes(0.0, 1.0, rule)
    req = K(0.5, MIXED, RL, QuadratureRule(order_per_panel=8, panels=4))
    lhs = float(np.dot(w, np.abs(_kop_values(req, f, x))))
    kern = RL.instantiate(0.5)
    kmass = integrate_singular(lambda u: 1.0, kern, 0.0, 1.0, "lo")
    fnorm = float(np.dot(w, np.abs(f.fn(x))))
    assert lhs <= (abs(MIXED.p) + abs(MIXED.q)) * kmass * fnorm + 1e-9
