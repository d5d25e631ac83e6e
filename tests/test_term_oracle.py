"""Each term of both identity checks against its closed form.

A residual compares the two sides of an identity, so an error common to
both cannot show in it.  Here every reported term is checked against its
exact value instead.  Operands are separable products of powers of
x = t1 - a1 and y = t2 - a2, so under the power kernel and left p-sets
every term factors into 1D integrals of powers:

    K x^beta = Gamma(beta+1) / Gamma(beta+alpha+1) x^(beta+alpha)   (left RL integral)
    B x^beta = Gamma(beta+1) / Gamma(beta+1-alpha) x^(beta-alpha)   (left Caputo, beta > 0)

The contour term of the Green identity needs the end traces of the right
RL integral of order 1-alpha: at a it is L^(m+1-alpha) / (Gamma(1-alpha)
(m+1-alpha)) for x^m on an interval of length L, and it is 0 at b.  With
eta(a, .) = 1 the contour collapses to boundary = -sum int trace, and
the two sides of each identity agree exactly (integration by parts for
the RL integrals), so rhs_area is the lhs for IBP and lhs - boundary for
Green.

Right p-sets mirror the left ones: with the same exponents on
x' = b1 - t1 and y' = b2 - t2, reflecting both axes maps each right
operator onto the left one.  The IBP terms keep the left closed forms;
every Green term changes sign, since each carries one derivative.

Mixed p-sets <a, b, p, q> are checked on the same operands as the left
ones.  Fractional integration by parts moves the right half onto the
other factor, iint u (K_right v) = iint v (K_left u), so each IBP axis
term is p times its left value plus q times the left value with u and v
swapped.  Under Green the terms are linear in the halves too: lhs =
p lhs_left + q lhs_right, and boundary = q boundary_left + p
boundary_right, since the contour term weights P* = <a, b, q, p>.  The
same move gives lhs_right, with B_right eta = K_right (eta'), as the
integral of eta' (K_left g).  boundary_left needs the end traces of the
left RL integral of order 1-alpha at b, where x = L: K x^m there is
_k(m, 1-alpha) L^(m+1-alpha), and 0 at a.  The identity holds for each
half exactly, so rhs_area is lhs - boundary again.

Under the tempered kernel k(u) = u^(alpha-1) e^(-lam u) / Gamma(alpha)
the IBP terms with left p-sets still factor.  Each axis term
int_0^L x^m (K x^c)(x) dx equals int_0^L k(u) int_u^L x^m (x-u)^c dx du;
for integer m the inner integral is a binomial sum of powers of u and
L-u, and mpmath's quadrature takes the outer one.

Still open: the tempered kernel beyond IBP with left p-sets.
"""

from math import gamma

import pytest

from genfrac import (
    QuadratureRule,
    Rectangle,
    parse_expression,
    ParameterSet,
    rl_family,
    standard_left,
    standard_right,
    tempered_family,
    verify_green,
    verify_ibp_2d,
)

RECT = Rectangle(-1.0, 2.0, 0.5, 3.0)
L1, L2 = RECT.b1 - RECT.a1, RECT.b2 - RECT.a2
LEFT = (standard_left(RECT.a1, RECT.b1), standard_left(RECT.a2, RECT.b2))
RIGHT = (standard_right(RECT.a1, RECT.b1), standard_right(RECT.a2, RECT.b2))
RULE = QuadratureRule(order_per_panel=16, panels=32)
ALPHAS = (0.25, 0.5, 0.8)

# Largest relative error allowed per term at RULE, fixed before the first run.
IBP_TOL = {"lhs": 1e-12, "rhs_area": 1e-11}
GREEN_TOL = {"lhs": 1e-8, "rhs_area": 1e-11, "rhs_boundary": 1e-13}
# Tempered IBP, fixed before its first run: the power kernel's bounds.
TEMPERED_IBP_TOL = IBP_TOL
# Green with mixed p-sets, fixed before its first run: the bounds of the
# left and right p-sets.
MIXED_GREEN_TOL = GREEN_TOL
LAM = 1.0


def e2(src):
    return parse_expression(src.replace("x", "(t1+1)").replace("y", "(t2-0.5)"), arity=2)


def e2_mirrored(src):  # the same exponents on x' = 2 - t1 and y' = 3 - t2
    return parse_expression(src.replace("x", "(2-t1)").replace("y", "(3-t2)"), arity=2)


def _power_integral(m, L):  # int_0^L x^m dx
    return L ** (m + 1) / (m + 1)


def _k(beta, alpha):  # K x^beta = _k * x^(beta+alpha)
    return gamma(beta + 1) / gamma(beta + alpha + 1)


def _b(beta, alpha):  # B x^beta = _b * x^(beta-alpha)
    return gamma(beta + 1) / gamma(beta + 1 - alpha)


def _trace(m, alpha, L):  # (right RL integral of order 1-alpha of x^m)(a)
    return L ** (m + 1 - alpha) / (gamma(1 - alpha) * (m + 1 - alpha))


def _assert_terms(report, exact, tolerances):
    for term, tol in tolerances.items():
        got = getattr(report, term)
        assert abs(got - exact[term]) <= tol * abs(exact[term]), (term, got, exact[term])


# g = x^2 y, eta1 = x^1.5 y^2, f = x y^2, eta2 = x^2 y^2.5
IBP_OPERANDS = ("x*y^2", "x^2*y", "x^1.5*y^2", "x^2*y^2.5")
# eta = 1 + x^1.5 y^2, f = x y^2, g = x^2 y
GREEN_OPERANDS = ("x*y^2", "x^2*y", "1+x^1.5*y^2")


def _ibp_lhs(alpha, p=1.0, q=0.0):
    # axis 1: iint g (K eta1), whose right half is iint eta1 (K_left g)
    lhs = (p * _k(1.5, alpha) + q * _k(2, alpha)) * _power_integral(3.5 + alpha, L1)
    lhs *= _power_integral(3, L2)
    # axis 2: iint f (K eta2), whose right half is iint eta2 (K_left f)
    axis2 = (p * _k(2.5, alpha) + q * _k(2, alpha)) * _power_integral(4.5 + alpha, L2)
    return lhs + _power_integral(3, L1) * axis2


def _tempered_term(alpha, lam, m, c, L):
    """int_0^L x^m (K x^c)(x) dx under the tempered kernel, for an integer m >= 0."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        a, L = mp.mpf(alpha), mp.mpf(L)

        def inner(u):  # int_u^L x^m (x-u)^c dx, with x^m = sum_j C(m,j) u^(m-j) (x-u)^j
            terms = (mp.binomial(m, j) * u ** (m - j) * (L - u) ** (c + j + 1) / (c + j + 1)
                     for j in range(m + 1))
            return mp.fsum(terms)

        # u = s^(1/alpha) absorbs u^(alpha-1) du into ds / alpha: tanh-sinh on
        # the singular form was off by 5e-9 at alpha = 0.25
        def outer(s):
            u = min(s ** (1 / a), L)
            return mp.exp(-lam * u) * inner(u)

        return float(mp.quad(outer, [0, L**a]) / mp.gamma(a + 1))


def _tempered_ibp_lhs(alpha, lam):
    # axis 1: g = x^2 y against eta1 = x^1.5 y^2; axis 2: f = x y^2 against eta2 = x^2 y^2.5
    axis1 = _tempered_term(alpha, lam, 2, 1.5, L1) * _power_integral(3, L2)
    axis2 = _power_integral(3, L1) * _tempered_term(alpha, lam, 2, 2.5, L2)
    return axis1 + axis2


def _green_terms(alpha):
    lhs = _b(1.5, alpha) * _power_integral(3.5 - alpha, L1) * _power_integral(3, L2)
    lhs += _power_integral(2.5, L1) * _b(2, alpha) * _power_integral(4 - alpha, L2)
    boundary = -_trace(2, alpha, L1) * _power_integral(1, L2)
    boundary -= _power_integral(1, L1) * _trace(2, alpha, L2)
    return {"lhs": lhs, "rhs_area": lhs - boundary, "rhs_boundary": boundary}


def _mixed_green_terms(alpha, p, q):
    left = _green_terms(alpha)
    k = _k(2, 1 - alpha)  # K_left of order 1-alpha on x^2 (g) and on y^2 (f)
    # lhs_right: iint eta_x (K_left g) + iint eta_y (K_left f), with
    # eta_x = 1.5 x^0.5 y^2 and eta_y = 2 x^1.5 y
    lhs_right = 1.5 * k * _power_integral(3.5 - alpha, L1) * _power_integral(3, L2)
    lhs_right += 2 * k * _power_integral(2.5, L1) * _power_integral(4 - alpha, L2)
    # boundary_left: [eta K_left g] at t1 = b1 over t2, and [eta K_left f]
    # at t2 = b2 over t1; eta there is 1 + L1^1.5 y^2, and 1 + x^1.5 L2^2
    boundary_left = k * L1 ** (3 - alpha) * (
        _power_integral(1, L2) + L1**1.5 * _power_integral(3, L2)
    )
    boundary_left += k * L2 ** (3 - alpha) * (
        _power_integral(1, L1) + L2**2 * _power_integral(2.5, L1)
    )
    lhs = p * left["lhs"] + q * lhs_right
    boundary = q * boundary_left + p * left["rhs_boundary"]
    return {"lhs": lhs, "rhs_area": lhs - boundary, "rhs_boundary": boundary}


@pytest.mark.parametrize("alpha", ALPHAS)
def test_ibp_terms_match_the_closed_form(alpha):
    lhs = _ibp_lhs(alpha)
    report = verify_ibp_2d(*map(e2, IBP_OPERANDS), alpha, *LEFT, rl_family(), RECT, RULE)
    _assert_terms(report, {"lhs": lhs, "rhs_area": lhs}, IBP_TOL)
    assert report.rhs_boundary == 0.0


@pytest.mark.parametrize("alpha", ALPHAS)
def test_green_terms_match_the_closed_form(alpha):
    report = verify_green(*map(e2, GREEN_OPERANDS), alpha, *LEFT, rl_family(), RECT, RULE)
    _assert_terms(report, _green_terms(alpha), GREEN_TOL)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_right_ibp_terms_match_the_left_closed_form(alpha):
    lhs = _ibp_lhs(alpha)
    operands = map(e2_mirrored, IBP_OPERANDS)
    report = verify_ibp_2d(*operands, alpha, *RIGHT, rl_family(), RECT, RULE)
    _assert_terms(report, {"lhs": lhs, "rhs_area": lhs}, IBP_TOL)
    assert report.rhs_boundary == 0.0


@pytest.mark.parametrize("alpha", ALPHAS)
def test_right_green_terms_are_the_negated_left_closed_form(alpha):
    exact = {term: -value for term, value in _green_terms(alpha).items()}
    operands = map(e2_mirrored, GREEN_OPERANDS)
    report = verify_green(*operands, alpha, *RIGHT, rl_family(), RECT, RULE)
    _assert_terms(report, exact, GREEN_TOL)


@pytest.mark.parametrize("weights", [(0.5, 0.5), (0.3, 0.7), (1.5, -0.25)])
@pytest.mark.parametrize("alpha", ALPHAS)
def test_mixed_ibp_terms_match_the_closed_form(alpha, weights):
    lhs = _ibp_lhs(alpha, *weights)
    psets = (ParameterSet(*RECT.axis1, *weights), ParameterSet(*RECT.axis2, *weights))
    report = verify_ibp_2d(*map(e2, IBP_OPERANDS), alpha, *psets, rl_family(), RECT, RULE)
    _assert_terms(report, {"lhs": lhs, "rhs_area": lhs}, IBP_TOL)
    assert report.rhs_boundary == 0.0


@pytest.mark.parametrize("weights", [(0.5, 0.5), (0.3, 0.7), (1.5, -0.25)])
@pytest.mark.parametrize("alpha", ALPHAS)
def test_mixed_green_terms_match_the_closed_form(alpha, weights):
    psets = (ParameterSet(*RECT.axis1, *weights), ParameterSet(*RECT.axis2, *weights))
    report = verify_green(*map(e2, GREEN_OPERANDS), alpha, *psets, rl_family(), RECT, RULE)
    _assert_terms(report, _mixed_green_terms(alpha, *weights), MIXED_GREEN_TOL)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_tempered_ibp_terms_match_the_quadrature_oracle(alpha):
    lhs = _tempered_ibp_lhs(alpha, LAM)
    operands = map(e2, IBP_OPERANDS)
    report = verify_ibp_2d(*operands, alpha, *LEFT, tempered_family(LAM), RECT, RULE)
    _assert_terms(report, {"lhs": lhs, "rhs_area": lhs}, TEMPERED_IBP_TOL)
    assert report.rhs_boundary == 0.0
