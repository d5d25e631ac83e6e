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

Mixed p-sets <a, b, p, q> are checked for IBP only.  Fractional
integration by parts moves the right half onto the other factor,
iint u (K_right v) = iint v (K_left u), so each axis term is p times its
left value plus q times the left value with u and v swapped.

Still open: Green with mixed p-sets, and the tempered kernel.
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


def _green_terms(alpha):
    lhs = _b(1.5, alpha) * _power_integral(3.5 - alpha, L1) * _power_integral(3, L2)
    lhs += _power_integral(2.5, L1) * _b(2, alpha) * _power_integral(4 - alpha, L2)
    boundary = -_trace(2, alpha, L1) * _power_integral(1, L2)
    boundary -= _power_integral(1, L1) * _trace(2, alpha, L2)
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
