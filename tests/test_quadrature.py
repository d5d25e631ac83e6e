"""Quadrature engines: singular convolutions, 2D tensor product, contour."""

import math

import numpy as np
import pytest

from genfrac.quadrature import (
    _SIGMA_CACHE_SIZE,
    DEFAULT_RULE,
    NonFiniteSampleError,
    QuadratureRule,
    Rectangle,
    _jacobi_left,
    composite_nodes,
    contour_integral,
    convolution_rows,
    integrate_2d,
    integrate_singular,
)
from genfrac.pset import standard_left
from genfrac.specfun import gamma, rl_kernel

TWO_INV_GAMMA_HALF = 1.1283791670955125739
SIN_EXP_BOX = 0.78989019441129979562  # (1 - cos 1)(e - 1)
PLAIN_FLOAT = r"-?\d[\d.e+-]*"  # repr of a Python float, not np.float64(...)
PLAIN_PAIR = rf"\(t1, t2\)=\({PLAIN_FLOAT}, {PLAIN_FLOAT}\)"


def test_singular_constant_mass():
    v = integrate_singular(lambda u: 1.0, rl_kernel(0.5), 0.0, 1.0, "hi")
    assert v == pytest.approx(TWO_INV_GAMMA_HALF, rel=1e-12)


def test_singular_zero_integrand():
    assert integrate_singular(lambda u: 0.0 * u, rl_kernel(0.25), 0.0, 1.0, "lo") == 0.0


def test_singular_unit_kernel_reduces_to_plain_integral():
    v = integrate_singular(lambda u: u, rl_kernel(1.0), 0.0, 1.0, "hi")
    assert v == pytest.approx(0.5, rel=1e-13)


def test_singular_rejects_a_subnormal_interval():
    # at the parent this returned nan
    with pytest.raises(ValueError, match="too small"):
        integrate_singular(lambda u: u, rl_kernel(0.5), 0.0, 1e-320, "lo")
    # a nan bound, or an infinite lo above hi, returned 0.0 as an empty interval
    for lo, hi in [(math.nan, 1.0), (0.0, math.nan), (math.inf, 1.0), (0.0, math.inf)]:
        with pytest.raises(ValueError, match="must be finite"):
            integrate_singular(lambda u: u, rl_kernel(0.5), lo, hi, "lo")


def test_singular_empty_interval_is_exact_zero():
    assert integrate_singular(lambda u: u, rl_kernel(0.5), 1.0, 1.0, "lo") == 0.0
    assert integrate_singular(lambda u: u, rl_kernel(0.5), 2.0, 1.0, "lo") == 0.0


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("deg", [0, 3, 7, 10])
def test_singular_polynomial_accuracy(alpha, deg):
    # int_0^1 (1-tau)^(alpha-1)/gamma(alpha) tau^deg dtau has a closed form
    exact = gamma(deg + 1.0) / gamma(deg + alpha + 1.0)
    v = integrate_singular(lambda tau: tau**deg, rl_kernel(alpha), 0.0, 1.0, "hi")
    assert v == pytest.approx(exact, rel=1e-12)


def test_singular_orientation_matters():
    f = lambda tau: tau
    k = rl_kernel(0.5)
    v_lo = integrate_singular(f, k, 0.0, 1.0, "lo")
    v_hi = integrate_singular(f, k, 0.0, 1.0, "hi")
    # int u^{-1/2} u du / G(1/2) vs int (1-u)^{-1/2} u du / G(1/2)
    assert v_lo == pytest.approx((2.0 / 3.0) / gamma(0.5), rel=1e-12)
    assert v_hi == pytest.approx((4.0 / 3.0) / gamma(0.5), rel=1e-12)
    with pytest.raises(ValueError):
        integrate_singular(f, k, 0.0, 1.0, "sideways")


def test_singular_linearity():
    k = rl_kernel(0.5)
    f = lambda u: np.sin(u)
    g = lambda u: u**2
    lhs = integrate_singular(lambda u: 2.0 * f(u) + 3.0 * g(u), k, 0.0, 1.0, "hi")
    rhs = 2.0 * integrate_singular(f, k, 0.0, 1.0, "hi") + 3.0 * integrate_singular(
        g, k, 0.0, 1.0, "hi"
    )
    assert lhs == pytest.approx(rhs, rel=5e-15, abs=1e-15)


def test_singular_families_agree():
    # the Gauss-Jacobi rule converges fast: 8 panels against 16
    k = rl_kernel(0.3)
    ref = integrate_singular(np.exp, k, 0.0, 1.0, "lo", QuadratureRule(panels=16))
    v = integrate_singular(np.exp, k, 0.0, 1.0, "lo", QuadratureRule(panels=8))
    assert v == pytest.approx(ref, rel=1e-12)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_singular_nonfinite_diagnostic():
    k = rl_kernel(0.5)
    with pytest.raises(NonFiniteSampleError, match=rf"tau={PLAIN_FLOAT} on"):
        integrate_singular(lambda u: np.log(u - 0.5), k, 0.0, 1.0, "hi")


@pytest.mark.parametrize("sigma", [0.01, 0.1, 0.5, 0.9, 0.99])
@pytest.mark.parametrize("n", [1, 2, 3, 8, 16, 32, 64])
def test_jacobi_rule_against_mpmath(n, sigma):
    # Gauss-Jacobi rule for the weight (1 + x)**(-sigma) on [-1, 1]
    mp = pytest.importorskip("mpmath")
    x, w = _jacobi_left(n, sigma)
    assert x.shape == w.shape == (n,)
    mu0 = 2.0 ** (1.0 - sigma) / (1.0 - sigma)
    assert math.fsum(w) == pytest.approx(mu0, rel=1e-14)
    with mp.workdps(40):
        b = -mp.mpf(sigma)

        def dP(t):  # d/dt P_n^(0, b)(t)
            return (n + b + 1) / 2 * mp.jacobi(n - 1, 1, b + 1, t)

        for xi, wi in zip(x, w):
            # Newton from the rule's node converges to the exact zero
            t = mp.mpf(float(xi))
            for _ in range(4):
                t -= mp.jacobi(n, 0, b, t) / dP(t)
            # Christoffel weight of Gauss-Jacobi with a = 0
            w_ref = 2 ** (b + 1) / ((1 - t * t) * dP(t) ** 2)
            assert abs(float(xi) - float(t)) <= 2e-15
            assert abs(float((wi - w_ref) / w_ref)) <= 1e-12


def test_sigma_keyed_rule_caches_are_bounded():
    # every fresh order is a new key; the caches must not grow with a sweep
    count = _SIGMA_CACHE_SIZE + 40
    for i in range(count):
        alpha = 0.1 + 0.8 * i / count
        integrate_singular(np.cos, rl_kernel(alpha), 0.0, 1.0, "hi", QuadratureRule(panels=2))
    info = _jacobi_left.cache_info()
    assert info.maxsize == _SIGMA_CACHE_SIZE
    assert info.currsize <= _SIGMA_CACHE_SIZE


def test_integrate_2d_area():
    assert integrate_2d(lambda X, Y: 1.0, Rectangle(0, 1, 0, 1)) == pytest.approx(
        1.0, rel=1e-14
    )


def test_integrate_2d_separable_polynomial():
    v = integrate_2d(lambda X, Y: X * Y, Rectangle(0, 1, 0, 1))
    assert v == pytest.approx(0.25, rel=1e-13)


def test_integrate_2d_smooth():
    v = integrate_2d(lambda X, Y: np.sin(X) * np.exp(Y), Rectangle(0, 1, 0, 1))
    assert v == pytest.approx(SIN_EXP_BOX, rel=1e-12)


def test_integrate_2d_polynomial_exactness_off_unit_square():
    R = Rectangle(-1.0, 2.0, 0.5, 3.0)
    v = integrate_2d(lambda X, Y: X**3 * Y - 2.0 * Y**2 + 1.0, R)
    # iint x^3 y - 2 y^2 + 1 over [-1,2]x[0.5,3]
    ix3 = (2.0**4 - (-1.0) ** 4) / 4.0
    iy = (3.0**2 - 0.5**2) / 2.0
    iy2 = (3.0**3 - 0.5**3) / 3.0
    exact = ix3 * iy - 2.0 * 3.0 * iy2 + R.area
    assert v == pytest.approx(exact, rel=1e-13)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_integrate_2d_nonfinite_diagnostic():
    with pytest.raises(NonFiniteSampleError, match=PLAIN_PAIR):
        integrate_2d(lambda X, Y: 1.0 / (X - X), Rectangle(0, 1, 0, 1))


def test_contour_rotation_field_gives_twice_area():
    for rect in [Rectangle(0, 1, 0, 1), Rectangle(-1, 2, 0.5, 3), Rectangle(-2, -1, -3, -1)]:
        v = contour_integral(lambda X, Y: -Y, lambda X, Y: X + 0.0 * Y, rect)
        assert v == pytest.approx(2.0 * rect.area, rel=1e-10)


def test_contour_zero_fields():
    v = contour_integral(lambda X, Y: 0.0 * X, lambda X, Y: 0.0 * X, Rectangle(0, 1, 0, 1))
    assert v == 0.0


def test_contour_single_term_area():
    v = contour_integral(lambda X, Y: 0.0 * X, lambda X, Y: X + 0.0 * Y, Rectangle(0, 1, 0, 1))
    assert v == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize(
    "pq",
    [
        (lambda X, Y: -Y, lambda X, Y: X + 0.0 * Y, lambda X, Y: 2.0 + 0.0 * X),
        (lambda X, Y: X**2 * Y, lambda X, Y: X * Y**2, lambda X, Y: Y**2 - X**2),
        (lambda X, Y: X + Y**2, lambda X, Y: X**3 + 0.0 * Y, lambda X, Y: 3.0 * X**2 - 2.0 * Y),
        (lambda X, Y: Y**3 - X, lambda X, Y: X**2 + Y, lambda X, Y: 2.0 * X - 3.0 * Y**2),
        (lambda X, Y: X * Y, lambda X, Y: X + Y, lambda X, Y: 1.0 - X + 0.0 * Y),
    ],
)
def test_contour_matches_curl_integral(pq):
    # classical consistency: oint P dt1 + Q dt2 = iint (dQ/dt1 - dP/dt2)
    P, Q, curl = pq
    for rect in [Rectangle(0, 1, 0, 1), Rectangle(-1, 2, 0.5, 3)]:
        lhs = contour_integral(P, Q, rect)
        rhs = integrate_2d(curl, rect)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_contour_nonfinite_edge_diagnostic():
    with pytest.raises(NonFiniteSampleError, match="bottom edge at " + PLAIN_PAIR):
        contour_integral(
            lambda X, Y: np.log(-np.abs(X) - 1.0), lambda X, Y: 0.0 * X, Rectangle(0, 1, 0, 1)
        )


def test_rule_validation():
    with pytest.raises(TypeError):
        QuadratureRule(family="simpson")
    for bad in (2.5, 8.0, True, "8", None):
        with pytest.raises(TypeError):
            QuadratureRule(panels=bad)
        with pytest.raises(TypeError):
            QuadratureRule(order_per_panel=bad)
    with pytest.raises(ValueError):
        QuadratureRule(order_per_panel=0)
    with pytest.raises(ValueError):
        QuadratureRule(panels=0)
    for bad in (0.5, math.inf, math.nan):
        with pytest.raises(ValueError):
            QuadratureRule(grading_strength=bad)
    assert type(QuadratureRule(panels=np.int64(8)).panels) is int
    assert DEFAULT_RULE.node_count == 128
    assert DEFAULT_RULE.with_panels(32).panels == 32


def test_rectangle_validation():
    with pytest.raises(ValueError):
        Rectangle(1, 0, 0, 1)
    with pytest.raises(ValueError):
        Rectangle(0, 1, 2, 2)


@pytest.mark.parametrize(
    "ends", [(0, math.inf, 0, 1), (-math.inf, 0, 0, 1), (0, 1, -math.inf, math.inf)]
)
def test_rectangle_rejects_infinite_endpoints(ends):
    with pytest.raises(ValueError, match="finite"):
        Rectangle(*ends)


def test_composite_nodes_structure():
    x, w, edges = composite_nodes(0.0, 1.0, DEFAULT_RULE)
    assert x.size == DEFAULT_RULE.node_count
    assert w.size == x.size
    assert np.all(w > 0)
    assert np.all((x > 0.0) & (x < 1.0))
    # nodes strictly inside their panels
    idx = np.searchsorted(edges, x) - 1
    assert np.all(x > edges[idx])
    assert np.all(x < edges[idx + 1])
    assert math.fsum(w) == pytest.approx(1.0, rel=1e-14)


def test_convolution_rows_refuse_the_edges_of_another_rule():
    _, _, edges = composite_nodes(0.0, 1.0, QuadratureRule(panels=16))
    targets = np.array([0.5])
    with pytest.raises(ValueError, match="17 edges for a rule of 8 panels"):
        convolution_rows(standard_left(0.0, 1.0), rl_kernel(0.5), targets, edges, DEFAULT_RULE)
