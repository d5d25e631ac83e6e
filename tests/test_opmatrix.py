"""Operator matrices: the end rows against the direct per-point operator,
and K_P as the weighted sum of its two unweighted halves."""

import pytest

from genfrac.funcspec import parse_expression
from genfrac.opmatrix import kop_end_rows, kop_matrix
from genfrac.ops1d import OperatorRequest, kop
from genfrac.pset import ParameterSet, standard_left, standard_right
from genfrac.quadrature import QuadratureRule, composite_nodes
from genfrac.specfun import rl_family, tempered_family

RULE = QuadratureRule()


@pytest.mark.parametrize("kernel", [rl_family(), tempered_family(1.0)], ids=["rl", "tempered"])
@pytest.mark.parametrize("interval", [(0.0, 1.0), (-2.0, 3.0), (5.0, 5.01)])
@pytest.mark.parametrize(
    "weights", [(1.0, 0.0), (0.0, 1.0), (0.3, 0.7)], ids=["left", "right", "mixed"]
)
def test_end_rows_match_kop_at_the_ends(kernel, interval, weights):
    a, b = interval
    P = ParameterSet(a, b, *weights)
    f = parse_expression(f"exp((t-{a!r})/{b - a!r})*cos(t)+t^2", arity=1)
    nodes, _, _ = composite_nodes(a, b, RULE)
    E = kop_end_rows(P, kernel.instantiate(0.4), RULE)
    assert E.shape == (2, nodes.size)
    req = OperatorRequest("K", 0.4, P, kernel, RULE)
    got = E @ f(nodes)
    want = [kop(req, f, a), kop(req, f, b)]
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_cache_hit_returns_the_same_array():
    P = ParameterSet(0.0, 1.0, 0.5, 0.5)
    kern = rl_family().instantiate(0.3)
    M = kop_matrix(P, kern, RULE)
    assert kop_matrix(P, kern, RULE) is M
    assert kop_end_rows(P, kern, RULE) is kop_end_rows(P, kern, RULE)


@pytest.mark.parametrize("kernel", [rl_family(), tempered_family(1.0)], ids=["rl", "tempered"])
@pytest.mark.parametrize("interval", [(0.0, 1.0), (-2.0, 3.0), (5.0, 5.01)])
@pytest.mark.parametrize("weights", [(0.3, 0.7), (1.5, -0.25)])
def test_kop_is_the_weighted_sum_of_its_halves(kernel, interval, weights):
    # the identity checks contract against the halves L and R; K_P itself
    # must be p L + q R up to rounding
    a, b = interval
    p, q = weights
    kern = kernel.instantiate(0.4)
    P = ParameterSet(a, b, p, q)
    left, right = standard_left(a, b), standard_right(a, b)
    for fetch in (kop_matrix, kop_end_rows):
        L, R = fetch(left, kern, RULE), fetch(right, kern, RULE)
        assert abs(fetch(P, kern, RULE) - (p * L + q * R)).max() <= 1e-14 * abs(L).max()
