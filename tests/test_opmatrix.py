"""Operator matrices: the end rows against the direct per-point operator."""

import pytest

from genfrac.funcspec import parse_expression
from genfrac.opmatrix import kop_end_rows, kop_matrix
from genfrac.ops1d import OperatorRequest, kop
from genfrac.pset import ParameterSet
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
