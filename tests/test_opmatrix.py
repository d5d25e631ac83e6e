"""Operator matrices: the end rows against the direct per-point operator,
K_P as the weighted sum of its two unweighted halves, the halves against
the Riemann-Liouville closed form on any scale, quadrature points that
land exactly on a mesh node, and assembly on the calling thread."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from genfrac import opmatrix
from genfrac.funcspec import parse_expression
from genfrac.identities import verify_green
from genfrac.opmatrix import clear_matrix_cache, kop_end_rows, kop_matrix
from genfrac.ops1d import OperatorRequest, kop
from genfrac.pset import ParameterSet, standard_left, standard_right
from genfrac.quadrature import QuadratureRule, Rectangle, composite_nodes
from genfrac.specfun import rl_family, tempered_family

RULE = QuadratureRule()


@pytest.mark.parametrize("kernel", [rl_family(), tempered_family(1.0)], ids=["rl", "tempered"])
# on the last interval a + (b - a) rounds below b
@pytest.mark.parametrize(
    "interval", [(0.0, 1.0), (-2.0, 3.0), (5.0, 5.01), (-0.7500000000000003, 1.0000000000000002)]
)
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


def _half_on_powers(side, alpha, a, b, panels):
    """All N+2 rows of an unweighted RL half on v = (d/W)**beta, with the
    exact values Gamma(beta+1)/Gamma(beta+alpha+1) (d/W)**beta d**alpha,
    for each beta; d is the distance to the half's lower limit (t - a on
    the left, b - t on the right) and W = b - a."""
    rule = RULE.with_panels(panels)
    nodes, _, _ = composite_nodes(a, b, rule)
    P = standard_left(a, b) if side == "left" else standard_right(a, b)
    kern = rl_family().instantiate(alpha)
    M = np.vstack([kop_matrix(P, kern, rule), kop_end_rows(P, kern, rule)])
    t = np.concatenate([nodes, [a, b]])
    d = t - a if side == "left" else b - t
    W = b - a
    for beta in (0.0, 1.0, 2.0, 5.0):
        exact = math.gamma(beta + 1) / math.gamma(beta + alpha + 1) * (d / W) ** beta * d**alpha
        yield M, M @ (d[:-2] / W) ** beta, exact


@pytest.mark.parametrize("panels", [8, 32])
@pytest.mark.parametrize("interval", [(0.0, 1.0), (5.0, 5.01), (-1000.0, -999.0)])
@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("side", ["left", "right"])
def test_halves_match_the_rl_closed_form(side, alpha, interval, panels):
    # worst seen 1.8e-13 of the max and 7.0e-5 pointwise, next to the
    # unweighted end, where graded panels are narrowest and the rounded
    # mesh nodes are the ones to interpolate at
    for _, got, exact in _half_on_powers(side, alpha, *interval, panels):
        assert abs(got - exact).max() <= 1e-12 * abs(exact).max()
        pos = exact > 0
        assert (abs(got - exact)[pos] / exact[pos]).max() <= 1e-3


@pytest.mark.parametrize("width", [1e-9, 1e-11, 1e-13, 1e-280, 1e-290])
@pytest.mark.parametrize("side", ["left", "right"])
def test_halves_stay_finite_and_exact_on_tiny_intervals(side, width):
    # end panels are ~3e-8 of the width here, so unscaled node differences
    # multiply out past the range of a double; below a width of about
    # 1e-279, b_j / (t - x_j) does too unless t - x_j is scaled as well
    for M, got, exact in _half_on_powers(side, 0.5, 0.0, width, 32):
        assert np.isfinite(M).all()
        assert abs(got - exact).max() <= 1e-13 * abs(exact).max()


def test_a_mesh_whose_nodes_collide_is_refused():
    # the end panel of [1, 1 + 1e-11] at 16x8 is about 1.2e-15 wide, five
    # float spacings: its 16 nodes round to 6 values, and equal nodes
    # have no barycentric weight
    clear_matrix_cache()
    with pytest.raises(ValueError, match=r"QuadratureRule\(order_per_panel=16, panels=8.*"
                       r"\[1\.0, 1\.00000000001\] has nodes that round to equal values"):
        kop_matrix(standard_left(1.0, 1.0 + 1e-11), rl_family().instantiate(0.5), RULE)


@pytest.mark.parametrize("interval", [(5.0, 5.01), (-1000.0, -999.0), (1e4, 1e4 + 1.0)])
def test_quadrature_points_on_a_mesh_node(interval):
    # the second form divides by zero at a point exactly on a node; the
    # row there is the point's weight at that node, and finite
    a, b = interval
    rule = RULE.with_panels(32)
    nodes, _, _ = composite_nodes(a, b, rule)
    panels = nodes.reshape(rule.panels, rule.order_per_panel)
    bws = opmatrix._bary_weights(panels)
    v = parse_expression(f"1+((t-{a!r})/{b - a!r})^3", arity=1)
    for ip in (0, 15, 31):
        x = panels[ip]
        pts = np.append(x, 0.5 * (x[3] + x[4]))
        w = np.linspace(0.5, 1.5, pts.size)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            terms, total = opmatrix._terms(pts[:, None] - x, bws[ip])
            rows = terms * (w / total)[:, None]
        np.testing.assert_array_equal(rows[:-1], np.diag(w[:-1]))
        assert rows[-1] @ v(x) == pytest.approx(w[-1] * v(pts)[-1], rel=1e-12)
    # and every row of both halves at this scale is finite and right
    kern = rl_family().instantiate(0.4)
    vn = v(nodes)
    clear_matrix_cache()
    for P in (standard_left(a, b), standard_right(a, b)):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            M, E = kop_matrix(P, kern, rule), kop_end_rows(P, kern, rule)
        assert np.isfinite(M).all() and np.isfinite(E).all()
        req = OperatorRequest("K", 0.4, P, rl_family(), rule)
        for i in np.linspace(0, nodes.size - 1, 12).astype(int):
            assert abs(M[i] @ vn - kop(req, v, nodes[i])) <= 1e-12 * (abs(M[i]) @ abs(vn))
    clear_matrix_cache()


# -- assembly on the calling thread

SRC = Path(__file__).resolve().parents[1] / "src"


def _pair(P, kern, rule):
    return np.array(kop_matrix(P, kern, rule)), np.array(kop_end_rows(P, kern, rule))


def test_cold_assemblies_are_bitwise_equal():
    rule = RULE.with_panels(32)
    P, kern = ParameterSet(-2.0, 3.0, 0.6, 0.4), tempered_family(0.7).instantiate(0.35)
    runs = []
    for _ in range(2):
        clear_matrix_cache()
        runs.append(_pair(P, kern, rule))
    clear_matrix_cache()
    for got, want in zip(*runs):
        np.testing.assert_array_equal(got, want)


def test_an_assembly_builds_each_uncached_key_once(monkeypatch):
    # a mixed Green check on the unit square needs both halves of [0, 1];
    # the cached one is read, the other assembled once for all its terms
    rule = RULE.with_panels(8)
    kern = rl_family().instantiate(0.25)
    left, right = standard_left(0.0, 1.0), standard_right(0.0, 1.0)
    clear_matrix_cache()
    want = _pair(right, kern, rule)
    clear_matrix_cache()
    kept = kop_matrix(left, kern, rule)
    made = []
    assemble = opmatrix._assemble

    def spy(pset, *args):
        made.append(pset.as_tuple())
        return assemble(pset, *args)

    monkeypatch.setattr(opmatrix, "_assemble", spy)
    mixed = ParameterSet(0.0, 1.0, 0.3, 0.7)
    specs = [parse_expression(s, arity=2) for s in ("t1*t2", "t1+t2^2", "1+t1*t2")]
    rect = Rectangle(0.0, 1.0, 0.0, 1.0)
    verify_green(*specs, 0.75, mixed, mixed, rl_family(), rect, rule)
    assert made == [right.as_tuple()]
    for got, w in zip(_pair(right, kern, rule), want):
        np.testing.assert_array_equal(got, w)
    assert kop_matrix(left, kern, rule) is kept
    verify_green(*specs, 0.75, mixed, mixed, rl_family(), rect, rule)
    assert made == [right.as_tuple()]  # the second check reads the cache
    clear_matrix_cache()


def test_every_kernel_on_a_mesh_reuses_its_table(monkeypatch):
    # the kernel-free table of a half is built once for all kernels: a
    # second kernel forms node differences for its Gauss-Jacobi pieces
    # alone, and gets the halves a freshly emptied table gives.  On
    # [-1, 2] Gauss-Legendre pieces that span a whole panel land on its
    # nodes, so the table holds rows fixed up for a node hit; the other
    # intervals are those of test_quadrature_points_on_a_mesh_node.
    rule = RULE.with_panels(32)
    kernels = [rl_family().instantiate(0.3), tempered_family(1.5).instantiate(0.7)]
    walks, rows = [], []
    walk, differences = opmatrix.convolution_walk, opmatrix._differences
    monkeypatch.setattr(opmatrix, "convolution_walk", lambda *a: walks.append(a) or walk(*a))
    # the rows of node differences formed: one per piece or far panel
    monkeypatch.setattr(
        opmatrix, "_differences", lambda *a: rows.append(a[0].size) or differences(*a)
    )
    for a, b in [(-1.0, 2.0), (5.0, 5.01), (-1000.0, -999.0), (1e4, 1e4 + 1.0)]:
        for P in (standard_left(a, b), standard_right(a, b)):
            clear_matrix_cache()
            warm = [_pair(P, kernels[0], rule)]
            (key,) = opmatrix._TABLES
            _, _, _, table_walk, _, _, total = opmatrix._TABLES[key][0]
            assert (total == 1.0).any() == (a == -1.0)
            rows.clear()
            warm.append(_pair(P, kernels[1], rule))
            assert sum(rows) == table_walk.jacobi
            assert len(walks) == 1 and list(opmatrix._TABLES) == [key]
            for k, pair in zip(kernels, warm):
                clear_matrix_cache()
                assert not opmatrix._TABLES and opmatrix._TABLES.total == 0
                for got, want in zip(_pair(P, k, rule), pair):
                    np.testing.assert_array_equal(got, want)
            walks.clear()
    clear_matrix_cache()


def test_the_mesh_tables_stay_within_their_byte_bound(monkeypatch):
    # the tables go least recently used first, as the shared cache's
    # entries do; one larger than the bound is used but not kept, and
    # clear_matrix_cache empties them
    rule = RULE.with_panels(8)
    kern = rl_family().instantiate(0.5)
    halves = [standard_left(0.0, 1.0), standard_right(0.0, 1.0), standard_left(-1.0, 2.0)]
    clear_matrix_cache()
    want = _pair(halves[0], kern, rule)
    size = opmatrix._TABLES.total
    monkeypatch.setattr(opmatrix, "_TABLE_BYTES", 2 * size)
    for P in halves:
        _pair(P, kern, rule)
        assert sum(s for _, s in opmatrix._TABLES.values()) == opmatrix._TABLES.total <= 2 * size
    assert list(opmatrix._TABLES) == [(P, rule) for P in halves[1:]]
    clear_matrix_cache()
    assert not opmatrix._TABLES and opmatrix._TABLES.total == 0
    monkeypatch.setattr(opmatrix, "_TABLE_BYTES", size // 2)
    for got, w in zip(_pair(halves[0], kern, rule), want):
        np.testing.assert_array_equal(got, w)
    assert not opmatrix._TABLES and opmatrix._TABLES.total == 0
    clear_matrix_cache()


def test_a_check_and_a_kop_start_no_thread():
    # the package runs on its caller's thread: a cold 16x32 Green check and
    # one kop leave one thread and never import concurrent.futures
    code = (
        "import sys, threading, genfrac as g\n"
        "e = lambda s: g.parse_expression(s, arity=2)\n"
        "P = g.ParameterSet(0.0, 1.0, 0.3, 0.7)\n"
        "g.verify_green(e('t1*t2'), e('t1+t2'), e('1+t1*t2'), 0.4, P, P, g.rl_family(),\n"
        "               g.Rectangle(0.0, 1.0, 0.0, 1.0), g.QuadratureRule(panels=32))\n"
        "g.kop(g.OperatorRequest('K', 0.4, P, g.rl_family()), g.parse_expression('t'), 0.5)\n"
        "print('concurrent.futures' in sys.modules, threading.active_count())\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.stdout.split() == ["False", "1"], out.stderr
