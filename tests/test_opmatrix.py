"""Operator matrices: the end rows against the direct per-point operator,
K_P as the weighted sum of its two unweighted halves, the halves against
the Riemann-Liouville closed form on any scale, quadrature points that
land exactly on a mesh node, and assembly on the worker thread: row
blocks, pending builds, fork and interpreter exit."""

import math
import multiprocessing
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from genfrac import opmatrix
from genfrac.funcspec import parse_expression
from genfrac.opmatrix import assembling, clear_matrix_cache, kop_end_rows, kop_matrix
from genfrac.ops1d import OperatorRequest, kop
from genfrac.pset import ParameterSet, standard_left, standard_right
from genfrac.quadrature import QuadratureRule, composite_nodes, convolution_rows
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


@pytest.mark.parametrize("width", [1e-9, 1e-11, 1e-13])
@pytest.mark.parametrize("side", ["left", "right"])
def test_halves_stay_finite_and_exact_on_tiny_intervals(side, width):
    # end panels are ~3e-8 of the width here, so unscaled node differences
    # multiply out past the range of a double
    for M, got, exact in _half_on_powers(side, 0.5, 0.0, width, 32):
        assert np.isfinite(M).all()
        assert abs(got - exact).max() <= 1e-13 * abs(exact).max()


@pytest.mark.parametrize("interval", [(5.0, 5.01), (-1000.0, -999.0), (1e4, 1e4 + 1.0)])
def test_quadrature_points_on_a_mesh_node(interval):
    # off the origin, some rounded points t -/+ u of the 16x32 rule equal a
    # mesh node exactly, where the second form divides by zero
    a, b = interval
    kern = rl_family().instantiate(0.4)
    rule = RULE.with_panels(32)
    nodes, _, _ = composite_nodes(a, b, rule)
    v = parse_expression(f"1+((t-{a!r})/{b - a!r})^3", arity=1)
    clear_matrix_cache()
    for P in (standard_left(a, b), standard_right(a, b)):
        ((_, live, tau, _),) = convolution_rows(P, kern, nodes, rule)
        rows = np.flatnonzero(live)[np.isin(tau, nodes).any(axis=1)]
        assert rows.size > 0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            M, E = kop_matrix(P, kern, rule), kop_end_rows(P, kern, rule)
        assert np.isfinite(M).all() and np.isfinite(E).all()
        req = OperatorRequest("K", 0.4, P, rl_family(), rule)
        vn = v(nodes)
        for i in rows[np.linspace(0, rows.size - 1, 12).astype(int)]:
            assert abs(M[i] @ vn - kop(req, v, nodes[i])) <= 1e-12 * (abs(M[i]) @ abs(vn))


# -- assembly on the worker thread

SRC = Path(__file__).resolve().parents[1] / "src"


def _pair(P, kern, rule):
    return np.array(kop_matrix(P, kern, rule)), np.array(kop_end_rows(P, kern, rule))


@pytest.mark.parametrize(
    "kernel, interval",
    [(rl_family(), (0.0, 1.0)), (tempered_family(1.0), (5.0, 5.01)), (rl_family(), (-1e3, -999.0))],
    ids=["rl", "tempered", "far"],
)
def test_row_blocks_do_not_change_a_bit(monkeypatch, kernel, interval):
    # one block against blocks of a few rows, whose panels often hold a
    # single point; 16x32 on a mixed p-set
    rule = RULE.with_panels(32)
    P, kern = ParameterSet(*interval, 0.3, 0.7), kernel.instantiate(0.4)
    clear_matrix_cache()
    monkeypatch.setattr(opmatrix, "_BLOCK_POINTS", 2**30)
    whole = _pair(P, kern, rule)
    clear_matrix_cache()
    monkeypatch.setattr(opmatrix, "_BLOCK_POINTS", 8 * rule.node_count)
    blocks = _pair(P, kern, rule)
    clear_matrix_cache()
    for got, want in zip(blocks, whole):
        np.testing.assert_array_equal(got, want)


def test_cold_assemblies_are_bitwise_equal():
    rule = RULE.with_panels(32)
    # 514 targets of 512 points each span several blocks
    assert (rule.node_count + 2) * rule.node_count > 4 * opmatrix._BLOCK_POINTS
    P, kern = ParameterSet(-2.0, 3.0, 0.6, 0.4), tempered_family(0.7).instantiate(0.35)
    runs = []
    for _ in range(2):
        clear_matrix_cache()
        runs.append(_pair(P, kern, rule))
    clear_matrix_cache()
    for got, want in zip(*runs):
        np.testing.assert_array_equal(got, want)


def test_clearing_the_cache_drops_pending_builds():
    rule = RULE.with_panels(32)
    P, kern = standard_left(0.0, 1.0), rl_family().instantiate(0.45)
    clear_matrix_cache()
    want = _pair(P, kern, rule)
    clear_matrix_cache()
    with assembling([P, standard_right(0.0, 1.0)], kern, rule):
        assert len(opmatrix._PENDING) == 2
        clear_matrix_cache()
        assert opmatrix._PENDING == {}
        # a miss after the drop builds the matrix afresh
        got = _pair(P, kern, rule)
    assert opmatrix._PENDING == {}
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)
    clear_matrix_cache()


def test_a_block_that_raises_drops_its_builds():
    rule = RULE.with_panels(16)
    kern = rl_family().instantiate(0.55)
    clear_matrix_cache()
    with pytest.raises(KeyError):
        with assembling([standard_left(0.0, 1.0), standard_right(0.0, 1.0)], kern, rule):
            raise KeyError("in the block")
    assert opmatrix._PENDING == {}
    assert not any(key[0] == "kop" for key in opmatrix._CACHE)


def _assemble_and_send(conn, alpha, rule):
    M = kop_matrix(standard_left(0.0, 1.0), rl_family().instantiate(alpha), rule)
    conn.send(np.array(M))
    conn.close()


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs the fork start method"
)
def test_a_forked_child_assembles_after_its_parent_did():
    rule = RULE.with_panels(8)
    kop_matrix(standard_left(0.0, 1.0), rl_family().instantiate(0.3), rule)  # the worker runs
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_assemble_and_send, args=(send, 0.35, rule))
    child.start()
    try:
        assert recv.poll(60), "the forked child did not finish a new matrix within 60 s"
        got = recv.recv()
    finally:
        child.join(60)
        if child.is_alive():
            child.kill()
            child.join()
    assert child.exitcode == 0
    want = kop_matrix(standard_left(0.0, 1.0), rl_family().instantiate(0.35), rule)
    np.testing.assert_array_equal(got, want)


def test_an_interpreter_exits_after_assembling():
    # one matrix assembled, and a second still pending when the script ends
    code = (
        "from genfrac.opmatrix import assembling, kop_matrix\n"
        "from genfrac.pset import standard_left, standard_right\n"
        "from genfrac.quadrature import QuadratureRule\n"
        "from genfrac.specfun import rl_family\n"
        "rule, kern = QuadratureRule(panels=32), rl_family().instantiate(0.4)\n"
        "kop_matrix(standard_left(0.0, 1.0), kern, rule)\n"
        "pending = assembling([standard_right(0.0, 1.0)], kern, rule)\n"
        "print('done')\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "done\n"


def test_import_starts_no_worker():
    # the worker and concurrent.futures come with the first assembly
    code = (
        "import sys, threading, genfrac; "
        "print('concurrent.futures' in sys.modules, threading.active_count())"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.stdout.split() == ["False", "1"], out.stderr
