"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
are produced.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from genfrac.corpus import CORPUS_RECT, iter_corpus, run_corpus
from genfrac.funcspec import FuncSpec, parse_expression
from genfrac.identities import verify_green, verify_green_rl_corollary, verify_ibp_2d
from genfrac.ops1d import OperatorRequest, _kop_values, aop, bop, kop
from genfrac.pset import ParameterSet, dual, parse_psets, standard_left, standard_right
from genfrac.quadrature import (
    QuadratureRule,
    Rectangle,
    composite_nodes,
    contour_integral,
    integrate_2d,
    integrate_singular,
)
from genfrac.specfun import euler_oracle, kernel_family_from_label, rl_family, tempered_family

IBP_CONST_BOTH_SIDES = 1.5045055561273500985  # 4 / (3 gamma(3/2))

ALPHAS = (0.25, 0.5, 0.75)
BETAS = (0.0, 1.0, 2.0, 2.5)
KERNELS = (rl_family(), tempered_family(1.0))
LEFT = standard_left(0.0, 1.0)
RIGHT = standard_right(0.0, 1.0)
MIXED = ParameterSet(0.0, 1.0, 0.5, 0.5)
RECT = CORPUS_RECT
INTERIOR_T = np.linspace(0.025, 0.975, 20)


def _criterion(num, desc, ok, detail=""):
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {desc}{detail}")
    assert ok, f"criterion {num} failed: {desc}{detail}"


def _rel(value, oracle):
    return abs(value - oracle) / max(abs(oracle), 1e-12)


def _power_funcs(beta):
    left = parse_expression("1" if beta == 0.0 else f"t^{beta!r}", arity=1)
    right = parse_expression("1" if beta == 0.0 else f"(1-t)^{beta!r}", arity=1)
    return left, right


@pytest.fixture(scope="module")
def corpus_default():
    t0 = time.perf_counter()
    doc = run_corpus()
    return doc, time.perf_counter() - t0


def test_criterion_01_reduction_suite():
    t0 = time.perf_counter()
    rl = rl_family()
    worst = {"K": 0.0, "B": 0.0, "A": 0.0}
    for alpha in ALPHAS:
        for beta in BETAS:
            f_left, f_right = _power_funcs(beta)
            for side, pset, f in (("left", LEFT, f_left), ("right", RIGHT, f_right)):
                sign = 1.0 if side == "left" else -1.0
                kreq = OperatorRequest("K", alpha, pset, rl)
                areq = OperatorRequest("A", alpha, pset, rl)
                breq = OperatorRequest("B", alpha, pset, rl)
                for t in INTERIOR_T:
                    t = float(t)
                    worst["K"] = max(
                        worst["K"],
                        _rel(kop(kreq, f, t), euler_oracle(side, "integral", alpha, beta, 0.0, 1.0, t)),
                    )
                    cap = euler_oracle(side, "caputo_derivative", alpha, beta, 0.0, 1.0, t)
                    worst["B"] = max(worst["B"], _rel(bop(breq, f, t), sign * cap))
                    rld = euler_oracle(side, "rl_derivative", alpha, beta, 0.0, 1.0, t)
                    worst["A"] = max(worst["A"], _rel(aop(areq, f, t), sign * rld))
    elapsed = time.perf_counter() - t0
    ok = worst["K"] <= 1e-8 and worst["B"] <= 1e-8 and worst["A"] <= 1e-5 and elapsed <= 5.0
    _criterion(
        1,
        "reduction to classical operators on powers",
        ok,
        f" (K {worst['K']:.1e}, B {worst['B']:.1e}, A {worst['A']:.1e}, {elapsed:.1f}s)",
    )


def test_criterion_02_caputo_of_constant():
    worst = 0.0
    for c in ("0", "1", "-3.7"):
        f = parse_expression(c, arity=1)
        for kernel in KERNELS:
            for pset in (LEFT, RIGHT, MIXED):
                for alpha in ALPHAS:
                    req = OperatorRequest("B", alpha, pset, kernel)
                    for t in (0.0, 0.37, 1.0):
                        worst = max(worst, abs(bop(req, f, t)))
    _criterion(2, "derivative-type operator annihilates constants", worst <= 1e-12, f" (max |B c| {worst:.1e})")


def test_criterion_03_dual_involution():
    rng = np.random.default_rng(99)
    ok = dual(standard_left(0.0, 1.0)) == standard_right(0.0, 1.0)
    for _ in range(50):
        a = float(rng.uniform(-5, 5))
        b = a + float(rng.uniform(1e-3, 10))
        p, q = (float(v) for v in rng.uniform(-3, 3, 2))
        P = ParameterSet(a, b, p, q)
        D = dual(P)
        ok = ok and (D.a, D.b, D.p, D.q) == (a, b, q, p)
        DD = dual(D)
        ok = ok and (DD.a, DD.b, DD.p, DD.q) == (P.a, P.b, P.p, P.q)
    _criterion(3, "weight swap is a bitwise involution; left <-> right", ok)


def test_criterion_04_one_dim_integration_by_parts():
    pairs = [
        ("1+t", "t^2"),
        ("t", "t^3"),
        ("t^2-t", "1+2*t"),
        ("3*t+1", "t^2+t"),
        ("t^3", "t-0.5"),
        ("2-t", "t^2"),
    ]
    rule = QuadratureRule(panels=16)
    x, w, _ = composite_nodes(0.0, 1.0, rule)
    worst = 0.0
    for gsrc, esrc in pairs:
        g = parse_expression(gsrc, arity=1)
        eta = parse_expression(esrc, arity=1)
        gx = np.broadcast_to(np.asarray(g.fn(x), dtype=float), x.shape)
        ex = np.broadcast_to(np.asarray(eta.fn(x), dtype=float), x.shape)
        for alpha in ALPHAS:
            for kernel in KERNELS:
                for pset in (LEFT, RIGHT, MIXED):
                    req = OperatorRequest("K", alpha, pset, kernel, rule)
                    req_d = OperatorRequest("K", alpha, pset.dual(), kernel, rule)
                    lhs = float(np.dot(w, gx * _kop_values(req, eta, x)))
                    rhs = float(np.dot(w, ex * _kop_values(req_d, g, x)))
                    worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-14))
    _criterion(4, "one-dimensional integration by parts", worst <= 1e-8, f" (worst {worst:.1e})")


def test_criterion_05_ibp_2d(corpus_default):
    doc, corpus_seconds = corpus_default
    t0 = time.perf_counter()
    one = parse_expression("1", arity=2)
    r = verify_ibp_2d(one, one, one, one, 0.5, LEFT, LEFT, rl_family(), RECT)
    const_ok = (
        abs(r.lhs - IBP_CONST_BOTH_SIDES) <= 1e-6
        and abs(r.rhs_area - IBP_CONST_BOTH_SIDES) <= 1e-6
    )
    worst = max(e["ibp2d"]["rel_residual"] for e in doc["entries"])
    elapsed = corpus_seconds + (time.perf_counter() - t0)
    ok = const_ok and worst <= 1e-5 and elapsed <= 15.0
    _criterion(
        5,
        "two-dimensional integration by parts (constant case + corpus)",
        ok,
        f" (worst {worst:.1e}, {elapsed:.1f}s)",
    )


def test_criterion_06_green_identity(corpus_default):
    doc, _ = corpus_default
    t0 = time.perf_counter()
    worst8 = max(e["green"]["rel_residual"] for e in doc["entries"])
    rule32 = QuadratureRule(panels=32)
    mono_ok = True
    worst_pair = None
    for entry, combo in zip(doc["entries"], iter_corpus()):
        fns, alpha, pspec, kspec = combo
        f = parse_expression(fns["f"], arity=2)
        g = parse_expression(fns["g"], arity=2)
        eta = parse_expression(fns["eta1"], arity=2)
        (p1,) = parse_psets(pspec, RECT.axis1)
        (p2,) = parse_psets(pspec, RECT.axis2)
        kernel = kernel_family_from_label(kspec)
        r32 = verify_green(f, g, eta, alpha, p1, p2, kernel, RECT, rule32)
        r8 = entry["green"]["rel_residual"]
        if r32.rel_residual > r8:
            mono_ok = False
            worst_pair = (fns, alpha, pspec, kspec, r8, r32.rel_residual)

    eta_v = parse_expression("t1*(1-t1)*t2*(1-t2)", arity=2)
    f0 = parse_expression("t1+t2", arity=2)
    g0 = parse_expression("t1*t2", arity=2)
    rv = verify_green(f0, g0, eta_v, 0.5, LEFT, LEFT, rl_family(), RECT)
    vanish_ok = abs(rv.rhs_boundary) <= 1e-10

    one = parse_expression("1", arity=2)
    rn = verify_green(f0, g0, one, 0.5, LEFT, LEFT, rl_family(), RECT)
    two_term = abs(rn.lhs - rn.rhs_area) / max(abs(rn.lhs), abs(rn.rhs_area), 1e-14)
    necessity_ok = two_term > 10.0 * 1e-4 and rn.rel_residual <= 1e-4

    elapsed = time.perf_counter() - t0
    ok = worst8 <= 1e-4 and mono_ok and vanish_ok and necessity_ok and elapsed <= 30.0
    _criterion(
        6,
        "generalized Green identity (corpus, refinement, boundary term)",
        ok,
        f" (worst {worst8:.1e}, mono {mono_ok}, {elapsed:.1f}s"
        + (f", violation {worst_pair}" if worst_pair else "")
        + ")",
    )


def test_criterion_07_corollary_agreement():
    worst = 0.0
    for fns in (("t1+t2", "t1*t2", "sin(t1)*t2"), ("exp(t1-t2)", "t2^2+1", "t1^2*t2")):
        f, g, eta = (parse_expression(s, arity=2) for s in fns)
        for alpha in ALPHAS:
            a = verify_green_rl_corollary(f, g, eta, alpha, RECT)
            b = verify_green(f, g, eta, alpha, LEFT, LEFT, rl_family(), RECT)
            for u, v in ((a.lhs, b.lhs), (a.rhs_area, b.rhs_area), (a.rhs_boundary, b.rhs_boundary)):
                worst = max(worst, abs(u - v) / max(abs(v), 1.0))
    _criterion(7, "power-kernel corollary equals the general identity", worst <= 1e-12, f" (worst {worst:.1e})")


def test_criterion_08_l1_bound(uniform_mesh):
    rng = np.random.default_rng(2026)
    norm_meshes = (uniform_mesh(8, 128), uniform_mesh(8, 256))
    inner_rule = QuadratureRule(order_per_panel=8, panels=4)
    ok = True
    worst_margin = np.inf
    for _ in range(20):
        xs = np.sort(np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 9)]))
        ys = rng.uniform(-1.0, 1.0, xs.size)
        f = FuncSpec.from_callable(
            lambda x, _xs=xs, _ys=ys: np.interp(x, _xs, _ys), arity=1, label="pw-linear"
        )
        for alpha in ALPHAS:
            for kernel in KERNELS:
                req = OperatorRequest("K", alpha, MIXED, kernel, inner_rule)
                kern = kernel.instantiate(alpha)
                kmass_vals = [
                    integrate_singular(lambda u: 1.0, kern, 0.0, 1.0, "lo", QuadratureRule(panels=p))
                    for p in (8, 16)
                ]
                assert abs(kmass_vals[1] - kmass_vals[0]) <= 1e-10 * abs(kmass_vals[1])
                kmass = kmass_vals[1]
                norms = []
                for x, w in norm_meshes:
                    kf = np.abs(_kop_values(req, f, x))
                    fn = np.abs(np.asarray(f.fn(x), dtype=float))
                    norms.append((float(np.dot(w, kf)), float(np.dot(w, fn))))
                assert abs(norms[1][0] - norms[0][0]) <= 1e-4 * max(1.0, norms[1][0])
                kf_norm, f_norm = norms[1]
                bound = (abs(MIXED.p) + abs(MIXED.q)) * kmass * f_norm + 1e-9
                worst_margin = min(worst_margin, bound - kf_norm)
                ok = ok and kf_norm <= bound
    _criterion(8, "L1 operator bound", ok, f" (smallest margin {worst_margin:.2e})")


def test_criterion_09_derivative_relation():
    from genfrac.ops1d import leibniz_boundary_terms

    corpus = ["exp(t)+t^2", "sin(t)", "1+t+t^3", "cos(2*t)", "t^2.5+1", "log(1+t)"]
    worst = 0.0
    for src in corpus:
        f = parse_expression(src, arity=1)
        fa, fb = float(f(0.0)), float(f(1.0))
        for alpha in ALPHAS:
            for kernel in KERNELS:
                kern = kernel.instantiate(1.0 - alpha)
                corr = leibniz_boundary_terms(LEFT, kern, fa, fb)
                areq = OperatorRequest("A", alpha, LEFT, kernel)
                breq = OperatorRequest("B", alpha, LEFT, kernel)
                for t in INTERIOR_T:
                    t = float(t)
                    a_val = aop(areq, f, t)
                    rhs = bop(breq, f, t) + float(corr(np.array([t]))[0])
                    worst = max(worst, abs(a_val - rhs) / max(abs(a_val), abs(rhs), 1e-14))
    _criterion(9, "derivative operators differ by the kernel boundary term", worst <= 1e-5, f" (worst {worst:.1e})")


def test_criterion_10_contour_sanity():
    # curls chosen so the double integral never vanishes on the test
    # rectangles, keeping the relative comparison meaningful
    fields = [
        (lambda X, Y: -Y, lambda X, Y: X + 0.0 * Y, lambda X, Y: 2.0 + 0.0 * X),
        (lambda X, Y: X**2 * Y, lambda X, Y: X * Y**2 + X, lambda X, Y: Y**2 + 1.0 - X**2),
        (lambda X, Y: X + Y**2, lambda X, Y: X**3 + X, lambda X, Y: 3.0 * X**2 + 1.0 - 2.0 * Y),
        (lambda X, Y: Y**3 - X - Y, lambda X, Y: X**2 + Y, lambda X, Y: 2.0 * X - 3.0 * Y**2 + 1.0),
        (lambda X, Y: X * Y, lambda X, Y: X + Y, lambda X, Y: 1.0 - X + 0.0 * Y),
    ]
    rects = [Rectangle(0, 1, 0, 1), Rectangle(-1, 2, 0.5, 3), Rectangle(-2, -1, -3, -1)]
    worst = 0.0
    for P, Q, curl in fields:
        for rect in rects:
            lhs = contour_integral(P, Q, rect)
            rhs = integrate_2d(curl, rect)
            assert abs(rhs) > 0.1, "degenerate test field; curl integral too small"
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-14))
    rot_ok = all(
        abs(contour_integral(lambda X, Y: -Y, lambda X, Y: X + 0.0 * Y, rect) - 2.0 * rect.area)
        <= 1e-10 * max(1.0, 2.0 * rect.area)
        for rect in rects
    )
    _criterion(10, "classical contour consistency", worst <= 1e-10 and rot_ok, f" (worst {worst:.1e})")


def test_criterion_11_determinism(tmp_path):
    t0 = time.perf_counter()
    outputs = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "genfrac.cli", "corpus", "--json", str(path)],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(path.read_bytes())
    elapsed = time.perf_counter() - t0
    identical = outputs[0] == outputs[1]
    parsed = json.loads(outputs[0])
    ok = identical and len(parsed["entries"]) == 144
    _criterion(
        11,
        "corpus output is byte-identical across runs",
        ok,
        f" (two cold runs {elapsed:.1f}s; suite budget 60s, see session summary)",
    )
