r"""Numerical verification of the two operator identities on a rectangle.

The first identity (2D integration by parts) moves an integral-type
operator from one factor of a double integral onto the other, at the
price of swapping the p-set weights:

    iint [g (K_{P1} eta1) + f (K_{P2} eta2)]
        = iint [eta1 (K_{P1*} g) + eta2 (K_{P2*} f)].

The second (generalized Green's theorem) does the same for the
derivative-type operators and picks up a boundary contour term:

    iint [g (B_{P1} eta) + f (B_{P2} eta)]
        = - iint eta [(A_{P1*} g) + (A_{P2*} f)]
        + oint eta [(K_{P1*}^{1-alpha} g) dt2 - (K_{P2*}^{1-alpha} f) dt1],

with the contour taken counterclockwise.  Both checks report left side,
area term, boundary term, and absolute/relative residuals.

Implementation notes.  Area contractions apply the cached operator
matrices of :mod:`genfrac.opmatrix`.  Every other term is an edge jump
J(u, v; P, axis) = int [u (K_P v)]_{t=a}^{t=b} d(other axis), K_P acting
along ``axis``; at t = a only the rightward half of K_P is live and at
t = b only the leftward one, so each end is one convolution row.  The
A-fields use the tested splitting A_P v = B_P v + p v(a) k(t-a) - q v(b) k(b-t)
(differentiating numerically would lose the (t-a)**(-alpha) edge blow-up),
and with P* = <a, b, q, p> its kernel terms are jumps too:

    iint eta p* g(a) k(t1-a) = int g(a) [q int_a^b k(t1-a) eta dt1] dt2
                             = int g(a) (K_{P1} eta)(a) dt2, likewise at b,
    area = -iint eta (B_{P1*} g + B_{P2*} f) + J(g, eta; P1, 1) + J(f, eta; P2, 2).

The four counterclockwise edges collapse to the same jumps taken on
eta K_{P*}: boundary = J(eta, g; P1*, 1) + J(eta, f; P2*, 2).
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .funcspec import FuncSpec
from .opmatrix import kop_matrix
from .pset import ParameterSet, standard_left
from .quadrature import (
    DEFAULT_RULE,
    NonFiniteSampleError,
    QuadratureRule,
    Rectangle,
    composite_nodes,
    convolution_rows,
)
from .specfun import KernelFamily, rl_family

__all__ = [
    "VerificationReport",
    "verify_ibp_2d",
    "verify_green",
    "verify_green_rl_corollary",
    "convergence_study",
    "reports_to_csv",
]

_RESIDUAL_FLOOR = 1e-14


@dataclass(frozen=True)
class VerificationReport:
    """Left side, right side terms and residuals of one identity check."""

    identity: str
    lhs: float
    rhs_area: float
    rhs_boundary: float
    abs_residual: float
    rel_residual: float
    alpha: float
    kernel: str
    psets: tuple[str, ...]
    rule: QuadratureRule
    inputs: dict

    def to_json_dict(self) -> dict:
        return {
            "identity": self.identity,
            "lhs": self.lhs,
            "rhs_area": self.rhs_area,
            "rhs_boundary": self.rhs_boundary,
            "abs_residual": self.abs_residual,
            "rel_residual": self.rel_residual,
            "alpha": self.alpha,
            "kernel": self.kernel,
            "psets": list(self.psets),
            "rule": {
                "family": self.rule.family,
                "order": self.rule.order_per_panel,
                "panels": self.rule.panels,
            },
            "inputs": dict(self.inputs),
        }


def _make_report(identity, lhs, rhs_area, rhs_boundary, alpha, kernel_label, psets, rule, inputs):
    abs_residual = abs(lhs - (rhs_area + rhs_boundary))
    rel_residual = abs_residual / max(
        abs(lhs), abs(rhs_area) + abs(rhs_boundary), _RESIDUAL_FLOOR
    )
    if not all(map(math.isfinite, (lhs, rhs_area, rhs_boundary, abs_residual, rel_residual))):
        raise NonFiniteSampleError(
            f"{identity} check is non-finite: lhs={lhs!r}, rhs_area={rhs_area!r}, "
            f"rhs_boundary={rhs_boundary!r}"
        )
    return VerificationReport(
        identity=identity,
        lhs=lhs,
        rhs_area=rhs_area,
        rhs_boundary=rhs_boundary,
        abs_residual=abs_residual,
        rel_residual=rel_residual,
        alpha=alpha,
        kernel=kernel_label,
        psets=tuple(P.to_text() for P in psets),
        rule=rule,
        inputs=inputs,
    )


def _check_psets(p1: ParameterSet, p2: ParameterSet, rect: Rectangle) -> None:
    if (p1.a, p1.b) != rect.axis1:
        raise ValueError(
            f"p-set interval [{p1.a}, {p1.b}] does not match rectangle axis 1 "
            f"[{rect.a1}, {rect.b1}]"
        )
    if (p2.a, p2.b) != rect.axis2:
        raise ValueError(
            f"p-set interval [{p2.a}, {p2.b}] does not match rectangle axis 2 "
            f"[{rect.a2}, {rect.b2}]"
        )


def _grid(spec, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    fn = spec.fn if isinstance(spec, FuncSpec) else spec
    label = spec.label if isinstance(spec, FuncSpec) else "<derivative>"
    vals = np.broadcast_to(
        np.asarray(fn(x[:, None], y[None, :]), dtype=float), (x.size, y.size)
    )
    if not np.all(np.isfinite(vals)):
        i, j = np.argwhere(~np.isfinite(vals))[0]
        raise NonFiniteSampleError(
            f"{label!r} non-finite at (t1, t2)=({float(x[i])!r}, {float(y[j])!r})"
        )
    return np.ascontiguousarray(vals)


def verify_ibp_2d(
    f: FuncSpec,
    g: FuncSpec,
    eta1: FuncSpec,
    eta2: FuncSpec,
    alpha: float,
    p1: ParameterSet,
    p2: ParameterSet,
    kernel: KernelFamily,
    rect: Rectangle,
    rule: QuadratureRule = DEFAULT_RULE,
) -> VerificationReport:
    """Check the 2D integration-by-parts identity; boundary term is zero."""
    for spec in (f, g, eta1, eta2):
        if spec.arity != 2:
            raise ValueError(f"{spec.label!r} must be a two-variable function")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    _check_psets(p1, p2, rect)
    kern = kernel.instantiate(alpha)

    x, wx, _ = composite_nodes(rect.a1, rect.b1, rule)
    y, wy, _ = composite_nodes(rect.a2, rect.b2, rule)
    F = _grid(f, x, y)
    G = _grid(g, x, y)
    E1 = _grid(eta1, x, y)
    E2 = _grid(eta2, x, y)

    K1 = kop_matrix(p1, kern, rule)
    K2 = kop_matrix(p2, kern, rule)
    K1s = kop_matrix(p1.dual(), kern, rule)
    K2s = kop_matrix(p2.dual(), kern, rule)

    lhs = float(wx @ (G * (K1 @ E1) + F * (E2 @ K2.T)) @ wy)
    rhs = float(wx @ (E1 * (K1s @ G) + E2 * (F @ K2s.T)) @ wy)

    return _make_report(
        "ibp2d",
        lhs,
        rhs,
        0.0,
        alpha,
        kernel.label,
        (p1, p2),
        rule,
        {"f": f.label, "g": g.label, "eta": f"{eta1.label};{eta2.label}"},
    )


def _samples(spec, axis: int, along: np.ndarray, cross: np.ndarray) -> np.ndarray:
    """``spec`` at coordinate ``along`` on ``axis`` and ``cross`` on the other."""
    return _grid(spec, along, cross) if axis == 1 else _grid(spec, cross, along).T


def _edge_jump(u, v, pset, kern, rule, axis, cross, cross_weights) -> float:
    """int [u * (K_P v)]_{t=a}^{t=b} d(cross), with K_P acting along ``axis``."""
    ends = np.array([pset.a, pset.b])
    jump = np.zeros(cross.size)
    for weight, live, tau, w in convolution_rows(pset, kern, ends, rule):
        V = _samples(v, axis, tau.ravel(), cross).reshape(*tau.shape, cross.size)
        Kv = weight * np.einsum("rm,rmc->rc", w, V)
        jump += np.array([-1.0, 1.0])[live] @ (_samples(u, axis, ends[live], cross) * Kv)
    return float(cross_weights @ jump)


def verify_green(
    f: FuncSpec,
    g: FuncSpec,
    eta: FuncSpec,
    alpha: float,
    p1: ParameterSet,
    p2: ParameterSet,
    kernel: KernelFamily,
    rect: Rectangle,
    rule: QuadratureRule = DEFAULT_RULE,
) -> VerificationReport:
    """Check the generalized Green identity (area plus contour terms)."""
    for spec in (f, g, eta):
        if spec.arity != 2:
            raise ValueError(f"{spec.label!r} must be a two-variable function")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    _check_psets(p1, p2, rect)
    # C^1 hypotheses: all three operands need partial derivatives.
    d1g, d2f = g.partial(1), f.partial(2)
    d1e, d2e = eta.partial(1), eta.partial(2)
    kern = kernel.instantiate(1.0 - alpha)
    p1s, p2s = p1.dual(), p2.dual()

    x, wx, _ = composite_nodes(rect.a1, rect.b1, rule)
    y, wy, _ = composite_nodes(rect.a2, rect.b2, rule)
    Fz = _grid(f, x, y)
    Gz = _grid(g, x, y)
    Ez = _grid(eta, x, y)

    K1 = kop_matrix(p1, kern, rule)
    K2 = kop_matrix(p2, kern, rule)
    K1s = kop_matrix(p1s, kern, rule)
    K2s = kop_matrix(p2s, kern, rule)

    # LHS: iint g * (B_{P1} eta) + f * (B_{P2} eta)
    lhs = float(wx @ (Gz * (K1 @ _grid(d1e, x, y)) + Fz * (_grid(d2e, x, y) @ K2.T)) @ wy)

    # RHS area: -iint eta * (A_{P1*} g + A_{P2*} f), with A = B + kernel
    # boundary corrections (difference-kernel Leibniz rule) as edge jumps.
    area = -float(wx @ (Ez * ((K1s @ _grid(d1g, x, y)) + (_grid(d2f, x, y) @ K2s.T))) @ wy)
    area += _edge_jump(g, eta, p1, kern, rule, 1, y, wy)
    area += _edge_jump(f, eta, p2, kern, rule, 2, x, wx)

    # Boundary: oint eta [(K_{P1*} g) dt2 - (K_{P2*} f) dt1], counterclockwise.
    boundary = _edge_jump(eta, g, p1s, kern, rule, 1, y, wy) + _edge_jump(
        eta, f, p2s, kern, rule, 2, x, wx
    )

    if max(abs(lhs), abs(area), abs(boundary)) < 1e-12:
        warnings.warn(
            "all three identity terms are below 1e-12; the check is vacuous",
            stacklevel=2,
        )

    return _make_report(
        "green",
        lhs,
        area,
        boundary,
        alpha,
        kernel.label,
        (p1, p2),
        rule,
        {"f": f.label, "g": g.label, "eta": eta.label},
    )


def verify_green_rl_corollary(
    f: FuncSpec,
    g: FuncSpec,
    eta: FuncSpec,
    alpha: float,
    rect: Rectangle,
    rule: QuadratureRule = DEFAULT_RULE,
) -> VerificationReport:
    """Green identity specialized to the power kernel and left p-sets.

    Written classically, the left side carries left Caputo derivatives and
    the right side right Riemann-Liouville derivatives (their sign flips
    cancel the leading minus of the area term) plus right fractional
    integrals in the contour term.  Numerically it is the same computation
    as :func:`verify_green` with that instantiation, so the report matches
    term by term.
    """
    report = verify_green(
        f,
        g,
        eta,
        alpha,
        standard_left(rect.a1, rect.b1),
        standard_left(rect.a2, rect.b2),
        rl_family(),
        rect,
        rule,
    )
    return dataclasses.replace(report, identity="green_rl_corollary")


def _verify_dispatch(identity: str, inputs: dict, rule: QuadratureRule) -> VerificationReport:
    if identity == "ibp2d":
        return verify_ibp_2d(rule=rule, **inputs)
    if identity == "green":
        return verify_green(rule=rule, **inputs)
    if identity == "green_rl_corollary":
        return verify_green_rl_corollary(rule=rule, **inputs)
    raise ValueError(f"unknown identity {identity!r}")


def convergence_study(
    identity: str,
    inputs: dict,
    rule_sequence: list[QuadratureRule] | tuple[QuadratureRule, ...],
) -> list[VerificationReport]:
    """One report per rule, for a strictly node-increasing rule sequence."""
    rules = list(rule_sequence)
    if not rules:
        raise ValueError("rule_sequence must not be empty")
    counts = [r.node_count for r in rules]
    if any(n2 <= n1 for n1, n2 in zip(counts, counts[1:])):
        raise ValueError(f"rule_sequence must strictly increase in node count, got {counts}")
    return [_verify_dispatch(identity, inputs, r) for r in rules]


def reports_to_csv(reports: list[VerificationReport]) -> str:
    """Convergence table: nodes, rel_residual, lhs, rhs_area, rhs_boundary."""
    lines = ["nodes,rel_residual,lhs,rhs_area,rhs_boundary"]
    for r in reports:
        lines.append(
            f"{r.rule.node_count},{r.rel_residual!r},{r.lhs!r},{r.rhs_area!r},{r.rhs_boundary!r}"
        )
    return "\n".join(lines) + "\n"
