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

Implementation notes.  Every term is a Frobenius product <K, S> of an
operator matrix K from :mod:`genfrac.opmatrix` with a moment matrix S
that depends only on the two functions and the mesh.  For iint u (K_P v)
with K_P acting along axis 1, S = (wx u wy) @ v.T on the grid; along
axis 2, S = (wx u wy).T @ v.  An edge jump
J(u, v; P, axis) = int [u (K_P v)]_{t=a}^{t=b} d(other axis) is
<E, S_end> with E the two end rows of K_P (``kop_end_rows``) and S_end
the same moment with u sampled at (a, b) and weighted (-1, +1) along
``axis``.  K_P itself is never assembled: with L and R the matrices of
the unweighted halves <a, b, 1, 0> and <a, b, 0, 1>, K_P = p L + q R and
K_{P*} = q L + p R, so a term is p <L, S> + q <R, S> (a zero weight
skips its half) and P, P* and every other p-set on the interval share
both halves.  R comes from its own convolution rows, never from L's
transpose, which would make the integration-by-parts residual vanish by
construction.  A check first reads the unweighted values <L, S> and
<R, S> that earlier checks kept with each half's cached pair (mesh rows,
end rows), under a key of the term (ends, axis, the specs' ``cache_key``
and derivative, the rectangle; the pair's own key holds the kernel and
the rule).  If every value is there, it builds, fetches, assembles and
contracts nothing.  Otherwise it builds the moments of the terms that
lack a value, then fetches each half it still needs once, which
assembles it on the calling thread on a cache miss, and contracts, in a
fixed order that does not depend on the BLAS thread count.  The cache
keeps a pair once a second check asks for it, and keeps values only
with a kept pair, so a sweep over fresh orders keeps none, and they go
when their pair is evicted or the cache is cleared.  Moments are cached
beside the matrices, on their first request, keyed on the specs'
``cache_key`` (their expression trees) and the mesh (rectangle and
rule), so a function quadruple checked against many orders, p-sets and
kernels builds them once.  The grids they are built from are sampled
again for each new moment and not kept.  A spec without an expression
is never cached, and neither is a value of its terms.
The A-fields use the tested splitting
A_P v = B_P v + p v(a) k(t-a) - q v(b) k(b-t) (differentiating
numerically would lose the (t-a)**(-alpha) edge blow-up), and with
P* = <a, b, q, p> its kernel terms are jumps too:

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
from functools import lru_cache

import numpy as np

from .funcspec import FuncSpec
from .opmatrix import cached, kept_pair, kop_pair, recall, remember
from .pset import ParameterSet, real, standard_left, standard_right
from .quadrature import (
    DEFAULT_RULE,
    NonFiniteSampleError,
    QuadratureRule,
    Rectangle,
    rectangle_mesh,
    sample,
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
            "rule": self.rule.to_json_dict(),
            "inputs": dict(self.inputs),
        }


def _make_report(identity, lhs, rhs_area, rhs_boundary, alpha, kernel_label, psets, rule, inputs):
    abs_residual = abs(lhs - (rhs_area + rhs_boundary))
    # relative to the terms at any scale; 0 only when all three are 0
    scale = max(abs(lhs), abs(rhs_area) + abs(rhs_boundary))
    rel_residual = abs_residual / scale if scale else 0.0
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


def _check_inputs(specs, alpha, p1: ParameterSet, p2: ParameterSet, rect: Rectangle) -> float:
    """Refuse inputs the checks cannot take; returns alpha as a float (not a bool)."""
    for spec in specs:
        if spec.arity != 2:
            raise ValueError(f"{spec.label!r} must be a two-variable function")
    alpha = real(alpha, "alpha")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
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
    return alpha


def _sample(spec: FuncSpec, deriv: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """spec, or its partial along axis ``deriv`` (0: none), on the grid x by y."""
    fn = spec.partial(deriv) if deriv else spec.fn
    label = "<derivative>" if deriv else spec.label
    return np.ascontiguousarray(sample(fn, x[:, None], y[None, :], message=f"{label!r} non-finite"))


def _spec_cached(tag, specs, rect, rule, build):
    """Cache ``build()`` on the specs' expression keys and the mesh.

    ``specs`` pairs each spec with a derivative axis.  ``cache_key``
    identifies a function; a label does not, so a spec without one is not
    cached.
    """
    if any(spec.cache_key is None for spec, _ in specs):
        return cached(None, build)
    key = tuple((spec.cache_key, deriv) for spec, deriv in specs)
    return cached((tag, key, rect, rule), build)


def _moment(axis, u, v, rect, rule, deriv=0, ends=False):
    """S with <K_P, S> = iint u (K_P v) (or, with ``ends``, the jump J(u, v)).

    K_P acts along ``axis`` and v is differentiated along ``deriv``.  The
    grids of u and v are sampled for the moment and not kept: a grid costs
    O(N^2) against the moment's O(N^3) product, and the shared cache holds
    more moments without them.
    """

    def build():
        x, wx, y, wy = mesh = rectangle_mesh(rect, rule)
        if ends:  # u at (a, b) along ``axis``, weighted (-1, +1)
            pts, signs = np.array(rect.axis1 if axis == 1 else rect.axis2), np.array([-1.0, 1.0])
            x, wx, y, wy = (pts, signs, y, wy) if axis == 1 else (x, wx, pts, signs)
        W = wx[:, None] * _sample(u, 0, x, y) * wy
        V = _sample(v, deriv, mesh[0], mesh[2])
        return W @ V.T if axis == 1 else W.T @ V

    tag = ("jump" if ends else "moment", axis)
    return _spec_cached(tag, [(u, 0), (v, deriv)], rect, rule, build)


@lru_cache(maxsize=128, typed=True)
def _halves(a: float, b: float) -> tuple[ParameterSet, ParameterSet]:
    """<a, b, 1, 0> and <a, b, 0, 1>, validated once per interval."""
    return standard_left(a, b), standard_right(a, b)


def _sides(pset: ParameterSet):
    """K_P and K_{P*} as weighted halves, ((weight, half), (weight, half)) each.

    The halves are the unweighted p-sets <a, b, 1, 0> and <a, b, 0, 1>.
    """
    left, right = _halves(pset.a, pset.b)
    return ((pset.p, left), (pset.q, right)), ((pset.q, left), (pset.p, right))


def _contract(K: np.ndarray, S: np.ndarray) -> float:
    """The Frobenius product <K, S>, summed in an order that no BLAS thread count changes.

    ``np.vdot`` calls BLAS ddot, whose bits depend on the thread count
    from about 10^4 elements.  Here ``einsum`` sums each column of the
    products down the rows, and numpy's pairwise sum adds the columns:
    both run in numpy's own loops, in a fixed order.
    """
    return float(np.einsum("ij,ij->j", K, S).sum())


def _terms(kern, rect, rule, *specs) -> list[float]:
    """Each ``(halves, axis, u, v, deriv, ends)`` of ``specs`` as a sum of w <K_half, S>.

    That is iint u (K_P v), or with ``ends`` the jump J(u, v; P, axis).
    A value <K_half, S> kept with its half is read back.  The others take,
    in this order, the moments of the terms that lack a value, the halves
    (each fetched at most once, so a half the cache does not keep is
    assembled once per check and counts as one request toward its
    admission) and the contractions, whose values are then kept with
    their half if the cache keeps it.  A term with no weighted half has
    no value, but its moment is still built: that samples its specs,
    which must be finite.
    """
    corners = (rect.a1, rect.b1, rect.a2, rect.b2)
    kept = {}  # each half -> its pair if the shared cache keeps it, else None
    rows = []  # each term's value key and (weight, half, kept value or None)s
    for halves, axis, u, v, deriv, ends in specs:
        # the pair's key holds the kernel and the rule; a spec without a
        # cache_key gives its terms no key
        key = None
        if u.cache_key is not None and v.cache_key is not None:
            key = (ends, axis, u.cache_key, v.cache_key, deriv, corners)
        row = []
        for weight, half in halves:
            if weight != 0.0:
                if half not in kept:
                    kept[half] = kept_pair(half, kern, rule)
                row.append((weight, half, recall(kept[half], key)))
        rows.append((key, row))
    moments = [
        _moment(axis, u, v, rect, rule, deriv, ends)
        if not row or any(value is None for *_, value in row)
        else None
        for (_, row), (_, axis, u, v, deriv, ends) in zip(rows, specs)
    ]
    fetched = {}
    values = []
    for (key, row), S, (*_, ends) in zip(rows, moments, specs):
        total = 0.0
        for weight, half, value in row:
            if value is None:
                if half not in fetched:
                    fetched[half] = kop_pair(half, kern, rule)
                value = _contract(fetched[half][ends], S)
                remember(fetched[half], key, value)
            total += weight * value
        values.append(total)
    return values


def _warn_if_vacuous(lhs: float, area: float, boundary: float) -> None:
    """Warn when every identity term is below 1e-12: the check then shows nothing."""
    if max(abs(lhs), abs(area), abs(boundary)) < 1e-12:
        warnings.warn(
            "all three identity terms are below 1e-12; the check is vacuous",
            stacklevel=3,
        )


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
    alpha = _check_inputs((f, g, eta1, eta2), alpha, p1, p2, rect)
    (k1, k1s), (k2, k2s) = _sides(p1), _sides(p2)
    # K_{P*} weights the same two halves, never K_P's transpose: the
    # residual would then vanish by construction.
    lhs1, lhs2, rhs1, rhs2 = _terms(
        kernel.instantiate(alpha),
        rect,
        rule,
        (k1, 1, g, eta1, 0, False),
        (k2, 2, f, eta2, 0, False),
        (k1s, 1, eta1, g, 0, False),
        (k2s, 2, eta2, f, 0, False),
    )
    lhs = lhs1 + lhs2
    rhs = rhs1 + rhs2
    _warn_if_vacuous(lhs, rhs, 0.0)
    inputs = {"f": f.label, "g": g.label, "eta": f"{eta1.label};{eta2.label}"}
    return _make_report("ibp2d", lhs, rhs, 0.0, alpha, kernel.label, (p1, p2), rule, inputs)


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
    alpha = _check_inputs((f, g, eta), alpha, p1, p2, rect)
    # C^1 hypotheses: all three operands need partial derivatives.
    for spec, axis in ((g, 1), (f, 2), (eta, 1), (eta, 2)):
        spec.partial(axis)
    (k1, k1s), (k2, k2s) = _sides(p1), _sides(p2)
    lhs1, lhs2, area1, area2, jump1, jump2, edge1, edge2 = _terms(
        kernel.instantiate(1.0 - alpha),
        rect,
        rule,
        (k1, 1, g, eta, 1, False),
        (k2, 2, f, eta, 2, False),
        (k1s, 1, eta, g, 1, False),
        (k2s, 2, eta, f, 2, False),
        (k1, 1, g, eta, 0, True),
        (k2, 2, f, eta, 0, True),
        (k1s, 1, eta, g, 0, True),
        (k2s, 2, eta, f, 0, True),
    )

    # LHS: iint g * (B_{P1} eta) + f * (B_{P2} eta)
    lhs = lhs1 + lhs2

    # RHS area: -iint eta * (A_{P1*} g + A_{P2*} f), with A = B + kernel
    # boundary corrections (difference-kernel Leibniz rule) as edge jumps.
    area = -(area1 + area2)
    area += jump1
    area += jump2

    # Boundary: oint eta [(K_{P1*} g) dt2 - (K_{P2*} f) dt1], counterclockwise.
    boundary = edge1 + edge2

    _warn_if_vacuous(lhs, area, boundary)
    inputs = {"f": f.label, "g": g.label, "eta": eta.label}
    return _make_report("green", lhs, area, boundary, alpha, kernel.label, (p1, p2), rule, inputs)


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


# The check of each identity, under the key its reports carry; used by
# convergence_study and by `genfrac verify`.  Each entry looks its check
# up when called, so that a wrapper put on this module's attribute (as
# perfbench's tracer does) sees every call.
IDENTITY_CHECKS = {
    "ibp2d": lambda **inputs: verify_ibp_2d(**inputs),
    "green": lambda **inputs: verify_green(**inputs),
    "green_rl_corollary": lambda **inputs: verify_green_rl_corollary(**inputs),
}


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
    if identity not in IDENTITY_CHECKS:
        raise ValueError(f"unknown identity {identity!r}")
    return [IDENTITY_CHECKS[identity](rule=r, **inputs) for r in rules]


def reports_to_csv(reports: list[VerificationReport]) -> str:
    """Convergence table: nodes, rel_residual, lhs, rhs_area, rhs_boundary."""
    lines = ["nodes,rel_residual,lhs,rhs_area,rhs_boundary"]
    for r in reports:
        lines.append(
            f"{r.rule.node_count},{r.rel_residual!r},{r.lhs!r},{r.rhs_area!r},{r.rhs_boundary!r}"
        )
    return "\n".join(lines) + "\n"
