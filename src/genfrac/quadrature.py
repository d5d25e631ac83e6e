"""Quadrature engines.

Composite Gauss-Legendre rules on graded panel meshes for smooth and
endpoint-rough integrands, Gauss-Jacobi weight absorption for weakly
singular convolution kernels, tensor-product integration over a
rectangle, and counterclockwise contour integration over its boundary.

All rules use open (Gauss) nodes, so integrands are never sampled at
panel edges, interval endpoints, or the rectangle boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

from .pset import ParameterSet
from .specfun import Kernel

__all__ = [
    "QuadratureRule",
    "Rectangle",
    "NonFiniteSampleError",
    "DEFAULT_RULE",
    "convolution_rows",
    "integrate_singular",
    "integrate_2d",
    "contour_integral",
    "composite_nodes",
    "singular_nodes",
]

# Panel grading used when a Gauss-Jacobi panel already absorbs the kernel
# singularity: what matters then is a bounded width ratio between
# neighbouring panels, not aggressive refinement.
_ABSORBED_GRADING = 2.0

# Entries kept by the caches keyed on the singularity exponent.  Every
# fresh order alpha is a new key, so a sweep over alpha would otherwise
# grow them without limit.
_SIGMA_CACHE_SIZE = 128


class NonFiniteSampleError(ArithmeticError):
    """An integrand produced a non-finite value; message carries the location."""


@dataclass(frozen=True)
class QuadratureRule:
    """Panel-structured Gaussian rule.

    ``family`` selects how kernel singularities are treated by
    :func:`integrate_singular`:

    * ``gauss_jacobi`` (default): the panel touching the singular endpoint
      uses Gauss-Jacobi nodes whose weight absorbs the kernel's power
      singularity exactly; remaining panels are Gauss-Legendre on a mildly
      graded mesh.
    * ``graded_composite``: pure Gauss-Legendre with panels refined toward
      the singular endpoint at strength max(grading_strength, 2/(1-sigma)).
    * ``gauss_legendre``: uniform Gauss-Legendre panels, no special
      treatment (baseline/diagnostic).

    ``grading_strength`` also controls the two-sided panel grading of the
    product-integral meshes built by :func:`composite_nodes`; integrands
    there inherit endpoint roughness of type (t - a)**alpha from the
    convolution fields, which heavy grading resolves.
    """

    family: str = "gauss_jacobi"
    order_per_panel: int = 16
    panels: int = 8
    grading_strength: float = 6.0

    def __post_init__(self) -> None:
        if self.family not in ("gauss_jacobi", "graded_composite", "gauss_legendre"):
            raise ValueError(f"unknown quadrature family {self.family!r}")
        if self.order_per_panel < 1:
            raise ValueError("order_per_panel must be >= 1")
        if self.panels < 1:
            raise ValueError("panels must be >= 1")
        if not self.grading_strength >= 1.0:
            raise ValueError("grading_strength must be >= 1")

    @property
    def node_count(self) -> int:
        return self.order_per_panel * self.panels

    def with_panels(self, panels: int) -> "QuadratureRule":
        return QuadratureRule(self.family, self.order_per_panel, panels, self.grading_strength)


DEFAULT_RULE = QuadratureRule()


@dataclass(frozen=True)
class Rectangle:
    a1: float
    b1: float
    a2: float
    b2: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in (self.a1, self.b1, self.a2, self.b2)):
            raise ValueError(
                f"rectangle endpoints must be finite, got "
                f"[{self.a1}, {self.b1}] x [{self.a2}, {self.b2}]"
            )
        if not (self.a1 < self.b1 and self.a2 < self.b2):
            raise ValueError(
                f"degenerate rectangle [{self.a1}, {self.b1}] x [{self.a2}, {self.b2}]"
            )

    @property
    def axis1(self) -> tuple[float, float]:
        return (self.a1, self.b1)

    @property
    def axis2(self) -> tuple[float, float]:
        return (self.a2, self.b2)

    @property
    def area(self) -> float:
        return (self.b1 - self.a1) * (self.b2 - self.a2)


@lru_cache(maxsize=None)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = leggauss(n)
    return x, w


@lru_cache(maxsize=_SIGMA_CACHE_SIZE)
def _jacobi_left(n: int, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jacobi nodes/weights on [-1, 1] for the weight (1 + x)**(-sigma).

    Golub-Welsch: the nodes are the eigenvalues of the symmetric Jacobi
    matrix of the recurrence for P_k^(0, -sigma), and each weight is the
    zeroth moment times the squared first component of its eigenvector.
    With s = 2k - sigma the matrix has diagonal sigma**2 / (s (s + 2))
    (k >= 1) and off-diagonal 2k (k - sigma) / (s sqrt(s**2 - 1)).
    """
    k = np.arange(1, n, dtype=float)
    s = 2.0 * k - sigma
    diag = np.empty(n)
    diag[0] = -sigma / (2.0 - sigma)
    diag[1:] = sigma * sigma / (s * (s + 2.0))
    off = 2.0 * k * (k - sigma) / (s * np.sqrt((s - 1.0) * (s + 1.0)))
    # eigh reads the lower triangle only
    x, V = np.linalg.eigh(np.diag(diag) + np.diag(off, -1))
    mu0 = 2.0 ** (1.0 - sigma) / (1.0 - sigma)  # int_{-1}^{1} (1 + x)**(-sigma) dx
    # V[0] has unit norm in exact arithmetic; rescaling it makes sum(w) == mu0
    v0 = V[0] ** 2
    return x, (mu0 / v0.sum()) * v0


def graded_edges(
    lo: float, hi: float, panels: int, strength_lo: float, strength_hi: float
) -> np.ndarray:
    """Panel edges refined toward both endpoints with per-side strengths."""
    if panels <= 1:
        return np.array([lo, hi], dtype=float)
    mlo = panels // 2
    mhi = panels - mlo
    mid = 0.5 * (lo + hi)
    left = lo + (mid - lo) * (np.arange(mlo + 1) / mlo) ** strength_lo
    right = hi - (hi - mid) * (np.arange(mhi, -1, -1) / mhi) ** strength_hi
    return np.concatenate([left, right[1:]])


@lru_cache(maxsize=None)
def _composite_unit(order: int, panels: int, strength: float):
    """Nodes/weights/edges of the two-sided graded composite rule on [0, 1]."""
    xg, wg = _leggauss(order)
    edges = graded_edges(0.0, 1.0, panels, strength, strength)
    half = 0.5 * np.diff(edges)
    mids = 0.5 * (edges[:-1] + edges[1:])
    x = (mids[:, None] + half[:, None] * xg[None, :]).ravel()
    w = (half[:, None] * wg[None, :]).ravel()
    return x, w, edges


def composite_nodes(lo: float, hi: float, rule: QuadratureRule):
    """Composite Gauss-Legendre mesh on [lo, hi] for product integrals.

    Returns ``(nodes, weights, edges)``.  Panels are graded toward both
    endpoints at ``rule.grading_strength``.
    """
    x, w, edges = _composite_unit(rule.order_per_panel, rule.panels, rule.grading_strength)
    L = hi - lo
    return lo + L * x, L * w, lo + L * edges


@lru_cache(maxsize=_SIGMA_CACHE_SIZE)
def _singular_unit(family: str, sigma: float, order: int, panels: int, strength: float):
    """Unit-interval pattern for int_0^L k(u) phi(u) du, kernel singular at 0.

    Returns ``(u_jac, w_jac, e1, u_gl, w_gl)`` in units of L: Jacobi-panel
    nodes and raw weights (empty unless the family absorbs the
    singularity), the first edge, and Gauss-Legendre nodes/weights of the
    remaining panels.
    """
    absorbed = family == "gauss_jacobi" and sigma > 0.0
    if family == "gauss_legendre":
        edges = np.linspace(0.0, 1.0, panels + 1)
    elif absorbed:
        edges = graded_edges(0.0, 1.0, panels, _ABSORBED_GRADING, _ABSORBED_GRADING)
    else:  # graded_composite, or gauss_jacobi with a regular kernel
        s_lo = max(strength, 2.0 / (1.0 - sigma)) if sigma > 0.0 else _ABSORBED_GRADING
        edges = graded_edges(0.0, 1.0, panels, s_lo, _ABSORBED_GRADING)
    if absorbed:
        xj, wj = _jacobi_left(order, sigma)
        e1 = edges[1]
        u_jac = 0.5 * e1 * (xj + 1.0)
        w_jac = wj
        start = 1
    else:
        u_jac = np.empty(0)
        w_jac = np.empty(0)
        e1 = 0.0
        start = 0
    xg, wg = _leggauss(order)
    rest = edges[start:]
    if len(rest) >= 2:
        half = 0.5 * np.diff(rest)
        mids = 0.5 * (rest[:-1] + rest[1:])
        u_gl = (mids[:, None] + half[:, None] * xg[None, :]).ravel()
        w_gl = (half[:, None] * wg[None, :]).ravel()
    else:
        u_gl = np.empty(0)
        w_gl = np.empty(0)
    return u_jac, w_jac, e1, u_gl, w_gl


def singular_nodes(kernel: Kernel, lengths, rule: QuadratureRule):
    """Kernel-folded nodes and weights for leftward-singular convolutions.

    For each L in ``lengths`` builds ``(u, w)`` rows such that
    ``sum(w * phi(u)) ~ int_0^L kernel(u) phi(u) du``.  The kernel values
    are folded into the weights; ``phi`` never sees the singularity.
    Returns arrays of shape ``(len(lengths), M)``.
    """
    sigma = kernel.singularity_exponent
    u_jac, w_jac, e1, u_gl, w_gl = _singular_unit(
        rule.family, sigma, rule.order_per_panel, rule.panels, rule.grading_strength
    )
    L = np.atleast_1d(np.asarray(lengths, dtype=float))[:, None]
    parts_u = []
    parts_w = []
    if u_jac.size:
        uj = L * u_jac[None, :]
        scale = (0.5 * e1 * L) ** (1.0 - sigma)
        parts_u.append(uj)
        parts_w.append(scale * w_jac[None, :] * (kernel.evaluate(uj) * uj**sigma))
    if u_gl.size:
        ug = L * u_gl[None, :]
        parts_u.append(ug)
        parts_w.append(L * w_gl[None, :] * kernel.evaluate(ug))
    u = np.concatenate(parts_u, axis=1)
    w = np.concatenate(parts_w, axis=1)
    return u, w


def convolution_rows(
    pset: ParameterSet, kernel: Kernel, targets: np.ndarray, rule: QuadratureRule
):
    """Yield ``(weight, live, tau, w)`` for each nonzero half of K_P at targets.

    ``weight * sum(w * f(tau), axis=1)`` is that half at ``targets[live]``.
    """
    for weight, sign, L in ((pset.p, -1.0, targets - pset.a), (pset.q, 1.0, pset.b - targets)):
        if weight == 0.0:
            continue
        live = L > 0.0
        if not live.any():
            continue
        u, w = singular_nodes(kernel, L[live], rule)
        yield weight, live, targets[live, None] + sign * u, w


def integrate_singular(
    f: Callable[[np.ndarray], np.ndarray],
    kernel: Kernel,
    lo: float,
    hi: float,
    orientation: str,
    rule: QuadratureRule = DEFAULT_RULE,
) -> float:
    """Integrate f(tau) * kernel(distance to the singular endpoint) on [lo, hi].

    ``orientation`` is ``"lo"`` (kernel argument tau - lo) or ``"hi"``
    (kernel argument hi - tau).  An empty interval (lo >= hi) integrates
    to exactly 0, which is what the convolution operators need when the
    evaluation point sits on an interval endpoint.
    """
    if orientation not in ("lo", "hi"):
        raise ValueError(f"orientation must be 'lo' or 'hi', got {orientation!r}")
    if not hi > lo:
        return 0.0
    # The rightward half of K at lo, or the leftward half at hi.
    target, p, q = (lo, 0.0, 1.0) if orientation == "lo" else (hi, 1.0, 0.0)
    pset = ParameterSet(lo, hi, p, q)
    ((_, _, tau, w),) = convolution_rows(pset, kernel, np.array([target]), rule)
    tau, w = tau[0], w[0]
    fx = np.broadcast_to(np.asarray(f(tau), dtype=float), tau.shape)
    if not np.all(np.isfinite(fx)):
        bad = float(tau[~np.isfinite(fx)][0])
        raise NonFiniteSampleError(
            f"integrand non-finite at tau={bad!r} on [{lo}, {hi}]"
        )
    return float(np.sum(w * fx))


def integrate_2d(
    F: Callable[[np.ndarray, np.ndarray], np.ndarray],
    rect: Rectangle,
    rule: QuadratureRule = DEFAULT_RULE,
) -> float:
    """Tensor-product composite integral of F over the rectangle.

    F must broadcast over numpy arrays of points.
    """
    x, wx, _ = composite_nodes(rect.a1, rect.b1, rule)
    y, wy, _ = composite_nodes(rect.a2, rect.b2, rule)
    vals = np.broadcast_to(
        np.asarray(F(x[:, None], y[None, :]), dtype=float), (x.size, y.size)
    )
    if not np.all(np.isfinite(vals)):
        i, j = np.argwhere(~np.isfinite(vals))[0]
        raise NonFiniteSampleError(
            f"integrand non-finite at (t1, t2)=({float(x[i])!r}, {float(y[j])!r})"
        )
    return float(wx @ vals @ wy)


def _edge_values(fn, t1, t2, edge: str) -> np.ndarray:
    vals = np.broadcast_to(np.asarray(fn(t1, t2), dtype=float), np.broadcast(t1, t2).shape)
    if not np.all(np.isfinite(vals)):
        k = int(np.flatnonzero(~np.isfinite(vals))[0])
        at = tuple(float(np.broadcast_to(t, vals.shape).flat[k]) for t in (t1, t2))
        raise NonFiniteSampleError(
            f"boundary integrand non-finite on {edge} edge at (t1, t2)={at!r}"
        )
    return vals


def contour_integral(
    Pfun: Callable[[np.ndarray, np.ndarray], np.ndarray],
    Qfun: Callable[[np.ndarray, np.ndarray], np.ndarray],
    rect: Rectangle,
    rule: QuadratureRule = DEFAULT_RULE,
) -> float:
    """Counterclockwise boundary integral of Pfun dt1 + Qfun dt2.

    Edge order and orientation: bottom (t2 = a2, t1 ascending), right
    (t1 = b1, t2 ascending), top (t2 = b2, t1 descending), left
    (t1 = a1, t2 descending).
    """
    x, wx, _ = composite_nodes(rect.a1, rect.b1, rule)
    y, wy, _ = composite_nodes(rect.a2, rect.b2, rule)
    bottom = float(np.dot(wx, _edge_values(Pfun, x, np.full_like(x, rect.a2), "bottom")))
    right = float(np.dot(wy, _edge_values(Qfun, np.full_like(y, rect.b1), y, "right")))
    top = -float(np.dot(wx, _edge_values(Pfun, x, np.full_like(x, rect.b2), "top")))
    left = -float(np.dot(wy, _edge_values(Qfun, np.full_like(y, rect.a1), y, "left")))
    return math.fsum((bottom, right, top, left))
