"""Quadrature engines.

Composite Gauss-Legendre rules on graded panel meshes for smooth and
endpoint-rough integrands, one mesh-aligned rule for weakly singular
convolutions (Gauss-Jacobi next to the target, geometric Gauss-Legendre
pieces on the panels near it, one fixed Gauss-Legendre rule on every far
panel), tensor-product integration over a rectangle, and counterclockwise
contour integration over its boundary.

The convolution rule splits at the edges of the operand's own mesh, so
:mod:`genfrac.opmatrix` interpolates only the points near each target
one by one; the far points of a panel are the same for every target and
go through one fixed interpolation matrix (product integration with
local corrections: Kolm & Rokhlin 2001, Helsing & Ojala 2008).  The
rule takes two steps: :func:`convolution_walk` lays out the pieces,
which depend on the mesh and the targets alone, and
:func:`convolution_rows` adds a kernel's nodes and weights to them.

All rules use open (Gauss) nodes, so integrands are never sampled at
panel edges, interval endpoints, or the rectangle boundary.  Every
caller-supplied function in the package is sampled through
:func:`sample`, which refuses non-finite values.
"""

from __future__ import annotations

import math
import numbers
import sys
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np
from numpy.polynomial.legendre import leggauss

from .pset import ParameterSet, finite
from .specfun import Kernel

__all__ = [
    "QuadratureRule",
    "Rectangle",
    "NonFiniteSampleError",
    "DEFAULT_RULE",
    "convolution_rows",
    "convolution_walk",
    "convolve",
    "integrate_singular",
    "integrate_2d",
    "contour_integral",
    "composite_nodes",
    "rectangle_mesh",
    "singular_nodes",
    "sample",
]

# Width ratio of the geometric pieces that split a panel next to a
# convolution's target.  At 0.15 the error stalled near 3e-12.
_NEAR_RATIO = 0.3
_LOG_RATIO = -math.log(_NEAR_RATIO)

# Geometric steps toward an interval end in the piece of a convolution at
# that end, where the operand may be rough: _END_DEPTH + 1 Gauss-Legendre
# pieces.  bop on t**0.25 at t = 1e-6 of [0, 1] is off by 0.12 with one
# piece, 0.037 with 5 and 0.011 with 9.
_END_DEPTH = 4

# Entries kept by the caches keyed on the singularity exponent.  Every
# fresh order alpha is a new key, so a sweep over alpha would otherwise
# grow them without limit.
_SIGMA_CACHE_SIZE = 128


class NonFiniteSampleError(ArithmeticError):
    """An integrand produced a non-finite value; message carries the location."""


def sample(fn: Callable, *coords, message: str, suffix: str = "") -> np.ndarray:
    """``fn`` on the broadcast ``coords`` as floats, all of them finite.

    At the first non-finite value (in C order) raises
    :class:`NonFiniteSampleError` with ``message``, the point (``tau=...``
    for one coordinate, ``(t1, t2)=(...)`` for two) and ``suffix``.
    """
    shape = np.broadcast(*coords).shape
    vals = np.asarray(fn(*coords), dtype=float)
    if vals.shape != shape:
        vals = np.broadcast_to(vals, shape)
    if not np.isfinite(vals).all():
        k = int(np.flatnonzero(~np.isfinite(vals))[0])
        at = tuple(float(np.broadcast_to(c, shape).flat[k]) for c in coords)
        point = f"tau={at[0]!r}" if len(at) == 1 else f"(t1, t2)={at!r}"
        raise NonFiniteSampleError(f"{message} at {point}{suffix}")
    return vals


@dataclass(frozen=True)
class QuadratureRule:
    """Panel-structured Gaussian rule.

    :func:`composite_nodes` puts ``order_per_panel`` Gauss-Legendre nodes
    on each of ``panels`` panels, graded toward both endpoints at
    ``grading_strength``; integrands there inherit endpoint roughness of
    type (t - a)**alpha from the convolution fields, which heavy grading
    resolves.  The convolutions split at the same panel edges
    (:func:`convolution_walk`): ``far_order`` points on a far panel,
    ``order_per_panel`` on every piece near the target.
    """

    order_per_panel: int = 16
    panels: int = 8
    grading_strength: float = 6.0

    def __post_init__(self) -> None:
        for name in ("order_per_panel", "panels"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise TypeError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))  # numpy integers too, for JSON
        if self.order_per_panel < 1:
            raise ValueError("order_per_panel must be >= 1")
        if self.panels < 1:
            raise ValueError("panels must be >= 1")
        if not (finite(self.grading_strength) and self.grading_strength >= 1.0):
            raise ValueError(
                f"grading_strength must be finite and >= 1, got {self.grading_strength!r}"
            )

    @property
    def node_count(self) -> int:
        return self.order_per_panel * self.panels

    @property
    def far_order(self) -> int:
        """Points on a far panel of a convolution.  Four more than a panel's
        nodes, so that no far point lands on a node and the matrices of the
        two halves are not each other's transposes by construction."""
        return self.order_per_panel + 4

    def with_panels(self, panels: int) -> "QuadratureRule":
        return QuadratureRule(self.order_per_panel, panels, self.grading_strength)


DEFAULT_RULE = QuadratureRule()


@dataclass(frozen=True)
class Rectangle:
    a1: float
    b1: float
    a2: float
    b2: float

    def __post_init__(self) -> None:
        if not all(map(finite, (self.a1, self.b1, self.a2, self.b2))):
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
    T = np.zeros((n, n))
    T[0, 0] = -sigma / (2.0 - sigma)
    T.flat[n + 1 :: n + 1] = sigma * sigma / (s * (s + 2.0))
    # eigh reads the lower triangle only
    T.flat[n :: n + 1] = 2.0 * k * (k - sigma) / (s * np.sqrt((s - 1.0) * (s + 1.0)))
    x, V = np.linalg.eigh(T)
    mu0 = 2.0 ** (1.0 - sigma) / (1.0 - sigma)  # int_{-1}^{1} (1 + x)**(-sigma) dx
    # V[0] has unit norm in exact arithmetic; rescaling it makes sum(w) == mu0
    v0 = V[0] ** 2
    return x, (mu0 / v0.sum()) * v0


def graded_edges(lo: float, hi: float, panels: int, strength: float) -> np.ndarray:
    """Panel edges refined toward both endpoints at ``strength``."""
    if panels <= 1:
        return np.array([lo, hi], dtype=float)
    mlo = panels // 2
    mhi = panels - mlo
    mid = 0.5 * (lo + hi)
    left = lo + (mid - lo) * (np.arange(mlo + 1) / mlo) ** strength
    right = hi - (hi - mid) * (np.arange(mhi, -1, -1) / mhi) ** strength
    return np.concatenate([left, right[1:]])


@lru_cache(maxsize=None)
def _composite_unit(order: int, panels: int, strength: float):
    """Nodes/weights/edges of the two-sided graded composite rule on [0, 1]."""
    edges = graded_edges(0.0, 1.0, panels, strength)
    xg, wg = _leggauss(order)
    half = 0.5 * np.diff(edges)
    mids = 0.5 * (edges[:-1] + edges[1:])
    return (mids[:, None] + half[:, None] * xg).ravel(), (half[:, None] * wg).ravel(), edges


def _mesh_edges(lo: float, hi: float, rule: QuadratureRule) -> np.ndarray:
    """The panel edges of ``composite_nodes(lo, hi, rule)``, alone.

    The ends are lo and hi themselves: lo + (hi - lo) can round to either
    side of hi, and a convolution at a target on hi must find it on the
    last edge.
    """
    _, _, edges = _composite_unit(rule.order_per_panel, rule.panels, rule.grading_strength)
    out = lo + (hi - lo) * edges
    out[-1] = hi
    return out


def composite_nodes(lo: float, hi: float, rule: QuadratureRule):
    """Composite Gauss-Legendre mesh on [lo, hi] for product integrals.

    Returns ``(nodes, weights, edges)``.  Panels are graded toward both
    endpoints at ``rule.grading_strength``; the edges run from lo to hi
    exactly.
    """
    x, w, _ = _composite_unit(rule.order_per_panel, rule.panels, rule.grading_strength)
    L = hi - lo
    return lo + L * x, L * w, _mesh_edges(lo, hi, rule)


def rectangle_mesh(rect: Rectangle, rule: QuadratureRule):
    """``(x, wx, y, wy)``: the :func:`composite_nodes` of both axes of ``rect``."""
    x, wx, _ = composite_nodes(rect.a1, rect.b1, rule)
    y, wy, _ = composite_nodes(rect.a2, rect.b2, rule)
    return x, wx, y, wy


def singular_nodes(kernel: Kernel, gaps, lo, hi, n: int, touching: int):
    """Kernel-folded Gauss nodes on pieces of a convolution, in distances from its target.

    Piece k covers the distances ``gaps[k] + [lo[k], hi[k]]``.  The first
    ``touching`` pieces start at the target (gap and lo 0), and their
    Gauss-Jacobi weights absorb the kernel's power exactly; the others
    take Gauss-Legendre.  Returns ``(o, w)``, each (pieces, n): offsets o
    in [lo, hi] and weights w with
    ``sum(w * phi(o)) ~ int_lo^hi kernel(gaps + o) phi(o) do``.  The
    kernel's argument is the gap plus the offset, never a difference of
    two rounded points.
    """
    sigma = kernel.singularity_exponent
    xj, wj = _jacobi_left(n, sigma)
    o, half = legendre_offsets(lo, hi, n)
    o[:touching] = half[:touching] * (1.0 + xj)
    u = o + gaps[:, None]
    w = half * kernel.evaluate(u)
    # the Jacobi weight is (u / half)**-sigma; k u**sigma stays smooth
    w[:touching] *= wj * (u[:touching] / half[:touching]) ** sigma
    w[touching:] *= _leggauss(n)[1]
    return o, w


def legendre_offsets(lo, hi, n: int):
    """``(o, half)``: n Gauss-Legendre offsets in each piece [lo, hi], and its half width.

    :func:`singular_nodes` places all but its touching pieces' points so;
    they do not depend on the kernel.
    """
    half = (0.5 * (hi - lo))[:, None]
    return lo[:, None] + half * (1.0 + _leggauss(n)[0]), half


class Rows(NamedTuple):
    """K_P at some targets, as :func:`convolution_rows` makes it.

    The points near a target come in pieces of ``order_per_panel``
    points: piece k lies in panel ``pans[k]`` and adds
    ``sum(w[k] * f(tau[k]))`` to the row of target ``rows[k]``, where
    ``tau = ends[:, None] + offsets``.  The offsets are exact to rounding
    of their own size, so ``(ends - x) + offsets`` is the distance of a
    point from a node x beside it to that accuracy too.  A (row, panel)
    pair can have several pieces, in any order.

    The far panels come in blocks ``(side, rows, pans, w)``, side 0 for
    the leftward half and 1 for the rightward one: ``w`` (rows, panels,
    far_order) holds the weights of each target in ``rows`` at the far
    points of the panels of the slice ``pans``.  Those points are the
    same for every target: with ``ends, offsets = far_points[side]``, the
    points of panel j are ``ends[j] + offsets[j]``.  All weights hold p
    or q.
    """

    rows: np.ndarray
    pans: np.ndarray
    ends: np.ndarray
    offsets: np.ndarray
    w: np.ndarray
    far: list
    far_points: dict


@lru_cache(maxsize=None)
def _plan(rule: QuadratureRule):
    """What the convolutions on a mesh of ``rule`` need of it, whatever its interval.

    For a target of the leftward half in panel J, the panels below the
    first j < J that ends less than half its width before e_J are far;
    that one and the rest up to J are near.  Decided on the rule's unit
    mesh, per side, the rightward one in the panel numbering of the
    mirrored mesh.  Returns the two sides' far counts m_J, and the far
    points' offsets from their panel's right end and their weights, both
    per unit width.
    """
    _, _, unit = _composite_unit(rule.order_per_panel, rule.panels, rule.grading_strength)
    sides = []
    for e in (unit, -unit[::-1]):
        h = np.diff(e)
        counts = []
        for J in range(h.size):
            near = e[J] - e[1 : J + 1] < 0.5 * h[:J]
            counts.append(int(near.argmax()) if near.any() else J)
        sides.append(counts)
    xg, wg = _leggauss(rule.far_order)
    return sides, 0.5 * (1.0 + xg), 0.5 * wg


def _toward_end(s: float):
    """``(lo, hi)`` of the pieces that split [a, a + s] geometrically toward the end a.

    The offsets are from a and below 0, as the points a + |o| of a half,
    which lie at an end minus their offsets, need them.
    """
    cuts = [-s * _NEAR_RATIO**k for k in range(_END_DEPTH + 1)] + [0.0]
    return list(zip(cuts, cuts[1:]))


class Walk(NamedTuple):
    """The kernel-free part of :class:`Rows`, as :func:`convolution_walk` makes it.

    ``pieces`` has one row (row, panel, end, gap, lo, hi, sign, weight) per
    near piece, in the order of :class:`Rows`; the first ``jacobi`` take
    Gauss-Jacobi.  A far group ``(side, rows, pans)`` is a far block of
    :class:`Rows` without its weights.  Those come from ``sides[side] =
    (t, rights, off, far_w)``: the side's targets and panel right ends
    (both mirrored on side 1), the far points' offsets from those ends,
    and the far weights without the kernel.
    """

    pieces: np.ndarray
    jacobi: int
    far: list
    sides: dict
    far_points: dict


def convolution_walk(
    pset: ParameterSet, targets: np.ndarray, edges: np.ndarray, rule: QuadratureRule
) -> Walk:
    """The pieces of K_P at ``targets`` in [a, b] on the mesh of ``edges``, before the kernel.

    ``edges`` are the panel edges of the mesh of [a, b] that
    :func:`composite_nodes` gives for ``rule``.  For a target t in panel
    J, the leftward half splits [a, t] at the edges.  A panel that ends at
    least half its width before e_J is far: one Gauss-Legendre piece of
    ``rule.far_order`` points, the same for every target in J.  The part
    of panel J below t takes Gauss-Jacobi.  A nearer panel is split
    geometrically toward its end at t, at ratio ``_NEAR_RATIO``, into
    Gauss-Legendre pieces.  The piece at a, where the operand may be
    rough, is split geometrically toward a as well, into ``_END_DEPTH`` + 1
    Gauss-Legendre pieces; in the first panel Gauss-Jacobi takes only
    [a + r (t - a), t] at that ratio r.  The rightward half is the
    leftward one of the mirrored targets and mesh.  None of it depends on
    the kernel, so a walk serves every kernel on its mesh.

    A target less than the smallest normal double past an inner edge
    goes to the panel below that edge, and one that close to a (but not
    on it) raises ValueError: its Gauss-Jacobi piece would underflow.
    """
    if edges.size != rule.panels + 1:
        raise ValueError(f"{edges.size} edges for a rule of {rule.panels} panels")
    last = rule.panels - 1
    plan, point_unit, weight_unit = _plan(rule)
    jacobi, near, far, sides, far_points = [], [], [], {}, {}
    for side, weight in enumerate((pset.p, pset.q)):
        if weight == 0.0:
            continue
        t, e, sign = (-targets, -edges[::-1], -1.0) if side else (targets, edges, 1.0)
        rights = e[1:]
        h = (rights - e[:-1])[:, None]
        off = h * point_unit  # the far points from their panel's right end
        sides[side] = (t, rights, off, h * (weight * weight_unit))
        far_points[side] = (edges[:-1], off[::-1]) if side else (rights, -off)
        es, ts = e.tolist(), t.tolist()
        groups = {}  # panel J -> the targets in (e_J, e_(J+1)]; none at a, whose integral is empty
        for r, x in enumerate(ts):
            J = min(bisect_left(es, x), last + 1) - 1
            while J >= 0 and x - es[J] < sys.float_info.min:
                if J == 0:
                    raise ValueError(
                        f"target {sign * x!r} is {x - es[0]!r} from the end {sign * es[0]!r}, "
                        f"closer than the smallest normal double {sys.float_info.min!r}"
                    )
                J -= 1
            if J >= 0:
                groups.setdefault(J, []).append(r)
        # per target, its pieces at a go before the rest of its walk
        at_a, walk = [], []
        for J, rs in groups.items():
            m = plan[side][J]
            if m:  # the far panels in the mesh's own order
                pans = slice(last + 1 - m, last + 1) if side else slice(0, m)
                far.append((side, np.array(rs), pans))
            pan, first = (last - J, last) if side else (J, 0)
            for r in rs:
                x = ts[r]
                d = x - es[J]
                s = 0.0 if J else d * _NEAR_RATIO  # the width of the piece at a
                jacobi.append((r, pan, sign * x, 0.0, 0.0, d - s, sign, weight))
                # a near panel in geometric pieces toward its right end,
                # down to one no wider than twice its gap
                for j in range(m, J):
                    end, top = es[j + 1], es[j + 1] - es[j]
                    if top == 0.0:  # collapsed by rounding on this interval
                        continue
                    gap = x - end
                    # logs apart: top / gap can overflow
                    depth = math.ceil((math.log(top) - math.log(2.0 * gap)) / _LOG_RATIO)
                    p = last - j if side else j
                    for k in range(max(depth, 0) + 1):
                        lo = top * _NEAR_RATIO if k < depth else 0.0
                        if j or k:
                            walk.append((r, p, sign * end, gap, lo, top, sign, weight))
                        else:  # panel 0's first level is the piece at a
                            s = top - lo
                        top = lo
                if s:  # split toward a, where the operand may be rough
                    for lo, hi in _toward_end(s):
                        at_a.append((r, first, sign * es[0], x - es[0], lo, hi, sign, weight))
        near += at_a + walk
    return Walk(np.array(jacobi + near).reshape(-1, 8), len(jacobi), far, sides, far_points)


def convolution_rows(walk: Walk, kernel: Kernel, rule: QuadratureRule) -> Rows:
    """K_P as :class:`Rows` for ``kernel``, from the :func:`convolution_walk` on ``rule``.

    Only the nodes and weights of the pieces are made here.  The far
    distances are formed on each call and never kept, since they are
    (targets, panels, far_order).
    """
    far = []
    for side, rows, pans in walk.far:
        t, rights, off, far_w = walk.sides[side]
        m = pans.stop - pans.start
        u = (t[rows, None] - rights[:m])[:, :, None] + off[:m]
        w = far_w[:m] * kernel.evaluate(u)
        far.append((side, rows, pans, w[:, ::-1] if side else w))
    rows, pans, ends, gaps, lo, hi, sign, weight = walk.pieces.T
    o, w = singular_nodes(kernel, gaps, lo, hi, rule.order_per_panel, walk.jacobi)
    return Rows(
        rows.astype(np.intp),
        pans.astype(np.intp),
        ends,
        -sign[:, None] * o,
        weight[:, None] * w,
        far,
        walk.far_points,
    )


def convolve(f: Callable, pset: ParameterSet, kernel: Kernel, targets, rule, *, message, suffix=""):
    """K_P f at ``targets``, with f sampled at the points of :func:`convolution_rows`.

    The mesh is that of ``composite_nodes(pset.a, pset.b, rule)``.
    ``message`` and ``suffix`` go to :func:`sample`.
    """
    targets = np.asarray(targets, dtype=float)
    walk = convolution_walk(pset, targets, _mesh_edges(pset.a, pset.b, rule), rule)
    K = convolution_rows(walk, kernel, rule)
    near = (K.ends[:, None] + K.offsets).ravel()
    # a far block's points once for all its targets, every point in one sample
    far = []
    for side, _, pans, _ in K.far:
        ends, offsets = K.far_points[side]
        far.append((ends[pans][:, None] + offsets[pans]).ravel())
    vals = sample(f, np.concatenate([near, *far]), message=message, suffix=suffix)
    rows = np.repeat(K.rows, K.w.shape[1])
    out = np.bincount(rows, K.w.ravel() * vals[: near.size], minlength=targets.size)
    start = near.size
    for (_, r, _, w), tau in zip(K.far, far):
        out[r] += w.reshape(r.size, -1) @ vals[start : start + tau.size]
        start += tau.size
    return out


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
    evaluation point sits on an interval endpoint.  Non-finite bounds are
    refused.
    """
    if orientation not in ("lo", "hi"):
        raise ValueError(f"orientation must be 'lo' or 'hi', got {orientation!r}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"integration bounds must be finite, got [{lo!r}, {hi!r}]")
    if not hi > lo:
        return 0.0
    # The rightward half of K at lo, or the leftward half at hi.
    target, p, q = (lo, 0.0, 1.0) if orientation == "lo" else (hi, 1.0, 0.0)
    pset = ParameterSet(lo, hi, p, q)
    out = convolve(
        f, pset, kernel, [target], rule, message="integrand non-finite", suffix=f" on [{lo}, {hi}]"
    )
    return float(out[0])


def integrate_2d(
    F: Callable[[np.ndarray, np.ndarray], np.ndarray],
    rect: Rectangle,
    rule: QuadratureRule = DEFAULT_RULE,
) -> float:
    """Tensor-product composite integral of F over the rectangle.

    F must broadcast over numpy arrays of points.
    """
    x, wx, y, wy = rectangle_mesh(rect, rule)
    vals = sample(F, x[:, None], y[None, :], message="integrand non-finite")
    return float(wx @ vals @ wy)


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
    x, wx, y, wy = rectangle_mesh(rect, rule)
    terms = []
    for edge, sign, fn, t1, t2, w in (
        ("bottom", 1.0, Pfun, x, np.full_like(x, rect.a2), wx),
        ("right", 1.0, Qfun, np.full_like(y, rect.b1), y, wy),
        ("top", -1.0, Pfun, x, np.full_like(x, rect.b2), wx),
        ("left", -1.0, Qfun, np.full_like(y, rect.a1), y, wy),
    ):
        vals = sample(fn, t1, t2, message=f"boundary integrand non-finite on {edge} edge")
        terms.append(sign * float(np.dot(w, vals)))
    return math.fsum(terms)
