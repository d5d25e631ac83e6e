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
rule takes three steps.  A :class:`Mesh`, kept per (interval, rule),
holds what depends on neither targets nor kernel: the composite nodes
and weights, the edges, the far panels of each panel, the far points and
their weights.
:func:`convolution_walk` lays out the pieces near each target on a mesh;
its :class:`Walk` is the one description of them, places their
Gauss-Legendre points and forms every distance that the kernel does not
move.  :func:`convolution_rows` adds what depends on the kernel: the
Gauss-Jacobi points next to each target and the kernel's values.

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

from .pset import ParameterSet, real
from .specfun import Kernel

__all__ = [
    "QuadratureRule",
    "Mesh",
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

# Entries kept by the caches keyed on a float the caller picks: the
# singularity exponent, or an interval.  Every fresh order alpha is a new
# key, so a sweep over alpha would otherwise grow them without limit.
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
    """Panel-structured Gaussian rule: its two fields are all that sets a mesh.

    :func:`composite_nodes` puts ``order_per_panel`` Gauss-Legendre nodes
    on each of ``panels`` panels, graded toward both endpoints at the
    fixed strength ``_GRADING`` (:func:`graded_edges`); integrands there
    inherit endpoint roughness of type (t - a)**alpha from the convolution
    fields, which heavy grading resolves.  The convolutions split at the
    same panel edges (:func:`convolution_walk`): ``far_order`` points on a
    far panel, ``order_per_panel`` on every piece near the target.
    """

    order_per_panel: int = 16
    panels: int = 8

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

    def to_json_dict(self) -> dict:
        """The rule as reports and the corpus name it."""
        return {"family": "gauss_jacobi", "order": self.order_per_panel, "panels": self.panels}

    @property
    def node_count(self) -> int:
        return self.order_per_panel * self.panels

    @property
    def far_order(self) -> int:
        """Points on a far panel of a convolution.  Four more than a panel's
        nodes, so that no far point lands on a node and the matrices of the
        two halves are not each other's transposes by construction."""
        return self.order_per_panel + 4


DEFAULT_RULE = QuadratureRule()


@dataclass(frozen=True)
class Rectangle:
    """[a1, b1] x [a2, b2]; each endpoint any real number but a bool, stored as a float."""

    a1: float
    b1: float
    a2: float
    b2: float

    def __post_init__(self) -> None:
        for name in ("a1", "b1", "a2", "b2"):
            object.__setattr__(self, name, real(getattr(self, name), f"rectangle endpoint {name}"))
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


# Strength of the grading of every mesh toward both ends of its interval,
# a fixed part of the method and not of a rule.
_GRADING = 6.0


def graded_edges(panels: int) -> np.ndarray:
    """Panel edges of [0, 1] refined toward both ends at ``_GRADING``."""
    if panels <= 1:
        return np.array([0.0, 1.0])
    mlo = panels // 2
    mhi = panels - mlo
    left = 0.5 * (np.arange(mlo + 1) / mlo) ** _GRADING
    right = 1.0 - 0.5 * (np.arange(mhi, -1, -1) / mhi) ** _GRADING
    return np.concatenate([left, right[1:]])


def composite_nodes(lo: float, hi: float, rule: QuadratureRule):
    """Composite Gauss-Legendre mesh on [lo, hi] for product integrals.

    Returns ``(nodes, weights, edges)``, the read-only arrays of the
    interval's kept :class:`Mesh`.  Panels are graded toward both
    endpoints; the edges run from lo to hi exactly.
    """
    mesh = Mesh.of(lo, hi, rule)
    return mesh.nodes, mesh.weights, mesh.edges


def rectangle_mesh(rect: Rectangle, rule: QuadratureRule):
    """``(x, wx, y, wy)``: the :func:`composite_nodes` of both axes of ``rect``."""
    x, wx, _ = composite_nodes(rect.a1, rect.b1, rule)
    y, wy, _ = composite_nodes(rect.a2, rect.b2, rule)
    return x, wx, y, wy


def singular_nodes(kernel: Kernel, walk: Walk):
    """Kernel-folded Gauss nodes on the near pieces of ``walk``.

    The first ``walk.jacobi`` pieces start at their target, and their
    Gauss-Jacobi weights absorb the kernel's power exactly; the others
    take Gauss-Legendre at the offsets ``walk.legendre``, whose distances
    the walk keeps.  Returns ``(o, w)``: the Gauss-Jacobi offsets o from
    the pieces' ends, (jacobi, n), and every piece's weights w, (pieces,
    n), with ``sum(w * phi(o)) ~ int kernel(|gap + o|) phi(o) do``.
    """
    j, n = walk.jacobi, walk.legendre.shape[1]
    sigma = kernel.singularity_exponent
    xj, wj = _jacobi_left(n, sigma)
    o = walk.half[:j, None] * (1.0 + xj)
    # half widths and offsets are signed, and gap 0 here; |.| gives lengths exactly
    half, u = np.abs(walk.half[:, None]), np.abs(o)
    w = half * kernel.evaluate(np.concatenate([u, walk.distances]))
    # the Jacobi weight is (u / half)**-sigma; k u**sigma stays smooth
    w[:j] *= wj * (u / half[:j]) ** sigma
    w[j:] *= _leggauss(n)[1]
    return o, w


class Mesh(NamedTuple):
    """A rule's kept mesh of [lo, hi]: its nodes, and what any convolution on it needs.

    ``nodes`` and ``weights`` are the composite Gauss-Legendre rule that
    :func:`composite_nodes` returns, lo + L x and L w for the rule's
    nodes x and weights w on [0, 1] and L = hi - lo.  ``edges`` are its
    panel edges; the ends are lo and hi themselves, as lo + (hi - lo) can
    round to either side of hi and a target on hi must find it on the
    last edge.
    Side 0 is the leftward half, side 1 the rightward one, which walks the
    mirrored mesh.  ``frames[side]`` holds the side's edges as floats
    (negated and reversed on side 1), and ``counts[side]`` per panel J in
    the side's numbering its far panels m_J: those below the first j < J
    that ends less than half its width before e_J, decided on the rule's
    unit mesh so that every interval agrees.  With ``ends, offsets =
    far[side]``, the ``far_order`` far points of panel j are ``ends[j] +
    offsets[j]``, in the mesh's own order and coordinates: back from the
    panel's right end on side 0, on from its left end on side 1.  Their
    weights are the panel ``widths`` times ``far_weights``, which a p-set
    weight scales first.  The arrays are read-only.
    """

    rule: QuadratureRule
    nodes: np.ndarray
    weights: np.ndarray
    edges: np.ndarray
    frames: tuple
    counts: tuple
    far: tuple
    widths: np.ndarray
    far_weights: np.ndarray

    @staticmethod
    @lru_cache(maxsize=_SIGMA_CACHE_SIZE)
    def of(lo: float, hi: float, rule: QuadratureRule) -> Mesh:
        """The mesh of ``rule`` on [lo, hi], built on the first call and kept."""
        unit = graded_edges(rule.panels)
        xg, wg = _leggauss(rule.order_per_panel)
        half = 0.5 * np.diff(unit)[:, None]
        x = (0.5 * (unit[:-1] + unit[1:])[:, None] + half * xg).ravel()
        L = hi - lo
        edges = lo + L * unit
        edges[-1] = hi
        widths = np.diff(edges)[:, None]
        xf, wf = _leggauss(rule.far_order)
        off = widths * (0.5 * (1.0 + xf))  # the far points' distances from their panel's end
        nodes, weights, back, far_weights = lo + L * x, L * (half * wg).ravel(), -off, 0.5 * wf
        for a in (nodes, weights, edges, widths, back, off, far_weights):
            a.flags.writeable = False
        far = ((edges[1:], back), (edges[:-1], off))  # views of read-only edges
        frames, counts = (tuple(edges.tolist()), tuple((-edges[::-1]).tolist())), []
        for e in (unit, -unit[::-1]):
            near = np.tril(e[:-1, None] - e[1:] < 0.5 * np.diff(e), -1)  # [J, j]: j is near J
            m = np.where(near.any(1), near.argmax(1), np.arange(e.size - 1))
            counts.append(tuple(m.tolist()))
        return Mesh(rule, nodes, weights, edges, frames, tuple(counts), far, widths, far_weights)


class Walk(NamedTuple):
    """K_P at some targets before the kernel, as :func:`convolution_walk` lays it out.

    The points near a target come in pieces of ``order_per_panel``
    points, one entry per piece in each of the first five fields.  Piece
    k lies in panel ``pans[k]`` and adds to the row of target ``rows[k]``
    with the weight p or q of its half (``weight[k]``).  Its points lie at
    ``ends[k] + o`` for the offsets ``o = lo + half[k] (1 + x)`` of a
    rule's nodes x on [-1, 1], and its target at ``ends[k] - gap``, so a
    point is ``|gap + o|`` from it, never a difference of two rounded
    points.  Gaps and half widths are negative on the leftward half,
    whose points lie below their targets.  The offsets are exact to
    rounding of their own size, so ``(ends - x) + o`` is the distance of a
    point from a node x beside it to that accuracy too.  A (row, panel)
    pair can have several pieces, in any order.  The first ``jacobi``
    start at their target, which is their end (gap and lo 0), and take
    Gauss-Jacobi, whose nodes move with the kernel (:func:`singular_nodes`);
    the others take Gauss-Legendre, whose offsets, whatever the kernel,
    are ``legendre``, (pieces, order_per_panel), at the distances
    ``distances`` = ``|legendre + gap|`` from their targets.

    The far panels come in groups ``(side, rows, pans, u, c)``, side 0
    for the leftward half and 1 for the rightward one: the targets
    ``rows`` share the far panels of the slice ``pans``, whose points
    (``mesh.far[side]``) are the same for every target.  A kernel's far
    weights are ``c * kernel(u)``: u holds the distances
    ``|(t - end) - offset|``, (rows, panels, far_order), and c is
    ``widths * (weight * far_weights)``, weight the half's p or q.
    """

    rows: np.ndarray
    pans: np.ndarray
    ends: np.ndarray
    half: np.ndarray
    weight: np.ndarray
    jacobi: int
    legendre: np.ndarray
    distances: np.ndarray
    far: list
    mesh: Mesh


# A walk's piece: one field per column of Walk, and gap and lo, which only
# place the Gauss-Legendre points and their distances.
_PIECE = np.dtype([("rows", np.intp), ("pans", np.intp), ("ends", float), ("gap", float),
                   ("lo", float), ("half", float), ("weight", float)])


def convolution_walk(pset: ParameterSet, targets: np.ndarray, mesh: Mesh) -> Walk:
    """The pieces of K_P at ``targets`` in [a, b] on ``mesh``, that of [a, b], before the kernel.

    For a target t in panel J, the leftward half splits [a, t] at the
    mesh's edges.  A panel that ends at least half its width before e_J
    is far: one Gauss-Legendre piece of ``rule.far_order`` points, the
    same for every target in J.  The part of panel J below t takes
    Gauss-Jacobi.  A nearer panel is split geometrically toward its end
    at t, at ratio ``_NEAR_RATIO``, into Gauss-Legendre pieces.  The piece
    at a, where the operand may be rough, is split geometrically toward a
    as well, into ``_END_DEPTH`` + 1 Gauss-Legendre pieces; in the first
    panel Gauss-Jacobi takes only [a + r (t - a), t] at that ratio r.  The
    rightward half is the leftward one of the mirrored targets and mesh.
    None of it depends on the kernel, so a walk serves every kernel on its
    mesh.  A mesh of another interval than [a, b] raises ValueError.

    A target less than the smallest normal double past an inner edge
    goes to the panel below that edge, and one that close to a (but not
    on it) raises ValueError: its Gauss-Jacobi piece would underflow.
    """
    span = mesh.frames[0][0], mesh.frames[0][-1]
    if span != (pset.a, pset.b):
        raise ValueError(f"a mesh of {list(span)} for a p-set on [{pset.a!r}, {pset.b!r}]")
    last = mesh.rule.panels - 1
    jacobi, near, far = [], [], []
    for side, weight in enumerate((pset.p, pset.q)):
        if weight == 0.0:
            continue
        sign = -1.0 if side else 1.0
        out = -sign  # the point end - o of this side's walk is sign * end + out * o
        es, ts = mesh.frames[side], (-targets if side else targets).tolist()
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
            m = mesh.counts[side][J]
            if m:  # the far panels in the mesh's own order
                pans = slice(last + 1 - m, last + 1) if side else slice(0, m)
                rows, (ends, offsets) = np.array(rs), mesh.far[side]
                # |t - (end + offset)|, taken as (t - end) - offset
                u = np.abs((targets[rows, None] - ends[pans])[:, :, None] - offsets[pans])
                far.append((side, rows, pans, u, mesh.widths[pans] * (weight * mesh.far_weights)))
            pan, first = (last - J, last) if side else (J, 0)
            for r in rs:
                x = ts[r]
                d = x - es[J]
                s = 0.0 if J else d * _NEAR_RATIO  # the width of the piece at a
                jacobi.append((r, pan, sign * x, 0.0, 0.0, out * 0.5 * (d - s), weight))
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
                            half = out * 0.5 * (top - lo)
                            walk.append((r, p, sign * end, out * gap, out * lo, half, weight))
                        else:  # panel 0's first level is the piece at a
                            s = top - lo
                        top = lo
                if s:  # split [a, a + s] toward a, where the operand may be rough
                    gap = out * (x - es[0])
                    cuts = [-s * _NEAR_RATIO**k for k in range(_END_DEPTH + 1)] + [0.0]
                    for lo, hi in zip(cuts, cuts[1:]):
                        half = out * 0.5 * (hi - lo)
                        at_a.append((r, first, sign * es[0], gap, out * lo, half, weight))
        near += at_a + walk
    pieces = np.array(jacobi + near, dtype=_PIECE)
    j, x = len(jacobi), _leggauss(mesh.rule.order_per_panel)[0]  # x: the nodes on [-1, 1]
    legendre = pieces["lo"][j:, None] + pieces["half"][j:, None] * (1.0 + x)
    distances = np.abs(legendre + pieces["gap"][j:, None])
    return Walk(*(pieces[f] for f in Walk._fields[:5]), j, legendre, distances, far, mesh)


def convolution_rows(walk: Walk, kernel: Kernel):
    """What K_P needs of ``kernel`` on a :func:`convolution_walk`: ``(offsets, w, far)``.

    ``offsets`` places the points of the Gauss-Jacobi pieces, ``w`` holds
    the weights of every near piece's points, and ``far`` those of each
    far group at its panels' far points, (rows, panels, far_order), in the
    walk's order.  All weights hold p or q.  Every distance but those of
    the Gauss-Jacobi points is the walk's: this step evaluates the kernel.
    """
    far = [c * kernel.evaluate(u) for *_, u, c in walk.far]
    o, w = singular_nodes(kernel, walk)
    return o, walk.weight[:, None] * w, far


def convolve(f: Callable, pset: ParameterSet, kernel: Kernel, targets, rule, *, message, suffix=""):
    """K_P f at ``targets``, with f sampled at the points of :func:`convolution_walk`.

    The mesh is that of ``composite_nodes(pset.a, pset.b, rule)``, kept
    for the next call on [a, b].  ``message`` and ``suffix`` go to
    :func:`sample`.
    """
    targets = np.asarray(targets, dtype=float)
    walk = convolution_walk(pset, targets, Mesh.of(pset.a, pset.b, rule))
    jacobi, w, far_w = convolution_rows(walk, kernel)
    near = (walk.ends[:, None] + np.concatenate([jacobi, walk.legendre])).ravel()
    # a far group's points once for all its targets, every point in one sample
    far = []
    for side, _, pans, *_ in walk.far:
        ends, offsets = walk.mesh.far[side]
        far.append((ends[pans][:, None] + offsets[pans]).ravel())
    vals = sample(f, np.concatenate([near, *far]), message=message, suffix=suffix)
    rows = np.repeat(walk.rows, w.shape[1])
    out = np.bincount(rows, w.ravel() * vals[: near.size], minlength=targets.size)
    start = near.size
    for (_, r, *_), fw, tau in zip(walk.far, far_w, far):
        out[r] += fw.reshape(r.size, -1) @ vals[start : start + tau.size]
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
