"""Discrete convolution-operator matrices on composite Gauss meshes.

The identity checks integrate convolution fields of several functions
over the same product grid; evaluating every field point by fresh
quadrature would revisit the operand millions of times.  Instead, the
operand is interpolated panel-locally (degree order-1 Lagrange, stable
barycentric form) from its values on the composite mesh, which turns the
operator into a dense matrix acting on the vector of mesh values.  The
matrix depends only on (p-set, kernel, rule), so it is assembled once
and shared across functions, identities and refinement sweeps.  The
same assembly adds two rows for the targets a and b, which give K_P v at
the interval ends (:func:`kop_end_rows`); the Green check's edge terms
read them.

The matrix is linear in the weights: K_<a,b,p,q> = p L + q R, with L and
R the matrices of the unweighted halves <a, b, 1, 0> and <a, b, 0, 1>
(equal up to rounding, which the test suite checks).  The identity
checks therefore ask only for L and R, so a p-set, its dual and every
other p-set on the interval share two cached matrices.  Each half comes
from its own convolution rows; R is not L mirrored, since the graded
mesh need not be symmetric.

The matrices live in one least-recently-used cache, shared with the
moment matrices of :mod:`genfrac.identities` and bounded by their total
bytes (``_CACHE_BYTES``).  Cached arrays are read-only, so a caller
cannot corrupt a later check by writing into one.

What an assembly needs of its mesh whatever the kernel is kept apart,
per (p-set, rule), in a small cache of its own (``_table``, at most
``_TABLES`` entries), so that it never evicts a matrix or a moment: the
nodes in panels, their barycentric weights and span exponents, the
:func:`~genfrac.quadrature.convolution_walk` of the nodes and the two
ends (the pieces as a (pieces, 8) table, and the far groups), and each
side's far interpolation matrix.  A half holds about 70, 136 and 240 KB
at 128, 256 and 512 nodes, of which the piece table is 43, 82 and
132 KB; nothing in it grows with targets times far points.  A new
kernel or order on a mesh then pays only for the kernel values, the
near interpolation and the far products.  The table refuses a mesh
whose nodes round to equal values, which have no barycentric weight.

Assembly runs on the calling thread.  The convolution rule of
:func:`genfrac.quadrature.convolution_walk` splits at the mesh's own
panel edges.  A far panel's points are the same for every target, so
they go through one fixed interpolation matrix per panel, and the far
field of all the targets in one panel is one matrix product.  The points
near a target (its Gauss-Jacobi piece and the geometric pieces of the
panels next to it and of the end panel) go through the second form in a
few array passes per block of ``_BLOCK`` pieces: the terms
b_j / (t - x_j), their sum, and one multiply by w / sum, which folds
the quadrature weight w into the normaliser.  Each t - x_j is taken as
(end - x_j) + offset from the rule's local offsets, so its rounding is
that of a panel, not of |a|.
A point exactly on a node, whose sum is infinite, is set to w at that
node afterwards; a row that is non-finite for any other reason stays
so.  One unbuffered add (``np.add.at``) puts each piece into its (row,
panel) slot of the matrix, since a slot can have several pieces.  The
barycentric weights b_j come from node differences scaled by a power of
two near the panel's span, and the differences t - x_j are scaled by the
same power, so the weights, the terms and their sum stay finite on
intervals of any width.

For polynomial operands of degree below the panel order the interpolation
is exact; for the smooth test corpus its error is far below quadrature
error.  The matrices agree with the direct per-point operators to that
same accuracy, which the test suite checks explicitly.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import lru_cache

import numpy as np

from .pset import ParameterSet
from .quadrature import QuadratureRule, composite_nodes, convolution_rows, convolution_walk
from .specfun import Kernel

__all__ = ["kop_matrix", "kop_end_rows", "clear_matrix_cache"]

# Total bytes the shared cache keeps.  Each matrix at 512 nodes per axis
# is 2 MiB; a research sweep over fresh orders assembles new ones on
# every check, so an unbounded cache only grows.
_CACHE_BYTES = 128 * 2**20
_CACHE: OrderedDict = OrderedDict()  # key -> (value, nbytes), oldest first
_cache_total = 0

# Kernel-free mesh tables (_table) kept, one per (p-set, rule).  A
# convergence study on one rectangle uses two halves per axis interval at
# each of its levels: 12 at most for three levels.
_TABLES = 16

# Pieces interpolated at once in _assemble.  The near interpolation holds
# two (pieces, order, order) arrays; a 512-node half has about 2,000
# pieces, 4.2 MB each in one pass, which set the peak memory of a sweep.
# Blocks of 256 keep them at 512 KiB at order 16, and run faster.
_BLOCK = 256


def clear_matrix_cache() -> None:
    """Empty the shared cache (operator matrices and moments) and the mesh tables."""
    global _cache_total
    _table.cache_clear()
    _CACHE.clear()
    _cache_total = 0


def cached(key, build):
    """``build()``, kept in the shared cache under ``key`` unless key is None.

    The value is an array or a tuple of arrays; they are made read-only.
    The least recently used entries go when the total passes
    ``_CACHE_BYTES``, and a value larger than that is returned but not kept.
    """
    global _cache_total
    if key is not None:
        hit = _CACHE.get(key)
        if hit is not None:
            _CACHE.move_to_end(key)
            return hit[0]
    value = build()
    arrays = value if isinstance(value, tuple) else (value,)
    for arr in arrays:
        arr.flags.writeable = False
    size = sum(arr.nbytes for arr in arrays)
    if key is not None and size <= _CACHE_BYTES:
        _CACHE[key] = (value, size)
        _cache_total += size
        while _cache_total > _CACHE_BYTES:
            _, (_, old) = _CACHE.popitem(last=False)
            _cache_total -= old
    return value


def _bary_weights(panels: np.ndarray) -> np.ndarray:
    """Barycentric weights 1 / prod_k (x_j - x_k), one row per panel.

    The differences are first divided by a power of two near the panel's
    node span, so that the product neither underflows nor overflows on a
    tiny panel.  The factor is common to a panel's weights and cancels in
    the second form; being a power of two, it cancels exactly.
    """
    _, span_exp = np.frexp(panels[:, -1] - panels[:, 0])
    d = np.ldexp(panels[:, :, None] - panels[:, None, :], -span_exp[:, None, None])
    j = np.arange(panels.shape[1])
    d[:, j, j] = 1.0
    return 1.0 / d.prod(axis=2)


def _interpolate(diffs, w, bws) -> np.ndarray:
    """``w l_j`` at points whose differences to their panel's nodes are ``diffs``.

    ``diffs`` is (..., order); ``w`` and the barycentric weights ``bws``
    broadcast against it and its points.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.divide(bws, diffs)
        total = terms.sum(axis=-1)
        terms *= (w / total)[..., None]
    # a point on a node gives an infinite total; every other non-finite
    # row stays so, for the report's finiteness check
    bad = ~np.isfinite(total)
    if bad.any():
        exact = diffs[bad] == 0.0
        hit = exact.any(axis=-1)
        fixed = terms[bad]
        fixed[hit] = np.broadcast_to(w, total.shape)[bad][hit, None] * exact[hit]
        terms[bad] = fixed
    return terms


def _differences(ends, offsets, nodes, exp) -> np.ndarray:
    """``((ends - nodes) + offsets) * 2**exp``, (points, offsets, nodes).

    Both terms are scaled before the sum: that pass is over the smaller
    arrays, and a power of two gives the same bits either way.
    """
    return np.ldexp(ends[:, None] - nodes, exp)[:, None, :] + np.ldexp(offsets, exp)[:, :, None]


@lru_cache(maxsize=_TABLES)
def _table(pset: ParameterSet, rule: QuadratureRule):
    """What :func:`_assemble` needs of the p-set's mesh whatever the kernel.

    The panels of nodes, their barycentric weights and span exponents,
    the :func:`~genfrac.quadrature.convolution_walk` of the nodes and
    the two ends, and each side's far interpolation matrix.  Refuses a
    mesh whose nodes are not strictly increasing: equal nodes have no
    barycentric weight.
    """
    nodes, _, edges = composite_nodes(pset.a, pset.b, rule)
    if not (np.diff(nodes) > 0.0).all():
        raise ValueError(
            f"{rule} on [{pset.a!r}, {pset.b!r}] has nodes that round to equal "
            f"values: its end panels are too narrow for the floats there"
        )
    panels = nodes.reshape(edges.size - 1, rule.order_per_panel)
    bws = _bary_weights(panels)[:, None, :]
    # the node differences in the units that _bary_weights scales by
    exp = -np.frexp(panels[:, -1] - panels[:, 0])[1]
    walk = convolution_walk(pset, np.concatenate([nodes, [pset.a, pset.b]]), edges, rule)
    far = {}
    for side, (ends, offsets) in walk.far_points.items():
        far[side] = _interpolate(_differences(ends, offsets, panels, exp[:, None]), 1.0, bws)
    for arr in (panels, bws, exp, walk.pieces, *far.values()):  # shared by every kernel
        arr.flags.writeable = False
    return panels, bws, exp, walk, far


def _assemble(pset: ParameterSet, kernel: Kernel, rule: QuadratureRule):
    """(mesh rows, end rows) of K_P on its composite mesh."""
    panels, bws, exp, walk, far = _table(pset, rule)
    K = convolution_rows(walk, kernel, rule)
    out = np.zeros((panels.size + 2, *panels.shape))
    # the far points of a panel are the same for every target: one
    # product per block of targets that share their far panels
    for side, rows, pans, w in K.far:
        block = np.matmul(w.transpose(1, 0, 2), far[side][pans])
        out[rows, pans] += block.transpose(1, 0, 2)
    # the near points a block of pieces at a time, then one sum per piece;
    # a (row, panel) pair can have several pieces
    for start in range(0, K.pans.size, _BLOCK):
        b = slice(start, start + _BLOCK)
        pans = K.pans[b]
        diffs = _differences(K.ends[b], K.offsets[b], panels[pans], exp[pans, None])
        sums = _interpolate(diffs, K.w[b], bws[pans]).sum(axis=1)
        np.add.at(out, (K.rows[b], pans), sums)
    M = out.reshape(panels.size + 2, -1)
    return M[: panels.size], M[panels.size :]


def _matrices(pset: ParameterSet, kernel: Kernel, rule: QuadratureRule):
    """The cached pair (mesh rows, end rows); a miss assembles it here."""
    key = ("kop", pset.as_tuple(), kernel.cache_key, rule)
    return cached(key, lambda: _assemble(pset, kernel, rule))


def kop_matrix(pset: ParameterSet, kernel: Kernel, rule: QuadratureRule) -> np.ndarray:
    """Matrix M with (K v)(nodes) ~ M @ v(nodes) on the p-set's composite mesh.

    The mesh is ``composite_nodes(pset.a, pset.b, rule)``.  Results are
    kept in the one byte-bounded cache of this module, per (p-set, kernel
    identity, rule); a cache hit returns the same read-only array object.
    Kernels are identified by (label, order, singularity exponent), so a
    kernel's label must name its parameters exactly (the tempered kernel's
    holds ``repr(lam)``).
    """
    return _matrices(pset, kernel, rule)[0]


def kop_end_rows(pset: ParameterSet, kernel: Kernel, rule: QuadratureRule) -> np.ndarray:
    """2 x N matrix E with ((K v)(a), (K v)(b)) ~ E @ v(nodes), same mesh and cache."""
    return _matrices(pset, kernel, rule)[1]
