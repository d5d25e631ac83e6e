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
per (p-set, rule), in a cache of its own (``_TABLES``), so that it
never evicts a matrix or a moment; it is bounded by its bytes too
(``_TABLE_BYTES``), and evicts through the same code.  A table holds
the nodes in panels, their barycentric weights and span exponents, the
:class:`~genfrac.quadrature.Walk` of the nodes and the two ends, each
side's far interpolation matrix, and the interpolation terms of the
walk's Gauss-Legendre near pieces (on the panels next to a target, and
toward a) with their sums.  The walk alone says where a piece's points
lie.  The Gauss-Jacobi piece of each target has nodes that move with
the kernel's singularity exponent sigma, so a new kernel or order on a
mesh pays for :func:`~genfrac.quadrature.convolution_rows` (the
Gauss-Jacobi points, and the weights of every point), the Gauss-Jacobi
terms, one multiply and sum per near piece, and the far products.  The
table refuses a mesh whose nodes round to equal values, which have no
barycentric weight.

Assembly runs on the calling thread.  The convolution rule of
:func:`genfrac.quadrature.convolution_walk` splits at the mesh's own
panel edges.  A far panel's points are the same for every target, so
they go through one fixed interpolation matrix per panel, and the far
field of all the targets in one panel is one matrix product.  The points
near a target (its Gauss-Jacobi piece and the geometric pieces of the
panels next to it and of the end panel) go through the second form:
the terms b_j / (t - x_j) and their sum (:func:`_terms`), then one
multiply by w / sum, which folds the quadrature weight w into the
normaliser, summed over the piece's points.  Each t - x_j is taken as
(end - x_j) + offset from the rule's local offsets, so its rounding is
that of a panel, not of |a|.  A point exactly on a node, whose sum is
infinite, gets the term 1 at that node, 0 elsewhere and the sum 1, so
that all its weight goes to that node; a row that is non-finite for any
other reason stays so.  Terms are formed a block of ``_BLOCK`` pieces
at a time.  One unbuffered add (``np.add.at``) puts each piece into its
(row, panel) slot of the matrix, in the pieces' order, since a slot can
have several pieces.  The barycentric weights b_j come from node
differences scaled by a power of two near the panel's span, and the
differences t - x_j are scaled by the same power, so the weights, the
terms and their sum stay finite on intervals of any width.

For polynomial operands of degree below the panel order the interpolation
is exact; for the smooth test corpus its error is far below quadrature
error.  The matrices agree with the direct per-point operators to that
same accuracy, which the test suite checks explicitly.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from .pset import ParameterSet
from .quadrature import (
    QuadratureRule,
    composite_nodes,
    convolution_rows,
    convolution_walk,
)
from .specfun import Kernel

__all__ = ["kop_matrix", "kop_end_rows", "clear_matrix_cache"]

# Total bytes the shared cache keeps.  Each matrix at 512 nodes per axis
# is 2 MiB; a research sweep over fresh orders assembles new ones on
# every check, so an unbounded cache only grows.
_CACHE_BYTES = 128 * 2**20

# Total bytes the kernel-free mesh tables (_table) keep, one per (p-set,
# rule).  A half's table takes 1.28, 2.37 and 3.60 MB at 128, 256 and 512
# nodes (6.0 MB at 1024).  A convergence study on a rectangle uses two
# halves per axis interval at each level: the 12 halves of 128, 256 and
# 512 nodes on a non-square rectangle take 29 MB (27.7 MiB).
_TABLE_BYTES = 32 * 2**20

# Pieces whose interpolation terms are formed at once.  A 512-node half
# has about 2,000 near pieces, and their terms and node differences took
# 4.2 MB each in one pass, which set the peak memory of a sweep.  Blocks
# of 256 keep them at 512 KiB at order 16, and run faster.
_BLOCK = 256


class _Lru(OrderedDict):
    """key -> (value, nbytes), least recently used first; ``total`` is their bytes."""

    total = 0

    def fetch(self, key, build, budget: int):
        """The value under ``key``, else ``build()``, kept while the total allows.

        The least recently used entries go when the total passes
        ``budget``, and a value larger than that is returned but not kept.
        """
        hit = self.get(key)
        if hit is not None:
            self.move_to_end(key)
            return hit[0]
        value = build()
        size = _seal(value)
        if size <= budget:
            self[key] = (value, size)
            self.total += size
            while self.total > budget:
                _, (_, old) = self.popitem(last=False)
                self.total -= old
        return value

    def clear(self) -> None:
        super().clear()
        self.total = 0


_CACHE = _Lru()  # operator matrices and moments
_TABLES = _Lru()  # the kernel-free mesh tables of _table


def _seal(value) -> int:
    """Make the arrays in ``value``, and in its tuples, lists and dicts, read-only.

    Returns their bytes, each array counted by its own ``nbytes``.
    """
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
        return value.nbytes
    if isinstance(value, dict):
        value = list(value.values())
    return sum(map(_seal, value)) if isinstance(value, (tuple, list)) else 0


def clear_matrix_cache() -> None:
    """Empty the shared cache (operator matrices and moments) and the mesh tables."""
    _TABLES.clear()
    _CACHE.clear()


def cached(key, build):
    """``build()``, kept in the shared cache under ``key`` unless key is None.

    The value is an array or a tuple of arrays; they are made read-only.
    The least recently used entries go when the total passes
    ``_CACHE_BYTES``, and a value larger than that is returned but not kept.
    """
    if key is None:
        value = build()
        _seal(value)
        return value
    return _CACHE.fetch(key, build, _CACHE_BYTES)


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


def _terms(diffs, bws):
    """``(terms, total)``: b_j / d_j at points whose node differences d_j are ``diffs``, and their sum.

    ``diffs`` is (..., order); the barycentric weights ``bws`` broadcast
    against it.  A point on a node gives an infinite total: its terms
    become 1 at that node and 0 elsewhere, and its total 1, so that a
    weight w on the point goes to that node whole.  Every other
    non-finite row stays so, for the report's finiteness check.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.divide(bws, diffs)
        total = terms.sum(axis=-1)
    bad = ~np.isfinite(total)
    if bad.any():
        exact = diffs[bad] == 0.0
        hit = exact.any(axis=-1)
        fixed, sums = terms[bad], total[bad]
        fixed[hit] = exact[hit]
        sums[hit] = 1.0
        terms[bad], total[bad] = fixed, sums
    return terms, total


def _piece_rows(terms, total, w) -> np.ndarray:
    """``sum_i w_i l_j(x_i)``, one row per piece, from the :func:`_terms` of its points.

    ``terms`` is (pieces, points, nodes).  The products and their sum
    over the points are those of ``(terms * c[..., None]).sum(axis=1)``
    with ``c = w / total``, in the same order, without its (pieces,
    points, nodes) temporary.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        c = w / total
        rows = terms[:, 0] * c[:, :1]
        for i in range(1, c.shape[1]):
            rows += terms[:, i] * c[:, i : i + 1]
    return rows


def _differences(ends, offsets, nodes, exp) -> np.ndarray:
    """``((ends - nodes) + offsets) * 2**exp``, (points, offsets, nodes).

    Both terms are scaled before the sum: that pass is over the smaller
    arrays, and a power of two gives the same bits either way.
    """
    return np.ldexp(ends[:, None] - nodes, exp)[:, None, :] + np.ldexp(offsets, exp)[:, :, None]


def _blocks(stop: int):
    """Slices of at most ``_BLOCK`` pieces that cover [0, stop) in order."""
    return (slice(k, min(k + _BLOCK, stop)) for k in range(0, stop, _BLOCK))


def _near_terms(walk, pieces: slice, offsets, panels, bws, exp):
    """The :func:`_terms` of the walk's near ``pieces`` at ``offsets`` from their ends.

    Formed a block of ``_BLOCK`` pieces at a time, in the pieces' order.
    """
    pans, ends = walk.pans[pieces], walk.ends[pieces]
    terms, total = np.empty((*offsets.shape, panels.shape[1])), np.empty(offsets.shape)
    for b in _blocks(pans.size):
        p = pans[b]
        diffs = _differences(ends[b], offsets[b], panels[p], exp[p, None])
        terms[b], total[b] = _terms(diffs, bws[p])
    return terms, total


def _table(pset: ParameterSet, rule: QuadratureRule):
    """What :func:`_assemble` needs of the p-set's mesh whatever the kernel.

    The contents are those the module docstring lists.  Refuses a mesh
    whose nodes are not strictly increasing: equal nodes have no
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
        terms, total = _terms(_differences(ends, offsets, panels, exp[:, None]), bws)
        far[side] = terms * (1.0 / total)[..., None]
    legendre = walk.legendre(rule.order_per_panel)
    terms, total = _near_terms(walk, slice(walk.jacobi, None), legendre, panels, bws, exp)
    return panels, bws, exp, walk, far, terms, total


def _assemble(pset: ParameterSet, kernel: Kernel, rule: QuadratureRule):
    """(mesh rows, end rows) of K_P on its composite mesh."""
    table = _TABLES.fetch((pset, rule), lambda: _table(pset, rule), _TABLE_BYTES)
    panels, bws, exp, walk, far, terms, total = table
    offsets, w, far_w = convolution_rows(walk, kernel, walk.legendre(rule.order_per_panel))
    out = np.zeros((panels.size + 2, *panels.shape))
    # the far points of a panel are the same for every target: one
    # product per group of targets that share their far panels
    for (side, rows, pans), fw in zip(walk.far, far_w):
        block = np.matmul(fw.transpose(1, 0, 2), far[side][pans])
        out[rows, pans] += block.transpose(1, 0, 2)
    # the near points one row per piece, in the pieces' order, since a
    # (row, panel) pair can have several.  The Gauss-Jacobi pieces come
    # first; their points move with sigma, so their terms are formed here.
    # The Gauss-Legendre pieces' terms are the table's.
    j = walk.jacobi
    jacobi = _piece_rows(*_near_terms(walk, slice(j), offsets, panels, bws, exp), w[:j])
    legendre = _piece_rows(terms, total, w[j:])
    np.add.at(out, (walk.rows, walk.pans), np.concatenate([jacobi, legendre]))
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
