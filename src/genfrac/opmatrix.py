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

The matrices live in one least-recently-used cache, shared with the
moment matrices and grids of :mod:`genfrac.identities` and bounded by
their total bytes (``_CACHE_BYTES``).  Cached arrays are read-only, so a
caller cannot corrupt a later check by writing into one.

For polynomial operands of degree below the panel order the interpolation
is exact; for the smooth test corpus its error is far below quadrature
error.  The matrices agree with the direct per-point operators to that
same accuracy, which the test suite checks explicitly.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from .pset import ParameterSet
from .quadrature import QuadratureRule, composite_nodes, convolution_rows
from .specfun import Kernel

__all__ = ["kop_matrix", "kop_end_rows", "clear_matrix_cache"]

# Total bytes the shared cache keeps.  Each matrix at 512 nodes per axis
# is 2 MiB; a research sweep over fresh orders assembles new ones on
# every check, so an unbounded cache only grows.
_CACHE_BYTES = 128 * 2**20
_CACHE: OrderedDict = OrderedDict()  # key -> (value, nbytes), oldest first
_cache_total = 0


def clear_matrix_cache() -> None:
    """Empty the shared cache: operator matrices, moments and grids."""
    global _cache_total
    _CACHE.clear()
    _cache_total = 0


def cached(key, build):
    """``build()``, kept in the shared cache under ``key`` unless key is None.

    The value is an array or a tuple of arrays; they are made read-only.
    The least recently used entries go when the total passes
    ``_CACHE_BYTES``, and a value larger than that is returned but not kept.
    """
    global _cache_total
    if key is not None and key in _CACHE:
        _CACHE.move_to_end(key)
        return _CACHE[key][0]
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


def _bary_weights(nodes: np.ndarray) -> np.ndarray:
    d = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(d, 1.0)
    return 1.0 / d.prod(axis=1)


def _lagrange_rows(points: np.ndarray, nodes: np.ndarray, bw: np.ndarray) -> np.ndarray:
    """Barycentric Lagrange basis values, one row per evaluation point."""
    diff = points[:, None] - nodes[None, :]
    exact = diff == 0.0
    diff = np.where(exact, 1.0, diff)
    terms = bw[None, :] / diff
    rows = terms / terms.sum(axis=1)[:, None]
    hit = exact.any(axis=1)
    if hit.any():
        rows[hit] = exact[hit].astype(float)
    return rows


def _assemble(
    targets: np.ndarray,
    mesh_nodes: np.ndarray,
    mesh_edges: np.ndarray,
    order: int,
    pset: ParameterSet,
    kernel: Kernel,
    rule: QuadratureRule,
) -> np.ndarray:
    R = targets.size
    N = mesh_nodes.size
    npan = mesh_edges.size - 1
    bws = [_bary_weights(mesh_nodes[ip * order : (ip + 1) * order]) for ip in range(npan)]
    idx_chunks: list[np.ndarray] = []
    val_chunks: list[np.ndarray] = []
    for weight, live, tau, w in convolution_rows(pset, kernel, targets, rule):
        rows = np.repeat(np.flatnonzero(live), tau.shape[1])
        tau_f = tau.ravel()
        w_f = weight * w.ravel()
        pan = np.clip(np.searchsorted(mesh_edges, tau_f, side="right") - 1, 0, npan - 1)
        srt = np.argsort(pan, kind="stable")
        pan_s = pan[srt]
        bounds = np.searchsorted(pan_s, np.arange(npan + 1))
        for ip in range(npan):
            lo, hi = bounds[ip], bounds[ip + 1]
            if lo == hi:
                continue
            sel = srt[lo:hi]
            nd = mesh_nodes[ip * order : (ip + 1) * order]
            lag = _lagrange_rows(tau_f[sel], nd, bws[ip])
            vals = w_f[sel][:, None] * lag
            cols = ip * order + np.arange(order)
            lin = rows[sel][:, None] * N + cols[None, :]
            idx_chunks.append(lin.ravel())
            val_chunks.append(vals.ravel())
    if not idx_chunks:
        return np.zeros((R, N))
    lin = np.concatenate(idx_chunks)
    vals = np.concatenate(val_chunks)
    return np.bincount(lin, weights=vals, minlength=R * N).reshape(R, N)


def _matrices(pset: ParameterSet, kernel: Kernel, rule: QuadratureRule):
    """The cached pair (mesh rows, end rows), assembled together on a miss."""

    def build():
        nodes, _, edges = composite_nodes(pset.a, pset.b, rule)
        targets = np.concatenate([nodes, [pset.a, pset.b]])
        M = _assemble(targets, nodes, edges, rule.order_per_panel, pset, kernel, rule)
        return M[: nodes.size], M[nodes.size :]

    return cached(("kop", pset.as_tuple(), kernel.cache_key, rule), build)


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
