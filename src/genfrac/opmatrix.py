"""Discrete convolution-operator matrices on composite Gauss meshes.

The identity checks integrate convolution fields of several functions
over the same product grid; evaluating every field point by fresh
quadrature would revisit the operand millions of times.  Instead, the
operand is interpolated panel-locally (degree order-1 Lagrange, stable
barycentric form) from its values on the composite mesh, which turns the
operator into a dense matrix acting on the vector of mesh values.  The
matrix depends only on (p-set, kernel, rule), so it is assembled once
and shared across functions, identities and refinement sweeps.

For polynomial operands of degree below the panel order the interpolation
is exact; for the smooth test corpus its error is far below quadrature
error.  The matrices agree with the direct per-point operators to that
same accuracy, which the test suite checks explicitly.
"""

from __future__ import annotations

import numpy as np

from .pset import ParameterSet
from .quadrature import QuadratureRule, composite_nodes, convolution_rows
from .specfun import Kernel

__all__ = ["kop_matrix", "clear_matrix_cache"]

_CACHE: dict = {}


def clear_matrix_cache() -> None:
    _CACHE.clear()


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


def kop_matrix(pset: ParameterSet, kernel: Kernel, rule: QuadratureRule) -> np.ndarray:
    """Matrix M with (K v)(nodes) ~ M @ v(nodes) on the p-set's composite mesh.

    The mesh is ``composite_nodes(pset.a, pset.b, rule)``; results are
    cached per (p-set, kernel identity, rule).  Kernels are identified by
    (label, order, singularity exponent), so a kernel's label must name
    its parameters exactly (the tempered kernel's holds ``repr(lam)``).
    """
    key = (pset.as_tuple(), kernel.cache_key, rule)
    M = _CACHE.get(key)
    if M is None:
        nodes, _, edges = composite_nodes(pset.a, pset.b, rule)
        M = _assemble(nodes, nodes, edges, rule.order_per_panel, pset, kernel, rule)
        _CACHE[key] = M
    return M
