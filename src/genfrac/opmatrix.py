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
moment matrices and grids of :mod:`genfrac.identities` and bounded by
their total bytes (``_CACHE_BYTES``).  Cached arrays are read-only, so a
caller cannot corrupt a later check by writing into one.

Assembly runs in row blocks of about ``_BLOCK_POINTS`` quadrature
points.  The calling thread makes each block's convolution rows (the
kernel-folded nodes and weights) and hands the block to the one worker
thread of the process, which adds it into the block's own rows of the
matrix.  Node making and kernel evaluation thus stay on the calling
thread.  Within a block the worker handles one panel at a time.  The
points that fall in a panel are sorted together by panel index (a
stable sort of keys in the narrowest unsigned type, which numpy
radix-sorts; stable, so each target's points stay in one run) and go
through the second form in a few whole-array passes: the terms
b_j / (t - x_j) in place, their sum, and one multiply by w / sum, which
folds the quadrature weight w into the normaliser.  A point exactly on a
node, whose sum is infinite, is set to w at that node afterwards; a row
that is non-finite for any other reason stays so.  Each target's run is
then summed into its row.  A point's sum runs in node order however
many points share its panel, so the blocking changes no bit of the
result.  The barycentric weights b_j come from node differences scaled
by a power of two near the panel's span, so they stay finite on
intervals of any width.

:class:`assembling` starts builds ahead of use: an identity check starts
its halves, builds its moment matrices while the worker assembles, and
its first :func:`kop_matrix` or :func:`kop_end_rows` call for a half
joins that build.  The cache is read and written on the calling thread
only, so results and cache state do not depend on scheduling.  The
worker is made on first use, and again in a forked child.

For polynomial operands of degree below the panel order the interpolation
is exact; for the smooth test corpus its error is far below quadrature
error.  The matrices agree with the direct per-point operators to that
same accuracy, which the test suite checks explicitly.
"""

from __future__ import annotations

import os
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
# Quadrature points per row block of an assembly.  Blocks keep the
# worker's temporaries small while the calling thread builds moments.
_BLOCK_POINTS = 2**16
_PENDING: dict = {}  # key -> _Build started by ``assembling``, not yet joined
_WORKER = None


def _worker():
    """The one assembly thread of this process, made on first use."""
    global _WORKER
    if _WORKER is None:
        # imported here: at module level it adds ~6 ms to ``import genfrac``
        from concurrent.futures import ThreadPoolExecutor

        _WORKER = ThreadPoolExecutor(max_workers=1, thread_name_prefix="genfrac-assembly")
    return _WORKER


def _forget_worker() -> None:
    # A forked child has no copy of the parent's worker thread, and the
    # blocks queued there never run.
    global _WORKER
    _WORKER = None
    _PENDING.clear()


if hasattr(os, "register_at_fork"):  # POSIX; elsewhere there is no fork
    os.register_at_fork(after_in_child=_forget_worker)


def clear_matrix_cache() -> None:
    """Empty the shared cache (operator matrices, moments and grids) and drop pending builds."""
    global _cache_total
    _CACHE.clear()
    _cache_total = 0
    for build in _PENDING.values():
        build.cancel()
    _PENDING.clear()


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


def _fill(out, weight, live, tau, w, panels, bws, edges) -> None:
    """Add ``weight * sum(w * f(tau))`` to ``out`` as matrix rows: one row block.

    ``out`` is (rows, panels, order) and ``(live, tau, w)`` is one half's
    convolution rows at those rows' targets.
    """
    npan = panels.shape[0]
    tau_f, w_f = tau.ravel(), w.ravel()
    pan = np.searchsorted(edges, tau_f, side="right") - 1
    np.clip(pan, 0, npan - 1, out=pan)
    # stable, so each panel's points keep their row-major order: the rows
    # in a panel group are nondecreasing and their runs unique; keys this
    # narrow are radix-sorted
    srt = np.argsort(pan.astype(np.min_scalar_type(npan)), kind="stable")
    bounds = np.concatenate(([0], np.cumsum(np.bincount(pan, minlength=npan))))
    live_rows = np.flatnonzero(live)
    for ip in range(npan):
        lo, hi = bounds[ip], bounds[ip + 1]
        if lo == hi:
            continue
        idx = srt[lo:hi]
        t, nodes = tau_f[idx], panels[ip, :, None]
        wt = weight * w_f[idx]
        # w l_j(t) = (bw_j / (t - x_j)) * w / total, one column per point
        # so that every pass runs along the points
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = t - nodes
            np.divide(bws[ip, :, None], terms, out=terms)
            # in node order: numpy would sum a lone column pairwise, and a
            # row block can leave a panel one point
            total = terms.sum(axis=0) if t.size > 1 else np.add.accumulate(terms)[-1]
            terms *= wt / total
        # t on a node gives an infinite total; every other non-finite
        # column stays so, for the report's finiteness check
        bad = np.flatnonzero(~np.isfinite(total))
        if bad.size:
            exact = t[bad] == nodes
            hit = exact.any(axis=0)
            terms[:, bad[hit]] = wt[bad[hit]] * exact[:, hit]
        r = live_rows[idx // tau.shape[1]]
        starts = np.flatnonzero(np.concatenate(([True], r[1:] != r[:-1])))
        out[r[starts], ip] += np.add.reduceat(terms, starts, axis=1).T


class _Build:
    """One p-set's (mesh rows, end rows), in assembly on the worker thread.

    The calling thread makes the convolution rows of each row block and
    hands them to the worker, which adds them into the block's own rows
    of ``out``; :meth:`join` waits for the last block.
    """

    def __init__(self, pset: ParameterSet, kernel: Kernel, rule: QuadratureRule):
        nodes, _, edges = composite_nodes(pset.a, pset.b, rule)
        targets = np.concatenate([nodes, [pset.a, pset.b]])
        panels = nodes.reshape(edges.size - 1, rule.order_per_panel)
        bws = _bary_weights(panels)
        self.size = nodes.size
        self.out = np.zeros((targets.size, *panels.shape))
        self.blocks = []
        # blocks of equal rows, none above _BLOCK_POINTS points
        count = -(-targets.size * rule.node_count // _BLOCK_POINTS)
        step = -(-targets.size // count)
        worker = _worker()
        try:
            for lo in range(0, targets.size, step):
                rows = self.out[lo : lo + step]
                for weight, live, tau, w in convolution_rows(
                    pset, kernel, targets[lo : lo + step], rule
                ):
                    self.blocks.append(
                        worker.submit(_fill, rows, weight, live, tau, w, panels, bws, edges)
                    )
        except BaseException:
            self.cancel()
            raise

    def cancel(self) -> None:
        """Drop the blocks not yet begun; a running one fills rows no one reads."""
        for block in self.blocks:
            block.cancel()

    def join(self):
        try:
            for block in self.blocks:
                block.result()
        except BaseException:
            self.cancel()
            raise
        M = self.out.reshape(self.out.shape[0], -1)
        return M[: self.size], M[self.size :]


def _key(pset: ParameterSet, kernel: Kernel, rule: QuadratureRule):
    return ("kop", pset.as_tuple(), kernel.cache_key, rule)


def _matrices(pset: ParameterSet, kernel: Kernel, rule: QuadratureRule):
    """The cached pair (mesh rows, end rows); a miss joins the pending build or makes one."""
    key = _key(pset, kernel, rule)
    return cached(key, lambda: (_PENDING.pop(key, None) or _Build(pset, kernel, rule)).join())


class assembling:
    """Context in which the worker thread assembles the matrices of ``psets``.

    The first :func:`kop_matrix` or :func:`kop_end_rows` call for a p-set
    joins its build and caches the result.  Matrices already cached or
    started are left alone.  On leaving, the builds not joined (the block
    raised) are dropped.
    """

    def __init__(self, psets, kernel: Kernel, rule: QuadratureRule):
        self.started = []
        try:
            for pset in psets:
                key = _key(pset, kernel, rule)
                if key not in _CACHE and key not in _PENDING:
                    _PENDING[key] = _Build(pset, kernel, rule)
                    self.started.append(key)
        except BaseException:
            self.__exit__()
            raise

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        for key in self.started:
            build = _PENDING.pop(key, None)
            if build is not None:
                build.cancel()


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
