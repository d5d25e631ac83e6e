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
bytes (``_CACHE_BYTES``).  A pair (mesh rows, end rows) is kept from the
second request for its key on (:func:`kop_pair`): the first request
assembles it, hands it back and records the key alone, in a record of
the last 128 such keys (``_ASKED``).  A research sweep over fresh orders
asks for each pair once, so its pairs push out no moment; a pair that a
second check asks for is assembled again and kept, and from then on a
hit returns the same object.  Moments are kept on their first request.
Arrays, kept or not, are read-only, so a caller cannot corrupt a later
check by writing into one.  Each cache counts its hits, misses,
evictions and refusals (values built but not kept).

A kept pair also carries the contraction values <rows or end rows, S>
that the identity checks computed with it, each under the key the check
gives its term (:func:`remember`), so that a later check with the same
term reads them (:func:`recall`) and neither builds its moments nor
contracts.  A check finds the pair by a peek (:func:`kept_pair`), not a
fetch: it counts no hit or miss and builds nothing, but makes the pair
the most recently used.  Only a kept pair keeps values, so a pair asked
for once, or one of a kernel without a key, keeps none.  Each value adds
``_VALUE_BYTES`` to its pair's bytes, so the one budget bounds them too,
and they go with their pair when it is evicted or the cache is cleared.
The shared cache counts the values it found and those it did not.

What an assembly needs of its mesh whatever the kernel is kept apart,
per (p-set, rule), in a cache of its own (``_TABLES``), so that it never
evicts a matrix or a moment; it is bounded by its bytes too
(``_TABLE_BYTES``), and evicts through the same code.  A table holds the
nodes in panels, their barycentric weights and span exponents, the
:class:`~genfrac.quadrature.Walk` of the targets a, the nodes and b (in
that order, so that the targets sharing far panels are a run of rows)
on the interval's kept :class:`~genfrac.quadrature.Mesh`, each side's
far interpolation matrix, the interpolation terms of the walk's
Gauss-Legendre near pieces (on the panels next to a target, and toward
a) with their sums, pieces last, as (points, nodes, pieces) and (points,
pieces), and the scatter rounds of every piece.  The walk alone says
where a piece's points lie; it places the Gauss-Legendre ones and forms
their distances, and the far points' distances and weights, once for
every kernel.  The Gauss-Jacobi piece of each target has nodes that
move with the kernel's singularity exponent sigma, so a new kernel or
order on a mesh pays for :func:`~genfrac.quadrature.convolution_rows`
(the Gauss-Jacobi points, and the kernel's values at every distance),
the Gauss-Jacobi terms, one einsum over the points for each kind of near
piece, and the far products.  The table refuses a mesh whose nodes round
to equal values, which have no barycentric weight.

Assembly runs on the calling thread.  The convolution rule of
:func:`genfrac.quadrature.convolution_walk` splits at the mesh's own
panel edges.  A far panel's points are the same for every target, so
they go through one fixed interpolation matrix per panel, and the far
field of all the targets in one panel is one matrix product, written in
place into the matrix.  The points near a target (its Gauss-Jacobi piece
and the geometric pieces of the panels next to it and of the end panel)
go through the second form: the terms b_j / (t - x_j) and their sum
(:func:`_terms`), then one multiply by w / sum, which folds the
quadrature weight w into the normaliser, summed over the piece's points.
Each t - x_j is taken as (end - x_j) + offset from the rule's local
offsets, so its rounding is that of a panel, not of |a|.  A point
exactly on a node, whose sum is infinite, gets the term 1 at that node,
0 elsewhere and the sum 1, so that all its weight goes to that node; a
row that is non-finite for any other reason stays so.  Terms are formed,
and summed over the nodes, a block of ``_BLOCK`` pieces at a time, and
laid out pieces last, so that the sum over a piece's points runs along
all the pieces at once.  A (row, panel) slot of the matrix can have
several pieces, which must be added in the walk's order.  The table
groups the pieces into rounds, round k holding the k-th piece of every
slot, so that no slot repeats within a round: one buffered add per round
(9 on [0, 1]) puts every piece into its slot, in that order.  The
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
from typing import NamedTuple

import numpy as np

from .pset import ParameterSet
from .quadrature import (
    _SIGMA_CACHE_SIZE,
    Mesh,
    QuadratureRule,
    Walk,
    convolution_rows,
    convolution_walk,
)
from .specfun import Kernel

__all__ = ["kop_matrix", "kop_end_rows", "clear_matrix_cache"]

# Total bytes the shared cache keeps.  Each matrix at 512 nodes per axis
# is 2 MiB; a research sweep over fresh orders assembles new ones on
# every check, so an unbounded cache only grows.
_CACHE_BYTES = 128 * 2**20

# Bytes counted toward _CACHE_BYTES for each contraction value kept with
# a pair: its key, the float and the dict's slot.  The corpus's 1,152
# values held 310 kB, 269 bytes each.
_VALUE_BYTES = 270

# Total bytes the kernel-free mesh tables (_table) keep, one per (p-set,
# rule).  A half's table takes 1.48, 2.91 and 5.26 MB at 128, 256 and 512
# nodes (11.9 MB at 1024): 11, 21 and 33 KB of it the scatter rounds, 71,
# 132 and 198 KB the walk's Gauss-Legendre offsets and as much their
# distances, 0.05, 0.26 and 1.24 MB its far distances and weights.  A
# convergence study on a rectangle uses two halves per axis interval at
# each level: the 12 halves of 128, 256 and 512 nodes on a non-square
# rectangle take 38.6 MB (36.8 MiB).
_TABLE_BYTES = 48 * 2**20

# Pieces whose interpolation terms are formed at once.  A 512-node half
# has about 2,000 near pieces, and their terms and node differences took
# 4.2 MB each in one pass, which set the peak memory of a sweep.  Blocks
# of 256 keep them at 512 KiB at order 16, and run faster.
_BLOCK = 256


class _Lru(OrderedDict):
    """key -> (value, nbytes), least recently used first; ``total`` is their bytes.

    ``hits``, ``misses``, ``evictions`` and ``refusals`` (values built but
    not kept) count what :meth:`fetch` did since the last :meth:`clear`;
    ``value_hits`` and ``value_misses`` count the contraction values
    :func:`recall` found kept with a pair, and those it did not.
    """

    total = hits = misses = evictions = refusals = value_hits = value_misses = 0

    def fetch(self, key, build, budget: int, admit=None):
        """The value under ``key``, else ``build()``, kept while the total allows.

        The least recently used entries go when the total passes
        ``budget``, and a value larger than that is returned but not kept.
        So is one for which ``admit(key)``, asked once it is built, is
        false.
        """
        hit = self.get(key)
        if hit is not None:
            self.hits += 1
            self.move_to_end(key)
            return hit[0]
        self.misses += 1
        value = build()
        size = _seal(value)
        if size > budget or not (admit is None or admit(key)):
            self.refusals += 1
            return value
        self[key] = (value, size)
        self.total += size
        self._trim(budget)
        return value

    def grow(self, key, nbytes: int, budget: int) -> None:
        """Count ``nbytes`` more for the value kept under ``key``, then trim to ``budget``."""
        value, size = self[key]
        self[key] = (value, size + nbytes)  # an existing key keeps its place
        self.total += nbytes
        self._trim(budget)

    def _trim(self, budget: int) -> None:
        """Evict the least recently used entries until the total is within ``budget``."""
        while self.total > budget:
            _, (_, old) = self.popitem(last=False)
            self.total -= old
            self.evictions += 1

    def clear(self) -> None:
        super().clear()
        self.total = self.hits = self.misses = self.evictions = self.refusals = 0
        self.value_hits = self.value_misses = 0


_CACHE = _Lru()  # operator matrices and moments
_TABLES = _Lru()  # the kernel-free mesh tables of _table
_ASKED = OrderedDict()  # keys of matrix pairs asked for once and not kept, oldest first


def _seal(value) -> int:
    """Make the arrays in ``value``, and in its tuples and lists, read-only.

    Returns their bytes, each array counted by its own ``nbytes``.
    """
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
        return value.nbytes
    return sum(map(_seal, value)) if isinstance(value, (tuple, list)) else 0


def clear_matrix_cache() -> None:
    """Empty the shared cache (matrices and moments), its key record, the mesh tables and meshes."""
    Mesh.of.cache_clear()
    _TABLES.clear()
    _CACHE.clear()
    _ASKED.clear()


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


def _bary_weights(panels: np.ndarray):
    """``(weights, exp)``: barycentric weights 1 / prod_k (x_j - x_k), one row per panel.

    The differences are first multiplied by ``2**exp``, per panel the
    inverse of a power of two near its node span, so that the product
    neither underflows nor overflows on a tiny panel.  The factor is
    common to a panel's weights and cancels in the second form; being a
    power of two, it cancels exactly.
    """
    exp = -np.frexp(panels[:, -1] - panels[:, 0])[1]
    d = np.ldexp(panels[:, :, None] - panels[:, None, :], exp[:, None, None])
    j = np.arange(panels.shape[1])
    d[:, j, j] = 1.0
    return 1.0 / d.prod(axis=2), exp


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


def _piece_rows(terms, total, w, rows) -> None:
    """Write each piece's ``sum_i w_i l_j(x_i)`` into ``rows``, from its points' :func:`_terms`.

    ``terms`` is (points, nodes, pieces), ``total`` and ``w`` are
    (points, pieces) and ``rows`` is (nodes, pieces).  The products and
    their sum over the points are those of ``(terms * c[:, None]).sum(axis=0)``
    with ``c = w / total``, in the same order, without its (points,
    nodes, pieces) temporary.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        # no optimize=: it may route the product through BLAS, whose sums vary with its threads
        np.einsum("ink,ik->nk", terms, w / total, out=rows)


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

    Returns them pieces last: terms (points, nodes, pieces) and sums
    (points, pieces).  They are formed, and summed over the nodes, a block
    of ``_BLOCK`` pieces at a time, in the pieces' order, and each block
    is written straight into that layout.
    """
    pans, ends = walk.pans[pieces], walk.ends[pieces]
    terms = np.empty((offsets.shape[1], panels.shape[1], pans.size))
    total = np.empty((offsets.shape[1], pans.size))
    for b in _blocks(pans.size):
        p = pans[b]
        diffs = _differences(ends[b], offsets[b], panels[p], exp[p, None])
        t, s = _terms(diffs, bws[p])
        terms[..., b], total[:, b] = t.transpose(1, 2, 0), s.T
    return terms, total


def _rounds(walk: Walk, panels: int) -> list:
    """The walk's pieces grouped for a buffered scatter, as ``(slots, pieces)`` per round.

    A piece's slot is ``row * panels + pan``.  Round k holds the k-th
    piece of every slot that has that many, in the walk's order, so no
    slot repeats within a round, and adding the rounds one after the
    other adds each slot's pieces in the walk's order.
    """
    slots = walk.rows * panels + walk.pans
    order = np.argsort(slots, kind="stable")
    s = slots[order]
    first = np.flatnonzero(np.diff(s, prepend=-1))  # each slot's first place in s
    rank = np.empty_like(order)
    rank[order] = np.arange(s.size) - np.repeat(first, np.diff(first, append=s.size))
    pieces = (np.flatnonzero(rank == k) for k in range(rank.max(initial=-1) + 1))
    return [(slots[k], k) for k in pieces]


class _Table(NamedTuple):
    """What :func:`_assemble` needs of a p-set's mesh whatever the kernel (:func:`_table`)."""

    panels: np.ndarray  # the nodes, (panels, order)
    bws: np.ndarray  # their barycentric weights, (panels, 1, order)
    exp: np.ndarray  # per panel, the scale of its node differences (_bary_weights)
    walk: Walk  # the pieces at the targets a, the nodes, b
    far: list  # per side, its far interpolation matrix, (panels, far points, order), or None
    terms: np.ndarray  # the Gauss-Legendre near pieces' terms, (points, nodes, pieces)
    total: np.ndarray  # their sums over the nodes, (points, pieces)
    rounds: list  # every piece's slot in the matrix, in the scatter rounds of _rounds


def _table(pset: ParameterSet, rule: QuadratureRule) -> _Table:
    """What :func:`_assemble` needs of the p-set's mesh whatever the kernel.

    The contents are those the module docstring lists.  Refuses a mesh
    whose nodes are not strictly increasing: equal nodes have no
    barycentric weight.
    """
    mesh = Mesh.of(pset.a, pset.b, rule)
    nodes = mesh.nodes
    if not (np.diff(nodes) > 0.0).all():
        raise ValueError(
            f"{rule} on [{pset.a!r}, {pset.b!r}] has nodes that round to equal "
            f"values: its end panels are too narrow for the floats there"
        )
    panels = nodes.reshape(rule.panels, rule.order_per_panel)
    bws, exp = _bary_weights(panels)
    bws = bws[:, None, :]
    # the targets ascend, so the targets of a far group are a run of rows
    walk = convolution_walk(pset, np.concatenate([[pset.a], nodes, [pset.b]]), mesh)
    far = [None, None]  # a side without far panels needs none
    for side in {side for side, *_ in walk.far}:
        terms, total = _terms(_differences(*mesh.far[side], panels, exp[:, None]), bws)
        far[side] = terms * (1.0 / total)[..., None]
    terms, total = _near_terms(walk, slice(walk.jacobi, None), walk.legendre, panels, bws, exp)
    return _Table(panels, bws, exp, walk, far, terms, total, _rounds(walk, panels.shape[0]))


def _assemble(pset: ParameterSet, kernel: Kernel, rule: QuadratureRule):
    """(mesh rows, end rows) of K_P on its composite mesh."""
    table = _TABLES.fetch((pset, rule), lambda: _table(pset, rule), _TABLE_BYTES)
    panels, walk = table.panels, table.walk
    order = rule.order_per_panel
    offsets, w, far_w = convolution_rows(walk, kernel)
    out = np.zeros((panels.size + 2, *panels.shape))
    # the far points of a panel are the same for every target: one
    # product per group of targets that share their far panels, written
    # in place, since a group's rows are a run and no other group or
    # piece adds to its slots first
    for (side, rows, pans, *_), fw in zip(walk.far, far_w):
        block = out[rows[0] : rows[-1] + 1, pans].transpose(1, 0, 2)
        np.matmul(fw.transpose(1, 0, 2), table.far[side][pans], out=block)
    # the near points one row per piece, pieces last.  The Gauss-Jacobi
    # pieces come first; their points move with sigma, so their terms are
    # formed here.  The Gauss-Legendre pieces' terms are the table's.
    j = walk.jacobi
    vals = np.empty((order, w.shape[0]))
    jacobi = _near_terms(walk, slice(j), offsets, panels, table.bws, table.exp)
    _piece_rows(*jacobi, w[:j].T, vals[:, :j])
    _piece_rows(table.terms, table.total, w[j:].T, vals[:, j:])
    # each (row, panel) slot gets its pieces in the walk's order, one
    # round at a time
    flat, vals = out.reshape(-1, order), vals.T
    for slots, pieces in table.rounds:
        flat[slots] += vals[pieces]
    M = out.reshape(panels.size + 2, -1)
    return M[1:-1], M[[0, -1]]


def _asked_before(key) -> bool:
    """True if ``key`` was asked for once before, and is then taken off the record.

    Otherwise the key goes on the record (``_ASKED``), which holds keys,
    never values, and drops its oldest past ``_SIGMA_CACHE_SIZE`` of them.
    """
    if _ASKED.pop(key, False):
        return True
    _ASKED[key] = True
    if len(_ASKED) > _SIGMA_CACHE_SIZE:
        _ASKED.popitem(last=False)
    return False


class _Pair(tuple):
    """A half's (mesh rows, end rows) under its shared-cache ``key``.

    ``values`` maps a term's key to its contraction with the pair.
    """

    def __new__(cls, key, rows, ends):
        pair = super().__new__(cls, (rows, ends))
        pair.key, pair.values = key, {}
        return pair


def _pair_key(pset: ParameterSet, kernel: Kernel, rule: QuadratureRule):
    """The shared-cache key of the half's pair; None for a kernel without a key."""
    if kernel.cache_key is None:
        return None
    return ("kop", pset.as_tuple(), kernel.cache_key, rule)


def kop_pair(pset: ParameterSet, kernel: Kernel, rule: QuadratureRule):
    """The pair (mesh rows, end rows) of K_P; a miss assembles it here.

    The pair is kept in the shared cache from the second request for its
    key (p-set, ``kernel.cache_key``, rule) on, so that an order asked
    for once, as a research sweep does, pushes out no moment.  A kernel
    without a key is assembled on every call.
    """
    key = _pair_key(pset, kernel, rule)
    build = lambda: _Pair(key, *_assemble(pset, kernel, rule))
    if key is None:
        return cached(None, build)
    return _CACHE.fetch(key, build, _CACHE_BYTES, _asked_before)


def kept_pair(pset: ParameterSet, kernel: Kernel, rule: QuadratureRule):
    """The half's pair if the shared cache keeps it, else None.

    A peek, not a fetch: it builds nothing and counts no hit or miss, but
    makes the pair the most recently used, since a check reads it
    through its values.
    """
    key = _pair_key(pset, kernel, rule)
    entry = _CACHE.get(key)  # a key of None is never kept
    if entry is None:
        return None
    _CACHE.move_to_end(key)
    return entry[0]


def recall(pair, key):
    """The value kept with ``pair`` (or None) under a term's ``key``, else None.

    Counted as a value hit or a value miss.
    """
    value = None if pair is None or key is None else pair.values.get(key)
    if value is None:
        _CACHE.value_misses += 1
    else:
        _CACHE.value_hits += 1
    return value


def remember(pair, key, value) -> None:
    """Keep ``value`` under a term's ``key`` with ``pair``, if the shared cache keeps the pair.

    A key of None, or a pair the cache does not keep (or no longer does),
    keeps nothing.  A kept value adds ``_VALUE_BYTES`` to its pair's
    bytes, so the one budget bounds the values too.
    """
    if key is None or key in pair.values:
        return
    entry = _CACHE.get(pair.key)
    if entry is not None and entry[0] is pair:
        pair.values[key] = value
        _CACHE.grow(pair.key, _VALUE_BYTES, _CACHE_BYTES)


def kop_matrix(pset: ParameterSet, kernel: Kernel, rule: QuadratureRule) -> np.ndarray:
    """Matrix M with (K v)(nodes) ~ M @ v(nodes) on the p-set's composite mesh.

    The mesh is ``composite_nodes(pset.a, pset.b, rule)``.  Results are
    kept in the one byte-bounded cache of this module, per (p-set,
    ``kernel.cache_key``, rule), from the second request on: the first
    one assembles the matrix and keeps only its key, so the second
    assembles it again.  A cache hit returns the same read-only array
    object.  A kernel without a key is assembled on every call, on the
    kept mesh table.
    """
    return kop_pair(pset, kernel, rule)[0]


def kop_end_rows(pset: ParameterSet, kernel: Kernel, rule: QuadratureRule) -> np.ndarray:
    """2 x N matrix E with ((K v)(a), (K v)(b)) ~ E @ v(nodes), same mesh and cache."""
    return kop_pair(pset, kernel, rule)[1]
