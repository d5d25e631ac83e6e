"""Spans and counts for the traced run, recorded from outside the package.

:meth:`Recorder.install` replaces public functions of each module by
timing wrappers, in the module that calls them (``identities.kop_matrix``,
``opmatrix.singular_nodes``, ``genfrac.kop`` for the benchmark's own
calls, ...), and :meth:`Recorder.restore` puts the originals back.  Spans
are kept in memory as ``[name, start, end, parent, op]`` and written out
when the benchmark ends.  A span's self time is its duration minus that
of its child spans; the benchmark's root span ``bench.op`` has as self
time whatever no layer span covers.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import weakref
from collections import defaultdict
from time import perf_counter

import numpy as np

ROOT_SPAN = "bench.op"

# (module path, attribute, span name); the attribute is replaced where the
# calling module looks it up.
SPANS = (
    ("genfrac", "kop", "ops1d.kop"),
    ("genfrac", "aop", "ops1d.aop"),
    ("genfrac", "bop", "ops1d.bop"),
    ("genfrac.ops2d", "kop", "ops1d.kop"),
    ("genfrac.ops2d", "aop", "ops1d.aop"),
    ("genfrac.ops2d", "bop", "ops1d.bop"),
    ("genfrac", "partial_kop", "ops2d.partial"),
    ("genfrac", "partial_aop", "ops2d.partial"),
    ("genfrac", "partial_bop", "ops2d.partial"),
    ("genfrac", "convergence_study", "identities.convergence_study"),
    ("genfrac", "verify_green", "identities.verify_green"),
    ("genfrac.identities", "verify_green", "identities.verify_green"),
    ("genfrac.identities", "verify_ibp_2d", "identities.verify_ibp_2d"),
    ("genfrac.corpus", "verify_green", "identities.verify_green"),
    ("genfrac.corpus", "verify_ibp_2d", "identities.verify_ibp_2d"),
    ("genfrac.corpus", "corpus_json", "corpus.corpus_json"),
    ("genfrac.corpus", "run_corpus", "corpus.run_corpus"),
    ("genfrac.identities", "kop_matrix", "opmatrix.kop_matrix"),
    ("genfrac.identities", "contour_integral", "quadrature.contour_integral"),
    ("genfrac.identities", "composite_nodes", "quadrature.composite_nodes"),
    ("genfrac.opmatrix", "composite_nodes", "quadrature.composite_nodes"),
    ("genfrac.quadrature", "composite_nodes", "quadrature.composite_nodes"),
    ("genfrac.identities", "singular_nodes", "quadrature.singular_nodes"),
    ("genfrac.opmatrix", "singular_nodes", "quadrature.singular_nodes"),
    ("genfrac.ops1d", "singular_nodes", "quadrature.singular_nodes"),
    ("genfrac.quadrature", "singular_nodes", "quadrature.singular_nodes"),
    ("genfrac", "parse_expression", "funcspec.parse_expression"),
    ("genfrac.funcspec", "parse_expression", "funcspec.parse_expression"),
    ("genfrac.corpus", "parse_expression", "funcspec.parse_expression"),
    ("genfrac.pset.ParameterSet", "dual", "pset.dual"),
)
# Kernel factories: their results get a timed ``evaluate``.
KERNEL_FACTORIES = (("genfrac.specfun", "rl_kernel"), ("genfrac.specfun", "tempered_kernel"))

LAYERS = (
    "pset.dual",
    "funcspec.parse_expression",
    "funcspec.eval",
    "specfun.kernel_evaluate",
    "quadrature.singular_nodes",
    "quadrature.composite_nodes",
    "quadrature.contour_integral",
    "opmatrix.kop_matrix",
    "ops1d.kop",
    "ops1d.aop",
    "ops1d.bop",
    "ops2d.partial",
    "identities.verify_green",
    "identities.verify_ibp_2d",
    "identities.convergence_study",
    "corpus.run_corpus",
    "corpus.corpus_json",
)


def _resolve(path: str):
    """Module or class at a dotted path (``genfrac.pset.ParameterSet``)."""
    parts = path.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for attr in parts[i:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(path)


class Recorder:
    """In-memory span recorder; one instance per traced phase."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        # Matrices returned so far; a matrix object not seen before is a miss.
        self._seen: weakref.WeakValueDictionary = weakref.WeakValueDictionary()

    def reset(self) -> None:
        """Drop spans and counts, keep the matrices already seen."""
        self.spans.clear()
        self.counts.clear()

    def span(self, name: str, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        op = self.spans[parent][4] if parent >= 0 else idx
        record = [name, 0.0, 0.0, parent, op]
        self.spans.append(record)
        self._stack.append(idx)
        record[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            return result if after is None else after(args, result)

        return traced

    # -- hooks: count work where it is done, return the (possibly wrapped) result

    def _matrix(self, args, M):
        if self._seen.get(id(M)) is not M:
            self._seen[id(M)] = M
            self.counts["opmatrix.kop_matrix.misses"] += 1
            self.counts["opmatrix.kop_matrix.assembled_bytes"] += M.nbytes
        return M

    def _nodes(self, args, result):
        self.counts["quadrature.singular_nodes.nodes"] += result[0].size
        return result

    def _contraction(self, args, report):
        n = report.rule.node_count
        self.counts["identities.contraction_flop"] += 8 * n**3
        return report

    def _points(self, args, result):
        self.counts["funcspec.eval.points"] += np.broadcast(*args).size
        return result

    def _funcspec(self, args, spec):
        ev = lambda f: self.wrap("funcspec.eval", f, self._points)  # noqa: E731
        parts = None if spec.partials is None else tuple(ev(p) for p in spec.partials)
        return dataclasses.replace(spec, fn=ev(spec.fn), partials=parts)

    def _kernel(self, kern):
        return dataclasses.replace(kern, evaluate=self.wrap("specfun.kernel_evaluate", kern.evaluate))

    # Span name -> hook run on each result.
    _AFTER = {
        "opmatrix.kop_matrix": "_matrix",
        "quadrature.singular_nodes": "_nodes",
        "identities.verify_green": "_contraction",
        "identities.verify_ibp_2d": "_contraction",
        "funcspec.parse_expression": "_funcspec",
    }

    def _patch(self, path: str, attr: str, make) -> None:
        try:
            owner = _resolve(path)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.missing.append(f"{path}.{attr}")
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        for path, attr, name in SPANS:
            hook = self._AFTER.get(name)
            after = None if hook is None else getattr(self, hook)
            self._patch(path, attr, lambda f, n=name, a=after: self.wrap(n, f, a))
        for path, attr in KERNEL_FACTORIES:
            self._patch(
                path, attr, lambda f: functools.wraps(f)(lambda *a, **k: self._kernel(f(*a, **k)))
            )

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results

    def self_times(self) -> dict[str, tuple[int, float]]:
        """``{span name: (calls, summed self time)}``."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for (name, start, end, parent, op), covered in zip(self.spans, child):
            entry = out[name]
            entry[0] += 1
            entry[1] += (end - start) - covered
        return {k: (v[0], v[1]) for k, v in out.items()}

    def root_durations(self) -> list[float]:
        return [end - start for name, start, end, parent, op in self.spans if parent < 0]

    def write(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = {
            "fields": ["name", "start_s", "end_s", "parent", "op"],
            "names": names,
            "spans": [[index[n], s - t0, e - t0, p, o] for n, s, e, p, o in self.spans],
        }
        path.write_text(json.dumps(doc, separators=(",", ":")))
