"""The three workloads of the genfrac benchmark.

Each workload drives the public API from outside the package.  Its inputs
come from ``numpy.random.default_rng([seed, phase])``, so one seed gives
the same inputs on every run; the package only ever sees the generated
inputs.  ``next_op`` returns ``(call, check)``: the benchmark times
``call()`` alone and then hands its result to ``check``, which raises
:class:`CheckFailed` or returns the operation's relative error (``None``
when there is no reference to compare with).

API functions are looked up on the module when ``next_op`` runs, not when
this file is imported, so the traced run sees the wrappers it installs.

Class attributes of a workload: ``units_per_op``, the identity checks or
operator evaluations in one operation; ``tail_pct``, the percentile
reported as ``op_tail_s``, fixed per workload so that it keeps its meaning
when more operations fit in the time; ``window``, the least number of
operations a run makes (leaving at least ten samples beyond ``tail_pct``),
after which peak memory is read; ``traced_ops``, the operations of the
traced phase.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

import genfrac
from genfrac import corpus as gcorpus
from genfrac.specfun import euler_oracle

from common import HERE

# Output gates of acceptance criteria 1, 5 and 6.
IBP_GATE = 1e-5
GREEN_GATE = 1e-4
ORACLE_TOL = {"K": 1e-8, "B": 1e-8, "A": 1e-5}
# Corpus values must match the recorded reference to this relative precision.
REFERENCE_RTOL = 1e-12

WARMUP_PHASE = 99


class CheckFailed(Exception):
    """An operation returned a result that fails its output check."""


class CorpusWorkload:
    """One operation is ``corpus_json(DEFAULT_RULE)``; the seed is ignored."""

    name = "corpus"
    unit = "checks"
    units_per_op = 2 * 144
    tail_pct = 75
    window = 40
    traced_ops = 4

    def __init__(self, seed: int, phase: int):
        doc = json.loads((HERE / "corpus_reference.json").read_text())
        self.reference = doc["entries"]
        self.first = ""
        self.identical = True

    def setup(self) -> None:
        """First pass: fills the matrix cache and fixes the bytes to compare with."""
        self.first = gcorpus.corpus_json(genfrac.DEFAULT_RULE)

    def next_op(self):
        corpus_json, rule = gcorpus.corpus_json, genfrac.DEFAULT_RULE
        return (lambda: corpus_json(rule)), self._check

    def _check(self, text: str) -> float:
        if text != self.first:
            self.identical = False
            raise CheckFailed("corpus JSON differs from the first pass")
        entries = json.loads(text)["entries"]
        if len(entries) != len(self.reference):
            raise CheckFailed(f"{len(entries)} corpus entries, expected {len(self.reference)}")
        worst = 0.0
        for i, (entry, ref) in enumerate(zip(entries, self.reference)):
            for identity, gate in (("ibp2d", IBP_GATE), ("green", GREEN_GATE)):
                rep = entry[identity]
                res = rep["rel_residual"]
                if not res <= gate:
                    raise CheckFailed(f"entry {i} {identity}: residual {res!r} above {gate}")
                worst = max(worst, res)
                want = ref[identity]
                scale = abs(want["lhs"])
                for term in ("lhs", "rhs_area", "rhs_boundary"):
                    # A term that is zero in the reference is compared at the
                    # scale of the identity's left side.
                    tol = REFERENCE_RTOL * (abs(want[term]) or scale)
                    if not abs(rep[term] - want[term]) <= tol:
                        raise CheckFailed(
                            f"entry {i} {identity} {term}: {rep[term]!r}, "
                            f"reference {want[term]!r}"
                        )
        return worst


class SweepWorkload:
    """One operation is ``convergence_study("green", ...)`` at 128/256/512 nodes.

    Every operation draws a fresh order, p-set weights and tempering rate,
    so no operator matrix is shared between operations.  The function
    quadruple, the kernel family (power, tempered) and the stratum of the
    order cycle in a fixed pattern, so every run has the same mix whatever
    the seed.  Caches are
    never cleared: their growth is part of what this workload shows.
    """

    name = "sweep"
    unit = "checks"
    units_per_op = 3
    tail_pct = 75
    window = 40
    traced_ops = 4
    # ``genfrac converge`` defaults: --order 16 --panel-seq 8,16,32
    rules = tuple(genfrac.QuadratureRule(order_per_panel=16, panels=p) for p in (8, 16, 32))

    def __init__(self, seed: int, phase: int):
        self.rng = np.random.default_rng([seed, phase])
        self.warm_rng = np.random.default_rng([seed, WARMUP_PHASE])
        self.count = 0
        self.specs = None

    def setup(self) -> None:
        self.specs = [
            {key: genfrac.parse_expression(text, arity=2) for key, text in fns.items()}
            for fns in gcorpus.CORPUS_FUNCTIONS
        ]
        call, _ = self._op(self.warm_rng, 0)
        call()

    def next_op(self):
        op = self._op(self.rng, self.count)
        self.count += 1
        return op

    def _op(self, rng, index: int):
        n = len(self.specs)
        # Stratified order: eight strata of (0.1, 0.9), each visited once
        # per eight operations, paired with every quadruple over 64.
        stratum = (index + index // n) % 8
        alpha = 0.1 + 0.1 * (stratum + float(rng.uniform()))
        p = float(rng.uniform(0.1, 0.9))
        lam = float(rng.uniform(0.5, 2.0))
        fns = self.specs[index % n]
        use_rl = (index // n) % 2 == 0
        pset = genfrac.ParameterSet(0.0, 1.0, p, 1.0 - p)
        inputs = {
            "f": fns["f"],
            "g": fns["g"],
            "eta": fns["eta1"],
            "alpha": alpha,
            "p1": pset,
            "p2": pset,
            "kernel": genfrac.rl_family() if use_rl else genfrac.tempered_family(lam),
            "rect": gcorpus.CORPUS_RECT,
        }
        study, rules = genfrac.convergence_study, self.rules
        return (lambda: study("green", inputs, rules)), _check_sweep


def _check_sweep(reports) -> float:
    residuals = [r.rel_residual for r in reports]
    if len(residuals) != len(SweepWorkload.rules):
        raise CheckFailed(f"{len(residuals)} reports for {len(SweepWorkload.rules)} rules")
    for r in residuals:
        if not (math.isfinite(r) and r <= GREEN_GATE):
            raise CheckFailed(f"residual {r!r} not finite or above {GREEN_GATE}")
    if not residuals[-1] <= residuals[0]:
        raise CheckFailed(f"finest residual {residuals[-1]!r} above coarsest {residuals[0]!r}")
    return max(residuals)


_POWERS = (0.0, 1.0, 2.0, 2.5)
_SMOOTH_1D = ("exp(t)", "cos(2*t)+t^2", "t^2.5+1")
_SMOOTH_2D = ("sin(t1)*t2+1", "exp(t1-t2)", "t1^2*cos(t2)")
_OPS = {"K": "kop", "A": "aop", "B": "bop"}
_ORACLE_KIND = {"K": "integral", "A": "rl_derivative", "B": "caputo_derivative"}


def _power_text(beta: float, side: str, var: str) -> str:
    if beta == 0.0:
        return "1"
    return f"{var}^{beta!r}" if side == "left" else f"(1-{var})^{beta!r}"


def _operand_text(beta: float, side: str, axis: int | None) -> str:
    """Power operand of the classical reductions; 2D ones carry exp(frozen)."""
    if axis is None:
        return _power_text(beta, side, "t")
    active, frozen = ("t1", "t2") if axis == 1 else ("t2", "t1")
    return f"{_power_text(beta, side, active)}*exp({frozen})"


class PointwiseWorkload:
    """One operation is one call of kop/aop/bop or partial_kop/aop/bop.

    The discrete choices (operator, p-set shape, kernel family) cycle
    through all 36 combinations in a fixed order, so a whole number of
    cycles makes the same calls into every layer whatever the seed; the
    continuous inputs (order, point, tempering rate, weights) are drawn
    fresh for every call.  Operands are powers on the classical subset
    (power kernel, left or right p-set), where ``euler_oracle`` gives the
    exact value, and smooth expressions elsewhere.
    """

    name = "pointwise"
    unit = "evals"
    units_per_op = 1
    tail_pct = 99
    combos = tuple(
        itertools.product(("K", "A", "B"), (False, True), ("left", "right", "mixed"), ("rl", "tempered"))
    )
    window = 400 * len(combos)
    traced_ops = 50 * len(combos)

    def __init__(self, seed: int, phase: int):
        self.rng = np.random.default_rng([seed, phase])
        self.warm_rng = np.random.default_rng([seed, WARMUP_PHASE])
        self.count = 0
        self.specs = None

    def setup(self) -> None:
        texts = [_operand_text(b, s, ax) for b in _POWERS for s in ("left", "right") for ax in (None, 1, 2)]
        texts += [*_SMOOTH_1D, *_SMOOTH_2D]
        self.specs = {t: genfrac.parse_expression(t) for t in texts}
        call, _ = self._op(self.warm_rng, 0)
        call()

    def next_op(self):
        op = self._op(self.rng, self.count)
        self.count += 1
        return op

    def _op(self, rng, index: int):
        kind, partial, shape, family = self.combos[index % len(self.combos)]
        alpha = float(rng.uniform(0.1, 0.9))
        t = float(rng.uniform(0.05, 0.95))
        t_other = float(rng.uniform(0.05, 0.95))
        axis = int(rng.integers(1, 3))
        beta = _POWERS[int(rng.integers(len(_POWERS)))]
        lam = float(rng.uniform(0.5, 2.0))
        p = float(rng.uniform(0.1, 0.9))
        smooth = int(rng.integers(len(_SMOOTH_1D)))

        if shape == "left":
            pset = genfrac.standard_left(0.0, 1.0)
        elif shape == "right":
            pset = genfrac.standard_right(0.0, 1.0)
        else:
            pset = genfrac.ParameterSet(0.0, 1.0, p, 1.0 - p)
        fam = genfrac.rl_family() if family == "rl" else genfrac.tempered_family(lam)
        req = genfrac.OperatorRequest(kind, alpha, pset, fam)
        classical = family == "rl" and shape != "mixed"
        if classical:
            f = self.specs[_operand_text(beta, shape, axis if partial else None)]
        else:
            f = self.specs[(_SMOOTH_2D if partial else _SMOOTH_1D)[smooth]]

        if partial:
            fn = getattr(genfrac, "partial_" + _OPS[kind])
            preq = genfrac.PartialRequest(axis, req)
            t1, t2 = (t, t_other) if axis == 1 else (t_other, t)
            call = lambda: fn(preq, f, t1, t2)  # noqa: E731
        else:
            fn = getattr(genfrac, _OPS[kind])
            call = lambda: fn(req, f, t)  # noqa: E731

        if not classical:
            return call, _check_finite
        exact = euler_oracle(shape, _ORACLE_KIND[kind], alpha, beta, 0.0, 1.0, t)
        if shape == "right" and kind != "K":
            exact = -exact  # right-sided derivatives carry a sign flip
        if partial:
            exact *= math.exp(t_other)
        tol = ORACLE_TOL[kind]

        def check(value: float) -> float:
            err = abs(value - exact) / max(abs(exact), 1e-12)
            if not err <= tol:
                raise CheckFailed(f"{kind} value {value!r}, oracle {exact!r}: rel err {err:.2e}")
            return err

        return call, check


def _check_finite(value: float) -> None:
    if not math.isfinite(value):
        raise CheckFailed(f"non-finite value {value!r}")
    return None


WORKLOADS = {w.name: w for w in (CorpusWorkload, SweepWorkload, PointwiseWorkload)}
