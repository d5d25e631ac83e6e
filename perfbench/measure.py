"""Measured loop and the metrics computed from it."""

from __future__ import annotations

import math
import resource
import statistics
import sys
from time import perf_counter

import tracer
import workloads

# Relative errors are reported as correct digits, -log10(error), with the
# error floored here so an exact result gives a finite value.
ERROR_FLOOR = 1e-16


def _peak_rss_mib() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 2**20 if sys.platform == "darwin" else peak / 2**10


def _tail(durations: list[float], pct: float) -> tuple[float, int]:
    """The ``pct`` percentile (nearest rank) and the number of samples beyond it."""
    ordered = sorted(durations)
    k = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[k - 1], len(ordered) - k


class Phase:
    """Outcome of one measured loop."""

    def __init__(self) -> None:
        self.durations: list[float] = []
        self.failures: list[str] = []
        self.errors: list[float] = []
        self.window_rss_mib: float | None = None


def run_loop(wl, seconds: float, min_ops: int, rec=None) -> Phase:
    """Closed loop for at least ``seconds`` and at least ``min_ops`` operations.

    Peak RSS is sampled right after operation ``min_ops``, so it depends on
    the inputs and not on how many operations fit in the time.
    """
    phase = Phase()
    deadline = perf_counter() + seconds
    while len(phase.durations) < min_ops or perf_counter() < deadline:
        call, check = wl.next_op()
        failure = None
        t0 = perf_counter()
        try:
            result = call() if rec is None else rec.span(tracer.ROOT_SPAN, call)
        except Exception as exc:  # an operation that raises counts as failed
            failure = f"raised {exc!r}"
        phase.durations.append(perf_counter() - t0)
        if failure is None:
            try:
                err = check(result)
            except workloads.CheckFailed as exc:
                failure = str(exc)
            except Exception as exc:  # a result the check cannot read is wrong too
                failure = f"check raised {exc!r}"
            else:
                if err is not None:
                    phase.errors.append(err)
        if failure is not None:
            phase.failures.append(failure)
        if len(phase.durations) == min_ops:
            phase.window_rss_mib = _peak_rss_mib()
    return phase


def end_to_end(wl, phase: Phase, setup: list[float]) -> tuple[dict, list[str]]:
    durations = phase.durations
    n = len(durations)
    p50 = statistics.median(durations)
    tail, beyond = _tail(durations, wl.tail_pct)
    rate = n * wl.units_per_op / sum(durations)
    worst = max(phase.errors, default=math.nan)
    digits = statistics.median([-math.log10(max(e, ERROR_FLOOR)) for e in phase.errors] or [math.nan])
    metrics = {
        "op_p50_s": (p50, "s"),
        "op_tail_s": (tail, "s"),
        "work_per_s": (rate, "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (phase.window_rss_mib, "MiB"),
        "accuracy_digits": (digits, "digits"),
    }
    rate_name = "evals_per_s" if wl.unit == "evals" else "checks_per_s"
    err_name = "max_oracle_rel_err" if wl.unit == "evals" else "max_rel_residual"
    lines = [
        f"op_p50_s {p50:.6g} s (median of {n} operations)",
        f"op_tail_s {tail:.6g} s (p{wl.tail_pct:g}, {beyond} of {n} samples beyond)",
        f"{rate_name} {rate:.6g} 1/s (work_per_s)",
        f"setup_s {statistics.median(setup):.6g} s (median of {len(setup)} cold starts: "
        + ", ".join(f"{s:.3f}" for s in setup) + ")",
        f"peak_rss_mb {phase.window_rss_mib:.6g} MiB (peak RSS after operation {wl.window})",
        f"{err_name} {worst!r}",
        f"accuracy_digits {digits:.6g} digits (median over {len(phase.errors)} checked operations)",
        f"fail_ratio {len(phase.failures) / n:.6g} ({len(phase.failures)} of {n} operations)",
    ]
    return metrics, lines


def per_layer(rec, traced: list[float], untraced_p50: float, import_s: float) -> dict:
    times = rec.self_times()
    counts = rec.counts
    metrics = {"import.genfrac_s": (import_s, "s")}
    for layer in tracer.LAYERS:
        calls, self_s = times.get(layer, (0, 0.0))
        metrics[f"{layer}.calls"] = (calls, "count")
        metrics[f"{layer}.self_s"] = (self_s, "s")
    kop_calls = times.get("opmatrix.kop_matrix", (0, 0.0))[0]
    misses = int(counts["opmatrix.kop_matrix.misses"])
    metrics["opmatrix.kop_matrix.misses"] = (misses, "count")
    metrics["opmatrix.kop_matrix.hit_ratio"] = ((kop_calls - misses) / kop_calls if kop_calls else 0.0, "ratio")
    metrics["opmatrix.kop_matrix.assembled_mb"] = (counts["opmatrix.kop_matrix.assembled_bytes"] / 2**20, "MiB")
    metrics["identities.contraction_gflop"] = (counts["identities.contraction_flop"] / 1e9, "GFLOP")
    metrics["quadrature.singular_nodes.nodes"] = (int(counts["quadrature.singular_nodes.nodes"]), "count")
    metrics["funcspec.eval.points"] = (int(counts["funcspec.eval.points"]), "count")
    op_s = sum(traced)
    unattributed = times.get(tracer.ROOT_SPAN, (0, 0.0))[1]
    traced_p50 = statistics.median(traced)
    metrics["trace.op_s"] = (op_s, "s")
    metrics["trace.op_p50_s"] = (traced_p50, "s")
    metrics["trace.overhead_ratio"] = (traced_p50 / untraced_p50, "ratio")
    metrics["trace.unattributed_s"] = (unattributed, "s")
    metrics["trace.attributed_ratio"] = (1.0 - unattributed / op_s, "ratio")
    return metrics


