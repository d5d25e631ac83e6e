"""The ROADMAP baseline table, measured by the traced run.

``verify_green`` with the tempered kernel and mixed p-sets at 64, 128,
256 and 512 nodes per axis.  A cold timing clears the operator-matrix
cache first; a warm timing repeats the check on the filled cache.  Each
timing is the median of several repeats and is stored next to the
residual it reached, in the row schema of ROADMAP item 1.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import genfrac
from genfrac.corpus import CORPUS_FUNCTIONS, CORPUS_RECT
from genfrac.opmatrix import clear_matrix_cache

NODES = (64, 128, 256, 512)
ORDER = 16
REPEATS = 5
CASE = "verify_green tempered:1 mixed alpha=0.5 f=t1+t2 g=t1*t2 eta=sin(t1)*t2"

# The table in ROADMAP.md ("Seed state"), seconds; None where it has no entry.
ROADMAP_SECONDS = {64: (0.056, None), 128: (0.083, 0.064), 256: (0.25, 0.076), 512: (0.65, 0.15)}


def _check(rule):
    fns = CORPUS_FUNCTIONS[2]
    pset = genfrac.ParameterSet(0.0, 1.0, 0.5, 0.5)
    return genfrac.verify_green(
        genfrac.parse_expression(fns["f"], arity=2),
        genfrac.parse_expression(fns["g"], arity=2),
        genfrac.parse_expression(fns["eta1"], arity=2),
        0.5,
        pset,
        pset,
        genfrac.tempered_family(1.0),
        CORPUS_RECT,
        rule,
    )


def _timed(rule):
    t0 = perf_counter()
    report = _check(rule)
    return perf_counter() - t0, report.rel_residual


def measure(env: dict) -> tuple[list[dict], list[str]]:
    """Rows of the table, and a message for each size whose residuals differ."""
    rows, problems = [], []
    for nodes in NODES:
        rule = genfrac.QuadratureRule(order_per_panel=ORDER, panels=nodes // ORDER)
        cold, warm, residuals = [], [], set()
        for _ in range(REPEATS):
            clear_matrix_cache()
            seconds, residual = _timed(rule)
            cold.append(seconds)
            residuals.add(residual)
        for _ in range(REPEATS):
            seconds, residual = _timed(rule)
            warm.append(seconds)
            residuals.add(residual)
        if len(residuals) != 1:
            problems.append(f"baseline: verify_green at {nodes} nodes gave residuals {sorted(residuals)}")
        rows.append(
            {
                "case": CASE,
                "layer": "end_to_end",
                "nodes": nodes,
                "seconds_cold": statistics.median(cold),
                "seconds_warm": statistics.median(warm),
                "rel_residual": max(residuals),
                "env": env,
            }
        )
    clear_matrix_cache()
    return rows, problems


def format_rows(rows: list[dict]) -> list[str]:
    lines = [
        f"ROADMAP baseline: {CASE}, median of {REPEATS}",
        "nodes | cold s   | warm s   | rel_residual | ROADMAP cold / warm s | measured / ROADMAP",
    ]
    for row in rows:
        ref_cold, ref_warm = ROADMAP_SECONDS[row["nodes"]]
        ratio_warm = "-" if ref_warm is None else f"{row['seconds_warm'] / ref_warm:.2f}"
        ref_warm_text = "-" if ref_warm is None else f"{ref_warm:g}"
        lines.append(
            f"{row['nodes']:5d} | {row['seconds_cold']:.5f}  | {row['seconds_warm']:.5f}  | "
            f"{row['rel_residual']:.3e}    | {ref_cold:g} / {ref_warm_text:<13}  | "
            f"cold {row['seconds_cold'] / ref_cold:.2f}, warm {ratio_warm}"
        )
    return lines
