"""The fixed verification corpus.

Eight function quadruples (expression strings) crossed with three orders,
three p-set shapes and two kernel families, all on the unit square.  The
corpus is versioned in-repo so residual tables are reproducible
bit-for-bit; entries are chosen smooth (C^1) and never all-constant, so
every report's residual stays above floating-point noise and refinement
comparisons are meaningful.
"""

from __future__ import annotations

import json

from .funcspec import parse_expression
from .identities import verify_green, verify_ibp_2d
from .pset import parse_psets
from .quadrature import DEFAULT_RULE, QuadratureRule, Rectangle
from .specfun import kernel_family_from_label

__all__ = [
    "CORPUS_RECT",
    "CORPUS_ALPHAS",
    "CORPUS_PSETS",
    "CORPUS_KERNELS",
    "CORPUS_FUNCTIONS",
    "iter_corpus",
    "run_corpus",
    "corpus_json",
]

CORPUS_RECT = Rectangle(0.0, 1.0, 0.0, 1.0)
CORPUS_ALPHAS = (0.25, 0.5, 0.75)
CORPUS_PSETS = ("left", "right", "mixed")
CORPUS_KERNELS = ("rl", "tempered:1")

# f, g, eta1, eta2; the Green check uses eta := eta1.
CORPUS_FUNCTIONS = (
    {"f": "t1+t2", "g": "t1*t2", "eta1": "t1^2", "eta2": "t2^2"},
    {"f": "1", "g": "t1", "eta1": "1+t2", "eta2": "t1+t2"},
    {"f": "t1+t2", "g": "t1*t2", "eta1": "sin(t1)*t2", "eta2": "t1*cos(t2)"},
    {"f": "exp(t1-t2)", "g": "t2^2+1", "eta1": "exp(t1)*t2", "eta2": "t1*exp(t2)"},
    {"f": "cos(t1+t2)", "g": "sin(t1+t2)", "eta1": "t1^2*cos(t2)", "eta2": "sin(t1)+t2^2"},
    {"f": "t1^3-t2^2", "g": "2+t1*t2^2", "eta1": "t1^2*t2^2", "eta2": "(t1+t2)^2"},
    {"f": "t1^2.5+t2", "g": "1+t2^1.5", "eta1": "t1*t2+t1^3", "eta2": "t2^3-t1"},
    {"f": "sin(2*t1)*exp(t2/2)", "g": "cos(3*t2)", "eta1": "t1*(1-t1)*t2*(1-t2)", "eta2": "t2*sin(t1)"},
)


def iter_corpus():
    """Yield (functions, alpha, pset_spec, kernel_spec) in the fixed order."""
    for fns in CORPUS_FUNCTIONS:
        for alpha in CORPUS_ALPHAS:
            for pspec in CORPUS_PSETS:
                for kspec in CORPUS_KERNELS:
                    yield fns, alpha, pspec, kspec


def run_corpus(rule: QuadratureRule = DEFAULT_RULE) -> dict:
    """Run both identities over the whole corpus; deterministic order."""
    rect = CORPUS_RECT
    # One spec per distinct expression, p-set spec and kernel label,
    # shared by every entry that uses it.
    texts = dict.fromkeys(text for fns in CORPUS_FUNCTIONS for text in fns.values())
    specs = {text: parse_expression(text, arity=2) for text in texts}
    psets = {pspec: [p for axis in (rect.axis1, rect.axis2) for p in parse_psets(pspec, axis)]
             for pspec in CORPUS_PSETS}
    kernels = {kspec: kernel_family_from_label(kspec) for kspec in CORPUS_KERNELS}
    entries = []
    for fns, alpha, pspec, kspec in iter_corpus():
        f, g, eta1, eta2 = (specs[fns[k]] for k in ("f", "g", "eta1", "eta2"))
        p1, p2 = psets[pspec]
        kernel = kernels[kspec]
        ibp = verify_ibp_2d(f, g, eta1, eta2, alpha, p1, p2, kernel, rect, rule)
        green = verify_green(f, g, eta1, alpha, p1, p2, kernel, rect, rule)
        entries.append(
            {
                "functions": dict(fns),
                "alpha": alpha,
                "pset": pspec,
                "kernel": kspec,
                "ibp2d": ibp.to_json_dict(),
                "green": green.to_json_dict(),
            }
        )
    return {
        "rect": [rect.a1, rect.b1, rect.a2, rect.b2],
        "rule": rule.to_json_dict(),
        "entries": entries,
    }


def corpus_json(rule: QuadratureRule = DEFAULT_RULE) -> str:
    return json.dumps(run_corpus(rule), indent=2) + "\n"
