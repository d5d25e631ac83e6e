"""Time one operator half on a warm mesh table, and one ``kop`` call, REV against the working tree.

Usage, from anywhere in a checkout::

    python tools/halftime.py [REV]

The files of REV (default ``HEAD``) are exported with ``git archive``
into a temporary directory.  Child processes of REV's tree and of the
working tree then run in turn, alternating which goes first, each with
``OPENBLAS_NUM_THREADS=1``.  A child builds the mesh tables of both
halves of [0, 1] at 128, 256 and 512 nodes (16-point panels), then
times ``opmatrix._assemble`` for a fresh order on each, the
Riemann-Liouville and the tempered kernel in turn.  What a new order on
a known mesh costs is what a convergence sweep pays per half.  The same
child then times ``genfrac.kop`` at t = 0.7 on ``ParameterSet(0, 1,
0.3, 0.7)`` with the Riemann-Liouville kernel at a fresh order per call,
what a single evaluation pays.

The two trees' children of a round run back to back, so each round
gives one ratio, the working tree's median time over REV's, per node
count and for ``kop``; a round on a noisy moment of a shared host moves
one ratio, not a whole side.  Prints, per node count and then for one
``kop`` call, REV's time (the median of its rounds' medians) and the
median of the per-round ratios with their quartiles.  Nothing is left on
disk.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ROUNDS = 12  # child processes per tree
ORDERS = 20  # fresh orders per half and node count in each child
KOPS = 1000  # kop calls in each child
NODES = (128, 256, 512)

# Run in each tree's child: prints {nodes: [seconds per half, ...], "kop":
# [seconds per call, ...]} as JSON.
CHILD = r'''
import json
import sys
import time

import numpy as np

import genfrac
from genfrac import opmatrix
from genfrac.pset import standard_left, standard_right
from genfrac.quadrature import QuadratureRule
from genfrac.specfun import rl_family, tempered_family

orders, seed, kops = map(int, sys.argv[1:4])
nodes = json.loads(sys.argv[4])
rng = np.random.default_rng(seed)
families = [rl_family(), tempered_family(1.0)]
halves = [standard_left(0.0, 1.0), standard_right(0.0, 1.0)]
times = {}
for n in nodes:
    rule = QuadratureRule(16, n // 16)
    for P in halves:  # warm the tables, and the code paths, with one order each
        opmatrix._assemble(P, families[0].instantiate(0.5), rule)
    times[n] = []
    for i in range(orders):
        for P in halves:
            kernel = families[i % 2].instantiate(float(rng.uniform(0.05, 0.95)))
            start = time.perf_counter()
            opmatrix._assemble(P, kernel, rule)
            times[n].append(time.perf_counter() - start)
P, f = genfrac.ParameterSet(0.0, 1.0, 0.3, 0.7), genfrac.parse_expression("sin(3*t) + t^2")
genfrac.kop(genfrac.OperatorRequest("K", 0.5, P, families[0]), f, 0.7)  # warm the code paths
times["kop"] = []
for i in range(kops):
    req = genfrac.OperatorRequest("K", float(rng.uniform(0.05, 0.95)), P, families[0])
    start = time.perf_counter()
    genfrac.kop(req, f, 0.7)
    times["kop"].append(time.perf_counter() - start)
print(json.dumps(times))
'''


def _times(tree: Path, seed: int) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(tree / "src"))
    out = subprocess.run(
        [sys.executable, "-c", CHILD, str(ORDERS), str(seed), str(KOPS), json.dumps(NODES)],
        cwd=tree, env=env, capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out)


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        sys.exit("usage: python tools/halftime.py [REV]")
    rev = argv[0] if argv else "HEAD"
    keys = [*map(str, NODES), "kop"]
    base = {n: [] for n in keys}  # REV's median per round
    ratios = {n: [] for n in keys}  # the working tree's median over REV's, per round
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        archive = subprocess.run(
            ["git", "archive", rev], cwd=ROOT, capture_output=True, check=True
        ).stdout
        subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
        for r in range(ROUNDS):
            # both trees draw the same orders in a round; odd rounds run REV first
            sides = [("rev", tree), ("work", ROOT)]
            med = {name: _times(path, r) for name, path in (sides if r % 2 else sides[::-1])}
            for n in keys:
                old, new = (statistics.median(med[name][n]) for name in ("rev", "work"))
                base[n].append(old)
                ratios[n].append(new / old)

    def line(n, scale):
        q1, mid, q3 = statistics.quantiles(ratios[n], n=4)
        old = statistics.median(base[n]) * scale
        return f"{old:8.3f} at {rev}; working tree {mid:.3f} of it [quartiles {q1:.3f}, {q3:.3f}]"

    print(f"one half on a warm table (ms), {ROUNDS} paired rounds of {ORDERS * 2} halves:")
    for n in map(str, NODES):
        print(f"{n:>4} nodes: {line(n, 1e3)}")
    print(f"one kop call at t = 0.7 (us), {ROUNDS} paired rounds of {KOPS} calls:")
    print(f"     kop: {line('kop', 1e6)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
