"""Check that a change leaves the meshes, operator halves, convolutions and corpus bit for bit.

Usage, from anywhere in a checkout::

    python tools/bitcheck.py [REV]

The files of REV (default ``HEAD``) are exported with ``git archive``
into a temporary directory.  Then one child process per tree, REV's and
the working tree's, each with ``OPENBLAS_NUM_THREADS=1``, dumps:

- ``composite_nodes`` (nodes, weights and edges) over 7 intervals x 4
  rules;
- ``kop_matrix`` and ``kop_end_rows`` over the same intervals and rules x 4
  p-sets x 4 kernels, each on a cold mesh table and on one warmed by the
  previous kernel (a refused combination dumps its error message);
- 400 ``quadrature.convolve`` calls on seeded random intervals, p-sets,
  kernels, rules, targets and operands, each made twice: the second
  call runs on the mesh the first one kept, so a kept mesh that a call
  changes, or that another interval shares, shows;
- ``genfrac corpus --json`` at the default rule and at ``--panels 32``.

Exits 0 if every array and both corpus files are byte-identical, else
prints what differs and exits 1.  Nothing is left on disk.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

# Run in each tree's child: dumps everything under the directory argv[1].
CHILD = r'''
import sys
from pathlib import Path

import numpy as np

from genfrac.cli import main
from genfrac.opmatrix import clear_matrix_cache, kop_end_rows, kop_matrix
from genfrac.pset import ParameterSet
from genfrac.quadrature import QuadratureRule, composite_nodes, convolve
from genfrac.specfun import rl_family, tempered_family

out = Path(sys.argv[1])
arrays = {}
INTERVALS = [(0.0, 1.0), (-1.0, 2.0), (5.0, 5.01), (1000.0, 1001.0), (0.0, 1e-11),
             (-1000.0, -999.0), (1e4, 1e4 + 1.0)]
RULES = [QuadratureRule(16, 8), QuadratureRule(16, 32), QuadratureRule(8, 5), QuadratureRule(4, 1)]
WEIGHTS = [(1.0, 0.0), (0.0, 1.0), (0.3, 1.7), (-1.2, 0.4)]
KERNELS = [rl_family().instantiate(0.5), tempered_family(1.0).instantiate(0.25),
           rl_family().instantiate(1.0), rl_family().instantiate(0.9)]


def dump(key, build):
    try:
        arrays[key] = np.asarray(build())
    except ValueError as exc:
        arrays[key + " refused"] = np.frombuffer(str(exc).encode(), dtype=np.uint8)


for a, b in INTERVALS:
    for rule in RULES:
        size = f"{rule.order_per_panel}x{rule.panels}"
        for name, x in zip(("nodes", "weights", "edges"), composite_nodes(a, b, rule)):
            arrays[f"composite_nodes [{a!r}, {b!r}] {size} {name}"] = x
        for p, q in WEIGHTS:
            P = ParameterSet(a, b, p, q)
            for table in ("warm", "cold"):
                clear_matrix_cache()  # warm: each kernel after the previous one
                for k, kern in enumerate(KERNELS):
                    if table == "cold":
                        clear_matrix_cache()
                    key = f"{table} [{a!r}, {b!r}] {size} ({p}, {q}) k{k}"
                    dump(key + " mesh", lambda: kop_matrix(P, kern, rule))
                    dump(key + " ends", lambda: kop_end_rows(P, kern, rule))
clear_matrix_cache()

rng = np.random.default_rng(19)
for i in range(400):
    a = float(rng.choice([0.0, -1.0, 5.0, 1000.0, -1000.0, 1e4])) + float(rng.uniform(-1, 1))
    b = a + 10.0 ** float(rng.uniform(-3, 1))
    p, q = (float(rng.choice([0.0, 1.0, rng.uniform(-2, 2)])) for _ in range(2))
    if p == q == 0.0:
        p = 1.0
    alpha = float(rng.uniform(0.05, 1.0))
    family = rl_family() if rng.random() < 0.5 else tempered_family(float(rng.uniform(0, 3)))
    rule = RULES[int(rng.integers(len(RULES)))]
    targets = np.sort(np.concatenate([rng.uniform(a, b, int(rng.integers(1, 6))), [a, b]]))
    c = float(rng.uniform(0.5, 3.0))
    f = lambda t: np.cos(c * (t - a)) + (t - a) ** 2
    for warm in ("", " warm"):
        dump(f"convolve {i}{warm}", lambda: convolve(f, ParameterSet(a, b, p, q),
                                                     family.instantiate(alpha), targets, rule,
                                                     message="operand"))

np.savez(out / "arrays.npz", **arrays)
for name, extra in (("corpus.json", []), ("corpus-32.json", ["--panels", "32"])):
    clear_matrix_cache()
    if main(["corpus", "--json", str(out / name), *extra]) != 0:
        sys.exit(f"genfrac corpus {extra} failed")
'''


def _dump(tree: Path, out: Path) -> None:
    out.mkdir()
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(tree / "src"))
    subprocess.run([sys.executable, "-c", CHILD, str(out)], cwd=tree, env=env, check=True)


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        sys.exit("usage: python tools/bitcheck.py [REV]")
    rev = argv[0] if argv else "HEAD"
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        tree = tmp / "tree"
        tree.mkdir()
        archive = subprocess.run(
            ["git", "archive", rev], cwd=ROOT, capture_output=True, check=True
        ).stdout
        subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
        _dump(tree, tmp / "rev")
        _dump(ROOT, tmp / "work")
        bad = []
        with np.load(tmp / "rev/arrays.npz") as old, np.load(tmp / "work/arrays.npz") as new:
            for key in sorted(set(old.files) | set(new.files)):
                if key not in old.files or key not in new.files:
                    bad.append(f"{key}: only in {'the working tree' if key in new.files else rev}")
                    continue
                x, y = old[key], new[key]
                if x.dtype != y.dtype or x.shape != y.shape or x.tobytes() != y.tobytes():
                    bad.append(f"{key}: differs")
            count = len(old.files)
        for name in ("corpus.json", "corpus-32.json"):
            if (tmp / "rev" / name).read_bytes() != (tmp / "work" / name).read_bytes():
                bad.append(f"{name}: differs")
    for line in bad:
        print(line)
    verdict = f"{len(bad)} differ" if bad else "byte-identical"
    print(f"{count} arrays and 2 corpus files against {rev}: {verdict}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
