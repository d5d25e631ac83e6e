"""Alternate benchmark runs of REV and the working tree, and write what they measured as JSON.

Usage, from anywhere in a checkout::

    python tools/abbench.py REV OUT [--change REV2] [--workloads W,...] [--seed S]

The files of REV, and those of the working tree (``git stash create``,
so tracked files with their uncommitted changes; ``git add`` a new file
first) or of REV2, are exported with ``git archive`` into two temporary
directories, the same way.  For each workload of ``BENCHMARK.json`` (or
of ``--workloads``), ``PAIRS`` pairs of ``perfbench/run.py
--workload W --seed N --seconds T --trace 0`` then run one at a time,
one run per tree and seed, with T the file's ``run_seconds``.  Seeds
count up from ``--seed`` (default 1) across pairs and workloads, and even
pairs run REV first, odd ones the change first.  ``--change REV`` against
REV itself is an A/A control: the spread of its ratios is the harness's
own.

OUT gets, per workload and for every end-to-end metric of
``BENCHMARK.json`` (``peak_rss_mb`` among them), both sides' medians and
quartiles, the change's median over REV's, REV's IQR, the pairs the
change won and lost, whether its median is within the metric's bound, and
every run; then the operations and failures of each side, every run's
whole report and each side's environment fingerprint.  OUT is rewritten
after each pair, so a stopped run leaves the pairs done so far.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
PAIRS = 10  # per workload: a gain needs 9 wins of 10


def _export(rev: str, into: Path) -> str:
    """The files of ``rev`` under ``into``; returns the commit they came from."""
    commit = subprocess.run(
        ["git", "rev-parse", rev], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, capture_output=True, check=True)
    into.mkdir()
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive.stdout, check=True)
    return commit


def _run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in ``tree``: its last JSON line, with the environment line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True).stdout
    lines = out.strip().splitlines()
    env = next(json.loads(x[4:]) for x in lines if x.startswith("env "))
    return {**json.loads(lines[-1]), "env": env}


def _summary(spec: dict, runs: dict) -> dict:
    """The comparison of one metric over the pairs, as the module docstring lists it."""
    name, lower = spec["name"], spec["better"] == "lower"
    vals = {s: [r["metrics"][name]["value"] for r in runs[s]] for s in SIDES}
    old, new = (float(np.median(vals[s])) for s in SIDES)
    quart = {s: [float(q) for q in np.percentile(vals[s], [25, 75])] for s in SIDES}
    better = [(b < a) if lower else (b > a) for a, b in zip(*vals.values())]
    worse = [(b > a) if lower else (b < a) for a, b in zip(*vals.values())]
    bound = spec["bound"]
    return {
        "unit": spec["unit"], "better": spec["better"], "bound": bound,
        "parent_median": old, "change_median": new,
        "change_over_parent": new / old if old else None,
        "parent_quartiles": quart["parent"], "change_quartiles": quart["change"],
        "parent_iqr": quart["parent"][1] - quart["parent"][0],
        "change_wins": sum(better), "change_losses": sum(worse),
        "within_bound": new <= old * (1 + bound) if lower else new >= old * (1 - bound),
        "parent_runs": vals["parent"], "change_runs": vals["change"],
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev")
    parser.add_argument("out", type=Path)
    parser.add_argument("--change", help="a revision in place of the working tree")
    parser.add_argument("--workloads", help="comma-separated; default every one of BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    out = args.out.resolve()
    with tempfile.TemporaryDirectory() as tmp:
        trees = {s: Path(tmp) / s for s in SIDES}
        change = args.change or subprocess.run(
            ["git", "stash", "create"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip() or "HEAD"
        result = {
            "parent": _export(args.rev, trees["parent"]),
            "change": _export(change, trees["change"]) + ("" if args.change else " (working tree)"),
            "command": f"python3 perfbench/run.py --workload W --seed N --seconds {seconds} "
                       "--trace 0",
            "protocol": "one run per seed and side, one at a time, each tree exported with git "
                        "archive; even pairs run the parent first, odd ones the change first",
            "env": {}, "workloads": {},
        }
        seed = args.seed
        for name in names:
            runs, seeds, first = {s: [] for s in SIDES}, [], {}
            for i in range(PAIRS):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                for side in order:
                    runs[side].append(_run(trees[side], name, seed, seconds))
                    result["env"][side] = runs[side][-1].pop("env")
                seeds.append(seed)
                first[str(seed)] = order[0]
                seed += 1
                result["workloads"][name] = {
                    "pairs": len(seeds), "seeds": seeds, "first": first,
                    "operations": {s: sum(r["attempted"] for r in runs[s]) for s in SIDES},
                    "failed": {s: sum(r["failed"] for r in runs[s]) for s in SIDES},
                    "metrics": {m["name"]: _summary(m, runs) for m in bench["end_to_end"]},
                    "runs": runs,
                }
                out.write_text(json.dumps(result, indent=1) + "\n")
                print(f"{name} pair {i + 1}/{PAIRS} (seed {seeds[-1]}) done", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
