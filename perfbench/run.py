"""The genfrac benchmark.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload {corpus,sweep,pointwise} \\
        --seed N --seconds S --trace {0,1}

One process, one caller, closed loop: the next operation starts only when
the previous one has returned, and BLAS runs on the calling thread
alone.  Each operation's result is checked before the next one starts;
the checks are not timed.

``--trace 0`` measures the end-to-end metrics for ``--seconds`` seconds.
``--trace 1`` does the same untraced measurement, then a fixed number of
operations with spans around every layer (see ``tracer.py``), then the
ROADMAP baseline table, and reports the per-layer metrics.  Human-readable
lines come first; the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Details (environment, spans, the baseline rows) are written under
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from time import perf_counter

import common

SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
# Share of traced operation time the layer spans should account for.
MIN_ATTRIBUTED = 0.9


def setup_probes(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Cold starts in fresh interpreters, one after another."""
    setup, imports = [], []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, str(common.HERE / "setup_probe.py"), workload, str(seed)],
            cwd=common.ROOT,
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()}")
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        setup.append(report["ready"] - t0)
        imports.append(report["import_s"])
    return setup, imports


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("corpus", "sweep", "pointwise"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    common.one_blas_thread()
    common.import_genfrac()
    import baseline
    import envinfo
    import measure
    import tracer
    import workloads

    env = envinfo.fingerprint()
    common.OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    print("env " + json.dumps(env, sort_keys=True))

    setup, imports = setup_probes(args.workload, args.seed)
    cls = workloads.WORKLOADS[args.workload]
    wl = cls(args.seed, 0)
    t0 = perf_counter()
    wl.setup()
    print(f"workload {cls.name}: in-process warm-up {perf_counter() - t0:.3f} s, "
          f"measuring {args.seconds:g} s and at least {cls.window} operations")
    phase = measure.run_loop(wl, args.seconds, cls.window)
    metrics, lines = measure.end_to_end(wl, phase, setup)
    if args.workload == "corpus":
        lines.append(f"corpus passes byte-identical: {wl.identical}")
    failures = list(phase.failures)
    attempted = len(phase.durations)
    detail = {"env": env, "workload": cls.name, "seed": args.seed, "end_to_end": metrics,
              "report": lines, "import_s": imports, "setup_s": setup, "durations": phase.durations}

    if args.trace:
        rec = tracer.Recorder()
        rec.install()
        try:
            traced_wl = cls(args.seed, 2)
            traced_wl.setup()
            rec.reset()
            traced = measure.run_loop(traced_wl, 0.0, cls.traced_ops, rec)
        finally:
            rec.restore()
        failures += traced.failures
        attempted += len(traced.durations)
        rec.write(common.OUT / f"spans-{tag}.json")
        layer = measure.per_layer(rec, rec.root_durations(), metrics["op_p50_s"][0], statistics.median(imports))
        rows, problems = baseline.measure(env)
        failures += problems
        (common.OUT / f"baseline-{tag}.json").write_text(json.dumps(rows, indent=1))
        if rec.missing:
            lines.append("not traced (missing): " + ", ".join(rec.missing))
        attributed = layer["trace.attributed_ratio"][0]
        lines.append(
            f"trace: {len(traced.durations)} operations, {attributed:.1%} of their time in layer "
            f"self times ({'ok' if attributed >= MIN_ATTRIBUTED else 'LOW'}, expected at least "
            f"{MIN_ATTRIBUTED:.0%}), {layer['trace.unattributed_s'][0]:.6g} s unattributed, "
            f"overhead ratio {layer['trace.overhead_ratio'][0]:.4f}"
        )
        lines += [f"{name} {value!r} {unit}" for name, (value, unit) in layer.items()]
        lines += baseline.format_rows(rows)
        detail["per_layer"] = layer
        detail["baseline"] = rows
        metrics = layer

    for line in lines:
        print(line)
    for message in failures[:5]:
        print(f"failed: {message}", file=sys.stderr)
    detail["failures"] = failures
    (common.OUT / f"result-{tag}.json").write_text(json.dumps(detail, indent=1, default=str))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
