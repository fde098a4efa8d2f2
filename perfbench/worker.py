"""One workload in one fresh process; `run.py` starts it and reads its result.

With --setup-only the process imports snowcap, generates the workload's
inputs and prints the monotonic time at which the first timed call would
start, so the parent can time set-up from process start. Otherwise it repeats
the workload's fixed work until --seconds have passed (at least twice), runs
the output checks, and with --trace 1 runs one more rep under the tracer.
It prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_REPS = 2
LAYER_MODULES = ("simsys", "geomfield", "forms", "stochastic", "records", "cli")
THREAD_VARS = ("SNOWCAP_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def import_snowcap():
    """Import snowcap from the checkout's src/, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    try:
        import snowcap
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import snowcap from {src}: {exc}")
    if Path(snowcap.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"perfbench: snowcap resolved to {snowcap.__file__}, not under {src}")
    return snowcap


def trace_targets():
    from snowcap import cli, forms, geomfield, records, simsys, stochastic

    def walk_counts(r):
        return {"trials": r.trials, "absorbed": r.absorbed, "clamp_events": r.clamp_events}

    targets = [
        (simsys, "realize", "simsys.realize", lambda r: {"primitives": len(r)}),
        (geomfield, "build_grid", "geomfield.build_grid", None),
        (geomfield, "distance_field", "geomfield.distance_field",
         lambda r: {"cells": r.grid.n_cells}),
        (geomfield, "minkowski_dimension", "geomfield.minkowski_dimension", None),
        (forms, "assemble_form", "forms.assemble_form", None),
        (forms, "capacity_relaxed", "forms.capacity_relaxed",
         lambda r: {"cg_iters": r.solver_iters}),
        (forms, "hardy_quotient", "forms.hardy_quotient", None),
        (forms, "collar_integral", "forms.collar_integral", None),
        (stochastic, "walk_absorption", "stochastic.walk_absorption", walk_counts),
        (records, "append_record", "records.append_record", lambda r: {"appends": 1}),
        (records, "load_ids", "records.load_ids", None),
        (records, "load_records", "records.load_records", lambda r: {"loaded": len(r)}),
    ]
    return targets, (cli,)


def layer_metrics(summary, traced_wall, untraced_wall, cpu_s, phase_mis) -> dict:
    def row(name):
        return summary.get(name, {"calls": 0, "busy_s": 0.0, "union_s": 0.0, "counts": {}})

    def busy(name):
        return row(name)["busy_s"]

    def count(name, key):
        return row(name)["counts"].get(key, 0)

    def per(a, b):
        return a / b if b else 0.0

    cap, field, walk = (row("forms.capacity_relaxed"), row("geomfield.distance_field"),
                        row("stochastic.walk_absorption"))
    cg_iters = count("forms.capacity_relaxed", "cg_iters")
    cells = count("geomfield.distance_field", "cells")
    trials = count("stochastic.walk_absorption", "trials")
    m = {
        "forms.capacity_relaxed.busy_s": cap["busy_s"],
        "forms.capacity_relaxed.calls": cap["calls"],
        "forms.cg_iters": cg_iters,
        "forms.cg_iters_per_solve": per(cg_iters, cap["calls"]),
        "forms.hardy_quotient.busy_s": busy("forms.hardy_quotient"),
        "forms.assemble_form.busy_s": busy("forms.assemble_form"),
        "forms.collar_integral.busy_s": busy("forms.collar_integral"),
        "geomfield.distance_field.busy_s": field["busy_s"],
        "geomfield.distance_field.calls": field["calls"],
        "geomfield.distance_field.union_s": field["union_s"],
        "geomfield.cells": cells,
        "geomfield.distance_field.cells_per_s": per(cells, field["busy_s"]),
        "geomfield.build_grid.busy_s": busy("geomfield.build_grid"),
        "geomfield.minkowski_dimension.busy_s": busy("geomfield.minkowski_dimension"),
        "stochastic.walk_absorption.busy_s": walk["busy_s"],
        "stochastic.trials": trials,
        "stochastic.trials_per_s": per(trials, walk["busy_s"]),
        "stochastic.absorbed": count("stochastic.walk_absorption", "absorbed"),
        "stochastic.clamp_events": count("stochastic.walk_absorption", "clamp_events"),
        "simsys.realize.busy_s": busy("simsys.realize"),
        "simsys.primitives": count("simsys.realize", "primitives"),
        "records.append_record.busy_s": busy("records.append_record"),
        "records.appends": count("records.append_record", "appends"),
        "records.load_ids.busy_s": busy("records.load_ids"),
        "records.load_records.busy_s": busy("records.load_records"),
        "records.records_loaded": count("records.load_records", "loaded"),
        "cli.sweep.busy_s": busy("cli.sweep"),
        "cli.resume.busy_s": busy("cli.resume"),
        "cli.report.busy_s": busy("cli.report"),
        "cli.phase_misclassified": phase_mis,
        "process.cpu_s": cpu_s,
        "trace.overhead_s": traced_wall - untraced_wall,
    }
    for mod in LAYER_MODULES:
        m[f"{mod}.self_s"] = sum(r["self_s"] for n, r in summary.items()
                                 if n.startswith(mod + "."))
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", default="full")
    ap.add_argument("--reference", default=str(HERE / "reference.json"))
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import_snowcap()
    import numpy
    import scipy
    from workloads import WORKLOADS, Ledger, StepFailed

    os.makedirs(args.out_dir, exist_ok=True)
    wl = WORKLOADS[args.workload](args.size, args.seed, args.out_dir)
    t_first = time.monotonic()
    if args.setup_only:
        print(json.dumps({"t_first": t_first}))
        return 0

    with open(args.reference, encoding="utf-8") as fh:
        reference = json.load(fh)[args.size].get(args.workload, {})
    ledger = Ledger()
    walls, outs = [], []
    t0 = time.perf_counter()
    try:
        while len(walls) < MIN_REPS or time.perf_counter() - t0 < args.seconds:
            w0 = time.perf_counter()
            out = wl.run(ledger, keep=not outs)
            walls.append(time.perf_counter() - w0)
            outs.append(out)
        wl.check(ledger, outs, reference)
    except StepFailed:
        pass
    # mean rep time = all timed work over the reps: the host's speed drifts
    # over tens of seconds, which a median over a few reps follows more.
    untraced_wall = statistics.fmean(walls) if walls else float("nan")

    result = {
        "t_first": t_first,
        "reps": len(walls),
        "walls": walls,
        "facts": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "usable_cores": len(os.sched_getaffinity(0)),
            "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        },
    }
    if args.trace and outs:
        from tracing import Tracer, nesting_violations, summarize

        tracer = Tracer()
        targets, importers = trace_targets()
        tracer.install(targets, importers)
        try:
            c0, w0 = time.process_time(), time.perf_counter()
            with tracer.span("benchmark.rep"):
                traced_out = wl.run(ledger, tracer=tracer, keep=True)
            traced_wall = time.perf_counter() - w0
            cpu_s = time.process_time() - c0
        except StepFailed:
            traced_out = None
        finally:
            tracer.restore()
        if traced_out is not None:
            ledger.check("traced rep reproduces the untraced outputs bitwise",
                         wl.signature(traced_out) == wl.signature(outs[0]))
            bad = nesting_violations(tracer.spans)
            ledger.check("children's self times fit inside their parent span",
                         not bad, "; ".join(bad[:5]))
            result["metrics"] = layer_metrics(summarize(tracer.spans), traced_wall,
                                              untraced_wall, cpu_s,
                                              wl.phase_misclassified(outs[0]))
        with open(os.path.join(args.out_dir, f"trace-{args.workload}-seed{args.seed}.json"),
                  "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    elif outs:
        result["metrics"] = {
            "wall_s": untraced_wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "dim_abs_err": wl.dim_abs_err(outs[0]),
        }
        result["phase_misclassified"] = wl.phase_misclassified(outs[0])
    result["attempted"] = ledger.attempted
    result["failures"] = ledger.failures
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
