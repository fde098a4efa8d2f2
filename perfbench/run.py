"""snowcap benchmark: one workload per invocation, one JSON result line.

    python3 perfbench/run.py --workload sweep-cantor --seed 1 --seconds 25 --trace 0

Run from the repository root; snowcap is imported from ./src. Workloads are
described in perfbench/workloads.py. Every run starts fresh processes: the
worker that repeats the workload, and three set-up probes before it and three
after it (import snowcap and generate the inputs, then exit). setup_s is the
median, over the probes and the worker, of the time from process start to
the first timed call.

--trace 0 reports the end-to-end metrics:
  wall_s       time of one rep of the workload's fixed work: all timed reps
               (at least two, until --seconds have passed) over their count
  setup_s      median set-up time, see above
  peak_rss_mb  peak resident memory of the worker process
  ok_frac      share of attempted public calls and output checks that held
               (1 - failed/attempted; the failures are listed on stderr)
  dim_abs_err  largest |box-counting fit - similarity dimension| over the
               distance fields the workload builds
--trace 1 adds one traced rep and reports the per-layer metrics instead.

Each result, with the seed and the machine facts (usable cores, Python,
numpy and scipy versions, thread variables, load average before and after),
is also written to .perfbench_out/, beside the span dump of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("sweep-cantor", "koch-field-hardy", "walk-cantor")
SETUP_PROBES = 6
DEADLINE_S = 170.0
# The process's compute threads are the CLI sweep's two-thread pool. Left at
# its default, OpenBLAS adds a pool of its own that spins on the second core:
# the Hardy CG then took 10.6 s wall and 19.8 s CPU against 8.0 s for both
# with one BLAS thread. A caller's own setting is kept.
BLAS_DEFAULTS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
    "dim_abs_err": "dimension",
}


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_per_solve"):
        return "iters"
    return "count"


def _worker(args, out_dir, *extra):
    return [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--size", args.size,
        "--reference", args.reference, "--out-dir", str(out_dir), *extra,
    ]


def _launch(cmd, timeout):
    """Run a child to completion; return (monotonic launch time, last stdout line)."""
    env = {**BLAS_DEFAULTS, **os.environ}
    t0 = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout, env=env)
    if proc.returncode != 0:
        sys.exit(proc.returncode)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit("perfbench: worker printed no result")
    return t0, json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny is for perfbench/selftest.py")
    ap.add_argument("--reference", default=str(HERE / "reference.json"))
    args = ap.parse_args()

    start = time.monotonic()
    load_before = os.getloadavg()
    out_dir = Path.cwd() / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)

    def remaining():
        return DEADLINE_S - (time.monotonic() - start)

    def probe():
        t0, res = _launch(_worker(args, out_dir, "--setup-only"), remaining())
        return res["t_first"] - t0

    # probes before and after the worker, so set-up is sampled across the run
    setups = [probe() for _ in range(SETUP_PROBES // 2)]
    t0, res = _launch(_worker(args, out_dir, "--trace", str(args.trace)), remaining())
    setups.append(res["t_first"] - t0)
    setups += [probe() for _ in range(SETUP_PROBES // 2)]
    load_after = os.getloadavg()

    if "metrics" not in res:
        sys.stderr.write("\n".join(res["failures"]) + "\n")
        sys.exit("perfbench: the workload did not complete")
    failed = len(res["failures"])
    if args.trace:
        values = res["metrics"]
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
    else:
        values = dict(res["metrics"], setup_s=statistics.median(setups),
                      ok_frac=1.0 - failed / res["attempted"])
        metrics = {k: {"value": values[k], "unit": u} for k, u in UNITS.items()}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "reps": res["reps"],
        "rep_walls_s": res["walls"], "setup_samples_s": setups,
        "phase_misclassified": res.get("phase_misclassified"),
        "facts": dict(res["facts"], loadavg_before=load_before, loadavg_after=load_after),
        "failures": res["failures"], "metrics": metrics,
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out_dir / name, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for msg in res["failures"]:
        sys.stderr.write(msg + "\n")
    print(f"workload {args.workload} seed {args.seed} size {args.size}: "
          f"{res['reps']} reps, {failed} of {res['attempted']} operations and checks failed")
    print("machine: " + json.dumps(record["facts"], sort_keys=True))
    if record["phase_misclassified"] is not None:
        print(f"phase_misclassified: {record['phase_misclassified']}")
    print(json.dumps({"correct": failed == 0, "attempted": res["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
