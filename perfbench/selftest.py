"""Self-test of the benchmark at tiny sizes (about a minute on two cores).

    python3 perfbench/selftest.py

Run from the repository root. It checks that every workload, traced and
untraced, prints a result line with exactly the metrics BENCHMARK.json
names, each with its unit; that a deliberately wrong reference value shows
up as a failed check (ok_frac below 1); and that the benchmark exits with an
error, printing no result, in a copy that holds only BENCHMARK.json and
perfbench/.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep-cantor", "koch-field-hardy", "walk-cantor")


def run(*extra, cwd=ROOT):
    cmd = [sys.executable, str(HERE / "run.py" if cwd == ROOT else Path("perfbench/run.py")),
           "--seed", "7", "--seconds", "0", "--size", "tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result(proc):
    if proc.returncode != 0:
        raise AssertionError(f"exit code {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []

    for workload in WORKLOADS:
        for trace in (0, 1):
            label = f"{workload} trace {trace}"
            res = result(run("--workload", workload, "--trace", str(trace)))
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(res)}")
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append(f"{label}: {res['failed']} of {res['attempted']} failed")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want[trace]:
                missing = sorted(set(want[trace]) - set(got))
                extra = sorted(set(got) - set(want[trace]))
                wrong = sorted(k for k in set(got) & set(want[trace]) if got[k] != want[trace][k])
                problems.append(f"{label}: missing {missing}, extra {extra}, wrong unit {wrong}")
            if not all(isinstance(v["value"], (int, float)) for v in res["metrics"].values()):
                problems.append(f"{label}: a metric value is not a number")
            if trace == 0 and res["metrics"]["ok_frac"]["value"] != 1.0:
                problems.append(f"{label}: ok_frac {res['metrics']['ok_frac']['value']}")

    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        ref = json.loads((HERE / "reference.json").read_text())
        ref["tiny"]["koch-field-hardy"]["hardy_quotient"] *= 1.001
        bad_ref = Path(tmp) / "reference.json"
        bad_ref.write_text(json.dumps(ref))
        res = result(run("--workload", "koch-field-hardy", "--trace", "0",
                         "--reference", str(bad_ref)))
        if res["correct"] or not res["failed"] or res["metrics"]["ok_frac"]["value"] >= 1.0:
            problems.append(f"wrong reference not detected: {res}")

        bare = Path(tmp) / "bare"
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("--workload", "walk-cantor", "--trace", "0", cwd=bare)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append(f"bare copy: exit {proc.returncode}, stdout {proc.stdout[-500:]!r}")

    for p in problems:
        print("FAIL", p)
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
