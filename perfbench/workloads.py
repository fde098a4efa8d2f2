"""The benchmark's workloads: fixed work, inputs drawn from a seed, checks.

Each workload calls snowcap's public functions through their module
attributes (`geomfield.distance_field`, never a name bound at import), so the
tracer's wrappers see every call. A rep raises `StepFailed` at the first call
that raises or returns a failing result; the worker counts it and stops.

Why these three workloads:

- sweep-cantor: the phase-diagram path users run through the CLI: a fresh
  sweep, the same sweep again (a resume that must skip every cell), and a
  report. Relaxed-capacity CG dominates; distance fields run on the sweep's
  two-thread pool; the records write and read paths run beside them.
- koch-field-hardy: segment-kernel distance fields (λ=1/4 at depth 8 has the
  worst far-field escalation), box-counting fits, collar-integral ladders and
  a Hardy quotient whose ball holds more than 60k cells, so it takes the
  inverse-power CG path, and reaches the boundary. No capacity, walk or
  records work.
- walk-cantor: the lockstep absorbed walk at δ=0 (long trajectories, nearly
  all absorbed) and δ=2 (nearly all timed out) on two grids. Field and form
  work are small.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
import traceback

import numpy as np

from snowcap import cli, forms, geomfield, simsys, stochastic

# Sizes are scaled so that one rep takes 5-20 s on a 2-core machine; "tiny"
# serves the self-test.
SIZES = {
    "full": {
        "sweep-cantor": {"lambdas": "0.15:0.4:3", "deltas": "0:2.5:6", "resolution": 256},
        "koch-field-hardy": {
            "fields": [("koch14", 0.25, 8, 256), ("koch13", 1.0 / 3.0, 6, 512)],
            "collar": {"delta": 0.5, "z": (0.0, 0.0), "rho": 0.6, "tau_cells": (8, 64)},
            # centre shifted so the 61k-cell ball is cut by the boundary
            "hardy": {"field": "koch13", "delta": 1.0, "shift": (0.1, 0.0), "r": 0.32},
        },
        # (resolution, delta, horizon). The horizons bound the lockstep rounds
        # for every seed: at horizon 1 the rounds are set by the seed's single
        # longest trajectory and ranged 14k-42k (delta=0, 256) and 14k-25k
        # (delta=2, 512) over six seeds; here 13.1k-13.2k and 1.6k-1.7k.
        "walk-cantor": {
            "lam": 0.25, "depth": 6, "trials": 10_000,
            "cases": [(256, 0.0, 0.05), (256, 2.0, 0.25), (512, 2.0, 0.25)],
        },
    },
    "tiny": {
        "sweep-cantor": {"lambdas": "0.15:0.4:2", "deltas": "0:2.5:2", "resolution": 128},
        "koch-field-hardy": {
            "fields": [("koch14", 0.25, 4, 64), ("koch13", 1.0 / 3.0, 4, 96)],
            "collar": {"delta": 0.5, "z": (0.0, 0.0), "rho": 0.6, "tau_cells": (2, 16)},
            "hardy": {"field": "koch13", "delta": 1.0, "shift": (0.1, 0.0), "r": 0.32},
        },
        "walk-cantor": {
            "lam": 0.25, "depth": 5, "trials": 1000,
            "cases": [(128, 0.0, 0.05), (128, 2.0, 0.25), (256, 2.0, 0.25)],
        },
    },
}

SAMPLES_PER_FIELD = 32  # cells per field checked against brute force
DISTANCE_ATOL = 1e-12
# Capacities are values of a minimized energy, so a solve stopped at relative
# residual cg_tol (the sweep default, 1e-6) misses them by far less than
# cg_tol: measured 1e-8 against a 1e-11 solve. Inverse power stops when the
# quotient changes by less than tol (1e-6) in one round; it then sat 7e-7
# from a 1e-9 solve. Both checks allow ten times the tolerance, so any solver
# that honours the same tolerance passes.
CAPACITY_RTOL = 10 * 1e-6
HARDY_RTOL = 10 * 1e-6


class StepFailed(Exception):
    """A public call raised or returned a failing result."""


class Ledger:
    """Counts attempted and failed operations and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def call(self, label, fn, *args, ok=None, **kwargs):
        self.attempted += 1
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # any raise is a failed operation, reported below
            traceback.print_exc(file=sys.stderr)
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            raise StepFailed(label) from exc
        if ok is not None and not ok(result):
            self.failures.append(f"{label}: returned {result!r}")
            raise StepFailed(label)
        return result

    def check(self, label, ok, detail="") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"check {label} failed: {detail}")
        return bool(ok)


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def brute_distance(geom, pts: np.ndarray) -> np.ndarray:
    """Minimum over all primitives of the exact point-to-primitive distance."""
    prims = geom.primitives
    out = np.empty(len(pts))
    for i, p in enumerate(pts):
        if geom.kind == "segments":
            a, e = prims[:, 0], prims[:, 1] - prims[:, 0]
            ee = np.sum(e * e, axis=1)
            t = np.clip(np.sum((p - a) * e, axis=1) / np.where(ee > 0, ee, 1.0), 0.0, 1.0)
            gap = p - (a + t[:, None] * e)
            dist = np.sqrt(np.sum(gap * gap, axis=1))
        else:
            gap = np.maximum(prims[:, 0] - p, p - prims[:, 1])
            outside = np.sqrt(np.sum(np.maximum(gap, 0.0) ** 2, axis=1))
            dist = np.where((gap > 0).any(axis=1), outside, -gap.max(axis=1))
        out[i] = dist.min()
    return out


def check_field(ledger, label, geom, field, sample_u) -> None:
    grid = field.grid
    cells = np.minimum((sample_u * np.array(grid.dims)).astype(np.int64), np.array(grid.dims) - 1)
    pts = grid.origin + (cells + 0.5) * grid.h
    want = brute_distance(geom, pts)
    got = field.values[tuple(cells.T)]
    err = float(np.max(np.abs(got - want)))
    ledger.check(f"{label} distances equal brute force", err <= DISTANCE_ATOL, f"max error {err:.3e}")


def dim_error(geom, field) -> float:
    """|box-counting fit over 4h..64h - similarity dimension| (the upper radius
    is capped at a quarter of the diameter on coarse grids)."""
    h = field.grid.h
    fit = geomfield.minkowski_dimension(field, 4 * h, min(64 * h, field.diameter / 4))
    return abs(fit.exponent - simsys.similarity_dimension(geom.system))


class Workload:
    name = ""

    def __init__(self, size: str, seed: int, scratch: str):
        self.cfg = SIZES[size][self.name]
        self.scratch = scratch
        rng = np.random.default_rng([seed, sum(map(ord, self.name))])
        self.inputs = self.make_inputs(rng)

    def make_inputs(self, rng) -> dict:
        return {"sample_u": rng.random((8, SAMPLES_PER_FIELD, 2))}

    def run(self, ledger, tracer=None, keep=False) -> dict:
        raise NotImplementedError

    def signature(self, out) -> list:
        """Outputs that a traced rep must reproduce bit for bit."""
        raise NotImplementedError

    def check(self, ledger, outs, reference) -> None:
        raise NotImplementedError

    def check_fields(self, ledger, out) -> None:
        for k, (label, geom, field) in enumerate(out["fields"]):
            check_field(ledger, label, geom, field, self.inputs["sample_u"][k])

    def dim_abs_err(self, out) -> float:
        return max(dim_error(geom, field) for _, geom, field in out["fields"])

    def phase_misclassified(self, out) -> int:
        return 0


class SweepCantor(Workload):
    name = "sweep-cantor"

    def make_inputs(self, rng):
        inputs = super().make_inputs(rng)
        inputs["sweep_seed"] = int(rng.integers(0, 2**31))
        return inputs

    def n_cells(self) -> int:
        return int(self.cfg["lambdas"].split(":")[2]) * int(self.cfg["deltas"].split(":")[2])

    def _cli(self, ledger, tracer, name, argv):
        buf = io.StringIO()
        with _span(tracer, name), contextlib.redirect_stdout(buf):
            ledger.call(name, cli.run_subcommand, argv, ok=lambda rc: rc == 0)
        return json.loads(buf.getvalue().strip().splitlines()[-1])

    @contextlib.contextmanager
    def _capture_fields(self, captured):
        build = cli.distance_field

        def capture(geom, grid, *args, **kwargs):
            field = build(geom, grid, *args, **kwargs)
            captured.append((f"cantor{geom.system.lam:.4g}_{grid.dims[0]}", geom, field))
            return field

        cli.distance_field = capture
        try:
            yield
        finally:
            cli.distance_field = build

    def run(self, ledger, tracer=None, keep=False):
        cfg = self.cfg
        work = tempfile.mkdtemp(dir=self.scratch)
        stream = os.path.join(work, "runs.jsonl")
        sweep = [
            "sweep", "--family", "cantor", "--d", "2", "--lambdas", cfg["lambdas"],
            "--deltas", cfg["deltas"], "--resolution", str(cfg["resolution"]),
            "--seed", str(self.inputs["sweep_seed"]), "--out", stream,
        ]
        report = ["report", "--in", stream, "--out", os.path.join(work, "phase.svg")]
        captured = []
        try:
            with self._capture_fields(captured) if keep else contextlib.nullcontext():
                out = {"sweep": self._cli(ledger, tracer, "cli.sweep", sweep)}
            out["resume"] = self._cli(ledger, tracer, "cli.resume", sweep)
            out["report"] = self._cli(ledger, tracer, "cli.report", report)
            if keep:
                with open(stream, encoding="utf-8") as fh:
                    out["records"] = [json.loads(line) for line in fh if line.strip()]
                out["fields"] = sorted(captured, key=lambda c: c[0])
        finally:
            shutil.rmtree(work, ignore_errors=True)
        return out

    def signature(self, out):
        return [(r["id"], r["outputs"]["capacity_coarse"], r["outputs"]["capacity_fine"])
                for r in sorted(out["records"], key=lambda r: r["id"])]

    def reference_values(self, out) -> dict:
        caps = {f"{r['lambda']:.6g}/{r['delta']:.6g}":
                [r["outputs"]["capacity_coarse"], r["outputs"]["capacity_fine"]]
                for r in out["records"]}
        return {"capacities": caps, "phase_misclassified_max": self.phase_misclassified(out)}

    def phase_misclassified(self, out) -> int:
        """Cells whose verdict disagrees with the side of delta_c their delta is on."""
        return sum(
            (r["outputs"]["verdict"] == "persistent") != (r["delta"] < r["delta_c"])
            for r in out["records"]
        )

    def check(self, ledger, outs, reference):
        n = self.n_cells()
        for k, out in enumerate(outs):
            ledger.check(f"rep {k} sweep writes every cell",
                         out["sweep"]["records"] == n and out["sweep"]["skipped"] == 0,
                         str(out["sweep"]))
            ledger.check(f"rep {k} resume writes 0 and skips {n}",
                         out["resume"]["records"] == 0 and out["resume"]["skipped"] == n,
                         str(out["resume"]))
            ledger.check(f"rep {k} report loads {n}", out["report"]["records"] == n,
                         str(out["report"]))
        out = outs[0]
        ids = {r["id"] for r in out["records"]}
        ledger.check("stream holds one record per cell", len(out["records"]) == n == len(ids),
                     f"{len(out['records'])} records, {len(ids)} ids")
        want = reference["capacities"]
        for key, got in self.reference_values(out)["capacities"].items():
            ref = want.get(key)
            ok = ref is not None and all(
                abs(g - r) <= CAPACITY_RTOL * abs(r) for g, r in zip(got, ref)
            )
            ledger.check(f"capacities {key} match reference", ok, f"{got} vs {ref}")
        mis = self.phase_misclassified(out)
        ledger.check("phase misclassifications do not grow",
                     mis <= reference["phase_misclassified_max"],
                     f"{mis} > {reference['phase_misclassified_max']}")
        self.check_fields(ledger, out)


class KochFieldHardy(Workload):
    name = "koch-field-hardy"

    def run(self, ledger, tracer=None, keep=False):
        cfg = self.cfg
        col = cfg["collar"]
        out = {"fields": [], "dims": {}, "collar": {}}
        by_name = {}
        for label, lam, depth, res in cfg["fields"]:
            geom = ledger.call(f"{label} realize", simsys.koch_snowflake, lam, depth)
            grid = ledger.call(f"{label} grid", geomfield.build_grid, geom, res)
            field = ledger.call(f"{label} field", geomfield.distance_field, geom, grid)
            h = grid.h
            fit = ledger.call(f"{label} minkowski", geomfield.minkowski_dimension,
                              field, 4 * h, min(64 * h, field.diameter / 4))
            out["dims"][label] = fit.exponent
            taus = np.geomspace(col["tau_cells"][0] * h, col["tau_cells"][1] * h, 7)
            out["collar"][label] = [
                ledger.call(f"{label} collar", forms.collar_integral,
                            field, col["delta"], col["z"], col["rho"], float(t))
                for t in taus
            ]
            by_name[label] = (geom, field)
            if keep:
                out["fields"].append((f"{label}_{res}", geom, field))
        hc = cfg["hardy"]
        geom, field = by_name[hc["field"]]
        lo, hi = geom.bounds()
        z = 0.5 * (lo + hi) + np.array(hc["shift"])
        out["hardy"] = ledger.call("hardy", forms.hardy_quotient, field, hc["delta"], z, hc["r"])
        return out

    def signature(self, out):
        return [out["hardy"], out["dims"], out["collar"]]

    def reference_values(self, out) -> dict:
        return {"hardy_quotient": out["hardy"]}

    def check(self, ledger, outs, reference):
        ref = reference["hardy_quotient"]
        for k, out in enumerate(outs):
            got = out["hardy"]
            ledger.check(f"rep {k} hardy quotient matches reference",
                         abs(got - ref) <= HARDY_RTOL * abs(ref), f"{got!r} vs {ref!r}")
        self.check_fields(ledger, outs[0])


class WalkCantor(Workload):
    name = "walk-cantor"

    def make_inputs(self, rng):
        inputs = super().make_inputs(rng)
        inputs["walk_seed"] = int(rng.integers(0, 2**63))
        return inputs

    def run(self, ledger, tracer=None, keep=False):
        cfg = self.cfg
        geom = ledger.call("realize", simsys.cantor_dust, cfg["lam"], 2, cfg["depth"])
        out = {"fields": [], "walks": {}}
        for res in sorted({r for r, _, _ in cfg["cases"]}):
            grid = ledger.call(f"grid {res}", geomfield.build_grid, geom, res)
            field = ledger.call(f"field {res}", geomfield.distance_field, geom, grid)
            if keep:
                out["fields"].append((f"cantor_{res}", geom, field))
            for r, delta, horizon in cfg["cases"]:
                if r != res:
                    continue
                form = ledger.call(f"form {res} {delta}", forms.assemble_form, field, delta)
                wcfg = stochastic.WalkConfig(
                    start=tuple(n // 8 for n in grid.dims), horizon=horizon,
                    trials=cfg["trials"], seed=self.inputs["walk_seed"],
                    absorb_eps=6 * grid.h,
                )
                res_ = ledger.call(f"walk {res} {delta}", stochastic.walk_absorption,
                                   form, field, wcfg)
                out["walks"][(res, delta)] = res_
        return out

    def signature(self, out):
        return [(key, w.p_hat, w.absorbed) for key, w in sorted(out["walks"].items())]

    def check(self, ledger, outs, reference):
        first = self.signature(outs[0])
        for k, out in enumerate(outs[1:], start=1):
            ledger.check(f"rep {k} walks reproduce rep 0 bitwise",
                         self.signature(out) == first, f"{self.signature(out)} vs {first}")
        walks = outs[0]["walks"]
        falling = sorted((res, w) for (res, delta), w in walks.items() if delta == 2.0)
        for (r0, a), (r1, b) in zip(falling, falling[1:]):
            gap = a.p_hat - b.p_hat
            ledger.check(f"delta=2 fraction falls {r0}->{r1} beyond 3 sigma",
                         gap > 3.0 * np.hypot(a.stderr, b.stderr),
                         f"{a.p_hat} -> {b.p_hat}")
        for (res, delta), w in walks.items():
            if delta == 0.0:
                ledger.check(f"delta=0 fraction at {res} above 0.2", w.p_hat > 0.2, str(w.p_hat))
        self.check_fields(ledger, outs[0])


WORKLOADS = {cls.name: cls for cls in (SweepCantor, KochFieldHardy, WalkCantor)}
