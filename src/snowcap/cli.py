"""Command-line driver: single experiments, parameter sweeps, phase reports.

Subcommands: dimension, capacity, hardy, collar, walk, sweep and report,
each described by one `_Spec` in `_SPECS` (`snowcap --help` lists
them with their help lines).

Every experiment appends one `ExperimentRecord` to a JSON-lines stream when a
records path is given; sweeps require one and skip cells whose id is already
present, so interrupted runs resume without recomputing. Options may come
from a JSON config file (`--config`) keyed by long option names; its values
are parsed as the flags' text, and explicit flags take precedence.
Exit codes: 0 success, 2 invalid config or empty domain, 3 solver failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, fields, replace
from typing import Callable

import numpy as np

from . import __version__
from .errors import DegenerateFit, SnowcapError, SolverDiverged, EmptyDomain, EmptyRegion
from .simsys import named_family, similarity_dimension, critical_delta
from .geomfield import _ball, build_grid, distance_field
from .forms import (
    _check_capacity, _check_collar, _check_delta, _check_hardy, _collar_sum, _hardy_solve,
    assemble_form, capacity_ladder, capacity_relaxed,
)
from .stochastic import WalkConfig, _start_index, walk_absorption
from .records import (
    _JSON_NAMES, ExperimentRecord, append_record, derive_seed, load_ids, load_records, record_id,
)

__all__ = ["run_subcommand", "main", "choose_depth"]

_PRIMITIVE_BUDGET = 2_000_000


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)


# --- small parsers ------------------------------------------------------------


def _parse_length(spec: str, h: float) -> float:
    """Finite length literal: plain number, or a multiple of the cell size ('8h')."""
    s = spec.strip()
    length = float(s[:-1]) * h if s.endswith("h") else float(s)
    if not np.isfinite(length):
        raise ValueError(f"length {spec!r} must be finite")
    return length


def _parse_range(spec: str) -> np.ndarray:
    """'lo:hi:n' -> n evenly spaced values from lo to hi inclusive."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"range {spec!r} must look like lo:hi:n")
    lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    if n < 1:
        raise ValueError("range count must be >= 1")
    if not np.isfinite([lo, hi]).all():
        raise ValueError(f"range {spec!r} must have finite bounds")
    return np.linspace(lo, hi, n)


def _parse_length_range(spec: str, h: float) -> np.ndarray:
    """'8h:64h:7' -> geometric ladder of lengths (bounds may use the h suffix)."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"range {spec!r} must look like lo:hi:n")
    lo, hi, n = _parse_length(parts[0], h), _parse_length(parts[1], h), int(parts[2])
    if n < 2:
        raise ValueError("need at least two ladder points")
    if not (lo > 0 and hi > 0):
        raise ValueError(f"range {spec!r} must have positive bounds")
    return np.geomspace(lo, hi, n)


def _parse_point(spec: str, dim: int) -> tuple:
    vals = tuple(float(v) for v in spec.split(","))
    if len(vals) != dim:
        raise ValueError(f"point {spec!r} must have {dim} comma-separated coordinates")
    return vals


# --- geometry, fields and records ------------------------------------------------


def choose_depth(family: str, lam: float, dim: int, resolution: int) -> int:
    """Smallest depth whose realization error is below one cell.

    The error shrinks like ratio^depth; the cell size is the bounding-box
    extent over the resolution. Depth is capped by the family guardrail and
    by a primitive-count budget, so extreme ratios degrade gracefully
    instead of exhausting memory.
    """
    named = named_family(family)
    probe = named.geometry(lam, dim, 3)
    lo, hi = probe.bounds()
    h = float(np.max(hi - lo)) / resolution

    mult = len(probe.system.maps)
    base = len(probe.primitives) // mult**probe.depth  # primitives at depth 0
    depth = 1
    while (
        named.approx_error(probe.system, depth) > h
        and depth < named.depth_caps[dim]
        and base * mult ** (depth + 1) <= _PRIMITIVE_BUDGET
    ):
        depth += 1
    return depth


def _start_cell(point: tuple, grid) -> tuple:
    """Grid multi-index of the cell whose center is nearest to a point of the
    grid's box [origin, origin + dims h]."""
    idx = []
    for ax, p in enumerate(point):
        if not grid.origin[ax] <= p <= grid.origin[ax] + grid.dims[ax] * grid.h:
            raise ValueError("start cell must be inside the domain")
        # a point on the box's far face rounds to index dims[ax]
        i = int(np.round((p - grid.origin[ax]) / grid.h - 0.5))
        idx.append(int(np.clip(i, 0, grid.dims[ax] - 1)))
    return tuple(idx)


def _record(path, params, depth, outputs, tolerances, seed, wall) -> ExperimentRecord:
    """The record of one experiment, identified by its id params; appended to
    the stream at `path` when one is given."""
    family, lam, dim = params["family"], params["lambda"], params["d"]
    s = similarity_dimension(named_family(family).system(lam, dim))
    rec = ExperimentRecord(
        id=record_id(params), op=params["op"], family=family, lam=lam, depth=depth, dim=dim,
        s=s, delta=params.get("delta"), delta_c=critical_delta(s, dim),
        resolution=params.get("resolution"), outputs=outputs, tolerances=tolerances,
        seed=seed, wall_time=wall, version=__version__,
    )
    if path:
        append_record(path, rec)
    return rec


def _run_experiment(spec, args) -> dict:
    """Build the grid, run the spec's measurement, record, return the outputs.

    The measurement checks its options on the grid before it builds the
    distance field through `build_field`, so a bad option costs no field.
    The id params hash geometry, grid, delta and the spec's id_keys as given;
    a measurement replaces a key by its parsed value where the id hashes that
    (the point z; the walk's start cell, before it derives its seed).
    """
    t0 = time.perf_counter()
    _check_delta(args.delta)
    depth = args.depth
    if depth is None:
        depth = choose_depth(args.family, args.lam, args.d, args.resolution)
    geom = named_family(args.family).geometry(args.lam, args.d, depth)
    grid = build_grid(geom, args.resolution)
    params = {"op": args.cmd, "family": args.family, "lambda": args.lam, "d": args.d,
              "depth": depth, "resolution": args.resolution, "delta": args.delta}
    params.update((key, getattr(args, key)) for key in spec.id_keys)
    outputs, tolerances, seed = spec.run(args, grid, lambda: distance_field(geom, grid), params)
    _record(args.records, params, depth, outputs, tolerances, seed, time.perf_counter() - t0)
    return outputs


# --- measurements of the single experiments ---------------------------------------


def _outputs(result) -> dict:
    """A record's outputs: the fields of a result that are not arrays."""
    return {k: v for k, v in vars(result).items() if not isinstance(v, np.ndarray)}


def _capacity(args, grid, build_field, params):
    eps = _parse_length(args.eps, grid.h)
    _check_capacity(grid.h, eps, args.cg_tol)
    res = capacity_relaxed(build_field(), args.delta, eps, cg_tol=args.cg_tol)
    return _outputs(res), {"cg_tol": args.cg_tol}, 0


def _hardy(args, grid, build_field, params):
    z = _parse_point(args.z, args.d)
    params["z"] = list(z)
    r = _parse_length(args.r, grid.h)
    _check_hardy(args.tol)
    region = _ball(grid, z, r)
    res = _hardy_solve(build_field(), region, args.delta, args.tol)
    return {**_outputs(res), "z": list(z), "r": r}, {"tol": args.tol}, 0


def _collar(args, grid, build_field, params):
    z = _parse_point(args.z, args.d)
    params["z"] = list(z)
    rho = _parse_length(args.rho, grid.h)
    taus = _parse_length_range(args.taus, grid.h)
    _check_collar(args.delta, rho, *taus)
    region = _ball(grid, z, rho)
    field = build_field()
    values = [_collar_sum(field, region, args.delta, t) for t in taus]
    if min(values) == 0.0:  # the weights underflow at large delta
        raise DegenerateFit("a collar value underflows to 0, so it has no logarithm to fit")
    slope = float(np.polyfit(np.log(taus), np.log(values), 1)[0])
    return {"slope": slope, "taus": [float(t) for t in taus], "values": values}, {}, 0


def _walk(args, grid, build_field, params):
    start = _start_cell(_parse_point(args.start, args.d), grid)
    params["start"] = list(start)
    cfg = WalkConfig(start=start, horizon=args.horizon, trials=args.trials, seed=args.seed,
                     absorb_eps=_parse_length(args.absorb_eps, grid.h))
    _start_index(grid, cfg)
    # validated first: the record id cannot hash a non-finite horizon
    cfg = replace(cfg, seed=derive_seed(args.seed, record_id(params)))
    field = build_field()
    res = walk_absorption(assemble_form(field, args.delta), field, cfg)
    return _outputs(res), {}, cfg.seed


# --- the subcommand without a field -------------------------------------------------


def _cmd_dimension(args) -> dict:
    t0 = time.perf_counter()
    params = {"op": "dimension", "family": args.family, "lambda": args.lam, "d": args.d}
    rec = _record(args.records, params, None, {}, {}, 0, time.perf_counter() - t0)
    return {"family": args.family, "lambda": args.lam, "d": args.d, "s": rec.s,
            "delta_c": rec.delta_c}


# --- sweep ---------------------------------------------------------------------


def _trend(v_c: float, v_f: float) -> dict:
    """A cell's outputs from its capacities at two resolutions with a collar
    of fixed width in cells.

    The collar shrinks with the cell size, so a vanishing trend flags
    boundaries the form cannot see in the limit.
    """
    ratio = v_c / v_f if v_f > 0 else float("inf")
    verdict = "vanishing" if ratio >= 1.25 else "persistent"
    return {"capacity_coarse": v_c, "capacity_fine": v_f, "ratio": ratio, "verdict": verdict}


def _rungs(field, deltas, n: int, eps_cells: float, cg_tol: float):
    """The capacity and the seconds of each of the first n rungs of the
    field's capacity ladder over deltas, with a collar eps_cells wide; the
    rungs after them are not solved."""
    t0 = time.perf_counter()
    ladder = capacity_ladder(field, deltas, eps_cells * field.grid.h, cg_tol)
    for _ in range(n):
        value = next(ladder).value
        yield value, time.perf_counter() - t0
        t0 = time.perf_counter()


def _cmd_sweep(args) -> dict:
    lams = _parse_range(args.lambdas)
    deltas = _parse_range(args.deltas)
    if args.resolution < 16:
        raise ValueError("sweep resolution must be at least 16")
    # capacity_relaxed's rule, checked before any field is built: eps_cells
    # is the collar width on a grid of unit cells
    _check_capacity(1.0, args.eps_cells, args.cg_tol)
    if not np.isfinite(args.eps_cells):  # a record id hashes it
        raise ValueError("--eps-cells must be finite")
    _check_delta(deltas.min())
    for lam in lams:
        named_family(args.family).system(float(lam), args.d)
    res_f, res_c = args.resolution, args.resolution // 2
    done = load_ids(args.out)
    written = 0

    for lam in lams:
        lam = float(lam)
        cells = []
        for delta in deltas:
            params = {"op": "capacity-trend", "family": args.family, "lambda": lam, "d": args.d,
                      "delta": float(delta), "resolution": res_f, "eps_cells": args.eps_cells}
            rid = record_id(params)
            if rid not in done:
                cells.append((rid, params))
        if not cells:
            continue

        depth = choose_depth(args.family, lam, args.d, res_f)
        geom = named_family(args.family).geometry(lam, args.d, depth)
        field_c, field_f = (distance_field(geom, build_grid(geom, r)) for r in (res_c, res_f))

        # one ladder per grid: the smallest delta of --deltas closes it and so
        # sets its skeleton, also when its own cell is already written (the
        # ladder stops before that rung), and a resumed sweep writes the
        # values of an uninterrupted one. The coarse ladder ends before the
        # fine one starts, so their skeletons are never held together.
        ladder = [params["delta"] for _, params in cells] + [float(deltas.min())]
        coarse = list(_rungs(field_c, ladder, len(cells), args.eps_cells, args.cg_tol))
        fine = _rungs(field_f, ladder, len(cells), args.eps_cells, args.cg_tol)
        for (rid, params), (v_c, t_c), (v_f, t_f) in zip(cells, coarse, fine):
            _record(args.out, params, depth, _trend(v_c, v_f), {"cg_tol": args.cg_tol},
                    derive_seed(args.seed, rid), t_c + t_f)
            written += 1
        fine.close()  # its skeleton, before the next lambda's fields

    return {"records": written, "skipped": len(lams) * len(deltas) - written, "out": args.out}


# --- report ----------------------------------------------------------------------


def _write_csv(records, path: str) -> None:
    import csv

    core = [f.name for f in fields(ExperimentRecord) if f.name not in ("outputs", "tolerances")]
    out_keys = sorted({k for r in records for k in r.outputs})
    tol_keys = sorted({k for r in records for k in r.tolerances})
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow([_JSON_NAMES.get(n, n) for n in core] + [f"out.{k}" for k in out_keys]
                   + [f"tol.{k}" for k in tol_keys])
        for r in records:
            row = [getattr(r, n) for n in core]
            for k in out_keys:
                v = r.outputs.get(k, "")
                row.append(json.dumps(v) if isinstance(v, (list, dict)) else v)
            for k in tol_keys:
                row.append(r.tolerances.get(k, ""))
            w.writerow(row)


def _axis_edges(values: np.ndarray):
    """Cell-edge range for a uniform value grid (degenerate grids get padding)."""
    if len(values) > 1:
        half = 0.5 * (values[1] - values[0])
    else:
        half = 0.5 * max(abs(values[0]), 1.0)
    return values[0] - half, values[-1] + half


def _svg_phase(records) -> str:
    """SVG text of a heatmap of (lambda, delta) capacity-trend verdicts with
    the critical threshold curve delta_c(lambda) overlaid."""
    cells = [r for r in records if r.op == "capacity-trend"]
    if not cells:
        raise EmptyRegion("no capacity-trend records to plot")
    families = {(r.family, r.dim) for r in cells}
    if len(families) > 1:
        raise ValueError(f"mixed sweep families in record stream: {sorted(families)}")
    family, dim = next(iter(families))

    lams = np.array(sorted({r.lam for r in cells}))
    dels = np.array(sorted({r.delta for r in cells}))
    lam0, lam1 = _axis_edges(lams)
    del0, del1 = _axis_edges(dels)

    ml, mt, mr, mb = 70.0, 34.0, 190.0, 56.0
    W, H = 460.0, 360.0

    def sx(lam):
        return ml + (lam - lam0) / (lam1 - lam0) * W

    def sy(delta):
        return mt + (del1 - delta) / (del1 - del0) * H

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{ml + W + mr:.0f}" '
        f'height="{mt + H + mb:.0f}" font-family="monospace" font-size="12">',
        f'<rect x="{ml}" y="{mt}" width="{W}" height="{H}" fill="#f7f7f7" stroke="#333"/>',
        f'<text x="{ml + W / 2:.1f}" y="{mt - 12:.1f}" text-anchor="middle">'
        f"capacity trend: {family} d={dim}</text>",
    ]
    cw, ch = W / len(lams), H / len(dels)
    for r in cells:
        x = sx(r.lam) - cw / 2.0
        y = sy(r.delta) - ch / 2.0
        ratio = max(float(r.outputs.get("ratio", 1.0)), 1e-9)
        strength = min(1.0, 0.25 + abs(np.log2(ratio)) / 2.0)
        color = "#c0392b" if r.outputs.get("verdict") == "vanishing" else "#2e6bb0"
        parts.append(
            f'<rect x="{x:.1f}" y="{y:.1f}" width="{cw:.1f}" height="{ch:.1f}" '
            f'fill="{color}" fill-opacity="{strength:.2f}"><title>'
            f"lambda={r.lam:.4g} delta={r.delta:.4g} ratio={ratio:.3g}</title></rect>"
        )

    pts = []
    for lam in np.linspace(lams[0], lams[-1], 160):
        s = similarity_dimension(named_family(family).system(float(lam), dim))
        dc = critical_delta(s, dim)
        if del0 <= dc <= del1:
            pts.append(f"{sx(lam):.1f},{sy(dc):.1f}")
    if pts:
        parts.append(
            f'<polyline points="{" ".join(pts)}" fill="none" stroke="#111" '
            'stroke-width="2" stroke-dasharray="7,4"/>'
        )

    for lam in lams:
        parts.append(
            f'<text x="{sx(lam):.1f}" y="{mt + H + 18:.1f}" text-anchor="middle">'
            f"{lam:.3g}</text>"
        )
    for delta in dels:
        parts.append(
            f'<text x="{ml - 8:.1f}" y="{sy(delta) + 4:.1f}" text-anchor="end">'
            f"{delta:.3g}</text>"
        )
    parts.append(
        f'<text x="{ml + W / 2:.1f}" y="{mt + H + 42:.1f}" text-anchor="middle">lambda</text>'
    )
    parts.append(
        f'<text x="16" y="{mt + H / 2:.1f}" transform="rotate(-90 16 {mt + H / 2:.1f})" '
        'text-anchor="middle">delta</text>'
    )
    lx = ml + W + 16
    legend = [
        ("#c0392b", "capacity vanishes under refinement"),
        ("#2e6bb0", "capacity persists"),
    ]
    for i, (color, label) in enumerate(legend):
        y = mt + 14 + 22 * i
        parts.append(f'<rect x="{lx}" y="{y - 10}" width="14" height="14" fill="{color}"/>')
        parts.append(f'<text x="{lx + 20}" y="{y + 2}">{label}</text>')
    y = mt + 14 + 22 * len(legend)
    parts.append(
        f'<line x1="{lx}" y1="{y - 3}" x2="{lx + 14}" y2="{y - 3}" stroke="#111" '
        'stroke-width="2" stroke-dasharray="7,4"/>'
    )
    parts.append(f'<text x="{lx + 20}" y="{y + 2}">delta_c(lambda)</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _cmd_report(args) -> dict:
    records = load_records(args.infile)
    csv_path = args.csv
    if csv_path is None:
        stem, ext = os.path.splitext(args.out)
        csv_path = (stem if ext else args.out) + ".csv"
    svg = _svg_phase(records)  # raises before either file is written
    _write_csv(records, csv_path)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    return {"records": len(records), "csv": csv_path, "svg": args.out}


# --- subcommand specs and argument wiring ------------------------------------------


@dataclass(frozen=True)
class _Spec:
    """One subcommand: help line, runner, and options as (flag, add_argument
    keywords) pairs.

    id_keys is None for a subcommand that runs on its own: run(args) returns
    the JSON object to print. Otherwise the subcommand is a field experiment:
    run is its measurement (args, grid, build_field, params) -> (outputs,
    tolerances, seed), and `_run_experiment` hashes id_keys into the record id.
    """

    help: str
    run: Callable
    options: tuple
    id_keys: tuple | None = None


_GEOMETRY = (
    ("--family", dict(required=True, help="koch | vicsek | cantor")),
    ("--lambda", dict(dest="lam", type=float, required=True,
                      help="contraction ratio of the family")),
    ("--d", dict(type=int, default=2, help="ambient dimension")),
)
_RECORDS = ("--records", dict(help="JSON-lines record stream to append"))
_FIELD = _GEOMETRY + (
    ("--resolution", dict(type=int, default=256, help="cells along the longest extent")),
    ("--depth", dict(type=int, help="substitution depth (default: error below one cell)")),
    ("--delta", dict(type=float, required=True, help="degeneration order")),
    _RECORDS,
)
_Z = ("--z", dict(required=True, help="ball center, comma-separated"))

_SPECS = {
    "dimension": _Spec(
        "print the similarity dimension and the uniqueness threshold", _cmd_dimension,
        options=_GEOMETRY + (_RECORDS,)),
    "capacity": _Spec(
        "relaxed boundary capacity behind a collar", _capacity, id_keys=("eps",),
        options=_FIELD + (
            ("--eps", dict(default="8h", help="collar width (number or multiple of h)")),
            ("--cg-tol", dict(type=float, default=1e-8)),
        )),
    "hardy": _Spec(
        "local Hardy quotient on a ball", _hardy, id_keys=("z", "r"),
        options=_FIELD + (
            _Z,
            ("--r", dict(required=True, help="ball radius (number or multiple of h)")),
            ("--tol", dict(type=float, default=1e-6,
                           help="bound on the squared relative eigen-residual")),
        )),
    "collar": _Spec(
        "regularized collar integral over a tau ladder, with fitted exponent", _collar,
        id_keys=("z", "rho", "taus"),
        options=_FIELD + (
            _Z,
            ("--rho", dict(required=True, help="region radius (number or multiple of h)")),
            ("--taus", dict(default="8h:64h:7", help="regularization ladder lo:hi:n")),
        )),
    "walk": _Spec(
        "absorbed-walk boundary-hitting fraction", _walk,
        id_keys=("start", "horizon", "trials", "absorb_eps", "seed"),
        options=_FIELD + (
            ("--start", dict(required=True, help="start point, comma-separated")),
            ("--horizon", dict(type=float, default=1.0)),
            ("--trials", dict(type=int, default=1000)),
            ("--absorb-eps", dict(default="6h")),
            ("--seed", dict(type=int, default=0)),
        )),
    "sweep": _Spec(
        "(lambda, delta) grid of capacity-trend cells, resumable", _cmd_sweep,
        options=(
            ("--family", dict(required=True)),
            ("--d", dict(type=int, default=2)),
            ("--lambdas", dict(required=True, help="lo:hi:n")),
            ("--deltas", dict(required=True, help="lo:hi:n")),
            ("--resolution", dict(type=int, required=True)),
            ("--eps-cells", dict(type=float, default=8.0)),
            ("--cg-tol", dict(type=float, default=1e-6)),
            ("--seed", dict(type=int, default=0)),
            ("--out", dict(required=True, help="JSON-lines record stream")),
        )),
    "report": _Spec(
        "record stream -> CSV table + SVG phase diagram", _cmd_report,
        options=(
            ("--in", dict(dest="infile", required=True, help="JSON-lines record stream")),
            ("--out", dict(required=True, help="SVG output path")),
            ("--csv", dict(help="CSV output path (default: beside --out)")),
        )),
}


def _build_parser():
    """The top-level parser with one subcommand parser per spec."""
    top = _Parser(prog="snowcap", description=__doc__.splitlines()[0])
    top.add_argument("--version", action="version", version=f"snowcap {__version__}")
    sub = top.add_subparsers(dest="cmd", required=True)
    for name, spec in _SPECS.items():
        p = sub.add_parser(name, help=spec.help)
        p.add_argument("--config", default=None, help="JSON file of option defaults")
        for flag, kwargs in spec.options:
            p.add_argument(flag, **kwargs)
    return top


def _with_config(argv: list) -> list:
    """argv with the `--config` file's options written as `--flag=value`
    tokens right after the subcommand name, so that argparse converts them
    with each flag's type and the command line's own flags, parsed after
    them, win.

    A key is a long option name without its dashes (`cg-tol`, `lambda`,
    `in`); a value is a JSON string or number, read as the flag's text.
    """
    if not argv or argv[0] not in _SPECS:
        return argv
    pre = _Parser(add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv[1:])[0].config
    if path is None:
        return argv
    with open(path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config file must hold a JSON object")
    flags = {flag.lstrip("-"): flag for flag, _ in _SPECS[argv[0]].options}
    unknown = set(cfg) - set(flags)
    if unknown:
        raise ValueError(f"config keys not accepted by {argv[0]!r}: {sorted(unknown)}")
    bad = [k for k, v in cfg.items() if isinstance(v, bool) or not isinstance(v, (str, int, float))]
    if bad:
        raise ValueError(f"config values must be strings or numbers: {sorted(bad)}")
    return [argv[0], *(f"{flags[k]}={v}" for k, v in cfg.items()), *argv[1:]]


def run_subcommand(argv) -> int:
    """Parse argv, run one subcommand, and map failures to exit codes.

    On failure a single machine-readable JSON object is written to stderr:
    {"error": <class>, "message": <detail>}.
    """
    argv = list(argv)
    try:
        args = _build_parser().parse_args(_with_config(argv))
        spec = _SPECS[args.cmd]
        payload = spec.run(args) if spec.id_keys is None else _run_experiment(spec, args)
        sys.stdout.write(json.dumps(payload, sort_keys=True, allow_nan=False) + "\n")
        return 0
    except SystemExit as e:  # argparse --help / --version
        return int(e.code or 0)
    except SolverDiverged as e:
        _fail("solver", e)
        return 3
    except (EmptyDomain, EmptyRegion) as e:
        _fail("empty-domain", e)
        return 2
    except SnowcapError as e:
        _fail(type(e).__name__, e)
        return 2
    except (ValueError, OSError) as e:
        _fail("config", e)
        return 2


def _fail(code: str, exc: Exception) -> None:
    sys.stderr.write(json.dumps({"error": code, "message": str(exc)}) + "\n")


def main() -> None:
    sys.exit(run_subcommand(sys.argv[1:]))


if __name__ == "__main__":
    main()
