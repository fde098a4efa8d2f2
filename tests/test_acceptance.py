"""Acceptance gate: nine numbered end-to-end checks, one test per criterion.

Each test prints a single pass/fail line with the measured quantities and
its runtime, then asserts the stated tolerances. Heavy distance fields are
built once and shared through a module cache.
"""

import time

import numpy as np
import pytest

from snowcap.simsys import (
    koch_snowflake,
    vicsek,
    cantor_dust,
    similarity_dimension,
    critical_delta,
)
from snowcap.geomfield import Grid, DistanceField, build_grid, distance_field, minkowski_dimension
from snowcap.forms import assemble_form, eta_rn, capacity_relaxed, hardy_quotient, collar_integral
from snowcap.stochastic import WalkConfig, walk_absorption

_CACHE = {}


def _field(name):
    """Shared distance fields; realization depth keeps the boundary error
    below one cell at the target resolution."""
    if name not in _CACHE:
        family, res = name.rsplit("_", 1)
        res = int(res)
        if family == "koch13":
            depth = 6 if res <= 512 else 7
            gkey = f"koch13_geom_{depth}"
            if gkey not in _CACHE:
                _CACHE[gkey] = koch_snowflake(1.0 / 3.0, depth)
            geom = _CACHE[gkey]
        elif family == "koch14":
            geom = koch_snowflake(0.25, 8)
        elif family == "cantor":
            if "cantor_geom_6" not in _CACHE:
                _CACHE["cantor_geom_6"] = cantor_dust(0.25, 2, 6)
            geom = _CACHE["cantor_geom_6"]
        else:
            raise KeyError(name)
        grid = build_grid(geom, res)
        _CACHE[name] = (geom, distance_field(geom, grid))
    return _CACHE[name]


def _line_field(n):
    """Unit interval with the boundary at the origin: d(x) = x."""
    mask = np.ones(n, dtype=bool)
    grid = Grid(origin=np.array([0.0]), h=1.0 / n, dims=(n,), omega_mask=mask)
    return DistanceField(grid, grid.axis_centers(0).copy(), 0.0, 1.0)


def _prolong(psi, dims):
    """Warm start on the next grid: nearest-neighbor upsample, edge-padded."""
    up = np.repeat(np.repeat(psi, 2, axis=0), 2, axis=1)
    out = np.zeros(dims)
    out[: min(dims[0], up.shape[0]), : min(dims[1], up.shape[1])] = up[: dims[0], : dims[1]]
    if dims[0] > up.shape[0]:
        out[up.shape[0]:, :] = out[up.shape[0] - 1, :]
    if dims[1] > up.shape[1]:
        out[:, up.shape[1]:] = out[:, up.shape[1] - 1][:, None]
    return out


def _report(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} {detail}")


def test_criterion_1_dimension_solver_exactness():
    t0 = time.perf_counter()
    worst = 0.0
    for d in (1, 2, 3):
        for lam in (1.0 / 8.0, 0.25, 1.0 / 3.0, 0.4):
            s = similarity_dimension(cantor_dust(lam, d, 1).system)
            worst = max(worst, abs(s - d * np.log(2.0) / np.log(1.0 / lam)))
    s_koch = similarity_dimension(koch_snowflake(1.0 / 3.0, 1).system)
    worst = max(worst, abs(s_koch - np.log(4.0) / np.log(3.0)))
    s_vicsek = similarity_dimension(vicsek(1.0 / 3.0, 3, 1).system)
    worst = max(worst, abs(s_vicsek - 2.0))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-10 and dt < 1.0
    _report(1, ok, f"dimension solver max abs error {worst:.2e} (tol 1e-10), {dt:.2f} s (< 1 s)")
    assert worst <= 1e-10
    assert dt < 1.0


def test_criterion_2_volume_scaling_slopes():
    t0 = time.perf_counter()
    geom, f = _field("koch13_2048")
    h = f.grid.h
    fit = minkowski_dimension(f, 4 * h, 64 * h)
    slope_koch = 2.0 - fit.exponent
    dt_koch = time.perf_counter() - t0

    t1 = time.perf_counter()
    geom, f = _field("cantor_2048")
    h = f.grid.h
    fit = minkowski_dimension(f, 4 * h, 64 * h)
    slope_cantor = 2.0 - fit.exponent
    dt_cantor = time.perf_counter() - t1

    ok = (
        abs(slope_koch - 0.738) <= 0.10
        and abs(slope_cantor - 1.0) <= 0.10
        and dt_koch < 120
        and dt_cantor < 120
    )
    _report(
        2,
        ok,
        f"near-boundary volume slopes: koch {slope_koch:.3f} (0.738±0.10) in {dt_koch:.0f} s, "
        f"cantor {slope_cantor:.3f} (1.0±0.10) in {dt_cantor:.0f} s (< 120 s each)",
    )
    assert abs(slope_koch - 0.738) <= 0.10
    assert abs(slope_cantor - 1.0) <= 0.10
    assert dt_koch < 120 and dt_cantor < 120


def test_criterion_3_minkowski_matches_similarity_dimension():
    results, times = {}, {}
    for name in ("koch13_2048", "koch14_2048", "cantor_2048"):
        t0 = time.perf_counter()
        geom, f = _field(name)
        h = f.grid.h
        fit = minkowski_dimension(f, 4 * h, 64 * h)
        s = similarity_dimension(geom.system)
        results[name] = (fit.exponent, s, abs(fit.exponent - s))
        times[name] = time.perf_counter() - t0

    ok = all(err <= 0.05 for _, _, err in results.values()) and all(
        t < 120 for t in times.values()
    )
    detail = ", ".join(
        f"{n}: {est:.4f} vs s={s:.4f} in {times[n]:.0f} s" for n, (est, s, _) in results.items()
    )
    _report(3, ok, f"box-counting dimension (tol ±0.05, < 120 s each): {detail}")
    for name, (est, s, err) in results.items():
        assert err <= 0.05, f"{name}: |{est:.4f} - {s:.4f}| > 0.05"
        assert times[name] < 120


def test_criterion_4_cutoff_energy_scaling_laws():
    t0 = time.perf_counter()
    geom, f = _field("koch13_1024")
    s = similarity_dimension(geom.system)
    delta_c = critical_delta(s, 2)
    form_flat = assemble_form(f, 2.0)
    form_crit = assemble_form(f, delta_c)
    r = 0.3
    seq_flat, seq_crit = [], []
    for n in (16, 64, 256, 1024, 4096):
        eta = eta_rn(f, r, n)
        seq_flat.append(np.log(n) ** 2 * form_flat.energy(eta))
        seq_crit.append(np.log(n) * form_crit.energy(eta))
    ratio_flat = max(seq_flat) / min(seq_flat)
    ratio_crit = max(seq_crit) / min(seq_crit)
    dt = time.perf_counter() - t0
    ok = ratio_flat <= 3.0 and ratio_crit <= 3.0 and dt < 300
    _report(
        4,
        ok,
        f"cutoff energies stay bounded: (log n)^2 h(eta) max/min {ratio_flat:.3f} at delta=2, "
        f"(log n) h(eta) max/min {ratio_crit:.3f} at delta_c (tol 3), {dt:.0f} s (< 300 s)",
    )
    assert ratio_flat <= 3.0
    assert ratio_crit <= 3.0
    assert dt < 300


def test_criterion_5_capacity_dichotomy_under_refinement():
    t0 = time.perf_counter()
    eps = 0.01
    ladder = (256, 512, 1024, 2048)
    values = {}
    for delta in (2.0, 0.5):
        psi = None
        for res in ladder:
            geom, f = _field(f"koch13_{res}")
            x0 = _prolong(psi, f.grid.dims) if psi is not None else None
            out = capacity_relaxed(f, delta, eps, cg_tol=1e-6, x0=x0)
            values[(delta, res)] = out.value
            psi = out.psi
    dt = time.perf_counter() - t0

    ratio = values[(2.0, 256)] / values[(2.0, 2048)]
    v05 = [values[(0.5, r)] for r in ladder]
    variation = (max(v05) - min(v05)) / min(v05)
    floor = 0.5 * v05[0]  # positive floor set by the first rung
    ok = ratio >= 2.0 and variation < 0.30 and min(v05) > floor and dt < 600
    _report(
        5,
        ok,
        f"capacity at fixed collar eps=0.01: delta=2.0 ratio 256/2048 = {ratio:.3f} (need >= 2); "
        f"delta=0.5 variation {100 * variation:.1f}% (< 30%), min {min(v05):.4f} > floor "
        f"{floor:.4f}; {dt:.0f} s (< 600 s)",
    )
    assert dt < 600
    assert variation < 0.30
    assert min(v05) > floor
    assert ratio >= 2.0, (
        f"capacity(256)/capacity(2048) = {ratio:.3f} at delta=2.0: the fixed-width collar "
        f"keeps a resolution-independent mass, so the value converges instead of vanishing "
        f"(values: {[round(values[(2.0, r)], 5) for r in ladder]})"
    )


def test_criterion_6_collar_integral_divergence_rate():
    t0 = time.perf_counter()
    geom, f = _field("koch13_2048")
    s = similarity_dimension(geom.system)
    h = f.grid.h
    z, rho = (0.0, 0.0), 0.6
    taus = np.geomspace(8 * h, 64 * h, 7)
    vals = np.array([collar_integral(f, 0.5, z, rho, t) for t in taus])
    slope = float(np.polyfit(np.log(taus), np.log(vals), 1)[0])
    target = -(2.0 + s - 2.0 - 0.5)

    v16 = collar_integral(f, 2.2, z, rho, 16 * h)
    v8 = collar_integral(f, 2.2, z, rho, 8 * h)
    change = abs(v8 - v16) / v16
    dt = time.perf_counter() - t0
    ok = abs(slope - target) <= 0.15 and change < 0.10 and dt < 120
    _report(
        6,
        ok,
        f"collar integral: delta=0.5 slope {slope:.3f} vs {target:.3f} (±0.15); "
        f"delta=2.2 last-halving change {100 * change:.1f}% (< 10%); {dt:.0f} s (< 120 s)",
    )
    assert abs(slope - target) <= 0.15
    assert change < 0.10
    assert dt < 120


def test_criterion_7_hardy_quotient_oracle_1d():
    t0 = time.perf_counter()
    measured = {}
    for delta in (0.0, 0.5):
        b = hardy_quotient(_line_field(10_000), delta, (0.0,), 2.0)
        target = ((1.0 - delta) / 2.0) ** 2
        measured[delta] = (b, target, abs(b - target) / target)
    b1_small = hardy_quotient(_line_field(10_000), 1.0, (0.0,), 2.0)
    b1_large = hardy_quotient(_line_field(40_000), 1.0, (0.0,), 2.0)
    dt = time.perf_counter() - t0

    ok = (
        all(rel <= 0.05 for _, _, rel in measured.values())
        and b1_small < 0.02
        and b1_large <= 0.5 * b1_small
        and dt < 60
    )
    detail = "; ".join(
        f"delta={d}: {b:.5f} vs {t:.5f} ({100 * rel:.1f}% off, tol 5%)"
        for d, (b, t, rel) in measured.items()
    )
    _report(
        7,
        ok,
        f"1d Hardy quotient at 1e4 cells: {detail}; delta=1: {b1_small:.5f} (< 0.02), "
        f"x4 cells -> {b1_large:.5f} (need <= half); {dt:.0f} s (< 60 s)",
    )
    assert dt < 60
    for d, (b, t, rel) in measured.items():
        assert rel <= 0.05, (
            f"delta={d}: quotient {b:.5f} is {100 * rel:.1f}% above {t:.5f}: the discrete "
            f"quotient dominates the continuum constant and closes the gap only like "
            f"1/log(cells), far slower than 5% at 1e4 cells"
        )
    assert b1_small < 0.02, f"delta=1 quotient {b1_small:.5f} at 1e4 cells (log^-2 decay)"
    assert b1_large <= 0.5 * b1_small, (
        f"quotient fell {b1_small:.5f} -> {b1_large:.5f} (factor {b1_large / b1_small:.3f}); "
        f"the log^-2 law gives (log 1e4 / log 4e4)^2 = 0.755, so halving needs far more cells"
    )


def test_criterion_8_unit_clamp_never_raises_energy():
    t0 = time.perf_counter()
    geoms = [
        (koch_snowflake(1.0 / 3.0, 5), 128, 0.5),
        (cantor_dust(0.25, 2, 4), 128, 1.3),
        (vicsek(1.0 / 3.0, 2, 4), 128, 2.2),
    ]
    rng = np.random.default_rng(11)
    violations = 0
    total = 0
    for geom, res, delta in geoms:
        grid = build_grid(geom, res)
        f = distance_field(geom, grid)
        form = assemble_form(f, delta)
        for _ in range(1000):
            phi = rng.uniform(-1.0, 2.0, size=grid.dims)
            if form.energy(np.clip(phi, 0.0, 1.0)) > form.energy(phi):
                violations += 1
            total += 1
    dt = time.perf_counter() - t0
    ok = violations == 0 and dt < 30
    _report(
        8,
        ok,
        f"unit clamp contraction: {violations} violations in {total} random functions "
        f"on 3 geometries, {dt:.0f} s (< 30 s)",
    )
    assert violations == 0
    assert dt < 30


def test_criterion_9_absorbed_walk_trend():
    t0 = time.perf_counter()
    geom = cantor_dust(0.25, 2, 6)  # one fixed realization across the sweep
    stats = {}
    for res in (256, 512, 1024):
        grid = build_grid(geom, res)
        f = distance_field(geom, grid)
        start = tuple(n // 8 for n in grid.dims)
        for delta in (2.0, 0.0):
            form = assemble_form(f, delta)
            cfg = WalkConfig(
                start=start, horizon=1.0, trials=10_000, seed=2026, absorb_eps=6 * grid.h
            )
            out = walk_absorption(form, f, cfg)
            stats[(delta, res)] = (out.p_hat, out.stderr)
    dt = time.perf_counter() - t0

    p2 = [stats[(2.0, r)] for r in (256, 512, 1024)]
    gaps_ok = all(
        a[0] - b[0] > 3.0 * np.hypot(a[1], b[1]) for a, b in zip(p2, p2[1:])
    )
    p0 = [stats[(0.0, r)] for r in (256, 512, 1024)]
    agree_ok = all(
        abs(a[0] - b[0]) <= 3.0 * np.hypot(a[1], b[1])
        for i, a in enumerate(p0)
        for b in p0[i + 1:]
    )
    level_ok = all(p > 0.2 for p, _ in p0)
    ok = gaps_ok and agree_ok and level_ok and dt < 600
    _report(
        9,
        ok,
        f"absorbed-walk fractions: delta=2 {[round(p, 4) for p, _ in p2]} strictly "
        f"decreasing beyond 3 sigma: {gaps_ok}; delta=0 {[round(p, 4) for p, _ in p0]} "
        f"within 3 sigma and > 0.2: {agree_ok and level_ok}; {dt:.0f} s (< 600 s)",
    )
    assert gaps_ok
    assert agree_ok
    assert level_ok
    assert dt < 600
