"""Command-line driver: records, config files, resumable sweeps, exit codes."""

import json
import warnings
from dataclasses import replace

import numpy as np
import pytest

import snowcap.cli
from snowcap.cli import run_subcommand, choose_depth
from snowcap.records import ExperimentRecord, append_record, derive_seed, load_records, load_ids


def run(capsys, *argv):
    rc = run_subcommand(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


@pytest.fixture
def field_builds(monkeypatch):
    """Grid dims of each distance field the CLI builds, seen through its module attribute."""
    build, calls = snowcap.cli.distance_field, []

    def counting(geom, grid):
        calls.append(grid.dims)
        return build(geom, grid)

    monkeypatch.setattr(snowcap.cli, "distance_field", counting)
    return calls


@pytest.fixture(scope="module")
def sweep_stream(tmp_path_factory):
    """88-cell capacity-trend sweep (8 lambdas x 11 deltas) at a small grid."""
    path = str(tmp_path_factory.mktemp("sweep") / "records.jsonl")
    rc = run_subcommand(
        ["sweep", "--family", "cantor", "--d", "2", "--lambdas", "0.1:0.4:8",
         "--deltas", "0:2.5:11", "--resolution", "16", "--out", path]
    )
    assert rc == 0
    return path


# --- single experiments -----------------------------------------------------


def test_dimension_prints_threshold(capsys):
    rc, out, _ = run(capsys, "dimension", "--family", "koch", "--lambda", "0.3333333333")
    payload = json.loads(out)
    assert rc == 0
    assert abs(payload["s"] - 1.2618595) < 1e-6
    assert abs(payload["delta_c"] - 1.2618595) < 1e-6


def test_dimension_cantor_quarter_hits_unit_threshold(capsys):
    rc, out, _ = run(capsys, "dimension", "--family", "cantor", "--lambda", "0.25", "--d", "2")
    payload = json.loads(out)
    assert rc == 0
    assert abs(payload["s"] - 1.0) < 1e-12
    assert abs(payload["delta_c"] - 1.0) < 1e-12


def test_capacity_appends_record(tmp_path, capsys):
    recs = str(tmp_path / "r.jsonl")
    rc, out, _ = run(capsys, "capacity", "--family", "cantor", "--lambda", "0.25",
                     "--d", "2", "--resolution", "32", "--delta", "0.5",
                     "--eps", "4h", "--records", recs)
    assert rc == 0
    assert json.loads(out)["value"] > 0
    loaded = load_records(recs)
    assert len(loaded) == 1
    assert loaded[0].op == "capacity"
    assert loaded[0].resolution == 32
    assert loaded[0].outputs["value"] == pytest.approx(json.loads(out)["value"])
    # the solver's work travels with the record
    assert loaded[0].outputs["levels"] >= 2
    assert 0 < loaded[0].outputs["solver_iters"] <= 30
    assert 0 <= loaded[0].outputs["residual"] <= 1e-8


def test_record_roundtrip_identity(tmp_path, capsys):
    recs = str(tmp_path / "r.jsonl")
    run(capsys, "capacity", "--family", "cantor", "--lambda", "0.3", "--d", "2",
        "--resolution", "16", "--delta", "1.0", "--records", recs)
    rec = load_records(recs)[0]
    assert ExperimentRecord.from_json(rec.to_json()) == rec


def test_record_load_rejects_tampered_dimension(tmp_path, capsys):
    recs = str(tmp_path / "r.jsonl")
    run(capsys, "dimension", "--family", "koch", "--lambda", "0.3333333333",
        "--records", recs)
    raw = json.loads(open(recs).read())
    raw["s"] += 1e-3
    with pytest.raises(ValueError, match="recomputed"):
        ExperimentRecord.from_json(json.dumps(raw))
    raw = json.loads(open(recs).read())
    raw["delta_c"] -= 1e-3
    with pytest.raises(ValueError, match="delta_c"):
        ExperimentRecord.from_json(json.dumps(raw))


def test_hardy_and_collar_record_outputs(tmp_path, capsys):
    recs = str(tmp_path / "r.jsonl")
    rc, out, _ = run(capsys, "hardy", "--family", "cantor", "--lambda", "0.25",
                     "--d", "2", "--resolution", "32", "--delta", "0.5",
                     "--z", "0.0,0.0", "--r", "0.4", "--records", recs)
    assert rc == 0
    hardy = json.loads(out)
    assert hardy["quotient"] > 0
    assert hardy["iterations"] > 0 and hardy["levels"] >= 1
    assert 0 < hardy["residual"] ** 2 <= 1e-6
    rc, out, _ = run(capsys, "collar", "--family", "cantor", "--lambda", "0.25",
                     "--d", "2", "--resolution", "32", "--delta", "0.5",
                     "--z", "0.0,0.0", "--rho", "0.5", "--taus", "2h:8h:4",
                     "--records", recs)
    assert rc == 0
    assert json.loads(out)["slope"] < 0
    recs = load_records(recs)
    assert [r.op for r in recs] == ["hardy", "collar"]
    assert recs[0].outputs == hardy


@pytest.fixture
def ball_builds(monkeypatch):
    """The fields the CLI builds and the balls built in the CLI and in forms."""
    fields, balls = [], []
    build, ball = snowcap.cli.distance_field, snowcap.cli._ball

    def keep(geom, grid):
        fields.append(build(geom, grid))
        return fields[-1]

    def counting(*args):
        balls.append(args)
        return ball(*args)

    monkeypatch.setattr(snowcap.cli, "distance_field", keep)
    monkeypatch.setattr(snowcap.cli, "_ball", counting)
    monkeypatch.setattr(snowcap.forms, "_ball", counting)
    return fields, balls


def test_collar_ladder_builds_one_ball(ball_builds, capsys):
    fields, balls = ball_builds
    rc, out, _ = run(capsys, "collar", "--family", "koch", "--lambda", "0.3333333333",
                     "--resolution", "128", "--delta", "0.5", "--z", "0.5,0.3",
                     "--rho", "0.4", "--taus", "1h:16h:7")
    assert rc == 0
    assert len(balls) == 1
    payload = json.loads(out)
    # the ladder's values are collar_integral's, tau by tau
    assert payload["values"] == [
        snowcap.forms.collar_integral(fields[0], 0.5, (0.5, 0.3), 0.4, t)
        for t in payload["taus"]
    ]


def test_hardy_builds_one_ball(ball_builds, capsys):
    fields, balls = ball_builds
    rc, out, _ = run(capsys, "hardy", "--family", "koch", "--lambda", "0.3333333333",
                     "--resolution", "64", "--delta", "0.5", "--z", "0.5,0.3", "--r", "0.2")
    assert rc == 0
    assert len(balls) == 1
    # the quotient is hardy_quotient's
    assert json.loads(out)["quotient"] == snowcap.forms.hardy_quotient(
        fields[0], 0.5, (0.5, 0.3), 0.2)


def test_walk_derives_seed_per_experiment(tmp_path, capsys):
    args = ["walk", "--family", "cantor", "--lambda", "0.25", "--d", "2",
            "--resolution", "32", "--delta", "0.0", "--start", "0.5,0.5",
            "--trials", "100", "--horizon", "0.5", "--absorb-eps", "4h"]
    r1 = str(tmp_path / "a.jsonl")
    r2 = str(tmp_path / "b.jsonl")
    rc, out1, _ = run(capsys, *args, "--records", r1)
    assert rc == 0
    run(capsys, *args, "--records", r2)
    a, b = load_records(r1)[0], load_records(r2)[0]
    assert a.outputs == b.outputs  # same derived seed, same trajectory set
    assert a.id == b.id
    rc, out3, _ = run(capsys, *args, "--seed", "1", "--records", r2)
    c = load_records(r2)[1]
    assert c.id != a.id
    assert c.seed != a.seed
    assert 0.0 <= a.outputs["p_hat"] <= 1.0


def test_walk_record_carries_step_and_round_counts(tmp_path, capsys):
    recs = str(tmp_path / "r.jsonl")
    rc, out, _ = run(capsys, "walk", "--family", "cantor", "--lambda", "0.25", "--d", "2",
                     "--resolution", "32", "--delta", "0.0", "--start", "0.5,0.5",
                     "--trials", "50", "--horizon", "0.05", "--records", recs)
    assert rc == 0
    outputs = load_records(recs)[0].outputs
    assert outputs == json.loads(out)
    assert outputs["steps"] >= outputs["trials"]
    assert 1 <= outputs["rounds"] <= outputs["steps"]


def test_walk_rejects_infinite_horizon(tmp_path, capsys):
    recs = tmp_path / "r.jsonl"
    rc, out, err = run(capsys, "walk", "--family", "cantor", "--lambda", "0.25", "--d", "2",
                       "--resolution", "16", "--delta", "0.0", "--start", "0.5,0.5",
                       "--horizon", "inf", "--records", str(recs))
    assert rc == 2
    assert out == ""
    assert json.loads(err) == {"error": "config",
                               "message": "horizon must be positive and finite"}
    assert not recs.exists()


_C = ["--family", "cantor", "--lambda", "0.25", "--d", "2", "--resolution", "32"]
_SWEEP4 = ["sweep", "--family", "cantor", "--d", "2", "--lambdas", "0.15:0.4:2",
           "--deltas", "0:2.5:2", "--resolution", "16"]

# record ids (and the walk's derived seed) of existing parameter sets; sweeps
# resume by id, so none of these may ever change
PINNED = [
    (["dimension", "--family", "koch", "--lambda", "0.3333333333"], ["4b84cbb57628ef0f"], None),
    (["capacity", *_C, "--delta", "0.5"], ["1fbd51cf03ae65f1"], None),
    (["hardy", *_C, "--delta", "0.5", "--z", "0.5,0.5", "--r", "12h"],
     ["8c6310787fce60f8"], None),
    (["collar", *_C, "--delta", "0.5", "--z", "0.5,0.5", "--rho", "0.3", "--taus", "1h:4h:4"],
     ["e74a8aaee69c3ab7"], None),
    (["walk", *_C, "--delta", "0.0", "--start", "0.5,0.5", "--trials", "50",
      "--horizon", "0.05"], ["b181be7ca4be1f8e"], [921340954597563546]),
    (["capacity", "--family", "cantor-dust", "--lambda", "0.25", "--d", "2",
      "--resolution", "32", "--delta", "0.5"], ["55ada9bb051ac50e"], None),
    (["capacity", "--family", "vicsek", "--lambda", "0.3", "--d", "2", "--resolution", "32",
      "--delta", "1.0"], ["25d8975cdfa12536"], None),
    (["hardy", "--family", "koch", "--lambda", "0.25", "--resolution", "64", "--delta", "1.0",
      "--z", "0.5,0.3", "--r", "0.2"], ["605bb7f05533a3f8"], None),
    (_SWEEP4, ["56b4fca96948f532", "650237e7f43a251b", "7f22ea137668d5ba", "0c1f4516e222bb9a"],
     None),
]


@pytest.mark.parametrize("argv, ids, seeds", PINNED)
def test_record_ids_are_pinned(argv, ids, seeds, tmp_path, capsys):
    path = str(tmp_path / "r.jsonl")
    rc, _, _ = run(capsys, *argv, "--out" if argv[0] == "sweep" else "--records", path)
    assert rc == 0
    recs = load_records(path)
    assert [r.id for r in recs] == ids
    if seeds is not None:
        assert [r.seed for r in recs] == seeds


# --- config files and option validation --------------------------------------


_DELTA = "degeneracy order delta must be >= 0"
_WALK = ["walk", *_C, "--delta", "0.0", "--start", "0.5,0.5"]
_HARDY = ["hardy", *_C, "--delta", "0.5", "--z", "0.5,0.5"]
_COLLAR = ["collar", *_C, "--delta", "0.5"]
_TOL = "tol must be positive and finite"
_CG_TOL = "cg_tol must be positive and finite"
# argv, error message and, where it is not "config", the error code
REFUSED = {
    "walk-trials-0": ([*_WALK, "--trials", "0"], "need at least one trial"),
    "walk-trials-2^23+1": ([*_WALK, "--trials", str(2**23 + 1)],
                           "at most 8388608 trials, so that no two share draws"),
    "walk-horizon-inf": ([*_WALK, "--horizon", "inf"], "horizon must be positive and finite"),
    "walk-horizon-nan": ([*_WALK, "--horizon", "nan"], "horizon must be positive and finite"),
    "walk-absorb-eps": ([*_WALK, "--absorb-eps", "1h"], "absorb_eps must span at least two cells"),
    "walk-absorb-eps-inf": ([*_WALK, "--absorb-eps", "inf"], "length 'inf' must be finite"),
    "walk-start": (["walk", "--family", "koch", "--lambda", "0.25", "--resolution", "32",
                    "--delta", "0.0", "--start", "9,9"], "start cell must be inside the domain"),
    "walk-start-outside": ([*_WALK, "--start", "0.5,9"], "start cell must be inside the domain"),
    # inside the grid's box, outside the snowflake
    "walk-start-domain": (["walk", "--family", "koch", "--lambda", "0.25", "--resolution", "32",
                           "--delta", "0.0", "--start", "0.05,-0.2"],
                          "start cell must be inside the domain"),
    "hardy-r-0": ([*_HARDY, "--r", "0"], "no in-domain cell within 0.0 of z", "empty-domain"),
    "hardy-r-inf": ([*_HARDY, "--r", "inf"], "length 'inf' must be finite"),
    "hardy-max-outer": ([*_HARDY, "--r", "12h", "--max-outer", "-1"],
                        "unrecognized arguments: --max-outer -1"),
    "hardy-tol-0": ([*_HARDY, "--r", "12h", "--tol", "0"], _TOL),
    "hardy-tol-nan": ([*_HARDY, "--r", "12h", "--tol", "nan"], _TOL),
    "collar-rho": ([*_COLLAR, "--z", "0.5,0.5", "--rho", "4h"], "need 0 < tau < rho"),
    "collar-rho-inf": ([*_COLLAR, "--z", "0.5,0.5", "--rho", "inf"], "length 'inf' must be finite"),
    "collar-ball": ([*_COLLAR, "--z", "9,9", "--rho", "0.3", "--taus", "1h:4h:4"],
                    "no in-domain cell within 0.3 of z", "empty-domain"),
    "capacity-cg-tol": (["capacity", *_C, "--delta", "0.5", "--cg-tol", "0"], _CG_TOL),
    "capacity-delta": (["capacity", *_C, "--delta", "-1"], _DELTA),
    "capacity-delta-nan": (["capacity", *_C, "--delta", "nan"], _DELTA),
    "capacity-eps": (["capacity", *_C, "--delta", "0.5", "--eps", "1h"],
                     "collar width eps must be at least two cells"),
    "capacity-eps-inf": (["capacity", *_C, "--delta", "0.5", "--eps", "inf"],
                         "length 'inf' must be finite"),
    "capacity-depth": (["capacity", *_C, "--delta", "0.5", "--depth", "-1"],
                       "depth must be >= 0"),
    "capacity-depth-cap": (["capacity", "--family", "koch", "--lambda", "0.25", "--resolution",
                            "32", "--delta", "0.5", "--depth", "10"],
                           "koch depth 10 exceeds cap 9", "DepthOverflow"),
    "capacity-family": (["capacity", "--family", "vicsk", "--lambda", "0.25", "--d", "2",
                         "--resolution", "32", "--delta", "0.5"], "unknown family 'vicsk'"),
    "collar-delta": (["collar", *_C, "--delta", "-1", "--z", "0.5,0.5", "--rho", "0.3",
                      "--taus", "1h:4h:4"], _DELTA),
    "sweep-eps-cells": ([*_SWEEP4, "--eps-cells", "1"],
                        "collar width eps must be at least two cells"),
    "sweep-eps-cells-nan": ([*_SWEEP4, "--eps-cells", "nan"],
                            "collar width eps must be at least two cells"),
    "sweep-eps-cells-inf": ([*_SWEEP4, "--eps-cells", "inf"], "--eps-cells must be finite"),
    "sweep-deltas": ([*_SWEEP4, "--deltas=-0.5:2.5:2"], _DELTA),
    "sweep-deltas-inf": ([*_SWEEP4, "--deltas", "0:inf:2"],
                         "range '0:inf:2' must have finite bounds"),
    "sweep-cg-tol": ([*_SWEEP4, "--cg-tol", "0"], _CG_TOL),
    "sweep-lambdas": ([*_SWEEP4, "--lambdas", "0.15:0.6:4"],
                      "cantor-dust requires lambda in (0, 0.5)"),
    "sweep-range": ([*_SWEEP4, "--lambdas", "0.1:0.4"], "range '0.1:0.4' must look like lo:hi:n"),
    "sweep-range-count": ([*_SWEEP4, "--deltas", "0:1:0"], "range count must be >= 1"),
    "sweep-resolution": ([*_SWEEP4, "--resolution", "8"], "sweep resolution must be at least 16"),
    "collar-taus": ([*_COLLAR, "--z", "0.5,0.5", "--rho", "0.3", "--taus", "1h:4h:1"],
                    "need at least two ladder points"),
    "collar-taus-range": ([*_COLLAR, "--z", "0.5,0.5", "--rho", "0.3", "--taus", "8h:64h"],
                          "range '8h:64h' must look like lo:hi:n"),
    "collar-taus-negative": ([*_COLLAR, "--z", "0.5,0.5", "--rho", "0.3", "--taus=-1h:4h:3"],
                             "range '-1h:4h:3' must have positive bounds"),
    "walk-start-point": ([*_WALK, "--start", "0.5"],
                         "point '0.5' must have 2 comma-separated coordinates"),
}


@pytest.mark.parametrize("argv, message, code",
                         [(*case, "config")[:3] for case in REFUSED.values()], ids=REFUSED.keys())
def test_bad_options_fail_before_the_field_build(argv, message, code, field_builds, tmp_path,
                                                 capsys):
    recs = tmp_path / "r.jsonl"
    rc, out, err = run(capsys, *argv, "--out" if argv[0] == "sweep" else "--records", str(recs))
    assert rc == 2
    assert out == ""
    assert json.loads(err) == {"error": code, "message": message}
    assert field_builds == []
    assert not recs.exists()


def test_config_file_defaults_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"family": "cantor", "lambda": 0.25, "d": 2, "resolution": 16, "delta": 0.5,
         "cg-tol": 1e-9}
    ))
    recs = str(tmp_path / "r.jsonl")
    rc, _, _ = run(capsys, "capacity", "--config", str(cfg), "--delta", "1.25",
                   "--records", recs)
    assert rc == 0
    rec = load_records(recs)[0]
    assert rec.delta == 1.25  # flag beats config
    assert rec.resolution == 16  # config beats built-in default
    assert rec.family == "cantor"
    assert rec.tolerances == {"cg_tol": 1e-9}  # keys are long option names


# config options and the flags they stand for, on a capacity run whose other
# options come from _CAPACITY; the config file's values are read as the flags'
# text, so both write one record id
_CAPACITY = {"--family": "cantor", "--lambda": "0.25", "--d": "2", "--resolution": "32",
             "--delta": "0.5"}
CONFIG_AS_FLAGS = {
    "delta": ({"delta": 1}, ["--delta", "1"], None),
    "eps": ({"eps": 0.25}, ["--eps", "0.25"], None),
    "resolution": ({"resolution": 32}, ["--resolution", "32"], "1fbd51cf03ae65f1"),
    # options whose Python names (lam, cg_tol) differ from their flags: the
    # key is the flag's long name
    "dests": ({"lambda": 0.25, "cg-tol": 1e-9}, ["--lambda", "0.25", "--cg-tol", "1e-9"], None),
}


@pytest.mark.parametrize("cfg, flags, pinned", CONFIG_AS_FLAGS.values(),
                         ids=CONFIG_AS_FLAGS.keys())
def test_config_and_flags_write_one_record_id(cfg, flags, pinned, tmp_path, capsys):
    rest = [t for flag, v in _CAPACITY.items() if flag not in flags for t in (flag, v)]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    ids = []
    for options in (["--config", str(path)], flags):
        recs = str(tmp_path / f"{len(ids)}.jsonl")
        assert run(capsys, "capacity", *options, *rest, "--records", recs)[0] == 0
        ids.append(load_records(recs)[0].id)
    assert ids[0] == ids[1]
    if pinned is not None:
        assert ids[0] == pinned


_NOT_SCALAR = "config values must be strings or numbers: {}"
REFUSED_CONFIG = {
    "resolution-float": ({"resolution": 32.0},
                         "argument --resolution: invalid int value: '32.0'"),
    "resolution-fraction": ({"resolution": 32.5},
                            "argument --resolution: invalid int value: '32.5'"),
    "trials-float": ({"trials": 50.0}, "argument --trials: invalid int value: '50.0'"),
    "records-true": ({"records": True}, _NOT_SCALAR.format(["records"])),
    "depth-null": ({"depth": None}, _NOT_SCALAR.format(["depth"])),
    "not-an-object": ([1], "config file must hold a JSON object"),
}


@pytest.mark.parametrize("cfg, message", REFUSED_CONFIG.values(), ids=REFUSED_CONFIG.keys())
def test_config_values_are_checked_as_flags(cfg, message, field_builds, tmp_path, capfd):
    # captured at the file descriptors: a records path of `true` would be
    # fd 1, and the record would land on stdout
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    rc, out, err = run(capfd, "walk", "--config", str(path), "--family", "cantor",
                       "--lambda", "0.25", "--delta", "0.0", "--start", "0.5,0.5",
                       "--horizon", "0.05")
    assert rc == 2
    assert out == ""
    assert json.loads(err) == {"error": "config", "message": message}
    assert field_builds == []


def test_config_rejects_unknown_keys(field_builds, tmp_path, capsys):
    # a key is a long option name; an option's Python name is not one
    cfg = tmp_path / "cfg.json"
    for keys in ({"bogus": 1}, {"lam": 0.25, "cg_tol": 1e-9}):
        cfg.write_text(json.dumps(keys))
        rc, out, err = run(capsys, "capacity", "--config", str(cfg), "--family", "koch",
                           "--lambda", "0.3", "--delta", "1.0")
        assert (rc, out) == (2, "")
        assert json.loads(err) == {
            "error": "config",
            "message": f"config keys not accepted by 'capacity': {sorted(keys)}"}
    assert field_builds == []


def test_missing_required_option_is_config_error(capsys):
    rc, _, err = run(capsys, "capacity", "--family", "koch", "--lambda", "0.3")
    assert rc == 2
    assert "delta" in json.loads(err)["message"]


def test_unknown_family_is_config_error(capsys):
    rc, _, err = run(capsys, "dimension", "--family", "sierpinski", "--lambda", "0.3")
    assert rc == 2
    assert json.loads(err)["error"] == "config"


def test_empty_domain_exit_code(capsys):
    rc, _, err = run(capsys, "capacity", "--family", "cantor", "--lambda", "0.499",
                     "--d", "2", "--resolution", "16", "--delta", "1.0")
    assert rc == 2
    assert json.loads(err)["error"] == "empty-domain"


@pytest.mark.parametrize("records", [False, True], ids=["stdout", "records"])
def test_result_that_is_not_json_is_refused(records, field_builds, tmp_path, capsys,
                                            monkeypatch):
    # a NaN capacity, which JSON cannot hold
    solve = snowcap.cli.capacity_relaxed
    monkeypatch.setattr(snowcap.cli, "capacity_relaxed",
                        lambda *a, **kw: replace(solve(*a, **kw), value=float("nan")))
    recs = tmp_path / "r.jsonl"
    rc, out, err = run(capsys, "capacity", "--family", "koch", "--lambda", "0.3333333333",
                       "--resolution", "32", "--delta", "1",
                       *(["--records", str(recs)] if records else []))
    assert rc == 2
    assert out == ""
    assert json.loads(err)["error"] == "config"
    assert field_builds == [(28, 32)]
    assert not recs.exists()


def test_collar_that_underflows_is_a_degenerate_fit(field_builds, tmp_path, capsys):
    # at delta 2000 every collar value underflows to 0, which has no
    # logarithm: a typed failure, raised before the log is taken
    recs = tmp_path / "r.jsonl"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run(capsys, "collar", "--family", "koch", "--lambda", "0.3333333333",
                           "--resolution", "32", "--delta", "2000", "--z", "0,0", "--rho", "0.6",
                           "--taus", "0.1:0.4:3", "--records", str(recs))
    assert rc == 2
    assert out == ""
    err = json.loads(err)
    assert err["error"] == "DegenerateFit"
    assert "underflows" in err["message"]
    assert field_builds == [(28, 32)]
    assert not recs.exists()


def test_capacity_with_underflowed_weights_has_zero_residual(capsys):
    # at delta 400 every weight underflows: the right-hand side is 0, CG
    # returns the exact psi = 0, and the residual is 0, not 0/0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, _ = run(capsys, "capacity", "--family", "koch", "--lambda", "0.3333333333",
                         "--resolution", "32", "--delta", "400")
    assert rc == 0
    assert json.loads(out)["residual"] == 0.0


UNDERFLOWED_HARDY = {
    # the ball's pencil is 0: 118 cells, one direct level
    "no-weight": ("400", "0.22", "no weight"),
    # 522 cells, more than the coarse size: a hierarchy
    "no-weight-multilevel": ("400", "0.7", "no weight"),
    # 118 cells: the one direct level's Cholesky check fails
    "weights-1e-262-to-1": ("150", "0.22", "not positive definite"),
    # 218 cells: the check fails on the coarsest level of a hierarchy
    "weights-1e-262-to-1-multilevel": ("150", "0.3", "not positive definite"),
    # 97 cells: K is positive definite, but the mass is 0 on the 10 nearest
    # the boundary, where dist^398 underflows
    "mass-underflow": ("400", "0.2", "mass underflows"),
}


@pytest.mark.parametrize("delta, r, message", UNDERFLOWED_HARDY.values(),
                         ids=UNDERFLOWED_HARDY.keys())
def test_hardy_with_underflowed_weights_is_a_solver_failure(delta, r, message, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run(capsys, "hardy", "--family", "koch", "--lambda", "0.3333333333",
                           "--resolution", "32", "--delta", delta, "--z", "0.5,0.3", "--r", r)
    assert rc == 3
    assert out == ""
    assert json.loads(err)["error"] == "solver"
    assert message in json.loads(err)["message"]


def test_solver_failure_exit_code(capsys, monkeypatch):
    monkeypatch.setattr("snowcap.forms._MAX_LOBPCG_ITERS", 0)
    rc, _, err = run(capsys, "hardy", "--family", "cantor", "--lambda", "0.25",
                     "--d", "2", "--resolution", "32", "--delta", "0.5",
                     "--z", "0.0,0.0", "--r", "0.4")
    assert rc == 3
    assert json.loads(err)["error"] == "solver"


@pytest.mark.parametrize("name", snowcap.cli._SPECS)
def test_help_shows_required_options_unbracketed(name, capsys):
    rc, out, _ = run(capsys, name, "--help")
    assert rc == 0
    usage = " ".join(out.split("\n\n")[0].split())  # usage wraps inside an option
    required = [(flag, kw) for flag, kw in snowcap.cli._SPECS[name].options
                if kw.get("required")]
    assert required
    for flag, kw in required:
        metavar = kw.get("dest", flag.lstrip("-").replace("-", "_")).upper()
        assert f" {flag} {metavar}" in usage
        assert f"[{flag} {metavar}]" not in usage


def test_version_and_missing_subcommand(capsys):
    # no subcommand to read a config file for: argv goes to argparse as given
    assert run(capsys, "--version") == (0, "snowcap 0.1.0\n", "")
    rc, out, err = run(capsys)
    assert (rc, out) == (2, "")
    assert json.loads(err) == {"error": "config",
                               "message": "the following arguments are required: cmd"}


# --- depth selection ----------------------------------------------------------


def test_choose_depth_tracks_cell_size():
    assert choose_depth("koch", 1.0 / 3.0, 2, 2048) == 7
    assert choose_depth("koch", 0.25, 2, 2048) == 8
    assert choose_depth("cantor", 0.25, 2, 2048) == 6
    depths = [choose_depth("cantor", 0.25, 2, r) for r in (64, 256, 1024)]
    assert depths == sorted(depths)
    assert all(d2 >= d1 for d1, d2 in zip(depths, depths[1:]))


def test_choose_depth_respects_primitive_budget():
    # slow error decay would ask for a depth whose primitive count explodes
    assert 4 ** choose_depth("cantor", 0.45, 2, 4096) <= 2_000_000


# --- sweeps and reports --------------------------------------------------------


def test_sweep_produces_one_record_per_cell(sweep_stream):
    recs = load_records(sweep_stream)
    assert len(recs) == 88
    assert len({r.id for r in recs}) == 88
    lams = sorted({r.lam for r in recs})
    assert len(lams) == 8 and lams[0] == 0.1 and lams[-1] == 0.4
    deltas = sorted({r.delta for r in recs})
    assert len(deltas) == 11 and deltas[-1] == 2.5
    assert all(r.op == "capacity-trend" for r in recs)
    assert all(r.outputs["verdict"] in ("vanishing", "persistent") for r in recs)


def test_sweep_rerun_keeps_stream_identical(sweep_stream, capsys):
    before = open(sweep_stream, "rb").read()
    rc, out, _ = run(capsys, "sweep", "--family", "cantor", "--d", "2",
                     "--lambdas", "0.1:0.4:8", "--deltas", "0:2.5:11",
                     "--resolution", "16", "--out", sweep_stream)
    assert rc == 0
    assert json.loads(out) == {"records": 0, "skipped": 88, "out": sweep_stream}
    assert open(sweep_stream, "rb").read() == before


def test_sweep_resumes_missing_cells(sweep_stream, tmp_path, capsys):
    lines = open(sweep_stream).read().splitlines()
    partial = str(tmp_path / "partial.jsonl")
    dropped = {json.loads(lines[i])["id"] for i in (5, 40, 87)}
    with open(partial, "w") as fh:
        for i, ln in enumerate(lines):
            if i not in (5, 40, 87):
                fh.write(ln + "\n")
    rc, out, _ = run(capsys, "sweep", "--family", "cantor", "--d", "2",
                     "--lambdas", "0.1:0.4:8", "--deltas", "0:2.5:11",
                     "--resolution", "16", "--out", partial)
    assert rc == 0
    assert json.loads(out)["records"] == 3
    assert load_ids(partial) == {json.loads(ln)["id"] for ln in lines}
    tail = {json.loads(ln)["id"] for ln in open(partial).read().splitlines()[85:]}
    assert tail == dropped


def test_sweep_on_a_fine_line_meets_the_maximum_principle(tmp_path, capsys):
    # at cg_tol 1e-6 the delta-0 solve on 16384 cells overshoots 1 by 1.9e-6,
    # and capacity_relaxed continues it at a tighter tolerance
    out = str(tmp_path / "runs.jsonl")
    rc, stdout, err = run(capsys, "sweep", "--family", "cantor", "--d", "1",
                          "--lambdas", "0.25:0.25:1", "--deltas", "0:2.5:11",
                          "--resolution", "16384", "--out", out)
    assert (rc, err) == (0, "")
    assert json.loads(stdout)["records"] == 11
    assert len(load_records(out)) == 11


def test_sweep_builds_fields_through_module_hook(field_builds, tmp_path, capsys):
    # benchmarks capture fields by swapping the module attribute
    rc, _, _ = run(capsys, *_SWEEP4, "--out", str(tmp_path / "r.jsonl"))
    assert rc == 0
    assert len(field_builds) == 4  # coarse and fine grid for each of two lambdas


# lambda 0.15 has 3 and 4 multigrid levels on its two grids, lambda 0.4 1 and 3
_SWEEP128 = [*_SWEEP4, "--resolution", "128", "--deltas", "0:2.5:4"]


def test_sweep_builds_one_hierarchy_per_ladder(monkeypatch, tmp_path, capsys):
    # each (lambda, grid) is one ladder: one hierarchy aggregates its cells,
    # every further delta only forms Galerkin products over its skeleton
    import snowcap.forms

    build, calls = snowcap.forms._hierarchy, []

    def counting(A, coords=None, skeleton=None):
        if skeleton is None:
            calls.append(A.shape[0])
        return build(A, coords, skeleton)

    monkeypatch.setattr(snowcap.forms, "_hierarchy", counting)
    rc, stdout, _ = run(capsys, *_SWEEP4, "--resolution", "128", "--out",
                        str(tmp_path / "r.jsonl"))
    assert rc == 0 and json.loads(stdout)["records"] == 4
    assert len(calls) == 4  # 2 lambdas x 2 grids, not once per cell and grid (8)


def test_sweep_resume_writes_the_values_of_an_uninterrupted_sweep(tmp_path, capsys):
    # the skeleton comes from the smallest delta of --deltas whether or not
    # its cell is still to write: drop lambda 0.15's deltas 0.833 and 2.5
    # (its delta 0 stays) and lambda 0.4's deltas 0 and 1.667
    whole, part = str(tmp_path / "whole.jsonl"), str(tmp_path / "part.jsonl")
    assert run(capsys, *_SWEEP128, "--out", whole)[0] == 0
    lines = open(whole).read().splitlines()
    cells = [(r["lambda"], r["delta"]) for r in map(json.loads, lines)]
    drop = {(0.15, 2.5 / 3), (0.15, 2.5), (0.4, 0.0), (0.4, 5.0 / 3)}
    assert drop <= set(cells)
    with open(part, "w") as fh:
        fh.writelines(ln + "\n" for ln, cell in zip(lines, cells) if cell not in drop)
    rc, stdout, _ = run(capsys, *_SWEEP128, "--out", part)
    assert rc == 0 and json.loads(stdout)["records"] == 4

    def capacities(path):
        return {r["id"]: [r["outputs"][k].hex() for k in ("capacity_coarse", "capacity_fine")]
                for r in map(json.loads, open(path).read().splitlines())}

    assert capacities(part) == capacities(whole)


def test_sweep_resumes_after_torn_final_record(tmp_path, capsys):
    out = str(tmp_path / "r.jsonl")
    assert run(capsys, *_SWEEP4, "--out", out)[0] == 0
    lines = open(out).read().splitlines()
    want = sorted(json.loads(ln)["id"] for ln in lines)
    # a crash halfway through the last append leaves an unterminated fragment
    with open(out, "w") as fh:
        fh.write("".join(ln + "\n" for ln in lines[:-1]) + lines[-1][: len(lines[-1]) // 2])
    with pytest.warns(RuntimeWarning, match="torn"):
        assert len(load_records(out)) == 3
    with pytest.warns(RuntimeWarning, match="torn"):
        rc, stdout, _ = run(capsys, *_SWEEP4, "--out", out)
    assert rc == 0
    assert json.loads(stdout)["records"] == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sorted(r.id for r in load_records(out)) == want
        # a complete final record without its newline is kept, and the next
        # append starts on a line of its own
        with open(out, "w") as fh:
            fh.write("\n".join(lines))
        assert sorted(load_ids(out)) == want
        append_record(out, ExperimentRecord.from_json(lines[0]))
        assert len(load_records(out)) == 5
    # a torn line anywhere but at the end is not a cut write: loading fails
    with open(out, "w") as fh:
        fh.write(lines[0][:40] + "\n" + "".join(ln + "\n" for ln in lines[1:]))
    with pytest.raises(json.JSONDecodeError):
        load_ids(out)
    with pytest.raises(json.JSONDecodeError):
        load_records(out)


@pytest.mark.parametrize("cmd", ["sweep", "report"])
def test_record_line_that_is_not_an_object_is_refused(cmd, tmp_path, capsys):
    # valid JSON that is not a record, or a record field that is missing or
    # of another JSON type than its annotation: resuming a sweep and loading
    # a report refuse the line by name instead of failing on its type
    stream = str(tmp_path / "r.jsonl")
    assert run(capsys, *_SWEEP4, "--out", stream)[0] == 0
    with open(stream) as fh:
        good = fh.read()
    bad = {"[1, 2]": "record line is not a JSON object: '[1, 2]'",
           '{"id": [1]}': "record field 'id' is not of type str: [1]",
           '{"op": "x"}': "record field 'id' is missing"}
    if cmd == "report":  # a sweep resumes on the ids alone
        rec = json.loads(good.splitlines()[0])
        for name, value, annotation in [("family", [], "str"), ("lambda", "x", "float"),
                                        ("outputs", [], "dict"), ("seed", True, "int")]:
            bad[json.dumps({**rec, name: value})] = (
                f"record field {name!r} is not of type {annotation}: {value!r}")
        bad[json.dumps({k: v for k, v in rec.items() if k != "op"})] = (
            "record field 'op' is missing")
        bad[json.dumps({**rec, "version": ""})] = f"record {rec['id']}: missing version tag"
        # a valid record of another sweep family: one stream draws one diagram
        other = str(tmp_path / "vicsek.jsonl")
        assert run(capsys, "sweep", "--family", "vicsek", "--d", "2", "--lambdas", "0.3:0.3:1",
                   "--deltas", "1:1:1", "--resolution", "16", "--out", other)[0] == 0
        with open(other) as fh:
            bad[fh.read().strip()] = (
                "mixed sweep families in record stream: [('cantor', 2), ('vicsek', 2)]")
    argv = ([*_SWEEP4, "--out", stream] if cmd == "sweep"
            else ["report", "--in", stream, "--out", str(tmp_path / "p.svg")])
    for line, message in bad.items():
        with open(stream, "w") as fh:
            fh.write(good + line + "\n")
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (2, "")
        assert json.loads(err) == {"error": "config", "message": message}
    assert not (tmp_path / "p.svg").exists()


def test_report_writes_csv_and_svg(sweep_stream, tmp_path, capsys):
    svg = str(tmp_path / "phase.svg")
    rc, out, _ = run(capsys, "report", "--in", sweep_stream, "--out", svg)
    assert rc == 0
    payload = json.loads(out)
    assert payload["records"] == 88
    csv_lines = open(payload["csv"]).read().splitlines()
    assert len(csv_lines) == 89
    assert csv_lines[0].startswith("id,op,family,lambda")
    body = open(svg).read()
    assert body.startswith("<svg")
    assert body.count("<rect") == 1 + 88 + 2  # frame + cells + legend swatches
    assert "polyline" in body  # critical-threshold overlay
    assert "delta_c(lambda)" in body


def test_report_of_one_lambda(tmp_path, capsys):
    # one lambda: its cell's width comes from the padding of a one-value axis
    stream, svg = str(tmp_path / "r.jsonl"), str(tmp_path / "phase.svg")
    assert run(capsys, "sweep", "--family", "cantor", "--d", "2", "--lambdas", "0.25:0.25:1",
               "--deltas", "0:2:3", "--resolution", "16", "--out", stream)[0] == 0
    rc, out, _ = run(capsys, "report", "--in", stream, "--out", svg)
    assert rc == 0
    assert len(open(json.loads(out)["csv"]).read().splitlines()) == 4
    assert open(svg).read().count("<rect") == 1 + 3 + 2


def test_report_without_sweep_records_fails(tmp_path, capsys):
    recs = str(tmp_path / "r.jsonl")
    run(capsys, "dimension", "--family", "koch", "--lambda", "0.3", "--records", recs)
    rc, _, err = run(capsys, "report", "--in", recs, "--out", str(tmp_path / "p.svg"))
    assert rc == 2
    assert json.loads(err)["error"] == "empty-domain"
    assert not (tmp_path / "p.csv").exists()
    assert not (tmp_path / "p.svg").exists()


# --- seed expansion -------------------------------------------------------------


def test_derive_seed_is_stable_and_injective_in_practice():
    seeds = {derive_seed(0, f"{i:016x}") for i in range(200)}
    assert len(seeds) == 200
    assert all(0 <= s < 2**63 for s in seeds)
    assert derive_seed(0, "deadbeef") == derive_seed(0, "deadbeef")
    assert derive_seed(0, "deadbeef") != derive_seed(1, "deadbeef")
