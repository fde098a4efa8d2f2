"""The package's public names: every module export is reachable."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import snowcap

# the public names of dir(snowcap) before the package took them from each
# module's __all__; only an intended change of the public namespace edits this
PUBLIC = [
    "BoundaryGeometry", "CapacityResult", "DegenerateFit", "DepthOverflow", "Disconnected",
    "DistanceField", "EmptyDomain", "EmptyRegion", "ExperimentRecord", "FAMILIES", "Family",
    "Grid", "InsufficientSamples", "NoSolutionInRange", "ScalingFit", "Similarity",
    "SimilaritySystem", "SnowcapError", "SolverDiverged", "SparseForm", "WalkConfig",
    "WalkResult", "ahlfors_check", "append_record", "assemble_form", "build_grid",
    "cantor_dust", "capacity_ladder", "capacity_relaxed", "capacity_upper_eta", "collar_integral",
    "critical_delta", "derive_seed", "distance_field", "errors", "eta_rn", "forms",
    "geomfield", "hardy_quotient", "koch_snowflake", "load_ids", "load_records",
    "minkowski_dimension", "named_family", "neighborhood_volume", "realize", "record_id",
    "records", "similarity_dimension", "simsys", "stochastic", "uniformity_estimate", "vicsek",
    "walk_absorption", "weight_field",
]


@pytest.mark.parametrize(
    "module", ["errors", "simsys", "geomfield", "forms", "stochastic", "records"]
)
def test_module_exports_exist(module):
    mod = importlib.import_module(f"snowcap.{module}")
    for name in mod.__all__:
        assert hasattr(mod, name), f"snowcap.{module}.__all__ lists missing {name!r}"
        assert getattr(snowcap, name, None) is getattr(mod, name), f"snowcap lacks {name!r}"


def _fresh(code: str, *argv: str):
    """The JSON value on the last line a fresh interpreter prints running code."""
    src = os.path.dirname(os.path.dirname(snowcap.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                         text=True, check=True)
    return json.loads(run.stdout.splitlines()[-1])


def test_fresh_import_namespace():
    # a fresh interpreter: the test modules import snowcap.cli, which adds a
    # name to the package
    code = ("import json, snowcap; print(json.dumps("
            "[n for n in dir(snowcap) if not n.startswith('_')]))")
    assert _fresh(code) == PUBLIC


# the numpy-only paths, then the two scipy solvers, in one fresh interpreter
_COLD_PATHS = """
import json, sys
import snowcap, snowcap.cli
from snowcap import (WalkConfig, assemble_form, build_grid, cantor_dust, capacity_relaxed,
                     distance_field, hardy_quotient, minkowski_dimension, vicsek,
                     walk_absorption)

# a dust's field takes the closed form; a cross's takes the branch-and-bound
cross = vicsek(1 / 3, 2, 2)
assert distance_field(cross, build_grid(cross, 32, margin=0.2)).search is not None

geom = cantor_dust(0.25, 2, 3)
grid = build_grid(geom, 32)
field = distance_field(geom, grid)
minkowski_dimension(field)
form = assemble_form(field, 1.0)
walk_absorption(form, field, WalkConfig(start=(4, 4), horizon=0.1, trials=20, seed=1,
                                        absorb_eps=2 * grid.h))
snowcap.cli.run_subcommand(["dimension", "--family", "cantor", "--lambda", "0.25", "--d", "2",
                            "--records", sys.argv[1]])
loaded = sorted(n for n in sys.modules if n == "scipy" or n.startswith("scipy."))
cap = capacity_relaxed(field, 1.0, 2 * grid.h).value
hardy = hardy_quotient(field, 1.0, (0.0, 0.0), 0.4)
print(json.dumps([loaded, cap, hardy, "scipy.sparse.linalg" in sys.modules,
                  "scipy.linalg" in sys.modules]))
"""


def test_numpy_paths_load_no_scipy(tmp_path):
    loaded, cap, hardy, sparse_linalg, linalg = _fresh(_COLD_PATHS, str(tmp_path / "r.jsonl"))
    # scipy is imported by the solvers that use it, on first use
    assert loaded == []
    assert cap > 0 and hardy > 0
    # the capacity solve runs its own PCG loop
    assert not sparse_linalg
    # the dense coarse solve and the Ritz step run on numpy, so the solvers
    # load scipy.sparse alone and not scipy's second OpenBLAS
    assert not linalg
