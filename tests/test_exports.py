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
    "cantor_dust", "capacity_relaxed", "capacity_upper_eta", "collar_integral",
    "critical_delta", "derive_seed", "distance_field", "errors", "eta_rn", "forms",
    "geometry_from_text", "geometry_to_text", "geomfield", "hardy_quotient", "koch_snowflake",
    "load_ids", "load_records", "minkowski_dimension", "named_family", "neighborhood_volume",
    "realize", "record_id", "records", "similarity_dimension", "simsys", "stochastic",
    "uniformity_estimate", "vicsek", "walk_absorption", "weight_field",
]


@pytest.mark.parametrize(
    "module", ["errors", "simsys", "geomfield", "forms", "stochastic", "records"]
)
def test_module_exports_exist(module):
    mod = importlib.import_module(f"snowcap.{module}")
    for name in mod.__all__:
        assert hasattr(mod, name), f"snowcap.{module}.__all__ lists missing {name!r}"
        assert getattr(snowcap, name, None) is getattr(mod, name), f"snowcap lacks {name!r}"


def test_fresh_import_namespace():
    # a fresh interpreter: the test modules import snowcap.cli, which adds a
    # name to the package
    src = os.path.dirname(os.path.dirname(snowcap.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import json, sys, snowcap; print(json.dumps(["
            "[n for n in dir(snowcap) if not n.startswith('_')], 'scipy.spatial' in sys.modules]))")
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    names, spatial = json.loads(run.stdout)
    assert names == PUBLIC
    # scipy.spatial is imported where it is used, off every hot path
    assert not spatial
