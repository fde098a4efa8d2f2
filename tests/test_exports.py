"""The package's public names: every module export is reachable."""

import importlib

import pytest

import snowcap


@pytest.mark.parametrize("module", ["simsys", "geomfield", "forms", "stochastic"])
def test_module_exports_exist(module):
    mod = importlib.import_module(f"snowcap.{module}")
    for name in mod.__all__:
        assert hasattr(mod, name), f"snowcap.{module}.__all__ lists missing {name!r}"
        assert getattr(snowcap, name, None) is getattr(mod, name), f"snowcap lacks {name!r}"
