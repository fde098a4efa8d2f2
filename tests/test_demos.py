"""The demo scripts import only names the package still has."""

import importlib.util
import pathlib

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_all_five_demos_are_found():
    assert [p.stem for p in DEMOS] == [
        "absorbed_walks", "capacity_trend", "dimensions", "hardy_interval", "phase_diagram",
    ]


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_imports(path):
    # loaded under its own name, not __main__: runs the imports, not main()
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
