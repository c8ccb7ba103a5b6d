"""The benchmark harness under benchmarks/ binds program names; a program
change that drops one must fail here, not only in a benchmark run.

The harness files are parsed, not imported, so this needs nothing on the
path beyond the package.
"""

import ast
import dataclasses
import importlib
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def _assigned_literal(path: Path, name: str):
    """The literal value assigned to a module-level `name` in `path`."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path.name} assigns no {name}")


def _dualwave_imports():
    """(module, name) for every `from dualwave.<module> import <name>` in
    the harness, including imports inside functions."""
    out = set()
    for path in sorted(BENCHMARKS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.startswith("dualwave")):
                out.update((node.module, alias.name) for alias in node.names)
    return sorted(out)


@pytest.mark.parametrize("module, names", sorted(
    _assigned_literal(BENCHMARKS / "layers.py", "LAYERS").items()))
def test_every_traced_layer_resolves(module, names):
    mod = importlib.import_module(f"dualwave.{module}")
    for name in names:
        assert callable(getattr(mod, name, None)), f"dualwave.{module}.{name}"


@pytest.mark.parametrize("module, name", _dualwave_imports())
def test_every_imported_name_resolves(module, name):
    if not hasattr(importlib.import_module(module), name):
        importlib.import_module(f"{module}.{name}")  # a submodule


def test_names_the_workloads_read():
    from dualwave import madelung
    from dualwave.scenarios import ScenarioSpec, builtin_by_name

    assert issubclass(madelung.AmplitudeFloorWarning, Warning)
    # the sweep_m1 oracle reads spec.hbar
    assert builtin_by_name("residual_mass_plane_wave").hbar == 1.0
    assert "hbar" in {f.name for f in dataclasses.fields(ScenarioSpec)}


def test_verify_criteria_match_the_harness():
    from dualwave.verify import CRITERIA

    names = _assigned_literal(BENCHMARKS / "layers.py", "CRITERIA")
    assert len(names) == 12
    assert tuple(CRITERIA) == names
