"""The benchmark harness under benchmarks/ binds program names; a program
change that drops one must fail here, not only in a benchmark run.

The harness files are parsed, not imported, so this needs nothing on the
path beyond the package. The one exception is `inputs.py`, which imports
only the standard library and is loaded by its path.
"""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
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


def _positional_reads():
    """(layer, index, name) for each `_arg(args, kwargs, index, name)` call
    in a branch `if name == "<module>.<function>"` of `_after` in layers.py:
    the harness reads that argument by position when it is passed so."""
    tree = ast.parse((BENCHMARKS / "layers.py").read_text())
    after = next(node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "_after")
    out = []
    for branch in ast.walk(after):
        if not isinstance(branch, ast.If):
            continue
        test = branch.test
        if isinstance(test, ast.BoolOp):  # `name == "<layer>" and exc is None`
            test = test.values[0]
        layer = ast.literal_eval(test.comparators[0])
        for call in (c for stmt in branch.body for c in ast.walk(stmt)):
            if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_arg":
                index, name = (ast.literal_eval(a) for a in call.args[2:])
                out.append((layer, index, name))
    assert out, "layers.py `_after` reads no argument by position"
    return out


@pytest.mark.parametrize("layer, index, name", _positional_reads())
def test_positional_reads_match_signatures(layer, index, name):
    module, function = layer.split(".")
    fn = getattr(importlib.import_module(f"dualwave.{module}"), function)
    assert list(inspect.signature(fn).parameters)[index] == name, layer


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


def test_wave_mode_reads_scenario_fields():
    # layers.wave_mode names a run's stepper path from these two
    from dualwave.hamilton_jacobi import EXPLICIT
    from dualwave.wavesolver import WaveScenario

    assert EXPLICIT == "explicit"
    assert "closure_mode" in {f.name for f in dataclasses.fields(WaveScenario)}
    assert isinstance(WaveScenario.nonlinear_active, property)


def _load_inputs():
    spec = importlib.util.spec_from_file_location("bench_inputs",
                                                  BENCHMARKS / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_run_mix_configs_load_and_expand(tmp_path, seed):
    from dualwave.cli import load_config
    from dualwave.scenarios import expand

    inputs = _load_inputs()
    for cfg in inputs.run_mix_configs(seed):
        path = tmp_path / f"{cfg['label']}.ini"
        path.write_text(inputs.render_ini(cfg))
        spec, grid, _ = load_config(str(path))
        expand(spec, grid)
        assert spec.name == cfg["label"]
