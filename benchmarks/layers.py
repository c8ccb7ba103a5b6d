"""Wrap dualwave's layer functions from outside the package, for tracing.

`install` replaces each function in LAYERS, and the four NumPy FFT entry
points, with a wrapper that reports to a Tracer. The program is not
changed: every binding of a wrapped function in every loaded `dualwave`
module is swapped. That matters because `wavesolver`, `hamilton_jacobi`
and `diagnostics` bind `spectral_derivative_values` by name at import, so
wrapping `core.spectral_derivative_values` alone would miss their calls.
The module holding the binding names the caller. `uninstall` restores
every binding.

`fft_calls_per_step` counts FFT calls per time step of each stepper
exactly, from two runs that differ only in their step count.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import sys

import numpy as np

from tracer import perf_counter

FFT_NAMES = ("fft", "ifft", "rfft", "irfft")

# module -> public functions that bound a layer; see README.md for the
# end-to-end metric each one should move
LAYERS = {
    "core": ("spectral_derivative_values",),
    "wavesolver": ("evolve", "schrodinger_reference"),
    "hamilton_jacobi": ("evolve_hj",),
    "oscillators": ("integrate_rk4",),
    "madelung": ("from_wavefunction",),
    "diagnostics": ("summarize_run",),
    "scenarios": ("expand",),
    "cli": ("run_scenario_to_files", "load_config", "cmd_sweep"),
}

# per-call aggregates only: called per step, too often for span records
AGGREGATE_ONLY = {"core.spectral_derivative_values", "madelung.from_wavefunction"}

# aggregated per calling module as `<name>.by.<caller>`
PER_CALLER = {"core.spectral_derivative_values"}

WAVE_MODES = ("linear", "nonlinear", "explicit")


def wave_mode(scenario) -> str:
    """Stepper path of a WaveScenario: explicit, nonlinear or linear."""
    if scenario.closure_mode == "explicit":
        return "explicit"
    return "nonlinear" if scenario.nonlinear_active else "linear"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _steps_done(exc, planned):
    step = getattr(exc, "step", None)
    return planned if step is None else step


def _count_csv(tracer, out_dir, name):
    """Rows and bytes of the CSV pair a run wrote, read back from disk."""
    for suffix in ("snapshots", "summary"):
        path = os.path.join(out_dir, f"{name}_{suffix}.csv")
        with open(path, "rb") as fh:
            data = fh.read()
        lines = data.count(b"\n")
        comments = data.count(b"\n#") + data.startswith(b"#")
        tracer.count("cli.csv.rows", lines - 1 - comments)
        tracer.count("cli.csv.bytes", len(data))


def _after(tracer, name, args, kwargs, exc, dur):
    """Layer-specific counts taken from a finished call's arguments."""
    if name == "wavesolver.evolve":
        scenario = _arg(args, kwargs, 0, "scenario")
        mode = wave_mode(scenario)
        tracer.count(f"wavesolver.evolve.steps.{mode}",
                     _steps_done(exc, scenario.n_steps))
        tracer.count(f"wavesolver.evolve.time.{mode}", dur)
    elif name == "wavesolver.schrodinger_reference":
        tracer.count("wavesolver.schrodinger_reference.steps",
                     _steps_done(exc, _arg(args, kwargs, 5, "n_steps")))
    elif name == "hamilton_jacobi.evolve_hj":
        tracer.count("hamilton_jacobi.evolve_hj.steps",
                     _steps_done(exc, _arg(args, kwargs, 4, "n_steps")))
        if exc is not None:
            tracer.count("hamilton_jacobi.evolve_hj.blowups")
    elif name == "oscillators.integrate_rk4":
        tracer.count("oscillators.integrate_rk4.steps",
                     _steps_done(exc, _arg(args, kwargs, 3, "n_steps")))
    elif name == "diagnostics.summarize_run" and exc is None:
        tracer.count("diagnostics.summarize_run.snapshots",
                     len(_arg(args, kwargs, 0, "run").snapshots))
    elif name == "cli.run_scenario_to_files":
        start = perf_counter()
        _count_csv(tracer, _arg(args, kwargs, 2, "out_dir"),
                   _arg(args, kwargs, 0, "spec").name)
        tracer.untimed(start, perf_counter())


def _wrap(tracer, name, fn, caller):
    record = name not in AGGREGATE_ONLY
    adopting = name == "cli.cmd_sweep"
    span_name = f"{name}.by.{caller}" if name in PER_CALLER else name

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result, exc, dur = tracer.span(span_name, fn, args, kwargs,
                                       record=record, adopting=adopting)
        _after(tracer, name, args, kwargs, exc, dur)
        if exc is not None:
            raise exc
        return result

    return wrapper


def _wrap_fft(tracer, fn):
    leaf = tracer.leaf

    @functools.wraps(fn)
    def wrapper(a, *args, **kwargs):
        start = perf_counter()
        out = fn(a, *args, **kwargs)
        leaf("core.fft", start, perf_counter(), out.nbytes + np.asarray(a).nbytes)
        return out

    return wrapper


def _wrap_criterion(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result, exc, _ = tracer.span(f"verify.{name}", fn, args, kwargs)
        if exc is not None:
            raise exc
        return result

    return wrapper


def install(tracer):
    """Wrap every layer binding; returns the undo list for `uninstall`."""
    # load every module that binds a layer function
    import dualwave.cli  # noqa: F401
    import dualwave.verify  # noqa: F401

    modules = [m for n, m in sorted(sys.modules.items())
               if n == "dualwave" or n.startswith("dualwave.")]
    undo = []
    for mod_name, fn_names in LAYERS.items():
        owner = sys.modules[f"dualwave.{mod_name}"]
        for fn_name in fn_names:
            original = getattr(owner, fn_name)
            name = f"{mod_name}.{fn_name}"
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        caller = mod.__name__.rpartition(".")[2]
                        undo.append((mod, attr, value))
                        setattr(mod, attr, _wrap(tracer, name, value, caller))
    for fft_name in FFT_NAMES:
        original = getattr(np.fft, fft_name)
        undo.append((np.fft, fft_name, original))
        setattr(np.fft, fft_name, _wrap_fft(tracer, original))
    criteria = sys.modules["dualwave.verify"].CRITERIA
    for crit_name, fn in list(criteria.items()):
        undo.append((criteria, crit_name, fn))
        criteria[crit_name] = _wrap_criterion(tracer, crit_name, fn)
    return undo


def uninstall(undo):
    for target, key, value in reversed(undo):
        if isinstance(target, dict):
            target[key] = value
        else:
            setattr(target, key, value)


# --------------------------------------------------------------------------
# FFT calls per step, measured exactly
# --------------------------------------------------------------------------

def _count_fft_calls(fn):
    from tracer import Tracer

    tracer = Tracer()
    undo = install(tracer)
    try:
        fn()
    finally:
        uninstall(undo)
    return tracer.aggregate("core.fft")[0]


def fft_calls_per_step(steps: int = 3) -> dict:
    """FFT calls per step of the linear, nonlinear, explicit and HJ steppers.

    Each stepper runs `steps` and `2 * steps` steps with snapshots only at
    the ends; the difference in FFT calls, divided by `steps`, is the exact
    per-step count with set-up and snapshot work cancelled out.
    """
    from dualwave.hamilton_jacobi import SYMMETRIC_CLOSURE, PotentialSet, evolve_hj
    from dualwave.scenarios import DEFAULT_GRID, builtin_by_name, expand
    from dualwave.wavesolver import evolve

    def wave(name, **changes):
        scenario = expand(builtin_by_name(name), DEFAULT_GRID).scenario
        scenario = dataclasses.replace(scenario, **changes)
        return lambda n: evolve(dataclasses.replace(
            scenario, n_steps=n, snapshot_every=n))

    def hj(n):
        bundle = expand(builtin_by_name("hj_free_particle"), DEFAULT_GRID)
        evolve_hj(bundle.channels, bundle.potentials, bundle.params,
                  bundle.integration.dt, n, n)

    free = expand(builtin_by_name("free_gaussian_symmetric"), DEFAULT_GRID).scenario
    closure = PotentialSet(vg=free.potentials.vg, mode=SYMMETRIC_CLOSURE)
    runners = {
        "linear": wave("harmonic_ground_symmetric"),
        "nonlinear": wave("residual_mass_plane_wave"),
        "explicit": wave("free_gaussian_symmetric", closure_mode="explicit",
                         potentials=closure),
        "hj": hj,
    }
    out = {}
    for mode, run in runners.items():
        once = _count_fft_calls(lambda: run(steps))
        twice = _count_fft_calls(lambda: run(2 * steps))
        out[mode] = (twice - once) / steps
    return out


# --------------------------------------------------------------------------
# Per-layer metrics of a traced run
# --------------------------------------------------------------------------

CALLERS = ("wavesolver", "hamilton_jacobi", "diagnostics")

CRITERIA = (
    "symmetric_limit", "free_spreading", "harmonic_stationarity",
    "norm_conservation", "residual_mass_term", "madelung_round_trip",
    "oscillator_oracles", "hj_free_caustic", "convergence_orders",
    "zeta_dispersion", "quantum_potential", "determinism",
)

PER_LAYER_UNITS = {
    "core.fft.calls": "count",
    "core.fft.self_s": "s",
    "core.fft.bytes_computed": "bytes",
    **{f"core.fft.calls_per_step.{m}": "count"
       for m in ("linear", "nonlinear", "explicit", "hj")},
    "core.spectral_derivative_values.calls": "count",
    "core.spectral_derivative_values.self_s": "s",
    **{f"core.spectral_derivative_values.{k}.{c}": u
       for c in CALLERS for k, u in (("calls", "count"), ("self_s", "s"))},
    "wavesolver.evolve.calls": "count",
    "wavesolver.evolve.self_s": "s",
    **{f"wavesolver.evolve.us_per_step.{m}": "us" for m in WAVE_MODES},
    "wavesolver.schrodinger_reference.us_per_step": "us",
    "hamilton_jacobi.evolve_hj.self_s": "s",
    "hamilton_jacobi.evolve_hj.us_per_step": "us",
    "hamilton_jacobi.evolve_hj.blowups": "count",
    "oscillators.integrate_rk4.self_s": "s",
    "oscillators.integrate_rk4.us_per_step": "us",
    "madelung.from_wavefunction.calls": "count",
    "madelung.from_wavefunction.self_s": "s",
    "diagnostics.summarize_run.self_s": "s",
    "diagnostics.summarize_run.snapshots": "count",
    "cli.run_scenario_to_files.self_s": "s",
    "cli.csv.rows": "count",
    "cli.csv.bytes": "bytes",
    "cli.csv.us_per_row": "us",
    "cli.load_config.self_s": "s",
    "cli.sweep.parallel_speedup": "ratio",
    "cli.sweep.thread_busy_frac": "fraction",
    "cli.sweep.evolves_per_point": "count",
    "scenarios.expand.self_s": "s",
    **{f"verify.{c}.s": "s" for c in CRITERIA},
    "trace.overhead_frac": "fraction",
}


def _per(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def _sweep_metrics(tracer):
    """Thread busy fraction and evolves per point from the sweep spans.

    Spans in the pool's threads name the sweep span as parent. A sweep
    point expands its scenario once in a pool thread, so those expand
    spans count the points.
    """
    children = {}
    for span in tracer.spans:
        children.setdefault(span[1], []).append(span)
    busy, capacity, evolves, points = 0.0, 0.0, 0, 0
    for span_id, _, _, thread, name, start, end in tracer.spans:
        if name != "cli.cmd_sweep":
            continue
        pool = [c for c in children.get(span_id, ()) if c[3] != thread]
        evolves += sum(c[4] == "wavesolver.evolve" for c in pool)
        points += sum(c[4] == "scenarios.expand" for c in pool)
        workers = len({c[3] for c in pool})
        if workers > 1:
            busy += sum(c[6] - c[5] for c in pool)
            capacity += workers * (end - start)
    return _per(busy, capacity), _per(evolves, points)


def per_layer_metrics(tracer, probe, plain, traced) -> dict:
    """Every PER_LAYER_UNITS metric; totals are per traced unit."""
    n_units = len(traced)
    m = {}

    def agg(name):
        calls, incl, self_s = tracer.aggregate(name)
        return calls / n_units, incl / n_units, self_s / n_units

    def count(name):
        return tracer.counter(name) / n_units

    calls, _, self_s = agg("core.fft")
    m["core.fft.calls"] = calls
    m["core.fft.self_s"] = self_s
    m["core.fft.bytes_computed"] = count("core.fft.bytes")
    for mode, per_step in probe.items():
        m[f"core.fft.calls_per_step.{mode}"] = per_step
    by_caller = {c: agg(f"core.spectral_derivative_values.by.{c}") for c in CALLERS}
    m["core.spectral_derivative_values.calls"] = sum(a[0] for a in by_caller.values())
    m["core.spectral_derivative_values.self_s"] = sum(a[2] for a in by_caller.values())
    for caller, (calls, _, self_s) in by_caller.items():
        m[f"core.spectral_derivative_values.calls.{caller}"] = calls
        m[f"core.spectral_derivative_values.self_s.{caller}"] = self_s
    calls, _, self_s = agg("wavesolver.evolve")
    m["wavesolver.evolve.calls"] = calls
    m["wavesolver.evolve.self_s"] = self_s
    for mode in WAVE_MODES:
        m[f"wavesolver.evolve.us_per_step.{mode}"] = _per(
            count(f"wavesolver.evolve.time.{mode}"),
            count(f"wavesolver.evolve.steps.{mode}"), 1e6)
    _, incl, _ = agg("wavesolver.schrodinger_reference")
    m["wavesolver.schrodinger_reference.us_per_step"] = _per(
        incl, count("wavesolver.schrodinger_reference.steps"), 1e6)
    _, incl, self_s = agg("hamilton_jacobi.evolve_hj")
    m["hamilton_jacobi.evolve_hj.self_s"] = self_s
    m["hamilton_jacobi.evolve_hj.us_per_step"] = _per(
        incl, count("hamilton_jacobi.evolve_hj.steps"), 1e6)
    m["hamilton_jacobi.evolve_hj.blowups"] = count("hamilton_jacobi.evolve_hj.blowups")
    _, incl, self_s = agg("oscillators.integrate_rk4")
    m["oscillators.integrate_rk4.self_s"] = self_s
    m["oscillators.integrate_rk4.us_per_step"] = _per(
        incl, count("oscillators.integrate_rk4.steps"), 1e6)
    calls, _, self_s = agg("madelung.from_wavefunction")
    m["madelung.from_wavefunction.calls"] = calls
    m["madelung.from_wavefunction.self_s"] = self_s
    m["diagnostics.summarize_run.self_s"] = agg("diagnostics.summarize_run")[2]
    m["diagnostics.summarize_run.snapshots"] = count("diagnostics.summarize_run.snapshots")
    self_s = agg("cli.run_scenario_to_files")[2]
    m["cli.run_scenario_to_files.self_s"] = self_s
    m["cli.csv.rows"] = rows = count("cli.csv.rows")
    m["cli.csv.bytes"] = count("cli.csv.bytes")
    m["cli.csv.us_per_row"] = _per(self_s, rows, 1e6)
    m["cli.load_config.self_s"] = agg("cli.load_config")[2]
    threaded = [op.seconds for unit in plain for op in unit
                if op.label == "sweep" and not op.serial]
    serial = [op.seconds for unit in plain for op in unit
              if op.label == "sweep" and op.serial]
    m["cli.sweep.parallel_speedup"] = _per(sum(serial), sum(threaded))
    m["cli.sweep.thread_busy_frac"], m["cli.sweep.evolves_per_point"] = (
        _sweep_metrics(tracer))
    m["scenarios.expand.self_s"] = agg("scenarios.expand")[2]
    for crit in CRITERIA:
        calls, incl, _ = tracer.aggregate(f"verify.{crit}")
        m[f"verify.{crit}.s"] = _per(incl, calls)
    plain_s = sum(op.seconds for unit in plain for op in unit)
    traced_s = sum(op.seconds for unit in traced for op in unit)
    m["trace.overhead_frac"] = traced_s / plain_s - 1.0
    return {name: m[name] for name in PER_LAYER_UNITS}


def write_spans(tracer, path):
    """Write the recorded spans as JSON lines, times relative to the first."""
    import json

    spans = sorted(tracer.spans, key=lambda s: s[5])
    t0 = spans[0][5] if spans else 0.0
    threads = {}
    with open(path, "w") as fh:
        for span_id, parent, request, thread, name, start, end in spans:
            fh.write(json.dumps({
                "id": span_id, "parent": parent, "request": request,
                "thread": threads.setdefault(thread, len(threads)),
                "name": name, "start_s": start - t0, "end_s": end - t0,
            }) + "\n")
