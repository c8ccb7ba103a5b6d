"""Command-line entry point: run scenarios, sweep parameters, verify.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 mid-run blow-up (partial output is still written and the summary file
records the blow-up step in a trailing '#' comment line).

Every run writes two CSV files, `<name>_snapshots.csv` and
`<name>_summary.csv`. Floats are serialized with 17 significant digits so
the files round-trip 64-bit values exactly; identical configurations
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from dualwave.core import BlowUpError, ConfigurationError, Grid1D
from dualwave.diagnostics import summarize_run
from dualwave.hamilton_jacobi import evolve_hj, participation_metric
from dualwave.madelung import from_wavefunction
from dualwave.oscillators import (
    ck_hamiltonian,
    dekker_energies,
    integrate_rk4,
    mechanical_energy,
)
from dualwave.scenarios import (
    DEFAULT_GRID,
    ExpandedHJ,
    ExpandedOscillator,
    ExpandedWave,
    Integration,
    ScenarioSpec,
    builtin_by_name,
    expand,
)
from dualwave.wavesolver import NONLINEAR_OFF, evolve

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_BLOWUP = 3

SWEEP_PARAMS = ("m1", "lambda_Vg1", "zeta", "dt")


def _fmt(x) -> str:
    """17 significant digits: lossless for 64-bit floats."""
    return format(float(x), ".17g")


def _cell(v) -> str:
    return v if isinstance(v, str) else _fmt(v)


def _write_csv(path: Path, header, rows, trailer_comments=()):
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_cell(v) for v in row) + "\n")
        for comment in trailer_comments:
            fh.write(f"# {comment}\n")


# --------------------------------------------------------------------------
# Scenario execution and output
# --------------------------------------------------------------------------

def _run_wave(expanded: ExpandedWave, out_dir: Path, name: str) -> int:
    scenario = expanded.scenario
    comments = []
    code = EXIT_OK
    try:
        run = evolve(scenario)
    except BlowUpError as err:
        run = err.partial
        comments.append(str(err))
        code = EXIT_BLOWUP

    grid = scenario.grid
    snap_rows = []
    for snap in run.snapshots:
        inv = from_wavefunction(snap.psi, scenario.params)
        v = snap.psi.values
        rho = v.real * v.real + v.imag * v.imag
        for i in range(grid.n_points):
            snap_rows.append((snap.t, grid.x[i], v[i].real, v[i].imag,
                              rho[i], inv.s0.values[i], inv.s1.values[i]))
    _write_csv(out_dir / f"{name}_snapshots.csv",
               ("t", "x", "re_psi", "im_psi", "rho", "S0", "S1"),
               snap_rows, comments)

    reports = summarize_run(run, scenario.params.m0, scenario.action_scale)
    _write_csv(out_dir / f"{name}_summary.csv",
               ("t", "norm", "energy", "drift_rate", "continuity_residual"),
               [(r.t, r.norm, r.energy, r.norm_drift_rate,
                 r.continuity_residual_l2) for r in reports],
               comments)
    return code


def _run_hj(expanded: ExpandedHJ, out_dir: Path, name: str) -> int:
    integ = expanded.integration
    comments = []
    code = EXIT_OK
    try:
        traj = evolve_hj(expanded.channels, expanded.potentials, expanded.params,
                         integ.dt, integ.n_steps, integ.snapshot_every)
    except BlowUpError as err:
        traj = err.partial
        comments.append(str(err))
        code = EXIT_BLOWUP

    grid = expanded.channels.grid
    n_ch = expanded.channels.n_channels
    header = ("t", "x") + tuple(f"S{i}" for i in range(n_ch))
    rows = []
    for t, state in zip(traj.times, traj.states):
        totals = [state.total_samples(i) for i in range(n_ch)]
        for i in range(grid.n_points):
            rows.append((t, grid.x[i]) + tuple(tot[i] for tot in totals))
    _write_csv(out_dir / f"{name}_snapshots.csv", header, rows, comments)

    sum_rows = []
    for t, state in zip(traj.times, traj.states):
        grads = [state.gradient(i) for i in range(n_ch)]
        max_grad = max(float(np.max(np.abs(gv))) for gv in grads)
        w = participation_metric(state)
        sum_rows.append((t, max_grad, float(np.sum(w.values) * grid.dx)))
    _write_csv(out_dir / f"{name}_summary.csv",
               ("t", "max_abs_grad", "participation_integral"),
               sum_rows, comments)
    return code


def _run_oscillator(expanded: ExpandedOscillator, out_dir: Path, name: str) -> int:
    integ = expanded.integration
    comments = []
    code = EXIT_OK
    try:
        traj = integrate_rk4(expanded.rhs, expanded.state0, integ.dt, integ.n_steps)
    except BlowUpError as err:
        traj = err.partial
        comments.append(str(err))
        code = EXIT_BLOWUP

    keep = range(0, traj.shape[0], integ.snapshot_every)
    rows = [(idx * integ.dt,) + tuple(traj[idx]) for idx in keep]
    _write_csv(out_dir / f"{name}_snapshots.csv",
               ("t",) + expanded.state_columns, rows, comments)

    p = expanded.params
    sum_rows = []
    for idx in keep:
        t = idx * integ.dt
        state = traj[idx]
        if expanded.formalism == "ck":
            sum_rows.append((t, mechanical_energy(state[0], state[1], p),
                             ck_hamiltonian(state, t, p)))
        elif expanded.formalism == "dekker":
            ex, ey = dekker_energies(state, p)
            sum_rows.append((t, ex, ey))
        else:
            ex = mechanical_energy(state[0], state[1], p)
            ey = mechanical_energy(state[2], state[3], p)
            sum_rows.append((t, ex, ey))
    header = (("t", "energy", "ck_hamiltonian") if expanded.formalism == "ck"
              else ("t", "energy_x", "energy_y"))
    _write_csv(out_dir / f"{name}_summary.csv", header, sum_rows, comments)
    return code


def run_scenario_to_files(spec: ScenarioSpec, grid: Grid1D, out_dir: Path) -> int:
    """Expand and run one scenario, writing its snapshot/summary CSV pair."""
    out_dir.mkdir(parents=True, exist_ok=True)
    expanded = expand(spec, grid)
    if isinstance(expanded, ExpandedWave):
        return _run_wave(expanded, out_dir, spec.name)
    if isinstance(expanded, ExpandedHJ):
        return _run_hj(expanded, out_dir, spec.name)
    return _run_oscillator(expanded, out_dir, spec.name)


# --------------------------------------------------------------------------
# Config files (INI sections: grid, params, scenario, integration, output)
# --------------------------------------------------------------------------

def _parse_descriptor(section, prefix: str):
    """Collect keys `<prefix>_<field>` into a descriptor dict, or None."""
    kind = section.get(f"{prefix}_type")
    if kind is None:
        return None
    desc = {"type": kind}
    for key, value in section.items():
        if key.startswith(prefix + "_") and key != f"{prefix}_type":
            field = key[len(prefix) + 1:]
            if field == "mode":
                desc[field] = int(value)
            else:
                desc[field] = float(value)
    return desc


def load_config(path: str):
    """Parse a run configuration file into (ScenarioSpec, Grid1D, out_dir).

    The schema is documented in the README: sections [grid], [params],
    [scenario], [integration], [output]; a scenario is either a builtin
    `name` or a custom `kind` plus flat descriptor keys like
    `initial_type = gaussian`, `initial_sigma = 0.5`,
    `vg0_type = harmonic`, `vg0_omega = 1.0`.
    """
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigurationError(f"cannot read config file {path!r}")

    grid_sec = parser["grid"] if parser.has_section("grid") else {}
    grid = Grid1D(
        n_points=int(grid_sec.get("n", DEFAULT_GRID.n_points)),
        x_min=float(grid_sec.get("x_min", DEFAULT_GRID.x_min)),
        x_max=float(grid_sec.get("x_max", DEFAULT_GRID.x_max)),
    )

    if not parser.has_section("scenario"):
        raise ConfigurationError("config file is missing the [scenario] section")
    scen = parser["scenario"]

    integ = None
    if parser.has_section("integration"):
        isec = parser["integration"]
        if "dt" in isec and "n_steps" in isec:
            integ = Integration(dt=float(isec["dt"]), n_steps=int(isec["n_steps"]),
                                snapshot_every=int(isec.get("snapshot_every", 1)))
        elif isec.keys():
            raise ConfigurationError(
                "config [integration] needs both keys 'dt' and 'n_steps'")

    if "name" in scen:
        spec = builtin_by_name(scen["name"])
        if integ is not None:
            spec = _replace_spec(spec, integration=integ)
    else:
        if "kind" not in scen:
            raise ConfigurationError(
                "config [scenario] needs either the key 'name' or the key 'kind'")
        if integ is None:
            raise ConfigurationError(
                "custom scenarios need an [integration] section with 'dt' and 'n_steps'")
        spec = _custom_spec(parser, scen, integ)

    if parser.has_section("params"):
        psec = parser["params"]
        masses = list(spec.masses)
        for key in psec:
            if key.startswith("m") and key[1:].isdigit():
                idx = int(key[1:])
                while len(masses) <= idx:
                    masses.append(1.0)
                masses[idx] = float(psec[key])
        spec = _replace_spec(
            spec, masses=tuple(masses),
            hbar=float(psec.get("hbar", spec.hbar)),
            zeta=float(psec["zeta"]) if "zeta" in psec else spec.zeta)

    out_dir = Path("runs")
    if parser.has_section("output"):
        osec = parser["output"]
        out_dir = Path(osec.get("path", "runs"))
        fmt = osec.get("format", "csv")
        if fmt != "csv":
            raise ConfigurationError(f"unsupported output format {fmt!r}")
    return spec, grid, out_dir


def _replace_spec(spec: ScenarioSpec, **kwargs) -> ScenarioSpec:
    import dataclasses
    return dataclasses.replace(spec, **kwargs)


def _custom_spec(parser, scen, integ: Integration) -> ScenarioSpec:
    kind = scen["kind"]
    name = scen.get("label", f"custom_{kind}")
    if kind == "oscillator":
        osc = {"formalism": scen.get("formalism", "bateman")}
        for key in ("gamma", "omega", "mass", "x0", "v0", "y0", "vy0"):
            if key in scen:
                osc[key] = float(scen[key])
        return ScenarioSpec(name=name, kind=kind, integration=integ, osc=osc)
    if kind == "hj":
        channels = []
        i = 0
        while f"channel{i}_type" in scen:
            channels.append(_parse_descriptor(scen, f"channel{i}"))
            i += 1
        if len(channels) < 2:
            raise ConfigurationError(
                "hj scenario needs channel0_type and channel1_type keys")
        potentials = {}
        for i in range(len(channels)):
            desc = _parse_descriptor(scen, f"vg{i}")
            if desc is not None:
                potentials[f"vg{i}"] = desc
        return ScenarioSpec(name=name, kind=kind, integration=integ,
                            initial={"channels": channels}, potentials=potentials)
    if kind == "wave":
        initial = _parse_descriptor(scen, "initial")
        if initial is None:
            raise ConfigurationError("wave scenario needs initial_type keys")
        potentials = {}
        for prefix in ("vg0", "vg1", "vc0", "vc1"):
            desc = _parse_descriptor(scen, prefix)
            if desc is not None:
                potentials[prefix] = desc
        if "potential_mode" in scen:
            potentials["mode"] = scen["potential_mode"]
        return ScenarioSpec(
            name=name, kind=kind, integration=integ, initial=initial,
            potentials=potentials,
            closure_mode=scen.get("closure_mode", "symmetric_closure"),
            nonlinear_term=scen.get("nonlinear", "auto"))
    raise ConfigurationError(f"unknown scenario kind {kind!r}")


# --------------------------------------------------------------------------
# Commands
# --------------------------------------------------------------------------

def cmd_run(args) -> int:
    try:
        if args.config:
            spec, grid, cfg_out = load_config(args.config)
            out_dir = Path(args.out) if args.out else cfg_out
        elif args.scenario:
            spec = builtin_by_name(args.scenario)
            grid = DEFAULT_GRID
            out_dir = Path(args.out) if args.out else Path("runs")
        else:
            print("run: need --scenario NAME or --config FILE", file=sys.stderr)
            return EXIT_CONFIG
        if args.snapshot_every is not None:
            spec = _replace_spec(
                spec, integration=Integration(
                    spec.integration.dt, spec.integration.n_steps,
                    args.snapshot_every))
        code = run_scenario_to_files(spec, grid, out_dir)
    except ConfigurationError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    if code == EXIT_BLOWUP:
        print(f"blow-up: partial output written to {out_dir}", file=sys.stderr)
    elif args.verbose:
        print(f"wrote {out_dir / (spec.name + '_snapshots.csv')} and summary")
    return code


def cmd_verify(args) -> int:
    from dualwave.verify import run_criteria

    try:
        results = run_criteria(profile=args.profile, only=args.only)
    except ConfigurationError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    width = max(len(r.name) for r in results)
    print(f"{'criterion':<{width}}  {'measured':>13}  {'bound':>13}  result")
    all_pass = True
    for r in results:
        status = "pass" if r.passed else "FAIL"
        all_pass &= r.passed
        print(f"{r.name:<{width}}  {r.measured:>13.6g}  {r.bound_text:>13}  {status}")
    return EXIT_OK if all_pass else EXIT_VERIFY_FAILED


def _sweep_value_spec(spec: ScenarioSpec, param: str, value: float) -> ScenarioSpec:
    if not math.isfinite(value):
        raise ConfigurationError(f"sweep value for {param} must be finite, got {value}")
    if param == "m1":
        return _replace_spec(spec, masses=(spec.masses[0], value) + spec.masses[2:])
    if param == "lambda_Vg1":
        potentials = dict(spec.potentials)
        potentials["vg1"] = {"type": "constant", "v0": -value}
        return _replace_spec(spec, potentials=potentials)
    if param == "zeta":
        return _replace_spec(spec, zeta=value)
    if param == "dt":
        if value <= 0:
            raise ConfigurationError(
                f"sweep value for dt must be positive, got {value}")
        total_t = spec.integration.dt * spec.integration.n_steps
        n_steps = max(1, int(round(total_t / value)))
        return _replace_spec(spec, integration=Integration(
            value, n_steps, max(1, n_steps // 10)))
    raise ConfigurationError(
        f"unknown sweep parameter {param!r}; choose from {', '.join(SWEEP_PARAMS)}")


def _sweep_one(spec: ScenarioSpec, grid: Grid1D):
    """Run one sweep point; returns the per-value diagnostics row."""
    expanded = expand(spec, grid)
    if not isinstance(expanded, ExpandedWave):
        raise ConfigurationError("sweep supports wave scenarios only")
    scenario = expanded.scenario
    run = evolve(scenario)
    psi0 = scenario.psi0.values
    t_end = run.final.t
    norm0, norm_end = run.snapshots[0].norm, run.final.norm
    drift = (math.log(norm_end) - math.log(norm0)) / t_end if t_end > 0 else 0.0
    phases = np.unwrap([float(np.angle(np.vdot(psi0, s.psi.values)))
                        for s in run.snapshots])
    phase_rate = (phases[-1] - phases[0]) / t_end if t_end > 0 else 0.0
    if scenario.nonlinear_active:
        import dataclasses
        off = evolve(dataclasses.replace(scenario, nonlinear_term=NONLINEAR_OFF))
        shift = float(np.angle(np.vdot(off.final.psi.values,
                                       run.final.psi.values)))
    else:
        shift = 0.0
    return t_end, norm_end, drift, phase_rate, shift


def cmd_sweep(args) -> int:
    try:
        try:
            values = [float(v) for v in args.values.split(",") if v.strip() != ""]
        except ValueError as err:
            raise ConfigurationError(f"bad sweep value list: {err}") from None
        if not values:
            raise ConfigurationError("empty sweep value list")
        if args.param not in SWEEP_PARAMS:
            raise ConfigurationError(
                f"unknown sweep parameter {args.param!r}; "
                f"choose from {', '.join(SWEEP_PARAMS)}")
        if args.config:
            base, grid, cfg_out = load_config(args.config)
            out_dir = Path(args.out) if args.out else cfg_out
        else:
            base = builtin_by_name(args.scenario)
            grid = DEFAULT_GRID
            out_dir = Path(args.out) if args.out else Path("runs")
        specs = [_sweep_value_spec(base, args.param, v) for v in values]
        # validate every point before burning cycles on any of them
        for spec in specs:
            expand(spec, grid)
        max_threads = len(specs)
        env_threads = os.environ.get("DUALWAVE_THREADS")
        if env_threads:
            try:
                max_threads = max(1, min(max_threads, int(env_threads)))
            except ValueError:
                raise ConfigurationError(
                    f"DUALWAVE_THREADS must be an integer, got {env_threads!r}"
                ) from None
    except ConfigurationError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        with ThreadPoolExecutor(max_workers=max_threads) as pool:
            rows = list(pool.map(lambda s: _sweep_one(s, grid), specs))
    except ConfigurationError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except BlowUpError as err:
        print(f"sweep aborted: {err}", file=sys.stderr)
        return EXIT_BLOWUP

    order = np.argsort(values, kind="stable")
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{base.name}_sweep_{args.param}.csv"
    _write_csv(path,
               ("param", "value", "t_end", "norm_end", "drift_rate",
                "phase_rate", "nonlinear_phase_shift"),
               [[args.param, values[i], *rows[i]] for i in order])
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dualwave",
        description="Dissipative dual-sector wave mechanics simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario and write CSVs")
    p_run.add_argument("--scenario", help="builtin scenario name")
    p_run.add_argument("--config", help="INI config file")
    p_run.add_argument("--out", help="output directory (default runs/)")
    p_run.add_argument("--snapshot-every", type=int, default=None)
    p_run.add_argument("--verbose", action="store_true")
    p_run.set_defaults(func=cmd_run)

    p_verify = sub.add_parser("verify", help="run the acceptance criteria")
    p_verify.add_argument("--profile", choices=("default", "strict"),
                          default="default")
    p_verify.add_argument("--only", help="run a single named criterion")
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="run a scenario across parameter values")
    p_sweep.add_argument("--scenario", help="builtin scenario name")
    p_sweep.add_argument("--config", help="INI config file")
    p_sweep.add_argument("--param", required=True,
                         help="one of: " + ", ".join(SWEEP_PARAMS))
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated parameter values")
    p_sweep.add_argument("--out", help="output directory (default runs/)")
    p_sweep.set_defaults(func=cmd_sweep)

    args = parser.parse_args(argv)
    if args.command in ("run", "sweep") and not (args.scenario or args.config):
        print(f"{args.command}: need --scenario NAME or --config FILE",
              file=sys.stderr)
        return EXIT_CONFIG
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
