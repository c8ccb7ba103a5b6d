"""Command-line entry point: run scenarios, sweep parameters, verify.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 mid-run blow-up (partial output is still written: a run's summary file
records the blow-up step in a trailing '#' comment line, and a sweep's CSV
holds every finished point and one '#' line per failed point). A wave
run's coupling is the closure rule: `closure_mode = explicit` without
`potential_mode = symmetric_closure` exits 2.

Every run writes two CSV files, `<name>_snapshots.csv` and
`<name>_summary.csv`. Floats are serialized with 17 significant digits so
the files round-trip 64-bit values exactly; identical configurations
produce byte-identical output. A wave run's summary rows and a sweep
point's rates and phase shift come from `diagnostics`; `scenarios.FIELDS`
lists every scenario field, and this module only parses their values.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import math
import re
import sys
from pathlib import Path

import numpy as np

from dualwave import core
from dualwave.core import BlowUpError, ConfigurationError, Grid1D, snapshot_steps
from dualwave.diagnostics import (
    norm_rate,
    overlap_phase,
    phase_shift,
    summarize_run,
    unwrapped_rate,
)
from dualwave.hamilton_jacobi import evolve_hj
from dualwave.madelung import from_wavefunction
from dualwave.oscillators import FORMALISMS, integrate_rk4
from dualwave.scenarios import (
    DEFAULT_GRID,
    KIND_HJ,
    ExpandedHJ,
    ExpandedOscillator,
    ExpandedWave,
    FIELDS,
    Integration,
    ScenarioSpec,
    builtin_by_name,
    expand,
)
from dualwave.wavesolver import NONLINEAR_OFF, evolve, evolve_many

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_BLOWUP = 3

SWEEP_PARAMS = ("m1", "lambda_Vg1", "zeta", "dt")


def _write_csv(path: Path, header, blocks, trailer_comments=()):
    """Write the header, each 2-D block with one %-format, then '# ' comments.

    Float columns use %.17g (the conversion of format(x, ".17g"), lossless
    for 64-bit values); string columns, as typed in a block's first row,
    use %s. `blocks` may be lazy, so one block is held at a time.
    """
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for block in blocks:
            n_rows, n_cols = block.shape
            cells = block.ravel().tolist()
            line = ",".join("%s" if isinstance(c, str) else "%.17g"
                            for c in cells[:n_cols]) + "\n"
            fh.write((line * n_rows) % tuple(cells))
        for comment in trailer_comments:
            fh.write(f"# {comment}\n")


# --------------------------------------------------------------------------
# Scenario execution and output
# --------------------------------------------------------------------------

def _solve(solver, *args):
    """(result, trailer comments, exit code); a blow-up yields its partial result."""
    try:
        return solver(*args), [], EXIT_OK
    except BlowUpError as err:
        return err.partial, [str(err)], EXIT_BLOWUP


def _wave_tables(expanded: ExpandedWave):
    scenario = expanded.scenario
    run, comments, code = _solve(evolve, scenario)
    x = scenario.grid.x

    def snapshots():
        for snap in run.snapshots:
            inv = from_wavefunction(snap.psi, scenario.params)
            v = snap.psi.values
            yield np.column_stack((
                np.full(x.size, snap.t), x, v.real, v.imag,
                v.real * v.real + v.imag * v.imag,
                inv.s0.values, inv.s1.values))

    summary = summarize_run(run, scenario.potentials.values[0],
                            scenario.params.kinetic_mass, scenario.params.zeta)
    return (code, comments,
            (("t", "x", "re_psi", "im_psi", "rho", "S0", "S1"), snapshots()),
            (("t", "norm", "energy", "drift_rate", "clamped_samples"), summary))


def _hj_tables(expanded: ExpandedHJ):
    """The tables of `evolve_hj`'s default record: the samples and, per
    recorded step, t and the max|dS| of the gradient stack."""
    integ = expanded.integration
    grid = expanded.channels.grid
    record, comments, code = _solve(
        evolve_hj, expanded.channels, expanded.potentials, expanded.params,
        integ.dt, integ.n_steps, integ.snapshot_every)
    n_ch = expanded.channels.n_channels
    snapshots = (np.column_stack((np.full(grid.n_points, t), grid.x, *samples))
                 for t, samples in zip(record.times, record.samples))
    return (code, comments,
            (("t", "x") + tuple(f"S{i}" for i in range(n_ch)), snapshots),
            (("t", "max_abs_grad"),
             np.column_stack((record.times, record.max_abs_grad))))


def _oscillator_tables(expanded: ExpandedOscillator):
    integ, params = expanded.integration, expanded.params
    table = FORMALISMS[expanded.formalism]
    traj, comments, code = _solve(
        integrate_rk4, table.rhs(params), expanded.state0,
        integ.dt, integ.n_steps, integ.snapshot_every)
    steps = snapshot_steps(integ.dt, integ.n_steps, integ.snapshot_every)
    times = np.array(steps[:len(traj)]) * integ.dt
    summary = [(t, *table.summary_row(state, t, params))
               for t, state in zip(times.tolist(), traj)]
    return (code, comments,
            (("t",) + table.columns, [np.column_stack((times, traj))]),
            (("t",) + table.summary_header, np.array(summary)))


def run_scenario_to_files(spec: ScenarioSpec, grid: Grid1D, out_dir: Path) -> int:
    """Expand and run one scenario, writing its snapshot/summary CSV pair."""
    expanded = expand(spec, grid)
    tables = (_wave_tables if isinstance(expanded, ExpandedWave)
              else _hj_tables if isinstance(expanded, ExpandedHJ)
              else _oscillator_tables)
    code, comments, (snap_header, snapshots), (sum_header, summary) = tables(expanded)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / f"{spec.name}_snapshots.csv", snap_header, snapshots,
               comments)
    _write_csv(out_dir / f"{spec.name}_summary.csv", sum_header, [summary],
               comments)
    return code


# --------------------------------------------------------------------------
# Config files (INI sections: grid, params, scenario, integration, output)
# --------------------------------------------------------------------------

def _number(section, key: str, kind=float, default=None):
    """section[key] as a finite float or an int; `default` if the key is absent."""
    if key not in section:
        return default
    try:
        value = kind(section[key])
        if math.isfinite(value):
            return value
    except (ValueError, OverflowError):  # OverflowError: an int beyond the float range
        pass
    what = "an integer" if kind is int else "a finite number"
    raise ConfigurationError(f"config key {key!r} needs {what}, got {section[key]!r}")


def _parse_descriptor(section, prefix: str):
    """Collect keys `<prefix>_<field>` into a descriptor dict, or None."""
    kind = section.get(f"{prefix}_type")
    if kind is None:
        return None
    desc = {"type": kind}
    for key in section:
        if key.startswith(prefix + "_") and key != f"{prefix}_type":
            field = key[len(prefix) + 1:]
            desc[field] = _number(section, key, int if field == "mode" else float)
    return desc


class _ConfigParser(configparser.ConfigParser):
    """Records in `keys_read` each (section, key) that a rule reads."""

    def get(self, section, option, **kwargs):  # section[key] reads through this
        self.keys_read.add((section, self.optionxform(option)))
        return super().get(section, option, **kwargs)


def load_config(path: str):
    """Parse a run configuration file into (ScenarioSpec, Grid1D, out_dir).

    The schema is documented in the README: sections [grid], [params],
    [scenario], [integration], [output]; a scenario is either a builtin
    `name` or a custom `kind` plus flat descriptor keys like
    `initial_type = gaussian`, `initial_sigma = 0.5`,
    `vg0_type = harmonic`, `vg0_omega = 1.0`. Any other section, and any
    key that the scenario does not read, is a configuration error.
    """
    parser = _ConfigParser(interpolation=None)
    parser.keys_read = set()
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as err:
        raise ConfigurationError(
            f"cannot parse config file {path!r}: {err}".splitlines()[0]) from None
    if not read:
        raise ConfigurationError(f"cannot read config file {path!r}")
    for name in parser.sections():
        if name not in ("grid", "params", "scenario", "integration", "output"):
            raise ConfigurationError(f"config section [{name}] is none of [grid], "
                                     "[params], [scenario], [integration], [output]")

    grid_sec = parser["grid"] if parser.has_section("grid") else {}
    grid = Grid1D(
        n_points=_number(grid_sec, "n", int, DEFAULT_GRID.n_points),
        x_min=_number(grid_sec, "x_min", float, DEFAULT_GRID.x_min),
        x_max=_number(grid_sec, "x_max", float, DEFAULT_GRID.x_max),
    )

    if not parser.has_section("scenario"):
        raise ConfigurationError("config file is missing the [scenario] section")
    scen = parser["scenario"]

    integ = None
    if parser.has_section("integration"):
        isec = parser["integration"]
        if "dt" in isec and "n_steps" in isec:
            integ = Integration(dt=_number(isec, "dt"),
                                n_steps=_number(isec, "n_steps", int),
                                snapshot_every=_number(isec, "snapshot_every", int, 1))
        elif isec.keys():
            raise ConfigurationError(
                "config [integration] needs both keys 'dt' and 'n_steps'")

    if "name" in scen:
        spec = builtin_by_name(scen["name"])
        if integ is not None:
            spec = dataclasses.replace(spec, integration=integ)
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
        n_channels = (len(spec.initial.get("channels", ())) if spec.kind == KIND_HJ
                      else 2)
        for i in range(n_channels):
            if f"m{i}" in psec:
                masses += [1.0] * (i + 1 - len(masses))
                masses[i] = _number(psec, f"m{i}")
        spec = dataclasses.replace(
            spec, masses=tuple(masses),
            hbar=_number(psec, "hbar", float, spec.hbar),
            zeta=_number(psec, "zeta", float, spec.zeta))

    out_dir = Path("runs")
    if parser.has_section("output"):
        osec = parser["output"]
        out_dir = Path(osec.get("path", "runs"))
        fmt = osec.get("format", "csv")
        if fmt != "csv":
            raise ConfigurationError(f"unsupported output format {fmt!r}")
    unread = [(name, key) for name in parser.sections() for key in parser[name]
              if (name, key) not in parser.keys_read]
    if unread:
        raise ConfigurationError("config key {1!r} in [{0}] is not read by scenario "
                                 "{2!r}".format(*unread[0], spec.name))
    return spec, grid, out_dir


def _custom_spec(parser, scen, integ: Integration) -> ScenarioSpec:
    kind = scen["kind"]
    name = scen.get("label", f"custom_{kind}")
    if not re.fullmatch(r"[A-Za-z0-9_.+-]{1,100}", name):
        raise ConfigurationError(
            f"label {name!r} must be 1-100 letters, digits or '_.+-'; "
            "it names the output files")
    if kind == "oscillator":
        osc = {key: scen[key] if key == "formalism" else _number(scen, key)
               for key in FIELDS["oscillator"] if key in scen}
        return ScenarioSpec(name=name, kind=kind, integration=integ, osc=osc)
    if kind == "hj":
        channels = []
        i = 0
        while f"channel{i}_type" in scen:
            channels.append(_parse_descriptor(scen, f"channel{i}"))
            i += 1
        initial, n_channels, modes = {"channels": channels}, len(channels), {}
    elif kind == "wave":
        initial = _parse_descriptor(scen, "initial")
        if initial is None:
            raise ConfigurationError("wave scenario needs initial_type keys")
        n_channels = 2
        modes = {"closure_mode": scen["closure_mode"]} if "closure_mode" in scen else {}
    else:
        raise ConfigurationError(f"unknown scenario kind {kind!r}")
    # one guiding potential per channel, for both kinds
    potentials = {f"vg{i}": desc for i in range(n_channels)
                  if (desc := _parse_descriptor(scen, f"vg{i}")) is not None}
    if "potential_mode" in scen:
        potentials["mode"] = scen["potential_mode"]
    return ScenarioSpec(name=name, kind=kind, integration=integ, initial=initial,
                        potentials=potentials, **modes)


# --------------------------------------------------------------------------
# Commands
# --------------------------------------------------------------------------

def _source(args):
    """(spec, grid, out_dir) from exactly one of `--config` and
    `--scenario`; `--out` overrides the output directory."""
    if bool(args.config) == bool(args.scenario):
        raise ConfigurationError(
            f"{args.command}: give one of --scenario NAME and --config FILE")
    if args.config:
        spec, grid, out_dir = load_config(args.config)
    else:
        spec, grid, out_dir = builtin_by_name(args.scenario), DEFAULT_GRID, Path("runs")
    return spec, grid, Path(args.out) if args.out else out_dir


def cmd_run(args) -> int:
    spec, grid, out_dir = _source(args)
    if args.snapshot_every is not None:
        spec = dataclasses.replace(
            spec, integration=Integration(
                spec.integration.dt, spec.integration.n_steps,
                args.snapshot_every))
    code = run_scenario_to_files(spec, grid, out_dir)
    if code == EXIT_BLOWUP:
        print(f"blow-up: partial output written to {out_dir}", file=sys.stderr)
    return code


def cmd_verify(args) -> int:
    from dualwave.verify import run_criteria

    results = run_criteria(only=args.only)
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
        return dataclasses.replace(
            spec, masses=(spec.masses[0], value))
    if param == "lambda_Vg1":
        potentials = dict(spec.potentials)
        potentials["vg1"] = {"type": "constant", "v0": -value}
        return dataclasses.replace(spec, potentials=potentials)
    if param == "zeta":
        return dataclasses.replace(spec, zeta=value)
    if param == "dt":
        total_t = spec.integration.dt * spec.integration.n_steps
        steps = total_t / value if value > 0 else 0.0
        if not (math.isfinite(steps) and round(steps) >= 1):
            raise ConfigurationError(
                f"sweep value for dt must give a finite positive step count "
                f"round({total_t:g} / dt), got {value}")
        n_steps = round(steps)
        return dataclasses.replace(spec, integration=Integration(
            value, n_steps, max(1, n_steps // 10)))
    raise ConfigurationError(
        f"unknown sweep parameter {param!r}; choose from {', '.join(SWEEP_PARAMS)}")


class _FinalState:
    """The record of a sweep point's asymmetry-off re-run: its last snapshot."""

    final = None

    def add(self, snap):
        self.final = snap


class _SweepRecord(_FinalState):
    """The record of a sweep point's run: what its row reads, the first and
    last snapshot and each snapshot's overlap phase with the first, psi0."""

    def __init__(self):
        self.first, self.phases = None, []

    def add(self, snap):
        if self.first is None:
            self.first = snap
        self.phases.append(overlap_phase(self.first.psi, snap.psi))
        self.final = snap


def _sweep_point(run: _SweepRecord, off):
    """The diagnostics row of one sweep point from the record of its run
    and, when the mass-asymmetry term is active, that of its run with the
    term off; the rates are `diagnostics.norm_rate` and `phase_rate`."""
    t_end = run.final.t
    drift = phase = 0.0
    if t_end > 0:
        drift = norm_rate(run.first, run.final)
        phase = unwrapped_rate(run.phases, run.first.t, t_end)
    shift = 0.0 if off is None else phase_shift(off, run)
    return t_end, run.final.norm, drift, phase, shift


def _sweep_runs(scenarios) -> list:
    """(record of the run, record of the asymmetry-off re-run or None) per
    sweep point, each record or the BlowUpError that stopped its run.

    Every point and every re-run go to one `evolve_many` call, so runs that
    share their stepping advance as one stack; each keeps only what its
    row reads."""
    offs = [dataclasses.replace(s, nonlinear_term=NONLINEAR_OFF)
            for s in scenarios if s.nonlinear_active]
    runs = evolve_many(scenarios + offs, [_SweepRecord() for _ in scenarios]
                       + [_FinalState() for _ in offs])
    off_runs = iter(runs[len(scenarios):])
    return [(run, next(off_runs) if s.nonlinear_active else None)
            for s, run in zip(scenarios, runs)]


def cmd_sweep(args) -> int:
    try:
        values = [float(v) for v in args.values.split(",") if v.strip() != ""]
    except ValueError as err:
        raise ConfigurationError(f"bad sweep value list: {err}") from None
    if not values:
        raise ConfigurationError("empty sweep value list")
    base, grid, out_dir = _source(args)
    # validate every point before burning cycles on any of them
    scenarios = []
    for value in values:
        expanded = expand(_sweep_value_spec(base, args.param, value), grid)
        if not isinstance(expanded, ExpandedWave):
            raise ConfigurationError("sweep supports wave scenarios only")
        scenarios.append(expanded.scenario)

    # the points dealt round-robin, one group per worker; a row's bytes do
    # not depend on its group, since a stacked row equals its run alone
    groups = min(core.usable_cpus(), len(scenarios))
    pairs = [None] * len(scenarios)
    for g, group_pairs in enumerate(core.run_tasks(
            _sweep_runs, [scenarios[g::groups] for g in range(groups)])):
        pairs[g::groups] = group_pairs

    rows, failures = [], []
    for i in np.argsort(values, kind="stable"):
        run, off = pairs[i]
        failed = [r for r in (run, off) if isinstance(r, BlowUpError)]
        if failed:
            failures.append((values[i], failed[0]))
        else:
            rows.append((args.param, values[i], *_sweep_point(run, off)))
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{base.name}_sweep_{args.param}.csv"
    _write_csv(path,
               ("param", "value", "t_end", "norm_end", "drift_rate",
                "phase_rate", "nonlinear_phase_shift"),
               [np.array(rows, dtype=object)] if rows else [],
               [f"{args.param}={value:.17g}: {err}" for value, err in failures])
    if failures:
        print(f"sweep aborted: {failures[0][1]}", file=sys.stderr)
        return EXIT_BLOWUP
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
    p_run.set_defaults(func=cmd_run)

    p_verify = sub.add_parser("verify", help="run the acceptance criteria")
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
    try:
        return args.func(args)
    except ConfigurationError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
