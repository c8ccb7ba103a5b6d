"""The three benchmark workloads: verify_full, run_mix and sweep_m1.

A workload has a `setup` (input generation and scenario expansion, timed
as setup_s) and a `unit`, the smallest repeatable batch of operations:
one verify suite, one pass over the run mix, or one threaded sweep plus
the same sweep on one thread. Every operation goes through the CLI entry
point `dualwave.cli.main`, in this process, and writes only under the
workload's temporary directory.

Oracle checks run after each operation, outside its timed interval. An
operation fails on an unexpected exit code, a failed criterion, a failed
oracle or output bytes that differ from an earlier repeat.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import math
import os
import shutil
from pathlib import Path

import numpy as np

import inputs

# oracle tolerances
NORM_CONSERVED_ABS = 1e-8      # verify's norm_conservation bound
# With a real potential V the RK2 pointwise substep multiplies the norm by
# 1 + theta^4/4 per step, theta = V dt / zeta. Over the drawn harmonic and
# double-well parameters the drift peaks at 1.8e-7 (omega = 1.5,
# sigma = 0.45, center = -1, k = -2).
NORM_POTENTIAL_ABS = 1e-6
NORM_DECAY_REL = 1e-6          # RK2 pointwise substep vs exp(-2 lambda t / hbar)
HJ_FREE_ABS = 1e-8             # verify's hj_free_caustic[free_exact] bound
OSCILLATOR_ABS = 1e-6          # verify's oscillator_oracles bound
PHASE_SHIFT_REL = 1e-9         # measured about 1e-11


@dataclasses.dataclass
class Op:
    """One timed operation and whether it passed its oracle."""

    label: str
    seconds: float
    ok: bool
    serial: bool = False  # the one-thread baseline of a sweep


def _digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def _load_csv(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, comments="#", ndmin=2)


class VerifyFull:
    """The full default-profile acceptance suite, as `dualwave verify` runs it.

    The suite is fixed, so the seed has no effect on this workload.
    """

    name = "verify_full"
    issue_names = {"verify_s": "op_p50_s"}

    def __init__(self, seed, tmp: Path, timer):
        self.timer = timer

    def setup(self) -> list:
        from dualwave.scenarios import DEFAULT_GRID, builtin_suite, expand

        for spec in builtin_suite():
            expand(spec, DEFAULT_GRID)
        return ["verify --profile default"]

    def unit(self) -> list:
        from dualwave import cli
        from dualwave.verify import CRITERIA

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code, seconds = self.timer("verify", cli.main, ["verify"])
        rows = [line.split() for line in out.getvalue().splitlines()[1:]]
        reported = {row[0].split("[")[0] for row in rows if row}
        ok = (code == 0 and reported == set(CRITERIA)
              and all(row[-1] == "pass" for row in rows if row))
        return [Op("verify", seconds, ok)]


class RunMix:
    """Seeded configs through `dualwave run --config`, each run three times per unit."""

    name = "run_mix"
    issue_names = {"run_p50_s": "op_p50_s", "run_tail_s": "op_tail_s",
                   "runs_per_s": "ops_per_s"}
    # three runs of each kind put the unit's tail (29th of 39) inside the
    # Bateman/Dekker block, well clear of the next-slower kind
    repeats = 3

    def __init__(self, seed, tmp: Path, timer):
        self.seed = seed
        self.tmp = tmp
        self.timer = timer
        self.digests = {}
        self.configs = []

    def setup(self) -> list:
        from dualwave import cli
        from dualwave.scenarios import expand

        cfg_dir = self.tmp / "configs"
        cfg_dir.mkdir(parents=True, exist_ok=True)
        self.configs = inputs.run_mix_configs(self.seed)
        texts = []
        for cfg in self.configs:
            text = inputs.render_ini(cfg)
            path = cfg_dir / f"{cfg['label']}.ini"
            path.write_text(text)
            spec, grid, _ = cli.load_config(str(path))
            expand(spec, grid)
            cfg["path"] = str(path)
            texts.append(text)
        return texts

    def unit(self) -> list:
        from dualwave import cli

        ops = []
        for _ in range(self.repeats):
            for cfg in self.configs:
                out_dir = self.tmp / "out" / cfg["label"]
                shutil.rmtree(out_dir, ignore_errors=True)
                code, seconds = self.timer(
                    cfg["kind"], cli.main,
                    ["run", "--config", cfg["path"], "--out", str(out_dir)])
                ok = code == 0 and self._check(cfg, out_dir)
                ops.append(Op(cfg["kind"], seconds, ok))
        return ops

    def _check(self, cfg, out_dir: Path) -> bool:
        """Byte identity with earlier repeats, then the kind's oracle once."""
        label = cfg["label"]
        files = [out_dir / f"{label}_{s}.csv" for s in ("snapshots", "summary")]
        if not all(f.is_file() for f in files):
            return False
        digest = _digest(files)
        first = self.digests.setdefault(label, digest)
        if digest != first:
            return False
        if cfg.get("checked"):
            return True
        cfg["checked"] = ok = self._oracle(cfg, files[0], files[1])
        return ok

    @staticmethod
    def _oracle(cfg, snapshots: Path, summary: Path) -> bool:
        from dualwave.oscillators import OscParams, damped_oscillator_solution

        kind, scen = cfg["kind"], cfg["scenario"]
        if kind in ("bateman", "ck", "dekker"):
            data = _load_csv(snapshots)
            p = OscParams(mass=scen["mass"], gamma=scen["gamma"],
                          stiffness=scen["mass"] * scen["omega"] ** 2)
            exact = damped_oscillator_solution(data[:, 0], p, scen["x0"], scen["v0"])
            return float(np.max(np.abs(data[:, 1] - exact))) < OSCILLATOR_ABS
        if kind == "hj_linear":
            data = _load_csv(snapshots)
            t, x, s0 = data[:, 0], data[:, 1], data[:, 2]
            slope, m0 = scen["channel0_slope"], cfg["params"]["m0"]
            exact = slope * x - slope ** 2 / (2.0 * m0) * t
            return float(np.max(np.abs(s0 - exact))) < HJ_FREE_ABS
        if kind == "hj_focusing":
            return True  # exit code 0 means it stopped before the caustic
        data = _load_csv(summary)
        t, norm = data[:, 0], data[:, 1]
        if kind == "constant_vg1":
            lam, hbar = -scen["vg1_v0"], 1.0
            expected = norm[0] * np.exp(-2.0 * lam * t / hbar)
            return float(np.max(np.abs(norm / expected - 1.0))) < NORM_DECAY_REL
        bound = (NORM_POTENTIAL_ABS if kind in ("harmonic", "double_well")
                 else NORM_CONSERVED_ABS)
        return float(np.max(np.abs(norm - norm[0]))) < bound


class SweepM1:
    """The residual_mass_plane_wave sweep over seeded m1 values.

    Each unit runs the sweep once with DUALWAVE_THREADS = nproc and once
    with DUALWAVE_THREADS = 1, alternating which goes first.
    """

    name = "sweep_m1"
    issue_names = {"sweep_s": "op_p50_s", "sweep_serial_s": "serial_p50_s"}
    scenario = "residual_mass_plane_wave"

    def __init__(self, seed, tmp: Path, timer):
        self.seed = seed
        self.tmp = tmp
        self.timer = timer
        self.threads = len(os.sched_getaffinity(0))
        self.values = []
        self.units = 0

    def setup(self) -> list:
        from dualwave.scenarios import DEFAULT_GRID, builtin_by_name, expand

        self.values = inputs.sweep_m1_values(self.seed)
        base = builtin_by_name(self.scenario)
        for m1 in self.values:
            expand(dataclasses.replace(base, masses=(base.masses[0], m1)),
                   DEFAULT_GRID)
        return [",".join(repr(v) for v in self.values)]

    def unit(self) -> list:
        order = (self.threads, 1) if self.units % 2 == 0 else (1, self.threads)
        self.units += 1
        ops, files = [], []
        for threads in order:
            code, seconds, path = self._sweep(threads)
            ok = code == 0 and path.is_file() and self._oracle(path)
            ops.append(Op("sweep", seconds, ok, serial=threads == 1))
            files.append(path)
        if all(f.is_file() for f in files) and _digest(files[:1]) != _digest(files[1:]):
            for op in ops:
                op.ok = False
        return ops

    def _sweep(self, threads):
        from dualwave import cli

        out_dir = self.tmp / f"sweep_{threads}"
        shutil.rmtree(out_dir, ignore_errors=True)
        argv = ["sweep", "--scenario", self.scenario, "--param", "m1",
                "--values", ",".join(repr(v) for v in self.values),
                "--out", str(out_dir)]
        saved = os.environ.get("DUALWAVE_THREADS")
        os.environ["DUALWAVE_THREADS"] = str(threads)
        try:
            code, seconds = self.timer("sweep", cli.main, argv)
        finally:
            if saved is None:
                del os.environ["DUALWAVE_THREADS"]
            else:
                os.environ["DUALWAVE_THREADS"] = saved
        return code, seconds, out_dir / f"{self.scenario}_sweep_m1.csv"

    def _oracle(self, path: Path) -> bool:
        """nonlinear_phase_shift == hbar k^2 t / (4 mbar) for every row."""
        from dualwave.scenarios import DEFAULT_GRID, builtin_by_name

        spec = builtin_by_name(self.scenario)
        k = 2.0 * math.pi * spec.initial["mode"] / DEFAULT_GRID.length
        m0, hbar = spec.masses[0], spec.hbar
        data = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(1, 2, 6),
                          ndmin=2)
        if sorted(self.values) != list(data[:, 0]):
            return False
        m1, t_end, shift = data[:, 0], data[:, 1], data[:, 2]
        expected = hbar * k ** 2 * t_end / 4.0 * (1.0 / m0 - 1.0 / m1)
        return float(np.max(np.abs(shift / expected - 1.0))) < PHASE_SHIFT_REL


WORKLOADS = {w.name: w for w in (VerifyFull, RunMix, SweepM1)}
