"""Acceptance criteria for the whole package, runnable via `dualwave verify`.

Each criterion is an executable check with one pinned bound: a tolerance,
an order-of-convergence ratio window, the caustic timing window, or byte
equality. `dualwave verify` prints each measured value next to its bound,
so the headroom of every check is visible.
"""

from __future__ import annotations

import dataclasses
import filecmp
import math
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from dualwave.core import (
    BlowUpError,
    ComplexField,
    ConfigurationError,
    DualParams,
    RealField,
)
from dualwave.diagnostics import norm_rate, phase_rate, quantum_potential, rms_width
from dualwave.hamilton_jacobi import evolve_hj
from dualwave.madelung import from_wavefunction, to_wavefunction
from dualwave.oscillators import (
    OscParams,
    bateman_rhs,
    caldirola_kanai_rhs,
    damped_oscillator_solution,
    dekker_complex_rhs,
    integrate_rk4,
)
from dualwave.scenarios import (
    DEFAULT_GRID,
    Integration,
    builtin_by_name,
    expand,
)
from dualwave.wavesolver import (
    NONLINEAR_OFF,
    NONLINEAR_ON,
    _asymmetry_potential,
    _runs_or_raise,
    evolve,
    evolve_many,
    schrodinger_reference,
)


@dataclass(frozen=True)
class CriterionResult:
    name: str
    measured: float
    bound_text: str
    passed: bool


def _lt(name, measured, bound):
    return CriterionResult(name, float(measured), f"< {bound:g}",
                           bool(measured < bound))


def _window(name, measured, lo, hi):
    return CriterionResult(name, float(measured), f"in [{lo:g}, {hi:g}]",
                           bool(lo <= measured <= hi))


def _sup_diff(run_a, run_b) -> float:
    return max(float(np.max(np.abs(a.psi.values - b.psi.values)))
               for a, b in zip(run_a.snapshots, run_b.snapshots))


def _reference_for(scenario):
    return schrodinger_reference(
        scenario.psi0, scenario.potentials.vg[0], scenario.params.m0,
        scenario.params.zeta, scenario.dt, scenario.n_steps,
        scenario.snapshot_every)


# --------------------------------------------------------------------------
# Criteria
# --------------------------------------------------------------------------

def crit_symmetric_limit(cache):
    names = ("free_gaussian_symmetric", "harmonic_ground_symmetric",
             "double_well_symmetric")
    scenarios = [expand(builtin_by_name(name), DEFAULT_GRID).scenario
                 for name in names]
    # one 3-row stack; each reference run is assembled and stepped alone
    runs = _runs_or_raise(evolve_many(scenarios))
    out = []
    for name, scenario, run in zip(names, scenarios, runs):
        ref = _reference_for(scenario)
        cache[f"run_{name}"] = run
        out.append(_lt(f"symmetric_limit[{name}]", _sup_diff(run, ref), 1e-8))
    return out


def crit_free_spreading(cache):
    sigma0, m0, zeta = 0.5, 1.0, 1.0
    t_star = 2.0 * m0 * sigma0 ** 2 / zeta
    spec = builtin_by_name("free_gaussian_symmetric")
    n_steps = int(round(t_star / 1e-3))
    spec = dataclasses.replace(
        spec, integration=Integration(1e-3, n_steps, n_steps))
    run = evolve(expand(spec, DEFAULT_GRID).scenario)
    sigma = rms_width(RealField(np.abs(run.final.psi.values) ** 2, DEFAULT_GRID))
    exact = sigma0 * math.sqrt(1.0 + (zeta * t_star / (2 * m0 * sigma0 ** 2)) ** 2)
    return [_lt("free_spreading", abs(sigma - exact) / exact, 1e-6)]


def _harmonic_ten_periods(cache):
    if "harmonic_10T" not in cache:
        dt = 5e-4
        n_steps = int(round(10 * 2 * math.pi / dt))
        # eight snapshots per period: the splitting error's amplitude
        # wobble peaks at quarter-period phases, which a half-period
        # cadence would never sample
        spec = dataclasses.replace(
            builtin_by_name("harmonic_ground_symmetric"),
            integration=Integration(dt, n_steps, n_steps // 80))
        cache["harmonic_10T"] = evolve(expand(spec, DEFAULT_GRID).scenario)
    return cache["harmonic_10T"]


def crit_harmonic_stationarity(cache):
    run = _harmonic_ten_periods(cache)
    amp0 = np.abs(run.snapshots[0].psi.values)
    amp_dev = max(float(np.max(np.abs(np.abs(s.psi.values) - amp0)))
                  for s in run.snapshots)
    energy_dev = max(abs(s.energy - 0.5) for s in run.snapshots)
    return [_lt("harmonic_stationarity[amplitude]", amp_dev, 1e-7),
            _lt("harmonic_stationarity[energy]", energy_dev, 1e-7)]


def crit_norm_conservation(cache):
    devs = []
    for name in ("free_gaussian_symmetric", "double_well_symmetric"):
        run = cache.get(f"run_{name}")
        if run is None:
            run = evolve(expand(builtin_by_name(name), DEFAULT_GRID).scenario)
        devs.append(max(abs(s.norm - run.snapshots[0].norm)
                        for s in run.snapshots))
    run10 = _harmonic_ten_periods(cache)
    devs.append(max(abs(s.norm - run10.snapshots[0].norm)
                    for s in run10.snapshots))
    out = [_lt("norm_conservation[symmetric]", max(devs), 1e-8)]

    lam, zeta = 0.5, 1.0
    drift_run = evolve(expand(builtin_by_name("norm_drift_constant_Vg1"),
                              DEFAULT_GRID).scenario)
    rate = norm_rate(drift_run.snapshots[0], drift_run.final)
    expected = -2.0 * lam / zeta
    out.append(_lt("norm_conservation[drift_law]",
                   abs(rate - expected) / abs(expected), 1e-4))
    return out


def crit_residual_mass_term(cache):
    grid = DEFAULT_GRID
    k = 2.0 * math.pi * 8 / grid.length
    v = np.exp(1j * k * grid.x)
    bracket = -_asymmetry_potential(v, grid) * v
    dev = float(np.max(np.abs(bracket + k ** 2 * v)))
    out = [_lt("residual_mass_term[bracket]", dev, 1e-10)]

    spec = builtin_by_name("residual_mass_plane_wave")
    sym = dataclasses.replace(spec, masses=(1.0, 1.0),
                              nonlinear_term=NONLINEAR_ON)
    scen = expand(sym, grid).scenario
    on, off = _runs_or_raise(evolve_many(
        [scen, dataclasses.replace(scen, nonlinear_term=NONLINEAR_OFF)]))
    shift = abs(float(np.angle(np.vdot(off.final.psi.values,
                                       on.final.psi.values))))
    out.append(_lt("residual_mass_term[symmetric_shift]", shift, 1e-14))
    return out


def crit_madelung_round_trip(cache):
    grid = DEFAULT_GRID
    p = DualParams(masses=(1.0, 1.0))
    x = grid.x
    two_pi = 2.0 * math.pi
    s0 = RealField(0.3 * np.sin(two_pi * 3 * x / grid.length)
                   + 0.1 * np.cos(two_pi * 5 * x / grid.length), grid)
    s1 = RealField(0.2 + 0.4 * np.cos(two_pi * 2 * x / grid.length), grid)
    psi = to_wavefunction(s0, s1, p)
    inv = from_wavefunction(psi, p)
    dev = max(float(np.max(np.abs(inv.s0.values - s0.values))),
              float(np.max(np.abs(inv.s1.values - s1.values))))
    out = [_lt("madelung_round_trip[identity]", dev, 1e-10)]

    conj_dev = float(np.max(np.abs(
        to_wavefunction(RealField(-s0.values, grid), s1, p).values
        - np.conj(psi.values))))
    gauge_dev = float(np.max(np.abs(
        to_wavefunction(RealField(s0.values + two_pi * p.zeta, grid), s1, p).values
        - psi.values)))
    out.append(_lt("madelung_round_trip[conjugation]", conj_dev, 1e-12))
    out.append(_lt("madelung_round_trip[gauge]", gauge_dev, 1e-12))
    return out


def crit_oscillator_oracles(cache):
    p = OscParams(gamma=0.2)
    dt, t_end = 1e-3, 10.0
    n = int(round(t_end / dt))
    t = np.arange(n + 1) * dt
    exact = damped_oscillator_solution(t, p)

    traj_b = integrate_rk4(lambda s: bateman_rhs(s, p),
                           np.array([1.0, 0.0, 1.0, 0.0]), dt, n)
    traj_c = integrate_rk4(lambda s: caldirola_kanai_rhs(s, p),
                           np.array([1.0, 0.0]), dt, n)
    traj_d = integrate_rk4(lambda s: dekker_complex_rhs(s, p),
                           np.array([1.0, 0.0, 1.0, 0.0]), dt, n)
    out = []
    for label, traj in (("bateman", traj_b), ("ck", traj_c), ("dekker", traj_d)):
        dev = float(np.max(np.abs(traj[:, 0] - exact)))
        out.append(_lt(f"oscillator_oracles[{label}]", dev, 1e-6))

    # finite-difference the energy series at a finer step: the anti-damped
    # sector's growing third derivative dominates the differencing error
    dt_fd = 5e-4
    traj_fd = integrate_rk4(lambda s: bateman_rhs(s, p),
                            np.array([1.0, 0.0, 1.0, 0.0]), dt_fd,
                            int(round(t_end / dt_fd)))
    ex = 0.5 * p.mass * traj_fd[:, 1] ** 2 + 0.5 * p.stiffness * traj_fd[:, 0] ** 2
    ey = 0.5 * p.mass * traj_fd[:, 3] ** 2 + 0.5 * p.stiffness * traj_fd[:, 2] ** 2
    dex = (ex[2:] - ex[:-2]) / (2 * dt_fd)
    dey = (ey[2:] - ey[:-2]) / (2 * dt_fd)
    rate_x = -p.gamma * p.mass * traj_fd[1:-1, 1] ** 2
    rate_y = +p.gamma * p.mass * traj_fd[1:-1, 3] ** 2
    out.append(_lt("oscillator_oracles[energy_rate_x]",
                   float(np.max(np.abs(dex - rate_x))), 1e-6))
    out.append(_lt("oscillator_oracles[energy_rate_y]",
                   float(np.max(np.abs(dey - rate_y))), 1e-6))
    return out


def crit_hj_free_caustic(cache):
    free = expand(builtin_by_name("hj_free_particle"), DEFAULT_GRID)
    integ = free.integration
    traj = evolve_hj(free.channels, free.potentials, free.params,
                     integ.dt, integ.n_steps, integ.n_steps)
    t_end = integ.dt * integ.n_steps
    mom = free.channels.slopes[0]
    exact = mom * DEFAULT_GRID.x - mom ** 2 / (2.0 * free.params.m0) * t_end
    dev = float(np.max(np.abs(traj.states[-1].total_samples(0) - exact)))
    out = [_lt("hj_free_caustic[free_exact]", dev, 1e-8)]

    caustic = expand(builtin_by_name("hj_caustic"), DEFAULT_GRID)
    integ = caustic.integration
    try:
        evolve_hj(caustic.channels, caustic.potentials, caustic.params,
                  integ.dt, integ.n_steps, integ.n_steps)
        t_blow = math.inf
    except BlowUpError as err:
        t_blow = err.step * integ.dt
    out.append(_window("hj_free_caustic[caustic_time]", t_blow, 0.8, 1.0))
    return out


def crit_convergence_orders(cache):
    p = OscParams(gamma=0.2)
    t_end = 10.0
    exact = float(damped_oscillator_solution(t_end, p))
    errs = []
    for dt in (0.02, 0.01):
        traj = integrate_rk4(lambda s: caldirola_kanai_rhs(s, p),
                             np.array([1.0, 0.0]), dt, int(round(t_end / dt)))
        errs.append(abs(traj[-1, 0] - exact))
    out = [_window("convergence_orders[rk4]", errs[0] / errs[1], 12.0, 20.0)]

    spec = builtin_by_name("harmonic_ground_symmetric")
    base = expand(spec, DEFAULT_GRID).scenario
    psi_disp = ComplexField(np.roll(base.psi0.values, 51), DEFAULT_GRID)
    t_end = 0.2

    def endpoint(dt):
        scen = dataclasses.replace(base, psi0=psi_disp, dt=dt,
                                   n_steps=int(round(t_end / dt)),
                                   snapshot_every=10 ** 9)
        return evolve(scen).final.psi.values

    ref = endpoint(1e-3 / 20.0)
    e1 = float(np.max(np.abs(endpoint(2e-3) - ref)))
    e2 = float(np.max(np.abs(endpoint(1e-3) - ref)))
    out.append(_window("convergence_orders[split_step]", e1 / e2, 3.5, 4.5))
    return out


def crit_zeta_dispersion(cache):
    grid = DEFAULT_GRID
    k = 2.0 * math.pi * 8 / grid.length
    psi0 = ComplexField(np.exp(1j * k * grid.x), grid)
    rates = [phase_rate(schrodinger_reference(psi0, None, 1.0, zeta, 1e-3, 500, 25), psi0)
             for zeta in (1.0, 2.0)]
    dev = abs(rates[1] / rates[0] - 2.0) / 2.0
    return [_lt("zeta_dispersion", dev, 1e-8)]


def crit_quantum_potential(cache):
    grid = DEFAULT_GRID
    x = grid.x
    sigma = 0.5
    rho = RealField(np.exp(-x ** 2 / (2.0 * sigma ** 2)), grid)
    q = quantum_potential(rho, 1.0, 1.0)
    q_exact = -0.5 * (x ** 2 / (4 * sigma ** 4) - 1.0 / (2 * sigma ** 2))
    mask = rho.values >= 1e-3 * float(np.max(rho.values))
    dev = float(np.max((np.abs(q.values - q_exact)
                        / np.maximum(1.0, np.abs(q_exact)))[mask]))
    out = [_lt("quantum_potential[gaussian]", dev, 1e-8)]

    rho_g = RealField(np.exp(-x ** 2), grid)  # ground state of unit oscillator
    q_g = quantum_potential(rho_g, 1.0, 1.0)
    balance = q_g.values + 0.5 * x ** 2 - 0.5
    mask_g = rho_g.values >= 1e-3
    out.append(_lt("quantum_potential[bohmian_balance]",
                   float(np.max(np.abs(balance[mask_g]))), 1e-7))

    q_scaled = quantum_potential(RealField(37.5 * rho.values, grid), 1.0, 1.0)
    out.append(_lt("quantum_potential[scale_invariance]",
                   float(np.max(np.abs(q_scaled.values - q.values)[mask])),
                   1e-10))
    return out


def crit_determinism(cache):
    from dualwave.cli import run_scenario_to_files

    identical = True
    for name in ("plane_wave_dispersion", "bateman_damped"):
        spec = builtin_by_name(name)
        with tempfile.TemporaryDirectory() as da, \
                tempfile.TemporaryDirectory() as db:
            run_scenario_to_files(spec, DEFAULT_GRID, Path(da))
            run_scenario_to_files(spec, DEFAULT_GRID, Path(db))
            for suffix in ("snapshots", "summary"):
                fa = Path(da) / f"{name}_{suffix}.csv"
                fb = Path(db) / f"{name}_{suffix}.csv"
                identical &= filecmp.cmp(fa, fb, shallow=False)
    return [CriterionResult("determinism", 0.0 if identical else 1.0,
                            "bytes equal", identical)]


CRITERIA = {
    "symmetric_limit": crit_symmetric_limit,
    "free_spreading": crit_free_spreading,
    "harmonic_stationarity": crit_harmonic_stationarity,
    "norm_conservation": crit_norm_conservation,
    "residual_mass_term": crit_residual_mass_term,
    "madelung_round_trip": crit_madelung_round_trip,
    "oscillator_oracles": crit_oscillator_oracles,
    "hj_free_caustic": crit_hj_free_caustic,
    "convergence_orders": crit_convergence_orders,
    "zeta_dispersion": crit_zeta_dispersion,
    "quantum_potential": crit_quantum_potential,
    "determinism": crit_determinism,
}


def run_criteria(only: str | None = None):
    """Execute acceptance criteria; returns a list of CriterionResult."""
    if only is not None:
        if only not in CRITERIA:
            raise ConfigurationError(
                f"unknown criterion {only!r}; available: "
                + ", ".join(sorted(CRITERIA)))
        names = [only]
    else:
        names = list(CRITERIA)

    cache = {}
    results = []
    for name in names:
        results.extend(CRITERIA[name](cache))
    return results
