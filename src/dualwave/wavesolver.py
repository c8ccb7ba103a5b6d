"""Time integration of the generalized dissipative wave equation, plus the
reference linear Schrodinger solver that the symmetric limit must match.

With action scale z (zeta), reduced mass m and residual mass
mbar, the evolved equation is

    i z dpsi/dt = -(z^2/4m) lap psi + Vg0 psi + [Vc0 - (z/4m) lap S1] psi
                  + (z^2/4 mbar) [psi* div(grad psi / psi*) - lap psi]
                  + i Vg1 psi + i [Vc1 + (z/4m) lap S0] psi

The S fields are slaved to psi (extracted by the inverse Madelung map once
per step), which closes the equation in psi. The mass-asymmetry bracket
is exactly psi* div(grad psi / psi*) - lap psi = -W psi with the real
potential W = |grad psi|^2 / |psi|^2, so that term only rotates the phase.

Integration is Strang splitting: an exact half-step kinetic propagator in
Fourier space, a full step of the pointwise part with the S fields frozen
at substep start, then the second kinetic half-step. The pointwise step
is the RK2 (midpoint) map when it is linear, and the exponential midpoint
rule of du/dt = (a + i nu W(u)/z) u when the mass-asymmetry term is on,
which keeps the norm up to the a part by construction. Between snapshots
adjacent kinetic half-steps are merged into one full step, so a step costs
2 FFTs (linear), 6 (mass asymmetry: two gradients) or 6 (explicit), and
every snapshot holds the full Strang state. `evolve` and the reference
solver share this loop driver and the snapshot diagnostics but assemble
their multipliers separately. The equation's terms are written once, in
the stepper; `generalized_rhs` evaluates the same terms at one state.

In `symmetric_closure` mode the bracketed coupling terms are cancelled
analytically (they are identically zero when the coupling potentials equal
the closure Laplacians), so no extraction runs and, with m0 == m1 and
Vg1 == 0, the stepped equation is algebraically the linear Schrodinger
equation. `explicit` mode evaluates every term numerically.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from dualwave.core import (
    BlowUpError,
    ComplexField,
    ConfigurationError,
    DualParams,
    Grid1D,
    NonFiniteFieldError,
    RealField,
    check_stepping,
    spectral_derivative_values,
)
from dualwave.hamilton_jacobi import (
    EXPLICIT,
    SYMMETRIC_CLOSURE,
    ActionChannels,
    PotentialSet,
    closure_couplings,
    evolve_hj,
)
from dualwave.madelung import (
    AmplitudeFloorWarning,
    DegenerateWavefunctionError,
    to_wavefunction,
    wrapped_phase_differences,
)

NONLINEAR_ON = "on"
NONLINEAR_OFF = "off"
NONLINEAR_AUTO = "auto"

PSI_OVERFLOW_THRESHOLD = 1e12

# Relative amplitude floor for in-the-loop extraction of the slaved S
# fields. This must sit well above the spectral roundoff noise floor
# (~1e-13 relative per step, accumulating over thousands of steps): with a
# lower floor the phase of roundoff-dominated samples enters the coupling
# terms with order-one trust and feeds back through the kinetic step into
# a runaway. The tighter madelung.AMPLITUDE_FLOOR (1e-12) remains
# appropriate for one-shot inversions of a given wavefunction.
SLAVED_AMPLITUDE_FLOOR = 1e-8


@dataclass(frozen=True)
class WaveScenario:
    """One fully-specified wave run: initial state, physics, and stepping."""

    psi0: ComplexField
    params: DualParams
    potentials: PotentialSet
    dt: float
    n_steps: int
    snapshot_every: int = 1
    closure_mode: str = SYMMETRIC_CLOSURE
    nonlinear_term: str = NONLINEAR_AUTO

    def __post_init__(self):
        check_stepping(self.dt, self.n_steps, self.snapshot_every)
        if self.closure_mode not in (EXPLICIT, SYMMETRIC_CLOSURE):
            raise ConfigurationError(f"unknown closure mode {self.closure_mode!r}")
        if self.nonlinear_term not in (NONLINEAR_ON, NONLINEAR_OFF, NONLINEAR_AUTO):
            raise ConfigurationError(
                f"unknown nonlinear_term {self.nonlinear_term!r}")
        if self.nonlinear_active:
            # conservative for the exponential-midpoint substep; relaxing it
            # needs a convergence study of that substep in dt
            kmax = self.psi0.grid.nyquist
            rate = self.params.zeta * kmax ** 2 / (4.0 * self.params.reduced_mass)
            if self.dt * rate >= 0.5:
                raise ConfigurationError(
                    f"dt * max kinetic eigenvalue = {self.dt * rate:.3g} >= 0.5; "
                    f"reduce dt below {0.5 / rate:.3g} for the mass-asymmetry "
                    f"substep")

    @property
    def grid(self) -> Grid1D:
        return self.psi0.grid

    @property
    def nonlinear_active(self) -> bool:
        if self.nonlinear_term == NONLINEAR_ON:
            return True
        if self.nonlinear_term == NONLINEAR_OFF:
            return False
        return self.params.residual_inv_mass != 0.0


@dataclass(frozen=True)
class Snapshot:
    """State at one output time with its basic diagnostics."""

    t: float
    psi: ComplexField
    norm: float
    energy: float


@dataclass
class WaveRun:
    """Snapshots of one trajectory at the configured cadence."""

    snapshots: list

    @property
    def final(self) -> Snapshot:
        return self.snapshots[-1]

    @property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.snapshots])


# --------------------------------------------------------------------------
# Field extraction and term evaluation
# --------------------------------------------------------------------------

def _extract_action_terms(v: np.ndarray, grid: Grid1D, scale: float):
    """Laplacians of the slaved action fields S0, S1 extracted from psi.

    This is not `madelung.from_wavefunction`, and must not be: the one-shot
    map keeps the winding and the anchor and clamps the floor, while the
    coupling terms need only Laplacians, free of ringing and of noise. The
    amplitude channel uses a smooth additive floor (log(rho + floor^2)
    stays analytic through nodes, so its spectral Laplacian does not ring
    the way a hard clamp would). Returns (lap_s0, lap_s1, trust, engaged)
    where `trust` = rho/(rho + floor^2) is a smooth window that is 1 on
    the support of psi and 0 where the amplitude has fallen to the floor:
    there the phase is rounding noise and the extracted fields are
    meaningless, so coupling terms built from them must be switched off.
    Raises DegenerateWavefunctionError for psi identically zero.
    """
    amax = float(np.max(np.abs(v)))
    if amax == 0.0:
        raise DegenerateWavefunctionError("degenerate wavefunction")
    rho = v.real * v.real + v.imag * v.imag
    floor2 = (SLAVED_AMPLITUDE_FLOOR * amax) ** 2
    engaged = bool(np.any(rho < floor2))
    trust = rho / (rho + floor2)
    s1 = -0.5 * scale * np.log(rho + floor2)

    # Phase route: taper the wrapped cyclic phase increments by the edge
    # trust (off-support increments are pure noise), then rebuild a
    # zero-mean periodic phase by cumulative summation. Removing the mean
    # increment strips both the integer winding ramp and any tapering bias
    # as a linear-in-x term, which the Laplacian cannot see anyway.
    d = wrapped_phase_differences(np.angle(v))
    d *= trust * np.roll(trust, -1)
    d -= np.mean(d)
    s0_periodic = np.empty_like(d)
    s0_periodic[0] = 0.0
    np.cumsum(d[:-1], out=s0_periodic[1:])
    s0_periodic *= scale

    lap_s0 = spectral_derivative_values(s0_periodic, grid, 2)
    lap_s1 = spectral_derivative_values(s1, grid, 2)
    return lap_s0, lap_s1, trust, engaged


def _asymmetry_potential(v: np.ndarray, grid: Grid1D, eps: float) -> np.ndarray:
    """W = |grad psi|^2 / |psi|^2, the denominator floored at (eps max|psi|)^2."""
    grad = spectral_derivative_values(v, grid, 1)
    rho = v.real * v.real + v.imag * v.imag
    return (grad.real * grad.real + grad.imag * grad.imag) / np.maximum(
        rho, eps * eps * float(np.max(rho)))


# --------------------------------------------------------------------------
# Strang split stepping
# --------------------------------------------------------------------------

def _kinetic_multipliers(grid: Grid1D, kinetic_rate_coeff: float, dt: float):
    """exp(-i * coeff * k^2 * tau) for tau = dt/2 and dt: exact kinetic propagators."""
    k = grid.wavenumbers
    return (np.exp(-0.5j * kinetic_rate_coeff * k * k * dt),
            np.exp(-1j * kinetic_rate_coeff * k * k * dt))


def _rk2_multiplier(a: np.ndarray, dt: float) -> np.ndarray:
    """RK2 (midpoint) map of du/dt = a u as one multiplier: 1 + a dt + (a dt)^2/2."""
    adt = a * dt
    return 1.0 + adt + 0.5 * adt * adt




class _GeneralizedStepper:
    """The terms of the generalized equation for one WaveScenario, divided
    by i z: the kinetic term i * kinetic_coeff * lap psi (stepped exactly
    by the kinetic multipliers), the frozen rate a(v) and the mass-asymmetry
    rate, and the pointwise substep built from those two rates."""

    def __init__(self, scenario: WaveScenario):
        self.scenario = scenario
        grid = scenario.grid
        p = scenario.params
        z = p.zeta
        self.z = z
        # the stepped kinetic term is z^2 k^2 / (4 m_red): kinetic mass 2 m_red
        self.mass = 2.0 * p.reduced_mass
        self.grid = grid
        self.dt = scenario.dt
        self.kinetic_coeff = z / (4.0 * p.reduced_mass)
        self.kinetic_half, self.kinetic_full = _kinetic_multipliers(
            grid, self.kinetic_coeff, scenario.dt)
        vg0 = scenario.potentials.vg_values(0, grid)
        vg1 = scenario.potentials.vg_values(1, grid)
        self.vg0 = vg0
        # (1/iz) * [vg0 + i*vg1] = (vg1 - i*vg0)/z
        self.base_a = (vg1 - 1j * vg0) / z
        self.rk2_base = _rk2_multiplier(self.base_a, scenario.dt)
        self.nu = 0.25 * z * z * p.residual_inv_mass if scenario.nonlinear_active else 0.0
        self.nonlinear = scenario.nonlinear_active
        self.explicit = scenario.closure_mode == EXPLICIT
        self.floor_engaged = False

    def frozen_rate(self, v: np.ndarray) -> np.ndarray:
        """a(v): the guiding potentials plus, in explicit mode, the coupling
        terms with S extracted from v."""
        if not self.explicit:
            return self.base_a
        grid = self.grid
        lap_s0, lap_s1, trust, engaged = _extract_action_terms(v, grid, self.z)
        if engaged and not self.floor_engaged:
            self.floor_engaged = True
            warnings.warn("amplitude floor engaged", AmplitudeFloorWarning)
        pot = self.scenario.potentials
        if pot.mode == SYMMETRIC_CLOSURE:
            vc0, vc1 = closure_couplings(lap_s0, lap_s1, self.scenario.params)
        else:
            vc0, vc1 = pot.vc_values(0, grid), pot.vc_values(1, grid)
        coeff = self.kinetic_coeff
        c0 = trust * (vc0 - coeff * lap_s1)
        c1 = trust * (vc1 + coeff * lap_s0)
        # (1/iz) * [c0 + i*c1] = (c1 - i*c0)/z
        return self.base_a + (c1 - 1j * c0) / self.z

    def asymmetry_rate(self, v: np.ndarray) -> np.ndarray:
        """i nu W(v) / z, the mass-asymmetry term as a rate."""
        return 1j * self.nu / self.z * _asymmetry_potential(
            v, self.grid, SLAVED_AMPLITUDE_FLOOR)

    def pointwise(self, v: np.ndarray) -> np.ndarray:
        """Pointwise substep, S frozen at substep start: the RK2 (midpoint)
        map of du/dt = a u, or with the mass-asymmetry potential the
        exponential midpoint of du/dt = r(u) u, r(u) = a + i nu W(u) / z."""
        if not self.explicit and not self.nonlinear:
            return self.rk2_base * v
        a = self.frozen_rate(v)
        if not self.nonlinear:
            return _rk2_multiplier(a, self.dt) * v
        mid = np.exp((0.5 * self.dt) * (a + self.asymmetry_rate(v))) * v
        return np.exp(self.dt * (a + self.asymmetry_rate(mid))) * v


def generalized_rhs(psi: ComplexField, scenario: WaveScenario) -> ComplexField:
    """Full right-hand side dpsi/dt of the scenario's generalized wave
    equation at psi, from the stepper's kinetic coefficient and rates.

    In explicit mode the S fields are extracted from psi; in
    symmetric_closure mode the coupling terms are cancelled analytically.
    """
    v = psi.values
    if not np.all(np.isfinite(v)):
        raise NonFiniteFieldError("non-finite field")
    stepper = _GeneralizedStepper(scenario)
    rate = stepper.frozen_rate(v)
    if stepper.nonlinear:
        rate = rate + stepper.asymmetry_rate(v)
    lap = spectral_derivative_values(v, psi.grid, 2)
    out = 1j * stepper.kinetic_coeff * lap + rate * v
    if not np.all(np.isfinite(out)):
        raise NonFiniteFieldError("non-finite right-hand side")
    return ComplexField(out, psi.grid)


def _strang_steps(v: np.ndarray, stepper, n_steps: int) -> np.ndarray:
    """n_steps >= 1 Strang steps (kinetic/pointwise/kinetic) with adjacent
    kinetic half-steps merged: 2 FFTs per step plus one pair per call.
    The returned state is the full Strang state after the last step."""
    u = stepper.kinetic_half * np.fft.fft(v)
    for i in range(1, n_steps + 1):
        u = np.fft.fft(stepper.pointwise(np.fft.ifft(u)))
        u *= stepper.kinetic_half if i == n_steps else stepper.kinetic_full
    return np.fft.ifft(u)


def _integrate(stepper, v: np.ndarray, n_steps: int,
               snapshot_every: int) -> WaveRun:
    """Snapshots every `snapshot_every` steps and after the last; raises
    BlowUpError carrying the partial WaveRun on overflow or non-finite state,
    and at a snapshot whose norm has underflowed to zero (no diagnostic or
    inverse map is defined there)."""
    grid, dt = stepper.grid, stepper.dt
    energy_terms = (stepper.vg0, stepper.z, stepper.mass)
    run = WaveRun(snapshots=[_snapshot(0.0, v, grid, *energy_terms)])
    for start in range(0, n_steps, snapshot_every):
        step = min(start + snapshot_every, n_steps)
        v = _strang_steps(v, stepper, step - start)
        amax = float(np.max(np.abs(v))) if np.all(np.isfinite(v)) else math.inf
        if not math.isfinite(amax) or amax > PSI_OVERFLOW_THRESHOLD:
            raise BlowUpError(f"blow-up at step {step}", step=step, partial=run)
        snap = _snapshot(step * dt, v, grid, *energy_terms)
        if snap.norm == 0.0:
            raise BlowUpError(f"norm underflowed to zero at step {step}",
                              step=step, partial=run)
        run.snapshots.append(snap)
    return run


def step_splitstep(psi: ComplexField, scenario: WaveScenario) -> ComplexField:
    """One Strang step of the generalized equation (kinetic/pointwise/kinetic)."""
    stepper = _GeneralizedStepper(scenario)
    return ComplexField(_strang_steps(psi.values, stepper, 1), psi.grid)


def _snapshot(t: float, v: np.ndarray, grid: Grid1D, vg0: np.ndarray,
              z: float, mass: float) -> Snapshot:
    """Snapshot of v with its norm and its energy, the integral of
    (z^2/2 mass) |grad psi|^2 + Vg0 |psi|^2 for the kinetic mass `mass`."""
    psi = ComplexField(v.copy(), grid)
    norm = float(np.sum(v.real * v.real + v.imag * v.imag) * grid.dx)
    grad = spectral_derivative_values(v, grid, 1)
    dens = (z ** 2 / (2.0 * mass)) * np.abs(grad) ** 2 + vg0 * np.abs(v) ** 2
    return Snapshot(t=t, psi=psi, norm=norm, energy=float(np.sum(dens) * grid.dx))


def evolve(scenario: WaveScenario) -> WaveRun:
    """Integrate the scenario, returning snapshots at the configured cadence.

    Deterministic for identical inputs. Raises BlowUpError carrying the
    partial WaveRun if the state overflows, goes non-finite or its norm
    underflows to zero mid-run.
    """
    return _integrate(_GeneralizedStepper(scenario), scenario.psi0.values,
                      scenario.n_steps, scenario.snapshot_every)


# --------------------------------------------------------------------------
# Reference linear Schrodinger solver (the symmetric-limit oracle)
# --------------------------------------------------------------------------

class _ReferenceStepper:
    """Kinetic multipliers and linear substep of i*z dpsi/dt = -(z^2/2m) lap psi + Vg0 psi."""

    def __init__(self, grid: Grid1D, vg0: np.ndarray, mass: float, z: float,
                 dt: float):
        self.grid = grid
        self.z = z
        self.mass = mass
        self.vg0 = vg0
        self.dt = dt
        self.kinetic_half, self.kinetic_full = _kinetic_multipliers(
            grid, z / (2.0 * mass), dt)
        self.rk2 = _rk2_multiplier(-1j * vg0 / z, dt)

    def pointwise(self, v: np.ndarray) -> np.ndarray:
        return self.rk2 * v


def schrodinger_reference(psi0: ComplexField, vg0, mass: float,
                          zeta: float, dt: float, n_steps: int,
                          snapshot_every: int = 1) -> WaveRun:
    """Independent split-step integration of the linear equation

        i z dpsi/dt = -(z^2/2m) lap psi + Vg0 psi,   z = zeta.

    Same Strang/RK2 discretization as `evolve`, assembled directly from
    (Vg0, mass, z) and sharing only the loop driver and snapshot
    diagnostics; serves as the oracle for the symmetric-limit equivalence
    and for the deformed-dispersion checks.
    """
    check_stepping(dt, n_steps, snapshot_every)
    grid = psi0.grid
    vg0_values = vg0.values if isinstance(vg0, RealField) else (
        np.zeros(grid.n_points) if vg0 is None else np.asarray(vg0, dtype=float))
    stepper = _ReferenceStepper(grid, vg0_values, mass, zeta, dt)
    return _integrate(stepper, psi0.values, n_steps, snapshot_every)


# --------------------------------------------------------------------------
# Alternate closure: co-evolved Hamilton-Jacobi fields
# --------------------------------------------------------------------------

def coevolved_wavefunction_run(channels: ActionChannels, pot: PotentialSet,
                               p: DualParams, dt: float, n_steps: int,
                               snapshot_every: int = 1) -> WaveRun:
    """Exploration mode: evolve (S0, S1) by the Hamilton-Jacobi equations and
    reconstruct psi = exp(i S0/z - S1/z) at each snapshot.

    With the symmetric-closure coupling potentials and m0 == m1 this
    integrates the same dynamics as `evolve` in Madelung variables (the
    closure terms are exactly the quantum potential and the continuity
    equation), so the two routes agree on nodeless states up to
    discretization error, about 1e-13. At m0 != m1 they do not: the
    mass-asymmetry term of `evolve` has the opposite sign to the one this
    Hamilton-Jacobi pair induces, and at masses (1, 1.5) the routes differ
    by about 1.6e-3. Energies use the kinetic mass 2 m_red, as `evolve`
    does.

    Two usage constraints: the channel fields must be periodic-smooth on
    the grid (a log-amplitude with a kink at the wrap point rings under the
    spectral Laplacian), and the explicit RK4 treatment of the closure
    Laplacians is stable only for dt * (z * k_max^2 / 2 m0) below RK4's
    imaginary-axis bound of ~2.8.
    """
    traj = evolve_hj(channels, pot, p, dt, n_steps, snapshot_every=snapshot_every)
    grid = channels.grid
    vg0 = pot.vg_values(0, grid)
    return WaveRun(snapshots=[
        _snapshot(t, to_wavefunction(state.channels[0], state.channels[1], p).values,
                  grid, vg0, p.zeta, 2.0 * p.reduced_mass)
        for t, state in zip(traj.times, traj.states)])
