"""Time integration of the generalized dissipative wave equation, plus the
reference linear Schrodinger solver that the symmetric limit must match.

With action scale z (zeta, default hbar), reduced mass m and residual mass
mbar, the evolved equation is

    i z dpsi/dt = -(z^2/4m) lap psi + Vg0 psi + [Vc0 - (z/4m) lap S1] psi
                  + (z^2/4 mbar) [psi* div(grad psi / psi*) - lap psi]
                  + i Vg1 psi + i [Vc1 + (z/4m) lap S0] psi

The S fields are slaved to psi (extracted by the inverse Madelung map once
per step), which closes the equation in psi. Integration is Strang
splitting: an exact half-step kinetic propagator in Fourier space, a full
RK2 (midpoint) step for the pointwise/nonlinear part with the S fields
frozen at substep start, then the second kinetic half-step. Between
snapshots adjacent kinetic half-steps are merged into one full step, and
every snapshot holds the full Strang state. `evolve` and the reference
solver share this loop driver but assemble their multipliers separately.

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
    spectral_derivative_values,
)
from dualwave.hamilton_jacobi import (
    EXPLICIT,
    SYMMETRIC_CLOSURE,
    ActionChannels,
    PotentialSet,
    evolve_hj,
)
from dualwave.madelung import (
    AmplitudeFloorWarning,
    UnwrapPolicy,
    to_wavefunction,
)

NONLINEAR_ON = "on"
NONLINEAR_OFF = "off"
NONLINEAR_AUTO = "auto"

PSI_OVERFLOW_THRESHOLD = 1e12

# Floor for in-the-loop extraction of the slaved S fields. This must sit
# well above the spectral roundoff noise floor (~1e-13 relative per step,
# accumulating over thousands of steps): with a lower floor the phase of
# roundoff-dominated samples enters the coupling terms with order-one
# trust and feeds back through the kinetic step into a runaway. The
# tighter 1e-12 default of UnwrapPolicy remains appropriate for one-shot
# inversions of a given wavefunction.
SLAVED_EXTRACTION_POLICY = UnwrapPolicy(amplitude_floor=1e-8)


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
    zeta_override: float | None = None
    unwrap_policy: UnwrapPolicy = SLAVED_EXTRACTION_POLICY

    def __post_init__(self):
        if self.dt <= 0:
            raise ConfigurationError(f"dt must be positive, got {self.dt}")
        if self.n_steps < 0:
            raise ConfigurationError(f"n_steps must be >= 0, got {self.n_steps}")
        if self.snapshot_every < 1:
            raise ConfigurationError(
                f"snapshot_every must be >= 1, got {self.snapshot_every}")
        if self.closure_mode not in (EXPLICIT, SYMMETRIC_CLOSURE):
            raise ConfigurationError(f"unknown closure mode {self.closure_mode!r}")
        if self.nonlinear_term not in (NONLINEAR_ON, NONLINEAR_OFF, NONLINEAR_AUTO):
            raise ConfigurationError(
                f"unknown nonlinear_term {self.nonlinear_term!r}")
        if self.zeta_override is not None and self.zeta_override <= 0:
            raise ConfigurationError("zeta_override must be positive")
        if self.nonlinear_active:
            # explicit treatment of the mass-asymmetry bracket is only
            # stable well below the kinetic rotation rate at the grid cutoff
            kmax = self.psi0.grid.nyquist
            rate = self.action_scale * kmax ** 2 / (4.0 * self.params.reduced_mass)
            if self.dt * rate >= 0.5:
                raise ConfigurationError(
                    f"dt * max kinetic eigenvalue = {self.dt * rate:.3g} >= 0.5; "
                    f"reduce dt below {0.5 / rate:.3g} for the explicit "
                    f"nonlinear substep")

    @property
    def grid(self) -> Grid1D:
        return self.psi0.grid

    @property
    def action_scale(self) -> float:
        return self.zeta_override if self.zeta_override is not None else self.params.zeta

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

def _extract_action_terms(v: np.ndarray, grid: Grid1D, scale: float,
                          policy: UnwrapPolicy):
    """Laplacians of the slaved action fields S0, S1 extracted from psi.

    The amplitude channel uses a smooth additive floor (log(rho + floor^2)
    stays analytic through nodes, so its spectral Laplacian does not ring
    the way a hard clamp would). Returns (lap_s0, lap_s1, trust, engaged)
    where `trust` = rho/(rho + floor^2) is a smooth window that is 1 on
    the support of psi and 0 where the amplitude has fallen to the floor:
    there the phase is rounding noise and the extracted fields are
    meaningless, so coupling terms built from them must be switched off.
    """
    amax = float(np.max(np.abs(v)))
    if amax == 0.0:
        raise NonFiniteFieldError("degenerate wavefunction")
    rho = v.real * v.real + v.imag * v.imag
    floor2 = (policy.amplitude_floor * amax) ** 2
    engaged = bool(np.any(rho < floor2))
    trust = rho / (rho + floor2)
    s1 = -0.5 * scale * np.log(rho + floor2)

    # Phase route: taper the wrapped cyclic phase increments by the edge
    # trust (off-support increments are pure noise), then rebuild a
    # zero-mean periodic phase by cumulative summation. Removing the mean
    # increment strips both the integer winding ramp and any tapering bias
    # as a linear-in-x term, which the Laplacian cannot see anyway.
    theta = np.angle(v)
    d = np.mod(np.roll(theta, -1) - theta + np.pi, 2.0 * np.pi) - np.pi
    d *= trust * np.roll(trust, -1)
    d -= np.mean(d)
    s0_periodic = np.empty_like(theta)
    s0_periodic[0] = 0.0
    np.cumsum(d[:-1], out=s0_periodic[1:])
    s0_periodic *= scale

    lap_s0 = spectral_derivative_values(s0_periodic, grid, 2)
    lap_s1 = spectral_derivative_values(s1, grid, 2)
    return lap_s0, lap_s1, trust, engaged


def _nonlinear_bracket(v: np.ndarray, grid: Grid1D, eps: float) -> np.ndarray:
    """psi* div(grad psi / psi*) - lap psi with an amplitude-floored quotient."""
    amax = float(np.max(np.abs(v)))
    floor = eps * amax
    conj = np.conj(v)
    absv = np.abs(v)
    # lift near-zero denominators to the floor, keeping the phase; exact
    # zeros get a real positive floor
    lift = np.maximum(absv, floor)
    denom = np.where(absv > 0.0, conj * (lift / np.where(absv > 0.0, absv, 1.0)),
                     floor)
    grad_psi = spectral_derivative_values(v, grid, 1)
    quotient = grad_psi / denom
    div_q = spectral_derivative_values(quotient, grid, 1)
    lap_psi = spectral_derivative_values(v, grid, 2)
    return conj * div_q - lap_psi


def generalized_rhs(psi: ComplexField, S, p: DualParams, pot: PotentialSet,
                    closure_mode: str = SYMMETRIC_CLOSURE,
                    nonlinear_term: str = NONLINEAR_AUTO,
                    zeta_override: float | None = None,
                    policy: UnwrapPolicy = SLAVED_EXTRACTION_POLICY) -> ComplexField:
    """Full right-hand side dpsi/dt of the generalized wave equation.

    S may be a pair of RealFields (S0, S1) with periodic samples, or None
    to extract the slaved fields from psi. In symmetric_closure mode the
    bracketed coupling terms are replaced by their exact cancellation and S
    is not consulted.
    """
    grid = psi.grid
    v = psi.values
    if not np.all(np.isfinite(v)):
        raise NonFiniteFieldError("non-finite field")
    z = zeta_override if zeta_override is not None else p.zeta
    m = p.reduced_mass

    lap_psi = spectral_derivative_values(v, grid, 2)
    bracket = -(z * z / (4.0 * m)) * lap_psi + pot.vg_values(0, grid) * v
    bracket = bracket + 1j * pot.vg_values(1, grid) * v

    if closure_mode == EXPLICIT:
        coeff = z / (4.0 * m)
        if S is not None:
            s0, s1 = S
            lap_s0 = spectral_derivative_values(s0.values, grid, 2)
            lap_s1 = spectral_derivative_values(s1.values, grid, 2)
            trust = 1.0
        else:
            lap_s0, lap_s1, trust, engaged = _extract_action_terms(v, grid, z, policy)
            if engaged:
                warnings.warn("amplitude floor engaged", AmplitudeFloorWarning)
        if pot.mode == SYMMETRIC_CLOSURE:
            vc0 = coeff * lap_s1
            vc1 = -coeff * lap_s0
        else:
            vc0 = pot.vc_values(0, grid)
            vc1 = pot.vc_values(1, grid)
        bracket = bracket + trust * (vc0 - coeff * lap_s1) * v
        bracket = bracket + 1j * (trust * (vc1 + coeff * lap_s0)) * v

    active = (nonlinear_term == NONLINEAR_ON or
              (nonlinear_term == NONLINEAR_AUTO and p.residual_inv_mass != 0.0))
    if active:
        nu = 0.25 * z * z * p.residual_inv_mass
        bracket = bracket + nu * _nonlinear_bracket(v, grid, policy.amplitude_floor)

    out = bracket / (1j * z)
    if not np.all(np.isfinite(out)):
        raise NonFiniteFieldError("non-finite right-hand side")
    return ComplexField(out, grid)


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
    """Kinetic multipliers and pointwise substep of a WaveScenario."""

    def __init__(self, scenario: WaveScenario):
        self.scenario = scenario
        grid = scenario.grid
        p = scenario.params
        z = scenario.action_scale
        self.z = z
        self.grid = grid
        self.dt = scenario.dt
        self.coupling_coeff = z / (4.0 * p.reduced_mass)
        self.kinetic_half, self.kinetic_full = _kinetic_multipliers(
            grid, self.coupling_coeff, scenario.dt)
        vg0 = scenario.potentials.vg_values(0, grid)
        vg1 = scenario.potentials.vg_values(1, grid)
        self.vg0 = vg0
        # (1/iz) * [vg0 + i*vg1] = (vg1 - i*vg0)/z
        self.base_a = (vg1 - 1j * vg0) / z
        self.rk2_base = _rk2_multiplier(self.base_a, scenario.dt)
        self.nu = 0.25 * z * z * p.residual_inv_mass if scenario.nonlinear_active else 0.0
        self.nonlinear = scenario.nonlinear_active
        self.explicit = scenario.closure_mode == EXPLICIT
        self.policy = scenario.unwrap_policy
        self.floor_engaged = False

    def _coupling_rate(self, v: np.ndarray) -> np.ndarray:
        """Explicit coupling terms as a rate multiplier, S extracted from v."""
        lap_s0, lap_s1, trust, engaged = _extract_action_terms(
            v, self.grid, self.z, self.policy)
        if engaged and not self.floor_engaged:
            self.floor_engaged = True
            warnings.warn("amplitude floor engaged", AmplitudeFloorWarning)
        coeff = self.coupling_coeff
        if self.scenario.potentials.mode == SYMMETRIC_CLOSURE:
            vc0 = coeff * lap_s1
            vc1 = -coeff * lap_s0
        else:
            vc0 = self.scenario.potentials.vc_values(0, self.grid)
            vc1 = self.scenario.potentials.vc_values(1, self.grid)
        c0 = trust * (vc0 - coeff * lap_s1)
        c1 = trust * (vc1 + coeff * lap_s0)
        # (1/iz) * [c0 + i*c1] = (c1 - i*c0)/z
        return (c1 - 1j * c0) / self.z

    def pointwise(self, v: np.ndarray) -> np.ndarray:
        """RK2 (midpoint) step of the pointwise part, S frozen at substep start."""
        if not self.explicit and not self.nonlinear:
            return self.rk2_base * v
        a = self.base_a + self._coupling_rate(v) if self.explicit else self.base_a
        if not self.nonlinear:
            return _rk2_multiplier(a, self.dt) * v
        nlin_coeff = self.nu / (1j * self.z)
        grid, eps = self.grid, self.policy.amplitude_floor

        def g(u):
            return a * u + nlin_coeff * _nonlinear_bracket(u, grid, eps)
        mid = v + (0.5 * self.dt) * g(v)
        return v + self.dt * g(mid)

    def energy(self, v: np.ndarray) -> float:
        grad = spectral_derivative_values(v, self.grid, 1)
        m0 = self.scenario.params.m0
        dens = (self.z ** 2 / (2.0 * m0)) * np.abs(grad) ** 2 \
            + self.vg0 * np.abs(v) ** 2
        return float(np.sum(dens) * self.grid.dx)


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
    BlowUpError carrying the partial WaveRun on overflow or non-finite state."""
    grid, dt = stepper.grid, stepper.dt
    run = WaveRun(snapshots=[_snapshot(0.0, v, grid, stepper)])
    for start in range(0, n_steps, snapshot_every):
        step = min(start + snapshot_every, n_steps)
        v = _strang_steps(v, stepper, step - start)
        amax = float(np.max(np.abs(v))) if np.all(np.isfinite(v)) else math.inf
        if not math.isfinite(amax) or amax > PSI_OVERFLOW_THRESHOLD:
            raise BlowUpError(f"blow-up at step {step}", step=step, partial=run)
        run.snapshots.append(_snapshot(step * dt, v, grid, stepper))
    return run


def step_splitstep(psi: ComplexField, scenario: WaveScenario) -> ComplexField:
    """One Strang step of the generalized equation (kinetic/pointwise/kinetic)."""
    stepper = _GeneralizedStepper(scenario)
    return ComplexField(_strang_steps(psi.values, stepper, 1), psi.grid)


def _snapshot(t: float, v: np.ndarray, grid: Grid1D, stepper) -> Snapshot:
    psi = ComplexField(v.copy(), grid)
    norm = float(np.sum(v.real * v.real + v.imag * v.imag) * grid.dx)
    return Snapshot(t=t, psi=psi, norm=norm, energy=stepper.energy(v))


def evolve(scenario: WaveScenario) -> WaveRun:
    """Integrate the scenario, returning snapshots at the configured cadence.

    Deterministic for identical inputs. Raises BlowUpError carrying the
    partial WaveRun if the state overflows or goes non-finite mid-run.
    """
    return _integrate(_GeneralizedStepper(scenario), scenario.psi0.values,
                      scenario.n_steps, scenario.snapshot_every)


# --------------------------------------------------------------------------
# Reference linear Schrodinger solver (the symmetric-limit oracle)
# --------------------------------------------------------------------------

class _ReferenceStepper:
    """Kinetic multipliers and linear substep of i*z dpsi/dt = -(z^2/2m) lap psi + Vg0 psi."""

    def __init__(self, grid: Grid1D, vg0: np.ndarray, mass: float, scale: float,
                 dt: float):
        self.grid = grid
        self.scale = scale
        self.mass = mass
        self.vg0 = vg0
        self.dt = dt
        self.kinetic_half, self.kinetic_full = _kinetic_multipliers(
            grid, scale / (2.0 * mass), dt)
        self.rk2 = _rk2_multiplier(-1j * vg0 / scale, dt)

    def pointwise(self, v: np.ndarray) -> np.ndarray:
        return self.rk2 * v

    def energy(self, v: np.ndarray) -> float:
        grad = spectral_derivative_values(v, self.grid, 1)
        dens = (self.scale ** 2 / (2.0 * self.mass)) * np.abs(grad) ** 2 \
            + self.vg0 * np.abs(v) ** 2
        return float(np.sum(dens) * self.grid.dx)


def schrodinger_reference(psi0: ComplexField, vg0, mass: float,
                          hbar_or_zeta: float, dt: float, n_steps: int,
                          snapshot_every: int = 1) -> WaveRun:
    """Independent split-step integration of the linear equation

        i z dpsi/dt = -(z^2/2m) lap psi + Vg0 psi,   z = hbar_or_zeta.

    Same Strang/RK2 discretization as `evolve`, assembled directly from
    (Vg0, mass, z) and sharing only the loop driver; serves as the oracle
    for the symmetric-limit equivalence and for the deformed-dispersion
    checks.
    """
    if dt <= 0:
        raise ConfigurationError(f"dt must be positive, got {dt}")
    grid = psi0.grid
    vg0_values = vg0.values if isinstance(vg0, RealField) else (
        np.zeros(grid.n_points) if vg0 is None else np.asarray(vg0, dtype=float))
    stepper = _ReferenceStepper(grid, vg0_values, mass, hbar_or_zeta, dt)
    return _integrate(stepper, psi0.values, n_steps, snapshot_every)


# --------------------------------------------------------------------------
# Alternate closure: co-evolved Hamilton-Jacobi fields
# --------------------------------------------------------------------------

def coevolved_wavefunction_run(channels: ActionChannels, pot: PotentialSet,
                               p: DualParams, dt: float, n_steps: int,
                               snapshot_every: int = 1) -> WaveRun:
    """Exploration mode: evolve (S0, S1) by the Hamilton-Jacobi equations and
    reconstruct psi = exp(i S0/z - S1/z) at each snapshot.

    With the symmetric-closure coupling potentials this integrates the same
    dynamics as `evolve` in Madelung variables (the closure terms are
    exactly the quantum potential and the continuity equation), so the two
    routes agree on nodeless states up to discretization error.

    Two usage constraints: the channel fields must be periodic-smooth on
    the grid (a log-amplitude with a kink at the wrap point rings under the
    spectral Laplacian), and the explicit RK4 treatment of the closure
    Laplacians is stable only for dt * (z * k_max^2 / 2 m0) below RK4's
    imaginary-axis bound of ~2.8.
    """
    traj = evolve_hj(channels, pot, p, dt, n_steps, snapshot_every=snapshot_every)
    snapshots = []
    for t, state in zip(traj.times, traj.states):
        psi = to_wavefunction(state.channels[0], state.channels[1], p)
        v = psi.values
        norm = float(np.sum(v.real * v.real + v.imag * v.imag) * state.grid.dx)
        grad = spectral_derivative_values(v, state.grid, 1)
        vg0 = pot.vg_values(0, state.grid)
        energy = float(np.sum(
            (p.zeta ** 2 / (2.0 * p.m0)) * np.abs(grad) ** 2
            + vg0 * np.abs(v) ** 2) * state.grid.dx)
        snapshots.append(Snapshot(t=t, psi=psi, norm=norm, energy=energy))
    return WaveRun(snapshots=snapshots)
