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
adjacent kinetic half-steps are merged into one full step, and every
snapshot holds the full Strang state.

The loop driver steps a (P, N) stack of runs that share the grid, dt,
step count, snapshot cadence and row kind, that is closure mode and
nonlinear term (`evolve_many`; `evolve` is a one-row stack). Each row is
bitwise equal to its run stepped alone: a batched FFT row equals the 1-D
transform, each row's multipliers and scalars come from the single-run
expressions, and the operand order of every multiplier product is kept
(`K * fft(v)` and `u *= K`, not `fft(v) * K`), since on some machines the
two orders differ in the last bit.

FFT counts hold per stack, not per row: a step costs 2 FFT calls, plus 4
in a mass-asymmetric stack (two gradients) and 4 in an explicit-closure
stack (two Laplacians), so 2, 6, 6 or 10, whatever P is.
`evolve` and the reference solver share this loop driver and the snapshot
diagnostics but assemble their multipliers separately. The equation's
terms are written once, in the stepper that steps them.

In `symmetric_closure` mode the bracketed coupling terms are cancelled
analytically (they are identically zero when the coupling potentials equal
the closure Laplacians), so no extraction runs and, with m0 == m1 and
Vg1 == 0, the stepped equation is algebraically the linear Schrodinger
equation. `explicit` mode evaluates every term numerically. With the
closure-rule potentials its coupling terms are exactly zero (the stepper
subtracts the very products `closure_couplings` returns), so that route is
bitwise the analytic one: a wiring check, not an independent
discretization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from dualwave.core import (
    BlowUpError,
    ComplexField,
    ConfigurationError,
    DualParams,
    Grid1D,
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
        pot = self.potentials
        # PotentialSet itself rejects them under potential_mode = symmetric_closure
        if pot.vc is not None and self.closure_mode == SYMMETRIC_CLOSURE:
            raise ConfigurationError(
                "stored coupling potentials vc0/vc1 are used only with "
                "closure_mode = explicit")
        # the stepper divides the guiding and stored coupling potentials by
        # zeta, as complex numbers, which gives NaN once 1/zeta overflows
        # even where they are 0; its RK2 multiplier squares a dt, whose
        # imaginary part 2 Re(a dt) Im(a dt) reaches twice (dt * rate)^2
        # (x * x: x ** 2 raises OverflowError on a Python float)
        z = self.params.zeta
        rate = pot.max_abs(self.grid, 2) / z
        step = self.dt * rate
        if not (math.isfinite(2.0 * step * step) and math.isfinite(1.0 / z)):
            raise ConfigurationError(
                f"potential rate max(|Vg|, |Vc|) / zeta = {rate:g} at zeta = {z:g} "
                f"and dt = {self.dt:g} leaves the float range; raise zeta or "
                f"lower dt or the potentials")
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
    """Snapshots of one trajectory at the configured cadence, and whether
    its explicit-closure extraction ever hit the amplitude floor."""

    snapshots: list
    floor_engaged: bool = False

    @property
    def final(self) -> Snapshot:
        return self.snapshots[-1]

    @property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.snapshots])


# --------------------------------------------------------------------------
# Field extraction and term evaluation
# --------------------------------------------------------------------------

def _stacked(values):
    """Per-row values stacked along a leading row axis: arrays to (P, N),
    scalars to a (P, 1) column."""
    if isinstance(values[0], np.ndarray):
        return np.stack(values)
    return np.reshape(values, (-1, 1))


def _extract_action_terms(v: np.ndarray, grid: Grid1D, scale):
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

    The rows of `v` along its last axis are treated apart, with `scale` a
    scalar or a column per row; `engaged` holds one flag per row. Raises
    DegenerateWavefunctionError for a row identically zero.
    """
    amax = np.max(np.abs(v), axis=-1, keepdims=True)
    if not amax.all():
        raise DegenerateWavefunctionError("degenerate wavefunction")
    rho = v.real * v.real + v.imag * v.imag
    # each row's floor from its Python float; the smallest normal float
    # keeps it from underflowing to zero (0/0 in trust, log(0) in s1)
    tiny = np.finfo(float).tiny
    floor2 = np.reshape([max((SLAVED_AMPLITUDE_FLOOR * a) ** 2, tiny)
                         for a in amax.ravel().tolist()], amax.shape)
    engaged = np.any(rho < floor2, axis=-1)
    trust = rho / (rho + floor2)
    s1 = -0.5 * scale * np.log(rho + floor2)

    # Phase route: taper the wrapped cyclic phase increments by the edge
    # trust (off-support increments are pure noise), then rebuild a
    # zero-mean periodic phase by cumulative summation. Removing the mean
    # increment strips both the integer winding ramp and any tapering bias
    # as a linear-in-x term, which the Laplacian cannot see anyway.
    d = wrapped_phase_differences(np.angle(v))
    d *= trust * np.roll(trust, -1, axis=-1)
    d -= np.mean(d, axis=-1, keepdims=True)
    s0_periodic = np.empty_like(d)
    s0_periodic[..., 0] = 0.0
    np.cumsum(d[..., :-1], axis=-1, out=s0_periodic[..., 1:])
    s0_periodic *= scale

    lap_s0 = spectral_derivative_values(s0_periodic, grid, 2)
    lap_s1 = spectral_derivative_values(s1, grid, 2)
    return lap_s0, lap_s1, trust, engaged


def _asymmetry_potential(v: np.ndarray, grid: Grid1D) -> np.ndarray:
    """W = |grad psi|^2 / |psi|^2, the denominator floored at
    (SLAVED_AMPLITUDE_FLOOR max|psi|)^2, for each row of v along its last axis."""
    eps = SLAVED_AMPLITUDE_FLOOR
    grad = spectral_derivative_values(v, grid, 1)
    rho = v.real * v.real + v.imag * v.imag
    return (grad.real * grad.real + grad.imag * grad.imag) / np.maximum(
        rho, eps * eps * np.max(rho, axis=-1, keepdims=True))


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


def _row_kind(scenario: WaveScenario) -> tuple:
    """(explicit, nonlinear): which pointwise substep a scenario's row takes."""
    return scenario.closure_mode == EXPLICIT, scenario.nonlinear_active


class _GeneralizedStepper:
    """The generalized equation for a (P, N) stack of WaveScenarios of one
    `_row_kind`: the kinetic multipliers, which step the term
    i * kinetic_coeff * lap psi exactly, the frozen rate a(v), the
    mass-asymmetry rate and the pointwise substep built from them.

    Row p belongs to scenarios[p]. The rows share the grid, dt, closure
    mode and nonlinear term and may differ in masses, zeta and potentials.
    Each row's operands are built from its scenario alone, by the
    expressions a single run uses, and then stacked (`_stacked`), so each
    row steps bit for bit as it would alone.
    """

    def __init__(self, scenarios):
        self.scenarios = scenarios = list(scenarios)
        self.explicit, self.nonlinear = _row_kind(scenarios[0])
        grid, dt = scenarios[0].grid, scenarios[0].dt
        self.grid, self.dt = grid, dt
        params = [s.params for s in scenarios]
        zs = [p.zeta for p in params]
        coeffs = [p.zeta / (2.0 * p.kinetic_mass) for p in params]
        half, full = zip(*(_kinetic_multipliers(grid, c, dt) for c in coeffs))
        self.kinetic_half, self.kinetic_full = _stacked(half), _stacked(full)
        self.z = _stacked(zs)
        self.kinetic_coeff = _stacked(coeffs)
        # i nu / z with nu = (z^2/4)(1/m0 - 1/m1)
        self.asymmetry_coeff = _stacked(
            [1j * (0.25 * z * z * p.residual_inv_mass) / z for z, p in zip(zs, params)])
        base_a, self.energy_terms = [], []
        for s, z in zip(scenarios, zs):
            vg0, vg1 = s.potentials.vg_values(0, grid), s.potentials.vg_values(1, grid)
            # (1/iz) * [vg0 + i*vg1] = (vg1 - i*vg0)/z
            base_a.append((vg1 - 1j * vg0) / z)
            self.energy_terms.append((vg0, z, s.params.kinetic_mass))
        self.base_a = _stacked(base_a)
        self.rk2_base = _stacked([_rk2_multiplier(a, dt) for a in base_a])
        self.floor_engaged = np.zeros(len(scenarios), dtype=bool)

    def select(self, keep) -> "_GeneralizedStepper":
        """The stepper of the rows `keep` only."""
        return _GeneralizedStepper([self.scenarios[i] for i in keep])

    def frozen_rate(self, v: np.ndarray) -> np.ndarray:
        """a(v): the guiding potentials plus, in explicit mode, the coupling
        terms with S extracted from v; marks in `floor_engaged` each row
        whose extraction hit the amplitude floor."""
        if not self.explicit:
            return self.base_a
        grid = self.grid
        lap_s0, lap_s1, trust, engaged = _extract_action_terms(v, grid, self.z)
        self.floor_engaged |= engaged
        vc0, vc1 = np.empty_like(lap_s0), np.empty_like(lap_s1)
        for j, scenario in enumerate(self.scenarios):
            vc0[j], vc1[j] = self._couplings(scenario, lap_s0[j], lap_s1[j])
        coeff = self.kinetic_coeff
        c0 = trust * (vc0 - coeff * lap_s1)
        c1 = trust * (vc1 + coeff * lap_s0)
        # (1/iz) * [c0 + i*c1] = (c1 - i*c0)/z
        return self.base_a + (c1 - 1j * c0) / self.z

    def _couplings(self, scenario: WaveScenario, lap_s0, lap_s1):
        """(Vc0, Vc1) of one row: the closure rule or the stored potentials."""
        pot = scenario.potentials
        if pot.mode == SYMMETRIC_CLOSURE:
            return closure_couplings(lap_s0, lap_s1, scenario.params)
        return pot.vc_values(0, self.grid), pot.vc_values(1, self.grid)

    def asymmetry_rate(self, v: np.ndarray) -> np.ndarray:
        """i nu W(v) / z, the mass-asymmetry term as a rate."""
        return self.asymmetry_coeff * _asymmetry_potential(v, self.grid)

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


def _strang_steps(v: np.ndarray, stepper, n_steps: int) -> np.ndarray:
    """n_steps >= 1 Strang steps (kinetic/pointwise/kinetic) of the (P, N)
    stack v, with adjacent kinetic half-steps merged. A stack holds rows of
    one kind, and its FFT calls per step do not grow with P: 2 for a linear
    stack, 6 for a mass-asymmetric one (two gradients), 6 for an
    explicit-closure one (two Laplacians) and 10 for an explicit
    mass-asymmetric one, plus one pair per call. A single run is a (1, N)
    stack. The returned state is the full Strang state after the last step.

    Each row is bitwise equal to that row stepped alone, because a batched
    FFT row equals the 1-D transform of the row. The multipliers' operand
    order is part of that byte contract: `K * fft(v)` and `u *= K` can
    differ from `fft(v) * K` and `u = K * u` in the last bit.
    """
    u = stepper.kinetic_half * np.fft.fft(v)
    for i in range(1, n_steps + 1):
        u = np.fft.fft(stepper.pointwise(np.fft.ifft(u)))
        u *= stepper.kinetic_half if i == n_steps else stepper.kinetic_full
    return np.fft.ifft(u)


def _integrate(stepper, v: np.ndarray, n_steps: int,
               snapshot_every: int) -> list:
    """Step the (P, N) stack v with snapshots every `snapshot_every` steps
    and after the last; returns for each row its WaveRun, or the
    BlowUpError, carrying the partial WaveRun, that stopped it.

    A row stops on overflow or a non-finite state, and at a snapshot whose
    norm has underflowed to zero (no diagnostic or inverse map is defined
    there); rows are checked at snapshot steps only, after each row's
    `floor_engaged` flag has passed to its run. The other rows go on
    with the stepper of the rows left (`stepper.select`, needed only for
    P > 1), which is bitwise safe because every segment already starts
    from the full Strang state.
    """
    grid, dt = stepper.grid, stepper.dt
    runs = [WaveRun(snapshots=[snap])
            for snap in _snapshots(0.0, v, grid, stepper.energy_terms)]
    results = list(runs)
    alive = list(range(len(runs)))
    for start in range(0, n_steps, snapshot_every):
        step = min(start + snapshot_every, n_steps)
        # the snapshot check below reports any overflow or NaN as a blow-up
        with np.errstate(over="ignore", invalid="ignore"):
            v = _strang_steps(v, stepper, step - start)
        # False for a NaN or infinite maximum too
        bounded = np.max(np.abs(v), axis=-1) <= PSI_OVERFLOW_THRESHOLD
        terms = [t for t, ok in zip(stepper.energy_terms, bounded) if ok]
        snaps = iter(_snapshots(step * dt, v[bounded], grid, terms))
        keep = []
        for row, run_index in enumerate(alive):
            runs[run_index].floor_engaged |= bool(stepper.floor_engaged[row])
            snap = next(snaps) if bounded[row] else None
            if snap is None or snap.norm == 0.0:
                cause = "blow-up" if snap is None else "norm underflowed to zero"
                results[run_index] = BlowUpError(
                    f"{cause} at step {step}", step=step, partial=runs[run_index])
            else:
                runs[run_index].snapshots.append(snap)
                keep.append(row)
        if len(keep) < len(alive):
            if not keep:
                break
            alive = [alive[row] for row in keep]
            v = v[keep]
            stepper = stepper.select(keep)
    return results


def _runs_or_raise(results: list) -> list:
    """The WaveRuns of `results`; raises the first BlowUpError among them."""
    for result in results:
        if isinstance(result, BlowUpError):
            raise result
    return results


def _snapshots(t: float, v: np.ndarray, grid: Grid1D, energy_terms) -> list:
    """Snapshots of the rows of the (P, N) stack v with each norm and energy.

    The energy is the integral of (z^2/2 mass) |grad psi|^2 + Vg0 |psi|^2,
    with each row's (vg0, z, mass) from `energy_terms` and `mass` the
    kinetic mass.
    """
    grads = spectral_derivative_values(v, grid, 1)
    snaps = []
    for row, grad, (vg0, z, mass) in zip(v, grads, energy_terms):
        norm = float(np.sum(row.real * row.real + row.imag * row.imag) * grid.dx)
        dens = (z ** 2 / (2.0 * mass)) * np.abs(grad) ** 2 + vg0 * np.abs(row) ** 2
        snaps.append(Snapshot(t=t, psi=ComplexField(row.copy(), grid), norm=norm,
                              energy=float(np.sum(dens) * grid.dx)))
    return snaps


def evolve_many(scenarios) -> list:
    """Integrate many scenarios; those that share the grid, dt, n_steps,
    snapshot cadence and row kind (closure mode and nonlinear term) step
    together as one (P, N) stack.

    Returns, in input order, each scenario's WaveRun or the BlowUpError,
    carrying its partial WaveRun, that stopped it (see `evolve`); a row that
    stops leaves its stack and the others go on. Every run is bitwise equal
    to `evolve` of its scenario alone.
    """
    results = [None] * len(scenarios)
    stacks = {}
    for index, s in enumerate(scenarios):
        key = (s.grid, s.dt, s.n_steps, s.snapshot_every, _row_kind(s))
        stacks.setdefault(key, []).append(index)
    for (_, _, n_steps, snapshot_every, _), indices in stacks.items():
        stack = [scenarios[index] for index in indices]
        runs = _integrate(_GeneralizedStepper(stack),
                          np.stack([s.psi0.values for s in stack]),
                          n_steps, snapshot_every)
        for index, run in zip(indices, runs):
            results[index] = run
    return results


def evolve(scenario: WaveScenario) -> WaveRun:
    """Integrate the scenario, returning snapshots at the configured cadence.

    Deterministic for identical inputs. Raises BlowUpError carrying the
    partial WaveRun if the state overflows, goes non-finite or its norm
    underflows to zero mid-run.
    """
    return _runs_or_raise(evolve_many([scenario]))[0]


# --------------------------------------------------------------------------
# Reference linear Schrodinger solver (the symmetric-limit oracle)
# --------------------------------------------------------------------------

class _ReferenceStepper:
    """Kinetic multipliers and linear substep of i*z dpsi/dt = -(z^2/2m) lap psi + Vg0 psi,
    a stepper of one row."""

    def __init__(self, grid: Grid1D, vg0: np.ndarray, mass: float, z: float,
                 dt: float):
        self.grid = grid
        self.dt = dt
        self.energy_terms = [(vg0, z, mass)]
        self.kinetic_half, self.kinetic_full = _kinetic_multipliers(
            grid, z / (2.0 * mass), dt)
        self.rk2 = _rk2_multiplier(-1j * vg0 / z, dt)
        self.floor_engaged = np.zeros(1, dtype=bool)

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
    and for the deformed-dispersion checks. `vg0` is a RealField or None.
    """
    check_stepping(dt, n_steps, snapshot_every)
    grid = psi0.grid
    vg0_values = np.zeros(grid.n_points) if vg0 is None else vg0.values
    stepper = _ReferenceStepper(grid, vg0_values, mass, zeta, dt)
    return _runs_or_raise(
        _integrate(stepper, psi0.values[None], n_steps, snapshot_every))[0]


# --------------------------------------------------------------------------
# Alternate closure: co-evolved Hamilton-Jacobi fields
# --------------------------------------------------------------------------

def coevolved_wavefunction_run(channels: ActionChannels, pot: PotentialSet,
                               p: DualParams, dt: float, n_steps: int,
                               snapshot_every: int = 1) -> WaveRun:
    """Exploration mode: evolve (S0, S1) by the Hamilton-Jacobi equations and
    reconstruct psi = exp(i S0/z - S1/z) from their total samples at each
    snapshot. psi is periodic only if S1 has no slope and the slope of S0 is
    a multiple of 2 pi z / L; other slopes raise ConfigurationError.

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
    grid = channels.grid
    slope0, slope1 = channels.slopes[:2]
    windings = slope0 * grid.length / (2.0 * math.pi * p.zeta)
    if slope1 != 0.0 or abs(windings - round(windings)) > 1e-9:
        raise ConfigurationError(
            f"channel slopes ({slope0:g}, {slope1:g}) make psi non-periodic: "
            f"S1 needs slope 0 and S0 a multiple of 2 pi zeta / L")
    traj = evolve_hj(channels, pot, p, dt, n_steps, snapshot_every=snapshot_every)
    energy_terms = [(pot.vg_values(0, grid), p.zeta, p.kinetic_mass)]
    return WaveRun(snapshots=[
        _snapshots(t, to_wavefunction(RealField(state.total_samples(0), grid),
                                      state.channels[1], p).values[None],
                   grid, energy_terms)[0]
        for t, state in zip(traj.times, traj.states)])
