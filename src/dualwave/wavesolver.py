"""Time integration of the generalized dissipative wave equation, plus the
reference linear Schrodinger solver that the symmetric limit must match.

With action scale z (zeta), reduced mass m and residual mass
mbar, the generalized equation is

    i z dpsi/dt = -(z^2/4m) lap psi + Vg0 psi + [Vc0 - (z/4m) lap S1] psi
                  + (z^2/4 mbar) [psi* div(grad psi / psi*) - lap psi]
                  + i Vg1 psi + i [Vc1 + (z/4m) lap S0] psi

with S0 = z arg psi and S1 = -z ln|psi|. The closure rule
Vc0 = (z/4m) lap S1, Vc1 = -(z/4m) lap S0 cancels both bracketed coupling
terms identically, so no S field is ever extracted from psi and the
stepped equation is

    i z dpsi/dt = -(z^2/4m) lap psi + (Vg0 + i Vg1) psi - (z^2/4 mbar) W psi

since the mass-asymmetry bracket is exactly -W psi with the real potential
W = |grad psi|^2 / |psi|^2, a term that only rotates the phase. With
m0 == m1 and Vg1 == 0 this is the linear Schrodinger equation.

Integration is Strang splitting: an exact half-step kinetic propagator in
Fourier space, a full step of the pointwise part, then the second kinetic
half-step: the time-splitting spectral method of Bao, Jin & Markowich
(J. Comput. Phys. 175 (2002) 487). The pointwise step solves du/dt = a u
exactly for the rate a = (Vg1 - i Vg0) / z, u -> exp(a dt) u, and is the
exponential midpoint rule of du/dt = (a + i nu W(u)/z) u when the
mass-asymmetry term is on, which keeps the norm up to the a part by
construction. Between snapshots adjacent kinetic half-steps are merged
into one full step, and every snapshot holds the full Strang state.

The loop driver steps a (P, N) stack of runs that share the grid, dt,
step count, snapshot cadence and nonlinear term (`evolve_many`; `evolve`
is a one-row stack). Each row is bitwise equal to its run stepped alone:
a batched FFT row equals the 1-D transform, each row's multipliers and
scalars come from the single-run expressions, and the operand order of
every multiplier product is kept (`K * fft(v)` and `u *= K`, not
`fft(v) * K`), since on some machines the two orders differ in the last bit.

FFT counts hold per stack, not per row: a step costs 2 FFT calls, plus 2
in a mass-asymmetric stack, so 2 or 4, whatever P is. A step's inverse
transform there is one call on the (2P, N) stack [u; ik u], which gives
psi and grad psi, and the midpoint's gradient takes one FFT pair.
`evolve` and the reference solver share this loop driver, which gives
each snapshot's state to a per-run record (a `WaveRun` keeps them all),
but assemble their multipliers separately. The
equation's terms are written once, in the stepper that steps them.

`closure_mode = explicit` is accepted only with `potential_mode =
symmetric_closure`. There each coupling term, evaluated numerically,
would be the difference of two equal products, exactly zero, so an
explicit run is the analytic run bit for bit, and it is stepped as one.

Explicit coupling without the closure rule is ill-posed, and
`WaveScenario` rejects it. Let L = ln psi, so S0 = z Im L and
S1 = -z Re L, and let c = z/4m. With zero coupling potentials the
state-dependent terms -(z/4m) lap S1 and +(z/4m) lap S0 add -i c L_xx
to L_t, which cancels the second-derivative part of the kinetic term and
leaves, at m0 == m1,

    L_t = i c (L_x)^2 + (Vg1 - i Vg0) / z

Linearized about a state, the mode exp(iqx) grows at 2c |q| |d/dx ln|psi||:
the rate has no bound in q wherever |psi| varies, so no grid converges and
a finer grid fails sooner (Hadamard ill-posed). Only the closure rule puts
the Laplacian back, and with it the equation is well posed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from dualwave.core import (
    OVERFLOW_THRESHOLD,
    BlowUpError,
    ComplexField,
    ConfigurationError,
    DualParams,
    Grid1D,
    Integration,
    RealField,
    snapshot_steps,
    spectral_derivative_values,
)
from dualwave.hamilton_jacobi import (
    EXPLICIT,
    SYMMETRIC_CLOSURE,
    ActionChannels,
    PotentialSet,
    evolve_hj,
)
from dualwave.madelung import to_wavefunction

NONLINEAR_ON = "on"
NONLINEAR_OFF = "off"
NONLINEAR_AUTO = "auto"

# Relative amplitude floor of the mass-asymmetry potential
# W = |grad psi|^2 / |psi|^2: its denominator is floored at
# (W_DENOMINATOR_FLOOR max|psi|)^2. Where |psi| falls to the spectral
# rounding level (~1e-13 relative per step, accumulating over thousands of
# steps) gradient and amplitude are both rounding noise, and their bare
# ratio would give those samples a phase rate up to z k_max^2 / 4 mbar.
# The floor sits well above that level, so there W is the squared noise
# gradient over the floor and stays small. The one-shot inverse map clamps
# at the tighter madelung.AMPLITUDE_FLOOR (1e-12).
W_DENOMINATOR_FLOOR = 1e-8

# Largest share of spectral power above 2/3 of the Nyquist wavenumber, where
# products alias (Orszag's 2/3 rule), that a snapshot of a row whose rate is a
# function of psi may hold; resolved runs stay below 1e-26, unstable ones pass it.
# Data may set a larger share at t = 0; growth past SPECTRAL_TAIL_GROWTH times it stops.
SPECTRAL_TAIL_BOUND, SPECTRAL_TAIL_GROWTH = 1e-12, 1e4


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
        Integration(self.dt, self.n_steps, self.snapshot_every)  # checks the stepping
        if self.closure_mode not in (EXPLICIT, SYMMETRIC_CLOSURE):
            raise ConfigurationError(f"unknown closure mode {self.closure_mode!r}")
        if self.nonlinear_term not in (NONLINEAR_ON, NONLINEAR_OFF, NONLINEAR_AUTO):
            raise ConfigurationError(
                f"unknown nonlinear_term {self.nonlinear_term!r}")
        pot = self.potentials
        if len(self.params.masses) != 2 or len(pot.vg) != 2:
            raise ConfigurationError(
                "a wave run needs masses (m0, m1) and potentials (Vg0, Vg1), got "
                f"{len(self.params.masses)} and {len(pot.vg)}")
        # the closure rule is the only wave coupling (module docstring)
        if self.closure_mode == EXPLICIT and pot.mode != SYMMETRIC_CLOSURE:
            raise ConfigurationError(
                "closure_mode = explicit needs potential_mode = symmetric_closure: "
                "explicit coupling without the closure rule is ill-posed")
        # the stepper divides the guiding potentials by zeta, as complex
        # numbers, which gives NaN once 1/zeta overflows even where they
        # are 0, and multiplies the rate by dt
        z = self.params.zeta
        rate = pot.max_abs() / z
        if not (math.isfinite(self.dt * rate) and math.isfinite(1.0 / z)):
            raise ConfigurationError(
                f"potential rate max|Vg| / zeta = {rate:g} at zeta = {z:g} "
                f"and dt = {self.dt:g} leaves the float range; raise zeta or "
                f"lower dt or the potentials")
        # an infinite exponent c k^2 dt of the kinetic multipliers gives NaN
        self.params.check_kinetic_rate(self.grid, self.dt, "kinetic")
        if self.nonlinear_active:
            # conservative for the exponential-midpoint substep; relaxing it
            # needs a convergence study of that substep in dt
            rate = self.params.kinetic_rate_coeff * self.grid.nyquist ** 2
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
    """State at one output time; its norm, which the loop driver's underflow
    stop reads, is computed once, on first use."""

    t: float
    psi: ComplexField

    @cached_property
    def norm(self) -> float:
        v = self.psi.values
        return float(np.sum(v.real * v.real + v.imag * v.imag) * self.psi.grid.dx)


@dataclass
class WaveRun:
    """Snapshots of one trajectory at the configured cadence: the default
    record of `_integrate`, which keeps every snapshot it is given."""

    snapshots: list = field(default_factory=list)

    def add(self, snap: Snapshot):
        self.snapshots.append(snap)

    @property
    def final(self) -> Snapshot:
        return self.snapshots[-1]


# --------------------------------------------------------------------------
# Term evaluation
# --------------------------------------------------------------------------

def _asymmetry_potential(v: np.ndarray, grid: Grid1D, grad=None) -> np.ndarray:
    """W = |grad psi|^2 / |psi|^2, the denominator floored at
    (W_DENOMINATOR_FLOOR max|psi|)^2, for each row of v along its last axis;
    `grad`, the gradient of v, is taken spectrally when not given."""
    eps = W_DENOMINATOR_FLOOR
    if grad is None:
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


class _GeneralizedStepper:
    """The generalized equation for a (P, N) stack of WaveScenarios of one
    nonlinear term: the kinetic multipliers, which step the term
    i (zeta / 2 kinetic_mass) lap psi exactly, the potential rate a, the
    mass-asymmetry rate and the pointwise substep built from them.

    Row p belongs to scenarios[p]. The rows share the grid, dt and
    nonlinear term and may differ in masses, zeta and potentials.
    Each row's operands are built from its scenario alone, by the
    expressions a single run uses, and then stacked, so each row steps bit
    for bit as it would alone.
    """

    def __init__(self, scenarios):
        self.nonlinear = scenarios[0].nonlinear_active
        grid, dt = scenarios[0].grid, scenarios[0].dt
        self.grid, self.dt = grid, dt
        params = [s.params for s in scenarios]
        zs = [p.zeta for p in params]
        half, full = zip(*(_kinetic_multipliers(grid, p.kinetic_rate_coeff, dt)
                           for p in params))
        self.kinetic_half, self.kinetic_full = np.stack(half), np.stack(full)
        # nu / z with nu = (z^2/4)(1/m0 - 1/m1): the mass-asymmetry term
        # i nu W / z of the rate only turns the phase, at the real rate nu W / z
        self.asymmetry_freq = np.reshape([(0.25 * z * z * p.residual_inv_mass) / z
                                          for z, p in zip(zs, params)], (-1, 1))
        # (1/iz) * [vg0 + i*vg1] = (vg1 - i*vg0)/z
        base_a = [(s.potentials.values[1] - 1j * s.potentials.values[0]) / z
                  for s, z in zip(scenarios, zs)]
        self.base_a = np.stack(base_a)
        # a strongly growing Vg1 overflows to inf, which the snapshot check reports
        with np.errstate(over="ignore"):
            self.linear_half = np.stack([np.exp((0.5 * dt) * a) for a in base_a])
            self.linear_base = np.stack([np.exp(dt * a) for a in base_a])
        self.tail_bound = SPECTRAL_TAIL_BOUND if self.nonlinear else math.inf

    def asymmetry_rate(self, v: np.ndarray, grad=None) -> np.ndarray:
        """nu W(v) / z, the real rate at which the mass-asymmetry term
        i nu W(v) / z turns the phase."""
        return self.asymmetry_freq * _asymmetry_potential(v, self.grid, grad)

    def pointwise(self, u: np.ndarray) -> np.ndarray:
        """Pointwise substep of the state whose spectra are u, returned as
        samples: the exact solution exp(a dt) v of dv/dt = a v, or with the
        mass-asymmetry potential the exponential midpoint of
        dv/dt = r(v) v, r(v) = a + i nu W(v) / z, where each exp(tau r) is
        exp(tau a), fixed for the run, times the phase turn exp(i tau nu W / z).
        Takes 1 FFT call, or 3 with the mass-asymmetry potential: one
        inverse transform of [u; ik u] gives v and grad v, and W at the
        midpoint takes a pair."""
        if not self.nonlinear:
            return self.linear_base * np.fft.ifft(u)
        ik = self.grid.derivative_multipliers[1, False]
        p = len(u)
        both = np.fft.ifft(np.concatenate((u, ik * u)))
        half_turn = _phase_turn((0.5 * self.dt) * self.asymmetry_rate(both[:p], both[p:]))
        # v is copied out so that the (2P, N) stack is freed before the
        # midpoint: held to the end of the step, it made glibc trim and regrow
        # the heap on most steps at P >= 3, one page fault per 4 KiB regrown
        v = both[:p].copy()
        del both
        mid = self.linear_half * half_turn * v
        return self.linear_base * _phase_turn(self.dt * self.asymmetry_rate(mid)) * v


def _phase_turn(theta: np.ndarray) -> np.ndarray:
    """exp(i theta) for real theta, as cos theta + i sin theta: two real
    functions cost less than the complex exp."""
    out = np.empty(theta.shape, complex)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    return out


def _tail_fraction(u: np.ndarray, grid: Grid1D) -> np.ndarray:
    """Each row's share of spectral power above 2/3 of the Nyquist
    wavenumber, from the FFT-layout spectra u; NaN for zero power."""
    tail = np.abs(grid.wavenumbers) > (2.0 / 3.0) * grid.nyquist
    power = u.real * u.real + u.imag * u.imag
    return np.sum(power, axis=-1, where=tail) / np.sum(power, axis=-1)


def _strang_steps(v: np.ndarray, stepper, n_steps: int) -> tuple:
    """n_steps >= 1 Strang steps (kinetic/pointwise/kinetic) of the (P, N)
    stack v, with adjacent kinetic half-steps merged. A stack holds rows of
    one nonlinear term, and its FFT calls per step do not grow with P: 2
    for a linear stack and 4 for a mass-asymmetric one, plus one pair per
    call. The stepper's `pointwise` takes the spectra u it holds and makes
    its own inverse transform. A single run is a (1, N) stack. Returns the
    full Strang state after the last step and each row's `_tail_fraction`,
    read from the spectrum before the last `ifft`.

    Each row is bitwise equal to that row stepped alone, because a batched
    FFT row equals the 1-D transform of the row. The multipliers' operand
    order is part of that byte contract: `K * fft(v)` and `u *= K` can
    differ from `fft(v) * K` and `u = K * u` in the last bit.
    """
    u = stepper.kinetic_half * np.fft.fft(v)
    for i in range(1, n_steps + 1):
        u = np.fft.fft(stepper.pointwise(u))
        u *= stepper.kinetic_half if i == n_steps else stepper.kinetic_full
    return np.fft.ifft(u), _tail_fraction(u, stepper.grid)


def _integrate(stepper, v: np.ndarray, steps: list, records: list) -> list:
    """Step the (P, N) stack v through the segments between consecutive
    recorded `steps` (`core.snapshot_steps`) and give row p's Snapshot at
    each recorded step, t = 0 included, to `records[p].add`; returns for
    each row its record, or the BlowUpError that stopped it, carrying that
    record as given every snapshot before the stop. A record keeps what
    its caller reads: `WaveRun` keeps every snapshot.

    A row stops on overflow or a non-finite state, at a snapshot whose
    norm has underflowed to zero (no diagnostic or inverse map is defined
    there), and at one whose spectral tail fraction exceeds the stepper's
    `tail_bound` and then (by one FFT) SPECTRAL_TAIL_GROWTH times its share
    at t = 0; rows are checked at snapshot steps only. A stopped row is
    stepped on with its stack, unread, until the stack's last live row
    ends: no other row reads it, so the live rows keep their bytes, and its
    inf, NaN or zero values stay inside the loop's `np.errstate`. The
    trade-off is that a stack keeps paying for a stopped row.
    """
    grid, dt, v0 = stepper.grid, stepper.dt, v
    for record, row in zip(records, v):
        record.add(Snapshot(0.0, ComplexField(row.copy(), grid)))
    results = list(records)
    for start, step in zip(steps, steps[1:]):
        # the snapshot check below reports any overflow or NaN as a blow-up
        with np.errstate(over="ignore", invalid="ignore"):
            v, tail = _strang_steps(v, stepper, step - start)
        # False for a NaN or infinite maximum too
        bounded = np.max(np.abs(v), axis=-1) <= OVERFLOW_THRESHOLD
        for row, record in enumerate(records):
            if isinstance(results[row], BlowUpError):
                continue
            snap = Snapshot(step * dt, ComplexField(v[row].copy(), grid))
            if not bounded[row]:
                cause = "blow-up"
            elif snap.norm == 0.0:
                cause = "norm underflowed to zero"
            elif tail[row] > stepper.tail_bound and tail[row] > SPECTRAL_TAIL_GROWTH * (
                    _tail_fraction(np.fft.fft(v0[row]), grid)):
                cause = f"spectral tail {tail[row]:.2e}"
            else:
                record.add(snap)
                continue
            results[row] = BlowUpError(f"{cause} at step {step}", step=step, partial=record)
        if all(isinstance(result, BlowUpError) for result in results):
            break
    return results


def _runs_or_raise(results: list) -> list:
    """The records of `results`; raises the first BlowUpError among them."""
    for result in results:
        if isinstance(result, BlowUpError):
            raise result
    return results


def evolve_many(scenarios, records=None) -> list:
    """Integrate many scenarios; those that share the grid, dt, n_steps,
    snapshot cadence and nonlinear term step together as one (P, N) stack;
    closure modes share a stack, since both step the closure rule.

    `records[i]` receives scenario i's snapshots (`_integrate`); by default
    each is a new WaveRun. Returns, in input order, each scenario's record
    or the BlowUpError, carrying its partial record, that stopped it (see
    `evolve`); a row that stops is stepped on with its stack, unread, until
    the stack's last live row ends. Every run is bitwise equal to `evolve`
    of its scenario alone.
    """
    if records is None:
        records = [WaveRun() for _ in scenarios]
    results = [None] * len(scenarios)
    stacks = {}
    for index, s in enumerate(scenarios):
        key = (s.grid, s.dt, s.n_steps, s.snapshot_every, s.nonlinear_active)
        stacks.setdefault(key, []).append(index)
    for (_, dt, n_steps, snapshot_every, _), indices in stacks.items():
        stack = [scenarios[index] for index in indices]
        runs = _integrate(_GeneralizedStepper(stack),
                          np.stack([s.psi0.values for s in stack]),
                          snapshot_steps(dt, n_steps, snapshot_every),
                          [records[index] for index in indices])
        for index, run in zip(indices, runs):
            results[index] = run
    return results


def evolve(scenario: WaveScenario) -> WaveRun:
    """Integrate the scenario, returning snapshots at the configured cadence.

    Deterministic for identical inputs. Raises BlowUpError carrying the
    partial WaveRun if the state overflows, goes non-finite, its norm
    underflows to zero or its spectral tail grows mid-run (`_integrate`).
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
        self.grid, self.dt = grid, dt
        self.kinetic_half, self.kinetic_full = _kinetic_multipliers(
            grid, z / (2.0 * mass), dt)
        # exp(-i Vg0 dt / z) in `evolve`'s operation order: the symmetric limit is bitwise
        self.phase = np.exp(dt * (-1j * vg0 / z))
        self.tail_bound = math.inf

    def pointwise(self, u: np.ndarray) -> np.ndarray:
        """exp(-i Vg0 dt / z) times the samples of the spectra u: each
        stepper of the loop driver makes its own inverse transform."""
        return self.phase * np.fft.ifft(u)


def schrodinger_reference(psi0: ComplexField, vg0, mass: float,
                          zeta: float, dt: float, n_steps: int,
                          snapshot_every: int = 1) -> WaveRun:
    """Independent split-step integration of the linear equation

        i z dpsi/dt = -(z^2/2m) lap psi + Vg0 psi,   z = zeta.

    Same Strang discretization as `evolve`, with the exact potential phase
    exp(-i Vg0 dt / z), assembled directly from (Vg0, mass, z) and sharing
    only the loop driver; serves as the oracle for the symmetric-limit
    equivalence and for the deformed-dispersion checks. `vg0` is a
    RealField or None.
    """
    steps = snapshot_steps(dt, n_steps, snapshot_every)
    grid = psi0.grid
    vg0_values = np.zeros(grid.n_points) if vg0 is None else vg0.values
    stepper = _ReferenceStepper(grid, vg0_values, mass, zeta, dt)
    return _runs_or_raise(_integrate(stepper, psi0.values[None], steps, [WaveRun()]))[0]


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
    by about 1.6e-3.

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
    return WaveRun(snapshots=[
        Snapshot(t, to_wavefunction(RealField(s0, grid), RealField(s1, grid), p))
        for t, (s0, s1, *_) in zip(traj.times, traj.samples)])
