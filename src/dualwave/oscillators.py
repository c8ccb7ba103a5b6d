"""Classical dissipative oscillator formalisms as finite-dimensional ODEs.

Three routes to the same damped trajectory:

* a doubled system pairing the damped coordinate x with an anti-damped
  mirror y (energy lost by x is absorbed by y),
* a single coordinate with an exponentially time-dependent Lagrangian and
  a non-conserved Hamiltonian,
* a complex coordinate z = x + iy. With Dekker's own-velocity coupling
  its real and imaginary sectors obey the doubled system's two equations,
  so the `dekker` row steps `bateman_rhs` and differs only in its summary,
  where the imaginary sector's energy is negative-definite
  (`dekker_energies`).

All three share the fixed-step RK4 integrator below, and all three must
reproduce the closed-form damped solution for the physical coordinate.
A right-hand side `rhs(p)` reads gamma and omega^2 once per run and
returns the function of the state that every RK4 stage calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from dualwave.core import OVERFLOW_THRESHOLD, BlowUpError, snapshot_steps


@dataclass(frozen=True)
class OscParams:
    """Mass, damping rate and stiffness of one oscillator pair."""

    mass: float = 1.0
    gamma: float = 0.0
    stiffness: float = 1.0

    def __post_init__(self):
        if self.mass <= 0 or self.stiffness <= 0 or self.gamma < 0:
            raise ValueError(
                f"need mass > 0, stiffness > 0, gamma >= 0; got {self}")

    @property
    def omega(self) -> float:
        return math.sqrt(self.stiffness / self.mass)

    @property
    def is_underdamped(self) -> bool:
        return self.gamma < 2.0 * self.omega

    @property
    def omega_damped(self) -> float:
        """sqrt(omega^2 - gamma^2/4); NaN outside the underdamped regime."""
        if not self.is_underdamped:
            return math.nan
        return math.sqrt(self.omega ** 2 - 0.25 * self.gamma ** 2)


def bateman_rhs(p: OscParams):
    """Doubled-system equations: x damped, its mirror y anti-damped.

    Returns rhs(state) for state = (x, xdot, y, ydot), the time derivative
    (xdot, -gamma*xdot - omega^2*x, ydot, +gamma*ydot - omega^2*y), with
    gamma and omega^2 = p.omega ** 2 read once, here, not at every stage.
    """
    gamma, w2 = p.gamma, p.omega ** 2

    def rhs(state):
        x, xdot, y, ydot = state
        return (xdot, -gamma * xdot - w2 * x, ydot, gamma * ydot - w2 * y)

    return rhs


def caldirola_kanai_rhs(p: OscParams):
    """Physical-coordinate equation of the time-dependent-Lagrangian route.

    Returns rhs(state) for state = (x, xdot), which generates
    xddot + gamma*xdot + omega^2*x = 0, the same damped ODE as the x sector
    of the doubled system; gamma and omega^2 are read once, here.
    """
    gamma, w2 = p.gamma, p.omega ** 2

    def rhs(state):
        x, xdot = state
        return (xdot, -gamma * xdot - w2 * x)

    return rhs


def ck_canonical_momentum(state: np.ndarray, t: float, p: OscParams) -> float:
    """Canonical momentum m*xdot*exp(gamma*t) of the exponential Lagrangian."""
    return p.mass * state[1] * math.exp(p.gamma * t)


def ck_hamiltonian(state: np.ndarray, t: float, p: OscParams) -> float:
    """Time-dependent Hamiltonian exp(-gamma*t)*p^2/(2m) + exp(gamma*t)*k*x^2/2.

    Expressed through the canonical momentum p = m*xdot*exp(gamma*t) this is
    exp(gamma*t) times the mechanical energy; it equals the mechanical energy
    at t = 0 and is conserved only in the gamma = 0 limit.
    """
    x, xdot = state
    pc = ck_canonical_momentum(state, t, p)
    egt = math.exp(p.gamma * t)
    return pc ** 2 / (2.0 * p.mass * egt) + 0.5 * p.stiffness * x ** 2 * egt


def dekker_energies(state: np.ndarray, p: OscParams) -> tuple:
    """Sector energies (E_x, E_y) of the complex pair; E_y is negative-definite.

    The imaginary sector enters the Lagrangian with flipped kinetic and
    potential signs, so its conserved energy is minus the usual oscillator
    energy.
    """
    x, xdot, y, ydot = state
    return mechanical_energy(x, xdot, p), -mechanical_energy(y, ydot, p)


def mechanical_energy(x, xdot, p: OscParams):
    """m xdot^2 / 2 + k x^2 / 2 of floats or, elementwise, of arrays."""
    return 0.5 * p.mass * xdot ** 2 + 0.5 * p.stiffness * x ** 2


class Formalism(NamedTuple):
    """What a run of one formalism needs: its right-hand side rhs(p), which
    binds the run's constants and returns f(state), the state columns, and
    the summary columns after t with the function summary_row(state, t, p)
    that fills them."""

    rhs: Callable
    columns: tuple
    summary_header: tuple
    summary_row: Callable


_DOUBLED = ("x", "xdot", "y", "ydot")

FORMALISMS = {
    "bateman": Formalism(
        bateman_rhs, _DOUBLED, ("energy_x", "energy_y"),
        lambda s, t, p: (mechanical_energy(s[0], s[1], p),
                         mechanical_energy(s[2], s[3], p))),
    "ck": Formalism(
        caldirola_kanai_rhs, ("x", "xdot"), ("energy", "ck_hamiltonian"),
        lambda s, t, p: (mechanical_energy(s[0], s[1], p),
                         ck_hamiltonian(s, t, p))),
    "dekker": Formalism(
        bateman_rhs, _DOUBLED, ("energy_x", "energy_y"),
        lambda s, t, p: dekker_energies(s, p)),
}


def damped_oscillator_solution(t, p: OscParams, x0: float = 1.0, v0: float = 0.0):
    """Closed-form underdamped solution of xddot + gamma*xdot + omega^2*x = 0.

    x(t) = e^{-gamma t/2} [x0 cos(w_d t) + ((v0 + gamma x0/2)/w_d) sin(w_d t)]
    with w_d = sqrt(omega^2 - gamma^2/4). Used as the independent oracle for
    all three formalisms.
    """
    if not p.is_underdamped:
        raise ValueError("closed form implemented for the underdamped regime only")
    wd = p.omega_damped
    t = np.asarray(t, dtype=float)
    c2 = (v0 + 0.5 * p.gamma * x0) / wd
    return np.exp(-0.5 * p.gamma * t) * (x0 * np.cos(wd * t) + c2 * np.sin(wd * t))


def integrate_rk4(rhs, state0, dt: float, n_steps: int,
                  snapshot_every: int = 1) -> np.ndarray:
    """Classical fixed-step 4th-order Runge-Kutta.

    The state is stepped as a list of Python floats (`rhs` returns a float
    sequence): far cheaper than NumPy arrays at 2 or 4 components, and the
    same bits, since the operation order is the array formula's. `rhs`
    takes the state alone; a formalism's `rhs(p)` binds its constants once
    per run.

    Returns the trajectory at the steps of `core.snapshot_steps`, the
    initial state first (every step at snapshot_every = 1). Raises
    ConfigurationError for stepping no run can use, and BlowUpError as soon
    as any state component exceeds core.OVERFLOW_THRESHOLD or goes
    non-finite (anti-damped growth below it is legitimate output); the
    error carries the recorded rows so far, the blow-up step's included
    when it is recorded.
    """
    steps = snapshot_steps(dt, n_steps, snapshot_every)
    state = np.asarray(state0, dtype=float).tolist()
    traj = np.empty((len(steps), len(state)))
    traj[0] = state
    h, sixth = 0.5 * dt, dt / 6.0
    for row, (start, stop) in enumerate(zip(steps, steps[1:]), 1):
        for step in range(start + 1, stop + 1):
            k1 = rhs(state)
            k2 = rhs([s + h * k for s, k in zip(state, k1)])
            k3 = rhs([s + h * k for s, k in zip(state, k2)])
            k4 = rhs([s + dt * k for s, k in zip(state, k3)])
            state = [s + sixth * (a + 2.0 * b + 2.0 * c + d)
                     for s, a, b, c, d in zip(state, k1, k2, k3, k4)]
            # False for NaN as well as for inf and overflow
            if not all(abs(s) <= OVERFLOW_THRESHOLD for s in state):
                traj[row] = state  # kept only when `step` is recorded
                raise BlowUpError(f"blow-up at step {step}", step=step,
                                  partial=traj[: row + (step == stop)])
        traj[row] = state
    return traj
