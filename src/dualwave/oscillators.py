"""Classical dissipative oscillator formalisms as finite-dimensional ODEs.

Three routes to the same damped trajectory:

* a doubled system pairing the damped coordinate x with an anti-damped
  mirror y (energy lost by x is absorbed by y),
* a single coordinate with an exponentially time-dependent Lagrangian and
  a non-conserved Hamiltonian,
* a complex coordinate z = x + iy whose real/imaginary sectors are tuned
  by a velocity coupling into one damped and one anti-damped oscillator.

All three share the fixed-step RK4 integrator below, and all three must
reproduce the closed-form damped solution for the physical coordinate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from dualwave.core import BlowUpError, check_stepping

OVERFLOW_THRESHOLD = 1e12


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


def bateman_rhs(state, p: OscParams) -> tuple:
    """Doubled-system equations: x damped, its mirror y anti-damped.

    state = (x, xdot, y, ydot); returns the time derivative
    (xdot, -gamma*xdot - omega^2*x, ydot, +gamma*ydot - omega^2*y).
    """
    x, xdot, y, ydot = state
    w2 = p.omega ** 2
    return (
        xdot,
        -p.gamma * xdot - w2 * x,
        ydot,
        p.gamma * ydot - w2 * y,
    )


def caldirola_kanai_rhs(state, p: OscParams) -> tuple:
    """Physical-coordinate equation of the time-dependent-Lagrangian route.

    state = (x, xdot); generates xddot + gamma*xdot + omega^2*x = 0, the
    same damped ODE as the x sector of the doubled system.
    """
    x, xdot = state
    return (xdot, -p.gamma * xdot - p.omega ** 2 * x)


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


def bateman_velocity_coupling(gamma: float, a: float, adot: float,
                              b: float, bdot: float) -> float:
    """Own-velocity coupling gamma*adot: yields exact damping/anti-damping."""
    return gamma * adot


def dekker_complex_rhs(state, p: OscParams, coupling=None) -> tuple:
    """Real/imaginary sector equations of the complex coordinate z = x + iy.

    Both sectors keep the restoring force -omega^2 of the complex-Lagrangian
    pair (the sign flips of the imaginary sector's kinetic and potential
    terms cancel in its equation of motion). The tunable coupling enters
    with opposite signs and exchanged arguments,

        xddot = -omega^2 x - coupling(gamma, x, xdot, y, ydot)
        yddot = -omega^2 y + coupling(gamma, y, ydot, x, xdot)

    so swapping the sectors and flipping the coupling's sign swaps the
    trajectories exactly. The default coupling damps x and anti-damps y at
    the rate gamma, matching the doubled-system structure.
    """
    if coupling is None:
        coupling = bateman_velocity_coupling
    x, xdot, y, ydot = state
    w2 = p.omega ** 2
    return (
        xdot,
        -w2 * x - coupling(p.gamma, x, xdot, y, ydot),
        ydot,
        -w2 * y + coupling(p.gamma, y, ydot, x, xdot),
    )


def dekker_energies(state: np.ndarray, p: OscParams) -> tuple:
    """Sector energies (E_x, E_y) of the complex pair; E_y is negative-definite.

    The imaginary sector enters the Lagrangian with flipped kinetic and
    potential signs, so its conserved energy is minus the usual oscillator
    energy.
    """
    x, xdot, y, ydot = state
    ex = 0.5 * p.mass * xdot ** 2 + 0.5 * p.stiffness * x ** 2
    ey = -(0.5 * p.mass * ydot ** 2 + 0.5 * p.stiffness * y ** 2)
    return ex, ey


def mechanical_energy(x: float, xdot: float, p: OscParams) -> float:
    return 0.5 * p.mass * xdot ** 2 + 0.5 * p.stiffness * x ** 2


class Formalism(NamedTuple):
    """What a run of one formalism needs: its right-hand side rhs(state, p),
    the state columns, and the summary columns after t with the function
    summary_row(state, t, p) that fills them."""

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
        dekker_complex_rhs, _DOUBLED, ("energy_x", "energy_y"),
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


def integrate_rk4(rhs, state0, dt: float, n_steps: int) -> np.ndarray:
    """Classical fixed-step 4th-order Runge-Kutta.

    The state is stepped as a list of Python floats (`rhs` returns a float
    sequence): far cheaper than NumPy arrays at 2 or 4 components, and the
    same bits, since the operation order is the array formula's.

    Returns an (n_steps + 1, dim) trajectory including the initial state.
    Raises ConfigurationError for a dt or n_steps no run can use, and
    BlowUpError (carrying the partial trajectory) as soon as any
    state component exceeds the 1e12 overflow threshold or goes non-finite;
    anti-damped growth below the threshold is legitimate output.
    """
    check_stepping(dt, n_steps, 1)
    state = np.asarray(state0, dtype=float).tolist()
    traj = np.empty((n_steps + 1, len(state)))
    traj[0] = state
    h, sixth = 0.5 * dt, dt / 6.0
    for step in range(1, n_steps + 1):
        k1 = rhs(state)
        k2 = rhs([s + h * k for s, k in zip(state, k1)])
        k3 = rhs([s + h * k for s, k in zip(state, k2)])
        k4 = rhs([s + dt * k for s, k in zip(state, k3)])
        state = [s + sixth * (a + 2.0 * b + 2.0 * c + d)
                 for s, a, b, c, d in zip(state, k1, k2, k3, k4)]
        traj[step] = state
        if not all(math.isfinite(s) and abs(s) <= OVERFLOW_THRESHOLD
                   for s in state):
            raise BlowUpError(f"blow-up at step {step}", step=step,
                              partial=traj[: step + 1])
    return traj
