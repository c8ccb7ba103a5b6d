"""Coupled system/environment Hamilton-Jacobi field dynamics on the grid.

The system action S0 and N >= 1 environment actions S1..SN evolve under

    dS0/dt = -[ (grad S0)^2/2m0 - sum_n (grad Sn)^2/2m_n + Vg0 + Vc0 ]
    dSn/dt = -[ grad S0 . grad Sn/2m0 + grad S0 . grad Sn/2m_n + Vgn + Vcn ]

The coupling potentials Vc are the stored ones in `explicit` potential
mode and the closure rule in `symmetric_closure` mode (`PotentialSet`).
The right-hand side is written once, in `_hj_rhs_values`, which evaluates
it on the (N + 1, n_points) channel stack that `evolve_hj` steps by RK4.
The masses m0..mN are those of the run's DualParams, one per channel.

Each channel is stored as a periodic sample array plus an optional linear
slope, S_i(x) = slope_i * x + periodic_i(x). Only the periodic part is
differentiated spectrally (a bare linear ramp is not representable on a
periodic grid), and since every right-hand side above is periodic in x the
slopes are constants of the motion. Smooth flow only: when characteristics
cross, gradients blow up and evolve_hj raises BlowUpError with the partial
trajectory instead of switching to a viscosity solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from dualwave.core import (
    BlowUpError,
    ConfigurationError,
    DualParams,
    Grid1D,
    RealField,
    check_stepping,
    spectral_derivative_values,
)

EXPLICIT = "explicit"
SYMMETRIC_CLOSURE = "symmetric_closure"

GRADIENT_BLOWUP_THRESHOLD = 1e6


@dataclass(frozen=True)
class ActionChannels:
    """Action fields S0..SN with optional linear slopes.

    channels[0] is the system action, channels[1:] the environment
    participation fields. All fields live on one grid; slopes default to
    zero and carry the non-periodic (mean-gradient) part of each channel.
    The channel masses are those of the run's DualParams.
    """

    channels: tuple
    slopes: tuple = ()

    def __post_init__(self):
        channels = tuple(self.channels)
        if len(channels) < 2:
            raise ValueError("need at least two channels (system + environment)")
        grid = channels[0].grid
        if any(ch.grid != grid for ch in channels):
            raise ValueError("all channels must share one grid")
        slopes = tuple(float(s) for s in self.slopes) if self.slopes else (
            (0.0,) * len(channels))
        if len(slopes) != len(channels):
            raise ValueError(
                f"slope count {len(slopes)} != channel count {len(channels)}")
        object.__setattr__(self, "channels", channels)
        object.__setattr__(self, "slopes", slopes)

    @property
    def grid(self) -> Grid1D:
        return self.channels[0].grid

    @property
    def n_channels(self) -> int:
        return len(self.channels)

    def values_stack(self) -> np.ndarray:
        return np.stack([ch.values for ch in self.channels])

    def gradient(self, i: int) -> np.ndarray:
        """Total gradient of channel i: slope + spectral d/dx of the periodic part."""
        return self.slopes[i] + spectral_derivative_values(
            self.channels[i].values, self.grid, 1)

    def total_samples(self, i: int) -> np.ndarray:
        """Channel samples including the linear ramp, slope*x + periodic part."""
        return self.slopes[i] * self.grid.x + self.channels[i].values

    def with_values(self, values_2d: np.ndarray) -> "ActionChannels":
        return ActionChannels(
            tuple(RealField(values_2d[i], self.grid) for i in range(self.n_channels)),
            self.slopes)


@dataclass(frozen=True)
class PotentialSet:
    """Guiding potentials per channel plus coupling potentials or a closure rule.

    In `symmetric_closure` mode the coupling potentials are recomputed from
    the current action fields on every evaluation (Vc0 = (zeta/4m) lap S1,
    Vc1 = -(zeta/4m) lap S0, zero for higher channels), so stored vc arrays
    are rejected: the rule would ignore them. In `explicit` mode the stored
    vc arrays are used as given (missing vc means zero coupling).
    """

    vg: tuple
    vc: tuple | None = None
    mode: str = EXPLICIT

    def __post_init__(self):
        if self.mode not in (EXPLICIT, SYMMETRIC_CLOSURE):
            raise ValueError(f"unknown potential mode {self.mode!r}")
        if self.vc is not None and self.mode == SYMMETRIC_CLOSURE:
            raise ConfigurationError(
                "stored coupling potentials vc<i> are used only with "
                "potential_mode = explicit")
        object.__setattr__(self, "vg", tuple(self.vg))
        if self.vc is not None:
            object.__setattr__(self, "vc", tuple(self.vc))

    @classmethod
    def zeros(cls, grid, n_channels, mode=EXPLICIT) -> "PotentialSet":
        return cls(tuple(RealField.zeros(grid) for _ in range(n_channels)),
                   None, mode)

    def vg_values(self, i: int, grid) -> np.ndarray:
        if i < len(self.vg):
            return self.vg[i].values
        return np.zeros(grid.n_points)

    def vc_values(self, i: int, grid) -> np.ndarray:
        if self.vc is not None and i < len(self.vc):
            return self.vc[i].values
        return np.zeros(grid.n_points)

    def max_abs(self, grid, n_channels: int) -> float:
        """max(|Vg_i|, |Vc_i|) over the first n_channels channels."""
        return max(float(np.max(np.abs(values(i, grid))))
                   for values in (self.vg_values, self.vc_values)
                   for i in range(n_channels))


def closure_couplings(lap_s0: np.ndarray, lap_s1: np.ndarray, p: DualParams):
    """The closure rule (Vc0, Vc1) = ((zeta/4m) lap S1, -(zeta/4m) lap S0):
    the coupling potentials that cancel the wave equation's Laplacian terms."""
    coeff = p.zeta / (2.0 * p.kinetic_mass)
    return coeff * lap_s1, -coeff * lap_s0


def _hj_rhs_values(values_2d: np.ndarray, slopes, pot: PotentialSet,
                   p: DualParams, grid: Grid1D) -> tuple:
    """Time derivatives of the channel stack and the gradients they use.

    One rfft of the (n_ch, N) stack and one irfft of the stacked spectra
    times the derivative multipliers give every channel gradient and, under
    the closure rule, lap S0 and lap S1; each row equals the 1-D transform
    of that channel bit for bit.
    """
    n_ch, masses = values_2d.shape[0], p.masses
    closure = pot.mode == SYMMETRIC_CLOSURE
    spectra = np.fft.rfft(values_2d)
    mult = grid.derivative_multipliers
    derivs = np.fft.irfft(np.concatenate(
        (spectra * mult[1, True], spectra[:2 * closure] * mult[2, True])),
        n=grid.n_points)
    grads = np.reshape(slopes, (-1, 1)) + derivs[:n_ch]
    env_kinetic = grads[1] * grads[1] / (2.0 * masses[1])
    for n in range(2, n_ch):
        env_kinetic = env_kinetic + grads[n] * grads[n] / (2.0 * masses[n])
    out = np.empty_like(values_2d)
    out[0] = grads[0] * grads[0] / (2.0 * masses[0]) - env_kinetic
    for n in range(1, n_ch):
        cross = grads[0] * grads[n]
        out[n] = cross / (2.0 * masses[0]) + cross / (2.0 * masses[n])
    for n in range(n_ch):
        out[n] += pot.vg_values(n, grid)
    # only the channels that have coupling potentials add them
    vc = (closure_couplings(derivs[n_ch], derivs[n_ch + 1], p) if closure
          else [f.values for f in pot.vc or ()])
    for row, vc_row in zip(out, vc):
        row += vc_row
    return -out, grads


@dataclass
class HJTrajectory:
    """Time series of channel states at the snapshot cadence."""

    times: list
    states: list  # list of ActionChannels


def evolve_hj(S0: ActionChannels, pot: PotentialSet, p: DualParams,
              dt: float, n_steps: int, snapshot_every: int = 1) -> HJTrajectory:
    """RK4 time integration of the coupled channel equations.

    Each RK4 stage is one batched rfft/irfft pair (`_hj_rhs_values`); the
    stage at a new state gives the caustic check its gradients and is the
    next step's k1, so a step makes 8 FFT calls in either potential mode.

    Raises ConfigurationError when p.masses does not hold one mass per
    channel or when the potentials alone overflow the RK4 stage sum. Aborts
    with BlowUpError("caustic/blow-up detected at step s") when any channel
    gradient exceeds GRADIENT_BLOWUP_THRESHOLD or fields go non-finite; the
    exception carries the partial HJTrajectory so far.
    """
    check_stepping(dt, n_steps, snapshot_every)
    grid, n_ch = S0.grid, S0.n_channels
    if len(p.masses) != n_ch:
        raise ConfigurationError(
            f"{n_ch} action channels need {n_ch} masses, got {len(p.masses)}")
    # the stage sum k1 + 2 k2 + 2 k3 + k4 adds Vg + Vc six times per channel
    vmax = pot.max_abs(grid, n_ch)
    if not math.isfinite(6.0 * vmax * (1.0 if pot.vc is None else 2.0)):
        raise ConfigurationError(f"potential max(|Vg|, |Vc|) = {vmax:g} overflows "
                                 "the RK4 stage sum 6 max|Vg + Vc|")
    slopes = np.reshape(S0.slopes, (-1, 1))

    def rhs(v):
        return _hj_rhs_values(v, slopes, pot, p, grid)

    traj = HJTrajectory(times=[0.0], states=[S0])
    # the finiteness and gradient check below reports any overflow as a blow-up
    with np.errstate(over="ignore", invalid="ignore"):
        v = S0.values_stack()
        k1, _ = rhs(v)
        for step in range(1, n_steps + 1):
            k2, _ = rhs(v + 0.5 * dt * k1)
            k3, _ = rhs(v + 0.5 * dt * k2)
            k4, _ = rhs(v + dt * k3)
            v = v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            bad = not np.all(np.isfinite(v))
            if not bad:
                k1, grads = rhs(v)
                bad = float(np.max(np.abs(grads))) > GRADIENT_BLOWUP_THRESHOLD
            if bad:
                raise BlowUpError(f"caustic/blow-up detected at step {step}",
                                  step=step, partial=traj)
            if step % snapshot_every == 0 or step == n_steps:
                traj.times.append(step * dt)
                traj.states.append(S0.with_values(v))
    return traj


def participation_metric(S: ActionChannels) -> RealField:
    """Gram field of environment-channel gradients, W(x) = sum_{mu>=1} (dS_mu)^2.

    In 1D the metric is a single non-negative scalar field; the system
    channel (index 0) is excluded from the sum.
    """
    w = np.zeros(S.grid.n_points)
    for mu in range(1, S.n_channels):
        g = S.gradient(mu)
        w += g * g
    return RealField(w, S.grid)
