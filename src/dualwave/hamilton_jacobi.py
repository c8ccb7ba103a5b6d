"""Coupled system/environment Hamilton-Jacobi field dynamics on the grid.

The system action S0 and N >= 1 environment actions S1..SN evolve under

    dS0/dt = -[ (grad S0)^2/2m0 - sum_n (grad Sn)^2/2m_n + Vg0 + Vc0 ]
    dSn/dt = -[ grad S0 . grad Sn/2m0 + grad S0 . grad Sn/2m_n + Vgn + Vcn ]

The coupling potentials Vc are the closure rule (`closure_couplings`) in
`symmetric_closure` mode and zero in `explicit` mode. The right-hand side
is written once, in `_hj_rhs_values`, which evaluates it on the
(N + 1, n_points) channel stack that `evolve_hj` steps by RK4. The masses
m0..mN are those of the run's DualParams, one per channel.

Each channel is stored as a periodic sample array plus an optional linear
slope, S_i(x) = slope_i * x + periodic_i(x). Only the periodic part is
differentiated spectrally (a bare linear ramp is not representable on a
periodic grid), and since every right-hand side above is periodic in x the
slopes are constants of the motion. Smooth flow only: when characteristics
cross, gradients blow up and evolve_hj raises BlowUpError with the partial
trajectory instead of switching to a viscosity solution.

Explicit coupling without the closure rule is ill-posed, as on the wave
route (see `wavesolver`). With one environment channel and m0 == m1 == m
the explicit pair is one complex equation for u = S0 + i S1,

    u_t = -(u_x)^2 / 2m - Vg0 - i Vg1

the wave route's L = ln psi = i u / zeta. Linearized, the mode exp(iqx)
grows at |q| |dSn/dx| / m for each environment channel n, without bound in
q wherever an Sn has a gradient. An Sn with slope 0, uniform samples and a
uniform Vgn stays uniform, Sn(t) = Sn(0) - Vgn t, and S0 then follows the
real HJ equation; `scenarios.expand` accepts only such explicit configs.
The closure rule adds (i zeta / 2m) u_xx, the Laplacian that makes it the
Schrodinger equation for psi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from dualwave.core import (
    BlowUpError,
    ConfigurationError,
    DualParams,
    Grid1D,
    RealField,
    snapshot_steps,
    spectral_derivative_values,  # noqa: F401  benchmarks/layers.py wraps this binding
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
            raise ConfigurationError("need at least two channels (system + environment)")
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


@dataclass(frozen=True)
class PotentialSet:
    """One guiding potential Vg per action channel, plus the coupling mode.

    `values` is the (n_ch, N) stack of the Vg samples, built once; the HJ
    rate adds it to every channel's row at once. In
    `symmetric_closure` mode the coupling potentials are the closure rule,
    recomputed from the current action fields on every evaluation
    (Vc0 = (zeta/4m) lap S1, Vc1 = -(zeta/4m) lap S0, zero for higher
    channels). In `explicit` mode there are none; where that mode is well
    posed a coupling would be a second guiding potential (module docstring).
    """

    vg: tuple
    mode: str = EXPLICIT

    def __post_init__(self):
        if self.mode not in (EXPLICIT, SYMMETRIC_CLOSURE):
            raise ValueError(f"unknown potential mode {self.mode!r}")
        object.__setattr__(self, "vg", tuple(self.vg))
        object.__setattr__(self, "values", np.stack([vg.values for vg in self.vg]))

    @classmethod
    def zeros(cls, grid, n_channels, mode=EXPLICIT) -> "PotentialSet":
        return cls(tuple(RealField.zeros(grid) for _ in range(n_channels)), mode)

    def max_abs(self) -> float:
        """max|Vg_i| over every channel."""
        return float(np.max(np.abs(self.values)))


def closure_couplings(lap_s0: np.ndarray, lap_s1: np.ndarray, p: DualParams):
    """The closure rule (Vc0, Vc1) = ((zeta/4m) lap S1, -(zeta/4m) lap S0):
    the coupling potentials that cancel the wave equation's Laplacian terms."""
    coeff = p.zeta / (2.0 * p.kinetic_mass)
    return coeff * lap_s1, -coeff * lap_s0


def _hj_rhs_values(values_2d: np.ndarray, slopes: np.ndarray, two_m: np.ndarray,
                   pot: PotentialSet, p: DualParams, grid: Grid1D) -> tuple:
    """Time derivatives of the (n_ch, N) channel stack and the gradients
    g_i they use, given the (n_ch, 1) columns of the slopes and of 2 m_i.
    The rate is assembled over the stack, row 0 g0^2/2m0 - sum_n gn^2/2mn
    and row n >= 1 g0 gn/2m0 + g0 gn/2mn, plus the Vg stack and the closure
    couplings (rows 0 and 1), then negated.

    One rfft of the stack and one irfft of the stacked spectra times the
    derivative multipliers give every channel gradient and, under the
    closure rule, lap S0 and lap S1; each row equals the 1-D transform of
    that channel bit for bit.
    """
    n_ch = values_2d.shape[0]
    closure = pot.mode == SYMMETRIC_CLOSURE
    spectra = np.fft.rfft(values_2d)
    mult = grid.derivative_multipliers
    derivs = np.fft.irfft(np.concatenate(
        (spectra * mult[1, True], spectra[:2 * closure] * mult[2, True])),
        n=grid.n_points)
    grads = slopes + derivs[:n_ch]
    kinetic = grads * grads / two_m
    cross = grads[0] * grads[1:]
    out = np.empty_like(values_2d)
    np.subtract(kinetic[0], kinetic[1:].sum(axis=0), out=out[0])
    np.add(cross / two_m[0, 0], cross / two_m[1:], out=out[1:])
    out += pot.values
    # only the closure rule adds coupling potentials, to S0 and S1
    if closure:
        vc0, vc1 = closure_couplings(derivs[n_ch], derivs[n_ch + 1], p)
        out[0] += vc0
        out[1] += vc1
    return np.negative(out, out=out), grads


@dataclass
class HJTrajectory:
    """The default record of `evolve_hj`, which keeps every recorded step:
    times, (n_ch, N) channel samples slope*x + periodic, gradient stacks."""

    times: list = field(default_factory=list)
    samples: list = field(default_factory=list)
    gradients: list = field(default_factory=list)

    def add(self, t: float, samples: np.ndarray, gradients: np.ndarray):
        self.times.append(t)
        self.samples.append(samples)
        self.gradients.append(gradients)


def evolve_hj(S0: ActionChannels, pot: PotentialSet, p: DualParams,
              dt: float, n_steps: int, snapshot_every: int = 1,
              record=None):
    """RK4 time integration of the coupled channel equations, giving the
    time, channel samples and gradient stack at each step of
    `core.snapshot_steps`, t = 0 included, to `record.add` and returning
    the record; by default a new HJTrajectory, which keeps them all. A
    caller that reads less passes a record that keeps less.

    Each RK4 stage is one batched rfft/irfft pair (`_hj_rhs_values`); the
    stage at a new state gives the caustic check its gradients and is the
    next step's k1, so a step makes 8 FFT calls in either potential mode.
    A recorded step is given that stage's gradients, so it costs no
    transform.

    Raises ConfigurationError unless p.masses and pot.vg hold one entry
    per channel, or when the potentials alone overflow the RK4 stage sum. Aborts
    with BlowUpError("caustic/blow-up detected at step s") when any channel
    gradient exceeds GRADIENT_BLOWUP_THRESHOLD or fields go non-finite; the
    exception carries the record as given every recorded step before the
    stop. The check runs at every step, not only at the recorded ones.
    """
    steps = snapshot_steps(dt, n_steps, snapshot_every)
    grid, n_ch = S0.grid, S0.n_channels
    if not len(p.masses) == len(pot.vg) == n_ch:
        raise ConfigurationError(
            f"{n_ch} action channels need one mass and one guiding potential "
            f"each, got {len(p.masses)} masses and {len(pot.vg)} potentials")
    # the stage sum k1 + 2 k2 + 2 k3 + k4 adds Vg six times per channel
    vmax = pot.max_abs()
    if not math.isfinite(6.0 * vmax):
        raise ConfigurationError(f"potential max|Vg| = {vmax:g} overflows "
                                 "the RK4 stage sum 6 max|Vg|")
    slopes = np.reshape(S0.slopes, (-1, 1))
    two_m = np.reshape([2.0 * m for m in p.masses], (-1, 1))  # 2 * 1e308: inf, unwarned
    ramps = slopes * grid.x
    record = HJTrajectory() if record is None else record

    def rhs(v):
        return _hj_rhs_values(v, slopes, two_m, pot, p, grid)

    # the finiteness and gradient check below reports any overflow as a blow-up
    with np.errstate(over="ignore", invalid="ignore"):
        v = S0.values_stack()
        k1, grads = rhs(v)
        record.add(0.0, ramps + v, grads)
        for start, stop in zip(steps, steps[1:]):
            for step in range(start + 1, stop + 1):
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
                                      step=step, partial=record)
            record.add(stop * dt, ramps + v, grads)
    return record


def participation_metric(gradients: np.ndarray) -> np.ndarray:
    """Gram field W(x) = sum_{mu>=1} (dS_mu)^2 of one recorded gradient stack:
    the sum over the environment rows, the system row 0 excluded. In 1D the
    metric is a single non-negative scalar field."""
    return np.sum(gradients[1:] * gradients[1:], axis=0)
