"""Coupled system/environment Hamilton-Jacobi field dynamics on the grid.

The system action S0 and N >= 1 environment actions S1..SN evolve under

    dS0/dt = -[ (grad S0)^2/2m0 - sum_n (grad Sn)^2/2m_n + Vg0 + Vc0 ]
    dSn/dt = -[ grad S0 . grad Sn/2m0 + grad S0 . grad Sn/2m_n + Vgn + Vcn ]

The coupling potentials Vc are the closure rule in `symmetric_closure`
mode, Vc0 = (zeta/4m) lap S1 and Vc1 = -(zeta/4m) lap S0 with m the
reduced mass, and zero in `explicit` mode. The right-hand side is written
once, in `_hj_rhs`, as dS0/dt = sum_i a_i (grad S_i)^2 - Vg0 - Vc0 and
dSn/dt = b_n grad S0 grad Sn - Vgn - Vcn with coefficients computed once
per run, a = (-1/2m0, +1/2m1, ..., +1/2mN) and b_n = -(1/2m0 + 1/2mn), on
the (N + 1, n_points) channel stack that `evolve_hj` steps by RK4. The
masses m0..mN are those of the run's DualParams, one per channel.

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


def _hj_rhs(slopes, pot: PotentialSet, p: DualParams, grid: Grid1D):
    """The right-hand side `evolve_hj` steps: rate(v) gives the time
    derivative of the (n_ch, N) channel stack v and the gradients
    g_i = slope_i + d/dx v_i it used. Every coefficient fixed for the run
    is computed here, once:

        a   = (-1/2m0, +1/2m1, ..., +1/2mN)
        b_n = -(1/2m0 + 1/2mn)                 for n >= 1
        c   = zeta / (2 kinetic_mass)          (closure rule only)

    and each stage writes the rate in this operation order, the channel sum
    reduced in channel order (a BLAS product's order depends on the CPU):

        row 0       = sum_i a_i (g_i g_i) - Vg0  [- c lap S1]
        rows n >= 1 = (g0 gn) b_n         - Vgn  [+ c lap S0, row 1 only]

    Each coefficient is broadcast to full rows once: a same-shape product
    costs less than a (n_ch, 1) column broadcast.

    One rfft of the stack and one irfft of the stacked spectra times the
    derivative multipliers give every channel gradient and, under the
    closure rule, lap S0 and lap S1; each row equals the 1-D transform of
    that channel bit for bit.

    Raises ConfigurationError unless p.masses and pot.vg hold one entry per
    channel, or when some 1/(2 m_i) or c leaves the float range: times a
    zero gradient it would give NaN, a blow-up that only the configuration
    caused.
    """
    n_ch, n = len(slopes), grid.n_points
    if not len(p.masses) == len(pot.vg) == n_ch:
        raise ConfigurationError(
            f"{n_ch} action channels need one mass and one guiding potential "
            f"each, got {len(p.masses)} masses and {len(pot.vg)} potentials")
    inv = [1.0 / (2.0 * m) for m in p.masses]
    if not all(map(math.isfinite, inv)):
        raise ConfigurationError(f"masses {p.masses}: some 1/(2 m_i) leaves the "
                                 "float range; raise the masses")
    closure = pot.mode == SYMMETRIC_CLOSURE
    if closure:
        # kinetic_mass is 0 where 1/m0 + 1/m1 overflows though each 1/(2 m_i) does not
        km = p.kinetic_mass
        c = p.zeta / (2.0 * km) if km > 0.0 else math.inf
        if not math.isfinite(c):
            raise ConfigurationError(
                f"closure coefficient zeta / (2 kinetic_mass) at zeta = {p.zeta:g} and "
                f"masses {p.masses} leaves the float range; lower zeta or raise the masses")

    def rows(column):
        return np.repeat(np.reshape(column, (-1, 1)), n, axis=1)

    slope_rows = rows(slopes)
    a = rows([-inv[0], *inv[1:]])
    b = rows([-(inv[0] + w) for w in inv[1:]])
    neg_vg = -pot.values
    mult1 = grid.derivative_multipliers[1, True]
    if closure:
        mult2 = grid.derivative_multipliers[2, True]
        coupling = rows((c, -c))

    def rate(v):
        spectra = np.fft.rfft(v)
        if closure:
            spectra = np.concatenate((spectra * mult1, spectra[:2] * mult2))
        else:
            spectra *= mult1
        derivs = np.fft.irfft(spectra, n=n)
        # a new array, so a recorded stack keeps no Laplacian rows alive
        grads = derivs[:n_ch] + slope_rows
        out = np.empty_like(v)
        terms = grads * grads
        terms *= a
        np.add.reduce(terms, axis=0, out=out[0])
        np.multiply(grads[1:], grads[0], out=out[1:])
        out[1:] *= b
        out += neg_vg
        # only the closure rule adds coupling potentials, to S0 and S1
        if closure:
            lap = derivs[n_ch:]
            lap *= coupling
            out[:2] += lap[::-1]
        return out, grads

    return rate


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

    Each RK4 stage is one batched rfft/irfft pair of the rate `_hj_rhs`
    builds once per run; the stage at a new state gives the caustic check
    its gradients and is the next step's k1, so a step makes 8 FFT calls in
    either potential mode. A recorded step is given that stage's gradients,
    so it costs no transform. The stage states and the update
    v + (dt/6)(k1 + 2 k2 + 2 k3 + k4) are formed in place, in that
    formula's operation order.

    Raises ConfigurationError where `_hj_rhs` does, or when the potentials
    alone overflow the RK4 stage sum. Aborts with
    BlowUpError("caustic/blow-up detected at step s") when any channel
    gradient exceeds GRADIENT_BLOWUP_THRESHOLD or is not finite, which
    covers non-finite fields: one non-finite sample makes its channel's
    whole gradient row NaN (its zero mode times the multiplier 0). The
    exception carries the record as given every recorded step before the
    stop. The check runs at every step, not only at the recorded ones.
    """
    steps = snapshot_steps(dt, n_steps, snapshot_every)
    grid = S0.grid
    rate = _hj_rhs(S0.slopes, pot, p, grid)
    # the stage sum k1 + 2 k2 + 2 k3 + k4 adds Vg six times per channel
    vmax = pot.max_abs()
    if not math.isfinite(6.0 * vmax):
        raise ConfigurationError(f"potential max|Vg| = {vmax:g} overflows "
                                 "the RK4 stage sum 6 max|Vg|")
    ramps = np.reshape(S0.slopes, (-1, 1)) * grid.x
    record = HJTrajectory() if record is None else record
    h, sixth = 0.5 * dt, dt / 6.0

    # the gradient check below reports any overflow as a blow-up
    with np.errstate(over="ignore", invalid="ignore"):
        v = S0.values_stack()
        stage = np.empty_like(v)
        k1, grads = rate(v)
        record.add(0.0, ramps + v, grads)
        for start, stop in zip(steps, steps[1:]):
            for step in range(start + 1, stop + 1):
                k2, _ = rate(np.add(v, np.multiply(k1, h, out=stage), out=stage))
                k3, _ = rate(np.add(v, np.multiply(k2, h, out=stage), out=stage))
                k4, _ = rate(np.add(v, np.multiply(k3, dt, out=stage), out=stage))
                k2 *= 2.0
                k2 += k1
                k2 += np.multiply(k3, 2.0, out=k3)
                k2 += k4
                k2 *= sixth
                v += k2
                k1, grads = rate(v)
                if not float(np.max(np.abs(grads))) <= GRADIENT_BLOWUP_THRESHOLD:
                    raise BlowUpError(f"caustic/blow-up detected at step {step}",
                                      step=step, partial=record)
            record.add(stop * dt, ramps + v, grads)
    return record


def participation_metric(gradients: np.ndarray) -> np.ndarray:
    """Gram field W(x) = sum_{mu>=1} (dS_mu)^2 of one recorded gradient stack:
    the sum over the environment rows, the system row 0 excluded. In 1D the
    metric is a single non-negative scalar field."""
    return np.sum(gradients[1:] * gradients[1:], axis=0)
