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
the stack of moving channels that `evolve_hj` steps by RK4. A channel
whose rate is one constant (inert, see `_inert_rows`) steps as one number,
so a step makes 8 FFT calls while any channel moves and none when none
does. The masses m0..mN are those of the run's DualParams, one per channel.

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
real HJ equation; `scenarios.expand` accepts only such explicit configs,
whose environment channels are all inert.
The closure rule adds (i zeta / 2m) u_xx, the Laplacian that makes it the
Schrodinger equation for psi.
"""

from __future__ import annotations

import math
import sys
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


def _hj_rhs(slopes, pot: PotentialSet, p: DualParams, grid: Grid1D, rows=None):
    """The right-hand side `evolve_hj` steps: rate(v) gives the time
    derivative of the stack v of channel rows `rows` (by default every
    channel, else an ascending list that starts 0, 1 under the closure
    rule) and the gradients g_i = slope_i + d/dx v_i it used. Every
    coefficient fixed for the run is computed here, once:

        a   = (-1/2m0, +1/2m1, ..., +1/2mN)
        b_n = -(1/2m0 + 1/2mn)                 for n >= 1
        c   = zeta / (2 kinetic_mass)          (closure rule only)

    and each stage writes the rate in this operation order, the channel sum
    reduced in channel order (a BLAS product's order depends on the CPU):

        row 0       = sum_i a_i (g_i g_i) - Vg0  [- c lap S1]
        rows n >= 1 = (g0 gn) b_n         - Vgn  [+ c lap S0, row 1 only]

    Each coefficient is broadcast to full rows once: a same-shape product
    costs less than a (n_ch, 1) column broadcast. A channel left out of
    `rows` must be one `evolve_hj` steps as inert, a uniform row of slope
    +0.0 whose a_n (0 0) adds +0.0 to row 0's sum; adding +0.0 anywhere in
    a sum equals adding it last, so it is folded into -Vg0 once.

    One rfft of the stack and one irfft of the stacked spectra times the
    derivative multipliers give every channel gradient and, under the
    closure rule, lap S0 and lap S1; each row equals the 1-D transform of
    that channel bit for bit. rate(v, spectral=False) makes no transform
    and takes every derivative as 0, which is the spectral derivative of a
    uniform row up to the sign of zero.

    Raises ConfigurationError unless p.masses and pot.vg hold one entry per
    channel, or when some 1/(2 m_i) leaves the float range: times a zero
    gradient it would give NaN, a blow-up that only the configuration
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
    rows = list(range(n_ch)) if rows is None else rows
    m = len(rows)
    closure = pot.mode == SYMMETRIC_CLOSURE

    def full_rows(column):
        return np.repeat(np.reshape(column, (-1, 1)), n, axis=1)

    slope_rows = full_rows([slopes[i] for i in rows])
    a = full_rows([-inv[0], *(inv[i] for i in rows[1:])])
    b = full_rows([-(inv[0] + inv[i]) for i in rows[1:]])
    neg_vg = -pot.values[rows]
    if m < n_ch:
        neg_vg[0] += 0.0  # the inert rows' +0.0 terms of row 0's sum
    mult1 = grid.derivative_multipliers[1, True]
    if closure:
        mult2 = grid.derivative_multipliers[2, True]
        c = p.kinetic_rate_coeff
        coupling = full_rows((c, -c))

    def rate(v, spectral=True):
        if spectral:
            spectra = np.fft.rfft(v)
            if closure:
                spectra = np.concatenate((spectra * mult1, spectra[:2] * mult2))
            else:
                spectra *= mult1
            derivs = np.fft.irfft(spectra, n=n)
        else:
            derivs = np.zeros((m + 2 * closure, n))
        # a new array, so a recorded stack keeps no Laplacian rows alive
        grads = derivs[:m] + slope_rows
        terms = grads * grads
        terms *= a
        if m == 1:
            out = terms
        else:
            out = np.empty_like(terms)
            np.add.reduce(terms, axis=0, out=out[0])
            np.multiply(grads[1:], grads[0], out=out[1:])
            out[1:] *= b
        out += neg_vg
        # only the closure rule adds coupling potentials, to S0 and S1
        if closure:
            lap = derivs[m:]
            lap *= coupling
            out[:2] += lap[::-1]
        return out, grads

    return rate


def _negative_zero(x: float) -> bool:
    return x == 0.0 and math.copysign(1.0, x) < 0.0


def _inert_rows(v, slopes, pot: PotentialSet):
    """The channels `evolve_hj` steps as one number each, since every stage
    rate of theirs is one constant. A row is flat when its samples, its Vg
    and its gradient are uniform: equal samples with a finite zero mode
    n v_i (else the spectral gradient is NaN), equal Vg samples. A -0.0
    sample or slope is not flat: a zero gradient's sign, and the sum of a
    -0.0 sample with a zero rate, would follow the other rows. All rows are
    inert when all are flat. Otherwise S0 moves, and so does S1 under the
    closure rule, where it reads lap S0; a flat row n >= 1 (n >= 2 under
    the closure rule) with slope 0 is inert, since its rate
    (g0 0) b_n - Vgn is -Vgn up to the sign of zero."""
    n = v.shape[1]

    def flat(i):
        row, vg, x = v[i], pot.values[i], float(v[i, 0])
        return (math.isfinite(n * x) and not _negative_zero(x)
                and not _negative_zero(slopes[i])
                and bool(np.all(row == x)) and bool(np.all(vg == vg[0])))

    flags = [flat(i) for i in range(len(slopes))]
    if all(flags):
        return list(range(len(slopes)))
    first = 2 if pot.mode == SYMMETRIC_CLOSURE else 1
    return [i for i in range(first, len(slopes)) if flags[i] and slopes[i] == 0.0]


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

    The channels are classified once, by `_inert_rows`. An inert channel
    steps as one float by its constant rate, in the RK4 update's operation
    order, and its gradient is its slope; S0 alone moves in every explicit
    run `scenarios.expand` accepts. Each RK4 stage of the moving channels is
    one batched rfft/irfft pair of the rate `_hj_rhs` builds once per run;
    the stage at a new state gives the caustic check its gradients and is
    the next step's k1, so a step makes 8 FFT calls in either potential
    mode while any channel moves, and none when every channel is inert. A
    recorded step is given that stage's gradients, with the inert rows
    broadcast, so it costs no transform. The stage states and the update
    v + (dt/6)(k1 + 2 k2 + 2 k3 + k4) are formed in place, in that
    formula's operation order. Samples and gradients are bitwise those of
    stepping every channel spectrally: on a power-of-two grid the spectral
    derivative of a uniform row is exactly 0.

    Raises ConfigurationError where `_hj_rhs` does, when the closure rate
    dt * c * k_max^2, c = zeta / (2 kinetic_mass), or the potentials alone
    in the RK4 stage sum overflow. Aborts with
    BlowUpError("caustic/blow-up detected at step s") when any channel
    gradient exceeds GRADIENT_BLOWUP_THRESHOLD or is not finite, which
    covers non-finite fields: one non-finite sample makes its channel's
    whole gradient row NaN (its zero mode times the multiplier 0), and so
    does a uniform row whose zero mode n v leaves the float range at some
    stage of the step. The exception carries the record as given every
    recorded step before the stop. The check runs at every step, not only
    at the recorded ones.
    """
    steps = snapshot_steps(dt, n_steps, snapshot_every)
    grid, slopes = S0.grid, S0.slopes
    n_ch, n = len(slopes), grid.n_points
    rate = _hj_rhs(slopes, pot, p, grid)
    if pot.mode == SYMMETRIC_CLOSURE:
        p.check_kinetic_rate(grid, dt, "closure")
    # the stage sum k1 + 2 k2 + 2 k3 + k4 adds Vg six times per channel
    vmax = pot.max_abs()
    if not math.isfinite(6.0 * vmax):
        raise ConfigurationError(f"potential max|Vg| = {vmax:g} overflows "
                                 "the RK4 stage sum 6 max|Vg|")
    ramps = np.reshape(slopes, (-1, 1)) * grid.x
    record = HJTrajectory() if record is None else record
    h, sixth = 0.5 * dt, dt / 6.0

    v0 = S0.values_stack()
    inert = _inert_rows(v0, slopes, pot)
    moving = [i for i in range(n_ch) if i not in inert]
    w = v0[inert, 0].tolist()
    v = v0[moving]
    # n x leaves the float range, and a zero mode goes NaN, where |x| > lim
    lim = sys.float_info.max / n

    def stack(moving_rows, inert_rows):
        if not inert:
            return moving_rows
        out = np.empty((n_ch, n))
        out[moving] = moving_rows
        out[inert] = inert_rows
        return out

    # the gradient check below reports any overflow as a blow-up
    with np.errstate(over="ignore", invalid="ignore"):
        # an inert row's rate and gradient are those at zero derivatives
        k, inert_grads = rate(v0, spectral=False)
        inert_grads = inert_grads[inert]
        inert_ok = (float(np.max(np.abs(inert_grads), initial=0.0))
                    <= GRADIENT_BLOWUP_THRESHOLD)
        # each inert row's last stage offset k dt and its step increment; the
        # stages at k h lie between x and x + k dt
        offsets = [(r * dt, ((((r * 2.0) + r) + r * 2.0) + r) * sixth)
                   for r in k[inert, 0].tolist()]
        if inert and moving:
            rate = _hj_rhs(slopes, pot, p, grid, moving)
        stage = np.empty_like(v)
        # with no moving row, v and its gradient stack have no rows
        k1, grads = rate(v) if moving else (None, v)
        record.add(0.0, ramps + v0, stack(grads, inert_grads))
        for start, stop in zip(steps, steps[1:]):
            for step in range(start + 1, stop + 1):
                ok = inert_ok
                if moving:
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
                    ok = ok and float(np.max(np.abs(grads))) <= GRADIENT_BLOWUP_THRESHOLD
                for j, (kdt, increment) in enumerate(offsets):
                    x = w[j]
                    w[j] = x + increment
                    ok = ok and abs(x + kdt) <= lim and abs(w[j]) <= lim
                if not ok:
                    raise BlowUpError(f"caustic/blow-up detected at step {step}",
                                      step=step, partial=record)
            record.add(stop * dt, ramps + stack(v, np.reshape(w, (-1, 1))),
                       stack(grads, inert_grads))
    return record


def participation_metric(gradients: np.ndarray) -> np.ndarray:
    """Gram field W(x) = sum_{mu>=1} (dS_mu)^2 of one recorded gradient stack:
    the sum over the environment rows, the system row 0 excluded. In 1D the
    metric is a single non-negative scalar field."""
    return np.sum(gradients[1:] * gradients[1:], axis=0)
