"""Shared numerical substrate: periodic grid, field containers, spectral
calculus and the dual-sector parameters, and the one worker pool that
`sweep` and `verify` run their tasks on (`run_tasks`).

Everything downstream (oscillators, Hamilton-Jacobi fields, wave solvers)
works on a uniform periodic 1D grid. Derivatives are computed in Fourier
space, so they are exact for band-limited fields; quadrature is the
rectangle rule, which is spectrally accurate for smooth periodic
integrands.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class BlowUpError(RuntimeError):
    """An integration blew up; carries the step index and partial output.

    Attributes:
        step: index of the step at which the overflow/caustic was detected.
        partial: the output recorded before detection: a wave or HJ run's
            record, an oscillator run's state rows.
    """

    def __init__(self, message, step, partial=None):
        super().__init__(message)
        self.step = step
        self.partial = partial

    def __reduce__(self):
        # the default rebuilds from self.args alone, which lacks `step`
        return type(self), (str(self), self.step, self.partial)


class ConfigurationError(ValueError):
    """A scenario/run configuration is invalid (maps to CLI exit code 2)."""


OVERFLOW_THRESHOLD = 1e12  # a larger state magnitude counts as a blow-up


@dataclass(frozen=True)
class Integration:
    """Step size, step count and snapshot cadence of a run; raises
    ConfigurationError for values no run can use, and builds no schedule."""

    dt: float
    n_steps: int
    snapshot_every: int = 1

    def __post_init__(self):
        if not 0 < self.dt < math.inf:
            raise ConfigurationError(f"dt must be positive and finite, got {self.dt}")
        # beyond 2**53, step * dt no longer gives each step its own time
        if not 0 <= self.n_steps <= 2 ** 53:
            raise ConfigurationError(f"n_steps must be in [0, 2**53], got {self.n_steps}")
        if self.snapshot_every < 1:
            raise ConfigurationError(
                f"snapshot_every must be >= 1, got {self.snapshot_every}")


def usable_cpus() -> int:
    """The CPUs this process may run on; `run_tasks` starts one worker per CPU."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def run_tasks(fn, tasks) -> list:
    """[fn(task) for task in tasks], on one worker process per usable CPU.

    With more than one usable CPU and task, the tasks run on a process
    pool of min(CPUs, tasks) workers, started by the platform's default
    method, fork or spawn; otherwise they run in this process. Results
    come back in task order. When a task raises, the queued tasks are
    cancelled and its error is re-raised as itself; the pool is shut down
    before this returns. `fn` must be a module-level function, and each
    task and result must pickle.
    """
    tasks = list(tasks)
    workers = min(usable_cpus(), len(tasks))
    if workers <= 1:
        return [fn(task) for task in tasks]
    # imported here: importing the package loads no process pool
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(workers) as pool:
        futures = [pool.submit(fn, task) for task in tasks]
        try:
            return [future.result() for future in futures]
        except BaseException:
            # else every queued task runs before the error propagates
            pool.shutdown(cancel_futures=True)
            raise


def snapshot_steps(dt: float, n_steps: int, snapshot_every: int) -> list:
    """The steps every solver records, [0, e, 2e, ..., n_steps] with
    e = snapshot_every, the last always included; raises ConfigurationError
    for a step size, step count or snapshot cadence no run can use."""
    Integration(dt, n_steps, snapshot_every)
    try:
        return [*range(0, n_steps, snapshot_every), n_steps]
    except MemoryError:
        raise ConfigurationError(f"the schedule of {n_steps} steps at snapshot_every "
                                 f"= {snapshot_every} cannot be allocated") from None


@dataclass(frozen=True)
class Grid1D:
    """Uniform periodic grid on [x_min, x_max) with a power-of-two point count."""

    n_points: int
    x_min: float
    x_max: float

    def __post_init__(self):
        n = self.n_points
        if n <= 0 or (n & (n - 1)) != 0:
            raise ConfigurationError(
                f"n_points must be a positive power of two, got {n}")
        if not self.x_max > self.x_min:
            raise ConfigurationError(
                f"empty domain: x_min={self.x_min}, x_max={self.x_max}")
        # the solvers' second-derivative multipliers reach (pi/dx)^2
        kmax = math.pi / self.dx if self.dx > 0.0 else math.inf
        if not (math.isfinite(self.length) and math.isfinite(kmax * kmax)):
            raise ConfigurationError(f"domain [{self.x_min:g}, {self.x_max:g}) on {n} "
                                     f"points: length or (pi/dx)^2 leaves the float range")

    @property
    def length(self) -> float:
        return self.x_max - self.x_min

    @property
    def dx(self) -> float:
        return self.length / self.n_points

    @cached_property
    def x(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.n_points)

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        """Angular wavenumbers k_j = 2*pi*j/L in FFT layout."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n_points, d=self.dx)

    @cached_property
    def wavenumbers_real(self) -> np.ndarray:
        """Angular wavenumbers for the real-input (rfft) layout."""
        return 2.0 * np.pi * np.fft.rfftfreq(self.n_points, d=self.dx)

    @cached_property
    def derivative_multipliers(self) -> dict:
        """(1j*k)^order for orders 1, 2 keyed by (order, rfft_layout); the
        Nyquist mode (index n/2 in both layouts) is zeroed for odd orders."""
        out = {}
        for real, k in ((False, self.wavenumbers), (True, self.wavenumbers_real)):
            for order in (1, 2):
                out[order, real] = (1j * k) ** order
            out[1, real][self.n_points // 2] = 0.0
        return out

    @property
    def nyquist(self) -> float:
        return np.pi / self.dx


def _as_field_values(values, dtype, grid):
    arr = np.asarray(values, dtype=dtype)
    if arr.shape != (grid.n_points,):
        raise ValueError(
            f"field length {arr.shape} does not match grid ({grid.n_points},)")
    return arr


@dataclass(frozen=True)
class RealField:
    """Real-valued samples on a Grid1D (action channels, densities, potentials)."""

    values: np.ndarray
    grid: Grid1D

    def __post_init__(self):
        object.__setattr__(
            self, "values", _as_field_values(self.values, np.float64, self.grid))

    @classmethod
    def zeros(cls, grid) -> "RealField":
        return cls(np.zeros(grid.n_points), grid)


@dataclass(frozen=True)
class ComplexField:
    """Complex-valued samples on a Grid1D (wavefunctions)."""

    values: np.ndarray
    grid: Grid1D

    def __post_init__(self):
        object.__setattr__(
            self, "values", _as_field_values(self.values, np.complex128, self.grid))

    @classmethod
    def zeros(cls, grid) -> "ComplexField":
        return cls(np.zeros(grid.n_points, dtype=np.complex128), grid)


def spectral_derivative_values(values: np.ndarray, grid: Grid1D, order: int) -> np.ndarray:
    """Order-1 or order-2 derivative of samples along their last axis via the
    discrete Fourier transform: rfft for real values, fft for complex ones.

    The Nyquist mode is zeroed for odd orders, the standard convention that
    keeps first derivatives of real fields real. Band-limited fields are
    differentiated to spectral (near machine) accuracy. This is the hot
    path of the time steppers, so neither the order nor finiteness is
    checked here."""
    if np.iscomplexobj(values):
        return np.fft.ifft(grid.derivative_multipliers[order, False]
                           * np.fft.fft(values))
    return np.fft.irfft(grid.derivative_multipliers[order, True]
                        * np.fft.rfft(values), n=grid.n_points)


def field_norm(f) -> float:
    """Rectangle-rule L2 norm integral: sum_i |f_i|^2 dx."""
    v = f.values
    return float(np.sum(np.abs(v) ** 2) * f.grid.dx)


# --------------------------------------------------------------------------
# Physical parameters of the dual-sector pair
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DualParams:
    """Masses of the system/environment channels plus the action scale zeta.

    `masses[0]` is the system mass m0, `masses[1:]` the environment channel
    masses. The reduced mass m = (1/m0 + 1/m1)^-1 sets the kinetic scale of
    the composite pair; the residual inverse mass 1/m0 - 1/m1 measures the
    mass asymmetry and vanishes exactly in the symmetric limit m0 == m1.
    `zeta` is the one action scale every map and solver divides by; it
    plays the role of Planck's constant in the Schrodinger limit.
    """

    masses: tuple
    zeta: float = 1.0

    def __post_init__(self):
        masses = tuple(float(m) for m in self.masses)
        if len(masses) < 2:
            raise ConfigurationError("need at least masses (m0, m1)")
        if not all(0 < m < math.inf for m in masses):
            raise ConfigurationError(
                f"masses must be positive and finite, got {masses}")
        if not 0 < self.zeta < math.inf:
            raise ConfigurationError(
                f"zeta must be positive and finite, got {self.zeta}")
        object.__setattr__(self, "masses", masses)

    @property
    def m0(self) -> float:
        return self.masses[0]

    @property
    def m1(self) -> float:
        return self.masses[1]

    @property
    def reduced_mass(self) -> float:
        """(1/m0 + 1/m1)^-1; raises ConfigurationError where the sum
        overflows, which would make it 0."""
        inv = 1.0 / self.m0 + 1.0 / self.m1
        if not math.isfinite(inv):
            raise ConfigurationError(f"masses {self.masses}: 1/m0 + 1/m1 leaves the "
                                     "float range; raise the masses")
        return 1.0 / inv

    @property
    def kinetic_mass(self) -> float:
        """2 m_red: the wave equation's kinetic term is zeta^2 k^2 / (4 m_red),
        so its energy and probability flux carry this mass (m0 only when
        m0 == m1)."""
        return 2.0 * self.reduced_mass

    @property
    def kinetic_rate_coeff(self) -> float:
        """c = zeta / (2 kinetic_mass): the wave equation's kinetic term is
        i c lap psi, and c is the closure coefficient of the HJ route."""
        return self.zeta / (2.0 * self.kinetic_mass)

    def check_kinetic_rate(self, grid: Grid1D, dt: float, rate: str) -> None:
        """Raise ConfigurationError, naming the `rate`, when dt c k_max^2
        leaves the float range: the kinetic multipliers or the closure
        terms would be NaN, a blow-up that only the configuration caused."""
        kmax = grid.nyquist
        if not math.isfinite(self.kinetic_rate_coeff * kmax * kmax * dt):
            raise ConfigurationError(
                f"{rate} rate dt * zeta * k_max^2 / (2 kinetic_mass) at zeta = "
                f"{self.zeta:g}, masses {self.masses} and dt = {dt:g} leaves the "
                "float range; raise the masses or lower zeta or dt")

    @property
    def residual_inv_mass(self) -> float:
        """1/m0 - 1/m1; exactly zero iff m0 == m1."""
        if self.m0 == self.m1:
            return 0.0
        return 1.0 / self.m0 - 1.0 / self.m1
