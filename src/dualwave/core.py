"""Shared numerical substrate: periodic grid, field containers, spectral
calculus, and quaternion arithmetic.

Everything downstream (oscillators, Hamilton-Jacobi fields, wave solvers)
works on a uniform periodic 1D grid. Derivatives are computed in Fourier
space, so they are exact for band-limited fields; quadrature is the
rectangle rule, which is spectrally accurate for smooth periodic
integrands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class NonFiniteFieldError(ValueError):
    """A field contains NaN/Inf where a finite field is required."""


class BlowUpError(RuntimeError):
    """An integration blew up; carries the step index and partial output.

    Attributes:
        step: index of the step at which the overflow/caustic was detected.
        partial: whatever trajectory prefix was completed before detection.
    """

    def __init__(self, message, step, partial=None):
        super().__init__(message)
        self.step = step
        self.partial = partial


class ConfigurationError(ValueError):
    """A scenario/run configuration is invalid (maps to CLI exit code 2)."""


def check_stepping(dt: float, n_steps: int, snapshot_every: int):
    """Reject a step size, step count or snapshot cadence no run can use."""
    if not 0 < dt < math.inf:
        raise ConfigurationError(f"dt must be positive and finite, got {dt}")
    if n_steps < 0:
        raise ConfigurationError(f"n_steps must be >= 0, got {n_steps}")
    if snapshot_every < 1:
        raise ConfigurationError(
            f"snapshot_every must be >= 1, got {snapshot_every}")


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


def spectral_derivative(f, order: int):
    """Order-1 or order-2 derivative of a field via the discrete Fourier transform.

    The Nyquist mode is zeroed for odd orders, the standard convention that
    keeps first derivatives of real fields real. Band-limited fields are
    differentiated to spectral (near machine) accuracy.
    """
    if order not in (1, 2):
        raise ValueError(f"derivative order must be 1 or 2, got {order}")
    if not np.all(np.isfinite(f.values)):
        raise NonFiniteFieldError("non-finite field")
    return type(f)(spectral_derivative_values(f.values, f.grid, order), f.grid)


def spectral_derivative_values(values: np.ndarray, grid: Grid1D, order: int) -> np.ndarray:
    """Array-level spectral derivative (hot path used by the time steppers)."""
    if np.iscomplexobj(values):
        return np.fft.ifft(grid.derivative_multipliers[order, False]
                           * np.fft.fft(values))
    return np.fft.irfft(grid.derivative_multipliers[order, True]
                        * np.fft.rfft(values), n=grid.n_points)


def field_norm(f) -> float:
    """Rectangle-rule L2 norm integral: sum_i |f_i|^2 dx."""
    v = f.values
    return float(np.sum(np.abs(v) ** 2) * f.grid.dx)


def integrate(values: np.ndarray, grid: Grid1D) -> float:
    """Rectangle-rule integral of samples over the periodic domain."""
    return float(np.sum(values) * grid.dx)


# --------------------------------------------------------------------------
# Quaternions
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Quaternion:
    """Quaternion w + x*i + y*j + z*k with the Hamilton product.

    The units satisfy i^2 = j^2 = k^2 = ijk = -1, so ij = k, jk = i, ki = j
    and distinct units anticommute.
    """

    w: float
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    def __add__(self, other):
        return Quaternion(self.w + other.w, self.x + other.x,
                          self.y + other.y, self.z + other.z)

    def __sub__(self, other):
        return Quaternion(self.w - other.w, self.x - other.x,
                          self.y - other.y, self.z - other.z)

    def __neg__(self):
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return Quaternion(self.w * other, self.x * other,
                              self.y * other, self.z * other)
        a, b, c, d = self.w, self.x, self.y, self.z
        e, f, g, h = other.w, other.x, other.y, other.z
        return Quaternion(
            a * e - b * f - c * g - d * h,
            a * f + b * e + c * h - d * g,
            a * g - b * h + c * e + d * f,
            a * h + b * g - c * f + d * e,
        )

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return self * other
        return NotImplemented

    def norm(self) -> float:
        return math.sqrt(self.w ** 2 + self.x ** 2 + self.y ** 2 + self.z ** 2)

    def inverse(self) -> "Quaternion":
        n2 = self.w ** 2 + self.x ** 2 + self.y ** 2 + self.z ** 2
        if n2 == 0.0:
            raise ZeroDivisionError("zero quaternion has no inverse")
        return Quaternion(self.w / n2, -self.x / n2, -self.y / n2, -self.z / n2)


def quaternion_exp(q: Quaternion) -> Quaternion:
    """exp(w + v) = e^w (cos|v| + (v/|v|) sin|v|) for pure-imaginary part v."""
    vnorm = math.sqrt(q.x ** 2 + q.y ** 2 + q.z ** 2)
    scale = math.exp(q.w)
    if vnorm == 0.0:
        return Quaternion(scale, 0.0, 0.0, 0.0)
    s = scale * math.sin(vnorm) / vnorm
    return Quaternion(scale * math.cos(vnorm), s * q.x, s * q.y, s * q.z)


def quaternion_multiply_arrays(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product of (..., 4) component arrays."""
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ], axis=-1)


@dataclass(frozen=True)
class QuaternionField:
    """Quaternion-valued samples on a Grid1D, stored as an (n, 4) array."""

    values: np.ndarray
    grid: Grid1D

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.shape != (self.grid.n_points, 4):
            raise ValueError(
                f"quaternion field shape {arr.shape} does not match "
                f"({self.grid.n_points}, 4)")
        object.__setattr__(self, "values", arr)

    def __mul__(self, other):
        if isinstance(other, QuaternionField):
            return QuaternionField(
                quaternion_multiply_arrays(self.values, other.values), self.grid)
        return NotImplemented

    def norm(self) -> np.ndarray:
        return np.sqrt(np.sum(self.values ** 2, axis=1))

    def inverse(self) -> "QuaternionField":
        n2 = np.sum(self.values ** 2, axis=1)
        if np.any(n2 == 0.0):
            raise ZeroDivisionError("zero quaternion has no inverse")
        out = self.values.copy()
        out[:, 1:] *= -1.0
        return QuaternionField(out / n2[:, None], self.grid)

    def at(self, index: int) -> Quaternion:
        w, x, y, z = self.values[index]
        return Quaternion(w, x, y, z)

    @classmethod
    def one(cls, grid) -> "QuaternionField":
        vals = np.zeros((grid.n_points, 4))
        vals[:, 0] = 1.0
        return cls(vals, grid)


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
        return 1.0 / (1.0 / self.m0 + 1.0 / self.m1)

    @property
    def residual_inv_mass(self) -> float:
        """1/m0 - 1/m1; exactly zero iff m0 == m1."""
        if self.m0 == self.m1:
            return 0.0
        return 1.0 / self.m0 - 1.0 / self.m1
