"""Maps between action channels and wavefunctions.

Forward map: psi = exp(i*S0/zeta - S1/zeta), so the phase carries the
conservative action and the amplitude carries the dissipative channel.
The inverse needs a 1D phase unwrap (cumulative wrapped differences,
anchored to the principal value at the first grid point) and an amplitude
floor at near-zeros of psi, where it is undefined; `clamped_count` says how
many samples the floor takes. Only S0 and S1 enter psi; further environment
channels of a Hamilton-Jacobi run have no wavefunction counterpart here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dualwave.core import ComplexField, DualParams, RealField


class DegenerateWavefunctionError(ValueError):
    """psi vanishes identically; the inverse map is undefined."""


class AmplitudeFloorWarning(UserWarning):
    """The amplitude floor was engaged near a node of psi.

    No solver issues it; the class stays because the benchmark harness
    imports it in its fixed warnings filter."""


# Relative floor on |psi| (w.r.t. max|psi|) below which the one-shot
# inverse map clamps the log-amplitude; the quantum potential floors its
# amplitude additively at the same level.
AMPLITUDE_FLOOR = 1e-12


@dataclass(frozen=True)
class UnwrapResult:
    """Inverse-map output: the action fields S0 and S1."""

    s0: RealField
    s1: RealField


def to_wavefunction(s0: RealField, s1: RealField, p: DualParams) -> ComplexField:
    """psi = exp(i*S0/zeta - S1/zeta) pointwise."""
    if s0.grid != s1.grid:
        raise ValueError("S0 and S1 must share one grid")
    return ComplexField(np.exp((1j * s0.values - s1.values) / p.zeta), s0.grid)


def unwrap_phase(theta: np.ndarray) -> np.ndarray:
    """Cumulative-difference unwrap anchored to the principal value at index 0.

    Sums the N-1 increments theta[i+1] - theta[i], each wrapped into
    [-pi, pi), so the result keeps the winding of psi as a linear ramp. A
    band-limited phase is assumed: an increment near +-pi is taken at its
    wrapped value.
    """
    d = np.mod(np.diff(theta) + np.pi, 2.0 * np.pi) - np.pi
    unwrapped = np.empty_like(theta)
    unwrapped[0] = 0.0
    np.cumsum(d, out=unwrapped[1:])
    return theta[0] + unwrapped


def _density_and_floor(psi: ComplexField):
    """|psi|^2 and the floor the inverse map clamps it at: (AMPLITUDE_FLOOR
    * max|psi|)^2, but not below the smallest normal float."""
    v = psi.values
    amax = float(np.max(np.abs(v)))
    if amax == 0.0:
        raise DegenerateWavefunctionError("degenerate wavefunction")

    # at amax below ~1e-142 the relative floor itself would underflow to
    # zero and S1 to infinity; the smallest normal float keeps it finite
    floor2 = max((AMPLITUDE_FLOOR * amax) ** 2, np.finfo(float).tiny)
    return v.real * v.real + v.imag * v.imag, floor2


def from_wavefunction(psi: ComplexField, p: DualParams) -> UnwrapResult:
    """Invert the Madelung map: S1 from the amplitude, S0 from the unwrapped phase.

    S1 = -(zeta/2) ln(psi* psi) with |psi|^2 clamped below at
    (AMPLITUDE_FLOOR * max|psi|)^2, or at the smallest normal float if
    that is smaller; S0 = zeta * unwrap(arg psi), anchored to
    the principal value at index 0. It keeps the winding and the anchor.
    The wave solver never inverts the map: the closure rule cancels every
    term that would need S. Raises DegenerateWavefunctionError for psi
    identically zero.
    """
    rho, floor2 = _density_and_floor(psi)
    s1 = -0.5 * p.zeta * np.log(np.maximum(rho, floor2))
    s0 = p.zeta * unwrap_phase(np.angle(psi.values))
    return UnwrapResult(RealField(s0, psi.grid), RealField(s1, psi.grid))


def clamped_count(psi: ComplexField) -> int:
    """The number of samples whose S1 `from_wavefunction` writes at the
    clamp: |psi|^2 at or below the floor. There S0 is the phase of
    rounding noise. Raises DegenerateWavefunctionError for psi
    identically zero."""
    rho, floor2 = _density_and_floor(psi)
    return int(np.count_nonzero(rho <= floor2))
