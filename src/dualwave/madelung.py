"""Maps between action channels and wavefunctions.

Forward map: psi = exp(i*S0/zeta - S1/zeta), so the phase carries the
conservative action and the amplitude carries the dissipative channel.
The inverse needs a 1D phase unwrap (cumulative wrapped differences,
anchored to the principal value at the first grid point) and an amplitude
floor at near-zeros of psi.

Multi-channel composition: environment channels S2, S3 map to the j and k
quaternion units. The composed factor is DEFINED as the ordered product of
per-unit exponentials (quaternion exponentials of sums do not factor, so
the ordered factorization is the definition, not a theorem):

    phi_inv = exp(j*S2/zeta) * exp(-k*S3/zeta),   Psi = exp(i*S0/zeta - S1/zeta)

and psi is fixed by psi * phi = Psi.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dualwave.core import (
    ComplexField,
    DualParams,
    QuaternionField,
    RealField,
    quaternion_multiply_arrays,
)
from dualwave.hamilton_jacobi import ActionChannels


class DegenerateWavefunctionError(ValueError):
    """psi vanishes identically; the inverse map is undefined."""


class ChannelCountError(ValueError):
    """More environment channels than available quaternion units."""


class AmplitudeFloorWarning(UserWarning):
    """The amplitude floor was engaged near a node of psi.

    The solver no longer issues it (a run reports `WaveRun.floor_engaged`);
    the class stays because the benchmark harness imports it in its fixed
    warnings filter."""


# Relative floor on |psi| (w.r.t. max|psi|) below which the one-shot
# inverse map clamps the log-amplitude; the quantum potential floors its
# amplitude additively at the same level.
AMPLITUDE_FLOOR = 1e-12


@dataclass(frozen=True)
class UnwrapResult:
    """Inverse-map output: action fields plus any regularization warnings."""

    s0: RealField
    s1: RealField
    warnings: tuple = ()


def to_wavefunction(s0: RealField, s1: RealField, p: DualParams) -> ComplexField:
    """psi = exp(i*S0/zeta - S1/zeta) pointwise."""
    if s0.grid != s1.grid:
        raise ValueError("S0 and S1 must share one grid")
    return ComplexField(np.exp((1j * s0.values - s1.values) / p.zeta), s0.grid)


def wrapped_phase_differences(theta: np.ndarray) -> np.ndarray:
    """The N cyclic phase increments theta[i+1] - theta[i] along the last
    axis, the last one across the periodic wrap, each wrapped into [-pi, pi)."""
    return np.mod(np.roll(theta, -1, axis=-1) - theta + np.pi, 2.0 * np.pi) - np.pi


def unwrap_phase(theta: np.ndarray):
    """Cumulative-difference unwrap anchored to the principal value at index 0.

    Sums the first N-1 cyclic increments, so the result keeps the winding
    of psi as a linear ramp. Returns (unwrapped, aliased) where `aliased`
    flags adjacent jumps at the branch boundary (|diff| ~ pi), i.e. inputs
    that violate the band-limited phase assumption.
    """
    d = wrapped_phase_differences(theta)[:-1]
    aliased = bool(np.any(np.abs(d) >= np.pi - 1e-9))
    unwrapped = np.empty_like(theta)
    unwrapped[0] = 0.0
    np.cumsum(d, out=unwrapped[1:])
    return theta[0] + unwrapped, aliased


def from_wavefunction(psi: ComplexField, p: DualParams) -> UnwrapResult:
    """Invert the Madelung map: S1 from the amplitude, S0 from the unwrapped phase.

    S1 = -(zeta/2) ln(psi* psi) with |psi|^2 clamped below at
    (AMPLITUDE_FLOOR * max|psi|)^2, or at the smallest normal float if
    that is smaller; S0 = zeta * unwrap(arg psi), anchored to
    the principal value at index 0. This is the one-shot map of a given
    state, so it keeps the winding and the anchor and clamps the floor.
    The in-loop extraction of the wave solver (`_extract_action_terms`)
    differs on purpose: it only needs Laplacians, so it tapers the
    increments, floors additively and rebuilds a periodic phase. Raises
    DegenerateWavefunctionError for psi identically zero; attaches "phase
    aliasing" / "amplitude floor engaged" warnings to the result instead
    of failing on marginal inputs.
    """
    v = psi.values
    amax = float(np.max(np.abs(v)))
    if amax == 0.0:
        raise DegenerateWavefunctionError("degenerate wavefunction")
    warnings = []

    # at amax below ~1e-142 the relative floor itself would underflow to
    # zero and S1 to infinity; the smallest normal float keeps it finite
    floor2 = max((AMPLITUDE_FLOOR * amax) ** 2, np.finfo(float).tiny)
    rho = (v.real * v.real + v.imag * v.imag)
    if np.any(rho < floor2):
        warnings.append("amplitude floor engaged")
    s1 = -0.5 * p.zeta * np.log(np.maximum(rho, floor2))

    theta, aliased = unwrap_phase(np.angle(v))
    if aliased:
        warnings.append("phase aliasing")
    s0 = p.zeta * theta

    return UnwrapResult(RealField(s0, psi.grid), RealField(s1, psi.grid),
                        tuple(warnings))


@dataclass(frozen=True)
class ComposedWave:
    """Output of the multi-channel composition psi * phi = Psi.

    psi is the complex (1, i) projection of psi_quaternion; the two agree
    whenever S2 = S3 = 0 and differ only through the non-commuting
    environment factor otherwise.
    """

    psi: ComplexField
    Psi: ComplexField
    phi: QuaternionField
    psi_quaternion: QuaternionField


def _unit_exponential_factor(unit_axis: int, angle: np.ndarray, n: int) -> np.ndarray:
    """exp(u * angle) for a single quaternion unit u, as an (n, 4) array."""
    out = np.zeros((n, 4))
    out[:, 0] = np.cos(angle)
    out[:, unit_axis] = np.sin(angle)
    return out


def compose_channels(S: ActionChannels, p: DualParams) -> ComposedWave:
    """Compose system + environment channels into (psi, Psi, phi).

    Psi = exp(i*S0/zeta - S1/zeta) is the complex reduction that the wave
    solver consumes; phi_inv is the ordered product of the j and k unit
    exponentials exp(+j*S2/zeta) * exp(-k*S3/zeta) (index order, literal
    sign pattern); phi is its pointwise quaternion inverse and
    psi = Psi * phi_inv.
    """
    if S.n_environment > 3:
        raise ChannelCountError("channel count exceeds quaternion units")
    grid = S.grid
    n = grid.n_points
    scale = p.zeta

    psi_c = to_wavefunction(S.channels[0], S.channels[1], p)

    phi_inv_vals = None
    if S.n_channels >= 3:
        phi_inv_vals = _unit_exponential_factor(2, S.channels[2].values / scale, n)
    if S.n_channels >= 4:
        k_factor = _unit_exponential_factor(3, -S.channels[3].values / scale, n)
        phi_inv_vals = quaternion_multiply_arrays(phi_inv_vals, k_factor)
    if phi_inv_vals is None:
        phi_inv = QuaternionField.one(grid)
    else:
        phi_inv = QuaternionField(phi_inv_vals, grid)
    phi = phi_inv.inverse()

    big_psi = psi_c.values
    embed = np.zeros((n, 4))
    embed[:, 0] = big_psi.real
    embed[:, 1] = big_psi.imag
    psi_q = QuaternionField(
        quaternion_multiply_arrays(embed, phi_inv.values), grid)
    psi_proj = ComplexField(psi_q.values[:, 0] + 1j * psi_q.values[:, 1], grid)

    return ComposedWave(psi=psi_proj, Psi=psi_c, phi=phi, psi_quaternion=psi_q)
