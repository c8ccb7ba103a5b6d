"""Maps between action channels and wavefunctions.

Forward map: psi = exp(i*S0/hbar - S1/hbar), so the phase carries the
conservative action and the amplitude carries the dissipative channel.
The inverse needs a 1D phase unwrap (cumulative wrapped differences,
anchored to the principal value at a reference index) and an amplitude
floor at near-zeros of psi.

Multi-channel composition: environment channels S2, S3 map to the j and k
quaternion units. The composed factor is DEFINED as the ordered product of
per-unit exponentials (quaternion exponentials of sums do not factor, so
the ordered factorization is the definition, not a theorem):

    phi_inv = exp(j*S2/hbar) * exp(-k*S3/hbar),   Psi = exp(i*S0/hbar - S1/hbar)

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
    """The amplitude floor was engaged near a node of psi."""


@dataclass(frozen=True)
class UnwrapPolicy:
    """Regularization knobs for the inverse map.

    amplitude_floor: relative floor on |psi| (w.r.t. max|psi|) below which
        the log-amplitude is clamped.
    reference_index: grid index at which the unwrapped phase is anchored to
        its principal value in (-pi, pi].
    """

    amplitude_floor: float = 1e-12
    reference_index: int = 0

    def __post_init__(self):
        if self.amplitude_floor <= 0:
            raise ValueError("amplitude_floor must be positive")


DEFAULT_UNWRAP_POLICY = UnwrapPolicy()


@dataclass(frozen=True)
class UnwrapResult:
    """Inverse-map output: action fields plus any regularization warnings."""

    s0: RealField
    s1: RealField
    warnings: tuple = ()


def to_wavefunction(s0: RealField, s1: RealField, p: DualParams) -> ComplexField:
    """psi = exp(i*S0/scale - S1/scale) pointwise (scale = zeta, default hbar)."""
    if s0.grid != s1.grid:
        raise ValueError("S0 and S1 must share one grid")
    scale = p.zeta
    return ComplexField(np.exp((1j * s0.values - s1.values) / scale), s0.grid)


def wrapped_phase_differences(theta: np.ndarray) -> np.ndarray:
    """Adjacent phase differences wrapped into [-pi, pi)."""
    return np.mod(np.diff(theta) + np.pi, 2.0 * np.pi) - np.pi


def unwrap_phase(theta: np.ndarray, reference_index: int = 0):
    """Cumulative-difference unwrap anchored to the principal value.

    Returns (unwrapped, aliased) where `aliased` flags adjacent jumps at the
    branch boundary (|diff| ~ pi), i.e. inputs that violate the band-limited
    phase assumption.
    """
    d = wrapped_phase_differences(theta)
    aliased = bool(np.any(np.abs(d) >= np.pi - 1e-9))
    unwrapped = np.empty_like(theta)
    unwrapped[0] = 0.0
    np.cumsum(d, out=unwrapped[1:])
    # anchor: exact principal value at the reference index
    ref = int(reference_index)
    unwrapped = theta[ref] + (unwrapped - unwrapped[ref])
    return unwrapped, aliased


def phase_winding(psi: ComplexField) -> int:
    """Net phase turns of psi around the periodic domain (an exact integer)."""
    theta = np.angle(psi.values)
    d = wrapped_phase_differences(theta)
    wrap_pair = np.mod(theta[0] - theta[-1] + np.pi, 2.0 * np.pi) - np.pi
    return int(round((np.sum(d) + wrap_pair) / (2.0 * np.pi)))


def from_wavefunction(psi: ComplexField, p: DualParams,
                      policy: UnwrapPolicy = DEFAULT_UNWRAP_POLICY) -> UnwrapResult:
    """Invert the Madelung map: S1 from the amplitude, S0 from the unwrapped phase.

    S1 = -(scale/2) ln(psi* psi) with |psi|^2 floored at (eps*max|psi|)^2;
    S0 = scale * unwrap(arg psi) anchored at policy.reference_index. Raises
    DegenerateWavefunctionError for psi identically zero; attaches "phase
    aliasing" / "amplitude floor engaged" warnings to the result instead of
    failing on marginal inputs.
    """
    v = psi.values
    amax = float(np.max(np.abs(v)))
    if amax == 0.0:
        raise DegenerateWavefunctionError("degenerate wavefunction")
    scale = p.zeta
    warnings = []

    floor2 = (policy.amplitude_floor * amax) ** 2
    rho = (v.real * v.real + v.imag * v.imag)
    if np.any(rho < floor2):
        warnings.append("amplitude floor engaged")
    s1 = -0.5 * scale * np.log(np.maximum(rho, floor2))

    theta, aliased = unwrap_phase(np.angle(v), policy.reference_index)
    if aliased:
        warnings.append("phase aliasing")
    s0 = scale * theta

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

    Psi = exp(i*S0/scale - S1/scale) is the complex reduction that the wave
    solver consumes; phi_inv is the ordered product of the j and k unit
    exponentials exp(+j*S2/scale) * exp(-k*S3/scale) (index order, literal
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
