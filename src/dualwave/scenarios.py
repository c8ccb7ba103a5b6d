"""Named, fully-deterministic experiment configurations.

A ScenarioSpec binds initial data, potentials, physical parameters and
integration settings; `expand` turns it into solver-ready inputs on a
concrete grid. Descriptors are plain dicts with a "type" key so they map
one-to-one onto config-file sections. Expansion is a pure function: two
expansions of the same spec are bitwise identical, and nothing is seeded
because nothing is random.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from dualwave.core import (
    ComplexField,
    ConfigurationError,
    DualParams,
    Grid1D,
    RealField,
    check_stepping,
    field_norm,
)
from dualwave.hamilton_jacobi import (
    EXPLICIT,
    SYMMETRIC_CLOSURE,
    ActionChannels,
    PotentialSet,
)
from dualwave.oscillators import FORMALISMS, OscParams
from dualwave.wavesolver import WaveScenario

DEFAULT_GRID = Grid1D(1024, -10.0, 10.0)

KIND_WAVE = "wave"
KIND_HJ = "hj"
KIND_OSCILLATOR = "oscillator"


@dataclass(frozen=True)
class Integration:
    dt: float
    n_steps: int
    snapshot_every: int = 1

    def __post_init__(self):
        check_stepping(self.dt, self.n_steps, self.snapshot_every)


@dataclass(frozen=True)
class ScenarioSpec:
    """Declarative description of one run; see `expand` for realization."""

    name: str
    kind: str
    integration: Integration
    initial: dict = field(default_factory=dict)
    potentials: dict = field(default_factory=dict)
    masses: tuple = (1.0, 1.0)
    hbar: float = 1.0
    zeta: float | None = None
    closure_mode: str = SYMMETRIC_CLOSURE
    nonlinear_term: str = "auto"
    osc: dict = field(default_factory=dict)

    def dual_params(self) -> DualParams:
        """The solver parameters: `zeta` is the action scale, and `hbar`
        is only its default when `zeta` is unset."""
        if not 0 < self.hbar < math.inf:
            raise ConfigurationError(
                f"hbar must be positive and finite, got {self.hbar}")
        zeta = float(self.hbar) if self.zeta is None else self.zeta
        return DualParams(masses=self.masses, zeta=zeta)


@dataclass(frozen=True)
class ExpandedWave:
    scenario: WaveScenario


@dataclass(frozen=True)
class ExpandedHJ:
    channels: ActionChannels
    potentials: PotentialSet
    params: DualParams
    integration: Integration


@dataclass(frozen=True)
class ExpandedOscillator:
    formalism: str
    rhs: object
    state0: np.ndarray
    params: OscParams
    integration: Integration


# --------------------------------------------------------------------------
# Descriptor expansion
# --------------------------------------------------------------------------

def _check_wavenumber(k: float, grid: Grid1D, name: str):
    if abs(k) >= 0.5 * grid.nyquist:
        raise ConfigurationError(
            f"{name} = {k:g} is above half the Nyquist wavenumber "
            f"{grid.nyquist:g}; refine the grid or lower the wavenumber")


def _check_width(sigma: float, grid: Grid1D, name: str):
    if sigma < 4.0 * grid.dx:
        raise ConfigurationError(
            f"{name} = {sigma:g} is under-resolved (need >= 4*dx = {4 * grid.dx:g})")


def _gaussian(grid, sigma, center, k):
    x = grid.x
    return np.exp(-((x - center) ** 2) / (4.0 * sigma ** 2) + 1j * k * x)


def expand_initial_wave(desc: dict, grid: Grid1D) -> ComplexField:
    """Build and unit-normalize the initial wavefunction from its descriptor."""
    kind = desc.get("type")
    if kind == "gaussian":
        sigma = float(desc.get("sigma", 0.5))
        center = float(desc.get("center", 0.0))
        k = float(desc.get("k", 0.0))
        _check_width(sigma, grid, "initial.sigma")
        _check_wavenumber(k, grid, "initial.k")
        values = _gaussian(grid, sigma, center, k)
    elif kind == "plane_wave":
        if "mode" in desc:
            mode = int(desc["mode"])
            k = 2.0 * np.pi * mode / grid.length
        else:
            k = float(desc["k"])
            mode = k * grid.length / (2.0 * np.pi)
            if abs(mode - round(mode)) > 1e-9:
                raise ConfigurationError(
                    f"initial.k = {k:g} is not a harmonic of the periodic domain")
        _check_wavenumber(k, grid, "initial.k")
        values = np.exp(1j * k * grid.x)
    elif kind == "two_gaussian":
        sigma = float(desc.get("sigma", 0.5))
        separation = float(desc["separation"])
        k_rel = float(desc.get("k_rel", 0.0))
        center = float(desc.get("center", 0.0))
        _check_width(sigma, grid, "initial.sigma")
        _check_wavenumber(k_rel, grid, "initial.k_rel")
        left = _gaussian(grid, sigma, center - 0.5 * separation, +k_rel)
        right = _gaussian(grid, sigma, center + 0.5 * separation, -k_rel)
        values = left + right
    elif kind == "samples":
        values = np.asarray(desc["values"], dtype=np.complex128)
    else:
        raise ConfigurationError(f"unknown initial-data type {kind!r}")
    psi = ComplexField(values, grid)
    nrm = field_norm(psi)
    if nrm <= 0:
        raise ConfigurationError("initial wavefunction has zero norm")
    return ComplexField(psi.values / math.sqrt(nrm), grid)


def expand_potential(desc, grid: Grid1D, mass: float) -> RealField:
    """Build one potential field from its descriptor (None means zero)."""
    if desc is None:
        return RealField.zeros(grid)
    kind = desc.get("type", "none")
    x = grid.x
    if kind == "none":
        return RealField.zeros(grid)
    if kind == "harmonic":
        omega = float(desc.get("omega", 1.0))
        return RealField(0.5 * mass * omega ** 2 * x ** 2, grid)
    if kind == "constant":
        return RealField(np.full(grid.n_points, float(desc["v0"])), grid)
    if kind == "double_well":
        a = float(desc.get("a", 0.01))
        b = float(desc.get("b", 2.0))
        return RealField(a * (x ** 2 - b ** 2) ** 2, grid)
    if kind == "samples":
        return RealField(np.asarray(desc["values"], dtype=float), grid)
    raise ConfigurationError(f"unknown potential type {kind!r}")


def expand_action_channel(desc, grid: Grid1D):
    """Returns (RealField periodic part, slope) for one action channel."""
    if desc is None:
        return RealField.zeros(grid), 0.0
    kind = desc.get("type", "zero")
    if kind == "zero":
        return RealField.zeros(grid), 0.0
    if kind == "linear":
        return RealField.zeros(grid), float(desc.get("slope", 0.0))
    if kind == "quadratic":
        coeff = float(desc.get("coeff", -0.5))
        return RealField(coeff * grid.x ** 2, grid), 0.0
    if kind == "samples":
        return (RealField(np.asarray(desc["values"], dtype=float), grid),
                float(desc.get("slope", 0.0)))
    raise ConfigurationError(f"unknown action channel type {kind!r}")


def _expand_potentials(spec: ScenarioSpec, grid: Grid1D, n_channels: int) -> PotentialSet:
    pots = spec.potentials
    mass0 = spec.masses[0]
    vg = tuple(expand_potential(pots.get(f"vg{i}"), grid, mass0)
               for i in range(n_channels))
    mode = pots.get("mode", EXPLICIT)
    vc_descs = [pots.get(f"vc{i}") for i in range(n_channels)]
    if any(d is not None for d in vc_descs):
        vc = tuple(expand_potential(d, grid, mass0) for d in vc_descs)
    else:
        vc = None
    return PotentialSet(vg=vg, vc=vc, mode=mode)


def expand(spec: ScenarioSpec, grid: Grid1D = DEFAULT_GRID):
    """Realize a ScenarioSpec on a grid; returns the kind-specific bundle.

    Expansion runs no solver, so every failure in it is the spec's: a
    missing descriptor key, a value rejected by a field or parameter
    type, or arithmetic that leaves the float range (a mass of 5e-324).
    """
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return _expand_kind(spec, grid)
    except ConfigurationError:
        raise
    except KeyError as err:
        raise ConfigurationError(
            f"scenario {spec.name!r} is missing the descriptor key {err}") from None
    except (ValueError, ArithmeticError) as err:
        raise ConfigurationError(
            f"scenario {spec.name!r}: {type(err).__name__}: {err}") from None


def _expand_kind(spec: ScenarioSpec, grid: Grid1D):
    if spec.kind == KIND_WAVE:
        psi0 = expand_initial_wave(spec.initial, grid)
        pot = _expand_potentials(spec, grid, 2)
        scenario = WaveScenario(
            psi0=psi0,
            params=spec.dual_params(),
            potentials=pot,
            dt=spec.integration.dt,
            n_steps=spec.integration.n_steps,
            snapshot_every=spec.integration.snapshot_every,
            closure_mode=spec.closure_mode,
            nonlinear_term=spec.nonlinear_term,
        )
        return ExpandedWave(scenario=scenario)

    if spec.kind == KIND_HJ:
        descs = spec.initial.get("channels")
        if not descs or len(descs) < 2:
            raise ConfigurationError("hj scenario needs at least two channels")
        fields, slopes = [], []
        for desc in descs:
            f, s = expand_action_channel(desc, grid)
            fields.append(f)
            slopes.append(s)
        if len(spec.masses) < len(fields):
            raise ConfigurationError(
                f"scenario defines {len(fields)} channels but only "
                f"{len(spec.masses)} masses (set m2, m3, ... in [params])")
        channels = ActionChannels(tuple(fields), tuple(slopes))
        pot = _expand_potentials(spec, grid, len(fields))
        return ExpandedHJ(channels=channels, potentials=pot,
                          params=spec.dual_params(),
                          integration=spec.integration)

    if spec.kind == KIND_OSCILLATOR:
        osc = spec.osc
        formalism = osc.get("formalism", "bateman")
        table = FORMALISMS.get(formalism)
        if table is None:
            raise ConfigurationError(f"unknown oscillator formalism {formalism!r}")
        mass = float(osc.get("mass", 1.0))
        omega = float(osc.get("omega", 1.0))
        gamma = float(osc.get("gamma", 0.0))
        params = OscParams(mass=mass, gamma=gamma, stiffness=mass * omega ** 2)
        state0 = np.array([float(osc.get(key, default)) for key, default in
                           (("x0", 1.0), ("v0", 0.0), ("y0", 0.0), ("vy0", 0.0))])
        return ExpandedOscillator(
            formalism=formalism, rhs=lambda s: table.rhs(s, params),
            state0=state0[:len(table.columns)],
            params=params, integration=spec.integration)

    raise ConfigurationError(f"unknown scenario kind {spec.kind!r}")


# --------------------------------------------------------------------------
# Built-in suite
# --------------------------------------------------------------------------

def builtin_suite() -> list:
    """The canonical scenarios exercised by the verification suite."""
    ground_sigma = math.sqrt(0.5)  # sqrt(hbar / (2 m0 omega)) at unit parameters
    specs = [
        ScenarioSpec(
            name="free_gaussian_symmetric", kind=KIND_WAVE,
            integration=Integration(dt=1e-3, n_steps=1000, snapshot_every=100),
            initial={"type": "gaussian", "sigma": 0.5},
        ),
        ScenarioSpec(
            name="harmonic_ground_symmetric", kind=KIND_WAVE,
            integration=Integration(dt=1e-3, n_steps=1000, snapshot_every=100),
            initial={"type": "gaussian", "sigma": ground_sigma},
            potentials={"vg0": {"type": "harmonic", "omega": 1.0}},
        ),
        ScenarioSpec(
            name="double_well_symmetric", kind=KIND_WAVE,
            integration=Integration(dt=1e-3, n_steps=1000, snapshot_every=100),
            initial={"type": "gaussian", "sigma": ground_sigma, "center": -2.0},
            potentials={"vg0": {"type": "double_well", "a": 0.01, "b": 2.0}},
        ),
        ScenarioSpec(
            name="plane_wave_dispersion", kind=KIND_WAVE,
            integration=Integration(dt=1e-3, n_steps=500, snapshot_every=25),
            initial={"type": "plane_wave", "mode": 8},
        ),
        ScenarioSpec(
            name="norm_drift_constant_Vg1", kind=KIND_WAVE,
            integration=Integration(dt=1e-3, n_steps=1000, snapshot_every=100),
            initial={"type": "gaussian", "sigma": ground_sigma},
            potentials={"vg1": {"type": "constant", "v0": -0.5}},
        ),
        ScenarioSpec(
            name="residual_mass_plane_wave", kind=KIND_WAVE,
            integration=Integration(dt=2e-5, n_steps=1000, snapshot_every=100),
            initial={"type": "plane_wave", "mode": 8},
            masses=(1.0, 1.5),
        ),
        ScenarioSpec(
            name="interference_two_gaussian", kind=KIND_WAVE,
            integration=Integration(dt=1e-3, n_steps=625, snapshot_every=125),
            initial={"type": "two_gaussian", "sigma": 0.5, "separation": 5.0,
                     "k_rel": 4.0},
        ),
        ScenarioSpec(
            name="bateman_damped", kind=KIND_OSCILLATOR,
            integration=Integration(dt=1e-3, n_steps=10000, snapshot_every=10),
            osc={"formalism": "bateman", "gamma": 0.2, "omega": 1.0,
                 "x0": 1.0, "v0": 0.0, "y0": 1.0, "vy0": 0.0},
        ),
        ScenarioSpec(
            name="ck_damped", kind=KIND_OSCILLATOR,
            integration=Integration(dt=1e-3, n_steps=10000, snapshot_every=10),
            osc={"formalism": "ck", "gamma": 0.2, "omega": 1.0,
                 "x0": 1.0, "v0": 0.0},
        ),
        ScenarioSpec(
            name="dekker_damped", kind=KIND_OSCILLATOR,
            integration=Integration(dt=1e-3, n_steps=10000, snapshot_every=10),
            osc={"formalism": "dekker", "gamma": 0.2, "omega": 1.0,
                 "x0": 1.0, "v0": 0.0, "y0": 1.0, "vy0": 0.0},
        ),
        ScenarioSpec(
            name="hj_free_particle", kind=KIND_HJ,
            integration=Integration(dt=1e-3, n_steps=1000, snapshot_every=100),
            initial={"channels": [{"type": "linear", "slope": 1.0},
                                  {"type": "zero"}]},
        ),
        ScenarioSpec(
            name="hj_caustic", kind=KIND_HJ,
            integration=Integration(dt=2e-4, n_steps=6000, snapshot_every=250),
            initial={"channels": [{"type": "quadratic", "coeff": -0.5},
                                  {"type": "zero"}]},
        ),
    ]
    return specs


def builtin_names() -> list:
    return [s.name for s in builtin_suite()]


def builtin_by_name(name: str) -> ScenarioSpec:
    for spec in builtin_suite():
        if spec.name == name:
            return spec
    raise ConfigurationError(
        f"unknown scenario {name!r}; available: {', '.join(builtin_names())}")
