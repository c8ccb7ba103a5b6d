"""Named, fully-deterministic experiment configurations.

A ScenarioSpec binds initial data, potentials, physical parameters and
integration settings; `expand` turns it into solver-ready inputs on a
concrete grid. Descriptors are plain dicts with a "type" key so they map
one-to-one onto config-file sections; `FIELDS` is the one list of their
fields and the oscillator keys, and expansion rejects any other. It is a
pure function: two expansions of the same spec are bitwise identical, and
nothing is seeded because nothing is random.
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
    Integration,
    RealField,
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
    state0: np.ndarray
    params: OscParams
    integration: Integration


# --------------------------------------------------------------------------
# Descriptor expansion
# --------------------------------------------------------------------------

# The one list of scenario fields: for each initial-data, potential and
# action-channel type, and for the oscillator keys, each field and its
# default; a required field's default is None.
FIELDS = {
    "initial-data": {"gaussian": {"sigma": 0.5, "center": 0.0, "k": 0.0},
                     "plane_wave": {"mode": None},
                     "two_gaussian": {"sigma": 0.5, "center": 0.0, "separation": None,
                                      "k_rel": 0.0}},
    "potential": {"none": {}, "harmonic": {"omega": 1.0}, "constant": {"v0": None},
                  "double_well": {"a": 0.01, "b": 2.0}},
    "action channel": {"zero": {}, "linear": {"slope": 0.0}, "quadratic": {"coeff": -0.5}},
    "oscillator": {"formalism": "bateman", "mass": 1.0, "omega": 1.0, "gamma": 0.0,
                   "x0": 1.0, "v0": 0.0, "y0": 0.0, "vy0": 0.0},
}

# The oscillator's state keys; a formalism of n columns reads the first n.
STATE_KEYS = ("x0", "v0", "y0", "vy0")


def _fields(desc: dict, group: str, default_type=None) -> dict:
    """The fields of `desc`, a descriptor of `group` (its type is its "type"
    key, else `default_type`) or the oscillator keys, with the defaults of
    FIELDS filled in. A field FIELDS does not list is a ConfigurationError
    that names it; a missing required field is the KeyError `expand` reports."""
    table, what = FIELDS[group], group
    if group != "oscillator":
        kind = desc.get("type", default_type)
        if kind not in table:
            raise ConfigurationError(f"unknown {group} type {kind!r}")
        table, what = {"type": kind, **table[kind]}, f"{group} type {kind!r}"
    for key in desc:
        if key not in table:
            raise ConfigurationError(f"{what} has no field {key!r}")
    return {key: desc[key] if default is None else desc.get(key, default)
            for key, default in table.items()}


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
    f = _fields(desc, "initial-data")
    if f["type"] == "plane_wave":
        mode = int(f["mode"])
        k = 2.0 * np.pi * mode / grid.length
        _check_wavenumber(k, grid, f"initial.mode = {mode}: k")
        values = np.exp(1j * k * grid.x)
    else:
        sigma, center = float(f["sigma"]), float(f["center"])
        _check_width(sigma, grid, "initial.sigma")
        if f["type"] == "gaussian":
            k = float(f["k"])
            _check_wavenumber(k, grid, "initial.k")
            values = _gaussian(grid, sigma, center, k)
        else:
            separation, k_rel = float(f["separation"]), float(f["k_rel"])
            _check_wavenumber(k_rel, grid, "initial.k_rel")
            left = _gaussian(grid, sigma, center - 0.5 * separation, +k_rel)
            right = _gaussian(grid, sigma, center + 0.5 * separation, -k_rel)
            values = left + right
    psi = ComplexField(values, grid)
    nrm = field_norm(psi)
    if nrm <= 0:
        raise ConfigurationError("initial wavefunction has zero norm")
    return ComplexField(psi.values / math.sqrt(nrm), grid)


def expand_potential(desc, grid: Grid1D, mass: float) -> RealField:
    """Build one potential field from its descriptor (None means zero)."""
    f = _fields(desc or {}, "potential", "none")
    x = grid.x
    if f["type"] == "harmonic":
        return RealField(0.5 * mass * float(f["omega"]) ** 2 * x ** 2, grid)
    if f["type"] == "constant":
        return RealField(np.full(grid.n_points, float(f["v0"])), grid)
    if f["type"] == "double_well":
        return RealField(float(f["a"]) * (x ** 2 - float(f["b"]) ** 2) ** 2, grid)
    return RealField.zeros(grid)


def expand_action_channel(desc, grid: Grid1D):
    """Returns (RealField periodic part, slope) for one action channel."""
    f = _fields(desc or {}, "action channel", "zero")
    if f["type"] == "quadratic":
        return RealField(float(f["coeff"]) * grid.x ** 2, grid), 0.0
    return RealField.zeros(grid), float(f.get("slope", 0.0))


def _expand_potentials(spec: ScenarioSpec, grid: Grid1D, n_channels: int) -> PotentialSet:
    names = ["mode"] + [f"vg{i}" for i in range(n_channels)]
    for key in spec.potentials:
        if key not in names:
            raise ConfigurationError(
                f"a scenario of {n_channels} channels has no potential {key!r}")
    vg = tuple(expand_potential(spec.potentials.get(f"vg{i}"), grid, spec.masses[0])
               for i in range(n_channels))
    return PotentialSet(vg=vg, mode=spec.potentials.get("mode", EXPLICIT))


def expand(spec: ScenarioSpec, grid: Grid1D = DEFAULT_GRID):
    """Realize a ScenarioSpec on a grid; returns the kind-specific bundle.

    Expansion runs no solver, so every failure in it is the spec's: a
    missing descriptor key, a value rejected by a field or parameter
    type, arithmetic that leaves the float range (a mass of 5e-324), or a
    grid whose samples cannot be allocated.
    """
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return _expand_kind(spec, grid)
    except ConfigurationError:
        raise
    except MemoryError:
        raise ConfigurationError(f"scenario {spec.name!r}: the samples of a grid of "
                                 f"{grid.n_points} points cannot be allocated") from None
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
        )
        return ExpandedWave(scenario=scenario)

    if spec.kind == KIND_HJ:
        pairs = [expand_action_channel(desc, grid)
                 for desc in spec.initial.get("channels") or ()]
        fields, slopes = [f for f, _ in pairs], [s for _, s in pairs]
        channels = ActionChannels(fields, slopes)
        pot = _expand_potentials(spec, grid, len(fields))
        # explicit coupling is well posed only while every environment
        # gradient stays zero (`hamilton_jacobi` module docstring)
        for n in range(1, len(fields)):
            values, vg = fields[n].values, pot.vg[n].values
            flaw = ("a slope" if slopes[n] != 0.0 else
                    "non-uniform samples" if np.any(values != values[0]) else
                    f"a non-uniform vg{n}" if np.any(vg != vg[0]) else None)
            if flaw and pot.mode == EXPLICIT:
                raise ConfigurationError(f"explicit coupling is ill-posed with {flaw} "
                                         f"on environment channel {n}; use "
                                         "potential_mode = symmetric_closure")
        return ExpandedHJ(channels=channels, potentials=pot,
                          params=spec.dual_params(),
                          integration=spec.integration)

    if spec.kind == KIND_OSCILLATOR:
        osc = _fields(spec.osc, "oscillator")
        formalism = osc["formalism"]
        table = FORMALISMS.get(formalism)
        if table is None:
            raise ConfigurationError(f"unknown oscillator formalism {formalism!r}")
        mass, omega = float(osc["mass"]), float(osc["omega"])
        params = OscParams(mass=mass, gamma=float(osc["gamma"]),
                           stiffness=mass * omega ** 2)
        n = len(table.columns)
        for key in STATE_KEYS[n:]:
            if key in spec.osc:
                raise ConfigurationError(f"formalism {formalism!r} has no field {key!r}")
        state0 = np.array([float(osc[key]) for key in STATE_KEYS[:n]])
        return ExpandedOscillator(formalism=formalism, state0=state0,
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
