"""dualwave: dissipative dual-sector classical mechanics on a periodic grid.

The package integrates coupled system/environment Hamilton-Jacobi fields,
the generalized dissipative wave equation they induce, and the classical
dissipative oscillator formalisms they descend from, and verifies that
standard Schrodinger dynamics is recovered exactly in the mass-symmetric,
coupling-balanced limit.
"""

from dualwave.core import (
    BlowUpError,
    ComplexField,
    ConfigurationError,
    DualParams,
    Grid1D,
    NonFiniteFieldError,
    RealField,
    field_norm,
)
from dualwave.hamilton_jacobi import ActionChannels, PotentialSet, evolve_hj
from dualwave.madelung import from_wavefunction, to_wavefunction
from dualwave.scenarios import ScenarioSpec, builtin_suite, expand
from dualwave.wavesolver import WaveScenario, evolve, schrodinger_reference

__all__ = [
    "ActionChannels",
    "BlowUpError",
    "ComplexField",
    "ConfigurationError",
    "DualParams",
    "Grid1D",
    "NonFiniteFieldError",
    "PotentialSet",
    "RealField",
    "ScenarioSpec",
    "WaveScenario",
    "builtin_suite",
    "evolve",
    "evolve_hj",
    "expand",
    "field_norm",
    "from_wavefunction",
    "schrodinger_reference",
    "to_wavefunction",
]

__version__ = "0.1.0"
