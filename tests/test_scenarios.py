import numpy as np
import pytest

from dualwave.core import ConfigurationError, field_norm
from dualwave.oscillators import FORMALISMS
from dualwave.scenarios import (
    DEFAULT_GRID,
    ExpandedHJ,
    ExpandedOscillator,
    ExpandedWave,
    Integration,
    ScenarioSpec,
    builtin_by_name,
    builtin_names,
    builtin_suite,
    expand,
)


class TestBuiltinSuite:
    def test_contains_required_scenarios(self):
        names = set(builtin_names())
        required = {
            "free_gaussian_symmetric", "harmonic_ground_symmetric",
            "plane_wave_dispersion", "norm_drift_constant_Vg1",
            "residual_mass_plane_wave", "interference_two_gaussian",
            "bateman_damped", "ck_damped", "dekker_damped",
            "hj_free_particle", "hj_caustic",
        }
        assert required <= names
        assert len(builtin_suite()) >= 11

    def test_names_unique(self):
        names = builtin_names()
        assert len(names) == len(set(names))

    def test_every_scenario_expands_on_default_grid(self):
        for spec in builtin_suite():
            expanded = expand(spec, DEFAULT_GRID)
            assert isinstance(expanded,
                              (ExpandedWave, ExpandedHJ, ExpandedOscillator))

    def test_unknown_name_lists_available(self):
        with pytest.raises(ConfigurationError) as info:
            builtin_by_name("not_a_scenario")
        assert "free_gaussian_symmetric" in str(info.value)


class TestExpansion:
    def test_gaussian_unit_norm(self):
        spec = builtin_by_name("free_gaussian_symmetric")
        psi = expand(spec, DEFAULT_GRID).scenario.psi0
        assert abs(field_norm(psi) - 1.0) < 1e-10

    def test_expansion_is_deterministic(self):
        spec = builtin_by_name("interference_two_gaussian")
        a = expand(spec, DEFAULT_GRID).scenario.psi0.values
        b = expand(spec, DEFAULT_GRID).scenario.psi0.values
        assert np.array_equal(a, b)

    def test_two_gaussian_centered(self):
        spec = builtin_by_name("interference_two_gaussian")
        psi = expand(spec, DEFAULT_GRID).scenario.psi0
        rho = np.abs(psi.values) ** 2
        mean = float(np.sum(DEFAULT_GRID.x * rho) / np.sum(rho))
        assert abs(mean) < 1e-8

    def test_super_nyquist_plane_wave_rejected(self):
        spec = ScenarioSpec(name="bad", kind="wave",
                            integration=Integration(1e-3, 10),
                            initial={"type": "plane_wave", "mode": 300})
        with pytest.raises(ConfigurationError):
            expand(spec, DEFAULT_GRID)

    def test_non_harmonic_wavenumber_rejected(self):
        # a plane wave is given by its integer mode alone
        spec = ScenarioSpec(name="bad", kind="wave",
                            integration=Integration(1e-3, 10),
                            initial={"type": "plane_wave", "k": 3.0})
        with pytest.raises(ConfigurationError, match=
                           "^initial-data type 'plane_wave' has no field 'k'$"):
            expand(spec, DEFAULT_GRID)

    @pytest.mark.parametrize("changes, line", [
        ({"osc": {"formalism": "bateman", "gama": 0.2}}, "oscillator has no field 'gama'"),
        ({"initial": {"type": "gaussian", "sigam": 2.0}},
         "initial-data type 'gaussian' has no field 'sigam'"),
        ({"potentials": {"vg1": {"type": "constant", "v0": 1.0, "omega": 2.0}}},
         "potential type 'constant' has no field 'omega'"),
        ({"kind": "hj", "initial": {"channels": [{"type": "linear", "coeff": 1.0}]}},
         "action channel type 'linear' has no field 'coeff'"),
        ({"osc": {"formalism": "ck", "y0": 5.0}}, "formalism 'ck' has no field 'y0'"),
        ({"osc": {"formalism": "ck", "vy0": 0.5}}, "formalism 'ck' has no field 'vy0'"),
        ({"potentials": {"vg2": {"type": "harmonic"}}},
         "a scenario of 2 channels has no potential 'vg2'"),
        ({"potentials": {"vc0": {"type": "none"}}},
         "a scenario of 2 channels has no potential 'vc0'"),
    ], ids=["oscillator", "initial", "potential", "channel", "ck_y0", "ck_vy0",
            "wave_vg2", "wave_vc0"])
    def test_unlisted_field_rejected(self, changes, line):
        base = {"kind": "oscillator"} if "osc" in changes else {
            "kind": "wave", "initial": {"type": "gaussian"}}
        spec = ScenarioSpec(name="bad", integration=Integration(1e-3, 10),
                            **{**base, **changes})
        with pytest.raises(ConfigurationError, match=f"^{line}$"):
            expand(spec, DEFAULT_GRID)

    def test_potential_of_each_hj_channel_expands(self):
        spec = ScenarioSpec(name="three", kind="hj", integration=Integration(1e-3, 10),
                            initial={"channels": [{"type": "linear", "slope": 1.0},
                                                  {"type": "zero"}, {"type": "zero"}]},
                            masses=(1.0, 1.0, 1.0),
                            potentials={"vg2": {"type": "constant", "v0": 0.5}})
        vg = expand(spec, DEFAULT_GRID).potentials.vg
        assert len(vg) == 3 and np.all(vg[2].values == 0.5)

    def test_missing_required_field_named(self):
        spec = ScenarioSpec(name="bad", kind="wave", integration=Integration(1e-3, 10),
                            initial={"type": "two_gaussian"})
        with pytest.raises(ConfigurationError, match="^scenario 'bad' is missing "
                           "the descriptor key 'separation'$"):
            expand(spec, DEFAULT_GRID)

    def test_under_resolved_packet_rejected(self):
        spec = ScenarioSpec(name="bad", kind="wave",
                            integration=Integration(1e-3, 10),
                            initial={"type": "gaussian", "sigma": 0.01})
        with pytest.raises(ConfigurationError) as info:
            expand(spec, DEFAULT_GRID)
        assert "sigma" in str(info.value)

    def test_unknown_kind_rejected(self):
        spec = ScenarioSpec(name="bad", kind="mystery",
                            integration=Integration(1e-3, 10))
        with pytest.raises(ConfigurationError):
            expand(spec, DEFAULT_GRID)

    def test_oscillator_expansion_columns(self):
        exp = expand(builtin_by_name("ck_damped"), DEFAULT_GRID)
        assert FORMALISMS[exp.formalism].columns == ("x", "xdot")
        assert exp.state0.shape == (2,)
        exp4 = expand(builtin_by_name("bateman_damped"), DEFAULT_GRID)
        assert FORMALISMS[exp4.formalism].columns == ("x", "xdot", "y", "ydot")
        assert exp4.state0.shape == (4,)

    def test_hj_expansion_slopes(self):
        exp = expand(builtin_by_name("hj_free_particle"), DEFAULT_GRID)
        assert exp.channels.slopes == (1.0, 0.0)
        caustic = expand(builtin_by_name("hj_caustic"), DEFAULT_GRID)
        assert np.allclose(caustic.channels.channels[0].values,
                           -0.5 * DEFAULT_GRID.x ** 2, rtol=0, atol=0)
