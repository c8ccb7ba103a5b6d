import dataclasses
import hashlib
import math
import multiprocessing
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dualwave import cli, core
from dualwave.cli import _hj_tables, _sweep_value_spec, load_config, main
from dualwave.core import BlowUpError, ConfigurationError, snapshot_steps
from dualwave.diagnostics import norm_rate, phase_rate, phase_shift, summarize_run
from dualwave.hamilton_jacobi import evolve_hj
from dualwave.madelung import AMPLITUDE_FLOOR, from_wavefunction
from dualwave.oscillators import FORMALISMS, integrate_rk4
from dualwave.scenarios import DEFAULT_GRID, FIELDS, Integration, builtin_by_name, expand
from dualwave.wavesolver import NONLINEAR_OFF, NONLINEAR_ON, evolve

def read_lines(path):
    return Path(path).read_text().splitlines()


def data_cells(path):
    """Cells of every data row; the header and '#' comment lines are skipped."""
    return [line.split(",") for line in read_lines(path)[1:]
            if not line.startswith("#")]


def assert_canonical(cells):
    """Each cell is exactly the 17-significant-digit form of its value."""
    for row in cells:
        for s in row:
            assert format(float(s), ".17g") == s


def parse_csv(path) -> np.ndarray:
    cells = data_cells(path)
    assert_canonical(cells)
    return np.array([[float(s) for s in row] for row in cells])


def assert_bitwise(parsed, expected):
    assert parsed.shape == expected.shape
    assert parsed.tobytes() == np.ascontiguousarray(expected).tobytes()


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


WAVE_INI = ("[scenario]\nkind = wave\nlabel = bad\ninitial_type = gaussian\n"
            "initial_sigma = 0.5\n[integration]\ndt = 1e-3\nn_steps = 10\n")
HJ_INI = ("[scenario]\nkind = hj\nlabel = bad\nchannel0_type = zero\n"
          "channel1_type = samples\n[integration]\ndt = 1e-3\nn_steps = 10\n")
OSC_INI = ("[scenario]\nkind = oscillator\nlabel = bad\nformalism = ck\n"
           "[integration]\ndt = -0.001\nn_steps = 10\n")


# a Gaussian under a constant decaying imaginary potential, 40 steps of
# dt = 1e-3 on the default grid
DECAY_INI = WAVE_INI.replace("n_steps = 10", "n_steps = 40").replace(
    "initial_sigma = 0.5\n", "initial_sigma = 0.5\nvg1_type = constant\nvg1_v0 = {v0}\n")


# a decay rate of 1000 per unit time: the norm, 1 at t = 0, is exactly
# e^(-2000 t), so it underflows to zero at the first snapshot where that
# does, although |psi| itself has not
UNDERFLOW_INI = ("[scenario]\nkind = wave\nlabel = underflow\n"
                 "initial_type = gaussian\ninitial_sigma = 0.5\n"
                 "vg1_type = constant\nvg1_v0 = -1000\n"
                 "[integration]\ndt = 1e-3\nn_steps = 1200\n"
                 "snapshot_every = 100\n")
UNDERFLOW_STEP = next(step for step in range(0, 1201, 100)
                      if math.exp(-2000.0 * step * 1e-3) == 0.0)
UNDERFLOW = f"norm underflowed to zero at step {UNDERFLOW_STEP}"


# leftover stored coupling potentials, which no config takes
STORED_VC_INI = ("[grid]\nn = 256\nx_min = -10\nx_max = 10\n"
                 "[scenario]\nkind = wave\nlabel = vc\n"
                 "initial_type = gaussian\ninitial_sigma = 0.5\n"
                 "vc0_type = constant\nvc0_v0 = 5\nvc1_type = constant\nvc1_v0 = -3\n"
                 "[integration]\ndt = 1e-3\nn_steps = 100\nsnapshot_every = 50\n")


# explicit coupling on its well-posed domain: a uniform environment under
# a constant vg1 gives S1 = 0.75 t, and S0 = 0.5 x - (0.125 + 5) t
HJ_UNIFORM_INI = ("[grid]\nn = 64\nx_min = -5\nx_max = 5\n"
                  "[scenario]\nkind = hj\nlabel = hjvg\n"
                  "channel0_type = linear\nchannel0_slope = 0.5\nchannel1_type = zero\n"
                  "vg0_type = constant\nvg0_v0 = 5\n"
                  "vg1_type = constant\nvg1_v0 = -0.75\npotential_mode = explicit\n"
                  "[integration]\ndt = 1e-3\nn_steps = 20\n")
# the same run with its vg0 written as the deleted stored coupling vc0
HJ_VC_INI = HJ_UNIFORM_INI.replace("vg0_", "vc0_")


# a growing imaginary potential of 1e6: its multiplier exp(dt Vg1) = e^1000
# overflows to inf, and so does the state before the first snapshot
OVERFLOW_INI = ("[grid]\nn = 64\nx_min = -5\nx_max = 5\n"
                "[scenario]\nkind = wave\nlabel = ov\n"
                "initial_type = gaussian\ninitial_sigma = 1.0\n"
                "vg1_type = constant\nvg1_v0 = 1e6\n"
                "[integration]\ndt = 1e-3\nn_steps = 20\nsnapshot_every = 10\n")


# a Gaussian of masses (1, 1.2) on a small grid; {hbar} and {keys}, the
# potentials, set its potential rate
RATE_INI = ("[grid]\nn = 64\nx_min = -5\nx_max = 5\n"
            "[params]\nm0 = 1.0\nm1 = 1.2\nhbar = {hbar}\n"
            "[scenario]\nkind = wave\nlabel = fz\n"
            "initial_type = gaussian\ninitial_sigma = 1.0\n"
            "initial_k = 0.5\n{keys}"
            "[integration]\ndt = 1e-4\nn_steps = 12\nsnapshot_every = 4\n")


# a linear S0 on a small grid; {keys} adds the potentials
HJ_LINEAR_INI = ("[grid]\nn = 64\nx_min = -5\nx_max = 5\n"
                 "[scenario]\nkind = hj\nlabel = hjv\n"
                 "channel0_type = linear\nchannel0_slope = 0.5\n"
                 "channel1_type = zero\n{keys}"
                 "[integration]\ndt = 1e-3\nn_steps = 20\n")


# environment data that explicit coupling cannot step: each replaces the
# zero channel1 of HJ_LINEAR_INI, and each runs under the closure rule
ILL_POSED_HJ_CHANNELS = {
    "slope": "channel1_type = linear\nchannel1_slope = 0.2\n",
    "quadratic": "channel1_type = quadratic\nchannel1_coeff = 0.1\n",
    "harmonic_vg1": "channel1_type = zero\nvg1_type = harmonic\nvg1_omega = 1.0\n",
    "quadratic_channel2": "channel1_type = zero\nchannel2_type = quadratic\n"
                          "channel2_coeff = 0.1\n",
}


# HJ_LINEAR_INI with a focusing (coeff -0.5) or flat (coeff 0) S0 and a
# subnormal m0, whose 1/(2 m0) overflows: a blow-up at step 1 and a NaN
# rate where the gradient is 0
TINY_M0_HJ_INI = HJ_LINEAR_INI.format(keys="").replace(
    "channel0_type = linear\nchannel0_slope = 0.5\n",
    "channel0_type = quadratic\nchannel0_coeff = {coeff}\n") + "[params]\nm0 = 1e-310\n"


# HJ_LINEAR_INI with a focusing S0 under the closure rule at zeta = 1e308:
# c = zeta / (2 kinetic_mass) = 5e307 is finite, but the closure rate
# dt c k_max^2 is not, and c lap S0 overflows in the first stage
HUGE_ZETA_CLOSURE_HJ_INI = HJ_LINEAR_INI.format(
    keys="potential_mode = symmetric_closure\n").replace(
    "channel0_type = linear\nchannel0_slope = 0.5\n",
    "channel0_type = quadratic\nchannel0_coeff = -0.5\n") + "[params]\nzeta = 1e308\n"


def ill_posed_hj_ini(case, mode="explicit"):
    ini = HJ_LINEAR_INI.format(keys=f"potential_mode = {mode}\n").replace(
        "channel1_type = zero\n", ILL_POSED_HJ_CHANNELS[case])
    return ini + "[params]\nm2 = 1.0\n" if case == "quadratic_channel2" else ini


# a Gaussian that does not vanish at the periodic edges, under the
# mass-asymmetry term at masses (1, m1)
ASYM_EDGE_INI = ("[grid]\nn = 64\nx_min = -5\nx_max = 5\n"
                 "[params]\nm0 = 1.0\nm1 = {m1}\n"
                 "[scenario]\nkind = wave\nlabel = asym_edge\n"
                 "initial_type = gaussian\ninitial_sigma = 1.0\n"
                 "[integration]\ndt = 4e-3\nn_steps = {n_steps}\nsnapshot_every = 200\n")


# a field that its descriptor type, or the oscillator, does not list, with
# the line that names it
UNLISTED_FIELDS = {
    "misspelt_initial_field": (
        WAVE_INI.replace("initial_sigma = 0.5\n", "initial_sigam = 2.0\n"),
        "initial-data type 'gaussian' has no field 'sigam'"),
    "field_of_another_potential_type": (
        WAVE_INI.replace("kind = wave\n",
                         "kind = wave\nvg0_type = none\nvg0_omega = 3.0\n"),
        "potential type 'none' has no field 'omega'"),
    "slope_on_zero_channel": (
        HJ_LINEAR_INI.format(keys="").replace(
            "channel1_type = zero\n", "channel1_type = zero\nchannel1_slope = 2.0\n"),
        "action channel type 'zero' has no field 'slope'"),
    # k = 2 pi 8 / 20, a harmonic of the default domain
    "plane_wave_k": (
        WAVE_INI.replace("initial_type = gaussian\ninitial_sigma = 0.5\n",
                         "initial_type = plane_wave\ninitial_k = 2.5132741228718345\n"),
        "initial-data type 'plane_wave' has no field 'k'"),
    # ck has the columns x and xdot only
    "ck_y0": (
        "[scenario]\nkind = oscillator\nlabel = ck\nformalism = ck\ny0 = 5.0\n"
        "[integration]\ndt = 1e-3\nn_steps = 10\n",
        "formalism 'ck' has no field 'y0'"),
    "ck_vy0": (
        "[scenario]\nkind = oscillator\nlabel = ck\nformalism = ck\nvy0 = 0.5\n"
        "[integration]\ndt = 1e-3\nn_steps = 10\n",
        "formalism 'ck' has no field 'vy0'"),
}


class TestRun:
    def test_wave_run_writes_contracted_csvs(self, tmp_path):
        code = main(["run", "--scenario", "plane_wave_dispersion",
                     "--out", str(tmp_path)])
        assert code == 0
        snaps = read_lines(tmp_path / "plane_wave_dispersion_snapshots.csv")
        assert snaps[0] == "t,x,re_psi,im_psi,rho,S0,S1"
        summary = read_lines(tmp_path / "plane_wave_dispersion_summary.csv")
        assert summary[0] == "t,norm,energy,drift_rate,clamped_samples"
        # 17 significant digits round-trip 64-bit floats exactly
        val = summary[1].split(",")[1]
        assert float(val) == float(format(float(val), ".17g"))

    def test_unknown_scenario_exits_2_and_lists_names(self, tmp_path, capsys):
        code = main(["run", "--scenario", "nope", "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "free_gaussian_symmetric" in err

    def test_missing_arguments_exit_2(self):
        assert main(["run"]) == 2

    @pytest.mark.parametrize("ini, flags", [
        ("[grid]\nn = ten\n" + WAVE_INI, []),
        (WAVE_INI.replace("= 0.5", "= abc"), []),
        (WAVE_INI.replace("n_steps = 10", "n_steps = 1.5"), []),
        (WAVE_INI.replace("= gaussian", "= samples"), []),
        (HJ_INI, []),
        (OSC_INI, []),
        (None, ["--scenario", "bateman_damped", "--snapshot-every", "0"]),
        (None, ["--scenario", "hj_free_particle", "--snapshot-every", "0"]),
        (WAVE_INI + "[params]\nm3000000 = 1.0\n", []),
        ("[scenario]\nname = hj_free_particle\n[params]\nm2 = 1.0\n", []),
        (WAVE_INI + "[params]\nhbar = 0\n", []),
        (WAVE_INI + "[params]\nhbar = -1.0\nzeta = 1.0\n", []),
        ("[scenario]\nname = hj_free_particle\n[params]\nhbar = 0\n"
         "zeta = 2.0\n", []),
        (STORED_VC_INI, []),
        (STORED_VC_INI.replace("label = vc\n", "label = vc\nclosure_mode = explicit\n"
                               "potential_mode = symmetric_closure\n"), []),
        (HJ_VC_INI.replace("= explicit", "= symmetric_closure"), []),
        (WAVE_INI.replace("kind = wave\n", "kind = wave\nclosure_mode = explicit\n"), []),
        (STORED_VC_INI.replace("label = vc\n", "label = vc\nclosure_mode = explicit\n"),
         []),
        ("[scenario]\nname = free_gaussian_symmetric\n"
         "[params]\nm0 = 1e-306\nm1 = 1e-306\n", []),
        ("[grid]\nx_min = -1e308\nx_max = 1e308\n"
         "[scenario]\nname = hj_free_particle\n", []),
        ("[grid]\nx_min = 0\nx_max = 1e-310\n"
         "[scenario]\nname = free_gaussian_symmetric\n", []),
        ("[scenario]\nname = free_gaussian_symmetric\n[integration]\n"
         "dt = 1e-3\nn_steps = 1000000000000000000000000000000\n", []),
        ("[scenario]\nname = bateman_damped\n[integration]\n"
         "dt = 1e-3\nn_steps = 4611686018427387904\n", []),
        ("[scenario]\nname = bateman_damped\n[integration]\n"
         "dt = 1e-3\nn_steps = 1" + "0" * 400 + "\n", []),
        *((ill_posed_hj_ini(case), []) for case in ILL_POSED_HJ_CHANNELS),
        (WAVE_INI.replace("kind = wave\n", "kind = wave\nvc0_type = none\n"), []),
        ("[scenario]\nname = free_gaussian_symmetric\n"
         "vg0_type = harmonic\nvg0_omega = 3.0\n", []),
        (WAVE_INI.replace("initial_sigma = 0.5\n", "intial_sigma = 2.0\n"
                          "vg2_type = harmonic\n"), []),
        (HJ_LINEAR_INI.format(keys="nonlinear = on\n"), []),
        ("[grdi]\nn = 64\n" + WAVE_INI, []),
        ("[scenario]\nname = bateman_damped\n[integration]\ndt = 1e-3\n"
         "n_steps = 9007199254740992\nsnapshot_every = 1\n", []),
        (TINY_M0_HJ_INI.format(coeff=-0.5), []),
        (TINY_M0_HJ_INI.format(coeff=0), []),
        # each 1/(2 m_i) is finite, but 1/m0 + 1/m1 overflows: reduced mass 0
        (HJ_LINEAR_INI.format(keys="potential_mode = symmetric_closure\n")
         + "[params]\nm0 = 4e-309\nm1 = 4e-309\n", []),
        (HUGE_ZETA_CLOSURE_HJ_INI, []),
        *((ini, []) for ini, _ in UNLISTED_FIELDS.values()),
        (WAVE_INI.replace("kind = wave\n", "kind = wave\nnonlinear = auto\n"), []),
    ], ids=["grid_not_number", "scenario_not_number", "n_steps_not_int",
            "wave_samples_without_values", "hj_samples_without_values",
            "oscillator_dt_negative", "oscillator_snapshot_every_0",
            "hj_snapshot_every_0", "wave_mass_key_beyond_channels",
            "hj_mass_key_beyond_channels", "hbar_zero",
            "hbar_negative_with_zeta", "hj_hbar_zero_with_zeta",
            "stored_vc_with_symmetric_closure", "stored_vc_with_closure_potentials",
            "hj_stored_vc_with_closure_potentials", "explicit_with_zero_couplings",
            "explicit_with_stored_couplings", "kinetic_rate_overflows",
            "grid_length_overflows", "grid_nyquist_overflows", "n_steps_1e30",
            "oscillator_n_steps_2_62", "n_steps_beyond_float_range",
            *(f"hj_explicit_{case}" for case in ILL_POSED_HJ_CHANNELS),
            "bare_vc0_type_key", "builtin_with_unread_vg0", "misspelt_initial_key",
            "hj_with_nonlinear_key", "unknown_section", "schedule_beyond_memory",
            "hj_inverse_mass_overflows", "hj_inverse_mass_overflows_at_zero_gradient",
            "hj_closure_coefficient_overflows", "hj_closure_rate_overflows",
            *UNLISTED_FIELDS, "wave_nonlinear_key"])
    def test_bad_input_exits_2_with_one_line(self, tmp_path, capsys, ini, flags):
        if ini is not None:
            cfg = tmp_path / "bad.ini"
            cfg.write_text(ini)
            flags = ["--config", str(cfg)]
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")  # as outside the test suite
            assert main(["run", *flags, "--out", str(out)]) == 2
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("case", UNLISTED_FIELDS)
    def test_unlisted_field_is_named(self, tmp_path, capsys, case):
        ini, line = UNLISTED_FIELDS[case]
        cfg = tmp_path / "bad.ini"
        cfg.write_text(ini)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"configuration error: {line}\n"

    @pytest.mark.parametrize("command", [
        ["run", "--scenario", "free_gaussian_symmetric"],
        ["sweep", "--scenario", "residual_mass_plane_wave", "--param", "m1",
         "--values", "1.0"],
    ], ids=["run", "sweep"])
    def test_scenario_and_config_together_exit_2(self, tmp_path, capsys, command):
        # each command takes its scenario from exactly one source
        cfg = tmp_path / "both.ini"
        cfg.write_text("[scenario]\nname = plane_wave_dispersion\n"
                       if command[0] == "sweep" else HJ_LINEAR_INI.format(keys=""))
        out = tmp_path / "out"
        assert main([*command, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"configuration error: {command[0]}: give one of --scenario NAME "
            "and --config FILE\n")
        assert not out.exists()

    @pytest.mark.parametrize("ini", [
        "[scenario]\nname = free_gaussian_symmetric\n",
        HJ_LINEAR_INI.format(keys="potential_mode = symmetric_closure\n")],
        ids=["wave", "hj_closure"])
    def test_overflowing_inverse_mass_sum_is_named(self, tmp_path, capsys, ini):
        # each 1/m_i is finite but their sum is not, so the reduced mass would be 0
        cfg = tmp_path / "masses.ini"
        cfg.write_text(ini + "[params]\nm0 = 4e-309\nm1 = 4e-309\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "configuration error: masses (4e-309, 4e-309): 1/m0 + 1/m1 leaves the "
            "float range; raise the masses\n")

    @pytest.mark.parametrize("case", ILL_POSED_HJ_CHANNELS)
    def test_ill_posed_explicit_data_runs_under_closure_rule(self, tmp_path, case):
        # the data that explicit mode rejects are valid hj data
        cfg = tmp_path / "hjv.ini"
        cfg.write_text(ill_posed_hj_ini(case, "symmetric_closure"))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0

    def test_caustic_run_exits_3_and_flags_summary(self, tmp_path):
        code = main(["run", "--scenario", "hj_caustic", "--out", str(tmp_path)])
        assert code == 3
        summary = read_lines(tmp_path / "hj_caustic_summary.csv")
        assert summary[0] == "t,max_abs_grad,participation_integral"
        assert "# caustic/blow-up detected at step 4978" in summary
        snaps = read_lines(tmp_path / "hj_caustic_snapshots.csv")
        assert snaps[0] == "t,x,S0,S1"

    @pytest.mark.parametrize("m1, n_steps, step", [(20.0, 4000, 3800),
                                                   (5.0, 4400, 4000)])
    def test_mass_asymmetric_row_stops_on_spectral_tail(self, tmp_path, capsys,
                                                         m1, n_steps, step):
        # the high-wavenumber share of the spectrum grows from 3.4e-9 and
        # passes the bound while the norm still holds
        cfg = tmp_path / "asym.ini"
        cfg.write_text(ASYM_EDGE_INI.format(m1=m1, n_steps=n_steps))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("blow-up: partial output")
        trailer = read_lines(tmp_path / "asym_edge_summary.csv")[-1]
        match = re.fullmatch(r"# spectral tail (\S+) at step (\d+)", trailer)
        assert match and int(match[2]) == step
        assert 3.4e-5 < float(match[1]) < 1e-3
        rows = parse_csv(tmp_path / "asym_edge_summary.csv")
        assert len(rows) == step // 200
        assert np.max(np.abs(rows[:, 1] - 1.0)) < 1e-9

    def test_norm_underflow_exits_3_with_partial_output(self, tmp_path, capsys):
        cfg = tmp_path / "underflow.ini"
        cfg.write_text(UNDERFLOW_INI)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err.count("\n") == 1
        summary = read_lines(tmp_path / "underflow_summary.csv")
        assert summary[-1] == f"# {UNDERFLOW}"
        rows = parse_csv(tmp_path / "underflow_summary.csv")
        assert rows[:, 0].tolist() == [step * 1e-3
                                       for step in range(0, UNDERFLOW_STEP, 100)]
        assert np.all(rows[:, 1] > 0.0)
        assert np.all(np.isfinite(parse_csv(tmp_path / "underflow_snapshots.csv")))

    @pytest.mark.parametrize("hbar, keys", [
        ("5e-324", "vg0_type = harmonic\nvg0_omega = 1.0\n"),
        ("5e-324", ""),
    ], ids=["harmonic_vg0", "zero_vg"])
    def test_non_finite_potential_rate_exits_2(self, tmp_path, capsys, hbar, keys):
        # at a subnormal hbar max|Vg| / zeta overflows, and with Vg = 0 the
        # complex division by zeta still gives NaN
        cfg = tmp_path / "tiny_hbar.ini"
        cfg.write_text(RATE_INI.format(hbar=hbar, keys=keys))
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")  # as outside the test suite
            code = main(["run", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert err.startswith("configuration error: potential rate")
        assert err.count("\n") == 1
        assert not out.exists()

    def _run_rate_config(self, tmp_path, keys):
        """Run RATE_INI at hbar = 1: exit code, caught warnings, summary path."""
        cfg = tmp_path / "large.ini"
        cfg.write_text(RATE_INI.format(hbar="1.0", keys=keys))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["run", "--config", str(cfg), "--out", str(tmp_path)])
        return code, [str(w.message) for w in caught], tmp_path / "fz_summary.csv"

    def test_large_real_potential_is_a_phase(self, tmp_path, capsys):
        # a finite rate passes validation; a real potential of 1e200 only
        # turns the phase, exp(-i dt Vg0), so every snapshot keeps norm 1
        code, caught, summary = self._run_rate_config(
            tmp_path, "vg0_type = constant\nvg0_v0 = 1e200\n")
        assert code == 0 and caught == []
        assert capsys.readouterr().err == ""
        rows = parse_csv(summary)
        assert rows[:, 0].tolist() == [step * 1e-4 for step in (0, 4, 8, 12)]
        assert np.max(np.abs(rows[:, 1] - 1.0)) < 1e-12

    def test_large_growing_potential_blows_up_without_warnings(self, tmp_path, capsys):
        # a growing imaginary potential of 1.2e158 overflows exp(dt Vg1) to
        # inf, which only the snapshot check may report
        code, caught, summary = self._run_rate_config(
            tmp_path, "vg0_type = constant\nvg0_v0 = 1.2e158\n"
                      "vg1_type = constant\nvg1_v0 = 1.2e158\n")
        assert code == 3 and caught == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("blow-up: partial output")
        assert read_lines(summary)[-1] == "# blow-up at step 4"

    @pytest.mark.parametrize("v0", [-1999.0, -2000.0, -3000.0])
    def test_strong_decay_has_the_exact_rate(self, tmp_path, v0):
        # the norm rate of a constant decaying potential is exactly
        # 2 Vg1 / zeta at any strength; zeta = 1 here
        cfg = tmp_path / "decay.ini"
        cfg.write_text(DECAY_INI.format(v0=v0))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        rates = parse_csv(tmp_path / "bad_summary.csv")[1:, 3]
        assert len(rates) == 40
        assert np.max(np.abs(rates / (2.0 * v0) - 1.0)) < 1e-12

    def test_genuine_blow_up_exits_3_without_warnings(self, tmp_path, capsys):
        # only the snapshot check may report the overflow
        cfg = tmp_path / "ov.ini"
        cfg.write_text(OVERFLOW_INI)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["run", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 3
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("blow-up: partial output")
        assert read_lines(tmp_path / "ov_summary.csv")[-1] == "# blow-up at step 10"

    @pytest.mark.parametrize("v0, code", [("1e308", 2), ("5e307", 2), ("1e306", 0)])
    def test_hj_potential_must_keep_the_stage_sum_finite(self, tmp_path, capsys,
                                                         v0, code):
        # each RK4 stage adds Vg0 to the rate of S0, so the stage sum
        # k1 + 2 k2 + 2 k3 + k4 reaches 6 max|Vg0|: 6e306 is finite, 3e308 not
        cfg = tmp_path / "hjv.ini"
        cfg.write_text(HJ_LINEAR_INI.format(
            keys=f"vg0_type = constant\nvg0_v0 = {v0}\n"))
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == code
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        if code == 2:
            assert err.startswith("configuration error: potential ")
            assert err.count("\n") == 1
            assert not out.exists()
        else:
            assert err == ""

    def test_hj_blow_up_exits_3_without_warnings(self, tmp_path, capsys):
        # a potential of 1e200 x^2 makes grad S0 ~ 1e199 in one step, whose
        # square overflows; only the finiteness and gradient check may
        # report it
        cfg = tmp_path / "hjv.ini"
        cfg.write_text(HJ_LINEAR_INI.format(
            keys="vg0_type = harmonic\nvg0_omega = 1e100\n"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["run", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 3
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("blow-up: partial output")
        assert (read_lines(tmp_path / "hjv_summary.csv")[-1]
                == "# caustic/blow-up detected at step 1")

    def test_oscillator_run(self, tmp_path):
        code = main(["run", "--scenario", "ck_damped", "--out", str(tmp_path)])
        assert code == 0
        snaps = read_lines(tmp_path / "ck_damped_snapshots.csv")
        assert snaps[0] == "t,x,xdot"
        summary = read_lines(tmp_path / "ck_damped_summary.csv")
        assert summary[0] == "t,energy,ck_hamiltonian"

    def test_identical_runs_byte_identical(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["run", "--scenario", "plane_wave_dispersion",
                         "--out", str(out)]) == 0
        for suffix in ("snapshots", "summary"):
            fa = (out_a / f"plane_wave_dispersion_{suffix}.csv").read_bytes()
            fb = (out_b / f"plane_wave_dispersion_{suffix}.csv").read_bytes()
            assert fa == fb


class TestConfigFile:
    def test_builtin_with_overrides(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            "[scenario]\nname = plane_wave_dispersion\n"
            "[integration]\ndt = 1e-3\nn_steps = 100\nsnapshot_every = 50\n"
            "[params]\nm0 = 1.0\nm1 = 1.0\nhbar = 1.0\n"
            f"[output]\npath = {tmp_path / 'out'}\n")
        assert main(["run", "--config", str(cfg)]) == 0
        summary = read_lines(tmp_path / "out" /
                             "plane_wave_dispersion_summary.csv")
        assert summary[-1].split(",")[0] == format(0.1, ".17g")

    def test_custom_wave_scenario(self, tmp_path):
        cfg = tmp_path / "custom.ini"
        cfg.write_text(
            "[grid]\nn = 512\nx_min = -10\nx_max = 10\n"
            "[scenario]\nkind = wave\nlabel = my_packet\n"
            "initial_type = gaussian\ninitial_sigma = 0.5\ninitial_k = 2.5132741228718345\n"
            "vg0_type = harmonic\nvg0_omega = 1.0\n"
            "[integration]\ndt = 1e-3\nn_steps = 50\n"
            f"[output]\npath = {tmp_path / 'out'}\n")
        assert main(["run", "--config", str(cfg)]) == 0
        assert (tmp_path / "out" / "my_packet_snapshots.csv").exists()

    def test_three_channel_hj_scenario(self, tmp_path):
        cfg = tmp_path / "hj3.ini"
        cfg.write_text(
            "[scenario]\nkind = hj\nlabel = hj_three\n"
            "channel0_type = linear\nchannel0_slope = 0.5\n"
            "channel1_type = zero\nchannel2_type = linear\nchannel2_slope = 0.0\n"
            "[params]\nm0 = 1.0\nm1 = 2.0\nm2 = 0.5\n"
            "[integration]\ndt = 1e-3\nn_steps = 20\n"
            f"[output]\npath = {tmp_path / 'out'}\n")
        assert main(["run", "--config", str(cfg)]) == 0
        snaps = read_lines(tmp_path / "out" / "hj_three_snapshots.csv")
        assert snaps[0] == "t,x,S0,S1,S2"

    def test_hj_explicit_uniform_environment_closed_form(self, tmp_path):
        # a uniform environment under a constant vg1 stays uniform,
        # S1 = -vg1 t, and S0 follows the real HJ equation under vg0
        cfg = tmp_path / "hjvg.ini"
        cfg.write_text(HJ_UNIFORM_INI)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        rows = parse_csv(tmp_path / "hjvg_snapshots.csv")
        final = rows[rows[:, 0] == rows[-1, 0]]
        assert final[0, 0] == pytest.approx(0.02, abs=1e-15)
        exact = 0.5 * final[:, 1] - (0.125 + 5.0) * final[:, 0]
        assert np.max(np.abs(final[:, 2] - exact)) < 1e-12
        assert np.max(np.abs(final[:, 3] - 0.75 * final[:, 0])) < 1e-15

    def test_channel_mass_mismatch_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "hj3bad.ini"
        cfg.write_text(
            "[scenario]\nkind = hj\n"
            "channel0_type = zero\nchannel1_type = zero\nchannel2_type = zero\n"
            "[integration]\ndt = 1e-3\nn_steps = 5\n"
            f"[output]\npath = {tmp_path / 'out'}\n")
        assert main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "masses" in err and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_snapshot_cadence_override(self, tmp_path):
        assert main(["run", "--scenario", "plane_wave_dispersion",
                     "--out", str(tmp_path), "--snapshot-every", "250"]) == 0
        summary = read_lines(tmp_path / "plane_wave_dispersion_summary.csv")
        assert len(summary) == 1 + 3  # t = 0, 0.25, 0.5

    @pytest.mark.parametrize("scenario", [
        "kind = wave\ninitial_type = gaussian\ninitial_sigma = 0.5\n",
        "kind = hj\nchannel0_type = linear\nchannel0_slope = 1.0\n"
        "channel1_type = zero\n",
        "kind = oscillator\nformalism = bateman\ngamma = 0.2\ny0 = 1.0\n",
    ], ids=["wave", "hj", "oscillator"])
    def test_last_step_recorded_off_the_cadence(self, tmp_path, scenario):
        cfg = tmp_path / "last.ini"
        cfg.write_text(f"[scenario]\nlabel = last\n{scenario}[integration]\n"
                       "dt = 0.01\nn_steps = 15\nsnapshot_every = 10\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        times = [0.0, 10 * 0.01, 15 * 0.01]
        assert list(parse_csv(tmp_path / "last_summary.csv")[:, 0]) == times
        assert parse_csv(tmp_path / "last_snapshots.csv")[-1, 0] == times[-1]

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "absent.ini")]) == 2

    def test_bad_section_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[scenario]\nkind = wave\n")
        assert main(["run", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("name, command", [
        ("residual_mass_plane_wave", ["run"]),
        ("hj_caustic", ["run"]),
        ("residual_mass_plane_wave", ["sweep", "--param", "m1", "--values", "1.0,1.2"]),
    ], ids=["wave", "hj", "sweep"])
    def test_grid_beyond_memory_exits_2_with_one_line(self, tmp_path, name, command):
        """The 8 TiB of samples of a 2**40-point grid cannot be allocated.
        The run goes in a subprocess whose address space is capped at
        16 GiB, so the allocation fails at once whatever the kernel's
        overcommit policy."""
        cfg = tmp_path / "huge.ini"
        cfg.write_text(f"[grid]\nn = {2 ** 40}\n[scenario]\nname = {name}\n")
        out = tmp_path / "out"
        argv = [*command, "--config", str(cfg), "--out", str(out)]
        probe = ("import resource, sys\n"
                 "cap = 16 << 30\n"
                 "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
                 "if hard != resource.RLIM_INFINITY:\n"
                 "    cap = min(cap, hard)\n"
                 "resource.setrlimit(resource.RLIMIT_AS, (cap, hard))\n"
                 "from dualwave.cli import main\n"
                 f"sys.exit(main({argv!r}))\n")
        src = str(Path(cli.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                              text=True, timeout=60,
                              env=dict(os.environ, PYTHONPATH=src))
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == (f"configuration error: scenario {name!r}: the samples "
                               f"of a grid of {2 ** 40} points cannot be allocated\n")
        assert not out.exists()


@pytest.fixture
def cpus(monkeypatch):
    """A function that sets the CPU count `core.run_tasks` and the sweep's
    dealing read: at 1 a sweep steps in this process, at 2 on workers."""
    def set_count(n):
        monkeypatch.setattr(core, "usable_cpus", lambda: n)
    return set_count


# a worker sees functions patched into the parent only when it is forked
needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="patched functions reach forked workers only")


class TestSweep:
    def test_m1_sweep_rows_ordered_with_zero_shift_at_symmetry(self, tmp_path):
        code = main(["sweep", "--scenario", "residual_mass_plane_wave",
                     "--param", "m1", "--values", "1.5,1.0,1.1",
                     "--out", str(tmp_path)])
        assert code == 0
        lines = read_lines(tmp_path /
                           "residual_mass_plane_wave_sweep_m1.csv")
        assert lines[0] == ("param,value,t_end,norm_end,drift_rate,"
                            "phase_rate,nonlinear_phase_shift")
        cells = data_cells(tmp_path / "residual_mass_plane_wave_sweep_m1.csv")
        assert [row[0] for row in cells] == ["m1"] * 3
        assert_canonical(row[1:] for row in cells)
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert values == sorted(values)
        shifts = {float(line.split(",")[1]): float(line.split(",")[-1])
                  for line in lines[1:]}
        assert shifts[1.0] == 0.0
        assert shifts[1.5] > shifts[1.1] > 0.0

    def test_phase_shift_column_is_the_diagnostics_phase_shift(self, tmp_path):
        """Each row's nonlinear_phase_shift is `phase_shift` of the point's
        runs without and with the mass-asymmetry term; at m1 == m0 the term
        is off and the shift is 0, as `phase_shift` of the two runs is."""
        name = "residual_mass_plane_wave"
        assert main(["sweep", "--scenario", name, "--param", "m1",
                     "--values", "1.0,1.5", "--out", str(tmp_path)]) == 0
        shifts = []
        for m1 in (1.0, 1.5):
            spec = _sweep_value_spec(builtin_by_name(name), "m1", m1)
            scenario = expand(spec, DEFAULT_GRID).scenario
            off = evolve(dataclasses.replace(scenario, nonlinear_term=NONLINEAR_OFF))
            on = evolve(dataclasses.replace(scenario, nonlinear_term=NONLINEAR_ON))
            shifts.append(phase_shift(off, on))
        assert shifts[0] == 0.0 and shifts[1] > 0.0
        cells = data_cells(tmp_path / f"{name}_sweep_m1.csv")
        assert [float(row[-1]) for row in cells] == shifts

    def test_norm_underflow_exits_3_with_one_line(self, tmp_path, capsys):
        cfg = tmp_path / "underflow.ini"
        cfg.write_text(UNDERFLOW_INI)
        code = main(["sweep", "--config", str(cfg), "--param", "lambda_Vg1",
                     "--values", "1000", "--out", str(tmp_path / "out")])
        assert code == 3
        assert capsys.readouterr().err == f"sweep aborted: {UNDERFLOW}\n"

    def test_blow_up_keeps_finished_points(self, tmp_path, capsys):
        cfg = tmp_path / "underflow.ini"
        cfg.write_text(UNDERFLOW_INI)
        code = main(["sweep", "--config", str(cfg), "--param", "lambda_Vg1",
                     "--values", "1000,0.5", "--out", str(tmp_path / "out")])
        assert code == 3
        assert capsys.readouterr().err == f"sweep aborted: {UNDERFLOW}\n"
        path = tmp_path / "out" / "underflow_sweep_lambda_Vg1.csv"
        lines = read_lines(path)
        assert lines[-1] == f"# lambda_Vg1=1000: {UNDERFLOW}"
        cells = data_cells(path)
        assert [row[:2] for row in cells] == [["lambda_Vg1", "0.5"]]
        assert_canonical(row[1:] for row in cells)

    @pytest.mark.parametrize("name, param, values, integration", [
        ("residual_mass_plane_wave", "m1", (1.5, 1.0, 1.1), None),
        ("plane_wave_dispersion", "zeta", (1.0, 2.0), None),
        ("norm_drift_constant_Vg1", "lambda_Vg1", (0.25, 0.5), None),
        ("plane_wave_dispersion", "dt", (1e-3, 5e-4), None),
        ("residual_mass_plane_wave", "m1", (1.5, 1.0, 1.2), Integration(2e-5, 200, 1)),
    ], ids=["residual_mass_plane_wave-m1-values0", "plane_wave_dispersion-zeta-values1",
            "norm_drift_constant_Vg1-lambda_Vg1-values2", "plane_wave_dispersion-dt-values3",
            "residual_mass_plane_wave-m1-dense"])
    def test_rows_equal_single_runs(self, tmp_path, name, param, values, integration):
        """The stacked sweep writes the cells that one-row runs give, read
        through the WaveRun functions of `diagnostics`."""
        spec = builtin_by_name(name)
        source = ["--scenario", name]
        if integration is not None:
            spec = dataclasses.replace(spec, integration=integration)
            cfg = tmp_path / "dense.ini"
            cfg.write_text(f"[scenario]\nname = {name}\n[integration]\n"
                           f"dt = {integration.dt!r}\nn_steps = {integration.n_steps}\n"
                           f"snapshot_every = {integration.snapshot_every}\n")
            source = ["--config", str(cfg)]
        code = main(["sweep", *source, "--param", param,
                     "--values", ",".join(map(repr, values)),
                     "--out", str(tmp_path)])
        assert code == 0
        expected = []
        for value in sorted(values):
            scenario = expand(_sweep_value_spec(spec, param, value), DEFAULT_GRID).scenario
            run = evolve(scenario)
            shift = (phase_shift(evolve(dataclasses.replace(
                scenario, nonlinear_term=NONLINEAR_OFF)), run)
                if scenario.nonlinear_active else 0.0)
            row = (value, run.final.t, run.final.norm,
                   norm_rate(run.snapshots[0], run.final),
                   phase_rate(run, scenario.psi0), shift)
            expected.append([param] + ["%.17g" % c for c in row])
        assert data_cells(tmp_path / f"{spec.name}_sweep_{param}.csv") == expected

    @staticmethod
    def dense_sweep_peak(tmp_path, traced_peak):
        """The traced peak of an m1 sweep of 4 points, 201 snapshots each."""
        cfg = tmp_path / "dense.ini"
        cfg.write_text("[scenario]\nname = residual_mass_plane_wave\n[integration]\n"
                       "dt = 2e-5\nn_steps = 200\nsnapshot_every = 1\n")
        code, peak = traced_peak(main, [
            "sweep", "--config", str(cfg), "--param", "m1",
            "--values", "1.1,1.2,1.35,1.5", "--out", str(tmp_path)])
        assert code == 0
        assert multiprocessing.active_children() == []
        return peak

    def test_dense_sweep_keeps_no_snapshots(self, tmp_path, traced_peak, cpus):
        """Each point's run keeps only what its row reads, so a sweep's
        memory does not grow with its snapshot count: 8 runs of 201
        snapshots would hold 8 * 201 * 1024 complex values, 26 MB. On one
        CPU the runs step in this process, where `tracemalloc` sees them."""
        cpus(1)
        assert self.dense_sweep_peak(tmp_path, traced_peak) < 4e6

    def test_dense_sweep_on_workers_sends_back_only_what_rows_read(
            self, tmp_path, traced_peak, cpus):
        """On workers this process traces the tasks and the records sent
        back, not the stepping; records of every snapshot would be 26 MB."""
        cpus(2)
        assert self.dense_sweep_peak(tmp_path, traced_peak) < 4e6

    @pytest.mark.parametrize("source, param, values, code", [
        (["--scenario", "residual_mass_plane_wave"], "m1", "1.5,1.0,1.2,1.35", 0),
        (["--scenario", "plane_wave_dispersion"], "dt", "1e-3,5e-4,2.5e-4", 0),
        (None, "lambda_Vg1", "1000,0.5,2", 3),
    ], ids=["m1-linear-and-asymmetric", "dt-one-stack-per-point", "blow-up"])
    def test_workers_write_the_bytes_of_one_process(self, tmp_path, capsys, cpus,
                                                    source, param, values, code):
        """Dealt to two workers, a sweep's points give the CSV, the stderr
        line and the exit code of the same sweep in this process."""
        if source is None:
            cfg = tmp_path / "underflow.ini"
            cfg.write_text(UNDERFLOW_INI)
            source = ["--config", str(cfg)]
        outputs = []
        for n_cpus in (1, 2):
            cpus(n_cpus)
            out = tmp_path / f"cpus{n_cpus}"
            exit_code = main(["sweep", *source, "--param", param,
                              "--values", values, "--out", str(out)])
            assert multiprocessing.active_children() == []
            [path] = out.iterdir()
            outputs.append((exit_code, capsys.readouterr().err, path.read_bytes()))
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == code
        if code == 3:
            assert outputs[0][1] == f"sweep aborted: {UNDERFLOW}\n"
            assert outputs[0][2].decode().endswith(f"# lambda_Vg1=1000: {UNDERFLOW}\n")

    @needs_fork
    def test_points_run_on_workers(self, tmp_path, monkeypatch, cpus):
        """Dealt to two workers, the points step in two processes, neither
        of them this one."""
        cpus(2)
        evolve_many, sweep_point = cli.evolve_many, cli._sweep_point
        pids = []

        def tagging_evolve_many(scenarios, records):
            for record in records:
                record.pid = os.getpid()
            return evolve_many(scenarios, records)

        def collecting_sweep_point(run, off):
            pids.append(run.pid)
            return sweep_point(run, off)

        monkeypatch.setattr(cli, "evolve_many", tagging_evolve_many)
        monkeypatch.setattr(cli, "_sweep_point", collecting_sweep_point)
        assert main(["sweep", "--scenario", "plane_wave_dispersion", "--param", "zeta",
                     "--values", "1.0,2.0,3.0", "--out", str(tmp_path)]) == 0
        assert len(pids) == 3 and len(set(pids)) == 2 and os.getpid() not in pids
        assert multiprocessing.active_children() == []

    def test_zeta_sweep_doubles_phase_rate(self, tmp_path):
        code = main(["sweep", "--scenario", "plane_wave_dispersion",
                     "--param", "zeta", "--values", "1.0,2.0",
                     "--out", str(tmp_path)])
        assert code == 0
        lines = read_lines(tmp_path / "plane_wave_dispersion_sweep_zeta.csv")
        rates = [float(line.split(",")[5]) for line in lines[1:]]
        assert abs(rates[1] / rates[0] - 2.0) < 1e-8

    def test_dt_sweep_preserves_total_time(self, tmp_path):
        code = main(["sweep", "--scenario", "plane_wave_dispersion",
                     "--param", "dt", "--values", "1e-3,5e-4",
                     "--out", str(tmp_path)])
        assert code == 0
        lines = read_lines(tmp_path / "plane_wave_dispersion_sweep_dt.csv")
        t_ends = [float(line.split(",")[2]) for line in lines[1:]]
        assert t_ends == pytest.approx([0.5, 0.5])

    def test_dt_value_giving_more_than_2_53_steps_is_rejected(self):
        # checked on the spec: a sweep that took it would never end
        with pytest.raises(ConfigurationError, match=r"2\*\*53"):
            _sweep_value_spec(builtin_by_name("plane_wave_dispersion"), "dt", 1e-300)

    def test_empty_values_exit_2(self, tmp_path):
        assert main(["sweep", "--scenario", "plane_wave_dispersion",
                     "--param", "zeta", "--values", "",
                     "--out", str(tmp_path)]) == 2

    def test_unknown_param_exit_2(self, tmp_path):
        assert main(["sweep", "--scenario", "plane_wave_dispersion",
                     "--param", "mystery", "--values", "1.0",
                     "--out", str(tmp_path)]) == 2

    def test_schedule_beyond_memory_exits_2_with_one_line(self, tmp_path, capsys):
        cfg = tmp_path / "long.ini"
        cfg.write_text("[scenario]\nname = plane_wave_dispersion\n[integration]\n"
                       "dt = 1e-3\nn_steps = 9007199254740992\nsnapshot_every = 1\n")
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--param", "zeta",
                     "--values", "1.0", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("param, values", [
        ("dt", "0"),
        ("dt", "nan"),
        ("dt", "5e-324"),
        ("dt", "3"),
        ("zeta", "inf"),
        ("zeta", "1.0,abc"),
    ], ids=["dt_zero", "dt_nan", "dt_subnormal", "dt_above_total_time",
            "zeta_inf", "value_not_number"])
    def test_bad_input_exits_2_with_one_line(self, tmp_path, capsys, param, values):
        code = main(["sweep", "--scenario", "plane_wave_dispersion",
                     "--param", param, "--values", values,
                     "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ")
        assert err.count("\n") == 1
        assert not list(tmp_path.iterdir())


# a focusing HJ run on a coarse grid: the caustic check stops it at step
# 1048, after eleven snapshots
CAUSTIC_INI = """\
[grid]
n = 128
[scenario]
kind = hj
label = focus
channel0_type = quadratic
channel0_coeff = -0.5
channel1_type = zero
[integration]
dt = 1e-3
n_steps = 2000
snapshot_every = 100
"""

# sha256 of the (snapshots, summary) CSVs; the oscillator runs use no FFT
OSCILLATOR_SHA256 = {
    "bateman_damped": (
        "5e56da70976655c0430e058b12e24681e5c149c00bf739a1ef5500a6280fe4e2",
        "c43c7018f19a5ad4c3342aecefb6f3c6049126f17bfcc39d372133f63672cb0f"),
    "ck_damped": (
        "25ab409176d3d7a359aad2b3f3993c1b6fc09b15121bcd1a43c025ea86384f91",
        "442c9235388a2793e840c68bbc1228e542816ee80b0a587dc636df54574b0621"),
    "dekker_damped": (
        "5e56da70976655c0430e058b12e24681e5c149c00bf739a1ef5500a6280fe4e2",
        "f952eb5dfcbb8365edf42d3a4a325a9b2719c7526c934be893d7494e1f8609dd"),
}
# and of hj_free_particle's, whose channels are uniform: it makes no FFT call
HJ_FREE_SHA256 = (
    "19a37378affb193058c7f0841feabcde3b47181bba42451c98e3e9a034200690",
    "c0780a7689bcdd775c8127b76dcde65651303e8a13616b7f97f407f4e1539705")


class TestByteContract:
    """Every cell is canonical %.17g and parses back to the solver's bits."""

    def test_wave_run(self, tmp_path):
        name = "free_gaussian_symmetric"
        assert main(["run", "--scenario", name, "--out", str(tmp_path)]) == 0
        scenario = expand(builtin_by_name(name), DEFAULT_GRID).scenario
        run = evolve(scenario)
        x = scenario.grid.x
        blocks = []
        for snap in run.snapshots:
            inv = from_wavefunction(snap.psi, scenario.params)
            v = snap.psi.values
            blocks.append(np.column_stack((
                np.full(x.size, snap.t), x, v.real, v.imag,
                v.real * v.real + v.imag * v.imag,
                inv.s0.values, inv.s1.values)))
        assert_bitwise(parse_csv(tmp_path / f"{name}_snapshots.csv"),
                       np.vstack(blocks))
        summary = summarize_run(run, scenario.potentials.values[0],
                                2.0 * scenario.params.reduced_mass, scenario.params.zeta)
        assert_bitwise(parse_csv(tmp_path / f"{name}_summary.csv"), summary)

    def test_clamped_samples_are_the_s1_cells_at_the_clamp(self, tmp_path):
        """Each summary row counts the cells of its snapshot whose S1 holds
        the clamp value -(zeta/2) ln (AMPLITUDE_FLOOR max|psi|)^2, zeta = 1."""
        name = "free_gaussian_symmetric"
        assert main(["run", "--scenario", name, "--out", str(tmp_path)]) == 0
        snaps = parse_csv(tmp_path / f"{name}_snapshots.csv")
        summary = parse_csv(tmp_path / f"{name}_summary.csv")
        blocks = np.split(snaps, len(summary))
        assert np.any(summary[:, 4] > 0) and np.any(summary[:, 4] == 0)
        for row, block in zip(summary, blocks):
            assert np.all(block[:, 0] == row[0])
            s1 = block[:, 6]
            clamp = -0.5 * math.log((AMPLITUDE_FLOOR * math.sqrt(np.max(block[:, 4]))) ** 2)
            at_clamp = np.isclose(s1, clamp, rtol=1e-13, atol=0.0)
            assert row[4] == np.count_nonzero(at_clamp)
            assert np.all(s1[at_clamp] == np.max(s1))

    def test_hj_run_keeps_no_gradient_stacks(self, traced_peak):
        """A dense HJ run holds the samples its snapshot CSV writes and
        reduces each gradient stack, which takes as many bytes, to its
        summary row as it arrives: what the run's tables hold beyond the
        samples is far below what the stacks would take. (The CSV writer
        then holds one block at a time.)"""
        spec = builtin_by_name("hj_free_particle")
        spec = dataclasses.replace(spec, integration=dataclasses.replace(
            spec.integration, snapshot_every=1))
        expanded = expand(spec, DEFAULT_GRID)
        records = spec.integration.n_steps + 1
        samples_bytes = (records * expanded.channels.n_channels
                         * DEFAULT_GRID.n_points * 8)
        (code, *_), peak = traced_peak(_hj_tables, expanded)
        assert code == 0
        assert peak - samples_bytes < samples_bytes / 4

    @pytest.mark.parametrize("caustic", [False, True], ids=["free", "caustic"])
    def test_hj_run(self, tmp_path, caustic):
        if caustic:
            cfg = tmp_path / "focus.ini"
            cfg.write_text(CAUSTIC_INI)
            spec, grid, _ = load_config(str(cfg))
            argv = ["run", "--config", str(cfg)]
        else:
            spec, grid = builtin_by_name("hj_free_particle"), DEFAULT_GRID
            argv = ["run", "--scenario", spec.name]
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == (3 if caustic else 0)
        exp = expand(spec, grid)
        integ = exp.integration
        try:
            traj = evolve_hj(exp.channels, exp.potentials, exp.params,
                             integ.dt, integ.n_steps, integ.snapshot_every)
            assert not caustic
        except BlowUpError as err:
            assert caustic
            traj = err.partial
        x = grid.x
        expected = np.vstack([np.column_stack((np.full(x.size, t), x, *samples))
                              for t, samples in zip(traj.times, traj.samples)])
        assert_bitwise(parse_csv(out / f"{spec.name}_snapshots.csv"), expected)
        summary = read_lines(out / f"{spec.name}_summary.csv")
        assert len(parse_csv(out / f"{spec.name}_summary.csv")) == len(traj.times)
        assert summary[-1].startswith("# caustic") == caustic
        if not caustic:
            assert (sha256(out / f"{spec.name}_snapshots.csv"),
                    sha256(out / f"{spec.name}_summary.csv")) == HJ_FREE_SHA256

    def test_hj_run_adds_no_fft_to_evolve_hj(self, tmp_path, fft_counter):
        # the summary's gradients are the ones the solver recorded; a
        # focusing S0 moves, so the solver's count is not 0
        calls = fft_counter
        cfg = tmp_path / "focus.ini"
        cfg.write_text(CAUSTIC_INI)
        spec, grid, _ = load_config(str(cfg))
        exp = expand(spec, grid)
        integ = exp.integration
        with pytest.raises(BlowUpError):
            evolve_hj(exp.channels, exp.potentials, exp.params, integ.dt,
                      integ.n_steps, integ.snapshot_every)
        solver_calls, calls[0] = calls[0], 0
        assert solver_calls > 0
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
        assert calls[0] == solver_calls

    @pytest.mark.parametrize("name", sorted(OSCILLATOR_SHA256))
    def test_oscillator_run(self, tmp_path, name):
        assert main(["run", "--scenario", name, "--out", str(tmp_path)]) == 0
        exp = expand(builtin_by_name(name), DEFAULT_GRID)
        integ = exp.integration
        rhs = FORMALISMS[exp.formalism].rhs
        traj = integrate_rk4(rhs(exp.params), exp.state0, integ.dt,
                             integ.n_steps, integ.snapshot_every)
        steps = snapshot_steps(integ.dt, integ.n_steps, integ.snapshot_every)
        snapshots = tmp_path / f"{name}_snapshots.csv"
        summary = tmp_path / f"{name}_summary.csv"
        assert_bitwise(parse_csv(snapshots),
                       np.column_stack((np.array(steps) * integ.dt, traj)))
        assert len(parse_csv(summary)) == len(steps)
        assert (sha256(snapshots), sha256(summary)) == OSCILLATOR_SHA256[name]


# valid tiny configs, one per scenario kind, each well under 20 steps
_FUZZ_GRID = {"n": "64", "x_min": "-5", "x_max": "5"}
_FUZZ_INTEGRATION = {"dt": "1e-3", "n_steps": "12", "snapshot_every": "4"}
FUZZ_BASES = [
    {"grid": _FUZZ_GRID, "params": {"m0": "1.0", "m1": "1.2", "hbar": "1.0"},
     "scenario": {"kind": "wave", "label": "fz", "initial_type": "gaussian",
                  "initial_sigma": "1.0", "initial_k": "0.5",
                  "vg0_type": "harmonic", "vg0_omega": "1.0"},
     "integration": {**_FUZZ_INTEGRATION, "dt": "1e-4"},
     "output": {"format": "csv"}},
    {"grid": _FUZZ_GRID, "params": {"m0": "1.0", "m1": "2.0"},
     "scenario": {"kind": "hj", "label": "fz", "channel0_type": "linear",
                  "channel0_slope": "1.0", "channel1_type": "zero"},
     "integration": _FUZZ_INTEGRATION, "output": {"format": "csv"}},
    {"scenario": {"kind": "oscillator", "label": "fz", "formalism": "bateman",
                  "gamma": "0.2", "omega": "1.0", "x0": "1.0", "y0": "1.0"},
     "integration": _FUZZ_INTEGRATION, "output": {"format": "csv"}},
]


@st.composite
def mutated_configs(draw):
    """One base config with one key's value replaced by drawn text or a number."""
    base = draw(st.sampled_from(FUZZ_BASES))
    section = draw(st.sampled_from(sorted(base)))
    key = draw(st.sampled_from(sorted(base[section])))
    value = draw(st.one_of(
        st.text(st.characters(blacklist_categories=("Cs",)), max_size=12),
        st.integers(-4, 64).map(str),
        st.floats(-1e3, 1e3).map(repr),
        st.sampled_from(["nan", "inf", "-inf", "1e308", "5e-324", "-0.0"])))
    sections = {name: dict(keys) for name, keys in base.items()}
    sections[section][key] = value
    return ini_text(sections)


def ini_text(sections: dict) -> str:
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   for name, keys in sections.items())


# the smallest keys each descriptor type of the README schema needs
README_TYPE_KEYS = {
    "initial": {"gaussian": "initial_sigma = 0.75\n",
                "plane_wave": "initial_mode = 2\n",
                "two_gaussian": "initial_sigma = 0.75\ninitial_separation = 2\n"},
    "vg0": {"constant": "vg0_v0 = 0.5\n"},
}


def readme_types(pattern):
    """The descriptor types listed in the README [scenario] block line that
    `pattern` (a regex whose group 1 is the '|' list) matches."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("[scenario]\n", 1)[1].split("[integration]", 1)[0]
    match = re.search(pattern, block)
    assert match, pattern
    return [item.split()[0] for item in match[1].split("|")]


class TestReadmeSchema:
    """Every descriptor type the README schema lists runs with exit 0."""

    @pytest.mark.parametrize("prefix, pattern", [
        ("initial", r"; initial_type = \w+ +; (.+)"),
        ("vg0", r"; vg0_type = \w+ +; (.+)"),
        ("channel1", r";\s+(zero \|.+)"),
    ], ids=["initial", "vg0", "hj_channel"])
    def test_listed_types_run(self, tmp_path, prefix, pattern):
        types = readme_types(pattern)
        assert len(types) >= 3
        for kind in types:
            keys = f"{prefix}_type = {kind}\n" + README_TYPE_KEYS.get(
                prefix, {}).get(kind, "")
            if prefix == "channel1":
                # an environment channel with a gradient needs the closure rule
                ini = HJ_LINEAR_INI.format(
                    keys="potential_mode = symmetric_closure\n").replace(
                    "channel1_type = zero\n", keys)
            else:
                ini = ("[grid]\nn = 128\nx_min = -8\nx_max = 8\n"
                       "[scenario]\nkind = wave\nlabel = schema\n"
                       + ("" if prefix == "initial" else
                          "initial_type = gaussian\ninitial_sigma = 0.75\n")
                       + keys + "[integration]\ndt = 1e-3\nn_steps = 4\n")
            cfg = tmp_path / f"{prefix}_{kind}.ini"
            cfg.write_text(ini)
            assert main(["run", "--config", str(cfg),
                         "--out", str(tmp_path / kind)]) == 0, kind


    def test_every_field_is_listed(self):
        """Each field of `scenarios.FIELDS` is a line of the README
        [scenario] block, as a key of its group with its default."""
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        block = readme.split("[scenario]\n", 1)[1].split("[integration]", 1)[0]
        prefixes = {"initial-data": "initial_", "potential": "vg0_",
                    "action channel": "channel0_", "oscillator": ""}
        for group, table in FIELDS.items():
            fields = (table if group == "oscillator" else
                      {f: d for kind in table.values() for f, d in kind.items()})
            for field, default in fields.items():
                value = "(required)" if default is None else default
                line = f"; {prefixes[group]}{field} = {value}"
                assert re.search(f"^{re.escape(line)}( |$)", block, re.M), line


class TestConfigFuzz:
    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(ini=mutated_configs())
    def test_mutated_config_exits_cleanly(self, tmp_path, capsys, monkeypatch, ini):
        work = Path(tempfile.mkdtemp(dir=tmp_path))
        monkeypatch.chdir(work)
        cfg = work / "fuzz.ini"
        cfg.write_text(ini, encoding="utf-8")
        code = main(["run", "--config", str(cfg), "--out", str(work / "out")])
        assert code in (0, 2, 3)
        assert capsys.readouterr().err.count("\n") <= 1
        # cwd is `work`, so a write to any relative path would land here
        assert {p.name for p in work.iterdir()} <= {"fuzz.ini", "out"}

    def test_bases_exit_0(self, tmp_path, capsys):
        # the wave base holds 3.1e-8 of its power above 2/3 of the Nyquist
        # wavenumber from t = 0, which is not growth and stops nothing
        for i, base in enumerate(FUZZ_BASES):
            cfg = tmp_path / f"base{i}.ini"
            cfg.write_text(ini_text(base))
            assert main(["run", "--config", str(cfg),
                         "--out", str(tmp_path / str(i))]) == 0, i
        assert capsys.readouterr().err == ""


class TestVerifyCommand:
    def test_only_single_criterion(self, capsys):
        code = main(["verify", "--only", "zeta_dispersion"])
        assert code == 0
        out = capsys.readouterr().out
        assert "zeta_dispersion" in out
        assert "pass" in out

    def test_unknown_criterion_exits_2(self, capsys):
        assert main(["verify", "--only", "bogus"]) == 2
