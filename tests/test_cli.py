import dataclasses
import hashlib
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dualwave.cli import _sweep_point, _sweep_value_spec, load_config, main
from dualwave.core import BlowUpError
from dualwave.diagnostics import summarize_run
from dualwave.hamilton_jacobi import evolve_hj
from dualwave.madelung import from_wavefunction
from dualwave.oscillators import integrate_rk4
from dualwave.scenarios import DEFAULT_GRID, builtin_by_name, expand
from dualwave.wavesolver import NONLINEAR_OFF, evolve

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


# a decay rate of 2000 per unit time: by step 600 the norm has underflowed
# to zero, although |psi| itself has not
UNDERFLOW_INI = ("[scenario]\nkind = wave\nlabel = underflow\n"
                 "initial_type = gaussian\ninitial_sigma = 0.5\n"
                 "vg1_type = constant\nvg1_v0 = -1000\n"
                 "[integration]\ndt = 1e-3\nn_steps = 1200\n"
                 "snapshot_every = 100\n")


# stored coupling potentials, which only explicit closure with explicit
# potentials reads
STORED_VC_INI = ("[grid]\nn = 256\nx_min = -10\nx_max = 10\n"
                 "[scenario]\nkind = wave\nlabel = vc\n"
                 "initial_type = gaussian\ninitial_sigma = 0.5\n"
                 "vc0_type = constant\nvc0_v0 = 5\nvc1_type = constant\nvc1_v0 = -3\n"
                 "[integration]\ndt = 1e-3\nn_steps = 100\nsnapshot_every = 50\n")


# an hj config with a stored coupling potential: S0 = 0.5 x - (0.125 + 5) t
HJ_VC_INI = ("[grid]\nn = 64\nx_min = -5\nx_max = 5\n"
             "[scenario]\nkind = hj\nlabel = hjvc\n"
             "channel0_type = linear\nchannel0_slope = 0.5\nchannel1_type = zero\n"
             "vc0_type = constant\nvc0_v0 = 5\npotential_mode = explicit\n"
             "[integration]\ndt = 1e-3\nn_steps = 20\n")


# a guiding potential of 1e150: (dt V)^2 = 1e294 passes validation, and
# the state overflows between snapshots
OVERFLOW_INI = ("[grid]\nn = 64\nx_min = -5\nx_max = 5\n"
                "[scenario]\nkind = wave\nlabel = ov\n"
                "initial_type = gaussian\ninitial_sigma = 1.0\n"
                "vg0_type = constant\nvg0_v0 = 1e150\n"
                "[integration]\ndt = 1e-3\nn_steps = 20\nsnapshot_every = 10\n")


# a linear S0 on a small grid; {keys} adds the potentials
HJ_LINEAR_INI = ("[grid]\nn = 64\nx_min = -5\nx_max = 5\n"
                 "[scenario]\nkind = hj\nlabel = hjv\n"
                 "channel0_type = linear\nchannel0_slope = 0.5\n"
                 "channel1_type = zero\n{keys}"
                 "[integration]\ndt = 1e-3\nn_steps = 20\n")


class TestRun:
    def test_wave_run_writes_contracted_csvs(self, tmp_path):
        code = main(["run", "--scenario", "plane_wave_dispersion",
                     "--out", str(tmp_path)])
        assert code == 0
        snaps = read_lines(tmp_path / "plane_wave_dispersion_snapshots.csv")
        assert snaps[0] == "t,x,re_psi,im_psi,rho,S0,S1"
        summary = read_lines(tmp_path / "plane_wave_dispersion_summary.csv")
        assert summary[0] == "t,norm,energy,drift_rate,continuity_residual"
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
    ], ids=["grid_not_number", "scenario_not_number", "n_steps_not_int",
            "wave_samples_without_values", "hj_samples_without_values",
            "oscillator_dt_negative", "oscillator_snapshot_every_0",
            "hj_snapshot_every_0", "wave_mass_key_beyond_channels",
            "hj_mass_key_beyond_channels", "hbar_zero",
            "hbar_negative_with_zeta", "hj_hbar_zero_with_zeta",
            "stored_vc_with_symmetric_closure", "stored_vc_with_closure_potentials",
            "hj_stored_vc_with_closure_potentials"])
    def test_bad_input_exits_2_with_one_line(self, tmp_path, capsys, ini, flags):
        if ini is not None:
            cfg = tmp_path / "bad.ini"
            cfg.write_text(ini)
            flags = ["--config", str(cfg)]
        out = tmp_path / "out"
        assert main(["run", *flags, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_caustic_run_exits_3_and_flags_summary(self, tmp_path):
        code = main(["run", "--scenario", "hj_caustic", "--out", str(tmp_path)])
        assert code == 3
        summary = read_lines(tmp_path / "hj_caustic_summary.csv")
        assert summary[0] == "t,max_abs_grad,participation_integral"
        assert "# caustic/blow-up detected at step 4978" in summary
        snaps = read_lines(tmp_path / "hj_caustic_snapshots.csv")
        assert snaps[0] == "t,x,S0,S1"

    def test_norm_underflow_exits_3_with_partial_output(self, tmp_path, capsys):
        cfg = tmp_path / "underflow.ini"
        cfg.write_text(UNDERFLOW_INI)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err.count("\n") == 1
        summary = read_lines(tmp_path / "underflow_summary.csv")
        assert summary[-1] == "# norm underflowed to zero at step 600"
        rows = parse_csv(tmp_path / "underflow_summary.csv")
        assert rows[:, 0].tolist() == [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
        assert np.all(rows[:, 1] > 0.0)
        assert np.all(np.isfinite(parse_csv(tmp_path / "underflow_snapshots.csv")))

    @pytest.mark.parametrize("command, last", [
        (["run"], "blow-up: partial output written to "),
        (["sweep", "--param", "lambda_Vg1", "--values", "1000"],
         "sweep aborted: blow-up at step 100"),
    ])
    def test_amplitude_floor_warning_is_one_line(self, tmp_path, capsys,
                                                 command, last):
        cfg = tmp_path / "explicit.ini"
        cfg.write_text(UNDERFLOW_INI.replace(
            "label = underflow\n", "label = underflow\nclosure_mode = explicit\n"))
        with warnings.catch_warnings():
            warnings.simplefilter("default")  # as outside the test suite
            code = main([command[0], "--config", str(cfg), *command[1:],
                         "--out", str(tmp_path / "out")])
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2
        assert err[0] == "warning: amplitude floor engaged"
        assert err[1].startswith(last)

    def test_explicit_closure_norm_underflow_warns_once(self, tmp_path, capsys):
        # the extraction floor of a decayed state must not underflow to
        # zero (0/0 in the trust window, log(0) in S1)
        cfg = tmp_path / "explicit.ini"
        cfg.write_text(UNDERFLOW_INI.replace(
            "label = underflow\n", "label = underflow\nclosure_mode = explicit\n"
            "potential_mode = symmetric_closure\n"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")  # as outside the test suite
            code = main(["run", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 3
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2
        assert err[0] == "warning: amplitude floor engaged"
        assert err[1].startswith("blow-up: partial output written to ")
        summary = read_lines(tmp_path / "underflow_summary.csv")
        assert summary[-1] == "# norm underflowed to zero at step 600"

    @pytest.mark.parametrize("hbar, keys", [
        ("5e-324", "vg0_type = harmonic\nvg0_omega = 1.0\n"),
        ("5e-324", ""),
        ("1e-300", "closure_mode = explicit\nvc0_type = harmonic\nvc0_omega = 1e10\n"),
        ("1.0", "vg0_type = constant\nvg0_v0 = 1e200\n"),
        ("1.0", "vg0_type = constant\nvg0_v0 = 1.2e158\n"
                "vg1_type = constant\nvg1_v0 = 1.2e158\n"),
    ], ids=["harmonic_vg0", "zero_vg", "stored_vc0", "rk2_multiplier_overflow",
            "rk2_multiplier_cross_term"])
    def test_non_finite_potential_rate_exits_2(self, tmp_path, capsys, hbar, keys):
        # at a subnormal hbar max|Vg| / zeta overflows, and with Vg = 0 the
        # complex division by zeta still gives NaN; explicit closure divides
        # the stored couplings by zeta too; a finite rate of 1e200 still
        # overflows the RK2 multiplier 1 + a dt + (a dt)^2 / 2, and so does
        # (dt * rate)^2 = 1.4e308 through the cross term of (a dt)^2
        cfg = tmp_path / "tiny_hbar.ini"
        cfg.write_text("[grid]\nn = 64\nx_min = -5\nx_max = 5\n"
                       f"[params]\nm0 = 1.0\nm1 = 1.2\nhbar = {hbar}\n"
                       "[scenario]\nkind = wave\nlabel = fz\n"
                       "initial_type = gaussian\ninitial_sigma = 1.0\n"
                       f"initial_k = 0.5\n{keys}"
                       "[integration]\ndt = 1e-4\nn_steps = 12\nsnapshot_every = 4\n")
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
            "channel1_type = zero\nchannel2_type = linear\nchannel2_slope = 0.2\n"
            "[params]\nm0 = 1.0\nm1 = 2.0\nm2 = 0.5\n"
            "[integration]\ndt = 1e-3\nn_steps = 20\n"
            f"[output]\npath = {tmp_path / 'out'}\n")
        assert main(["run", "--config", str(cfg)]) == 0
        snaps = read_lines(tmp_path / "out" / "hj_three_snapshots.csv")
        assert snaps[0] == "t,x,S0,S1,S2"

    def test_hj_stored_coupling_potential(self, tmp_path):
        # the hj kind reads vc<i> and potential_mode as the wave kind does
        cfg = tmp_path / "hjvc.ini"
        cfg.write_text(HJ_VC_INI)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        rows = parse_csv(tmp_path / "hjvc_snapshots.csv")
        final = rows[rows[:, 0] == rows[-1, 0]]
        assert final[0, 0] == pytest.approx(0.02, abs=1e-15)
        exact = 0.5 * final[:, 1] - (0.125 + 5.0) * final[:, 0]
        assert np.max(np.abs(final[:, 2] - exact)) < 1e-12

    def test_channel_mass_mismatch_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "hj3bad.ini"
        cfg.write_text(
            "[scenario]\nkind = hj\n"
            "channel0_type = zero\nchannel1_type = zero\nchannel2_type = zero\n"
            "[integration]\ndt = 1e-3\nn_steps = 5\n"
            f"[output]\npath = {tmp_path / 'out'}\n")
        assert main(["run", "--config", str(cfg)]) == 2
        assert "masses" in capsys.readouterr().err

    @pytest.mark.parametrize("nonlinear", ["on", "off"])
    def test_continuity_residual_uses_flux_mass(self, tmp_path, nonlinear):
        # with m0 != m1 the stepped kinetic term is zeta^2 k^2 / (4 m_red):
        # the flux mass is 2 m_red; differencing with m0 leaves ~1e-2
        cfg = tmp_path / "asym.ini"
        cfg.write_text(
            "[scenario]\nkind = wave\nlabel = asym\n"
            "initial_type = gaussian\ninitial_sigma = 0.5\n"
            f"nonlinear = {nonlinear}\n"
            "[params]\nm0 = 1.0\nm1 = 1.5\n"
            "[integration]\ndt = 2e-5\nn_steps = 2000\nsnapshot_every = 200\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        summary = parse_csv(tmp_path / "asym_summary.csv")
        assert np.max(summary[:, 4]) < 1e-4

    def test_snapshot_cadence_override(self, tmp_path):
        assert main(["run", "--scenario", "plane_wave_dispersion",
                     "--out", str(tmp_path), "--snapshot-every", "250"]) == 0
        summary = read_lines(tmp_path / "plane_wave_dispersion_summary.csv")
        assert len(summary) == 1 + 3  # t = 0, 0.25, 0.5

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "absent.ini")]) == 2

    def test_bad_section_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[scenario]\nkind = wave\n")
        assert main(["run", "--config", str(cfg)]) == 2


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

    def test_norm_underflow_exits_3_with_one_line(self, tmp_path, capsys):
        cfg = tmp_path / "underflow.ini"
        cfg.write_text(UNDERFLOW_INI)
        code = main(["sweep", "--config", str(cfg), "--param", "lambda_Vg1",
                     "--values", "1000", "--out", str(tmp_path / "out")])
        assert code == 3
        assert capsys.readouterr().err == (
            "sweep aborted: norm underflowed to zero at step 600\n")

    def test_blow_up_keeps_finished_points(self, tmp_path, capsys):
        cfg = tmp_path / "underflow.ini"
        cfg.write_text(UNDERFLOW_INI)
        code = main(["sweep", "--config", str(cfg), "--param", "lambda_Vg1",
                     "--values", "1000,0.5", "--out", str(tmp_path / "out")])
        assert code == 3
        assert capsys.readouterr().err == (
            "sweep aborted: norm underflowed to zero at step 600\n")
        path = tmp_path / "out" / "underflow_sweep_lambda_Vg1.csv"
        lines = read_lines(path)
        assert lines[-1] == ("# lambda_Vg1=1000: "
                             "norm underflowed to zero at step 600")
        cells = data_cells(path)
        assert [row[:2] for row in cells] == [["lambda_Vg1", "0.5"]]
        assert_canonical(row[1:] for row in cells)

    @pytest.mark.parametrize("name, param, values", [
        ("residual_mass_plane_wave", "m1", (1.5, 1.0, 1.1)),
        ("plane_wave_dispersion", "zeta", (1.0, 2.0)),
        ("norm_drift_constant_Vg1", "lambda_Vg1", (0.25, 0.5)),
        ("plane_wave_dispersion", "dt", (1e-3, 5e-4)),
    ])
    def test_rows_equal_single_runs(self, tmp_path, name, param, values):
        """The stacked sweep writes the cells that one-row runs give."""
        code = main(["sweep", "--scenario", name, "--param", param,
                     "--values", ",".join(map(repr, values)),
                     "--out", str(tmp_path)])
        assert code == 0
        expected = []
        for value in sorted(values):
            spec = _sweep_value_spec(builtin_by_name(name), param, value)
            scenario = expand(spec, DEFAULT_GRID).scenario
            off = (evolve(dataclasses.replace(scenario, nonlinear_term=NONLINEAR_OFF))
                   if scenario.nonlinear_active else None)
            row = _sweep_point(scenario, evolve(scenario), off)
            expected.append([param] + ["%.17g" % c for c in (value, *row)])
        assert data_cells(tmp_path / f"{name}_sweep_{param}.csv") == expected

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

    def test_empty_values_exit_2(self, tmp_path):
        assert main(["sweep", "--scenario", "plane_wave_dispersion",
                     "--param", "zeta", "--values", "",
                     "--out", str(tmp_path)]) == 2

    def test_unknown_param_exit_2(self, tmp_path):
        assert main(["sweep", "--scenario", "plane_wave_dispersion",
                     "--param", "mystery", "--values", "1.0",
                     "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("param, values", [
        ("dt", "0"),
        ("dt", "nan"),
        ("zeta", "inf"),
        ("zeta", "1.0,abc"),
    ], ids=["dt_zero", "dt_nan", "zeta_inf", "value_not_number"])
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
        summary = summarize_run(run, 2.0 * scenario.params.reduced_mass,
                                scenario.params.zeta)
        assert_bitwise(parse_csv(tmp_path / f"{name}_summary.csv"), summary)

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
        expected = np.vstack([
            np.column_stack([np.full(x.size, t), x] + [
                state.total_samples(i) for i in range(state.n_channels)])
            for t, state in zip(traj.times, traj.states)])
        assert_bitwise(parse_csv(out / f"{spec.name}_snapshots.csv"), expected)
        summary = read_lines(out / f"{spec.name}_summary.csv")
        assert len(parse_csv(out / f"{spec.name}_summary.csv")) == len(traj.times)
        assert summary[-1].startswith("# caustic") == caustic

    @pytest.mark.parametrize("name", sorted(OSCILLATOR_SHA256))
    def test_oscillator_run(self, tmp_path, name):
        assert main(["run", "--scenario", name, "--out", str(tmp_path)]) == 0
        exp = expand(builtin_by_name(name), DEFAULT_GRID)
        integ = exp.integration
        traj = integrate_rk4(exp.rhs, exp.state0, integ.dt, integ.n_steps)
        keep = np.arange(0, traj.shape[0], integ.snapshot_every)
        snapshots = tmp_path / f"{name}_snapshots.csv"
        summary = tmp_path / f"{name}_summary.csv"
        assert_bitwise(parse_csv(snapshots),
                       np.column_stack((keep * integ.dt, traj[keep])))
        assert len(parse_csv(summary)) == keep.size
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
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   for name, keys in sections.items())


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


class TestVerifyCommand:
    def test_only_single_criterion(self, capsys):
        code = main(["verify", "--only", "zeta_dispersion"])
        assert code == 0
        out = capsys.readouterr().out
        assert "zeta_dispersion" in out
        assert "pass" in out

    def test_unknown_criterion_exits_2(self, capsys):
        assert main(["verify", "--only", "bogus"]) == 2
