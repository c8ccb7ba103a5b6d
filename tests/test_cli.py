from pathlib import Path

import pytest

from dualwave.cli import main

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


def read_lines(path):
    return Path(path).read_text().splitlines()


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

    def test_caustic_run_exits_3_and_flags_summary(self, tmp_path):
        code = main(["run", "--scenario", "hj_caustic", "--out", str(tmp_path)])
        assert code == 3
        summary = read_lines(tmp_path / "hj_caustic_summary.csv")
        assert summary[0] == "t,max_abs_grad,participation_integral"
        assert any(line.startswith("# caustic/blow-up detected at step")
                   for line in summary)
        snaps = read_lines(tmp_path / "hj_caustic_snapshots.csv")
        assert snaps[0] == "t,x,S0,S1"

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

    def test_channel_mass_mismatch_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "hj3bad.ini"
        cfg.write_text(
            "[scenario]\nkind = hj\n"
            "channel0_type = zero\nchannel1_type = zero\nchannel2_type = zero\n"
            "[integration]\ndt = 1e-3\nn_steps = 5\n"
            f"[output]\npath = {tmp_path / 'out'}\n")
        assert main(["run", "--config", str(cfg)]) == 2
        assert "masses" in capsys.readouterr().err

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
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert values == sorted(values)
        shifts = {float(line.split(",")[1]): float(line.split(",")[-1])
                  for line in lines[1:]}
        assert shifts[1.0] == 0.0
        assert shifts[1.5] > shifts[1.1] > 0.0

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

    def test_thread_cap_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DUALWAVE_THREADS", "1")
        code = main(["sweep", "--scenario", "plane_wave_dispersion",
                     "--param", "zeta", "--values", "1.0,2.0",
                     "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "plane_wave_dispersion_sweep_zeta.csv").exists()

    def test_empty_values_exit_2(self, tmp_path):
        assert main(["sweep", "--scenario", "plane_wave_dispersion",
                     "--param", "zeta", "--values", "",
                     "--out", str(tmp_path)]) == 2

    def test_unknown_param_exit_2(self, tmp_path):
        assert main(["sweep", "--scenario", "plane_wave_dispersion",
                     "--param", "mystery", "--values", "1.0",
                     "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("param, values, threads", [
        ("zeta", "1.0", "abc"),
        ("dt", "0", None),
        ("dt", "nan", None),
        ("zeta", "inf", None),
        ("zeta", "1.0,abc", None),
    ], ids=["threads_not_int", "dt_zero", "dt_nan", "zeta_inf", "value_not_number"])
    def test_bad_input_exits_2_with_one_line(self, tmp_path, monkeypatch, capsys,
                                             param, values, threads):
        if threads is not None:
            monkeypatch.setenv("DUALWAVE_THREADS", threads)
        code = main(["sweep", "--scenario", "plane_wave_dispersion",
                     "--param", param, "--values", values,
                     "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ")
        assert err.count("\n") == 1
        assert not list(tmp_path.iterdir())


class TestVerifyCommand:
    def test_only_single_criterion(self, capsys):
        code = main(["verify", "--only", "zeta_dispersion"])
        assert code == 0
        out = capsys.readouterr().out
        assert "zeta_dispersion" in out
        assert "pass" in out

    def test_unknown_criterion_exits_2(self, capsys):
        assert main(["verify", "--only", "bogus"]) == 2

    def test_strict_profile_runs(self, capsys):
        code = main(["verify", "--only", "zeta_dispersion",
                     "--profile", "strict"])
        assert code == 0
