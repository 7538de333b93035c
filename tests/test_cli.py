import json
import math

import numpy as np
import pytest

from qiul.cli import main, parse_length_list, parse_noise
from qiul.errors import SchemaError
from qiul.imaging import Profile1D, write_profile_csv


def run(args):
    return main([str(a) for a in args])


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("crystal_length = 5mm\npump_waist = 214um\n", encoding="utf-8")
    return path


class TestParsers:
    def test_length_list(self):
        assert parse_length_list("2mm,5mm,10mm") == pytest.approx([2e-3, 5e-3, 10e-3])

    def test_log_range(self):
        values = parse_length_list("50um:400um:log50")
        assert len(values) == 50
        assert values[0] == pytest.approx(50e-6)
        assert values[-1] == pytest.approx(400e-6)
        ratios = np.diff(np.log(values))
        np.testing.assert_allclose(ratios, ratios[0])

    def test_bad_range(self):
        with pytest.raises(SchemaError):
            parse_length_list("50um:400um:lin50")

    def test_noise_spec(self):
        model = parse_noise("read:0.01,shot:on", background=1e4)
        assert model.read_sigma == pytest.approx(100.0)
        assert model.shot
        assert parse_noise("none", background=1e4).enabled is False
        with pytest.raises(SchemaError):
            parse_noise("dark:0.1", background=1e4)


class TestTheorySweep:
    def test_default_grid(self, tmp_path):
        out = tmp_path / "sweep"
        assert run(["theory-sweep", "--out", out]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 13  # header + 3 x 4 grid
        header = lines[0].split(",")
        assert header == [
            "L_m", "w_p_m", "spread_v_m", "spread_g_psf_m", "spread_g_esf_m",
            "ratio", "w_sing_m", "d_min_m",
        ]
        # (2 mm, 308 um): visibility spread within 2% of the large-waist limit
        for line in lines[1:]:
            cells = line.split(",")
            if math.isclose(float(cells[0]), 2e-3) and math.isclose(float(cells[1]), 308e-6):
                limit = math.sqrt(2e-3 * (730e-9 + 910e-9) / (4 * math.pi))
                assert float(cells[2]) == pytest.approx(limit, rel=0.02)
                break
        else:
            pytest.fail("(2 mm, 308 um) row missing")

    def test_separable_marker_row(self, tmp_path):
        out = tmp_path / "sweep"
        assert run(["theory-sweep", "--out", out, "--lengths", "10mm", "--waists", "25.4um"]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert "SeparableState" in lines[1]

    def test_deterministic_and_order_invariant(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run(["theory-sweep", "--out", out_a, "--lengths", "2mm,10mm", "--waists", "50um,308um"])
        run(["theory-sweep", "--out", out_b, "--lengths", "10mm,2mm", "--waists", "308um,50um"])
        assert (out_a / "sweep.csv").read_bytes() == (out_b / "sweep.csv").read_bytes()

    def test_bad_config_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("pump_waist = -3um\n", encoding="utf-8")
        assert run(["theory-sweep", "--out", tmp_path / "x", "--config", cfg]) == 2


class TestSimulateAndAnalyze:
    def test_round_trip_bitwise(self, tmp_path, config_file):
        sim_out = tmp_path / "sim"
        code = run([
            "simulate-edge", "--config", config_file, "--out", sim_out,
            "--seed", 3, "--phases", 4, "--pitch", "2um", "--rows", 16, "--cols", 512,
        ])
        assert code == 0
        for name in ("manifest.json", "analysis.json", "comparison.json",
                     "g_image.csv", "v_image.csv", "phase_image.csv",
                     "g_profile.csv", "v_profile.csv"):
            assert (sim_out / name).exists(), name

        analysis = json.loads((sim_out / "analysis.json").read_text())
        assert analysis["gate"]["passed"]
        assert analysis["m_d_avg"] == pytest.approx(2.67, abs=1e-4)

        ana_out = tmp_path / "ana"
        code = run([
            "analyze-stack", "--manifest", sim_out / "manifest.json",
            "--config", config_file, "--out", ana_out,
        ])
        assert code == 0
        assert (ana_out / "analysis.json").read_bytes() == (sim_out / "analysis.json").read_bytes()

    def test_three_phase_stack_valid(self, tmp_path, config_file):
        out = tmp_path / "sim3"
        code = run([
            "simulate-edge", "--config", config_file, "--out", out,
            "--phases", 3, "--pitch", "2um", "--rows", 12, "--cols", 384,
        ])
        assert code == 0
        analysis = json.loads((out / "analysis.json").read_text())
        assert analysis["stack"]["n_phases"] == 3
        assert analysis["m_d_avg"] == pytest.approx(2.67, abs=1e-3)

    def test_missing_frame_exit_code(self, tmp_path, config_file):
        sim_out = tmp_path / "sim"
        run(["simulate-edge", "--config", config_file, "--out", sim_out,
             "--rows", 12, "--cols", 256, "--pitch", "2um"])
        (sim_out / "frames" / "frame_001.csv").unlink()
        code = run(["analyze-stack", "--manifest", sim_out / "manifest.json",
                    "--config", config_file, "--out", tmp_path / "ana"])
        assert code == 4

    def test_frame_outside_manifest_directory_exit_code(self, tmp_path, config_file):
        sim_out = tmp_path / "sim"
        run(["simulate-edge", "--config", config_file, "--out", sim_out,
             "--rows", 12, "--cols", 256, "--pitch", "2um"])
        manifest = sim_out / "manifest.json"
        data = json.loads(manifest.read_text())
        data["frames"][1] = "../elsewhere/frame_001.csv"
        manifest.write_text(json.dumps(data))
        code = run(["analyze-stack", "--manifest", manifest,
                    "--config", config_file, "--out", tmp_path / "ana"])
        assert code == 2

    def test_non_finite_frame_exit_code(self, tmp_path, config_file):
        sim_out = tmp_path / "sim"
        run(["simulate-edge", "--config", config_file, "--out", sim_out,
             "--rows", 12, "--cols", 256, "--pitch", "2um"])
        frame = sim_out / "frames" / "frame_001.csv"
        values = np.loadtxt(frame, delimiter=",")
        values[6, 100] = np.nan
        np.savetxt(frame, values, delimiter=",")
        code = run(["analyze-stack", "--manifest", sim_out / "manifest.json",
                    "--config", config_file, "--out", tmp_path / "ana"])
        assert code == 4

    @pytest.mark.parametrize("key, value", [
        ("shape", 5),
        ("phases_rad", [0.0, 0.0, math.pi, 1.5 * math.pi]),
    ], ids=["shape-not-a-list", "equal-phases"])
    def test_malformed_manifest_exit_code(self, tmp_path, config_file, capsys, key, value):
        sim_out = tmp_path / "sim"
        run(["simulate-edge", "--config", config_file, "--out", sim_out,
             "--rows", 12, "--cols", 256, "--pitch", "2um"])
        manifest = sim_out / "manifest.json"
        data = json.loads(manifest.read_text())
        data[key] = value
        manifest.write_text(json.dumps(data))
        code = run(["analyze-stack", "--manifest", manifest,
                    "--config", config_file, "--out", tmp_path / "ana"])
        assert code == 2
        assert str(manifest) in capsys.readouterr().err

    def test_empty_image_exit_code(self, tmp_path):
        assert run(["simulate-edge", "--out", tmp_path / "sim", "--rows", 0]) == 2

    def test_flat_profile_exit_code(self, tmp_path):
        # at a 1 m pitch the amplitude envelope underflows to zero on every pixel
        code = run(["simulate-edge", "--out", tmp_path / "sim", "--pitch", "1m",
                    "--rows", 8, "--cols", 64])
        assert code == 3

    def test_below_singularity_completes_with_failed_gate(self, tmp_path):
        cfg = tmp_path / "sub.cfg"
        cfg.write_text("crystal_length = 10mm\npump_waist = 18um\n", encoding="utf-8")
        out = tmp_path / "sub"
        code = run(["simulate-edge", "--config", cfg, "--out", out,
                    "--rows", 12, "--cols", 512, "--pitch", "1um"])
        assert code == 0
        analysis = json.loads((out / "analysis.json").read_text())
        assert not analysis["gate"]["passed"]
        assert analysis["m_d_avg"] is None

    def test_noisy_simulation_runs(self, tmp_path, config_file):
        out = tmp_path / "noisy"
        code = run([
            "simulate-edge", "--config", config_file, "--out", out,
            "--noise", "read:0.01,shot:on", "--phases", 16, "--seed", 7,
            "--rows", 16, "--cols", 512, "--pitch", "2um",
        ])
        assert code == 0
        analysis = json.loads((out / "analysis.json").read_text())
        assert analysis["stack"]["noise"]["model"] == "shot+read"
        assert analysis["m_d_avg"] == pytest.approx(2.67, rel=0.02)


class TestMagnificationCommand:
    @staticmethod
    def write_two_slit_profile(path, separation=355.11e-6):
        x = np.linspace(-6e-4, 6e-4, 601)
        y = (
            0.02
            + np.exp(-(((x + separation / 2) / 5e-5) ** 2))
            + np.exp(-(((x - separation / 2) / 5e-5) ** 2))
        )
        write_profile_csv(Profile1D(grid=x, values=y), path)

    def test_reference_measurement(self, tmp_path):
        profile_path = tmp_path / "slits.csv"
        self.write_two_slit_profile(profile_path)
        out = tmp_path / "mag"
        assert run(["magnification", "--profile", profile_path, "--out", out]) == 0
        report = json.loads((out / "magnification.json").read_text())
        assert report["magnification"] == pytest.approx(2.67, abs=1e-3)
        assert report["relative_uncertainty"] >= 23.0 / 133.0 - 1e-9

    def test_single_peak_exit_code(self, tmp_path):
        x = np.linspace(-5e-4, 5e-4, 301)
        profile_path = tmp_path / "single.csv"
        write_profile_csv(Profile1D(grid=x, values=np.exp(-((x / 1e-4) ** 2))), profile_path)
        assert run(["magnification", "--profile", profile_path, "--out", tmp_path / "m"]) == 3

    @pytest.mark.parametrize("text", [
        "1e-4,0.5\n",
        "0,1\n1e-6,2\n3e-6,1\n4e-6,2\n",
        "0,1\n1e-6,two\n2e-6,1\n",
    ], ids=["one-row", "non-uniform-grid", "non-numeric"])
    def test_malformed_profile_exit_code(self, tmp_path, capsys, text):
        profile_path = tmp_path / "bad.csv"
        profile_path.write_text(text, encoding="utf-8")
        assert run(["magnification", "--profile", profile_path, "--out", tmp_path / "m"]) == 2
        assert str(profile_path) in capsys.readouterr().err


class TestDeterminism:
    def test_simulate_edge_rerun_byte_identical(self, tmp_path, config_file):
        args = ["simulate-edge", "--config", config_file, "--seed", 11,
                "--noise", "read:0.01,shot:on", "--phases", 4,
                "--rows", 12, "--cols", 256, "--pitch", "2um"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(args + ["--out", out_a]) == 0
        assert run(args + ["--out", out_b]) == 0
        for name in ("manifest.json", "analysis.json", "comparison.json",
                     "frames/frame_000.csv", "v_image.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
