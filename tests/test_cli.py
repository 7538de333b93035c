import json
import math
import os
import shutil
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qiul
from qiul.cli import MAX_RANGE_POINTS, main, parse_length_list, parse_noise
from qiul.dpsh import SceneModel, save_stack, synthesize_stack
from qiul.errors import SchemaError
from qiul.imaging import Profile1D, write_profile_csv


def run(args):
    return main([str(a) for a in args])


# what analyze-stack writes besides analysis.json
ANALYSIS_OUTPUTS = ("g_image.npy", "v_image.npy", "phase_image.npy", "g_profile.csv", "v_profile.csv")


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("crystal_length = 5mm\npump_waist = 214um\n", encoding="utf-8")
    return path


@pytest.fixture
def refuse_geomspace(monkeypatch):
    """Fail on any np.geomspace call: a range with too many points must be
    rejected before they are computed, so that size is never run for real."""
    def refuse(*args, **kwargs):
        raise AssertionError("np.geomspace called")

    monkeypatch.setattr(np, "geomspace", refuse)


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

    @pytest.mark.parametrize("text", ["1mm:2mm", "1mm:2mm:logx", "1mm:2mm:3mm:log5"])
    def test_malformed_range(self, text):
        with pytest.raises(SchemaError):
            parse_length_list(text)

    @pytest.mark.parametrize("text", ["", ",,", " , "])
    def test_empty_list(self, text):
        with pytest.raises(SchemaError):
            parse_length_list(text)

    def test_range_point_limit(self):
        assert len(parse_length_list(f"1mm:2mm:log{MAX_RANGE_POINTS}")) == MAX_RANGE_POINTS
        assert len(parse_length_list("1mm:2mm:log0005")) == 5

    @pytest.mark.parametrize("count", [str(MAX_RANGE_POINTS + 1), "100000000", "9" * 5000],
                             ids=["one-above", "1e8", "5000-digits"])
    def test_too_many_range_points(self, refuse_geomspace, count):
        with pytest.raises(SchemaError, match=f"at most {MAX_RANGE_POINTS} points"):
            parse_length_list(f"1mm:2mm:log{count}")

    @pytest.mark.parametrize("text", ["read:abc", "read:", "read:1.2.3"])
    def test_malformed_noise_number(self, text):
        with pytest.raises(SchemaError):
            parse_noise(text, background=1e4)


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

    @pytest.mark.parametrize("waists", ["1mm:2mm", "1mm:2mm:logx"])
    def test_malformed_waists_exit_code(self, tmp_path, waists):
        assert run(["theory-sweep", "--out", tmp_path, f"--waists={waists}"]) == 2

    @pytest.mark.parametrize("grid", [
        ["--lengths=", "--waists="],
        ["--lengths=,,"],
        ["--waists= , "],
    ], ids=["both-empty", "lengths-commas", "waists-blank"])
    def test_empty_list_exit_code(self, tmp_path, grid):
        assert run(["theory-sweep", "--out", tmp_path, *grid]) == 2
        assert not (tmp_path / "sweep.csv").exists()

    def test_oversized_range_exit_code(self, tmp_path, refuse_geomspace):
        assert run(["theory-sweep", "--out", tmp_path, "--lengths=1mm:2mm:log100000000"]) == 2

    @pytest.mark.parametrize("grid", [
        ["--waists=1e200m"],
        ["--waists=1e-200m"],
        ["--lengths=2.6e104m", "--waists=2.6e104m"],
    ], ids=["waist-squared-overflows", "slope-squared-overflows", "slope-underflows-to-zero"])
    def test_float_range_exceeded_exit_code(self, tmp_path, grid):
        # Python float arithmetic in the closed forms raises OverflowError
        # or ZeroDivisionError here, like float64 overflow in numpy
        assert run(["theory-sweep", "--out", tmp_path, *grid]) == 3

    @pytest.mark.parametrize("line", ["m_d_c = 1.2.3", "m_u = 1e309"])
    def test_malformed_config_number_exit_code(self, tmp_path, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n", encoding="utf-8")
        assert run(["theory-sweep", "--out", tmp_path / "x", "--config", cfg]) == 2
        assert run(["simulate-edge", "--out", tmp_path / "y", "--config", cfg,
                    "--rows", 2, "--cols", 64]) == 2


class TestSimulateAndAnalyze:
    def test_round_trip_bitwise(self, tmp_path, config_file):
        sim_out = tmp_path / "sim"
        code = run([
            "simulate-edge", "--config", config_file, "--out", sim_out,
            "--seed", 3, "--phases", 4, "--pitch", "2um", "--rows", 16, "--cols", 512,
        ])
        assert code == 0
        for name in ("manifest.json", "analysis.json", "comparison.json",
                     "g_image.npy", "v_image.npy", "phase_image.npy",
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
        for name in ANALYSIS_OUTPUTS:
            assert (ana_out / name).read_bytes() == (sim_out / name).read_bytes(), name

        # shot and read noise: simulate-edge analyses the stack in memory,
        # analyze-stack the copy it loads, and both write the same bytes
        noisy_sim, noisy_ana = tmp_path / "noisy_sim", tmp_path / "noisy_ana"
        assert run(["simulate-edge", "--config", config_file, "--out", noisy_sim,
                    "--seed", 3, "--phases", 16, "--noise", "read:0.01,shot:on",
                    "--pitch", "2um", "--rows", 16, "--cols", 512]) == 0
        assert run(["analyze-stack", "--manifest", noisy_sim / "manifest.json",
                    "--config", config_file, "--out", noisy_ana]) == 0
        for name in ("analysis.json", *ANALYSIS_OUTPUTS):
            assert (noisy_ana / name).read_bytes() == (noisy_sim / name).read_bytes(), name

    def test_frame_write_error_exit_code(self, tmp_path, monkeypatch):
        # simulate-edge does not read the saved stack back: a failed frame
        # write must still stop it before any analysis
        def full_disk(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr("qiul.dpsh.np.save", full_disk)
        out = tmp_path / "sim"
        assert run(["simulate-edge", "--out", out, "--rows", 8, "--cols", 64]) == 4
        assert not (out / "analysis.json").exists()

    @pytest.mark.parametrize("cols", [1, 2, 4, 5, 7])
    def test_narrow_stack_exit_code(self, tmp_path, capsys, cols):
        scene = SceneModel(background=np.full((4, cols), 1e4), modulation=np.full((4, cols), 5e3),
                           phase_map=np.zeros((4, cols)))
        stack = synthesize_stack(scene, 2.0 * np.pi * np.arange(4) / 4, pixel_pitch=2e-6)
        manifest = save_stack(stack, tmp_path / "stack")
        assert run(["analyze-stack", "--manifest", manifest, "--out", tmp_path / "ana"]) == 2
        assert str(manifest) in capsys.readouterr().err

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
        (sim_out / "frames" / "frame_001.npy").unlink()
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
        frame = sim_out / "frames" / "frame_001.npy"
        values = np.load(frame, allow_pickle=False)
        values[6, 100] = np.nan
        np.save(frame, values)
        code = run(["analyze-stack", "--manifest", sim_out / "manifest.json",
                    "--config", config_file, "--out", tmp_path / "ana"])
        assert code == 4

    @pytest.mark.parametrize("key, value", [
        ("shape", 5),
        ("phases_rad", [0.0, 0.0, math.pi, 1.5 * math.pi]),
        ("phases_rad", 5),
        ("noise", 3),
        ("pixel_pitch_m", [1]),
        ("pixel_pitch_m", 10**400),
        ("pixel_pitch_m", 5e-324),
    ], ids=["shape-not-a-list", "equal-phases", "phases-not-a-list", "noise-not-an-object",
            "pitch-not-a-number", "pitch-beyond-float-range", "pitch-subnormal"])
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

    def test_malformed_noise_exit_code(self, tmp_path):
        assert run(["simulate-edge", "--out", tmp_path, "--noise=read:abc"]) == 2

    @pytest.mark.parametrize("background", ["-1", "0", "nan", "inf"])
    def test_bad_background_exit_code(self, tmp_path, capsys, background):
        args = ["simulate-edge", "--out", tmp_path, f"--background={background}",
                "--rows", 2, "--cols", 64]
        assert run(args) == 2
        assert "background" in capsys.readouterr().err
        # read noise is a fraction of the background
        assert run(args + ["--noise", "read:0.01"]) == 2

    @pytest.mark.parametrize("pitch", ["-1um", "0", "1e309", "5e-324m", "1e-320m"])
    def test_bad_pitch_exit_code(self, tmp_path, capsys, pitch):
        args = ["simulate-edge", "--out", tmp_path, f"--pitch={pitch}", "--rows", 2, "--cols", 64]
        assert run(args) == 2
        assert "pitch" in capsys.readouterr().err

    @pytest.mark.parametrize("noise", ["none", "shot:on"])
    def test_negative_seed_exit_code(self, tmp_path, capsys, noise):
        # numpy's SeedSequence rejects -1 only when a noise model draws
        code = run(["simulate-edge", "--out", tmp_path, "--seed", -1, "--noise", noise,
                    "--rows", 2, "--cols", 64])
        assert code == 2
        assert "seed" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    def test_waist_outside_float_range_exit_code(self, tmp_path):
        # w_p^2 = 1e308 fits a float, but 2 pi w_p^2 (ld + lu) does not
        cfg = tmp_path / "huge.cfg"
        cfg.write_text("pump_waist = 1e154m\n", encoding="utf-8")
        assert run(["simulate-edge", "--config", cfg, "--out", tmp_path / "sim",
                    "--rows", 2, "--cols", 64]) == 3

    def test_edge_fit_not_converged_names_the_fit(self, tmp_path, capsys):
        # the edge lies outside the beam window, so a valley of parameters
        # fits the visibility profile and the fit never settles
        assert run(["simulate-edge", "--edge-offset", "1mm", "--cols", 2048,
                    "--out", tmp_path / "sim"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: visibility (v) edge fit: no convergence")
        assert "last m_d = " in err

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
    def write_two_slit_profile(path, separation=355.11e-6, scale=1.0):
        x = np.linspace(-6e-4, 6e-4, 601)
        y = (
            0.02
            + np.exp(-(((x + separation / 2) / 5e-5) ** 2))
            + np.exp(-(((x - separation / 2) / 5e-5) ** 2))
        )
        write_profile_csv(Profile1D(grid=x * scale, values=y), path)

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

    @pytest.mark.parametrize("option, value", [
        ("--slit-distance", "0um"), ("--slit-distance", "-133um"), ("--slit-distance", "1e309m"),
        ("--slit-tolerance", "-5um"), ("--slit-tolerance", "1e309m"),
    ])
    def test_bad_slit_geometry_exit_code(self, tmp_path, capsys, option, value):
        profile_path = tmp_path / "slits.csv"
        self.write_two_slit_profile(profile_path)
        code = run(["magnification", "--profile", profile_path, f"{option}={value}",
                    "--out", tmp_path / "m"])
        assert code == 2
        assert option[2:].replace("-", " ") in capsys.readouterr().err
        assert not (tmp_path / "m").exists()

    @pytest.mark.parametrize("option, value", [
        ("--slit-distance", "1e-320m"), ("--slit-tolerance", "1e308m"),
    ])
    def test_non_finite_magnification_exit_code(self, tmp_path, capsys, option, value):
        # a subnormal slit distance makes the magnification inf, a huge
        # tolerance its uncertainty: neither is reported as a result
        profile_path = tmp_path / "slits.csv"
        self.write_two_slit_profile(profile_path)
        out = tmp_path / "m"
        assert run(["magnification", "--profile", profile_path, f"{option}={value}",
                    "--out", out]) == 3
        assert "is not finite" in capsys.readouterr().err
        assert not (out / "magnification.json").exists()

    @pytest.mark.parametrize("distance", ["1e-300m", "1e-160m"])
    def test_uncertainty_overflow_exit_code(self, tmp_path, capsys, distance):
        # (tolerance / distance)^2 leaves the float range while the
        # magnification itself is still finite: the error names the
        # uncertainty, not a bare errno
        profile_path = tmp_path / "slits.csv"
        self.write_two_slit_profile(profile_path)
        out = tmp_path / "m"
        assert run(["magnification", "--profile", profile_path, "--slit-distance", distance,
                    "--out", out]) == 3
        assert "error: uncertainty inf of magnification" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("step", [2e-300, 2e-170, 2e160, 2e300])
    def test_fit_overflow_names_the_fit(self, tmp_path, capsys, step):
        # the 2 um grid and the slit distance rescaled far from metres: a
        # matrix product of the fit engine leaves the float range, and
        # the error names the two-slit fit and the grid step
        scale = step / 2e-6
        profile_path = tmp_path / "slits.csv"
        self.write_two_slit_profile(profile_path, scale=scale)
        out = tmp_path / "m"
        assert run(["magnification", "--profile", profile_path,
                    f"--slit-distance={133e-6 * scale!r}m", "--out", out]) == 3
        err = capsys.readouterr().err
        assert "error: two-slit fit: overflow encountered in " in err
        assert f"grid step of {step:.3g} m" in err
        assert not out.exists()

    def test_too_few_rows_for_the_fit_exit_code(self, tmp_path, capsys):
        # two separated maxima, but 5 samples for the 7 fit parameters
        profile_path = tmp_path / "short.csv"
        profile_path.write_text("0,1\n1e-6,0\n2e-6,1\n3e-6,0\n4e-6,1\n", encoding="utf-8")
        out = tmp_path / "m"
        assert run(["magnification", "--profile", profile_path, "--out", out]) == 2
        assert "need >= 9 data points" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_slit_tolerance_accepted(self, tmp_path):
        profile_path = tmp_path / "slits.csv"
        self.write_two_slit_profile(profile_path)
        out = tmp_path / "m"
        assert run(["magnification", "--profile", profile_path, "--slit-tolerance", "0um",
                    "--out", out]) == 0
        report = json.loads((out / "magnification.json").read_text())
        assert report["relative_uncertainty"] < 23.0 / 133.0

    @pytest.mark.parametrize("text", [
        "1e-4,0.5\n",
        "0,1\n1e-6,2\n3e-6,1\n4e-6,2\n",
        "0,1\n1e-6,two\n2e-6,1\n",
        "0,1\n1e-6,nan\n2e-6,1\n",
        "0,1\n1e-6,inf\n2e-6,1\n",
        "0,1\n1e-6,-inf\n2e-6,1\n",
        "0,1\nnan,2\n2e-6,1\n",
        "0,1\n1e-6,2\ninf,1\n",
        "-inf,1\n1e-6,2\n2e-6,1\n",
    ], ids=["one-row", "non-uniform-grid", "non-numeric", "nan-value", "inf-value",
            "minus-inf-value", "nan-grid", "inf-grid", "minus-inf-grid"])
    def test_malformed_profile_exit_code(self, tmp_path, capsys, text):
        profile_path = tmp_path / "bad.csv"
        profile_path.write_text(text, encoding="utf-8")
        assert run(["magnification", "--profile", profile_path, "--out", tmp_path / "m"]) == 2
        assert str(profile_path) in capsys.readouterr().err


def fresh_python(*args):
    """Run a new interpreter on the package under test: the suite itself
    has imported scipy, so only a fresh process shows what a CLI start
    loads."""
    src = Path(qiul.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", *args],
                          env=env, capture_output=True, text=True, timeout=300)


class TestFreshProcess:
    def test_magnification_never_imports_scipy(self, tmp_path):
        profile_path = tmp_path / "slits.csv"
        TestMagnificationCommand.write_two_slit_profile(profile_path)
        code = (
            "import sys; import qiul; import qiul.cli\n"
            "rc = qiul.cli.main(['magnification', '--profile', sys.argv[1], '--out', sys.argv[2]])\n"
            "print(rc, sorted(m for m in sys.modules if m.startswith('scipy')))"
        )
        proc = fresh_python("-c", code, str(profile_path), str(tmp_path / "mag"))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 []"  # exit code, scipy modules loaded

    @pytest.mark.parametrize("text", ["", "# plane=camera\n# x_c_m, value\n"],
                             ids=["empty", "header-only"])
    def test_profile_without_data_rows(self, tmp_path, text):
        # exit 2 with one error line: no numpy warning on stderr before it
        profile_path = tmp_path / "empty.csv"
        profile_path.write_text(text, encoding="utf-8")
        code = ("import sys; import qiul.cli\n"
                "sys.exit(qiul.cli.main(['magnification', '--profile', sys.argv[1], "
                "'--out', sys.argv[2]]))")
        proc = fresh_python("-c", code, str(profile_path), str(tmp_path / "mag"))
        assert proc.returncode == 2
        assert proc.stderr == f"error: {profile_path}: not a profile CSV (no data rows)\n"

    def test_cli_import_loads_no_thread_pool_and_no_scipy(self):
        # both are imported where first used: on every CLI start they would
        # cost import time that most commands never need
        code = ("import sys; import qiul.cli\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] in ('concurrent', 'scipy')))")
        proc = fresh_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    def test_first_erf_call_under_errstate(self, tmp_path):
        # the fresh process imports scipy on its first edge-response
        # evaluation, inside cli.main's np.errstate(over/invalid="raise")
        args = ["theory-sweep", "--waists", "20um:2mm:log20", "--out"]
        proc = fresh_python("-m", "qiul.cli", *args, str(tmp_path / "fresh"))
        assert proc.returncode == 0, proc.stderr
        assert run([*args, tmp_path / "in_process"]) == 0
        fresh = (tmp_path / "fresh" / "sweep.csv").read_bytes()
        assert fresh == (tmp_path / "in_process" / "sweep.csv").read_bytes()


class TestDeterminism:
    def test_simulate_edge_rerun_byte_identical(self, tmp_path, config_file):
        args = ["simulate-edge", "--config", config_file, "--seed", 11,
                "--noise", "read:0.01,shot:on", "--phases", 4,
                "--rows", 12, "--cols", 256, "--pitch", "2um"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(args + ["--out", out_a]) == 0
        assert run(args + ["--out", out_b]) == 0
        for name in ("manifest.json", "analysis.json", "comparison.json",
                     "frames/frame_000.npy", "v_image.npy"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


class TestRepeatedInProcessCalls:
    def test_calls_share_no_state(self, tmp_path, config_file, capsys):
        # one process builds the parser once; each call must still write
        # what the same command writes in a process of its own
        profile_path = tmp_path / "slits.csv"
        TestMagnificationCommand.write_two_slit_profile(profile_path)
        sim = ["simulate-edge", "--config", config_file, "--noise", "read:0.01,shot:on",
               "--rows", 12, "--cols", 256, "--pitch", "2um"]
        seq = tmp_path / "sequence"
        assert run([*sim, "--seed", 5, "--out", seq / "seeded"]) == 0
        assert run([*sim, "--out", seq / "default-seed"]) == 0
        with pytest.raises(SystemExit) as usage:
            run(["simulate-edge", "--phases", "four", "--out", seq / "usage"])
        assert usage.value.code == 2
        assert "invalid int value: 'four'" in capsys.readouterr().err
        assert run(["magnification", "--profile", profile_path, "--out", seq / "magnification"]) == 0
        assert run(["theory-sweep", "--out", seq / "sweep"]) == 0
        assert qiul.cli.build_parser() is qiul.cli.build_parser()

        alone = {
            "seeded": [*sim, "--seed", 5],
            "default-seed": [*sim, "--seed", 0],
            "magnification": ["magnification", "--profile", profile_path],
            "sweep": ["theory-sweep"],
        }
        for name, args in alone.items():
            out = tmp_path / "alone" / name
            proc = fresh_python("-m", "qiul.cli", *map(str, args), "--out", str(out))
            assert proc.returncode == 0, proc.stderr
            assert tree_bytes(seq / name) == tree_bytes(out), name
        assert tree_bytes(seq / "seeded") != tree_bytes(seq / "default-seed")
        assert not (seq / "usage").exists()


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=8,
)
FRAME_NAMES = [f"frames/frame_{k:03d}.npy" for k in range(4)]
FRAME_HEADER_BYTES, FRAME_PIXELS = 128, 12 * 256  # .npy header and pixels of a 12 x 256 frame
OFFSETS = st.integers(0, FRAME_HEADER_BYTES + 32) | st.integers(0, FRAME_HEADER_BYTES + 8 * FRAME_PIXELS)
# per manifest key: values near the valid ones, so that mutations reach the
# frame reader and the analysis, besides arbitrary JSON
MANIFEST_VALUES = {
    "schema": st.sampled_from(["qiul.stack/1", "qiul.stack/2", ""]),
    "phases_rad": st.lists(st.floats() | st.integers(), max_size=6),
    "pixel_pitch_m": st.floats() | st.integers(),
    "noise": st.dictionaries(st.text(max_size=5), JSON_VALUES, max_size=3),
    "shape": st.lists(st.integers(-2, 300), max_size=3),
    "frames": st.lists(st.sampled_from(
        FRAME_NAMES + ["", "frames", "manifest.json", "frames/missing.npy", "../sim/manifest.json"]
    ) | st.text(max_size=12), max_size=6),
}


# argument and config strings: near-valid numbers and lengths, malformed
# ones, and arbitrary text; logN stays <= 64 to keep every run small
NUMBERS = (st.floats().map(repr) | st.integers(-10**6, 10**6).map(str)
           | st.sampled_from(["", ".", "-", "e", "1e", "1.2.3", "0x10", "nan", "inf", "1_0",
                             "1e309", "-1e309", "1e-400"]))
LENGTHS = (st.sampled_from(["2mm", "5mm", "10mm", "11.35um", "50um", "142um", "2e-3"])
           | st.builds(str.__add__, NUMBERS,
                       st.sampled_from(["", "nm", "um", "µm", "mm", "cm", "m", "km"])))
POINT_COUNTS = (st.integers(-2, 64).map("log{}".format)
                | st.sampled_from(["log", "logx", "log1.5", "lin8", ""]))
LENGTH_LISTS = (st.lists(LENGTHS, max_size=3).map(",".join)
                | st.builds("{}:{}:{}".format, LENGTHS, LENGTHS, POINT_COUNTS)
                | st.lists(LENGTHS | POINT_COUNTS, min_size=1, max_size=4).map(":".join)
                | st.text(max_size=12))
NOISE_PARTS = (st.builds("read:{}".format, NUMBERS)
               | st.sampled_from(["shot:on", "shot:off", "shot:", "shot:yes", "dark:1", "read", ""])
               | st.text(max_size=8))
NOISE_SPECS = st.sampled_from(["none", ""]) | st.lists(NOISE_PARTS, min_size=1, max_size=3).map(",".join)
BACKGROUNDS = NUMBERS | st.sampled_from(["1e4", "-1", "0", "-inf", "1e300", "5e-324"]) | st.text(max_size=6)
SEEDS = (st.integers(-2**64, 2**64).map(str) | st.sampled_from(["-1", "0", "-0", "+3"])
         | NUMBERS | st.text(max_size=6))
SLIT_LENGTHS = st.sampled_from(["133um", "23um", "0um", "1e-320m", "1e-300m", "1e308m"]) | LENGTHS


@st.composite
def profile_csvs(draw):
    """Profile CSV text of 2 to 40 rows on a uniform grid of any step.
    The values are one scale times numbers in [-2, 2], or, in some
    profiles, with 0, +-1e+-300 and any finite float mixed in."""
    n = draw(st.integers(2, 40))
    step = draw(st.sampled_from([1e-6, 1e-300, 5e-324, 1e300]) | st.floats(1e-9, 1e-3))
    first = draw(st.integers(-40, 0))
    scale = draw(st.sampled_from([1.0, -1.0, 1e300, 1e-300, 5e-324]) | st.floats(-1e6, 1e6))
    value = st.floats(-2.0, 2.0)
    if draw(st.booleans()):
        value |= (st.sampled_from([0.0, 1e300, -1e300, 1e-300, -1e-300])
                  | st.floats(allow_nan=False, allow_infinity=False))
    values = draw(st.lists(value, min_size=n, max_size=n))
    return "".join(f"{(first + i) * step!r},{scale * y!r}\n" for i, y in enumerate(values))


# per config key, values that keep the other keys valid
VALID_CONFIG_VALUES = {
    "lambda_p": ["405nm"], "lambda_d": ["730nm"], "lambda_u": ["910nm"],
    "crystal_length": ["2mm", "10mm"], "pump_waist": ["142um", "11.35um"],
    "m_d": ["2.67"], "m_u": ["1", "3"], "m_d_i": ["1"], "m_u_i": ["1", "3"], "m_d_c": ["2.67"],
}


@st.composite
def config_values(draw):
    keys = draw(st.lists(st.sampled_from(sorted(VALID_CONFIG_VALUES)), max_size=4, unique=True))
    return {key: draw(st.sampled_from(VALID_CONFIG_VALUES[key]) | LENGTHS | NUMBERS
                      | st.text(max_size=8)) for key in keys}


def exit_code(args) -> int:
    """main's exit code, including argparse's exit 2 for a value its
    type conversion rejects."""
    try:
        return run(args)
    except SystemExit as exc:
        return exc.code


@pytest.fixture(scope="module")
def simulated_stack(tmp_path_factory):
    base = tmp_path_factory.mktemp("fuzz")
    cfg = base / "run.cfg"
    cfg.write_text("crystal_length = 5mm\npump_waist = 214um\n", encoding="utf-8")
    sim = base / "sim"
    assert run(["simulate-edge", "--config", cfg, "--out", sim, "--phases", 4,
                "--rows", 12, "--cols", 256, "--pitch", "2um"]) == 0
    return sim, cfg


@pytest.fixture(scope="module")
def two_slit_profile(tmp_path_factory):
    path = tmp_path_factory.mktemp("slits") / "slits.csv"
    TestMagnificationCommand.write_two_slit_profile(path)
    return path


@st.composite
def manifest_edits(draw):
    """(key, value) pairs; a value of None deletes the key."""
    keys = draw(st.lists(st.sampled_from(sorted(MANIFEST_VALUES)), max_size=3, unique=True))
    return [(key, draw(st.none() | MANIFEST_VALUES[key] | JSON_VALUES)) for key in keys]


@st.composite
def frame_edits(draw):
    """(frame index, edit) pairs; an edit takes and returns file bytes."""
    edits = []
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(0, len(FRAME_NAMES) - 1))
        kind = draw(st.sampled_from(["truncate", "overwrite", "value", "replace"]))
        if kind == "truncate":
            cut = draw(OFFSETS)
            edits.append((k, lambda data, cut=cut: data[:cut]))
        elif kind == "overwrite":
            at = draw(OFFSETS)
            new = draw(st.binary(min_size=1, max_size=8))
            edits.append((k, lambda data, at=at, new=new: data[:at] + new + data[at + len(new):]))
        elif kind == "value":  # one pixel set to any float64, NaN and huge ones included
            at = FRAME_HEADER_BYTES + 8 * draw(st.integers(0, FRAME_PIXELS - 1))
            new = struct.pack("<d", draw(st.floats()))
            edits.append((k, lambda data, at=at, new=new: data[:at] + new + data[at + 8:]))
        else:
            new = draw(st.binary(max_size=200))
            edits.append((k, lambda data, new=new: new))
    return edits


class TestExitCodeContract:
    @pytest.mark.parametrize("command, option, data", [
        ("theory-sweep", "--config", b"crystal_length = 2mm\n\xff\n"),
        ("analyze-stack", "--manifest", b"\xff{}"),
        ("magnification", "--profile", b"0,1\n1e-6,2\xff\n2e-6,1\n"),
        ("analyze-stack", "--manifest", b"[" * 100_000),
    ], ids=["config", "manifest", "profile", "manifest-nested-too-deep"])
    def test_unreadable_file_exit_code(self, tmp_path, capsys, command, option, data):
        path = tmp_path / "input"
        path.write_bytes(data)
        assert run([command, option, path, "--out", tmp_path / "out"]) == 2
        assert str(path) in capsys.readouterr().err

    @settings(max_examples=60, deadline=None)
    @given(data=st.binary(max_size=64))
    def test_file_bytes(self, simulated_stack, data):
        # the same bytes as a config, a stack manifest and a profile CSV
        sim, cfg = simulated_stack
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            shutil.copytree(sim, tmp / "sim")
            for path in (tmp / "run.cfg", tmp / "sim" / "manifest.json", tmp / "profile.csv"):
                path.write_bytes(data)
            codes = {
                run(["theory-sweep", "--config", tmp / "run.cfg", "--out", tmp / "sweep",
                     "--lengths", "2mm", "--waists", "142um"]),
                run(["analyze-stack", "--manifest", tmp / "sim" / "manifest.json",
                     "--config", cfg, "--out", tmp / "ana"]),
                run(["magnification", "--profile", tmp / "profile.csv", "--out", tmp / "mag"]),
            }
        assert codes <= {0, 2, 3, 4}

    @settings(max_examples=60, deadline=5000)
    @given(manifest=manifest_edits(), frames=frame_edits())
    def test_analyze_stack_mutated_input(self, simulated_stack, manifest, frames):
        sim, cfg = simulated_stack
        with tempfile.TemporaryDirectory() as tmp:
            stack = Path(tmp) / "sim"
            shutil.copytree(sim, stack)
            path = stack / "manifest.json"
            data = json.loads(path.read_text())
            for key, value in manifest:
                if value is None:
                    data.pop(key, None)
                else:
                    data[key] = value
            path.write_text(json.dumps(data))
            for k, edit in frames:
                frame = stack / FRAME_NAMES[k]
                frame.write_bytes(edit(frame.read_bytes()))
            code = run(["analyze-stack", "--manifest", path, "--config", cfg,
                        "--out", Path(tmp) / "ana"])
        assert code in (0, 2, 3, 4)

    @settings(max_examples=60, deadline=None)
    @given(lengths=LENGTH_LISTS, waists=LENGTH_LISTS)
    def test_theory_sweep_grid_strings(self, lengths, waists):
        with tempfile.TemporaryDirectory() as tmp:
            code = exit_code(["theory-sweep", "--out", tmp,
                              f"--lengths={lengths}", f"--waists={waists}"])
        assert code in (0, 2, 3, 4)

    @settings(max_examples=40, deadline=None)
    @given(noise=NOISE_SPECS, background=BACKGROUNDS)
    def test_simulate_edge_noise_and_background_strings(self, noise, background):
        with tempfile.TemporaryDirectory() as tmp:
            code = exit_code(["simulate-edge", "--out", tmp, "--rows", 2, "--cols", 64,
                              "--phases", 3, f"--noise={noise}", f"--background={background}"])
        assert code in (0, 2, 3, 4)

    @settings(max_examples=40, deadline=None)
    @given(seed=SEEDS, noise=st.sampled_from(["none", "shot:on", "read:0.01"]))
    def test_simulate_edge_seed_strings(self, seed, noise):
        with tempfile.TemporaryDirectory() as tmp:
            code = exit_code(["simulate-edge", "--out", tmp, "--rows", 2, "--cols", 64,
                              "--phases", 3, f"--seed={seed}", "--noise", noise])
        assert code in (0, 2, 3, 4)

    @settings(max_examples=60, deadline=None)
    @given(distance=st.none() | LENGTHS, tolerance=st.none() | LENGTHS)
    def test_magnification_slit_strings(self, two_slit_profile, distance, tolerance):
        args = ["magnification", "--profile", two_slit_profile]
        args += [] if distance is None else [f"--slit-distance={distance}"]
        args += [] if tolerance is None else [f"--slit-tolerance={tolerance}"]
        with tempfile.TemporaryDirectory() as tmp:
            code = exit_code(args + ["--out", tmp])
        assert code in (0, 2, 3, 4)

    @settings(max_examples=150, deadline=None)
    @given(text=profile_csvs(), distance=SLIT_LENGTHS, tolerance=SLIT_LENGTHS)
    def test_magnification_profiles(self, text, distance, tolerance):
        # a profile and slit geometry either exit 2, 3 or 4, or every
        # number in magnification.json is finite (JSON writes inf and nan
        # as strings)
        def leaves(obj):
            return [v for o in obj.values() for v in leaves(o)] if isinstance(obj, dict) else [obj]

        with tempfile.TemporaryDirectory() as tmp:
            profile = Path(tmp) / "profile.csv"
            profile.write_text(text, encoding="utf-8")
            out = Path(tmp) / "mag"
            code = exit_code(["magnification", "--profile", profile, "--out", out,
                              f"--slit-distance={distance}", f"--slit-tolerance={tolerance}"])
            assert code in (0, 2, 3, 4)
            if code == 0:
                report = json.loads((out / "magnification.json").read_text())
                assert all(isinstance(v, (int, float)) and math.isfinite(v)
                           for v in leaves(report)), report

    @settings(max_examples=40, deadline=None)
    @given(values=config_values())
    def test_config_file_values(self, values):
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "run.cfg"
            cfg.write_text("".join(f"{key} = {value}\n" for key, value in values.items()),
                           encoding="utf-8")
            codes = {
                exit_code(["theory-sweep", "--config", cfg, "--out", Path(tmp) / "sweep",
                           "--lengths", "2mm,10mm", "--waists", "20um:2mm:log8"]),
                exit_code(["simulate-edge", "--config", cfg, "--out", Path(tmp) / "sim",
                           "--rows", 2, "--cols", 64, "--phases", 3]),
            }
        assert codes <= {0, 2, 3, 4}
