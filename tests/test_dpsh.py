import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qiul.dpsh import (
    InterferogramStack,
    NoiseModel,
    SceneModel,
    demodulate,
    load_stack,
    save_stack,
    select_max_row,
    synthesize_stack,
)
from qiul.errors import CorruptFrame, DegeneratePhases, SchemaError, TooFewPhases
from qiul.imaging import v_esf
from qiul.pipeline import build_edge_scene

from conftest import make_params

FOUR_STEPS = np.array([0.0, math.pi / 2, math.pi, 3 * math.pi / 2])


def uniform_scene(b=1.0, a=1.0, phi=0.0, shape=(2, 3)) -> SceneModel:
    return SceneModel(
        background=np.full(shape, float(b)),
        modulation=np.full(shape, float(a)),
        phase_map=np.full(shape, float(phi)),
    )


def random_scene(rng, shape=(7, 9)) -> SceneModel:
    b = rng.uniform(100.0, 1000.0, size=shape)
    return SceneModel(
        background=b,
        modulation=b * rng.uniform(0.0, 1.0, size=shape),
        phase_map=rng.uniform(-math.pi, math.pi, size=shape),
    )


class TestSynthesize:
    def test_cosine_values(self):
        stack = synthesize_stack(uniform_scene(1.0, 1.0, 0.0), FOUR_STEPS)
        expected = [2.0, 1.0, 0.0, 1.0]
        for frame, value in zip(stack.frames, expected):
            np.testing.assert_allclose(frame, value, atol=1e-15)

    def test_zero_modulation_gives_constant_frames(self):
        stack = synthesize_stack(uniform_scene(3.0, 0.0, 1.2), FOUR_STEPS)
        for frame in stack.frames:
            np.testing.assert_allclose(frame, 3.0, atol=1e-15)

    def test_poisson_frame_means(self):
        scene = uniform_scene(1e4, 3e3, 0.7, shape=(100, 100))
        stack = synthesize_stack(scene, FOUR_STEPS, NoiseModel(shot=True), seed=5)
        for k, phi in enumerate(FOUR_STEPS):
            expected = 1e4 + 3e3 * math.cos(phi + 0.7)
            sigma_mean = math.sqrt(expected / scene.background.size)
            assert abs(stack.frames[k].mean() - expected) < 3.0 * sigma_mean

    def test_determinism(self):
        scene = uniform_scene(1e4, 5e3, 0.3, shape=(16, 16))
        noise = NoiseModel(read_sigma=50.0, shot=True)
        a = synthesize_stack(scene, FOUR_STEPS, noise, seed=123)
        b = synthesize_stack(scene, FOUR_STEPS, noise, seed=123)
        np.testing.assert_array_equal(a.frames, b.frames)
        c = synthesize_stack(scene, FOUR_STEPS, noise, seed=124)
        assert not np.array_equal(a.frames, c.frames)

    def test_saturation_clip(self):
        scene = uniform_scene(6e4, 2e4, 0.0, shape=(8, 8))
        stack = synthesize_stack(scene, FOUR_STEPS, NoiseModel(read_sigma=1.0), seed=1)
        assert stack.frames.max() <= 65535.0

    def test_too_few_phases(self):
        with pytest.raises(TooFewPhases):
            synthesize_stack(uniform_scene(), [0.0, math.pi])

    def test_scene_visibility_bound(self):
        with pytest.raises(ValueError):
            SceneModel(
                background=np.ones((2, 2)),
                modulation=np.full((2, 2), 1.5),
                phase_map=np.zeros((2, 2)),
            )


class TestDemodulate:
    @pytest.mark.parametrize("n_steps", [3, 4, 16])
    def test_noiseless_exact(self, n_steps, rng):
        scene = random_scene(rng)
        phases = 2.0 * math.pi * np.arange(n_steps) / n_steps
        result = demodulate(synthesize_stack(scene, phases))
        np.testing.assert_allclose(result.g_image, 2.0 * scene.modulation, rtol=1e-11, atol=1e-11)
        np.testing.assert_allclose(result.b_image, scene.background, rtol=1e-11)
        np.testing.assert_allclose(
            result.v_image, scene.modulation / scene.background, rtol=1e-10, atol=1e-12
        )
        # phase compared where modulation is meaningful
        mask = scene.modulation > 1e-6 * scene.background
        dphi = np.angle(np.exp(1j * (result.phase_image - scene.phase_map)))
        assert np.max(np.abs(dphi[mask])) < 1e-10
        assert result.residual_rms < 1e-9

    def test_unequal_phase_spacing_still_exact(self, rng):
        scene = random_scene(rng, shape=(4, 5))
        phases = np.array([0.1, 0.9, 2.0, 2.7, 5.1])
        result = demodulate(synthesize_stack(scene, phases))
        np.testing.assert_allclose(result.g_image, 2.0 * scene.modulation, rtol=1e-11)

    def test_visibility_edge_round_trip(self, setup):
        p = make_params(5e-3, 214e-6)
        scene = build_edge_scene(p, setup, rows=8, cols=256, pixel_pitch=4e-6, background=1e4)
        stack = synthesize_stack(scene, FOUR_STEPS, pixel_pitch=4e-6)
        result = demodulate(stack)
        x = (np.arange(256) - 127.5) * 4e-6
        np.testing.assert_allclose(result.v_image[4], v_esf(p, setup, x), atol=1e-10)

    def test_g_equals_2bv_for_constant_background(self):
        shape = (6, 6)
        rng = np.random.default_rng(3)
        scene = SceneModel(
            background=np.full(shape, 500.0),
            modulation=500.0 * rng.uniform(0, 1, shape),
            phase_map=rng.uniform(-3, 3, shape),
        )
        result = demodulate(synthesize_stack(scene, FOUR_STEPS))
        np.testing.assert_allclose(result.g_image, 2.0 * 500.0 * result.v_image, rtol=1e-9)

    @given(st.floats(min_value=-10.0, max_value=10.0))
    @settings(max_examples=20, deadline=None)
    def test_global_phase_shift_invariance(self, psi):
        # same frames re-referenced to phi_k + psi: g and v unchanged,
        # the recovered object phase shifts by -psi
        scene = uniform_scene(100.0, 60.0, 0.4, shape=(3, 3))
        stack = synthesize_stack(scene, FOUR_STEPS)
        base = demodulate(stack)
        shifted = demodulate(
            InterferogramStack(frames=stack.frames, phases=FOUR_STEPS + psi)
        )
        np.testing.assert_allclose(shifted.g_image, base.g_image, rtol=1e-9)
        np.testing.assert_allclose(shifted.v_image, base.v_image, rtol=1e-9)
        dphi = np.angle(np.exp(1j * (shifted.phase_image - (base.phase_image - psi))))
        np.testing.assert_allclose(dphi, 0.0, atol=1e-8)

    def test_read_noise_visibility_rms(self):
        # 16 steps, 1% read noise of B = 1e4 counts at V = 0.5
        scene = uniform_scene(1e4, 5e3, 0.2, shape=(32, 32))
        phases = 2.0 * math.pi * np.arange(16) / 16
        errors = []
        for seed in range(100):
            stack = synthesize_stack(scene, phases, NoiseModel(read_sigma=100.0), seed=seed)
            result = demodulate(stack)
            errors.append(result.v_image - 0.5)
        rms = float(np.sqrt(np.mean(np.square(errors))))
        assert rms < 0.01

    def test_degenerate_phases(self):
        frames = np.zeros((3, 2, 2))
        stack = InterferogramStack(frames=frames, phases=np.array([0.0, 1e-9, 2e-9]))
        with pytest.raises(DegeneratePhases):
            demodulate(stack)

    def test_negative_background_flagged_invalid(self):
        frames = -np.ones((3, 2, 2))
        stack = InterferogramStack(frames=frames, phases=np.array([0.0, 2.1, 4.2]))
        result = demodulate(stack)
        assert result.n_invalid == 4
        assert np.all(np.isnan(result.v_image))

    def test_duplicate_phases_rejected(self):
        with pytest.raises(ValueError):
            InterferogramStack(frames=np.zeros((3, 2, 2)), phases=np.array([0.0, math.pi, 2 * math.pi]))


class TestSelectMaxRow:
    def test_single_bright_row(self):
        img = np.zeros((5, 7))
        img[3] = 1.0
        row, profile = select_max_row(img, pixel_pitch=2e-6)
        assert row == 3
        assert profile.grid[1] - profile.grid[0] == pytest.approx(2e-6)

    def test_gaussian_beam_centered_row(self):
        y = np.arange(101)
        x = np.arange(64)
        img = np.exp(-(((y[:, None] - 37.0) / 12.0) ** 2)) * np.exp(-(((x[None, :] - 30.0) / 9.0) ** 2))
        row, _ = select_max_row(img)
        assert row == 37

    def test_tie_breaks_to_smaller_index(self):
        row, _ = select_max_row(np.ones((4, 4)))
        assert row == 0


class TestPersistence:
    def test_round_trip_bitwise(self, tmp_path, rng):
        scene = random_scene(rng, shape=(5, 6))
        stack = synthesize_stack(scene, FOUR_STEPS, NoiseModel(read_sigma=30.0), seed=9)
        manifest = save_stack(stack, tmp_path)
        back = load_stack(manifest)
        np.testing.assert_array_equal(back.frames, stack.frames)
        np.testing.assert_array_equal(back.phases, stack.phases)
        assert back.pixel_pitch == stack.pixel_pitch
        assert back.noise_meta == stack.noise_meta

    def test_missing_frame_named(self, tmp_path, rng):
        stack = synthesize_stack(random_scene(rng), FOUR_STEPS)
        manifest = save_stack(stack, tmp_path)
        victim = tmp_path / "frames" / "frame_002.csv"
        victim.unlink()
        with pytest.raises(CorruptFrame) as err:
            load_stack(manifest)
        assert "frame_002.csv" in str(err.value)

    def test_corrupt_frame_contents(self, tmp_path, rng):
        stack = synthesize_stack(random_scene(rng), FOUR_STEPS)
        manifest = save_stack(stack, tmp_path)
        (tmp_path / "frames" / "frame_001.csv").write_text("not,numbers,at,all\n")
        with pytest.raises(CorruptFrame):
            load_stack(manifest)

    @pytest.mark.parametrize("absolute", [False, True], ids=["relative", "absolute"])
    def test_frame_outside_manifest_directory_rejected(self, tmp_path, rng, absolute):
        manifest = save_stack(synthesize_stack(random_scene(rng), FOUR_STEPS), tmp_path / "stack")
        outside = tmp_path / "outside.csv"
        outside.write_text("secret-token\n")
        data = json.loads(manifest.read_text())
        data["frames"][0] = str(outside) if absolute else "../outside.csv"
        manifest.write_text(json.dumps(data))
        with pytest.raises(SchemaError) as err:
            load_stack(manifest)
        assert "outside the manifest directory" in str(err.value)
        assert "secret-token" not in str(err.value)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_frame_named(self, tmp_path, rng, bad):
        manifest = save_stack(synthesize_stack(random_scene(rng), FOUR_STEPS), tmp_path)
        frame = tmp_path / "frames" / "frame_002.csv"
        values = np.loadtxt(frame, delimiter=",")
        values[3, 4] = bad
        np.savetxt(frame, values, delimiter=",")
        with pytest.raises(CorruptFrame) as err:
            load_stack(manifest)
        assert "frame_002.csv" in str(err.value)

    def test_schema_validation(self, tmp_path):
        bad = tmp_path / "manifest.json"
        bad.write_text('{"schema": "something/else"}')
        with pytest.raises(SchemaError):
            load_stack(bad)
        bad.write_text("not json")
        with pytest.raises(SchemaError):
            load_stack(bad)
