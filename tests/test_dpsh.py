import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qiul.cli import main
from qiul.dpsh import (
    InterferogramStack,
    NoiseModel,
    SceneModel,
    _demodulate_frames,
    demodulate,
    load_stack,
    save_stack,
    select_max_row,
    synthesize_stack,
)
from qiul.errors import (
    CorruptFrame,
    DegeneratePhases,
    SchemaError,
    TooFewPhases,
    ValidationError,
)
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

    @pytest.mark.parametrize("noise", [NoiseModel(), NoiseModel(shot=True), NoiseModel(read_sigma=30.0),
                                       NoiseModel(read_sigma=30.0, shot=True)],
                             ids=["none", "shot", "read", "shot+read"])
    def test_frames_equal_serial_reference(self, noise, rng):
        # 16 frames: more tasks than workers on any host with fewer CPUs.
        # The reference renders the stack in one broadcast and noises it
        # frame by frame in one thread.
        scene = random_scene(rng, shape=(7, 300))
        phases = 2.0 * math.pi * np.arange(16) / 16
        b, a, p0 = scene.background, scene.modulation, scene.phase_map
        expected = b[None, :, :] + a[None, :, :] * np.cos(phases[:, None, None] + p0[None, :, :])
        if noise.enabled:
            streams = [np.random.default_rng(s) for s in np.random.SeedSequence(42).spawn(16)]
            noisy = np.empty_like(expected)
            for k, stream in enumerate(streams):
                frame = expected[k]
                if noise.shot:
                    frame = stream.poisson(np.clip(frame, 0.0, 1e18)).astype(float)
                if noise.read_sigma > 0:
                    frame = frame + stream.normal(0.0, noise.read_sigma, size=frame.shape)
                noisy[k] = frame
            expected = np.clip(noisy, 0.0, 65535.0)
        stack = synthesize_stack(scene, phases, noise, seed=42)
        np.testing.assert_array_equal(stack.frames, expected)

    @pytest.mark.parametrize("n_phases", [3, 4, 16])
    def test_scalar_phase_equals_zero_phase_map(self, n_phases, rng):
        scene = random_scene(rng, shape=(7, 300))
        b, a = scene.background, scene.modulation
        phases = 2.0 * math.pi * np.arange(n_phases) / n_phases
        noise = NoiseModel(read_sigma=30.0, shot=True)
        stacks = [synthesize_stack(SceneModel(background=b, modulation=a, phase_map=p0),
                                   phases, noise, seed=42)
                  for p0 in (0.0, np.zeros_like(b))]
        np.testing.assert_array_equal(stacks[0].frames, stacks[1].frames)

    @pytest.mark.parametrize("phase_map", [math.nan, np.zeros(3), np.zeros((3, 2)),
                                           np.full((2, 3), math.inf)],
                             ids=["nan", "1d", "transposed", "inf"])
    def test_phase_map_scalar_or_scene_shaped(self, phase_map):
        with pytest.raises(ValueError, match="phase_map"):
            SceneModel(background=np.ones((2, 3)), modulation=np.ones((2, 3)),
                       phase_map=phase_map)

    def test_error_state_reaches_workers(self):
        scene = uniform_scene(1.7e308, 1.7e308, 0.0, shape=(4, 4))  # b + a overflows
        with np.errstate(over="raise", invalid="raise"):
            caller_state = np.geterr()
            with pytest.raises(FloatingPointError):
                synthesize_stack(scene, FOUR_STEPS)
            assert np.geterr() == caller_state

    def test_saturation_clip(self):
        scene = uniform_scene(6e4, 2e4, 0.0, shape=(8, 8))
        stack = synthesize_stack(scene, FOUR_STEPS, NoiseModel(read_sigma=1.0), seed=1)
        assert stack.frames.max() <= 65535.0

    def test_shot_noise_beyond_poisson_range_saturates(self):
        # numpy's Poisson sampler rejects means above ~9.2e18
        scene = uniform_scene(1e300, 1e299, 0.0, shape=(4, 4))
        stack = synthesize_stack(scene, FOUR_STEPS, NoiseModel(shot=True), seed=1)
        np.testing.assert_array_equal(stack.frames, 65535.0)

    @pytest.mark.parametrize("sigma", [-1.0, math.nan, math.inf])
    def test_read_sigma_must_be_non_negative_and_finite(self, sigma):
        with pytest.raises(ValidationError, match="read noise sigma"):
            NoiseModel(read_sigma=sigma)

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

    def test_leaves_the_stack_untouched(self, rng):
        # the public call demodulates a copy: the in-place fit on one gives its results
        stack = synthesize_stack(random_scene(rng), FOUR_STEPS, NoiseModel(read_sigma=5.0), seed=1)
        before = stack.frames.tobytes()
        result = demodulate(stack)
        assert stack.frames.tobytes() == before
        in_place = _demodulate_frames(stack.frames.copy(), stack.phases)
        for name in ("g_image", "v_image", "phase_image", "b_image"):
            np.testing.assert_array_equal(getattr(result, name), getattr(in_place, name))
        assert result.residual_rms == in_place.residual_rms
        assert result.n_invalid == in_place.n_invalid

    @pytest.mark.parametrize("n_phases", [3, 16, 64])
    def test_blocked_contractions_equal_one_product(self, n_phases, rng):
        # 25,000 pixels: blocks of 65536 // n_phases pixels leave a partial
        # last block for every n_phases here
        phases = np.sort(rng.uniform(0.0, 2.0 * math.pi, n_phases))
        frames = rng.uniform(-100.0, 1000.0, size=(n_phases, 5, 5000))
        frames[:, :, ::97] -= 1000.0  # pixels with a negative fitted background
        result = demodulate(InterferogramStack(frames=frames, phases=phases))
        design = np.column_stack([np.ones_like(phases), np.cos(phases), np.sin(phases)])
        pinv = np.linalg.solve(design.T @ design, design.T)
        coeffs = np.tensordot(pinv, frames, axes=1)
        b, c, s = coeffs
        amp = np.hypot(c, s)
        phase = np.arctan2(-s, c)
        invalid = ~(b > 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            vis = np.where(invalid, np.nan, np.clip(amp / np.where(invalid, 1.0, b), 0.0, 1.0))
        fitted = np.tensordot(design, coeffs, axes=1)
        np.testing.assert_array_equal(result.g_image, 2.0 * amp)
        np.testing.assert_array_equal(result.v_image, vis)
        phase = np.where(phase <= -math.pi, phase + 2.0 * math.pi, phase)
        np.testing.assert_array_equal(result.phase_image, phase)
        np.testing.assert_array_equal(result.b_image, b)
        assert result.residual_rms == float(np.sqrt(np.mean((frames - fitted) ** 2)))
        assert result.n_invalid == np.count_nonzero(invalid) > 0

    @pytest.mark.parametrize("n_phases", [3, 16, 64])
    def test_products_stay_below_openblas_threading(self, n_phases, rng, monkeypatch):
        # OpenBLAS threads a dgemm above 4 * 65536 multiply-adds; demodulate
        # keeps every product within 3 * 65536. 25,000 pixels leave a
        # partial last block for every n_phases here.
        products = []
        matmul = np.matmul

        def recording_matmul(a, b, **kwargs):
            products.append((a.shape[0] * a.shape[1] * b.shape[1], b.shape[1]))
            return matmul(a, b, **kwargs)

        phases = 2.0 * math.pi * np.arange(n_phases) / n_phases
        frames = rng.uniform(0.0, 1000.0, size=(n_phases, 5, 5000))
        monkeypatch.setattr(np, "matmul", recording_matmul)
        demodulate(InterferogramStack(frames=frames, phases=phases))
        monkeypatch.undo()
        assert max(size for size, _ in products) <= 3 * 65536
        # the fit and the fitted frames each cover every pixel
        assert sum(cols for _, cols in products) == 2 * 25_000

    def test_more_phases_than_one_block_holds(self):
        # 65536 // n_phases is 0 here: the blocks still hold one pixel
        phases = 2.0 * math.pi * np.arange(65537) / 65537
        stack = InterferogramStack(frames=5.0 + 2.0 * np.cos(phases)[:, None, None] * np.ones((1, 1, 2)),
                                   phases=phases)
        np.testing.assert_allclose(demodulate(stack).g_image, 4.0, rtol=1e-9)

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


# frames-file faults: each rewrites the saved frames file from its values


def write_pickled_object_array(path, values):
    with open(path, "wb") as fh:
        np.lib.format.write_array(fh, np.array([{"frame": 1}], dtype=object), allow_pickle=True)


def write_npz(path, values):
    with open(path, "wb") as fh:
        np.savez(fh, frame=values)


def truncate(path, values):
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 8])


def truncate_one_byte(path, values):
    data = path.read_bytes()
    path.write_bytes(data[:-1])


def write_complex(path, values):
    np.save(path, values.astype(complex))


def write_one_phase_too_few(path, values):
    np.save(path, values[1:])


def write_one_frame(path, values):
    np.save(path, values[0])


def write_negative_dimensions(path, values):
    header = np.lib.format.header_data_from_array_1_0(values)
    header["shape"] = (values.shape[0], -values.shape[1], -values.shape[2])
    with open(path, "wb") as fh:
        np.lib.format.write_array_header_1_0(fh, header)
        fh.write(values.tobytes())


def write_oversized_header(path, values):
    header = np.lib.format.header_data_from_array_1_0(values)
    header["shape"] = (values.shape[0], 10**6, 10**6)  # 32 TB claimed, 64 bytes held
    with open(path, "wb") as fh:
        np.lib.format.write_array_header_1_0(fh, header)
        fh.write(bytes(64))


class TestPersistence:
    def test_round_trip_bitwise(self, tmp_path, rng):
        scene = random_scene(rng, shape=(5, 8))
        stack = synthesize_stack(scene, FOUR_STEPS, NoiseModel(read_sigma=30.0), seed=9)
        manifest = save_stack(stack, tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["frames.npy", "manifest.json"]
        data = json.loads(manifest.read_text())
        assert sorted(data) == ["frames", "noise", "phases_rad", "pixel_pitch_m", "schema"]
        assert data["schema"] == "qiul.stack/3" and data["frames"] == "frames.npy"
        back = load_stack(manifest)
        np.testing.assert_array_equal(back.frames, stack.frames)
        np.testing.assert_array_equal(back.phases, stack.phases)
        assert back.pixel_pitch == stack.pixel_pitch
        assert back.noise_meta == stack.noise_meta

    def test_missing_frame_named(self, tmp_path, rng):
        stack = synthesize_stack(random_scene(rng), FOUR_STEPS)
        manifest = save_stack(stack, tmp_path)
        (tmp_path / "frames.npy").unlink()
        with pytest.raises(CorruptFrame) as err:
            load_stack(manifest)
        assert "frames.npy" in str(err.value)

    def test_corrupt_frame_contents(self, tmp_path, rng):
        stack = synthesize_stack(random_scene(rng), FOUR_STEPS)
        manifest = save_stack(stack, tmp_path)
        (tmp_path / "frames.npy").write_text("not,numbers,at,all\n")
        with pytest.raises(CorruptFrame):
            load_stack(manifest)

    @pytest.mark.parametrize("where", ["relative", "absolute", "nul-byte"])
    def test_frame_outside_manifest_directory_rejected(self, tmp_path, rng, where):
        manifest = save_stack(synthesize_stack(random_scene(rng), FOUR_STEPS), tmp_path / "stack")
        outside = tmp_path / "outside.csv"
        outside.write_text("secret-token\n")
        data = json.loads(manifest.read_text())
        data["frames"] = {"relative": "../outside.csv", "absolute": str(outside),
                          "nul-byte": "frames.npy\x00"}[where]
        manifest.write_text(json.dumps(data))
        with pytest.raises(SchemaError) as err:
            load_stack(manifest)
        assert "outside the manifest directory" in str(err.value)
        assert "secret-token" not in str(err.value)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_frame_named(self, tmp_path, rng, bad):
        manifest = save_stack(synthesize_stack(random_scene(rng), FOUR_STEPS), tmp_path)
        path = tmp_path / "frames.npy"
        values = np.load(path, allow_pickle=False)
        values[2, 3, 4] = bad
        np.save(path, values)
        with pytest.raises(CorruptFrame) as err:
            load_stack(manifest)
        assert "frames.npy" in str(err.value)
        assert "phase step 2" in str(err.value)

    @pytest.mark.parametrize("write", [
        write_pickled_object_array, write_npz, truncate, truncate_one_byte, write_complex,
        write_oversized_header, write_one_phase_too_few, write_one_frame, write_negative_dimensions,
    ], ids=["pickled-object-array", "npz-archive", "truncated", "truncated-one-byte",
            "complex-dtype", "oversized-header", "first-axis-not-the-phases", "two-dimensional",
            "negative-dimensions"])
    def test_unreadable_frame_named(self, tmp_path, rng, write):
        manifest = save_stack(synthesize_stack(random_scene(rng), FOUR_STEPS), tmp_path)
        path = tmp_path / "frames.npy"
        write(path, np.load(path, allow_pickle=False))
        with pytest.raises(CorruptFrame) as err:
            load_stack(manifest)
        assert "frames.npy" in str(err.value)

    def test_header_claiming_more_than_the_file_holds(self, tmp_path, rng):
        manifest = save_stack(synthesize_stack(random_scene(rng), FOUR_STEPS), tmp_path)
        path = tmp_path / "frames.npy"
        write_oversized_header(path, np.load(path, allow_pickle=False))
        tracemalloc.start()
        try:
            with pytest.raises(CorruptFrame) as err:
                load_stack(manifest)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "frames.npy" in str(err.value)
        assert peak < 10**6  # bytes: no stack buffer was allocated

    @pytest.mark.parametrize("write", [
        lambda fh, a: np.lib.format.write_array(fh, np.asfortranarray(a)),
        lambda fh, a: np.lib.format.write_array(fh, a.astype(">f8")),
        lambda fh, a: np.lib.format.write_array(fh, a.astype("<f4")),
        lambda fh, a: np.lib.format.write_array(fh, a, version=(1, 0)),
        lambda fh, a: np.lib.format.write_array(fh, a, version=(2, 0)),
        lambda fh, a: np.lib.format.write_array(fh, a, version=(3, 0)),
        lambda fh, a: np.lib.format.write_array(fh, np.asfortranarray(a.astype(">i4")),
                                                version=(2, 0)),
    ], ids=["fortran-order", "big-endian-f8", "f4", "version-1.0", "version-2.0", "version-3.0",
            "fortran-big-endian-i4-version-2.0"])
    def test_frame_layouts_load_like_np_load(self, tmp_path, rng, write):
        # uint16 frames: test_integer_frames_read_as_float
        manifest = save_stack(synthesize_stack(random_scene(rng), FOUR_STEPS), tmp_path)
        path = tmp_path / "frames.npy"
        values = np.load(path, allow_pickle=False)
        with open(path, "wb") as fh:
            write(fh, values)
        expected = np.load(path, allow_pickle=False).astype(float)
        back = load_stack(manifest)
        assert back.frames.dtype == np.float64 and back.frames.flags.c_contiguous
        assert back.frames.tobytes() == expected.tobytes()

    def test_integer_frames_read_as_float(self, tmp_path, rng):
        manifest = save_stack(synthesize_stack(random_scene(rng), FOUR_STEPS), tmp_path)
        path = tmp_path / "frames.npy"
        counts = np.round(np.load(path, allow_pickle=False)).astype(np.uint16)
        np.save(path, counts)
        back = load_stack(manifest)
        assert back.frames.dtype == np.float64
        np.testing.assert_array_equal(back.frames, counts)

    @pytest.mark.parametrize("schema", ["qiul.stack/1", "qiul.stack/2"])
    def test_csv_stack_manifest_rejected(self, tmp_path, rng, capsys, schema):
        manifest = save_stack(synthesize_stack(random_scene(rng), FOUR_STEPS), tmp_path)
        suffix = ".csv" if schema == "qiul.stack/1" else ".npy"
        data = json.loads(manifest.read_text())
        data["schema"] = schema
        data["frames"] = [f"frames/frame_{k:03d}{suffix}" for k in range(FOUR_STEPS.size)]
        manifest.write_text(json.dumps(data))
        with pytest.raises(SchemaError) as err:
            load_stack(manifest)
        assert str(manifest) in str(err.value)
        assert "no longer read" in str(err.value)
        assert main(["analyze-stack", "--manifest", str(manifest), "--out", str(tmp_path / "ana")]) == 2
        assert "no longer read" in capsys.readouterr().err

    def test_schema_validation(self, tmp_path):
        bad = tmp_path / "manifest.json"
        bad.write_text('{"schema": "something/else"}')
        with pytest.raises(SchemaError):
            load_stack(bad)
        bad.write_text("not json")
        with pytest.raises(SchemaError):
            load_stack(bad)
