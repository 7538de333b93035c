"""Digital phase-shifting holography: synthesis and demodulation.

Forward model per pixel and phase step: I_k = B + A cos(phi_k + phi0)
with background B, interference amplitude A (A <= B), and object phase
phi0. Demodulation is a per-pixel least-squares fit of
I_k = B + C cos(phi_k) + S sin(phi_k), which is exact for noiseless
stacks with >= 3 distinct phases and reduces to the discrete quadrature
formulas for equally spaced phases over 2 pi. The amplitude image is
g = 2A (max minus min of the fringe) and the visibility is v = A / B.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import CorruptFrame, DegeneratePhases, SchemaError, TooFewPhases
from .imaging import Profile1D

__all__ = [
    "SceneModel",
    "NoiseModel",
    "InterferogramStack",
    "DemodulationResult",
    "synthesize_stack",
    "demodulate",
    "select_max_row",
    "save_stack",
    "load_stack",
    "write_image_csv",
    "read_image_csv",
]

DEFAULT_PIXEL_PITCH = 6.5e-6  # sCMOS camera pixel size
SATURATION_COUNTS = 65535.0  # 16-bit camera
MANIFEST_SCHEMA = "qiul.stack/1"


@dataclass(frozen=True)
class SceneModel:
    """Per-pixel fringe parameters: background B >= modulation A >= 0
    (counts) and object phase phi0 (radians)."""

    background: np.ndarray
    modulation: np.ndarray
    phase_map: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.background, dtype=float)
        a = np.asarray(self.modulation, dtype=float)
        p = np.asarray(self.phase_map, dtype=float)
        for name, arr in (("background", b), ("modulation", a), ("phase_map", p)):
            if arr.ndim != 2 or not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be a finite 2D array")
        if b.shape != a.shape or b.shape != p.shape:
            raise ValueError("scene arrays must share one shape")
        if np.any(a < 0):
            raise ValueError("modulation must be non-negative")
        if np.any(a > b * (1 + 1e-12)):
            raise ValueError("modulation must not exceed background (visibility <= 1)")
        object.__setattr__(self, "background", b)
        object.__setattr__(self, "modulation", a)
        object.__setattr__(self, "phase_map", p)

    @property
    def shape(self) -> tuple[int, int]:
        return self.background.shape


@dataclass(frozen=True)
class NoiseModel:
    """Shot noise (Poisson with the noiseless frame as mean) and
    additive Gaussian read noise with sigma in counts."""

    read_sigma: float = 0.0
    shot: bool = False

    def __post_init__(self):
        if self.read_sigma < 0:
            raise ValueError("read_sigma must be >= 0")

    @property
    def enabled(self) -> bool:
        return self.shot or self.read_sigma > 0

    def tag(self) -> str:
        parts = []
        if self.shot:
            parts.append("shot")
        if self.read_sigma > 0:
            parts.append("read")
        return "+".join(parts) if parts else "none"


@dataclass(frozen=True)
class InterferogramStack:
    """Phase-stepped frames (counts), shape (n_phases, rows, cols)."""

    frames: np.ndarray
    phases: np.ndarray
    pixel_pitch: float = DEFAULT_PIXEL_PITCH
    noise_meta: dict = field(default_factory=dict)

    def __post_init__(self):
        frames = np.asarray(self.frames, dtype=float)
        phases = np.asarray(self.phases, dtype=float)
        object.__setattr__(self, "frames", frames)
        object.__setattr__(self, "phases", phases)
        if phases.ndim != 1 or phases.size < 3:
            raise TooFewPhases(f"need >= 3 phase steps, got {phases.size}")
        if frames.ndim != 3 or frames.shape[0] != phases.size:
            raise ValueError("frames must have shape (n_phases, rows, cols)")
        wrapped = np.mod(phases, 2.0 * math.pi)
        if np.unique(np.round(wrapped, 12)).size != phases.size:
            raise ValueError("phases must be distinct modulo 2 pi")
        if not self.pixel_pitch > 0:
            raise ValueError("pixel_pitch must be > 0")


@dataclass(frozen=True)
class DemodulationResult:
    """g = 2A (counts), v = A/B clipped to [0, 1] (NaN where the fitted
    background is not positive), phase wrapped to (-pi, pi], and the RMS
    of the sinusoid-fit residual."""

    g_image: np.ndarray
    v_image: np.ndarray
    phase_image: np.ndarray
    residual_rms: float
    b_image: np.ndarray
    n_invalid: int


def synthesize_stack(
    scene: SceneModel,
    phases,
    noise: NoiseModel = NoiseModel(),
    seed: int = 0,
    pixel_pitch: float = DEFAULT_PIXEL_PITCH,
) -> InterferogramStack:
    """Render the cosine fringe model at the given phase steps.

    With noise enabled, each frame gets an independent RNG stream spawned
    from the seed (deterministic and order-independent), and counts are
    clipped to the 16-bit range. Noiseless frames are exact floats."""
    phases = np.asarray(phases, dtype=float)
    if phases.ndim != 1 or phases.size < 3:
        raise TooFewPhases(f"need >= 3 phase steps, got {phases.size}")
    b, a, p0 = scene.background, scene.modulation, scene.phase_map
    frames = b[None, :, :] + a[None, :, :] * np.cos(phases[:, None, None] + p0[None, :, :])
    if noise.enabled:
        streams = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(phases.size)]
        noisy = np.empty_like(frames)
        for k, rng in enumerate(streams):
            frame = frames[k]
            if noise.shot:
                frame = rng.poisson(np.maximum(frame, 0.0)).astype(float)
            if noise.read_sigma > 0:
                frame = frame + rng.normal(0.0, noise.read_sigma, size=frame.shape)
            noisy[k] = frame
        frames = np.clip(noisy, 0.0, SATURATION_COUNTS)
    meta = {"model": noise.tag(), "read_sigma": noise.read_sigma, "shot": noise.shot, "seed": int(seed)}
    return InterferogramStack(frames=frames, phases=phases, pixel_pitch=pixel_pitch, noise_meta=meta)


def demodulate(stack: InterferogramStack) -> DemodulationResult:
    """Per-pixel least-squares sinusoid fit; exact inversion for
    noiseless data. Raises DegeneratePhases if the design matrix is
    numerically rank deficient."""
    phases = stack.phases
    design = np.column_stack([np.ones_like(phases), np.cos(phases), np.sin(phases)])
    if np.linalg.matrix_rank(design, tol=1e-9) < 3 or np.linalg.cond(design) > 1e12:
        raise DegeneratePhases("phase list yields a rank-deficient design matrix")
    pinv = np.linalg.solve(design.T @ design, design.T)  # (3, n_phases)
    coeffs = np.tensordot(pinv, stack.frames, axes=1)  # (3, rows, cols)
    b, c, s = coeffs
    amp = np.hypot(c, s)
    phase = np.arctan2(-s, c)
    phase = np.where(phase <= -math.pi, phase + 2.0 * math.pi, phase)

    invalid = ~(b > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        vis = np.where(invalid, np.nan, np.clip(amp / np.where(invalid, 1.0, b), 0.0, 1.0))

    fitted = np.tensordot(design, coeffs, axes=1)
    residual_rms = float(np.sqrt(np.mean((stack.frames - fitted) ** 2)))
    return DemodulationResult(
        g_image=2.0 * amp,
        v_image=vis,
        phase_image=phase,
        residual_rms=residual_rms,
        b_image=b,
        n_invalid=int(np.count_nonzero(invalid)),
    )


def select_max_row(image: np.ndarray, pixel_pitch: float = DEFAULT_PIXEL_PITCH) -> tuple[int, Profile1D]:
    """Row with the largest integrated intensity (ties toward the
    smaller index), returned with camera x coordinates centered on the
    image."""
    img = np.asarray(image, dtype=float)
    if img.ndim != 2 or img.size == 0:
        raise ValueError("need a nonempty 2D image")
    row = int(np.argmax(np.nansum(img, axis=1)))
    cols = img.shape[1]
    x = (np.arange(cols) - (cols - 1) / 2.0) * pixel_pitch
    return row, Profile1D(grid=x, values=img[row], plane="camera", kind=None)


# -- stack persistence --------------------------------------------------------


def write_image_csv(image: np.ndarray, path) -> None:
    np.savetxt(path, np.asarray(image, dtype=float), delimiter=",", fmt="%.17g")


def read_image_csv(path) -> np.ndarray:
    return np.atleast_2d(np.loadtxt(path, delimiter=","))


def save_stack(stack: InterferogramStack, out_dir) -> Path:
    """Write frames as CSV matrices under frames/ plus a JSON manifest;
    returns the manifest path."""
    out = Path(out_dir)
    (out / "frames").mkdir(parents=True, exist_ok=True)
    names = []
    for k in range(stack.frames.shape[0]):
        name = f"frames/frame_{k:03d}.csv"
        write_image_csv(stack.frames[k], out / name)
        names.append(name)
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "phases_rad": [float(p) for p in stack.phases],
        "pixel_pitch_m": stack.pixel_pitch,
        "noise": stack.noise_meta,
        "shape": list(stack.frames.shape[1:]),
        "frames": names,
    }
    path = out / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def load_stack(manifest_path) -> InterferogramStack:
    """Load a stack from a manifest, validating the schema and naming
    any missing or unreadable frame file; a malformed manifest raises
    SchemaError."""
    manifest_path = Path(manifest_path)
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"manifest {manifest_path} is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict) or manifest.get("schema") != MANIFEST_SCHEMA:
        raise SchemaError(f"{manifest_path}: not a {MANIFEST_SCHEMA} manifest")
    for key in ("phases_rad", "pixel_pitch_m", "noise", "shape", "frames"):
        if key not in manifest:
            raise SchemaError(f"{manifest_path}: missing key {key!r}")
    phases = manifest["phases_rad"]
    names = manifest["frames"]
    if not isinstance(names, list) or len(names) != len(phases):
        raise SchemaError(f"{manifest_path}: frames/phases length mismatch")
    shape = manifest["shape"]
    if not (isinstance(shape, list) and len(shape) == 2
            and all(type(n) is int and n > 0 for n in shape)):
        raise SchemaError(f"{manifest_path}: shape must be a list of two positive integers")
    shape = tuple(shape)
    frames = np.empty((len(names), *shape), dtype=float)
    stack_dir = manifest_path.parent.resolve()
    for k, name in enumerate(names):
        path = manifest_path.parent / name
        if not path.resolve().is_relative_to(stack_dir):
            raise SchemaError(f"{manifest_path}: frame {name!r} lies outside the manifest directory")
        if not path.is_file():
            raise CorruptFrame(path, "file not found")
        try:
            frame = read_image_csv(path)
        except ValueError as exc:
            raise CorruptFrame(path, str(exc)) from exc
        if frame.shape != shape:
            raise CorruptFrame(path, f"shape {frame.shape} != manifest shape {shape}")
        if not np.isfinite(frame).all():
            raise CorruptFrame(path, "non-finite values")
        frames[k] = frame
    try:
        return InterferogramStack(
            frames=frames,
            phases=np.asarray(phases, dtype=float),
            pixel_pitch=float(manifest["pixel_pitch_m"]),
            noise_meta=dict(manifest["noise"]),
        )
    except ValueError as exc:
        raise SchemaError(f"{manifest_path}: {exc}") from exc
