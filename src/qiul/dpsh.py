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

import contextvars
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import write_json
from .errors import CorruptFrame, DegeneratePhases, NonPositiveParameter, SchemaError, TooFewPhases
from .imaging import Profile1D

__all__ = [
    "SceneModel",
    "NoiseModel",
    "InterferogramStack",
    "DemodulationResult",
    "synthesize_stack",
    "demodulate",
    "pixel_centers",
    "select_max_row",
    "save_stack",
    "load_stack",
]

DEFAULT_PIXEL_PITCH = 6.5e-6  # sCMOS camera pixel size
SATURATION_COUNTS = 65535.0  # 16-bit camera
# largest shot-noise mean drawn as given: below numpy's Poisson limit
# (~9.2e18), and far above saturation, so clipping to it changes no frame
_POISSON_MEAN_MAX = 1e18
# fewest columns of a stack: spread extraction differentiates its max-intensity row
MIN_COLUMNS = 8
MANIFEST_SCHEMA = "qiul.stack/3"


@dataclass(frozen=True)
class SceneModel:
    """Per-pixel fringe parameters: background B >= modulation A >= 0
    (counts) and object phase phi0 (radians), either one value for every
    pixel (a scalar, which spares each frame a cosine per pixel) or a 2D
    array of the scene's shape."""

    background: np.ndarray
    modulation: np.ndarray
    phase_map: np.ndarray | float

    def __post_init__(self):
        b = np.asarray(self.background, dtype=float)
        a = np.asarray(self.modulation, dtype=float)
        p = np.asarray(self.phase_map, dtype=float)
        for name, arr in (("background", b), ("modulation", a)):
            if arr.ndim != 2 or not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be a finite 2D array")
        if b.shape != a.shape:
            raise ValueError("scene arrays must share one shape")
        if p.shape not in ((), b.shape) or not np.all(np.isfinite(p)):
            raise ValueError("phase_map must be a finite scalar or a 2D array of the scene's shape")
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
        if not (math.isfinite(self.read_sigma) and self.read_sigma >= 0):
            raise NonPositiveParameter(
                f"read noise sigma must be finite and >= 0 counts, got {self.read_sigma!r}"
            )

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
        if not self.pixel_pitch >= sys.float_info.min:  # a subnormal pitch repeats grid points
            raise ValueError(f"pixel_pitch must be at least {sys.float_info.min!r}, "
                             f"got {self.pixel_pitch!r}")


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


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the
    platform has one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
    clipped to the 16-bit range. Noiseless frames are exact floats.

    Each frame is rendered and noised in place in the one stack array,
    as one task on a thread pool with one worker per usable CPU (at most
    one per frame), so synthesis holds one stack-sized array plus one
    frame-sized noise draw per worker. numpy's ufuncs and samplers
    release the GIL, and as every frame draws only from its own stream
    the frames are byte-identical to rendering them one after another.
    The tasks run in copies of the caller's context, so its
    `np.errstate` holds in the workers too."""
    # imported here, not at module level, to keep it out of CLI start-up
    from concurrent.futures import ThreadPoolExecutor

    phases = np.asarray(phases, dtype=float)
    if phases.ndim != 1 or phases.size < 3:
        raise TooFewPhases(f"need >= 3 phase steps, got {phases.size}")
    if seed < 0:  # SeedSequence rejects it too, but only once noise is on
        raise NonPositiveParameter(f"seed must be a non-negative integer, got {seed!r}")
    b, a, p0 = scene.background, scene.modulation, scene.phase_map
    frames = np.empty((phases.size, *scene.shape))
    seeds = np.random.SeedSequence(seed).spawn(phases.size) if noise.enabled else None

    def render(k: int) -> None:
        frame = frames[k]  # each task renders and noises its frame in place
        np.multiply(a, np.cos(phases[k] + p0), out=frame)
        frame += b
        if noise.enabled:
            rng = np.random.default_rng(seeds[k])
            if noise.shot:
                frame[...] = rng.poisson(np.clip(frame, 0.0, _POISSON_MEAN_MAX, out=frame))
            if noise.read_sigma > 0:
                frame += rng.normal(0.0, noise.read_sigma, size=frame.shape)
            np.clip(frame, 0.0, SATURATION_COUNTS, out=frame)

    with ThreadPoolExecutor(max_workers=min(phases.size, _usable_cpus())) as pool:
        tasks = [pool.submit(contextvars.copy_context().run, render, k) for k in range(phases.size)]
        for task in tasks:
            task.result()  # re-raises a worker's exception, such as FloatingPointError
    meta = {"model": noise.tag(), "read_sigma": noise.read_sigma, "shot": noise.shot, "seed": int(seed)}
    return InterferogramStack(frames=frames, phases=phases, pixel_pitch=pixel_pitch, noise_meta=meta)


def demodulate(stack: InterferogramStack) -> DemodulationResult:
    """Per-pixel least-squares sinusoid fit; exact inversion for
    noiseless data. Raises DegeneratePhases if the design matrix is
    numerically rank deficient. The stack is left untouched: the fit
    runs on a copy of its frames (see `_demodulate_frames`)."""
    return _demodulate_frames(stack.frames.copy(), stack.phases)


def _demodulate_frames(frames: np.ndarray, phases: np.ndarray) -> DemodulationResult:
    """`demodulate` on frames of shape (n_phases, rows, cols) that the
    caller owns: the fit residual is formed and squared in place in
    `frames`, so the fit holds no second stack-sized array, and only the
    shape of `frames` means anything afterwards.

    One loop walks the pixels in blocks of 65536 // n_phases (at least
    one): each block is fitted, then its fitted frames are subtracted
    from it while it is still in cache, so the stack is read once. No
    matrix product exceeds 3 * 65536 multiply-adds: above 4 * 65536
    OpenBLAS hands a product to its worker threads, which then spin for
    about 0.1 s and take a CPU from the caller's next work, such as the
    synthesis pool. Blocks split only the pixel axis, so every value is
    bitwise equal to one product over the whole stack, and the mean of
    the squared residual is one reduction over the whole array, since
    block-wise partial sums would change its bits."""
    design = np.column_stack([np.ones_like(phases), np.cos(phases), np.sin(phases)])
    sv = np.linalg.svd(design, compute_uv=False)  # descending: rank < 3 or condition > 1e12
    if sv[-1] <= 1e-9 or sv[0] > 1e12 * sv[-1]:
        raise DegeneratePhases("phase list yields a rank-deficient design matrix")
    pinv = np.linalg.solve(design.T @ design, design.T)  # (3, n_phases)
    n_phases, *shape = frames.shape
    block = max(1, 65536 // n_phases)
    flat = frames.reshape(n_phases, -1)  # a view, as both callers' frames are C-ordered
    coeffs = np.empty((3, flat.shape[1]))
    fitted = np.empty((n_phases, min(block, flat.shape[1])))
    for j in range(0, flat.shape[1], block):
        cols = flat[:, j:j + block]
        fit = np.matmul(pinv, cols, out=coeffs[:, j:j + block])
        np.subtract(cols, np.matmul(design, fit, out=fitted[:, :cols.shape[1]]), out=cols)
    residual_rms = float(np.sqrt(np.mean(np.square(flat, out=flat))))
    b, c, s = coeffs.reshape(3, *shape)
    amp = np.hypot(c, s)
    invalid = ~(b > 0)
    phase = np.arctan2(np.negative(s, out=s), c, out=c)  # c is not read again
    np.add(phase, 2.0 * math.pi, out=phase, where=phase <= -math.pi)
    vis = s  # nor is s: the visibility takes its row, not a new image
    vis.fill(np.nan)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(amp, b, out=vis, where=~invalid)
        np.clip(vis, 0.0, 1.0, out=vis)
    return DemodulationResult(
        g_image=np.multiply(amp, 2.0, out=amp),
        v_image=vis,
        phase_image=phase,
        residual_rms=residual_rms,
        b_image=b,
        n_invalid=int(np.count_nonzero(invalid)),
    )


def pixel_centers(n: int, pixel_pitch: float) -> np.ndarray:
    """Coordinates of n pixels of the given pitch along one image axis,
    centered on the image: (k - (n - 1) / 2) * pixel_pitch."""
    return (np.arange(n) - (n - 1) / 2.0) * pixel_pitch


def select_max_row(image: np.ndarray, pixel_pitch: float = DEFAULT_PIXEL_PITCH) -> tuple[int, Profile1D]:
    """Row with the largest integrated intensity (ties toward the
    smaller index), returned with camera x coordinates centered on the
    image."""
    img = np.asarray(image, dtype=float)
    if img.ndim != 2 or img.size == 0:
        raise ValueError("need a nonempty 2D image")
    row = int(np.argmax(np.nansum(img, axis=1)))
    x = pixel_centers(img.shape[1], pixel_pitch)
    return row, Profile1D(grid=x, values=img[row], plane="camera", kind=None)


# -- stack persistence --------------------------------------------------------


def save_stack(stack: InterferogramStack, out_dir) -> Path:
    """Write a `qiul.stack/3` stack: the frames as one `(n_phases, rows,
    cols)` float64 array in `frames.npy` (`np.save`) plus
    `manifest.json`, whose keys are `schema`, `phases_rad`,
    `pixel_pitch_m`, `noise` and `frames` (the path of the frames file
    relative to the manifest). Returns the manifest path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    np.save(out / "frames.npy", stack.frames)
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "phases_rad": [float(p) for p in stack.phases],
        "pixel_pitch_m": stack.pixel_pitch,
        "noise": stack.noise_meta,
        "frames": "frames.npy",
    }
    path = out / "manifest.json"
    write_json(manifest, path)
    return path


def _finite_number(value) -> bool:
    """A JSON number, not a boolean, that is a finite float64; the
    comparison is exact for integers beyond the float range too."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def _read_frames_header(fh, path: Path, n_phases: int) -> tuple[tuple, np.dtype, bool]:
    """Check the header of the open `.npy` file `fh` and return its
    shape, which must be `(n_phases, rows, cols)`, its dtype and its
    Fortran-order flag, leaving `fh` at the first data byte. The file
    must hold every data byte the header claims, so a lying header is an
    error, not an allocation of that size."""
    try:
        version = np.lib.format.read_magic(fh)
    except ValueError as exc:  # an .npz archive, a pickle or anything else
        raise CorruptFrame(path, "not a .npy file") from exc
    # 3.0 differs from 2.0 only in reading the header as UTF-8, which only
    # non-ASCII field names of a structured dtype need: not a real number type
    read_header = {(1, 0): np.lib.format.read_array_header_1_0,
                   (2, 0): np.lib.format.read_array_header_2_0,
                   (3, 0): np.lib.format.read_array_header_2_0}.get(version)
    if read_header is None:
        raise CorruptFrame(path, f".npy format version {version} is not supported")
    try:
        shape, fortran_order, dtype = read_header(fh)
    except Exception as exc:
        # the header is a Python literal parsed with ast and tokenize: a
        # damaged one raises ValueError, TypeError, IndexError, EOFError or
        # tokenize.TokenError, among others
        raise CorruptFrame(path, f"{type(exc).__name__}: {exc}") from exc
    if dtype.kind not in "iuf":
        raise CorruptFrame(path, f"dtype {dtype} is not a real number type")
    if len(shape) != 3 or shape[0] != n_phases or min(shape) < 0:
        raise CorruptFrame(path, f"shape {shape} is not ({n_phases} phases, rows, cols)")
    claimed = math.prod(shape) * dtype.itemsize
    held = os.fstat(fh.fileno()).st_size - fh.tell()
    if held < claimed:
        raise CorruptFrame(path, f"header claims {claimed} data bytes, the file holds {held}")
    return shape, dtype, fortran_order


def load_stack(manifest_path) -> InterferogramStack:
    """Load a `qiul.stack/3` stack (see `save_stack`). A malformed
    manifest, a frames path outside the manifest directory, a stack with
    no rows or fewer than MIN_COLUMNS columns and a `qiul.stack/1` or
    `qiul.stack/2` manifest (one file per phase step, no longer read)
    raise SchemaError; a frames file that is missing, not a `.npy` array
    of a real dtype, not of shape `(len(phases_rad), rows, cols)`,
    shorter than its header claims or non-finite raises CorruptFrame
    naming the file. The file is opened once: its header is checked,
    then its data is read into one array of its dtype and order, so no
    header makes the loader allocate more than the file holds."""
    manifest_path = Path(manifest_path)
    try:  # RecursionError: arrays or objects nested too deep for the parser
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise SchemaError(f"manifest {manifest_path} is not valid UTF-8 JSON: {exc}") from exc
    schema = manifest.get("schema") if isinstance(manifest, dict) else None
    if schema in ("qiul.stack/1", "qiul.stack/2"):
        raise SchemaError(f"{manifest_path}: {schema} stacks (one file per phase step) are no "
                          f"longer read; np.save the frames stacked as one (n_phases, rows, cols) "
                          f"array and name it as frames in a {MANIFEST_SCHEMA} manifest")
    if schema != MANIFEST_SCHEMA:
        raise SchemaError(f"{manifest_path}: not a {MANIFEST_SCHEMA} manifest")
    for key in ("phases_rad", "pixel_pitch_m", "noise", "frames"):
        if key not in manifest:
            raise SchemaError(f"{manifest_path}: missing key {key!r}")
    phases = manifest["phases_rad"]
    if not (isinstance(phases, list) and all(_finite_number(p) for p in phases)):
        raise SchemaError(f"{manifest_path}: phases_rad must be a list of finite numbers")
    if not _finite_number(manifest["pixel_pitch_m"]):
        raise SchemaError(f"{manifest_path}: pixel_pitch_m must be a finite number")
    if not isinstance(manifest["noise"], dict):
        raise SchemaError(f"{manifest_path}: noise must be a JSON object")
    name = manifest["frames"]
    if not isinstance(name, str):
        raise SchemaError(f"{manifest_path}: frames must be a file path")
    path = manifest_path.parent / name
    try:
        inside = path.resolve().is_relative_to(manifest_path.parent.resolve())
    except ValueError:  # an embedded NUL byte
        inside = False
    if not inside:
        raise SchemaError(f"{manifest_path}: frames {name!r} lies outside the manifest directory")
    if not path.is_file():
        raise CorruptFrame(path, "file not found")
    with open(path, "rb") as fh:
        shape, dtype, fortran_order = _read_frames_header(fh, path, len(phases))
        if shape[1] < 1 or shape[2] < MIN_COLUMNS:
            raise SchemaError(f"{manifest_path}: a stack needs at least 1 row and {MIN_COLUMNS} "
                              f"columns, got {shape[1]} x {shape[2]}")
        buf = np.empty(shape[::-1] if fortran_order else shape, dtype)
        if fh.readinto(buf) != buf.nbytes:  # the file shrank since the header check
            raise CorruptFrame(path, "truncated data")
    # no copy when the file holds float64 in C order: the buffer is the frames
    frames = np.ascontiguousarray(buf.T if fortran_order else buf, dtype=float)
    finite = np.isfinite(frames).all(axis=(1, 2))
    if not finite.all():
        raise CorruptFrame(path, f"non-finite values in phase step {int(np.argmin(finite))}")
    try:
        return InterferogramStack(
            frames=frames,
            phases=np.asarray(phases, dtype=float),
            pixel_pitch=float(manifest["pixel_pitch_m"]),
            noise_meta=dict(manifest["noise"]),
        )
    except ValueError as exc:
        raise SchemaError(f"{manifest_path}: {exc}") from exc
