"""Thin-lens defocus camera model.

Defocus by a lens displacement z spreads each scene point over a uniform
disc (pillbox) whose radius grows linearly with |z|. This module builds the
discretized pillbox, convolves scenes with it, derives the 1-D line-spread
and step-edge response, and evaluates the closed-form resolution-vs-z curve.
``capture`` chains the pieces with sensor noise into a virtual camera.

Capture model. The focus metric reads only a window of each frame, so a
capture need only produce that zone, and it produces the same bytes as a
whole-frame capture cropped to it:

- Window plus halo. ``convolve`` of a crop (``Image.crop``) gathers the box
  plus a halo from the scene with clipped indices, which is edge replication
  without padding the frame, and keeps only the box. A whole image is the
  crop whose box is the frame.
- Halo from the FFT shape. Per axis the FFT length L is box plus kernel
  side minus 1, rounded up to a 5-smooth length, and the halo fills it:
  H = (L - n) // 2 >= the kernel half-width h. One circular FFT blurs the
  patch; wrap-around reaches only the halo's outputs, and the box's are
  [H + h, H + h + n).
- Zone-transform memo. Every radius with the same L shares one zone
  spectrum. ``convolve`` keeps the last (shape, spectrum) on the image it
  blurs, in a private field outside ``==`` and ``repr``, so a blur at the
  cached shape costs one kernel transform and one inverse.
- Tie rule. Blurred values are rounded half down, ``floor(v + 0.5 - 1e-9)``,
  not half to even. Exact values are multiples of 1/``counts.sum()``, at
  least ~8e-8 apart even at R = 250 px, and FFT round-off stays below 1e-11,
  so the byte does not depend on the FFT size: a crop rounds exactly like
  the whole frame, exact .5 ties included.
- PSF build. ``make_pillbox_psf`` subsamples only the rim pixels the circle
  crosses; pixels wholly inside or outside get their counts from their
  nearest and farthest subsamples, the same counts a full subsample loop gives.
- Noise prefix. ``add_noise`` draws the frame's row-major noise stream only
  through the crop's last row and keeps the crop's part; numpy's normal
  stream is prefix-stable, so those are the whole frame's draws.
- Caches and parallel captures. ``metric.Camera``, made once per study
  call, owns the blur and metric caches and the thread pool that noises
  and measures noisy captures; its docstring describes them. Only the
  zone-transform memo outlives the call, on the image that was blurred
  (for a whole frame, the caller's scene).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .image import Image, NoiseSpec, add_noise, require_int

__all__ = [
    "OpticalConfig",
    "LensState",
    "PsfKernel",
    "EdgeResponse",
    "BlurRadius",
    "DEFAULT_SUPERSAMPLE",
    "blur_radius",
    "pillbox_size",
    "make_pillbox_psf",
    "convolve",
    "line_spread",
    "edge_response",
    "theoretical_resolution",
    "capture",
]

DEFAULT_SUPERSAMPLE = 8

_KERNEL_SUM_TOL = 1e-9

# Added before flooring a blurred value: rounds to nearest with exact .5 ties
# going down, the same way at every FFT size (see the module docstring).
_ROUND_HALF_DOWN = 0.5 - 1e-9


@dataclass(frozen=True)
class OpticalConfig:
    """Fixed physical parameters of the lens/sensor pair.

    a_mm: distance from lens to the object plane.
    f_mm: focal length.
    g: light-gathering (relative aperture) parameter; an opaque positive
       scalar in the blur-radius formula.
    pixel_pitch_mm: sensor pixel size.
    d_max: ceiling on the per-mm resolution value near perfect focus, set by
       the capture device itself; supplied, not derived.
    """

    a_mm: float
    f_mm: float
    g: float
    pixel_pitch_mm: float
    d_max: float

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if not self.a_mm > self.f_mm > 0:
            raise ValueError(
                f"need a_mm > f_mm > 0, got a_mm={self.a_mm}, f_mm={self.f_mm}"
            )
        if self.g <= 0:
            raise ValueError(f"g must be positive, got {self.g}")
        if self.pixel_pitch_mm <= 0:
            raise ValueError(f"pixel_pitch_mm must be positive, got {self.pixel_pitch_mm}")
        if self.d_max <= 0:
            raise ValueError(f"d_max must be positive, got {self.d_max}")


@dataclass(frozen=True)
class LensState:
    """Signed lens displacement from the perfectly focused position, in mm."""

    z_mm: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.z_mm):
            raise ValueError(f"lens displacement must be finite, got {self.z_mm}")


class BlurRadius(NamedTuple):
    mm: float
    px: float


def blur_radius(cfg: OpticalConfig, lens: LensState) -> BlurRadius:
    """Defocus disc radius for a lens displacement, in mm and in pixels.

    R_mm = (A - F) / (2 A G) * |z|; even in z because displacing the lens to
    either side of focus blurs identically in this thin-lens model.
    """
    r_mm = (cfg.a_mm - cfg.f_mm) / (2.0 * cfg.a_mm * cfg.g) * abs(lens.z_mm)
    return BlurRadius(mm=r_mm, px=r_mm / cfg.pixel_pitch_mm)


@dataclass(frozen=True)
class PsfKernel:
    """Discretized pillbox point-spread function.

    ``weights`` is a read-only (size, size) array of nonnegative pixel-area
    fractions normalized to unit sum; ``radius_px`` is the disc radius it
    discretizes. Kernels are 4-fold rotationally symmetric by construction.
    """

    size: int
    weights: np.ndarray
    radius_px: float

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=np.float64)
        if self.size < 1 or self.size % 2 == 0:
            raise ValueError(f"kernel size must be odd and >= 1, got {self.size}")
        if w.shape != (self.size, self.size):
            raise ValueError(f"weights shape {w.shape} does not match size {self.size}")
        if np.any(w < 0):
            raise ValueError("kernel weights must be nonnegative")
        total = float(w.sum())
        if abs(total - 1.0) > _KERNEL_SUM_TOL:
            raise ValueError(f"kernel weights must sum to 1, got {total!r}")
        if not np.array_equal(w, np.rot90(w)):
            raise ValueError("kernel must be 4-fold rotationally symmetric")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)


def pillbox_size(radius_px: float) -> int:
    """Side of the square kernel ``make_pillbox_psf`` builds for this radius."""
    return 1 if radius_px < 0.5 else 2 * math.ceil(radius_px) + 1


def make_pillbox_psf(radius_px: float, supersample: int = DEFAULT_SUPERSAMPLE) -> PsfKernel:
    """Discretize a uniform disc of the given pixel radius onto a pixel grid.

    Each weight is the fraction of that pixel's area inside the disc,
    estimated with supersample^2 subsamples per pixel, then the kernel is
    renormalized to unit sum. Radii below half a pixel collapse to the 1x1
    identity kernel.
    """
    if not (math.isfinite(radius_px) and radius_px >= 0):
        raise ValueError(f"radius must be finite and >= 0, got {radius_px}")
    supersample = require_int(supersample, "supersample", 1)
    size = pillbox_size(radius_px)
    if size == 1:
        return PsfKernel(size=1, weights=np.array([[1.0]]), radius_px=radius_px)

    half = size // 2
    centers = np.arange(size, dtype=np.float64) - half
    offsets = (np.arange(supersample, dtype=np.float64) + 0.5) / supersample - 0.5
    r_sq = radius_px * radius_px

    # sq[i, k]: squared offset of subsample k along an axis in pixel row or
    # column i. Float addition rounds monotonically, so a pixel whose farthest
    # subsample sum is inside the disc has every subsample inside, and one
    # whose nearest is outside has none; only the rim needs counting.
    sq = (centers[:, None] + offsets) ** 2
    near, far = sq.min(axis=1), sq.max(axis=1)
    far_sq = far[:, None] + far[None, :]
    counts = np.where(far_sq < r_sq, supersample * supersample, 0)
    rim_y, rim_x = np.nonzero((far_sq >= r_sq) & (near[:, None] + near[None, :] < r_sq))
    inside = sq[rim_y][:, :, None] + sq[rim_x][:, None, :] < r_sq
    counts[rim_y, rim_x] = inside.sum(axis=(1, 2))
    weights = counts / float(counts.sum())
    return PsfKernel(size=size, weights=weights, radius_px=radius_px)


def _fast_len(n: int) -> int:
    """Smallest 5-smooth integer >= n, a length the FFT transforms quickly."""
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def _halo_patch(scene: Image, hy: int, hx: int) -> np.ndarray:
    """The box plus hy rows and hx columns of surround on each side, edges replicated."""
    (width, height), (x0, y0) = scene.frame_size, scene.origin
    rows = np.clip(np.arange(y0 - hy, y0 + scene.height + hy), 0, height - 1)
    cols = np.clip(np.arange(x0 - hx, x0 + scene.width + hx), 0, width - 1)
    return scene.surround[np.ix_(rows, cols)].astype(np.float64)


def convolve(scene: Image, psf: PsfKernel) -> Image:
    """Blur a scene with a PSF kernel, replicating edge pixels at the border.

    Accumulates in float, rounds to nearest with exact .5 ties going down,
    clamps to [0, 255]. Constant images map to themselves exactly and the
    1x1 identity kernel is a no-op. A crop cut by ``Image.crop`` blurs to
    the same pixels as the whole frame's blur cropped to its box; a crop
    without its surround can only take the identity kernel. The scene keeps
    its last zone spectrum, so the next blur at the same FFT shape skips
    that transform (see the module docstring).
    """
    width, height = scene.frame_size
    if psf.size > width or psf.size > height:
        raise ValueError(f"{psf.size}x{psf.size} kernel exceeds {width}x{height} image")
    if psf.size == 1:
        return scene
    if scene.surround is None:
        raise ValueError("a crop can only be blurred with its surround: cut it with Image.crop")
    # Circular convolution at a 5-smooth length >= box plus kernel per axis,
    # with a halo H >= h that fills it; the box's outputs are [H + h, H + h + n).
    shape = tuple(_fast_len(n + psf.size - 1) for n in (scene.height, scene.width))
    hy, hx = (shape[0] - scene.height) // 2, (shape[1] - scene.width) // 2
    memo = scene._spectrum  # read once: another thread may replace it
    if memo is None or memo[0] != shape:
        memo = (shape, np.fft.rfft2(_halo_patch(scene, hy, hx), s=shape))
        object.__setattr__(scene, "_spectrum", memo)
    spectrum = memo[1] * np.fft.rfft2(psf.weights, s=shape)
    h = psf.size // 2
    blurred = np.fft.irfft2(spectrum, s=shape)[
        hy + h : hy + h + scene.height, hx + h : hx + h + scene.width
    ]
    pixels = np.clip(np.floor(blurred + _ROUND_HALF_DOWN), 0, 255).astype(np.uint8)
    return Image(pixels, scene.origin, scene.frame_size)


def line_spread(psf: PsfKernel) -> np.ndarray:
    """1-D line-spread profile: each kernel column summed over rows.

    The profile sums to 1 and inherits the kernel's mirror symmetry; its
    center value bounds the slope of any blurred edge.
    """
    return psf.weights.sum(axis=0)


@dataclass(frozen=True)
class EdgeResponse:
    """Normalized luminance profile across an ideal unit step edge.

    ``positions`` are integer pixel offsets relative to the edge and
    ``values`` the corresponding luminance in [0, 1], nondecreasing.
    """

    positions: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        pos = np.asarray(self.positions, dtype=np.int64)
        val = np.asarray(self.values, dtype=np.float64)
        if pos.shape != val.shape or pos.ndim != 1 or pos.size < 2:
            raise ValueError("positions and values must be matching 1-D arrays")
        if np.any(np.diff(val) < 0):
            raise ValueError("edge response must be nondecreasing")
        pos.setflags(write=False)
        val.setflags(write=False)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "values", val)

    def peak_derivative(self) -> tuple[int, float]:
        """(offset, slope) of the steepest discrete rise, ties broken toward 0.

        The derivative at offset k is values[k] - values[k-1].
        """
        rises = np.diff(self.values)
        at = self.positions[1:]
        top = float(rises.max())
        # Exact-symmetry ties can differ by a final ulp after summation.
        tied = np.flatnonzero(rises >= top - 1e-12 * max(1.0, abs(top)))
        best = min(tied, key=lambda i: (abs(int(at[i])), int(at[i])))
        return int(at[best]), float(rises[best])


def edge_response(cfg: OpticalConfig, lens: LensState, half_span_px: int) -> EdgeResponse:
    """Simulated luminance profile across a unit step for this lens state.

    Cumulative sum of the pillbox line-spread applied to a unit step,
    normalized so the profile ends exactly at 1. The span must cover at
    least three blur radii on each side of the edge.
    """
    span = require_int(half_span_px, "half span", 1)
    radius = blur_radius(cfg, lens)
    if span < 3.0 * radius.px:
        raise ValueError(
            f"half span {span}px too small: need >= 3x blur radius ({radius.px:.2f}px)"
        )
    psf = make_pillbox_psf(radius.px)
    profile = line_spread(psf)
    half = psf.size // 2

    full = np.zeros(2 * span + 1, dtype=np.float64)
    full[span - half : span + half + 1] = profile
    values = np.cumsum(full)
    values /= values[-1]
    positions = np.arange(-span, span + 1)
    return EdgeResponse(positions=positions, values=values)


def theoretical_resolution(cfg: OpticalConfig, lens: LensState) -> float:
    """Closed-form detail-content value D(z), clamped to the device ceiling.

    D(z) = min(d_max, 4 A G / (pi (A - F) |z|)); exactly d_max at z = 0.
    """
    if lens.z_mm == 0:
        return cfg.d_max
    unclamped = 4.0 * cfg.a_mm * cfg.g / (math.pi * (cfg.a_mm - cfg.f_mm) * abs(lens.z_mm))
    return min(cfg.d_max, unclamped)


def capture(scene: Image, cfg: OpticalConfig, lens: LensState, noise: NoiseSpec) -> Image:
    """Virtual camera: defocus blur for the lens state, then sensor noise.

    Deterministic given all arguments; z = 0 with sigma = 0 returns the scene
    unchanged. A crop of the scene captures the crop's box of the whole
    frame's capture.
    """
    psf = make_pillbox_psf(blur_radius(cfg, lens).px)
    return add_noise(convolve(scene, psf), noise)
