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
- Fit before build. Every capture route calls ``check_kernel_fits`` on a
  blur radius before it builds that pillbox, so a kernel larger than the
  frame is refused before it costs any memory.
- PSF build. ``make_pillbox_psf`` takes ``DEFAULT_SUPERSAMPLE`` (8) subsample
  offsets per axis, exact negatives of each other, so one quadrant holds the
  whole grid's counts. It subsamples only the quadrant's rim pixels; pixels
  wholly inside or outside get the counts of their nearest and farthest
  subsamples, as a full loop does. It normalizes by the mirrored total,
  summed from the quadrant, and mirrors the weights into one array.
- Memory. No stage makes a full-size temporary it does not need: the PSF
  build fills one weight array, and a blur multiplies and inverts within
  the kernel's spectrum and runs the inverse's last pass on the box's rows.
- Noise prefix. A crop gets the whole frame's draws; see ``image.draw_noise``.
- Caches and parallel captures. See ``metric.Camera``; only the
  zone-transform memo outlives a study call.
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
    "check_kernel_fits",
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
       the capture device itself; supplied, not derived. Only
       ``theoretical_resolution`` reads it, and the CLI fixes it at 100.
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
        for name in ("g", "pixel_pitch_mm", "d_max"):
            if (value := getattr(self, name)) <= 0:
                raise ValueError(f"{name} must be positive, got {value}")


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
    either side of focus blurs identically in this thin-lens model. The
    factor is taken as (A - F) / A / (2 G), whose intermediates stay finite
    for every finite A.
    """
    r_mm = (cfg.a_mm - cfg.f_mm) / cfg.a_mm / (2.0 * cfg.g) * abs(lens.z_mm)
    return BlurRadius(mm=r_mm, px=r_mm / cfg.pixel_pitch_mm)


@dataclass(frozen=True)
class PsfKernel:
    """Discretized pillbox point-spread function.

    ``weights`` is a read-only square array of odd side ``size``, holding
    nonnegative pixel-area fractions normalized to unit sum and 4-fold
    rotationally symmetric; the centre pixel is the disc's centre.
    """

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.array(self.weights, dtype=np.float64)
        if w.ndim != 2 or w.shape[0] != w.shape[1] or w.shape[0] % 2 == 0:
            raise ValueError(f"kernel weights must be square with an odd side, got shape {w.shape}")
        if np.any(w < 0):
            raise ValueError("kernel weights must be nonnegative")
        total = float(w.sum())
        if abs(total - 1.0) > _KERNEL_SUM_TOL:
            raise ValueError(f"kernel weights must sum to 1, got {total!r}")
        if not np.array_equal(w, np.rot90(w)):
            raise ValueError("kernel must be 4-fold rotationally symmetric")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def size(self) -> int:
        """Side of the square kernel, in pixels."""
        return self.weights.shape[0]


def pillbox_size(radius_px: float) -> int:
    """Side of the square kernel ``make_pillbox_psf`` builds for this radius."""
    return 1 if radius_px < 0.5 else 2 * math.ceil(radius_px) + 1


def check_kernel_fits(radius_px: float, frame_size: tuple[int, int], reach: str) -> None:
    """A ValueError, before any kernel is built, if this radius's pillbox exceeds the frame.

    ``reach`` opens the message with what reaches the radius, such as ``"z=2.0 mm reaches"``.
    """
    width, height = frame_size
    size = pillbox_size(radius_px) if math.isfinite(radius_px) else math.inf
    if size > width or size > height:
        raise ValueError(f"{reach} a blur radius of {radius_px:.4g}px, whose "
                         f"{size:.4g}x{size:.4g} kernel exceeds the {width}x{height} scene")


def make_pillbox_psf(radius_px: float) -> PsfKernel:
    """Discretize a uniform disc of the given pixel radius onto a pixel grid.

    Each weight is the fraction of that pixel's area inside the disc,
    estimated with ``DEFAULT_SUPERSAMPLE``^2 subsamples per pixel, then the
    kernel is renormalized to unit sum. Radii below half a pixel collapse to
    the 1x1 identity kernel.
    """
    if not (math.isfinite(radius_px) and radius_px >= 0):
        raise ValueError(f"radius must be finite and >= 0, got {radius_px}")
    size = pillbox_size(radius_px)
    if size == 1:
        return PsfKernel(np.array([[1.0]]))

    # Count the quadrant of pixels 0..half from the centre, then mirror it.
    # The subsample offsets are exact negatives of each other, so that is
    # the whole grid's count.
    n = DEFAULT_SUPERSAMPLE
    half = size // 2
    centers = np.arange(half + 1, dtype=np.float64)
    offsets = (np.arange(n, dtype=np.float64) + 0.5) / n - 0.5
    r_sq = radius_px * radius_px

    # sq[i, k]: squared offset of subsample k along an axis in pixel row or
    # column i. Float addition rounds monotonically, so a pixel whose farthest
    # subsample sum is inside the disc has every subsample inside, and one
    # whose nearest is outside has none; only the rim needs counting.
    sq = (centers[:, None] + offsets) ** 2
    near, far = sq.min(axis=1), sq.max(axis=1)
    far_sq = far[:, None] + far[None, :]
    quadrant = np.where(far_sq < r_sq, n * n, 0)
    rim_y, rim_x = np.nonzero((far_sq >= r_sq) & (near[:, None] + near[None, :] < r_sq))
    inside = sq[rim_y][:, :, None] + sq[rim_x][:, None, :] < r_sq
    quadrant[rim_y, rim_x] = inside.sum(axis=(1, 2))
    # The mirrored grid counts row 0 and column 0 of the quadrant once and
    # every other pixel four times; an integer total, so exact.
    total = 4 * quadrant.sum() - 2 * (quadrant[0].sum() + quadrant[:, 0].sum()) + quadrant[0, 0]
    quarter = quadrant / float(total)
    weights = np.empty((size, size))
    weights[half:, half:] = quarter
    weights[half:, :half] = quarter[:, :0:-1]
    weights[:half] = weights[:half:-1]
    return PsfKernel(weights)


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
    return scene.surround.take(rows, axis=0).take(cols, axis=1).astype(np.float64)


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
    # rfft2 pads the kernel's rows only after its row pass. The inverse runs
    # irfft2's column pass in place, then its row pass on the box's rows alone.
    spectrum = np.fft.rfft2(psf.weights, s=shape)
    spectrum *= memo[1]
    np.fft.ifft(spectrum, axis=0, out=spectrum)
    h = psf.size // 2
    rows = spectrum[hy + h : hy + h + scene.height]
    blurred = np.fft.irfft(rows, n=shape[1], axis=1)[:, hx + h : hx + h + scene.width]
    blurred += _ROUND_HALF_DOWN
    np.floor(blurred, out=blurred)
    pixels = np.clip(blurred, 0, 255, out=blurred).astype(np.uint8)
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
    A enters only through (A - F) / A, so no intermediate overflows at a
    finite A.
    """
    if lens.z_mm == 0:
        return cfg.d_max
    unclamped = 4.0 * cfg.g / (math.pi * ((cfg.a_mm - cfg.f_mm) / cfg.a_mm) * abs(lens.z_mm))
    return min(cfg.d_max, unclamped)


def capture(scene: Image, cfg: OpticalConfig, lens: LensState, noise: NoiseSpec) -> Image:
    """Virtual camera: defocus blur for the lens state, then sensor noise.

    Deterministic given all arguments; z = 0 with sigma = 0 returns the scene
    unchanged. A crop of the scene captures the crop's box of the whole
    frame's capture.
    """
    radius = blur_radius(cfg, lens).px
    check_kernel_fits(radius, scene.frame_size, f"z={lens.z_mm} mm reaches")
    return add_noise(convolve(scene, make_pillbox_psf(radius)), noise)
