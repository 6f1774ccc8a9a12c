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
- Halo from the FFT shape. Per axis the FFT length L is at least box plus
  kernel side minus 1, rounded up to a 5-smooth length; ``_fft_shape``
  gives that minimum, the kernel's own shape. The halo fills L:
  H = (L - n) // 2 >= the kernel half-width h. One circular FFT blurs the
  patch with the kernel centred on index 0; wrap-around reaches only the
  halo's outputs, and the box's are [H, H + n).
- Kernel spectrum. A pillbox is mirror-symmetric on each axis, so the
  spectrum of the centred kernel is real and even: ``_kernel_spectrum``
  builds its rows 0..L_y // 2 as C_Ly @ Q @ C_Lxᵀ, where Q is the kernel's
  (h + 1)² quadrant and C_L holds 2 cos(2 pi k y / L) for frequencies
  k <= L // 2 and offsets y <= h (1 at y = 0, the centre), and ``convolve``
  reads the rows past L_y // 2 as the mirror of rows 1..(L_y - 1) // 2.
  The bases C_L are built once per zone transform, over the offsets up to
  the smaller halo, and every kernel that runs at that shape (h <= halo)
  reads their first h + 1 columns.
  Each axis's sums run over the h + 1 offsets, where a zero-padded FFT pass
  would run over all L (Markel, "FFT pruning", 1971). On a 2-vCPU Xeon
  host with numpy 2.4 and one BLAS thread, a spectrum at 270² to 320² with
  h <= 32 took 53-162 us against 386-481 us for two ``rfft`` passes. The
  products grow as h³ and the passes as h² log h, so from about h = 170
  (432²) the products cost more: 3.4 ms against 2.8 ms at h = 246 (540²).
- One BLAS thread. The capture lanes are the parallelism, and OpenBLAS's own
  threads spin after a product and take CPU from them, so ``_product`` cuts
  each product into tiles small enough that OpenBLAS runs them on the
  calling thread, whatever thread count the process set.
- Planned zone spectra. A zone transform belongs to a ``ZoneSpectrum``, a
  scene and an FFT shape whose spectrum and cosine bases are made by
  ``_zone_spectrum`` on its first use and never written after. ``convolve``
  given one runs at its shape, with its halo, which must hold the kernel,
  and costs one kernel spectrum and one inverse there; given an image, it
  blurs through a fresh spectrum at the kernel's own shape and keeps
  nothing. ``_plan`` is the one reuse rule: over a call's radii, largest
  first and from no spectrum, it hands each radius the current spectrum
  while that one's shape is at least the kernel's own on both axes and
  under twice its area (``_REUSE_AREA``), and a new spectrum at the
  kernel's own shape otherwise, from their kernels' sides alone. So a call serves every
  radius down to half its largest shape's area from one zone transform,
  and each spectrum ``metric.Camera`` plans is transformed once and ends
  with the call.
- Tie rule. Blurred values are rounded half down, ``floor(v + 0.5 - 1e-9)``,
  not half to even. Exact values are multiples of 1/``counts.sum()``, at
  least ~8e-8 apart even at R = 250 px, and FFT round-off stays below 1e-11,
  so the byte does not depend on the FFT size: a crop rounds exactly like
  the whole frame, exact .5 ties included. The offset rides in the product
  spectrum's DC bin, so the inverse comes out offset. No clamp is needed:
  an exact value is a convex combination of samples in [0, 255], so an
  offset value lies in (0.49, 255.5), where the uint8 cast is the floor.
- Fit before build. Every capture route calls ``check_kernel_fits`` on a
  blur radius before it builds that pillbox, so a kernel larger than the
  frame is refused before it costs any memory. ``convolve`` refuses a kernel
  it is handed by the same rule, so every route words the refusal alike.
- PSF build. A ``PsfKernel`` is built from its radius alone, so every kernel
  is a valid pillbox and none is re-checked. It takes ``DEFAULT_SUPERSAMPLE``
  (8) subsample offsets per axis, exact negatives of each other, so one
  quadrant holds the whole grid's counts. It subsamples only the quadrant's
  rim pixels; pixels wholly inside or outside get the counts of their nearest
  and farthest subsamples, as a full loop does. It normalizes by the mirrored
  total, summed from the quadrant, and keeps only the normalized quadrant,
  which is all the blur reads; ``PsfKernel.weights`` mirrors it into the
  whole kernel for the line spread and the edge response.
- Memory. No stage makes a full-size temporary it does not need: the PSF
  build fills one (h + 1)² quadrant, about a quarter of the kernel (a
  1.6 MiB traced peak at R = 247); a capture's noise draws the whole
  64 Ki-sample chunks of the frame's rows above its zone into one reused
  buffer (see ``image.draw_noise``); a zone transform runs both passes
  within its own spectrum, and a camera keeps no spectrum past the call
  that planned it; and a blur multiplies the zone's spectrum by the
  kernel's real half spectrum into one new array, its mirrored rows
  included, inverts within that array and runs the inverse's last pass on
  the box's rows, which it casts to bytes directly.
- Noise prefix. A crop gets the whole frame's draws; see ``image.draw_noise``.
- Caches, noise draws and blur lanes. See ``metric.Camera``.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field, fields
from typing import Iterable, NamedTuple

import numpy as np

from .image import Image, NoiseSpec, add_noise, refuse_bool, require_int

__all__ = [
    "OpticalConfig",
    "LensState",
    "PsfKernel",
    "EdgeResponse",
    "BlurRadius",
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

# Added to every blurred value, through the product spectrum's DC bin,
# before the uint8 cast, whose truncation of a value in (0.49, 255.5) is the
# floor: rounds to nearest with exact .5 ties going down, the same way at
# every FFT size, and needs no clamp (see the module docstring).
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
            refuse_bool(value := getattr(self, f.name), f.name)
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if not self.a_mm > self.f_mm > 0:
            raise ValueError(
                f"need a_mm > f_mm > 0, got a_mm={self.a_mm}, f_mm={self.f_mm}"
            )
        for name in ("g", "pixel_pitch_mm", "d_max"):
            if (value := getattr(self, name)) <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if not math.isfinite(px_per_mm := blur_radius(self, LensState(1.0)).px):
            raise ValueError(f"the blur radius per mm of z must be finite, got {px_per_mm} px")


@dataclass(frozen=True)
class LensState:
    """Signed lens displacement from the perfectly focused position, in mm."""

    z_mm: float

    def __post_init__(self) -> None:
        refuse_bool(self.z_mm, "z_mm")
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
    """Discretized pillbox point-spread function of a blur radius in pixels.

    The kernel is a square of odd side ``size``: each pixel's fraction of
    the disc's area, estimated with ``DEFAULT_SUPERSAMPLE``^2 subsamples per
    pixel and normalized to unit sum, so it is nonnegative and 4-fold
    rotationally symmetric by construction; the centre pixel is the disc's
    centre. The kernel keeps only ``quarter``, the read-only (h + 1)²
    quadrant of offsets 0..h from the centre, h = size // 2, which is all a
    blur reads; ``weights`` mirrors it into the whole square on each access.
    Radii below half a pixel collapse to the 1x1 identity kernel. Kernels
    compare and print by radius.
    """

    radius_px: float
    quarter: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.radius_px) and self.radius_px >= 0):
            raise ValueError(f"radius must be finite and >= 0, got {self.radius_px}")
        quarter = _pillbox_weights(self.radius_px)
        quarter.setflags(write=False)
        object.__setattr__(self, "quarter", quarter)

    @property
    def size(self) -> int:
        """Side of the square kernel, in pixels."""
        return 2 * self.quarter.shape[0] - 1

    @property
    def weights(self) -> np.ndarray:
        """The whole read-only size x size kernel, ``quarter`` mirrored on both axes."""
        quarter, half = self.quarter, self.quarter.shape[0] - 1
        weights = np.empty((self.size, self.size))
        weights[half:, half:] = quarter
        weights[half:, :half] = quarter[:, :0:-1]
        weights[:half] = weights[:half:-1]
        weights.setflags(write=False)
        return weights


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


def _pillbox_weights(radius_px: float) -> np.ndarray:
    """``PsfKernel.quarter`` for a finite, nonnegative radius."""
    size = pillbox_size(radius_px)
    if size == 1:
        return np.array([[1.0]])

    # Count the quadrant of pixels 0..half from the centre. The subsample
    # offsets are exact negatives of each other, so its mirror is the whole
    # grid's count.
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
    return quadrant / float(total)


def make_pillbox_psf(radius_px: float) -> PsfKernel:
    """``PsfKernel(radius_px)``: the name every capture builds its kernels through."""
    return PsfKernel(radius_px)


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


def _fft_shape(height: int, width: int, kernel_size: int) -> tuple[int, int]:
    """The (rows, columns) ``convolve`` transforms a height x width box at, for this kernel side."""
    return _fast_len(height + kernel_size - 1), _fast_len(width + kernel_size - 1)


# A blur runs at the zone spectrum's larger FFT shape only while that
# shape's area is under this many times its own. A 2-D real FFT round trip
# costs about the same per point for L from 256 to 640 (10-13 ns, and 19-30
# ns in a slow phase, on a 2-vCPU Xeon host with numpy 2.4), and a zone
# transform costs about one blur at its shape. So the larger shape pays
# while its extra area is under the transform it saves.
_REUSE_AREA = 2


def _plan(scene: Image, radii: Iterable[float]) -> list[ZoneSpectrum | None]:
    """The zone spectrum each radius's blur of ``scene`` runs through, blurred in order.

    The plan starts from no spectrum. A blur runs through the current
    spectrum when its shape is at least the blur's own FFT shape on both
    axes and under ``_REUSE_AREA`` times its area, and otherwise through a
    new spectrum at its own shape, which becomes the current one: a zone
    transform, made on the spectrum's first use. So a run of radii at one
    shape shares one spectrum. The identity kernel runs through none. Each
    kernel's side comes from ``pillbox_size``, so no kernel is built and
    nothing is transformed.
    """
    plan, spectrum = [], None
    for radius in radii:
        if (size := pillbox_size(radius)) == 1:
            plan.append(None)
            continue
        oy, ox = _fft_shape(scene.height, scene.width, size)
        my, mx = spectrum.shape if spectrum else (0, 0)
        if not (my >= oy and mx >= ox and my * mx < _REUSE_AREA * oy * ox):
            spectrum = ZoneSpectrum(scene, (oy, ox))
        plan.append(spectrum)
    return plan


def _halo_patch(scene: Image, hy: int, hx: int) -> np.ndarray:
    """The box plus hy rows and hx columns of surround on each side, edges replicated."""
    (width, height), (x0, y0) = scene.frame_size, scene.origin
    rows = np.clip(np.arange(y0 - hy, y0 + scene.height + hy), 0, height - 1)
    cols = np.clip(np.arange(x0 - hx, x0 + scene.width + hx), 0, width - 1)
    return scene.surround.take(rows, axis=0).take(cols, axis=1).astype(np.float64)


# OpenBLAS runs a matrix product whose m * n * k is at most 65536 x its
# GEMM_MULTITHREAD_THRESHOLD (4) on the calling thread. Above that it may
# wake its own threads, which spin after the product and take CPU from the
# capture lanes, whatever thread count the process set. A one-row tile runs
# as a matrix-vector product, which OpenBLAS 0.3.31 kept on the calling
# thread up to m * n = 435,600 when measured, above this bound.
_ONE_THREAD_MNK = 2**18


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b``, in tiles of a's rows and b's columns whose m * n * k is at most ``_ONE_THREAD_MNK``.

    So each product runs on the calling thread, for any inner dimension up
    to ``_ONE_THREAD_MNK``.
    """
    (m, k), n = a.shape, b.shape[1]
    cols = min(n, max(1, math.isqrt(_ONE_THREAD_MNK // k)))
    rows = max(1, _ONE_THREAD_MNK // (k * cols))
    out = np.empty((m, n))
    for i in range(0, m, rows):
        for j in range(0, n, cols):
            np.matmul(a[i : i + rows], b[:, j : j + cols], out=out[i : i + rows, j : j + cols])
    return out


def _cosines(n: int, h: int) -> np.ndarray:
    """The (n // 2 + 1) x (h + 1) matrix of 2 cos(2 pi k y / n) over k and y, its y = 0 column 1.

    Each entry is read from one length-n table at (k y) mod n.
    """
    table = 2 * np.cos(2 * np.pi / n * np.arange(n))
    matrix = table[np.multiply.outer(np.arange(n // 2 + 1), np.arange(h + 1)) % n]
    matrix[:, 0] = 1
    return matrix


def _bases(shape: tuple[int, int], halo: int) -> tuple[np.ndarray, np.ndarray]:
    """(C_Ly, C_Lx): the ``_cosines`` of FFT shape (L_y, L_x) over offsets 0..halo.

    One array serves both when L_y = L_x. Every kernel that runs at this
    shape has h <= halo, so its spectrum reads the bases' first h + 1 columns.
    """
    rows = _cosines(shape[0], halo)
    return rows, rows if shape[1] == shape[0] else _cosines(shape[1], halo)


def _kernel_spectrum(quarter: np.ndarray, bases: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Rows 0..L_y // 2 of the centred kernel's real spectrum at the FFT shape of ``_bases``.

    The kernel is mirror-symmetric on each axis, so centred on index 0 its
    spectrum is a sum of cosines over its quadrant Q, the (h + 1)² ``quarter``
    of offsets 0..h: with C_L the ``_cosines`` of length L, which count each
    offset on both sides and the centre once, it is C_Ly @ Q @ C_Lxᵀ, a real
    (L_y // 2 + 1) x (L_x // 2 + 1) array. The products sum over the h + 1
    offsets, where a zero-padded transform would sum over all L.
    """
    h = quarter.shape[0] - 1
    rows, cols = (basis[:, : h + 1] for basis in bases)
    return _product(_product(rows, quarter), cols.T)


class ZoneSpectrum:
    """A scene's zone spectrum at one FFT shape, which ``convolve`` takes in place of the scene.

    ``transform()`` returns (values, bases): ``values`` is the read-only
    (L_y, L_x // 2 + 1) spectrum of the scene's box plus a halo of
    (L - n) // 2 per axis, and ``bases`` the cosine bases of ``_bases`` over
    the smaller halo. Its first call makes the zone transform, under the
    spectrum's own lock, and every later call, on any thread, shares that
    result, which ``convolve`` only reads. So any number of threads may blur
    through one spectrum at once. ``pixels`` are the scene's, so what reads
    a blur's input as an image, such as perfbench's tracer, reads its scene.
    """

    def __init__(self, scene: Image, shape: tuple[int, int]):
        self.scene, self.shape = scene, shape
        self._lock = threading.Lock()
        self._transform: tuple[np.ndarray, tuple[np.ndarray, np.ndarray]] | None = None

    @property
    def pixels(self) -> np.ndarray:
        return self.scene.pixels

    def transform(self) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
        with self._lock:
            if self._transform is None:
                self._transform = _zone_spectrum(self.scene, self.shape)
            return self._transform


def _halos(scene: Image, shape: tuple[int, int]) -> tuple[int, int]:
    """The (rows, columns) halo that fills FFT ``shape`` around the scene's box."""
    return (shape[0] - scene.height) // 2, (shape[1] - scene.width) // 2


def _zone_spectrum(
    scene: Image, shape: tuple[int, int],
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Transform the scene's box plus the halo that fills FFT ``shape``: one zone transform.

    Returns ``ZoneSpectrum.transform``'s (values, bases). The patch's row
    pass fills the zero-padded spectrum, and its column pass runs there in
    place.
    """
    hy, hx = _halos(scene, shape)
    values = np.zeros((shape[0], shape[1] // 2 + 1), dtype=np.complex128)
    patch_rows = values[: scene.height + 2 * hy]
    np.fft.rfft(_halo_patch(scene, hy, hx), n=shape[1], axis=1, out=patch_rows)
    np.fft.fft(values, axis=0, out=values)
    values.setflags(write=False)
    return values, _bases(shape, min(hy, hx))


def convolve(scene: Image | ZoneSpectrum, psf: PsfKernel) -> Image:
    """Blur a scene with a PSF kernel, replicating edge pixels at the border.

    Accumulates in float and rounds to nearest with exact .5 ties going
    down. No clamp is needed: each value is a weighted mean of samples in
    [0, 255], and FFT round-off is far below the rounding offset's margin
    (see the module docstring). Constant images map to themselves exactly
    and the 1x1 identity kernel is a no-op. A crop cut by ``Image.crop`` blurs to
    the same pixels as the whole frame's blur cropped to its box; a crop
    without its surround can only take the identity kernel. A
    ``ZoneSpectrum`` of an image blurs that image at the spectrum's shape,
    skipping the zone transform once the spectrum has made it; a spectrum
    whose halo is narrower than the kernel's half-width on either axis is
    refused with a ValueError. An image blurs through a fresh spectrum at
    the kernel's own FFT shape, and nothing is kept. The kernel's spectrum
    is two cosine products over its quadrant, each on the calling thread,
    with the zone transform's cosine bases (see the module docstring).
    """
    spectrum = scene if isinstance(scene, ZoneSpectrum) else None
    scene = spectrum.scene if spectrum else scene
    check_kernel_fits(psf.radius_px, scene.frame_size, "the PSF has")
    if psf.size == 1:
        return scene
    if scene.surround is None:
        raise ValueError("a crop can only be blurred with its surround: cut it with Image.crop")
    # Circular convolution at a 5-smooth length >= box plus kernel per axis,
    # the kernel's own or the spectrum's, with a halo H >= h that fills it.
    # The kernel is centred on index 0, so the box's outputs are [H, H + n).
    spectrum = spectrum or ZoneSpectrum(scene, _fft_shape(scene.height, scene.width, psf.size))
    shape = spectrum.shape
    hy, hx = _halos(scene, shape)
    if min(hy, hx) < psf.size // 2:
        raise ValueError(f"a zone spectrum at FFT shape {shape[0]}x{shape[1]} has a {hy}x{hx} "
                         f"halo, too narrow for a {psf.size}x{psf.size} kernel")
    zone, bases = spectrum.transform()
    # The kernel's spectrum is real and even in the row frequency: its rows
    # past L_y // 2 mirror rows 1..(L_y - 1) // 2, so two slice multiplies
    # fill the product from the half. Building the half with FFT passes in
    # the product's own first rows, or freeing it before the inverse, took
    # 490-980 and 1,850-2,700 minor page faults per sweep-256 op where this
    # layout took 400-440. Over 20 fresh sweep-256 processes at
    # seed 11 with OPENBLAS_NUM_THREADS=1 on a 2-vCPU host (40 ops each after
    # 3 warm-ups), an op now takes 405-494 faults in 14 and 802-935 in 6.
    half = _kernel_spectrum(psf.quarter, bases)
    mid = half.shape[0]
    product = np.empty_like(zone)
    np.multiply(zone[:mid], half, out=product[:mid])
    np.multiply(zone[mid:], half[shape[0] - mid : 0 : -1], out=product[mid:])
    # Adding c L_y L_x to the DC bin adds c to every inverse value, so the
    # inverse comes out already offset for the rounding.
    product[0, 0] += _ROUND_HALF_DOWN * shape[0] * shape[1]
    # The inverse runs irfft2's column pass in place, then its row pass on the box's rows alone.
    np.fft.ifft(product, axis=0, out=product)
    rows = product[hy : hy + scene.height]
    blurred = np.fft.irfft(rows, n=shape[1], axis=1)[:, hx : hx + scene.width]
    return Image(blurred.astype(np.uint8), scene.origin, scene.frame_size)


def line_spread(psf: PsfKernel) -> np.ndarray:
    """1-D line-spread profile: each kernel column summed over rows.

    The profile sums to 1 and inherits the kernel's mirror symmetry; its
    center value bounds the slope of any blurred edge.
    """
    return psf.weights.sum(axis=0)


@dataclass(frozen=True)
class EdgeResponse:
    """Normalized luminance profile across an ideal unit step edge blurred by ``psf``.

    ``positions`` are the integer pixel offsets -half_span_px..half_span_px
    relative to the edge, and ``values`` the cumulative line spread of the
    kernel at each, normalized to end exactly at 1: luminance in [0, 1],
    nondecreasing by construction. Both are read-only. The span must be an
    integer covering at least three blur radii on each side of the edge.
    """

    psf: PsfKernel
    half_span_px: int
    positions: np.ndarray = field(init=False, repr=False, compare=False)
    values: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        span = _edge_half_span(self.half_span_px, self.psf.radius_px)
        values = np.cumsum(np.pad(line_spread(self.psf), span - self.psf.size // 2))
        values /= values[-1]
        positions = np.arange(-span, span + 1)
        positions.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "half_span_px", span)
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "values", values)

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


def _edge_half_span(half_span_px: int, radius_px: float) -> int:
    """``half_span_px`` as an int, if it is one and covers three blur radii."""
    span = require_int(half_span_px, "half span", 1)
    if span < 3.0 * radius_px:
        raise ValueError(
            f"half span {span}px too small: need >= 3x blur radius ({radius_px:.2f}px)"
        )
    return span


def edge_response(cfg: OpticalConfig, lens: LensState, half_span_px: int) -> EdgeResponse:
    """The ``EdgeResponse`` of this lens state's pillbox over the given half span.

    A span too short for the blur radius is refused before its kernel is built.
    """
    radius = blur_radius(cfg, lens).px
    _edge_half_span(half_span_px, radius)
    return EdgeResponse(make_pillbox_psf(radius), half_span_px)


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
