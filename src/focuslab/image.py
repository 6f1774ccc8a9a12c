"""8-bit grayscale rasters: container type, PGM I/O, synthetic scenes, sensor noise.

Images are immutable after construction and every function in this module is
a pure function of its arguments (all randomness is behind explicit seeds),
so concurrent use needs no locking. Nothing is kept on an image that is
blurred: a zone spectrum is a value of its own (``optics.ZoneSpectrum``),
which a ``metric.Camera`` plans and holds. ``draw_noise`` reads only its
spec and the place and shape of its image, and writes only the field it
returns, so it can run on any thread; the ``metric.Camera`` docstring says
which threads run it.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Image",
    "WindowSpec",
    "NoiseSpec",
    "PgmFormatError",
    "load_pgm",
    "save_pgm",
    "make_step_edge",
    "make_texture",
    "NoiseField",
    "draw_noise",
    "add_noise",
]

# A header token after PNM whitespace (bytes \s: " \t\n\r\x0b\x0c") and '#' comments.
_HEADER_TOKEN = re.compile(rb"(?:\s|#[^\n]*\n?)*(\S*)")


class PgmFormatError(ValueError):
    """A PGM file violates the binary-P5, maxval-255 contract."""


def require_int(value, what: str, minimum: int | None = None) -> int:
    """``value`` as an int no less than ``minimum``; a ValueError naming ``what`` if not."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None
    if minimum is not None and value < minimum:
        raise ValueError(f"{what} must be >= {minimum}, got {value}")
    return value


def refuse_bool(value, what: str) -> None:
    """A ValueError naming ``what`` if ``value`` is a Python or numpy bool, not a number."""
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{what} must be a number, not a bool, got {value!r}")


@dataclass(frozen=True, eq=False)
class Image:
    """Rectangular 8-bit grayscale raster, or a crop of one.

    ``pixels`` is a read-only (height, width) uint8 array, row-major with the
    top row first; x grows rightward, y grows downward. Other real dtypes are
    accepted only when every sample is an integer in [0, 255].

    A crop holds one box of a larger frame: ``origin`` is the frame position
    (x, y) of its top-left pixel and ``frame_size`` the frame's (width,
    height). Window coordinates always refer to the frame. A whole image has
    origin (0, 0) and its own size as frame size. ``surround`` holds the
    whole frame's pixels where they are known, so a blur can read the border
    around a crop: an image's own pixels, the scene's for a crop cut by
    ``crop``, and None for a crop computed from another one.
    """

    pixels: np.ndarray
    origin: tuple[int, int] = (0, 0)
    frame_size: tuple[int, int] | None = None
    surround: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        px = np.asarray(self.pixels)
        if px.ndim != 2 or px.shape[0] < 1 or px.shape[1] < 1:
            raise ValueError(f"image must be a non-empty 2-D raster, got shape {px.shape}")
        if px.dtype != np.uint8:
            if px.dtype.kind not in "iuf":
                raise ValueError(f"samples must be real numbers, got dtype {px.dtype}")
            if not np.all((px >= 0) & (px <= 255) & (px == np.floor(px))):
                raise ValueError("samples must be integers in [0, 255]")
        # astype copies even a uint8 input, so the caller's array cannot change the image.
        px = px.astype(np.uint8)
        px.setflags(write=False)
        object.__setattr__(self, "pixels", px)

        h, w = px.shape
        x0, y0 = (require_int(v, "image origin") for v in self.origin)
        if self.frame_size is None:
            fw, fh = w, h
        else:
            fw, fh = (require_int(v, "image frame_size") for v in self.frame_size)
        if x0 < 0 or y0 < 0 or x0 + w > fw or y0 + h > fh:
            raise ValueError(f"a {w}x{h} crop at ({x0}, {y0}) does not fit a {fw}x{fh} frame")
        object.__setattr__(self, "origin", (x0, y0))
        object.__setattr__(self, "frame_size", (fw, fh))
        object.__setattr__(self, "surround", px if (fw, fh) == (w, h) else None)

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    def crop(self, x0: int, y0: int, x1: int, y1: int) -> Image:
        """The frame box [x0, x1) x [y0, y1) as a crop that keeps the surround.

        Raises ValueError if the surround is unknown or the box has a bound
        that is not an integer, is empty, or leaves the frame.
        """
        if self.surround is None:
            raise ValueError("only an image whose surround is known can be cropped")
        fw, fh = self.frame_size
        box = f"box [{x0}, {x1}) x [{y0}, {y1})"
        x0, y0, x1, y1 = (require_int(v, f"{box} bound") for v in (x0, y0, x1, y1))
        if not (0 <= x0 < x1 <= fw and 0 <= y0 < y1 <= fh):
            raise ValueError(f"{box} is empty or leaves the {fw}x{fh} frame")
        out = Image(self.surround[y0:y1, x0:x1], (x0, y0), self.frame_size)
        object.__setattr__(out, "surround", self.surround)
        return out

    def region(self, window: WindowSpec) -> np.ndarray:
        """Read-only view of the window's n x n pixel block.

        Raises ValueError if the window does not lie entirely inside the image.
        """
        wx, wy = window.origin()
        x0, y0 = wx - self.origin[0], wy - self.origin[1]
        if x0 < 0 or y0 < 0 or x0 + window.n > self.width or y0 + window.n > self.height:
            where = f"{self.width}x{self.height} image"
            if self.frame_size != (self.width, self.height):
                where = f"{where} at {self.origin} in a {self.frame_size[0]}x{self.frame_size[1]} frame"
            raise ValueError(
                f"{window.n}x{window.n} window centered at "
                f"({window.center_x}, {window.center_y}) does not fit a {where}"
            )
        return self.pixels[y0 : y0 + window.n, x0 : x0 + window.n]

    def __eq__(self, other: object) -> bool:
        """Same pixels at the same place in a frame of the same size."""
        if not isinstance(other, Image):
            return NotImplemented
        return (self.origin, self.frame_size) == (other.origin, other.frame_size) and bool(
            np.array_equal(self.pixels, other.pixels)
        )


@dataclass(frozen=True)
class WindowSpec:
    """Square n x n measurement window addressed by its center pixel.

    For even n the nominal center is the pixel just above-left of the
    geometric middle, so the window spans
    [center - (n-1)//2, center + n//2] on each axis for either parity.
    """

    center_x: int
    center_y: int
    n: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "center_x", require_int(self.center_x, "window center_x"))
        object.__setattr__(self, "center_y", require_int(self.center_y, "window center_y"))
        object.__setattr__(self, "n", require_int(self.n, "window n", 2))

    def origin(self) -> tuple[int, int]:
        """Top-left pixel (x0, y0) of the window."""
        half = (self.n - 1) // 2
        return self.center_x - half, self.center_y - half


@dataclass(frozen=True)
class NoiseSpec:
    """Additive zero-mean Gaussian sensor noise, fully determined by ``seed``.

    ``sigma`` is in gray levels; ``sigma == 0`` makes the transform the
    identity regardless of the seed.
    """

    sigma: float
    seed: int = 0

    def __post_init__(self) -> None:
        refuse_bool(self.sigma, "noise sigma")
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError(f"noise sigma must be finite and >= 0, got {self.sigma}")
        object.__setattr__(self, "seed", require_int(self.seed, "noise seed", 0))

    def derived(self, *path: int) -> NoiseSpec:
        """Child spec whose seed is a deterministic function of (seed, *path).

        Sweeps and searches use this to give every (probe, trial) pair its own
        independent, reproducible noise stream.
        """
        seq = np.random.SeedSequence([self.seed, *path])
        return NoiseSpec(self.sigma, int(seq.generate_state(1, np.uint64)[0]))


def load_pgm(path) -> Image:
    """Read a binary (P5) PGM file with maxval 255.

    Raises FileNotFoundError for a missing file and PgmFormatError for
    anything else that breaks the contract, with a distinct message per
    failure mode (wrong variant, malformed header, wrong maxval, truncated
    raster).
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 2:
        raise PgmFormatError("malformed PGM header: file too short")
    magic = data[:2]
    if magic != b"P5":
        if magic in (b"P1", b"P2", b"P3", b"P4", b"P6", b"P7"):
            raise PgmFormatError(
                f"unsupported PGM variant {magic.decode('ascii', 'replace')!r} "
                "(binary P5 required)"
            )
        raise PgmFormatError("malformed PGM header: missing P5 magic number")
    if data[2:3] and not (data[2:3].isspace() or data[2:3] == b"#"):
        raise PgmFormatError("malformed PGM header: no whitespace after P5")

    pos = 2
    fields = []
    for name in ("width", "height", "maxval"):
        match = _HEADER_TOKEN.match(data, pos)
        token, pos = match[1], match.end()
        if not token:
            raise PgmFormatError(f"malformed PGM header: missing {name}")
        if not token.isdigit():
            raise PgmFormatError(f"malformed PGM header: non-numeric {name} {token!r}")
        fields.append(int(token))
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise PgmFormatError(f"malformed PGM header: bad dimensions {width}x{height}")
    if maxval != 255:
        raise PgmFormatError(f"unsupported maxval {maxval} (must be 255)")

    # Exactly one whitespace byte separates the maxval from the raster.
    raster = data[pos + 1 : pos + 1 + width * height]
    if len(raster) < width * height:
        raise PgmFormatError(
            f"truncated pixel data: expected {width * height} bytes, found {len(raster)}"
        )
    return Image(np.frombuffer(raster, dtype=np.uint8).reshape(height, width))


def save_pgm(image: Image, path) -> None:
    """Write ``image`` as binary PGM (P5, maxval 255); round-trips bit-exactly."""
    header = f"P5\n{image.width} {image.height}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(image.pixels.tobytes())


def make_step_edge(width: int, height: int, edge_x: int, low: int, high: int) -> Image:
    """Vertical step scene: columns with x >= edge_x read ``high``, the rest ``low``."""
    width, height = require_int(width, "width", 1), require_int(height, "height", 1)
    edge_x = require_int(edge_x, "edge_x")
    low, high = require_int(low, "low"), require_int(high, "high")
    if not 0 <= edge_x <= width:
        raise ValueError(f"edge_x must lie in [0, {width}], got {edge_x}")
    for name, value in (("low", low), ("high", high)):
        if not 0 <= value <= 255:
            raise ValueError(f"{name} must lie in [0, 255], got {value}")
    row = np.full(width, low, dtype=np.uint8)
    row[edge_x:] = high
    return Image(np.tile(row, (height, 1)))


# Texture recipe: a 1/f-amplitude random-phase field (classic natural-image
# statistics, which is what makes blurred-detail energy fall off like a real
# scene's) plus per-pixel grain for fine detail, contrast-stretched over the
# full 8-bit range. The spectral amplitudes are deterministic and only the
# phases are drawn, so the coarse structure carries the same energy for every
# seed; percentile clipping keeps a handful of outliers from eating contrast.
_TEXTURE_SPECTRAL_EXPONENT = 1.0
_TEXTURE_GRAIN_WEIGHT = 0.8
_TEXTURE_CLIP_PCT = 2.0


def make_texture(width: int, height: int, seed: int) -> Image:
    """Deterministic high-contrast test scene; same arguments, same image.

    The spectrum is Hermitian, so its inverse transform is real and
    ``np.fft.irfft2`` needs only its columns 0..width//2. Rows 0..height//2
    of that half take their drawn phases; row j past height//2 is the
    conjugate of row height - j at column -i mod width, and self-conjugate
    bins are pinned to +-amp. The grain mix and level mapping run in place.
    """
    width, height = require_int(width, "width", 1), require_int(height, "height", 1)
    seed = require_int(seed, "seed", 0)
    # The self-conjugate bins (j, i) = (-j mod height, -i mod width) sit on
    # rows 0 and height/2 and columns 0 and width/2 (the halves when even).
    rows, cols = ([0, n // 2] if n % 2 == 0 else [0] for n in (height, width))
    self_conjugate = np.ix_(rows, cols)
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0.0, 2.0 * np.pi, (height, width))
    signs = np.where(rng.random((height, width))[self_conjugate] < 0.5, -1.0, 1.0)
    grain = rng.standard_normal((height, width))

    freq = np.hypot(np.fft.fftfreq(height)[:, None], np.fft.rfftfreq(width))
    amp = np.zeros_like(freq)
    nonzero = freq > 0
    amp[nonzero] = freq[nonzero] ** -_TEXTURE_SPECTRAL_EXPONENT
    del freq, nonzero  # freed, like phases below, before the spectrum's peak

    top = height // 2 + 1
    half = np.empty(amp.shape, dtype=np.complex128)
    np.multiply(1j, phases[:top, : half.shape[1]], out=half[:top])
    mirrored = -np.arange(half.shape[1]) % width  # column -i mod width
    np.multiply(1j, phases[height - top : 0 : -1, mirrored], out=half[top:])
    del phases
    np.exp(half, out=half)
    half *= amp
    np.conjugate(half[top:], out=half[top:])
    half[self_conjugate] = amp[self_conjugate] * signs
    del amp
    base = np.fft.irfft2(half, s=(height, width))
    del half
    scale = float(base.std())
    if scale > 0:
        base /= scale
    field = grain
    field *= _TEXTURE_GRAIN_WEIGHT
    field += base

    lo, hi = np.percentile(field, [_TEXTURE_CLIP_PCT, 100.0 - _TEXTURE_CLIP_PCT])
    if hi <= lo:
        return Image(np.full((height, width), 128, dtype=np.uint8))
    field -= lo
    field *= 255.0 / (hi - lo)
    np.clip(field, 0.0, 255.0, out=field)
    np.rint(field, out=field)
    return Image(field.astype(np.uint8))


@dataclass(frozen=True, eq=False)
class NoiseField:
    """Sensor noise drawn ahead for one place in a frame, for ``add_noise`` to apply.

    ``values`` holds the sigma-scaled draws of the (height, width) box at
    ``origin`` in a frame ``frame_width`` pixels wide; ``draw_noise`` makes it
    for one image, read-only, and ``add_noise`` refuses it for any other place.
    """

    sigma: float
    origin: tuple[int, int]
    frame_width: int
    values: np.ndarray


# Samples per fill when ``draw_noise`` skips rows above an image: a 512 KiB
# float64 buffer. 8 Ki-sample chunks took 17 fills per autofocus-512 draw and
# ran 5-10% slower, the fills each taking the GIL back; 64 Ki ran level with
# one whole-prefix draw.
_SKIP_CHUNK = 2**16


def draw_noise(noise: NoiseSpec, image: Image) -> NoiseField:
    """The sigma-scaled draws ``add_noise`` adds to ``image`` at its place in its frame.

    The frame's draws come in row-major order, and only those through the
    image's last row are made. numpy's float64 normal stream is prefix-stable
    and carries nothing between calls, so of the y0 * W draws of the rows
    above the image, the whole ``_SKIP_CHUNK``-sample chunks are made into one
    reused buffer, and the rest are made with the image's own rows and
    dropped: a crop receives exactly the draws its pixels receive in the
    whole frame, and no draw holds more than a chunk plus the image's rows.
    Scaling standard normal draws by sigma gives the bytes of
    ``rng.normal(0, sigma)``, which numpy computes that way; only the crop's
    draws are scaled. A sigma so large that a draw overflows scales it to
    +-inf, which ``add_noise`` clamps like any other out-of-range value.
    """
    (x0, y0), frame_width = image.origin, image.frame_size[0]
    rng = np.random.default_rng(noise.seed)
    chunks, rest = divmod(y0 * frame_width, _SKIP_CHUNK)
    _skip_chunks(rng, chunks)
    draws = rng.standard_normal(rest + image.height * frame_width)[rest:]
    draws = draws.reshape(image.height, frame_width)
    with np.errstate(over="ignore"):
        values = draws[:, x0 : x0 + image.width] * noise.sigma
    values.setflags(write=False)
    return NoiseField(noise.sigma, (x0, y0), frame_width, values)


def _skip_chunks(rng: np.random.Generator, chunks: int) -> None:
    """Advance ``rng`` past ``chunks`` whole chunks of normal draws, made into one buffer.

    The buffer is freed on return, before ``draw_noise`` draws the image's rows.
    """
    if chunks:
        buffer = np.empty(_SKIP_CHUNK)
        for _ in range(chunks):
            rng.standard_normal(out=buffer)


def add_noise(image: Image, noise: NoiseSpec | NoiseField) -> Image:
    """Perturb every sample by an independent Gaussian draw, round, clamp.

    ``noise`` is a spec, drawn now, or a ``NoiseField`` drawn ahead for the
    image's own place in its frame; either way the output is fully
    determined by (image, sigma, seed), and equals the whole frame's noisy
    capture cropped to the image (see ``draw_noise``). ``sigma == 0``
    returns the input image unchanged.
    """
    if noise.sigma == 0:
        return image
    frame_width = image.frame_size[0]
    if isinstance(noise, NoiseSpec):
        noise = draw_noise(noise, image)
    elif (noise.origin, noise.frame_width, noise.values.shape) != (
        image.origin, frame_width, image.pixels.shape
    ):
        raise ValueError(
            f"noise drawn for a {noise.values.shape[1]}x{noise.values.shape[0]} box at "
            f"{noise.origin} of a {noise.frame_width} px wide frame does not fit a "
            f"{image.width}x{image.height} image at {image.origin} of a {frame_width} px one"
        )
    noisy = image.pixels + noise.values
    return Image(np.clip(np.rint(noisy), 0, 255).astype(np.uint8), image.origin, image.frame_size)
