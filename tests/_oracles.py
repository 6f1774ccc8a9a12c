"""Independent brute-force reference implementations used only by tests.

These stay deliberately naive (plain Python loops, no shared code with the
package) so they can serve as oracles for the vectorized implementations.
``naive_probe`` is the exception: it composes the package's whole-frame
layers, each checked against its own oracle, into the serial reference for
the camera's window-local, pooled captures.
"""

from __future__ import annotations

import math

import numpy as np

from focuslab import LensState, capture, resolution


def naive_resolution(window_samples, squared: bool) -> int:
    """Double-loop diagonal-difference metric over an n x n sample grid."""
    e = [[int(v) for v in row] for row in window_samples]
    n = len(e)
    total = 0
    for i in range(n - 1):
        for j in range(n - 1):
            a = e[i][j] - e[i + 1][j + 1]
            b = e[i + 1][j] - e[i][j + 1]
            if squared:
                total += a * a + b * b
            else:
                total += abs(a) + abs(b)
    return total


def naive_pillbox_counts(radius_px: float, supersample: int) -> np.ndarray:
    """Integer subsample counts of a pillbox, one pass per subsample offset pair.

    Counts, for every pixel of the (2R+1)^2 grid (1x1 below half a pixel),
    how many of its supersample^2 subsample centers lie strictly inside
    the disc of the given radius.
    """
    if radius_px < 0.5:
        return np.ones((1, 1), dtype=np.int64)
    half = int(np.ceil(radius_px))
    centers = np.arange(2 * half + 1, dtype=np.float64) - half
    offsets = (np.arange(supersample, dtype=np.float64) + 0.5) / supersample - 0.5
    r_sq = radius_px * radius_px
    counts = np.zeros((centers.size, centers.size), dtype=np.int64)
    for dy in offsets:
        y_sq = (centers + dy) ** 2
        for dx in offsets:
            x_sq = (centers + dx) ** 2
            counts += y_sq[:, None] + x_sq[None, :] < r_sq
    return counts


def naive_texture(width: int, height: int, seed: int) -> np.ndarray:
    """``make_texture``'s pixels from the same draws, one spectrum bin at a time.

    The draws are, in order: a phase per pixel, a sign coin per pixel and a
    grain sample per pixel. Bin (j, i) has amplitude 1/f, 0 at f = 0. It is
    real and +-amp if it is its own mirror (-j mod height, -i mod width),
    amp * exp(i phase) if it comes before its mirror in row-major order, and
    the mirror's conjugate otherwise, so the spectrum is Hermitian. The real
    part of its inverse, scaled to unit std, plus 0.8 grain, is stretched
    from its 2nd to its 98th percentile over 0..255 and rounded.
    """
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0.0, 2.0 * np.pi, (height, width))
    coins = rng.random((height, width))
    grain = rng.standard_normal((height, width))
    fy, fx = np.fft.fftfreq(height), np.fft.fftfreq(width)
    spectrum = np.zeros((height, width), dtype=np.complex128)
    for j in range(height):
        for i in range(width):
            freq = np.hypot(fy[j], fx[i])
            amp = 1.0 / freq if freq > 0 else 0.0
            mirror = (-j % height, -i % width)
            if mirror == (j, i):
                spectrum[j, i] = -amp if coins[j, i] < 0.5 else amp
            elif (j, i) < mirror:
                spectrum[j, i] = np.exp(1j * phases[j, i]) * amp
            else:
                spectrum[j, i] = np.conj(spectrum[mirror])
    base = np.fft.ifft2(spectrum).real
    scale = float(base.std())
    if scale > 0:
        base = base / scale
    field = grain * 0.8 + base
    lo, hi = np.percentile(field, [2.0, 98.0])
    if hi <= lo:
        return np.full((height, width), 128, dtype=np.uint8)
    return np.clip(np.rint((field - lo) * (255.0 / (hi - lo))), 0, 255).astype(np.uint8)


def naive_add_noise(pixels: np.ndarray, sigma: float, seed: int) -> np.ndarray:
    """Whole-frame sensor noise: add, round and clamp ``normal(0, sigma)`` draws.

    One draw per pixel in row-major order from ``default_rng(seed)``.
    """
    draws = np.random.default_rng(seed).normal(0.0, sigma, pixels.shape)
    return np.clip(np.rint(pixels + draws), 0, 255).astype(np.uint8)


def naive_convolve(pixels: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Direct spatial convolution with clamp-to-edge borders, float math.

    Returns the unrounded float image; the caller applies the same
    round-and-clamp step as the implementation under test.
    """
    h, w = pixels.shape
    k = weights.shape[0]
    half = k // 2
    out = np.zeros((h, w), dtype=np.float64)
    for y in range(h):
        for x in range(w):
            acc = 0.0
            for ky in range(k):
                for kx in range(k):
                    # True convolution: the kernel is flipped.
                    sy = min(max(y + half - ky, 0), h - 1)
                    sx = min(max(x + half - kx, 0), w - 1)
                    acc += weights[ky, kx] * float(pixels[sy, sx])
            out[y, x] = acc
    return out


def exact_blur(pixels: np.ndarray, counts: np.ndarray, box) -> np.ndarray:
    """Pillbox blur of the (x0, y0, x1, y1) box in exact integer arithmetic.

    With T = counts.sum() and S a pixel's clamp-to-edge convolution sum of
    integer counts times samples, returns S / T rounded to nearest with
    exact .5 ties going down, clamped to [0, 255].
    """
    x0, y0, x1, y1 = box
    h, w = pixels.shape
    k = counts.shape[0]
    half = k // 2
    rows = [min(max(y, 0), h - 1) for y in range(y0 - half, y1 + half)]
    cols = [min(max(x, 0), w - 1) for x in range(x0 - half, x1 + half)]
    patch = pixels.astype(np.int64)[rows][:, cols]
    total = np.zeros((y1 - y0, x1 - x0), dtype=np.int64)
    for ky in range(k):
        for kx in range(k):
            if counts[ky, kx]:
                # True convolution: the kernel is flipped.
                sy, sx = k - 1 - ky, k - 1 - kx
                total += int(counts[ky, kx]) * patch[sy : sy + y1 - y0, sx : sx + x1 - x0]
    t = int(counts.sum())
    return np.clip(-((t - 2 * total) // (2 * t)), 0, 255).astype(np.uint8)


def naive_plan(height: int, width: int, radii):
    """The FFT shape each blur of a height x width box runs at, replaying the reuse rule in order.

    The replay starts from no zone spectrum. A kernel of radius r is 1 px
    wide below r = 0.5, and 2 ceil(r) + 1 px otherwise; the 1 px one runs at
    no shape and leaves the spectrum alone.
    A blur's own length per axis is the least number 2^a 3^b 5^c that is at
    least box plus kernel minus 1. It runs at the spectrum's shape when that
    is at least its own on both axes and under twice its own area; otherwise
    its own shape becomes the spectrum's.
    """
    shapes, shape = [], None
    for radius in radii:
        kernel = 1 if radius < 0.5 else 2 * math.ceil(radius) + 1
        if kernel == 1:
            shapes.append(None)
            continue
        own = [min(n for n in _FIVE_SMOOTH if n >= side + kernel - 1) for side in (height, width)]
        if (shape is None or shape[0] < own[0] or shape[1] < own[1]
                or shape[0] * shape[1] >= 2 * own[0] * own[1]):
            shape = tuple(own)
        shapes.append(shape)
    return shapes


def naive_transforms(height: int, width: int, radii) -> list:
    """The shapes ``naive_plan`` transforms the zone at, in order: each shape new to the replay."""
    transforms, shape = [], None
    for planned in naive_plan(height, width, radii):
        if planned is not None and planned != shape:
            transforms.append(shape := planned)
    return transforms


# Every 2^a 3^b 5^c up to 2^14, more than box plus kernel reaches in the tests.
_FIVE_SMOOTH = sorted(
    2**a * 3**b * 5**c for a in range(15) for b in range(10) for c in range(7)
    if 2**a * 3**b * 5**c <= 2**14
)


def naive_probe(scene, cfg, z, noise, path, trials, window, kind) -> list[int]:
    """The metric of ``trials`` whole-frame captures at z, one after another.

    Trial t is noised with ``noise.derived(*path, t)``; a probe's path is its
    index, and a stability study's is empty.
    """
    lens = LensState(z)
    return [
        resolution(capture(scene, cfg, lens, noise.derived(*path, t)), window, kind)
        for t in range(trials)
    ]
