"""Independent brute-force reference implementations used only by tests.

These stay deliberately naive (plain Python loops, no shared code with the
package) so they can serve as oracles for the vectorized implementations.
``naive_probe`` is the exception: it composes the package's whole-frame
layers, each checked against its own oracle, into the serial reference for
the camera's window-local, pooled captures.
"""

from __future__ import annotations

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
