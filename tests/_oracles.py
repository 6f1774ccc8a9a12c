"""Independent brute-force reference implementations used only by tests.

These stay deliberately naive (plain Python loops, no shared code with the
package) so they can serve as oracles for the vectorized implementations.
"""

from __future__ import annotations

import numpy as np


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
