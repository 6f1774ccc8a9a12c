"""The blur's fixed passes around its two FFTs: the cosine bases and the rounding.

A zone transform builds the cosine bases that every kernel spectrum at its
FFT shape slices, and the rounding offset rides in the product's DC bin, so
the inverse casts to bytes with no clamp. These tests pin both against fresh
bases and against ``exact_blur`` at the byte range's ends.
"""

import numpy as np
import pytest

import focuslab.optics
from focuslab import (
    Image,
    LensState,
    MetricKind,
    NoiseSpec,
    WindowSpec,
    blur_radius,
    make_pillbox_psf,
    make_step_edge,
    sweep,
)
from focuslab.optics import _cosines, _fft_shape, _kernel_spectrum, _zone_spectrum, pillbox_size

from test_capture import _blur_by_the_rule, _zone_transforms
from test_parallel_capture import _lanes

WIDTH, HEIGHT = 48, 40
_Y, _X = np.mgrid[:HEIGHT, :WIDTH]
EXTREME_SCENES = {
    "black": Image(np.zeros((HEIGHT, WIDTH), dtype=np.uint8)),
    "white": Image(np.full((HEIGHT, WIDTH), 255, dtype=np.uint8)),
    "step": make_step_edge(WIDTH, HEIGHT, WIDTH // 2, 0, 255),
    "checkerboard": Image(((_Y + _X) % 2 * 255).astype(np.uint8)),
}
BOXES = {
    "frame": (0, 0, WIDTH, HEIGHT),
    "top-left": (0, 0, 17, 13),
    "bottom-right": (30, 27, WIDTH, HEIGHT),
    "inside": (10, 9, 31, 25),
}
# Largest first, as a camera blurs: each later radius runs at the last zone
# transform's shape when that covers its own within twice the area.
RADII = (19.0, 16.5, 12.25, 9.0, 7.5, 3.3, 1.0, 0.5)


@pytest.mark.parametrize("box", BOXES.values(), ids=BOXES)
@pytest.mark.parametrize("scene", EXTREME_SCENES.values(), ids=EXTREME_SCENES)
def test_unclamped_rounding_equals_exact_blur_at_the_byte_range_ends(monkeypatch, scene, box):
    # Exact values here are 0, 255 or means of both; the cast of v + 0.5 -
    # 1e-9 must floor them without a clamp, at a blur's own FFT shape and at
    # a larger planned one.
    shapes = _blur_by_the_rule(scene, box, RADII, _zone_transforms(monkeypatch))
    height, width = box[3] - box[1], box[2] - box[0]
    owns = [_fft_shape(height, width, pillbox_size(r)) for r in RADII if pillbox_size(r) > 1]
    assert any(shape == own for shape, own in zip(shapes, owns))
    assert any(shape != own for shape, own in zip(shapes, owns))


@pytest.mark.parametrize("box", [(0, 0, 31, 31), (3, 5, 34, 32), (2, 1, 41, 27)],
                         ids=["square-frame-corner", "square-inside", "oblong"])
def test_bases_of_a_zone_spectrum_give_a_fresh_kernel_spectrum_up_to_the_halo(box):
    scene = EXTREME_SCENES["checkerboard"]
    crop = scene.crop(*box)
    shape = _fft_shape(crop.height, crop.width, pillbox_size(4.5))
    _, bases = _zone_spectrum(crop, shape)
    halo = min((shape[0] - crop.height) // 2, (shape[1] - crop.width) // 2)
    assert [basis.shape for basis in bases] == [(n // 2 + 1, halo + 1) for n in shape]
    for h in range(halo + 1):
        weights = make_pillbox_psf(float(h)).weights
        assert weights.shape[0] // 2 == h
        quarter = weights[h:, h:]
        fresh = _kernel_spectrum(quarter, (_cosines(shape[0], h), _cosines(shape[1], h)))
        assert np.max(np.abs(_kernel_spectrum(quarter, bases) - fresh)) <= 1e-12, h


@pytest.mark.parametrize("lanes", [1, 2, 4])
def test_a_sweep_call_builds_its_cosines_once_per_zone_transform(monkeypatch, texture_256,
                                                                 bench_config, lanes):
    # The sweep-256 shape: a 255 px window and 16 radii up to 30 px on each
    # side of focus, served by one zone transform at a square FFT shape.
    built, cosines = [], focuslab.optics._cosines
    monkeypatch.setattr(focuslab.optics, "_cosines",
                        lambda n, h: built.append((n, h)) or cosines(n, h))
    transforms = _zone_transforms(monkeypatch)
    z_max = 30.0 / blur_radius(bench_config, LensState(1.0)).px
    positive = [z_max * k / 16 for k in range(1, 17)]
    zs = [-z for z in reversed(positive)] + [0.0] + positive
    with _lanes(lanes):
        curve = sweep(texture_256, bench_config, WindowSpec(128, 128, 255), MetricKind.SQUARED,
                      zs, NoiseSpec(0.0), 1)
    assert len(curve.entries) == 33
    assert len(transforms) == len(built) == 1
