"""Window-local capture against the whole-frame path.

Studies capture only the zone their windows read (``Image.crop``,
``metric.Camera``). These oracles require that zone to hold the same bytes
as the whole frame's blur and noise cropped to it, for any window, radius
and seed.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import focuslab.metric
from focuslab import (
    Camera,
    Image,
    LensState,
    MetricKind,
    NoiseSpec,
    OpticalConfig,
    WindowSpec,
    add_noise,
    blur_radius,
    capture,
    convolve,
    make_pillbox_psf,
    make_texture,
    sweep,
)
from focuslab.optics import DEFAULT_SUPERSAMPLE

from _oracles import exact_blur, naive_pillbox_counts

CFG = OpticalConfig(a_mm=1000.0, f_mm=50.0, g=2.0, pixel_pitch_mm=0.005, d_max=100.0)
PX_PER_MM = blur_radius(CFG, LensState(1.0)).px

# 520 x 505: a radius of 250 px fits, and unequal sides catch swapped axes.
W, H = 520, 505
RADII = (0.0, 0.4, 1.0, 2.5, 7.3, 31.0, 99.5, 180.2, 250.0)
# (x0, y0, x1, y1) boxes touching each corner and side, one inside, and the frame.
BOXES = (
    (0, 0, 31, 31),
    (200, 0, 260, 17),
    (W - 9, 240, W, 300),
    (W - 40, H - 40, W, H),
    (100, H - 5, 140, H),
    (0, 300, 12, 333),
    (250, 240, 281, 271),
    (0, 0, W, H),
)


@pytest.fixture(scope="module")
def scene():
    return make_texture(W, H, 17)


def _cut(pixels, box):
    x0, y0, x1, y1 = box
    return pixels[y0:y1, x0:x1]


@pytest.mark.parametrize("radius", RADII)
def test_noiseless_crop_blur_equals_the_frame_blur_cropped(scene, radius):
    psf = make_pillbox_psf(radius)
    frame = convolve(scene, psf).pixels
    for box in BOXES:
        got = convolve(scene.crop(*box), psf)
        assert got.origin == box[:2] and got.frame_size == (W, H)
        assert np.array_equal(got.pixels, _cut(frame, box)), box


@pytest.mark.parametrize("radius", (0.0, 7.3, 99.5))
def test_noisy_crop_equals_the_noisy_frame_cropped(scene, radius):
    # Guards the assumption that numpy's normal stream is prefix-stable:
    # a crop draws only through its own last row.
    psf = make_pillbox_psf(radius)
    blurred = convolve(scene, psf)
    for seed in (0, 11, 2**40 + 3):
        noise = NoiseSpec(2.0, seed)
        frame = add_noise(blurred, noise).pixels
        for box in BOXES:
            got = add_noise(convolve(scene.crop(*box), psf), noise).pixels
            assert np.array_equal(got, _cut(frame, box)), (seed, box)


def test_exact_half_ties_round_down_at_every_frame_size():
    # Radius 1 with 2x2 subsamples gives the integer kernel [[0,2,0],[2,4,2],[0,2,0]]/12,
    # so a pixel blurs to N/12 with N computed exactly below; N % 12 == 6 is a tie.
    psf = make_pillbox_psf(1.0, supersample=2)
    assert np.allclose(psf.weights * 12, [[0, 2, 0], [2, 4, 2], [0, 2, 0]])
    rng = np.random.default_rng(3)
    small = rng.integers(0, 7, size=(16, 16))
    numer = 4 * small[1:-1, 1:-1] + 2 * (
        small[:-2, 1:-1] + small[2:, 1:-1] + small[1:-1, :-2] + small[1:-1, 2:]
    )
    assert np.count_nonzero(numer % 12 == 6) >= 10
    expected = -((12 - 2 * numer) // 24)  # ceil(N/12 - 1/2): nearest, ties down

    large = np.zeros((40, 48), dtype=np.uint8)
    large[9:25, 13:29] = small
    whole_small = convolve(Image(small), psf).pixels[1:-1, 1:-1]
    whole_large = convolve(Image(large), psf).pixels[10:24, 14:28]
    cropped = convolve(Image(large).crop(14, 10, 28, 24), psf).pixels
    for got in (whole_small, whole_large, cropped):
        assert np.array_equal(got, expected)


@pytest.mark.parametrize("radius", (0.6, 1.0, 7.3, 49.5, 120.25, 237.0, 250.0))
def test_blur_equals_exact_integer_rounding(texture_512, radius):
    # The blurred byte is sum(counts * samples) / counts.sum() rounded half
    # down; here that sum is exact, so any FFT round-off that flips a byte shows.
    psf = make_pillbox_psf(radius)
    counts = naive_pillbox_counts(radius, DEFAULT_SUPERSAMPLE)
    box = (240, 240, 271, 271)
    got = convolve(texture_512.crop(*box), psf).pixels
    assert np.array_equal(got, exact_blur(texture_512.pixels, counts, box))
    small = make_texture(120, 104, 7)
    if psf.size <= small.height:
        whole = convolve(small, psf).pixels
        assert np.array_equal(whole, exact_blur(small.pixels, counts, (0, 0, 120, 104)))


def test_crop_validation():
    img = make_texture(12, 10, 1)
    with pytest.raises(ValueError, match="leaves"):
        img.crop(5, 5, 13, 8)
    with pytest.raises(ValueError, match="empty"):
        img.crop(4, 4, 4, 6)
    blurred = convolve(img.crop(2, 2, 8, 8), make_pillbox_psf(1.0))
    assert blurred.surround is None
    with pytest.raises(ValueError, match="surround"):
        convolve(blurred, make_pillbox_psf(1.0))
    with pytest.raises(ValueError, match="does not fit"):
        Image(np.zeros((3, 3), dtype=np.uint8), origin=(10, 0), frame_size=(12, 10))


def test_sweep_builds_each_kernel_once(monkeypatch, texture_256):
    built = []
    blurred = []

    def counting(radius_px):
        built.append(radius_px)
        return make_pillbox_psf(radius_px)

    def counting_blur(scene, psf):
        blurred.append(psf.radius_px)
        return convolve(scene, psf)

    monkeypatch.setattr(focuslab.metric, "make_pillbox_psf", counting)
    monkeypatch.setattr(focuslab.metric, "convolve", counting_blur)
    zs = [k * 0.1 for k in range(-3, 4)]
    curve = sweep(texture_256, CFG, WindowSpec(128, 128, 31), MetricKind.SQUARED, zs,
                  NoiseSpec(0.0), trials=1)
    assert sorted(built) == sorted(set(built)) and len(built) == 4
    assert len(blurred) == 4 and sorted(blurred) == sorted(built)
    means = curve.d_means()
    assert np.array_equal(means, means[::-1])


SMALL = make_texture(64, 48, 5)


@st.composite
def windows(draw):
    n = draw(st.integers(2, 20))
    half = (n - 1) // 2
    cx = draw(st.integers(half, SMALL.width - n + half))
    cy = draw(st.integers(half, SMALL.height - n + half))
    return WindowSpec(cx, cy, n)


@settings(max_examples=60, deadline=None)
@given(
    ws=st.lists(windows(), min_size=1, max_size=3),
    radius=st.floats(0.0, 23.0),
    sigma=st.sampled_from([0.0, 1.5]),
    seed=st.integers(0, 2**63),
)
def test_camera_frames_equal_the_whole_frame_capture(ws, radius, sigma, seed):
    lens = LensState(radius / PX_PER_MM)
    noise = NoiseSpec(sigma, seed)
    (frame,) = Camera(SMALL, CFG, ws).frames(lens, [noise])
    whole = capture(SMALL, CFG, lens, noise)
    for w in ws:
        assert np.array_equal(frame.region(w), whole.region(w))
