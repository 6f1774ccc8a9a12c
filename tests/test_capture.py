"""Window-local capture against the whole-frame path.

Studies capture only the zone their windows read (``Image.crop``,
``metric.Camera``). These oracles require that zone to hold the same bytes
as the whole frame's blur and noise cropped to it, for any window, radius
and seed.
"""

import re
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import focuslab.metric
import focuslab.optics
from focuslab import (
    Camera,
    Image,
    LensState,
    MetricKind,
    NoiseSpec,
    OpticalConfig,
    SearchParams,
    WindowSpec,
    add_noise,
    autofocus,
    blur_radius,
    capture,
    compare_metrics,
    convolve,
    make_pillbox_psf,
    make_texture,
    resolution,
    stability_study,
    sweep,
)
from focuslab.optics import DEFAULT_SUPERSAMPLE, ZoneSpectrum, _fft_shape, _plan, _zone_spectrum
from focuslab.optics import pillbox_size

from _oracles import exact_blur, naive_pillbox_counts, naive_plan, naive_transforms
from test_parallel_capture import _lanes

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
    # At r = 0.7 px the pillbox counts are [[0,8,0],[8,64,8],[0,8,0]], total 96, so a
    # pixel blurs to N/96 with N an exact integer; N % 96 == 48 is a .5 tie.
    psf = make_pillbox_psf(0.7)
    counts = naive_pillbox_counts(0.7, DEFAULT_SUPERSAMPLE)
    assert counts.sum() == 96 and np.array_equal(psf.weights, counts / 96)
    small = np.random.default_rng(3).integers(0, 4, size=(24, 24), dtype=np.uint8)
    s = small.astype(np.int64)
    numer = 64 * s[1:-1, 1:-1] + 8 * (s[:-2, 1:-1] + s[2:, 1:-1] + s[1:-1, :-2] + s[1:-1, 2:])
    assert np.count_nonzero(numer % 96 == 48) >= 40
    expected = exact_blur(small, counts, (1, 1, 23, 23))

    large = np.zeros((48, 56), dtype=np.uint8)
    large[9:33, 13:37] = small
    whole_small = convolve(Image(small), psf).pixels[1:-1, 1:-1]
    whole_large = convolve(Image(large), psf).pixels[10:32, 14:36]
    cropped = convolve(Image(large).crop(14, 10, 36, 32), psf).pixels
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
        built.append((radius_px, make_pillbox_psf(radius_px)))
        return built[-1][1]

    def counting_blur(scene, psf):
        blurred.append(psf)
        return convolve(scene, psf)

    monkeypatch.setattr(focuslab.metric, "make_pillbox_psf", counting)
    monkeypatch.setattr(focuslab.metric, "convolve", counting_blur)
    zs = [k * 0.1 for k in range(-3, 4)]
    curve = sweep(texture_256, CFG, WindowSpec(128, 128, 31), MetricKind.SQUARED, zs,
                  NoiseSpec(0.0), trials=1)
    radii = [radius for radius, _ in built]
    assert sorted(radii) == sorted(set(radii)) and len(built) == 4
    assert sorted(map(id, blurred)) == sorted(id(kernel) for _, kernel in built)
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
    radii=st.lists(st.floats(0.0, 23.0), min_size=1, max_size=2),
    trials=st.integers(1, 3),
    sigma=st.sampled_from([0.0, 1.5]),
    kind=st.sampled_from(MetricKind),
    seed=st.integers(0, 2**63),
)
def test_camera_readings_equal_the_whole_frame_capture(ws, radii, trials, sigma, kind, seed):
    noise = NoiseSpec(sigma, seed)
    zs = [radius / PX_PER_MM for radius in radii]
    paths = [(i,) for i in range(len(zs))]
    with Camera(SMALL, CFG, ws, noise, paths, trials) as camera:
        readings = camera.readings(zs, kind)
    assert readings.dtype == np.int64 and readings.shape == (len(zs), trials, len(ws))
    assert [len(row) for row in readings] == [trials] * len(zs)
    for z, path, row in zip(zs, paths, readings):
        for t, values in enumerate(row):
            whole = capture(SMALL, CFG, LensState(z), noise.derived(*path, t))
            assert values.tolist() == [resolution(whole, w, kind) for w in ws]


def _zone_transforms(monkeypatch):
    """Record the (rows, columns) halo of each zone transform; ``convolve``
    gathers one halo patch per transform."""
    halos = []
    gather = focuslab.optics._halo_patch

    def counting(scene, hy, hx):
        halos.append((hy, hx))
        return gather(scene, hy, hx)

    monkeypatch.setattr(focuslab.optics, "_halo_patch", counting)
    return halos


def _reuse_model(height: int, width: int, radii) -> tuple[list, list]:
    """The halo of each zone transform, and the FFT shape of each blur, that
    blurring a height x width box at these radii in order takes, from no
    spectrum: the replay of ``naive_plan``. The identity kernel takes neither.
    """
    shapes = [shape for shape in naive_plan(height, width, radii, None) if shape is not None]
    transforms = naive_transforms(height, width, radii, None)
    return [((ly - height) // 2, (lx - width) // 2) for ly, lx in transforms], shapes


def _planned_blurs(crop, radii):
    """Blur ``crop`` at each radius in order, as a camera does: through the
    spectrum ``optics._plan`` gives it, from no spectrum. Yields each
    radius's blurred crop and the shape it ran at.
    """
    for radius, spectrum in zip(radii, _plan(crop, radii, None)):
        yield convolve(spectrum or crop, make_pillbox_psf(radius)), spectrum and spectrum.shape


def _blur_by_the_rule(frame, box, radii, transforms) -> list[tuple[int, int]]:
    """Blur a crop of ``frame`` at each radius in order through its planned
    spectrum, each equal to ``exact_blur``, with the transforms and shapes of
    ``_reuse_model``.

    ``transforms`` is a ``_zone_transforms`` list, empty at the call.
    Returns the FFT shape each blur ran at.
    """
    shapes = []
    for radius, (blurred, shape) in zip(radii, _planned_blurs(frame.crop(*box), radii)):
        counts = naive_pillbox_counts(radius, DEFAULT_SUPERSAMPLE)
        assert np.array_equal(blurred.pixels, exact_blur(frame.pixels, counts, box)), radius
        if shape is not None:
            shapes.append(shape)
    x0, y0, x1, y1 = box
    assert (transforms, shapes) == _reuse_model(y1 - y0, x1 - x0, radii)
    return shapes


# A sweep's blurs in z order (radius falling; each reuses the last spectrum
# while it is under twice its own area), then a large radius that the last
# spectrum is too small for, then a small one whose own area the large
# spectrum is more than twice.
REUSE_RADII = [31.5 * k / 16 for k in range(16, 0, -1)] + [120.25, 2.0]


def test_planned_hits_misses_and_returns_equal_exact_blur(monkeypatch, texture_512):
    transforms = _zone_transforms(monkeypatch)
    _blur_by_the_rule(texture_512, (240, 240, 271, 271), REUSE_RADII, transforms)
    assert transforms == [(32, 32), (16, 16), (7, 7), (128, 128), (2, 2)]


# A 36 x 33 frame: a 33 px kernel, radius 16, fits it.
RULE_FRAME = make_texture(36, 33, 23)


@st.composite
def _edge_boxes(draw):
    """The whole of ``RULE_FRAME``, or a box of it touching a drawn edge."""
    width, height = RULE_FRAME.frame_size
    x0, y0 = draw(st.integers(0, width - 1)), draw(st.integers(0, height - 1))
    x1, y1 = draw(st.integers(x0 + 1, width)), draw(st.integers(y0 + 1, height))
    edge = draw(st.sampled_from(("frame", "left", "top", "right", "bottom")))
    if edge == "frame":
        return 0, 0, width, height
    x0, y0 = 0 if edge == "left" else x0, 0 if edge == "top" else y0
    x1, y1 = width if edge == "right" else x1, height if edge == "bottom" else y1
    return x0, y0, x1, y1


@settings(max_examples=40, deadline=None)
@given(box=_edge_boxes(), radii=st.lists(st.floats(0.0, 16.0), min_size=1, max_size=5),
       descending=st.booleans())
def test_every_blur_by_the_reuse_rule_equals_exact_blur(box, radii, descending):
    if descending:
        radii = sorted(radii, reverse=True)
    with pytest.MonkeyPatch.context() as patch:
        _blur_by_the_rule(RULE_FRAME, box, radii, _zone_transforms(patch))


def test_the_reuse_rule_at_twice_the_area_and_at_every_parity(monkeypatch):
    transforms = _zone_transforms(monkeypatch)
    # The 8 x 10 spectrum of radius 3 is exactly twice the 5 x 8 of radius 2
    # on a 1 x 4 box, so radius 2 transforms.
    shapes = _blur_by_the_rule(RULE_FRAME, (10, 0, 14, 1), [3.0, 2.0], transforms)
    assert shapes == [(8, 10), (5, 8)] and transforms == [(3, 3), (2, 2)]
    # The 45 x 45 spectrum of radius 16 is 1.98 times the 32 x 32 of radius 11
    # on a 9 x 9 box, so radius 11 reuses it.
    transforms.clear()
    shapes += _blur_by_the_rule(RULE_FRAME, (27, 24, 36, 33), [16.0, 11.0], transforms)
    assert shapes[2:] == [(45, 45)] * 2 and transforms == [(18, 18)]
    transforms.clear()
    shapes += _blur_by_the_rule(RULE_FRAME, (0, 20, 3, 21), [3.0], transforms)
    assert {(ly % 2, lx % 2) for ly, lx in shapes} == {(0, 0), (0, 1), (1, 0), (1, 1)}
    # The 15 x 15 spectrum of radius 6 is one short of radius 7's own on one
    # axis of a 1 x 2 box, and of a 2 x 1 box, so radius 7 transforms.
    for box, own in (((5, 32, 7, 33), (15, 16)), ((35, 5, 36, 7), (16, 15))):
        transforms.clear()
        assert _blur_by_the_rule(RULE_FRAME, box, [6.0, 7.0], transforms) == [(15, 15), own]


PERSISTENT = make_texture(120, 104, 7)


def test_a_blur_keeps_nothing_on_its_image_and_a_camera_keeps_its_last_spectrum(monkeypatch):
    # 3.0 and 3.4 px share the 120 x 128 FFT shape (halo 8 x 4) and 9.0 px
    # needs 125 x 144 (halo 10 x 12), which 2.5 px then reuses: it is 1.17
    # times that one's own area. The identity kernel leaves the spectrum alone.
    zs = [radius / PX_PER_MM for radius in (3.0, 3.4, 9.0, 0.0, 2.5)]
    radii = [blur_radius(CFG, LensState(z)).px for z in zs]
    expected = {
        radius: exact_blur(PERSISTENT.pixels, naive_pillbox_counts(radius, DEFAULT_SUPERSAMPLE),
                           (0, 0, 120, 104))
        for radius in radii
    }
    attributes = dict(vars(PERSISTENT))
    transforms = _zone_transforms(monkeypatch)
    for radius in radii:  # an image alone transforms at each kernel's own shape, every time
        assert np.array_equal(convolve(PERSISTENT, make_pillbox_psf(radius)).pixels,
                              expected[radius]), radius
    assert transforms == [(8, 4), (8, 4), (10, 12), (8, 4)]
    assert vars(PERSISTENT).keys() == attributes.keys()
    assert all(vars(PERSISTENT)[name] is value for name, value in attributes.items())

    # Two windows whose box is the whole frame: one call per radius, each
    # blurring through the spectrum the last call left.
    transforms.clear()
    windows = [WindowSpec(51, 51, 104), WindowSpec(67, 51, 104)]
    paths = [(i,) for i in range(len(zs))]
    with Camera(PERSISTENT, CFG, windows, NoiseSpec(0.0), paths, 1) as camera:
        for z, radius in zip(zs, radii):
            values = camera.readings([z], MetricKind.SQUARED)
            blurred = Image(expected[radius])
            assert values.tolist() == [[[resolution(blurred, w, MetricKind.SQUARED)
                                         for w in windows]]], radius
    assert transforms == [(8, 4), (10, 12)]


def _sweep_zs(z_max: float, half_count: int = 16) -> list[float]:
    """A sweep-256 style z list: the negative half is the exact negation of the positive."""
    positive = [z_max * k / half_count for k in range(1, half_count + 1)]
    return [-z for z in reversed(positive)] + [0.0] + positive


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize("trials", (1, 3))
@pytest.mark.parametrize("cpus", (1, 2, 4))
def test_a_noiseless_sweep_transforms_its_zone_once_and_measures_once_per_radius(
    monkeypatch, cpus, trials
):
    scene = make_texture(64, 64, 21)
    window = WindowSpec(32, 32, 63)
    zs = _sweep_zs(7.5 / PX_PER_MM)
    transforms = _zone_transforms(monkeypatch)
    blurs = _count_calls(monkeypatch, focuslab.metric, "convolve")
    metric_calls = _count_calls(monkeypatch, focuslab.metric, "resolution")
    noise_calls = _count_calls(monkeypatch, focuslab.metric, "add_noise")
    with _lanes(cpus):
        curve = sweep(scene, CFG, window, MetricKind.SQUARED, zs, NoiseSpec(0.0), trials)

    radii = {blur_radius(CFG, LensState(z)).px for z in zs}
    shapes = {_fft_shape(63, 63, pillbox_size(r)) for r in radii if pillbox_size(r) > 1}
    assert len(zs) == 33 and len(radii) == 17 and 1 < len(shapes) < len(blurs)
    # The largest kernel's 80 x 80 spectrum is under twice every other's own.
    assert _reuse_model(63, 63, sorted(radii, reverse=True))[0] == [(8, 8)]
    assert transforms == [(8, 8)]
    assert len(metric_calls) == len(radii)
    assert len(noise_calls) == len(zs)  # sigma = 0 still passes through the noise layer, once per z
    for entry in curve.entries:
        psf = make_pillbox_psf(blur_radius(CFG, LensState(entry.z_mm)).px)
        assert entry.d_mean == resolution(convolve(scene, psf), window, MetricKind.SQUARED)
        assert entry.d_stddev == 0.0 and entry.n_trials == trials


@pytest.mark.parametrize("trials", (1, 3))
def test_a_noiseless_sweep_derives_one_spec_and_noises_every_capture(monkeypatch, trials):
    zs = _sweep_zs(7.5 / PX_PER_MM)
    derived = _derivations(monkeypatch)
    noise_calls = _count_calls(monkeypatch, focuslab.metric, "add_noise")
    sweep(make_texture(64, 64, 21), CFG, WindowSpec(32, 32, 63), MetricKind.SQUARED, zs,
          NoiseSpec(0.0), trials)
    assert [path for path, _ in derived] == [(0, 0)]
    assert len(noise_calls) == len(zs)
    assert {spec for _, spec in noise_calls} == {derived[0][1]}


def test_noisy_sweep_measures_every_capture(monkeypatch):
    scene = make_texture(64, 64, 21)
    zs = _sweep_zs(7.5 / PX_PER_MM, half_count=3)
    metric_calls = _count_calls(monkeypatch, focuslab.metric, "resolution")
    sweep(scene, CFG, WindowSpec(32, 32, 63), MetricKind.SQUARED, zs, NoiseSpec(2.0, 5), 3)
    assert len(metric_calls) == 3 * len(zs)


def test_stability_reads_every_window_size_from_the_same_captures(monkeypatch):
    scene = make_texture(64, 64, 21)
    noise_calls = _count_calls(monkeypatch, focuslab.metric, "add_noise")
    metric_calls = _count_calls(monkeypatch, focuslab.metric, "resolution")
    report = stability_study(scene, CFG, LensState(0.02), (32, 32), [5, 9, 17, 31],
                             NoiseSpec(2.0, 5), repeats=6)
    assert [row.n for row in report.rows] == [5, 9, 17, 31]
    assert len(noise_calls) == 6
    assert len(metric_calls) == 4 * 6
    sizes_read = {}  # capture -> the window sizes measured on it
    for image, window, _ in metric_calls:
        sizes_read.setdefault(id(image), []).append(window.n)
    assert len(sizes_read) == 6
    assert all(sorted(sizes) == [5, 9, 17, 31] for sizes in sizes_read.values())


def test_noiseless_readings_are_cached_by_radius_and_kind(monkeypatch, texture_256):
    windows = (WindowSpec(100, 100, 31), WindowSpec(150, 140, 9))
    camera = Camera(texture_256, CFG, windows, NoiseSpec(0.0), [()] * 8, 2)
    metric_calls = _count_calls(monkeypatch, focuslab.metric, "resolution")
    for z in (0.1, -0.1, 0.0, 0.2):
        whole = capture(texture_256, CFG, LensState(z), NoiseSpec(0.0))
        for kind in MetricKind:
            expected = [resolution(whole, window, kind) for window in windows]
            assert camera.readings([z], kind).tolist() == [[expected] * 2], (z, kind)
    assert len(metric_calls) == 3 * 2 * 2  # radii x kinds x windows


@pytest.mark.parametrize("trials", (0, 2.5))
def test_probes_reject_bad_trials_before_any_capture(monkeypatch, trials):
    blurs = _count_calls(monkeypatch, focuslab.metric, "convolve")
    with pytest.raises(ValueError, match="trials"):
        Camera(SMALL, CFG, [WindowSpec(20, 20, 9)], NoiseSpec(1.0, 3), [(0,), (1,)], trials)
    assert blurs == []


def test_probes_need_a_camera_with_one_window(monkeypatch):
    blurs = _count_calls(monkeypatch, focuslab.metric, "convolve")
    windows = [WindowSpec(20, 20, 9), WindowSpec(40, 20, 5)]
    camera = Camera(SMALL, CFG, windows, NoiseSpec(0.0), [()], 1)
    with pytest.raises(ValueError, match="one window"):
        camera.probes([0.0], MetricKind.SQUARED)
    assert blurs == []


def test_a_camera_refuses_more_z_values_than_its_plan_has_left(monkeypatch):
    blurs = _count_calls(monkeypatch, focuslab.metric, "convolve")
    paths = [(0,), (1,)]
    with Camera(SMALL, CFG, [WindowSpec(20, 20, 9)], NoiseSpec(1.0, 3), paths, 2) as camera:
        with pytest.raises(ValueError, match="the 2 left in the noise plan"):
            camera.readings([0.0, 0.1, 0.2], MetricKind.SQUARED)
        assert blurs == []
        assert len(camera.readings([0.0], MetricKind.SQUARED)) == 1
        with pytest.raises(ValueError, match="the 1 left in the noise plan"):
            camera.readings([0.1, 0.2], MetricKind.SQUARED)
        assert len(blurs) == 1
    with pytest.raises(ValueError, match="the 0 left in the noise plan"):
        camera.readings([0.1], MetricKind.SQUARED)  # leaving the camera ends its plan
    assert len(blurs) == 1


def test_a_call_whose_last_z_needs_an_oversized_kernel_builds_no_kernel(monkeypatch):
    built = _count_calls(monkeypatch, focuslab.metric, "make_pillbox_psf")
    blurs = _count_calls(monkeypatch, focuslab.metric, "convolve")
    too_far = 40.0 / PX_PER_MM  # an 81x81 kernel, on a 64x48 scene
    radius = blur_radius(CFG, LensState(too_far)).px
    message = (f"z={too_far} mm reaches a blur radius of {radius:.4g}px, whose 81x81 kernel "
               "exceeds the 64x48 scene")
    paths = [(0,), (1,), (2,)]
    with Camera(SMALL, CFG, [WindowSpec(20, 20, 9)], NoiseSpec(1.0, 3), paths, 2) as camera:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            camera.readings([0.05, 0.1, too_far], MetricKind.SQUARED)
    assert built == [] and blurs == []


@pytest.mark.parametrize("sigma", (0.0, 1.0))
def test_readings_too_large_to_address_raise_memory_error_before_any_blur(monkeypatch, sigma):
    # 3 x 2**62 int64 readings: numpy cannot even count their bytes. A kernel
    # build, blur or draw raises here, so a call that reached one fails at once
    # rather than fill its trials without bound.
    started = []

    def refuse(name):
        def call(*args):
            started.append(name)
            raise AssertionError(f"{name} ran before the readings were allocated")
        return call

    for name in ("make_pillbox_psf", "convolve", "draw_noise"):
        monkeypatch.setattr(focuslab.metric, name, refuse(name))
    paths = [(0,), (1,), (2,), (3,)]
    with Camera(SMALL, CFG, [WindowSpec(20, 20, 9)], NoiseSpec(sigma, 3), paths, 2**62) as camera:
        with pytest.raises(MemoryError):
            camera.readings([0.0, 0.05, 0.1], MetricKind.SQUARED)
        with pytest.raises(ValueError, match="the 0 left in the noise plan"):
            camera.readings([0.0], MetricKind.SQUARED)  # the failed call ended the plan
    assert started == []


def test_a_readings_call_that_raises_ends_the_plan(monkeypatch):
    # The failed call took a draw from the queue part way through its row.
    paths = [(0,), (1,), (2,)]
    with Camera(SMALL, CFG, [WindowSpec(20, 20, 9)], NoiseSpec(2.0, 11), paths, 2) as camera:
        with monkeypatch.context() as patch:
            patch.setattr(focuslab.metric, "resolution", lambda *args: 1 / 0)
            with pytest.raises(ZeroDivisionError):
                camera.readings([0.1], MetricKind.SQUARED)
        with pytest.raises(ValueError, match="the 0 left in the noise plan"):
            camera.readings([0.2], MetricKind.SQUARED)


# 0.4 blur px per 0.01 mm: kernels stay within a 96 px scene over +-1 mm.
SEARCH_CFG = OpticalConfig(a_mm=1000.0, f_mm=50.0, g=2.0, pixel_pitch_mm=0.02, d_max=100.0)


def _derivations(monkeypatch):
    """Record each ``NoiseSpec.derived`` call as (path, the spec it returned)."""
    made = []
    derive = NoiseSpec.derived

    def recording(noise, *path):
        made.append((path, derive(noise, *path)))
        return made[-1][1]

    monkeypatch.setattr(NoiseSpec, "derived", recording)
    return made


def _queued_draws(monkeypatch, derived):
    """Record each draw submitted to the capture pool as (its spec, derivations made by then)."""
    queued = []
    pool = focuslab.metric._capture_pool()

    class Recording:
        def submit(self, task, *args):
            if task is focuslab.metric.draw_noise:
                queued.append((args[0], len(derived)))
            return pool.submit(task, *args)

    monkeypatch.setattr(focuslab.metric, "_capture_pool", Recording)
    return queued


def test_a_camera_costs_the_same_for_any_trial_count(monkeypatch):
    # A camera that derived its plan when built would fail here, not exhaust memory.
    monkeypatch.setattr(NoiseSpec, "derived", lambda *args: pytest.fail("derived when built"))
    paths = [(i,) for i in range(25)]

    def build():
        return Camera(SMALL, CFG, [WindowSpec(20, 20, 9)], NoiseSpec(2.0, 11), paths, 10**9)

    times = []
    for _ in range(3):
        start = time.perf_counter()
        build()
        times.append(time.perf_counter() - start)
    tracemalloc.start()
    try:
        with build():
            _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert min(times) < 0.01
    assert peak < 64 * 1024


def test_a_camera_derives_each_spec_as_it_queues_the_draw(monkeypatch):
    derived = _derivations(monkeypatch)
    queued = _queued_draws(monkeypatch, derived)
    paths = [(i,) for i in range(25)]
    with Camera(SMALL, CFG, [WindowSpec(20, 20, 9)], NoiseSpec(2.0, 11), paths, 5) as camera:
        assert derived == []
        camera.readings([0.0], MetricKind.SQUARED)
    assert len(derived) >= 5
    # The first draw is queued after one derivation, the k-th after k of them.
    assert [count for _, count in queued] == list(range(1, len(queued) + 1))
    assert [spec for spec, _ in queued] == [spec for _, spec in derived]
    planned = [(i, t) for i in range(25) for t in range(5)]
    assert [path for path, _ in derived] == planned[: len(derived)]


@pytest.mark.parametrize("kind", MetricKind)
def test_a_noiseless_camera_derives_its_one_spec_when_built(monkeypatch, kind):
    derived = _derivations(monkeypatch)
    paths = [(3,), (1,), (2,)]
    with Camera(SMALL, CFG, [WindowSpec(20, 20, 9)], NoiseSpec(0.0, 11), paths, 2) as camera:
        assert [path for path, _ in derived] == [(3, 0)]
        camera.readings([0.0, 0.1], kind)
        camera.readings([-0.1], kind)
    assert [path for path, _ in derived] == [(3, 0)]


@pytest.mark.parametrize("kind", MetricKind)
def test_a_noiseless_camera_with_an_empty_plan_derives_no_spec(monkeypatch, kind):
    derived = _derivations(monkeypatch)
    with Camera(SMALL, CFG, [WindowSpec(20, 20, 9)], NoiseSpec(0.0, 11), [], 2) as camera:
        message = "^1 z values need more rows than the 0 left in the noise plan$"
        with pytest.raises(ValueError, match=message):
            camera.readings([0.0], kind)
    assert derived == []


@pytest.mark.parametrize("z_min, at_boundary", [(-1.0, False), (0.0, True)])
def test_an_autofocus_derives_each_planned_spec_once(monkeypatch, z_min, at_boundary):
    # This zone holds at most 11 draws per worker, fewer than the 6 unused
    # probes of 2 trials per worker that a stop at the boundary leaves.
    trials = 2 * focuslab.metric._usable_cpus()
    derived = _derivations(monkeypatch)
    queued = _queued_draws(monkeypatch, derived)
    params = SearchParams(z_min=z_min, z_max=0.8, coarse_steps=7, refine_iterations=4,
                          trials_per_eval=trials)
    result = autofocus(make_texture(96, 80, 31), SEARCH_CFG, WindowSpec(50, 40, 21),
                       NoiseSpec(2.0, 11), params)
    assert result.at_boundary == at_boundary
    planned = [(i, t) for i in range(7 + 2 + 4) for t in range(trials)]
    paths = [path for path, _ in derived]
    assert paths == planned[: len(paths)]
    assert [spec for spec, _ in queued] == [spec for _, spec in derived]
    assert (len(paths) < len(planned)) == at_boundary


def test_compare_metrics_blurs_each_radius_once(monkeypatch, texture_256):
    window = WindowSpec(128, 128, 31)
    zs = [-0.4, -0.3, -0.2, -0.1, 0.0, 0.1, 0.2, 0.3, 0.4]
    argmax = {
        kind: sweep(texture_256, CFG, window, kind, zs, NoiseSpec(0.0), trials=1).argmax_z()
        for kind in MetricKind
    }
    blurs = _count_calls(monkeypatch, focuslab.metric, "convolve")
    report = compare_metrics(texture_256, CFG, window, zs, repeats_for_timing=10, sizes=(5,))
    assert len({blur_radius(CFG, LensState(z)).px for z in zs}) == 5
    assert len(blurs) == 5
    assert report.argmax_z_mm == argmax


def test_threads_sharing_one_frame_and_one_spectrum_blur_correctly():
    # Threads blurring one image through one spectrum, which the first of
    # them to blur through it transforms, or through the image alone, each
    # get the exact blur and share one transform.
    scene = make_texture(64, 48, 9)
    # The 20 px kernel's shape is over twice the others' area, but its halo
    # holds every kernel here: all four radii blur at its shape through the
    # spectrum, and at their own through the image, with the same bytes.
    radii = (1.0, 3.0, 6.0, 20.0)
    expected = {
        r: exact_blur(scene.pixels, naive_pillbox_counts(r, DEFAULT_SUPERSAMPLE), (0, 0, 64, 48))
        for r in radii
    }
    psfs = {r: make_pillbox_psf(r) for r in radii}
    shape = _fft_shape(48, 64, psfs[20.0].size)
    spectrum = ZoneSpectrum(scene, shape)
    wrong, transforms = [], set()

    def work(offset):
        for i in range(200):
            r = radii[(i + offset) % len(radii)]
            try:
                blurred = convolve(spectrum if i % 2 else scene, psfs[r])
                if not np.array_equal(blurred.pixels, expected[r]):
                    wrong.append(r)
            except ValueError as exc:  # e.g. spectra of two shapes multiplied
                wrong.append(exc)
        transforms.add(id(spectrum.transform()))

    threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    values, _ = spectrum.transform()
    assert transforms == {id(spectrum.transform())}
    assert np.array_equal(values, _zone_spectrum(scene, shape)[0]) and not values.flags.writeable


@pytest.mark.parametrize("shape, halo", [((54, 72), "3x4"), ((200, 72), "76x4")])
def test_a_spectrum_whose_halo_cannot_hold_the_kernel_is_refused(monkeypatch, shape, halo):
    # A 64 x 48 frame: a 13 px kernel needs a halo of 6 on both axes.
    transforms = _zone_transforms(monkeypatch)
    spectrum = ZoneSpectrum(make_texture(64, 48, 9), shape)
    message = (f"^a zone spectrum at FFT shape {shape[0]}x{shape[1]} has a {halo} halo, "
               "too narrow for a 13x13 kernel$")
    with pytest.raises(ValueError, match=message):
        convolve(spectrum, make_pillbox_psf(6.0))
    assert transforms == []
