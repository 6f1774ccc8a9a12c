"""Window-local capture against the whole-frame path.

Studies capture only the zone their windows read (``Image.crop``,
``metric.Camera``). These oracles require that zone to hold the same bytes
as the whole frame's blur and noise cropped to it, for any window, radius
and seed.
"""

import sys
import threading

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
    WindowSpec,
    add_noise,
    blur_radius,
    capture,
    convolve,
    make_pillbox_psf,
    make_texture,
    resolution,
    stability_study,
    sweep,
)
from focuslab.optics import DEFAULT_SUPERSAMPLE, _fast_len, pillbox_size

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
    probes=st.lists(st.tuples(st.floats(0.0, 23.0), st.integers(1, 3)), min_size=1, max_size=2),
    sigma=st.sampled_from([0.0, 1.5]),
    kind=st.sampled_from(MetricKind),
    seed=st.integers(0, 2**63),
)
def test_camera_readings_equal_the_whole_frame_capture(ws, probes, sigma, kind, seed):
    zs = [radius / PX_PER_MM for radius, _ in probes]
    noise = NoiseSpec(sigma, seed)
    specs = [[noise.derived(i, t) for t in range(n)] for i, (_, n) in enumerate(probes)]
    readings = Camera(SMALL, CFG, ws).readings(zs, specs, ws, kind)
    assert len(readings) == len(zs)
    for z, row, captures in zip(zs, specs, readings):
        assert len(captures) == len(row)
        for spec, values in zip(row, captures):
            whole = capture(SMALL, CFG, LensState(z), spec)
            assert values == [resolution(whole, w, kind) for w in ws]


def test_readings_need_one_row_of_specs_per_z():
    windows = [WindowSpec(20, 20, 9)]
    with pytest.raises(ValueError, match="per z"):
        Camera(SMALL, CFG, windows).readings([0.0, 0.1], [[NoiseSpec(0.0)]], windows,
                                             MetricKind.SQUARED)


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


def _fft_shape(n: int, radius: float) -> int:
    return _fast_len(n + pillbox_size(radius) - 1)


# A sweep's blurs in z order (radius falling; the +z half reuses them), then a
# large radius that misses the memo, then a small one that returns to an
# earlier FFT shape.
MEMO_RADII = [31.5 * k / 16 for k in range(16, 0, -1)] + [120.25, 2.0]


def test_memo_hits_misses_and_returns_equal_exact_blur(monkeypatch, texture_512):
    transforms = _zone_transforms(monkeypatch)
    box = (240, 240, 271, 271)
    crop = texture_512.crop(*box)
    for radius in MEMO_RADII:
        counts = naive_pillbox_counts(radius, DEFAULT_SUPERSAMPLE)
        got = convolve(crop, make_pillbox_psf(radius)).pixels
        assert np.array_equal(got, exact_blur(texture_512.pixels, counts, box)), radius
    shapes = [_fft_shape(31, r) for r in MEMO_RADII]
    changes = 1 + sum(a != b for a, b in zip(shapes, shapes[1:]))
    assert shapes[-1] in shapes[:-2] and changes < len(MEMO_RADII)
    assert len(transforms) == changes


PERSISTENT = make_texture(120, 104, 7)


def test_whole_frame_memo_survives_between_calls(monkeypatch):
    # 3.0 and 3.4 px share the 120 x 128 FFT shape (halo 8 x 4), 9.0 px needs
    # 125 x 144 (halo 10 x 12), and the identity kernel leaves the memo alone.
    transforms = _zone_transforms(monkeypatch)
    for radius in (3.0, 3.4, 9.0, 3.0, 0.0, 3.4):
        counts = naive_pillbox_counts(radius, DEFAULT_SUPERSAMPLE)
        got = convolve(PERSISTENT, make_pillbox_psf(radius)).pixels
        assert np.array_equal(got, exact_blur(PERSISTENT.pixels, counts, (0, 0, 120, 104))), radius
    assert transforms == [(8, 4), (10, 12), (8, 4)]
    # The memo is private: equality and repr do not see it.
    assert PERSISTENT == make_texture(120, 104, 7)
    assert repr(PERSISTENT) == repr(make_texture(120, 104, 7))


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
def test_noiseless_sweep_transforms_once_per_shape_and_measures_once_per_radius(
    monkeypatch, trials
):
    scene = make_texture(64, 64, 21)
    window = WindowSpec(32, 32, 63)
    zs = _sweep_zs(7.5 / PX_PER_MM)
    transforms = _zone_transforms(monkeypatch)
    blurs = _count_calls(monkeypatch, focuslab.metric, "convolve")
    metric_calls = _count_calls(monkeypatch, focuslab.metric, "resolution")
    noise_calls = _count_calls(monkeypatch, focuslab.metric, "add_noise")
    curve = sweep(scene, CFG, window, MetricKind.SQUARED, zs, NoiseSpec(0.0), trials)

    radii = {blur_radius(CFG, LensState(z)).px for z in zs}
    shapes = {_fft_shape(63, r) for r in radii if pillbox_size(r) > 1}
    assert len(zs) == 33 and len(radii) == 17 and 1 < len(shapes) < len(blurs)
    assert len(transforms) == len(shapes)
    assert len(metric_calls) == len(radii)
    assert len(noise_calls) == trials * len(zs)  # sigma = 0 still passes through the noise layer
    for entry in curve.entries:
        psf = make_pillbox_psf(blur_radius(CFG, LensState(entry.z_mm)).px)
        assert entry.d_mean == resolution(convolve(scene, psf), window, MetricKind.SQUARED)
        assert entry.d_stddev == 0.0 and entry.n_trials == trials


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


def test_noiseless_probe_cache_is_keyed_by_radius_window_and_kind(texture_256):
    windows = (WindowSpec(100, 100, 31), WindowSpec(150, 140, 9))
    camera = Camera(texture_256, CFG, windows)
    for z in (0.1, -0.1, 0.0, 0.2):
        whole = capture(texture_256, CFG, LensState(z), NoiseSpec(0.0))
        for window in windows:
            for kind in MetricKind:
                (sample,) = camera.probes([z], NoiseSpec(0.0), 0, 2, window, kind)
                assert sample.d_mean == resolution(whole, window, kind), (z, window, kind)


def test_threads_sharing_one_frame_and_its_memo_blur_correctly():
    # Threads blurring one image race on its memo; whichever entry a thread
    # reads, its blur must equal the exact one.
    scene = make_texture(64, 48, 9)
    radii = (1.0, 3.0, 6.0, 9.5)  # four FFT shapes, so the memo keeps changing
    expected = {
        r: exact_blur(scene.pixels, naive_pillbox_counts(r, DEFAULT_SUPERSAMPLE), (0, 0, 64, 48))
        for r in radii
    }
    psfs = {r: make_pillbox_psf(r) for r in radii}
    wrong = []

    def work(offset):
        for i in range(200):
            r = radii[(i + offset) % len(radii)]
            try:
                if not np.array_equal(convolve(scene, psfs[r]).pixels, expected[r]):
                    wrong.append(r)
            except ValueError as exc:  # e.g. spectra of two shapes multiplied
                wrong.append(exc)

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
