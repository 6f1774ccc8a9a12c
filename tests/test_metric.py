import io
import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import focuslab.metric
from focuslab import (
    Camera,
    FocusCurve,
    FocusSample,
    Image,
    MetricKind,
    NoiseSpec,
    OpticalConfig,
    WindowSpec,
    blur_radius,
    LensState,
    make_texture,
    resolution,
    sweep,
)
from focuslab.metric import z_grid

from _oracles import naive_resolution

CFG = OpticalConfig(a_mm=1000.0, f_mm=50.0, g=2.0, pixel_pitch_mm=0.005, d_max=100.0)


def window_image(samples) -> tuple[Image, WindowSpec]:
    """Wrap an n x n sample grid so the window covers it exactly."""
    arr = np.asarray(samples, dtype=np.uint8)
    n = arr.shape[0]
    half = (n - 1) // 2
    return Image(arr), WindowSpec(half, half, n)


class TestResolution:
    def test_constant_window_is_zero(self):
        img, w = window_image(np.full((5, 5), 9))
        assert resolution(img, w, MetricKind.SQUARED) == 0
        assert resolution(img, w, MetricKind.ABSOLUTE) == 0

    def test_two_by_two_single_term(self):
        img, w = window_image([[0, 10], [0, 10]])
        assert resolution(img, w, MetricKind.SQUARED) == 200
        assert resolution(img, w, MetricKind.ABSOLUTE) == 20

    def test_three_by_three_step(self):
        img, w = window_image([[0, 0, 255], [0, 0, 255], [0, 0, 255]])
        assert resolution(img, w, MetricKind.SQUARED) == 260100
        assert resolution(img, w, MetricKind.ABSOLUTE) == 1020

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(2, 34))
            block = rng.integers(0, 256, size=(n, n), dtype=np.uint8)
            img, w = window_image(block)
            assert resolution(img, w, MetricKind.SQUARED) == naive_resolution(block, True)
            assert resolution(img, w, MetricKind.ABSOLUTE) == naive_resolution(block, False)

    def test_zero_exactly_when_window_constant(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            n = int(rng.integers(2, 12))
            block = rng.integers(0, 256, size=(n, n), dtype=np.uint8)
            img, w = window_image(block)
            is_constant = np.all(block == block[0, 0])
            for kind in MetricKind:
                assert (resolution(img, w, kind) == 0) == is_constant

    def test_shift_invariance(self):
        rng = np.random.default_rng(29)
        block = rng.integers(0, 100, size=(9, 9), dtype=np.uint8)
        img, w = window_image(block)
        shifted, _ = window_image(block.astype(np.int64) + 100)
        for kind in MetricKind:
            assert resolution(img, w, kind) == resolution(shifted, w, kind)

    def test_contrast_scaling(self):
        rng = np.random.default_rng(31)
        block = rng.integers(0, 51, size=(7, 7), dtype=np.uint8)
        img, w = window_image(block)
        for k in (2, 3, 5):
            scaled, _ = window_image(block.astype(np.int64) * k)
            assert resolution(scaled, w, MetricKind.ABSOLUTE) == k * resolution(img, w, MetricKind.ABSOLUTE)
            assert resolution(scaled, w, MetricKind.SQUARED) == k * k * resolution(img, w, MetricKind.SQUARED)

    def test_ignores_content_outside_window(self):
        rng = np.random.default_rng(37)
        inner = rng.integers(0, 256, size=(5, 5), dtype=np.uint8)
        w = WindowSpec(7, 7, 5)
        values = []
        for fill in (0, 255):
            px = np.full((15, 15), fill, dtype=np.uint8)
            px[5:10, 5:10] = inner
            values.append(resolution(Image(px), w, MetricKind.SQUARED))
        assert values[0] == values[1]

    def test_window_overflow_rejected(self):
        img = Image(np.zeros((8, 8), dtype=np.uint8))
        with pytest.raises(ValueError, match="does not fit"):
            resolution(img, WindowSpec(7, 7, 5), MetricKind.SQUARED)

    def test_no_overflow_at_maximum_contrast(self):
        # Worst case: alternating 0/255 rows make every diagonal pair differ
        # by the full range; the big-window total must stay exact.
        n = 129
        px = np.tile((np.arange(n) % 2 * 255)[:, None], (1, n))
        img, w = window_image(px)
        expected = 2 * (n - 1) * (n - 1) * 255 * 255
        assert resolution(img, w, MetricKind.SQUARED) == expected
        assert resolution(img, w, MetricKind.ABSOLUTE) == 2 * (n - 1) * (n - 1) * 255


@pytest.mark.parametrize("fields, name", [
    ((0.0, float("nan"), 0.0, 1), "d_mean"),
    ((0.0, 1.0, float("inf"), 1), "d_stddev"),
    ((float("nan"), 1.0, 0.0, 1), "z_mm"),
    ((0.0, 1.0, 0.0, 2.5), "n_trials"),
], ids=["nan-mean", "inf-stddev", "nan-z", "fractional-trials"])
def test_focus_sample_rejects_bad_fields_by_name(fields, name):
    with pytest.raises(ValueError, match=name):
        FocusSample(*fields)


@pytest.mark.parametrize("fields", [(0.0, -1.0, 0.0, 1), (0.0, 1.0, -0.5, 1)],
                         ids=["negative-mean", "negative-stddev"])
def test_focus_sample_rejects_negative_statistics(fields):
    with pytest.raises(ValueError, match="metric statistics must be nonnegative"):
        FocusSample(*fields)


def test_unknown_metric_kind_is_a_type_error():
    img = Image(np.zeros((4, 4), dtype=np.uint8))
    with pytest.raises(TypeError, match="unknown metric kind 'squared'"):
        resolution(img, WindowSpec(2, 2, 3), "squared")


@pytest.mark.parametrize("sigma", [0.0, 2.0])
def test_a_sweep_refuses_an_unknown_kind_before_any_blur(monkeypatch, sigma):
    blurred, blur = [], focuslab.metric.convolve
    monkeypatch.setattr(focuslab.metric, "convolve",
                        lambda scene, psf: blurred.append(psf) or blur(scene, psf))
    scene, window = make_texture(32, 32, 1), WindowSpec(16, 16, 9)
    with pytest.raises(TypeError, match="unknown metric kind 'squared'"):
        sweep(scene, CFG, window, "squared", [-0.05, 0.05], NoiseSpec(sigma, 3), 2)
    assert blurred == []
    sweep(scene, CFG, window, MetricKind.SQUARED, [-0.05, 0.05], NoiseSpec(sigma, 3), 2)
    assert len(blurred) == 1  # the spy sees the blurs of a valid call


class TestFocusCurve:
    def test_z_values_must_increase(self):
        s = [FocusSample(0.0, 1.0, 0.0, 1), FocusSample(0.0, 2.0, 0.0, 1)]
        with pytest.raises(ValueError, match="increasing"):
            FocusCurve(tuple(s))

    def test_argmax_tie_prefers_smaller_displacement(self):
        curve = FocusCurve(
            (
                FocusSample(-2.0, 5.0, 0.0, 1),
                FocusSample(-1.0, 9.0, 0.0, 1),
                FocusSample(1.0, 9.0, 0.0, 1),
                FocusSample(3.0, 9.0, 0.0, 1),
            )
        )
        assert curve.argmax_z() == -1.0

    def test_csv_layout(self):
        curve = FocusCurve(
            (FocusSample(-0.5, 120.0, 0.0, 2), FocusSample(0.5, 80.25, 1.5, 2))
        )
        buf = io.StringIO()
        curve.write_csv(buf)
        assert buf.getvalue() == (
            "z_mm,d_mean,d_stddev,n_trials\n"
            "-0.5,120,0,2\n"
            "0.5,80.25,1.5,2\n"
        )


class TestSweep:
    def test_identity_optics_reproduces_direct_measurement(self, texture_256):
        w = WindowSpec(128, 128, 31)
        curve = sweep(texture_256, CFG, w, MetricKind.SQUARED, [0.0], NoiseSpec(0.0), trials=1)
        assert curve.entries[0].d_mean == resolution(texture_256, w, MetricKind.SQUARED)
        assert curve.entries[0].d_stddev == 0.0

    def test_symmetric_displacements_measure_equal(self, texture_256):
        w = WindowSpec(128, 128, 63)
        zs = [-0.4, -0.2, -0.1, 0.1, 0.2, 0.4]
        curve = sweep(texture_256, CFG, w, MetricKind.SQUARED, zs, NoiseSpec(0.0), trials=1)
        d = curve.d_means()
        assert d[0] == d[5] and d[1] == d[4] and d[2] == d[3]

    def test_metric_falls_as_defocus_grows(self, texture_256):
        w = WindowSpec(128, 128, 127)
        px_per_mm = blur_radius(CFG, LensState(1.0)).px
        zs = [r / px_per_mm for r in (2.0, 4.0, 8.0, 16.0)]
        for kind in MetricKind:
            curve = sweep(texture_256, CFG, w, kind, zs, NoiseSpec(0.0), trials=1)
            assert np.all(np.diff(curve.d_means()) < 0)

    def test_noiseless_trials_have_zero_spread(self, texture_256):
        w = WindowSpec(128, 128, 31)
        curve = sweep(texture_256, CFG, w, MetricKind.SQUARED, [0.1], NoiseSpec(0.0), trials=3)
        assert curve.entries[0].d_stddev == 0.0
        assert curve.entries[0].n_trials == 3

    def test_noisy_sweep_is_deterministic(self, texture_256):
        w = WindowSpec(128, 128, 31)
        kwargs = dict(trials=3)
        a = sweep(texture_256, CFG, w, MetricKind.SQUARED, [0.0, 0.1], NoiseSpec(2.0, 5), **kwargs)
        b = sweep(texture_256, CFG, w, MetricKind.SQUARED, [0.0, 0.1], NoiseSpec(2.0, 5), **kwargs)
        assert a == b

    def test_input_validation(self, texture_256):
        w = WindowSpec(128, 128, 31)
        with pytest.raises(ValueError, match="nonempty"):
            sweep(texture_256, CFG, w, MetricKind.SQUARED, [], NoiseSpec(0.0), trials=1)
        with pytest.raises(ValueError, match="increasing"):
            sweep(texture_256, CFG, w, MetricKind.SQUARED, [0.2, 0.1], NoiseSpec(0.0), trials=1)
        with pytest.raises(ValueError, match="trials"):
            sweep(texture_256, CFG, w, MetricKind.SQUARED, [0.0], NoiseSpec(0.0), trials=0)


@st.composite
def probe_readings(draw):
    """Each probe's readings of one window: 1-40 probes of 1-64 trials, up to 2**40."""
    trials = draw(st.integers(1, 64))
    row = st.lists(st.integers(0, 2**40), min_size=trials, max_size=trials)
    return trials, draw(st.lists(row, min_size=1, max_size=40))


@settings(max_examples=200, deadline=None)
@given(case=probe_readings())
def test_probes_give_the_bits_of_each_probes_own_mean_and_std(case):
    trials, rows = case
    zs = [0.01 * i for i in range(len(rows))]
    paths = [(i,) for i in range(len(rows))]
    scene = Image(np.zeros((8, 8), dtype=np.uint8))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Camera, "readings",
                      lambda camera, zs, kind: np.array(rows, dtype=np.int64)[..., None])
        with Camera(scene, CFG, [WindowSpec(3, 3, 3)], NoiseSpec(0.0), paths, trials) as camera:
            samples = camera.probes(zs, MetricKind.SQUARED)
    assert len(samples) == len(rows)
    for z, row, sample in zip(zs, rows, samples):
        assert (sample.z_mm, sample.n_trials) == (z, trials)
        assert sample.d_mean.hex() == float(np.mean(row)).hex()
        assert sample.d_stddev.hex() == float(np.std(row)).hex()


@st.composite
def framed_windows(draw):
    """An image a little larger than an n x n window placed anywhere in it."""
    n = draw(st.integers(2, 24))
    h, w = draw(st.integers(n, n + 5)), draw(st.integers(n, n + 5))
    samples = st.sampled_from([0, 255]) | st.integers(0, 255)
    pixels = draw(arrays(np.uint8, (h, w), elements=samples))
    half = (n - 1) // 2
    cx, cy = draw(st.integers(half, w - n + half)), draw(st.integers(half, h - n + half))
    return Image(pixels), WindowSpec(cx, cy, n)


@settings(max_examples=150)
@given(case=framed_windows())
def test_resolution_equals_the_naive_oracle_on_random_windows(case):
    img, window = case
    block = img.region(window)
    assert resolution(img, window, MetricKind.SQUARED) == naive_resolution(block, True)
    assert resolution(img, window, MetricKind.ABSOLUTE) == naive_resolution(block, False)


def test_sums_exceed_int32_at_the_largest_window():
    # A 255 x 255 window of alternating 0/255 rows totals 2 * 254^2 * 255^2,
    # about 8.4e9, past int32: the terms fit int32 but the sums must not.
    n = 255
    px = np.tile((np.arange(n) % 2 * 255)[:, None], (1, n))
    img, w = window_image(px)
    assert resolution(img, w, MetricKind.SQUARED) == 2 * (n - 1) ** 2 * 255**2
    assert resolution(img, w, MetricKind.ABSOLUTE) == 2 * (n - 1) ** 2 * 255


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@example(a=1.0, b=sys.float_info.max, n=63)  # linspace's last product overflows
@example(a=0.0, b=1e-323, n=5)  # three floats for five values
@given(a=FINITE, b=FINITE, n=st.integers(2, 64))
def test_the_z_grid_is_linspace_with_exact_ends(a, b, n):
    # Or a refusal, when linspace's values repeat.
    assume(a < b and math.isfinite(b - a))
    with np.errstate(over="ignore"):
        expected = np.linspace(a, b, n).tolist()
    if any(lo >= hi for lo, hi in zip(expected, expected[1:])):
        with pytest.raises(ValueError, match=f"fewer than {n} distinct z values"):
            z_grid(a, b, n)
        return
    grid = z_grid(a, b, n)
    assert grid == expected
    assert len(grid) == n and grid[0] == a and grid[-1] == b
    assert all(type(z) is float for z in grid)


@pytest.mark.parametrize("args, error, match", [
    ((0.0, 1.0, 0), ValueError, "count must be >= 1, got 0"),
    ((0.0, 1.0, 1), ValueError, "a count of 1 needs z_min == z_max"),
    ((1.0, 0.0, 3), ValueError, "strictly increasing"),
    ((float("nan"), float("nan"), 1), ValueError, "finite, got nan"),
    ((-1e308, 1e308, 3), ValueError, "span from -1e\\+308 to 1e\\+308 overflows"),
    ((0.0, 1.0, 2**62), MemoryError, "does not fit in memory"),
    ((0.0, 1.0, sys.maxsize), MemoryError, "does not fit in memory"),
], ids=["count-0", "one-unequal", "decreasing", "nan", "span", "2**62", "maxsize"])
def test_a_bad_z_grid_is_refused_before_any_allocation(monkeypatch, args, error, match):
    def no_grid(*args, **kwargs):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(np, "linspace", no_grid)
    with pytest.raises(error, match=match):
        z_grid(*args)


@pytest.mark.parametrize("args, message", [
    ((0.0, 1e-323, 5), "the span from 0.0 to 1e-323 holds fewer than 5 distinct z values"),
    ((0.0, 5e-324, 3), "the span from 0.0 to 5e-324 holds fewer than 3 distinct z values"),
    ((1.0, math.nextafter(1.0, 2.0), 3),
     "the span from 1.0 to 1.0000000000000002 holds fewer than 3 distinct z values"),
], ids=["subnormal-5", "one-ulp-of-zero", "one-ulp-of-one"])
def test_a_span_with_fewer_floats_than_the_count_is_refused(args, message):
    with pytest.raises(ValueError) as refused:
        z_grid(*args)
    assert str(refused.value) == message


def test_a_span_of_exactly_count_floats_is_a_grid():
    assert z_grid(0.0, 1e-323, 3) == [0.0, 5e-324, 1e-323]
