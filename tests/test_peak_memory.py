"""Traced peak memory of the stages that allocate per pixel.

tracemalloc sees numpy's array buffers, so each peak here is what a call
allocates beyond what was live when tracing started. Each call runs once
untraced first, so one-off set-up is not counted.
"""

import tracemalloc

import numpy as np
import pytest

import focuslab.metric
from focuslab import (
    LensState,
    MetricKind,
    NoiseSpec,
    WindowSpec,
    blur_radius,
    draw_noise,
    make_pillbox_psf,
    make_texture,
    sweep,
)
from focuslab.optics import convolve

MIB = 2**20


def traced_peak(call) -> int:
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_512_texture_peaks_at_80_bytes_per_pixel_or_less():
    assert traced_peak(lambda: make_texture(512, 512, 99)) <= 80 * 512 * 512


def test_the_largest_autofocus_pillbox_peaks_at_2_mib_or_less():
    # The kernel keeps its 248x248 quadrant, 0.47 MiB, and never builds the
    # 495x495 whole (1.9 MiB): the build peaks at 1.6 MiB.
    assert traced_peak(lambda: make_pillbox_psf(247.0)) <= 2.0 * MIB


def test_an_autofocus_zone_draw_peaks_at_0_75_mib_or_less(texture_512):
    # The 31x31 window at the centre of the 512x512 scene: of the 241 rows
    # of 512 px above it, one whole 64 Ki-sample chunk (0.5 MiB) is skipped
    # through a buffer, then the rest are drawn with the zone's 31 rows
    # (0.56 MiB). It peaks at 0.58 MiB; the whole 272-row prefix took 1.08.
    zone = texture_512.crop(241, 241, 272, 272)
    assert traced_peak(lambda: draw_noise(NoiseSpec(2.0, 11), zone)) <= 0.75 * MIB


def test_a_memo_miss_blur_of_the_autofocus_zone_peaks_at_8_mib_or_less(texture_512):
    # The 31x31 window at the centre of the 512x512 scene; a fresh crop has
    # no zone spectrum yet, so each blur also transforms the zone. It peaks
    # at 5.2 MiB, the kernel spectrum's cosine products included.
    psf = make_pillbox_psf(247.0)
    assert traced_peak(lambda: convolve(texture_512.crop(241, 241, 272, 272), psf)) <= 8.0 * MIB


def test_a_sweep_256_blurs_on_two_lanes_in_5_5_mib_or_less(monkeypatch, texture_256, bench_config):
    # The sweep-256 shape: 33 noiseless z values out to a 30 px radius and a
    # 255x255 window on a 256x256 scene, so 16 kernels, all blurred at the
    # largest one's 320x320 FFT shape through one zone spectrum. One lane
    # peaks at 3.5 MiB, the 17 cached blurs and their readings included, and
    # two lanes sharing one radius queue at 4.3-5.2 MiB, each blur's real
    # half spectrum included. Four lanes on a four-worker pool peaked at
    # 7.1-8.4 MiB.
    focuslab.metric._capture_pool()  # built for the host before the lane count is set
    monkeypatch.setattr(focuslab.metric, "_usable_cpus", lambda: 2)
    px_per_mm = blur_radius(bench_config, LensState(1.0)).px
    positive = [30.0 / px_per_mm * k / 16 for k in range(1, 17)]
    zs = [-z for z in reversed(positive)] + [0.0] + positive
    window = WindowSpec(128, 128, 255)
    peak = traced_peak(lambda: sweep(texture_256, bench_config, window, MetricKind.SQUARED, zs,
                                     NoiseSpec(0.0), 1))
    assert peak <= 5.5 * MIB


@pytest.mark.parametrize(("sigma", "trials"), ((0.0, 20_000), (2.0, 2_000)))
def test_a_sweep_holds_32_bytes_or_less_per_trial(monkeypatch, bench_config, sigma, trials):
    # A 15x15 window on a 64x64 texture over 11 z values: the readings take
    # 8 B per trial and probes' std one float64 temporary of the same size.
    # A sigma = 0 sweep peaks at 16 B per trial and a sigma = 2 sweep, its
    # draws in flight on two workers included, at 22 B.
    focuslab.metric._capture_pool()  # built for the host before the worker count is set
    monkeypatch.setattr(focuslab.metric, "_usable_cpus", lambda: 2)
    scene, window = make_texture(64, 64, 5), WindowSpec(32, 32, 15)
    zs = np.linspace(-0.2, 0.2, 11).tolist()
    peak = traced_peak(lambda: sweep(scene, bench_config, window, MetricKind.SQUARED, zs,
                                     NoiseSpec(sigma, 7), trials))
    assert peak <= 32 * len(zs) * trials
