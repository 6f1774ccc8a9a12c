"""Traced peak memory of the stages that allocate per pixel.

tracemalloc sees numpy's array buffers, so each peak here is what a call
allocates beyond what was live when tracing started. Each call runs once
untraced first, so one-off set-up is not counted.
"""

import tracemalloc

from focuslab import make_pillbox_psf, make_texture
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


def test_the_largest_autofocus_pillbox_peaks_at_6_mib_or_less():
    assert traced_peak(lambda: make_pillbox_psf(247.0)) <= 6.0 * MIB


def test_a_memo_miss_blur_of_the_autofocus_zone_peaks_at_8_mib_or_less(texture_512):
    # The 31x31 window at the centre of the 512x512 scene; a fresh crop has
    # no zone spectrum yet, so each blur also transforms the zone.
    psf = make_pillbox_psf(247.0)
    assert traced_peak(lambda: convolve(texture_512.crop(241, 241, 272, 272), psf)) <= 8.0 * MIB
