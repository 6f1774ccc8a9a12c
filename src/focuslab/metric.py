"""Windowed diagonal-gradient focus metrics and measured focus curves.

The metric sums Roberts-cross diagonal differences over an n x n window:
squared differences give a gradient-energy value, absolute differences a
cheaper gradient-magnitude variant. Either one peaks when the image is
sharpest, so sweeping lens displacement and plotting the value yields a
measured focus curve. ``Camera`` is the capture path every study shares:
it captures only the zone its windows read.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence, TypeVar

import numpy as np

from ._csvio import fmt_num, write_rows
from .image import Image, NoiseSpec, WindowSpec, add_noise, require_int
from .optics import LensState, OpticalConfig, blur_radius, check_kernel_fits
from .optics import convolve, make_pillbox_psf

__all__ = ["MetricKind", "FocusSample", "FocusCurve", "Camera", "resolution", "sweep"]

P = TypeVar("P")


class MetricKind(Enum):
    """Which reduction to apply to the diagonal differences."""

    SQUARED = "squared"
    ABSOLUTE = "absolute"


def resolution(image: Image, window: WindowSpec, kind: MetricKind) -> int:
    """Focus metric over the window: sum of Roberts-cross diagonal terms.

    With e the n x n window samples, every interior position contributes
    (e[i,j] - e[i+1,j+1]) and (e[i+1,j] - e[i,j+1]), squared or absolute
    according to ``kind``. Exact integer arithmetic; zero exactly when the
    window is constant. A term is at most 255^2, so it fits int32; the sums
    are taken in int64.
    """
    e = image.region(window).astype(np.int32)
    d_main = e[:-1, :-1] - e[1:, 1:]
    d_anti = e[1:, :-1] - e[:-1, 1:]
    if kind is MetricKind.SQUARED:
        terms = (d_main * d_main, d_anti * d_anti)
    elif kind is MetricKind.ABSOLUTE:
        terms = (np.abs(d_main), np.abs(d_anti))
    else:
        raise TypeError(f"unknown metric kind {kind!r}")
    return int(terms[0].sum(dtype=np.int64) + terms[1].sum(dtype=np.int64))


class Camera:
    """Virtual camera for one study call that captures only the zone its windows read.

    The windows are fixed at construction and every capture is read through
    all of them; the zone is their bounding box, which must fit the scene.
    A capture blurs the zone plus a halo, draws noise only through the zone's
    last row, and yields the whole-frame ``optics.capture`` cropped to the
    zone (see ``optics``). ``readings`` of a flat (z, noise) capture list is
    the one capture route: sweeps, searches and both ``bench`` studies use it.

    Caches. The blurred zone is cached by radius for the camera's life, so
    captures that share a radius, such as the +-z halves of a sweep, build
    one kernel and blur once; only the noise is drawn per capture. A miss
    checks that the kernel fits the frame before building it. Noiseless
    captures also cache their readings by (radius, kind): every such capture
    is the blurred zone itself, so a radius is measured once per kind
    however many probes and trials read it. The caches end with the camera;
    only the zone-transform memo of ``optics.convolve`` outlives it.

    Pool. Noisy captures are noised and measured on one module-wide thread
    pool sized to the usable CPUs, one ``_read`` task per capture; numpy
    releases the GIL while it draws. The calling thread blurs and hands each
    capture to the pool as soon as its blur is ready, so later blurs overlap
    earlier draws. A call whose captures are all noiseless stays on the
    calling thread, where the metric cache lives; a camera serves one calling
    thread. Results are read in submission order, so no value depends on the
    worker count or on which capture finishes first. Workers never submit
    work to the pool, so callers waiting on their captures cannot deadlock
    it, however many of them share it.
    """

    def __init__(self, scene: Image, cfg: OpticalConfig, windows: Sequence[WindowSpec]):
        self.windows = tuple(windows)
        if not self.windows:
            raise ValueError("windows must be nonempty")
        boxes = []
        for window in self.windows:
            scene.region(window)  # reject window overflow before any heavy work
            x0, y0 = window.origin()
            boxes.append((x0, y0, x0 + window.n, y0 + window.n))
        x0s, y0s, x1s, y1s = zip(*boxes)
        self.zone = scene.crop(min(x0s), min(y0s), max(x1s), max(y1s))
        self.cfg = cfg
        self._blurred: dict[float, Image] = {}
        self._noiseless: dict[tuple[float, MetricKind], list[int]] = {}

    def readings(
        self, captures: Sequence[tuple[float, NoiseSpec]], kind: MetricKind
    ) -> list[list[int]]:
        """``[c][k]``: the metric of ``windows[k]`` in the capture ``captures[c] = (z, noise)``."""

        def blurred():
            for z, spec in captures:
                radius = blur_radius(self.cfg, LensState(z)).px
                zone = self._blurred.get(radius)
                if zone is None:
                    check_kernel_fits(radius, self.zone.frame_size, f"z={z} mm reaches")
                    zone = self._blurred[radius] = convolve(self.zone, make_pillbox_psf(radius))
                yield radius, zone, spec

        if any(spec.sigma for _, spec in captures):
            return _on_pool((zone, spec, self.windows, kind) for _, zone, spec in blurred())
        # All captures pass add_noise; each (radius, kind) is measured once and copied per capture.
        values = []
        for radius, zone, spec in blurred():
            key = radius, kind
            measured = _read(zone, spec, () if key in self._noiseless else self.windows, kind)
            values.append(list(self._noiseless.setdefault(key, measured)))
        return values

    def probes(
        self, zs: Sequence[float], noise: NoiseSpec, first_index: int, trials: int,
        kind: MetricKind,
    ) -> list[FocusSample]:
        """Metric mean and population std of the one window over ``trials`` captures at each z.

        Trial t at the i-th z is noised with the spec ``noise`` derives from
        (``first_index + i``, t), so a probe's noise depends on its index, not
        on what else was probed.
        """
        trials = require_int(trials, "trials", 1)
        if len(self.windows) != 1:
            raise ValueError(f"probes need a camera with one window, got {len(self.windows)}")
        captures = [(z, noise.derived(first_index + i, t))
                    for i, z in enumerate(zs) for t in range(trials)]
        values = [reading for (reading,) in self.readings(captures, kind)]
        runs = [values[i * trials:(i + 1) * trials] for i in range(len(zs))]
        return [FocusSample(z, float(np.mean(r)), float(np.std(r)), trials)
                for z, r in zip(zs, runs)]


def _read(
    blurred: Image, noise: NoiseSpec, windows: Sequence[WindowSpec], kind: MetricKind
) -> list[int]:
    """Noise one capture of a blurred zone and measure each window: the one pool task."""
    capture = add_noise(blurred, noise)
    return [resolution(capture, window, kind) for window in windows]


# The capture pool: built on first use, so importing focuslab starts no
# thread and does not load concurrent.futures.
_pool = None
_pool_lock = threading.Lock()


def _capture_pool():
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor

            if hasattr(os, "sched_getaffinity"):
                workers = len(os.sched_getaffinity(0))
            else:
                workers = os.cpu_count() or 1
            _pool = ThreadPoolExecutor(workers, thread_name_prefix="focuslab-capture")
        return _pool


def _forget_pool() -> None:
    """Drop the pool in a forked child, whose copy of it has no threads."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _on_pool(calls: Iterable[tuple]) -> list:
    """Run ``_read(*args)`` on the capture pool for each ``args`` of ``calls``; results in order.

    Each task is submitted as soon as ``calls`` yields its arguments, so work
    a generator does between items overlaps the tasks already submitted. If
    ``calls`` or a task raises, the tasks not yet started are cancelled and
    the running ones awaited before the error propagates, so no capture
    outlives its call.
    """
    pool = _capture_pool()
    futures = []
    try:
        for args in calls:
            futures.append(pool.submit(_read, *args))
        return [future.result() for future in futures]
    except BaseException:
        for future in futures:
            future.cancel()
        for future in futures:
            if not future.cancelled():
                future.exception()
        raise


@dataclass(frozen=True)
class FocusSample:
    """Metric statistics at one lens displacement."""

    z_mm: float
    d_mean: float
    d_stddev: float
    n_trials: int

    def __post_init__(self) -> None:
        for name in ("z_mm", "d_mean", "d_stddev"):
            if not math.isfinite(value := getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.d_mean < 0 or self.d_stddev < 0:
            raise ValueError("metric statistics must be nonnegative")
        object.__setattr__(self, "n_trials", require_int(self.n_trials, "n_trials", 1))


CSV_HEADER = "z_mm,d_mean,d_stddev,n_trials"


def best_probe(probes: Iterable[P]) -> P:
    """The first probe with the highest ``d_mean``; ties go to smaller |z|, then smaller z."""
    return min(probes, key=lambda p: (-p.d_mean, abs(p.z_mm), p.z_mm))


@dataclass(frozen=True)
class FocusCurve:
    """Measured focus curve: metric statistics sampled over displacements."""

    entries: tuple[FocusSample, ...]

    def __post_init__(self) -> None:
        entries = tuple(self.entries)
        z_list(s.z_mm for s in entries)
        object.__setattr__(self, "entries", entries)

    def z_values(self) -> np.ndarray:
        return np.array([s.z_mm for s in self.entries])

    def d_means(self) -> np.ndarray:
        return np.array([s.d_mean for s in self.entries])

    def argmax_z(self) -> float:
        """Displacement with the highest mean metric; ties go to smaller |z|."""
        return best_probe(self.entries).z_mm

    def write_csv(self, dest) -> None:
        """CSV export: header ``z_mm,d_mean,d_stddev,n_trials``, one row per z."""
        rows = [
            (fmt_num(s.z_mm), fmt_num(s.d_mean), fmt_num(s.d_stddev), str(s.n_trials))
            for s in self.entries
        ]
        write_rows(dest, CSV_HEADER, rows)


def sweep(
    scene: Image,
    cfg: OpticalConfig,
    window: WindowSpec,
    kind: MetricKind,
    z_values: Sequence[float],
    noise: NoiseSpec,
    trials: int,
) -> FocusCurve:
    """Drive the virtual camera across lens displacements and record the metric.

    The probe at the i-th z captures the scene ``trials`` times with seeds
    derived from (i, trial index), blurring once since only the noise draw
    varies, and records the mean and population standard deviation of the
    metric (``Camera.probes``).
    """
    zs = z_list(z_values)
    camera = Camera(scene, cfg, [window])
    return FocusCurve(tuple(camera.probes(zs, noise, 0, trials, kind)))


def z_list(z_values: Iterable[float]) -> list[float]:
    """``z_values`` as floats; a ValueError unless nonempty, finite and strictly increasing."""
    zs = [float(z) for z in z_values]
    if not zs:
        raise ValueError("z_values must be nonempty")
    for z in zs:
        if not math.isfinite(z):
            raise ValueError(f"z_values must be finite, got {z}")
    if any(b <= a for a, b in zip(zs, zs[1:])):
        raise ValueError("z_values must be strictly increasing")
    return zs
