"""Windowed diagonal-gradient focus metrics and measured focus curves.

The metric sums Roberts-cross diagonal differences over an n x n window:
squared differences give a gradient-energy value, absolute differences a
cheaper gradient-magnitude variant. Either one peaks when the image is
sharpest, so sweeping lens displacement and plotting the value yields a
measured focus curve. ``Camera`` is the capture path every study shares:
it captures only the zone its windows read.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence, TypeVar

import numpy as np

from ._csvio import fmt_num, write_rows
from .image import Image, NoiseSpec, WindowSpec, add_noise, require_int
from .optics import LensState, OpticalConfig, blur_radius, convolve, make_pillbox_psf

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

    The zone is the bounding box of ``windows``, which must fit the scene.
    Each capture blurs the zone plus a halo and draws noise only through the
    zone's last row, and yields the same pixels as the whole-frame
    ``optics.capture`` cropped to the zone (see ``optics``). ``readings`` is
    the one capture route: sweeps, searches and stability studies all go
    through it.

    Caches. The blurred zone is cached by radius for the camera's life, so
    captures that share a radius, such as the +-z halves of a sweep, build
    one kernel and blur once; only the noise is drawn per capture. Noiseless
    captures also cache the metric value by (radius, window, kind): every
    such capture is the blurred zone itself, so a radius is measured once
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
        if not windows:
            raise ValueError("windows must be nonempty")
        boxes = []
        for window in windows:
            scene.region(window)  # reject window overflow before any heavy work
            x0, y0 = window.origin()
            boxes.append((x0, y0, x0 + window.n, y0 + window.n))
        x0s, y0s, x1s, y1s = zip(*boxes)
        self.zone = scene.crop(min(x0s), min(y0s), max(x1s), max(y1s))
        self.cfg = cfg
        self._blurred: dict[float, Image] = {}
        self._noiseless: dict[tuple[float, WindowSpec, MetricKind], int] = {}

    def readings(
        self, zs: Sequence[float], specs: Sequence[Sequence[NoiseSpec]],
        windows: Sequence[WindowSpec], kind: MetricKind,
    ) -> list[list[list[int]]]:
        """``[i][t][k]``: the metric of ``windows[k]`` in capture t at ``zs[i]``.

        Capture t at ``zs[i]`` is noised with ``specs[i][t]``; the captures at
        one z share one blur.
        """
        if len(zs) != len(specs):
            raise ValueError(f"need one row of noise specs per z, got {len(specs)} for {len(zs)}")

        def captures():
            for z, row in zip(zs, specs):
                radius = blur_radius(self.cfg, LensState(z)).px
                blurred = self._blurred.get(radius)
                if blurred is None:
                    blurred = self._blurred[radius] = convolve(self.zone, make_pillbox_psf(radius))
                for spec in row:
                    yield radius, blurred, spec

        if any(spec.sigma for row in specs for spec in row):
            flat = _on_pool((blurred, spec, windows, kind) for _, blurred, spec in captures())
        else:  # every capture is its blurred zone: measure each (radius, window, kind) once
            flat = []
            cache = self._noiseless
            for radius, blurred, spec in captures():
                missing = [w for w in windows if (radius, w, kind) not in cache]
                for window, value in zip(missing, _read(blurred, spec, missing, kind)):
                    cache[radius, window, kind] = value
                flat.append([cache[radius, window, kind] for window in windows])
        values = iter(flat)
        return [[next(values) for _ in row] for row in specs]

    def probes(
        self, zs: Sequence[float], noise: NoiseSpec, first_index: int, trials: int,
        window: WindowSpec, kind: MetricKind,
    ) -> list[FocusSample]:
        """Metric mean and population std of ``window`` over ``trials`` captures at each z.

        Trial t at the i-th z is noised with the spec ``noise`` derives from
        (``first_index + i``, t), so a probe's noise depends on its index, not
        on what else was probed.
        """
        specs = [[noise.derived(first_index + i, t) for t in range(trials)] for i in range(len(zs))]
        samples = []
        for z, captures in zip(zs, self.readings(zs, specs, [window], kind)):
            values = [capture[0] for capture in captures]
            samples.append(FocusSample(z, float(np.mean(values)), float(np.std(values)), trials))
        return samples


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
        if self.d_mean < 0 or self.d_stddev < 0:
            raise ValueError("metric statistics must be nonnegative")
        if self.n_trials < 1:
            raise ValueError(f"n_trials must be >= 1, got {self.n_trials}")


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
        if not entries:
            raise ValueError("focus curve needs at least one entry")
        zs = [s.z_mm for s in entries]
        if any(b <= a for a, b in zip(zs, zs[1:])):
            raise ValueError("curve z values must be strictly increasing")
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
    zs = [float(z) for z in z_values]
    if not zs:
        raise ValueError("z_values must be nonempty")
    if any(b <= a for a, b in zip(zs, zs[1:])):
        raise ValueError("z_values must be strictly increasing")
    trials = require_int(trials, "trials", 1)
    camera = Camera(scene, cfg, [window])
    return FocusCurve(tuple(camera.probes(zs, noise, 0, trials, window, kind)))
