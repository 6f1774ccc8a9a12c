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
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Sequence, TypeVar

import numpy as np

from ._csvio import fmt_num, write_rows
from .image import Image, NoiseSpec, WindowSpec, add_noise, draw_noise, require_int
from .optics import LensState, OpticalConfig, blur_radius, check_kernel_fits
from .optics import convolve, make_pillbox_psf

if TYPE_CHECKING:
    from concurrent.futures import Future

__all__ = [
    "MetricKind", "FocusSample", "FocusCurve", "Camera", "probe_noise", "resolution", "sweep",
]

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
    zone (see ``optics``). ``readings`` is the one capture route: sweeps,
    searches and both ``bench`` studies use it.

    Noise plan. ``noise[i]`` holds the spec of each trial at the i-th z the
    camera captures, counted over all its ``readings`` calls. A call for more
    z values than the plan has rows left raises ValueError before any blur,
    and a call that raises ends the plan.

    Caches. The blurred zone is cached by radius for the camera's life, so
    captures that share a radius, such as the +-z halves of a sweep, build
    one kernel and blur once; only the noise is drawn per capture. A miss
    checks that the kernel fits the frame before building it. Noiseless
    captures also cache their readings by (radius, kind): every such capture
    is the blurred zone itself, so a radius is measured once per kind
    however many probes and trials read it. The caches end with the camera;
    only the zone-transform memo of ``optics.convolve`` outlives it.

    Pool. A draw depends only on its spec, not on the blur, so the draws of
    the plan's noisy specs are queued in plan order on one module-wide
    thread pool sized to the usable CPUs, one ``draw_noise(spec, zone)`` task
    per capture (numpy releases the GIL while it draws): before the first blur,
    and again after each draw is applied. The calling thread blurs, applies
    the draws first in first out and measures each capture in plan order,
    so no value depends on the worker count or on which draw finishes first.
    The draws submitted and not yet applied are capped at
    ``workers * (y0 + h) * W`` samples, at least one field per worker: the
    prefix each in-flight draw allocates anyway, for a zone of h x w at row
    y0 of a frame W wide.

    Leaving the camera, a context manager, cancels the queued draws, awaits
    the running ones and ends the plan, so no draw outlives its call. A
    camera serves one calling thread, the first to call ``readings``: a call
    from any other thread raises RuntimeError naming both threads, before it
    touches the plan. Workers never submit work to the pool, so callers
    waiting on their draws cannot deadlock it, however many share it.
    """

    def __init__(
        self, scene: Image, cfg: OpticalConfig, windows: Sequence[WindowSpec],
        noise: Sequence[Sequence[NoiseSpec]],
    ):
        self._windows = tuple(windows)
        if not self._windows:
            raise ValueError("windows must be nonempty")
        boxes = []
        for window in self._windows:
            scene.region(window)  # reject window overflow before any heavy work
            x0, y0 = window.origin()
            boxes.append((x0, y0, x0 + window.n, y0 + window.n))
        x0s, y0s, x1s, y1s = zip(*boxes)
        self._zone = zone = scene.crop(min(x0s), min(y0s), max(x1s), max(y1s))
        self._cfg = cfg
        self._plan = [tuple(row) for row in noise]
        if not all(self._plan):
            raise ValueError("every row of the noise plan must hold at least one spec")
        self._next_row = 0
        self._owner: threading.Thread | None = None
        self._owner_lock = threading.Lock()
        self._blurred: dict[float, Image] = {}
        self._noiseless: dict[tuple[float, MetricKind], list[int]] = {}
        self._unsubmitted = (spec for row in self._plan for spec in row if spec.sigma)
        self._draws: deque[Future] = deque()
        workers = _usable_cpus()
        prefix = (zone.origin[1] + zone.height) * zone.frame_size[0]
        self._max_draws = max(workers, workers * prefix // (zone.height * zone.width))

    def __enter__(self) -> Camera:
        return self

    def __exit__(self, *exc) -> None:
        """End the plan, cancel the queued draws and await the running ones."""
        self._next_row = len(self._plan)
        self._unsubmitted = iter(())
        futures, self._draws = self._draws, deque()
        for future in futures:
            future.cancel()
        for future in futures:
            if not future.cancelled():
                future.exception()

    def readings(self, zs: Sequence[float], kind: MetricKind) -> list[list[list[int]]]:
        """``[i][t][k]``: the metric of window k in trial t of the capture at ``zs[i]``.

        The trials at ``zs[i]`` are noised with the plan's next row.
        """
        self._check_thread()
        first, end = self._next_row, self._next_row + len(zs)
        if end > len(self._plan):
            raise ValueError(f"{len(zs)} z values need more rows than the "
                             f"{len(self._plan) - first} left in the noise plan")
        # A call that raises ends the plan: its queue may be part way through a row.
        self._next_row = len(self._plan)
        self._submit()
        values = []
        for z, row in zip(zs, self._plan[first:end]):
            radius, zone = self._blurred_zone(z)
            trials = []
            for spec in row:
                if spec.sigma:
                    capture = add_noise(zone, self._draws.popleft().result())
                    trials.append([resolution(capture, w, kind) for w in self._windows])
                    self._submit()
                else:  # passes add_noise too, but each (radius, kind) is measured once
                    capture = add_noise(zone, spec)
                    key = radius, kind
                    if key not in self._noiseless:
                        self._noiseless[key] = [resolution(capture, w, kind) for w in self._windows]
                    trials.append(list(self._noiseless[key]))
            values.append(trials)
        self._next_row = end
        return values

    def probes(self, zs: Sequence[float], kind: MetricKind) -> list[FocusSample]:
        """Metric mean and population std of the one window over the trials at each z."""
        if len(self._windows) != 1:
            raise ValueError(f"probes need a camera with one window, got {len(self._windows)}")
        samples = []
        for z, trials in zip(zs, self.readings(zs, kind)):
            values = [reading for (reading,) in trials]
            samples.append(FocusSample(z, float(np.mean(values)), float(np.std(values)),
                                       len(values)))
        return samples

    def _check_thread(self) -> None:
        """Claim the camera for the first thread that reads it; refuse every other one."""
        thread = threading.current_thread()
        with self._owner_lock:
            if self._owner is None:
                self._owner = thread
        if self._owner is not thread:
            raise RuntimeError(f"thread {thread.name!r} called a camera that serves "
                               f"thread {self._owner.name!r}")

    def _blurred_zone(self, z: float) -> tuple[float, Image]:
        """The blur radius at z and the zone blurred by it, built on the radius's first use."""
        radius = blur_radius(self._cfg, LensState(z)).px
        zone = self._blurred.get(radius)
        if zone is None:
            check_kernel_fits(radius, self._zone.frame_size, f"z={z} mm reaches")
            zone = self._blurred[radius] = convolve(self._zone, make_pillbox_psf(radius))
        return radius, zone

    def _submit(self) -> None:
        """Submit the plan's next draws, in plan order, while fewer than the cap are held."""
        while len(self._draws) < self._max_draws:
            spec = next(self._unsubmitted, None)
            if spec is None:
                return
            self._draws.append(_capture_pool().submit(draw_noise, spec, self._zone))


def probe_noise(noise: NoiseSpec, count: int, trials: int) -> list[list[NoiseSpec]]:
    """The ``Camera`` noise plan of ``count`` probes of ``trials`` captures each.

    Trial t of probe i gets ``noise.derived(i, t)``, so a probe's noise
    depends only on its index, not on what else was probed.
    """
    trials = require_int(trials, "trials", 1)
    return [[noise.derived(i, t) for t in range(trials)] for i in range(count)]


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# The capture pool: built on first use, so importing focuslab starts no
# thread and does not load concurrent.futures.
_pool = None
_pool_lock = threading.Lock()


def _capture_pool():
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(_usable_cpus(), thread_name_prefix="focuslab-capture")
        return _pool


def _forget_pool() -> None:
    """Drop the pool in a forked child, whose copy of it has no threads."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


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
    with Camera(scene, cfg, [window], probe_noise(noise, len(zs), trials)) as camera:
        return FocusCurve(tuple(camera.probes(zs, kind)))


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
