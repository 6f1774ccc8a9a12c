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
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Sequence, TypeVar

import numpy as np

from ._csvio import fmt_num, write_rows
from .image import Image, NoiseField, NoiseSpec, WindowSpec, add_noise, draw_noise, require_int
from .optics import LensState, OpticalConfig, blur_radius, check_kernel_fits
from .optics import convolve, make_pillbox_psf

if TYPE_CHECKING:
    from concurrent.futures import Future

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

    Pool. A noisy capture's noise is drawn on one module-wide thread pool
    sized to the usable CPUs, one ``draw_noise`` task per capture; numpy
    releases the GIL while it draws, and a draw depends only on its spec,
    not on the blur. So ``readings`` queues the draws of all its noisy
    captures before any blur, and ``draw_ahead`` queues those of probes a
    search has still to make, before their z is known. The calling thread
    blurs, then applies each draw and measures the capture in capture order,
    so no value depends on the worker count or on which draw finishes first.
    The draws in flight are keyed by spec and capped at ``workers * (y0 + h)
    * W`` samples, at least one field per worker: the prefix each in-flight
    draw allocates anyway, for a zone of h x w at row y0 of a frame W wide.
    An error, or the end of ``draw_ahead``, cancels the queued draws and
    awaits the running ones, so no draw outlives its call. A camera serves
    one calling thread. Workers never submit work to the pool, so callers
    waiting on their draws cannot deadlock it, however many share it.
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
        self.zone = zone = scene.crop(min(x0s), min(y0s), max(x1s), max(y1s))
        self.cfg = cfg
        self._blurred: dict[float, Image] = {}
        self._noiseless: dict[tuple[float, MetricKind], list[int]] = {}
        self._place = zone.origin, zone.frame_size[0], zone.height, zone.width
        # Draws in queue order: a future once submitted, None while waiting for room.
        self._draws: dict[NoiseSpec, Future | None] = {}
        self._submitted = 0
        workers = _usable_cpus()
        prefix = (zone.origin[1] + zone.height) * zone.frame_size[0]
        self._max_draws = max(workers, workers * prefix // (zone.height * zone.width))

    def readings(
        self, captures: Sequence[tuple[float, NoiseSpec]], kind: MetricKind
    ) -> list[list[int]]:
        """``[c][k]``: the metric of ``windows[k]`` in the capture ``captures[c] = (z, noise)``."""
        try:
            self._queue(spec for _, spec in captures)
            values = []
            for z, spec in captures:
                radius, zone = self._blurred_zone(z)
                if spec.sigma:
                    capture = add_noise(zone, self._take(spec))
                    values.append([resolution(capture, w, kind) for w in self.windows])
                    self._top_up()
                else:  # passes add_noise too, but each (radius, kind) is measured once
                    capture = add_noise(zone, spec)
                    key = radius, kind
                    if key not in self._noiseless:
                        self._noiseless[key] = [resolution(capture, w, kind) for w in self.windows]
                    values.append(list(self._noiseless[key]))
            return values
        except BaseException:
            self._drop()
            raise

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
        specs = _probe_specs(noise, first_index, len(zs), trials)
        captures = [(zs[c // trials], spec) for c, spec in enumerate(specs)]
        values = [reading for (reading,) in self.readings(captures, kind)]
        runs = [values[i * trials:(i + 1) * trials] for i in range(len(zs))]
        return [FocusSample(z, float(np.mean(r)), float(np.std(r)), trials)
                for z, r in zip(zs, runs)]

    @contextmanager
    def draw_ahead(self, noise: NoiseSpec, first_index: int, count: int, trials: int):
        """Queue the draws of ``count`` probes from ``first_index`` on, for ``probes`` to take.

        The draws are those ``probes`` would make for the same indices and
        trials. Leaving the block cancels the queued draws no probe took and
        awaits the running ones.
        """
        try:
            if noise.sigma:
                trials = require_int(trials, "trials", 1)
                self._queue(_probe_specs(noise, first_index, count, trials))
            yield
        finally:
            self._drop()

    def _blurred_zone(self, z: float) -> tuple[float, Image]:
        """The blur radius at z and the zone blurred by it, built on the radius's first use."""
        radius = blur_radius(self.cfg, LensState(z)).px
        zone = self._blurred.get(radius)
        if zone is None:
            check_kernel_fits(radius, self.zone.frame_size, f"z={z} mm reaches")
            zone = self._blurred[radius] = convolve(self.zone, make_pillbox_psf(radius))
        return radius, zone

    def _queue(self, specs: Iterable[NoiseSpec]) -> None:
        """Queue a draw for each noisy spec not queued yet, then submit what the cap allows."""
        for spec in specs:
            if spec.sigma:
                self._draws.setdefault(spec, None)
        self._top_up()

    def _top_up(self) -> None:
        """Submit queued draws, in queue order, while fewer than the cap are submitted."""
        if self._submitted == len(self._draws):
            return
        for spec, future in self._draws.items():
            if self._submitted >= self._max_draws:
                break
            if future is None:
                self._draws[spec] = _capture_pool().submit(draw_noise, spec, *self._place)
                self._submitted += 1

    def _take(self, spec: NoiseSpec) -> NoiseField:
        """The zone's draws for ``spec``: from the queue, or drawn here if not submitted."""
        future = self._draws.pop(spec, None)
        if future is None:
            return draw_noise(spec, *self._place)
        self._submitted -= 1
        return future.result()

    def _drop(self) -> None:
        """Cancel the queued draws and await the running ones."""
        futures = [future for future in self._draws.values() if future is not None]
        self._draws.clear()
        self._submitted = 0
        for future in futures:
            future.cancel()
        for future in futures:
            if not future.cancelled():
                future.exception()


def _probe_specs(noise: NoiseSpec, first_index: int, count: int, trials: int) -> list[NoiseSpec]:
    """The noise of trial t at probe ``first_index + i``, for each (i, t) in order."""
    return [noise.derived(first_index + i, t) for i in range(count) for t in range(trials)]


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
