"""Windowed diagonal-gradient focus metrics and measured focus curves.

The metric sums Roberts-cross diagonal differences over an n x n window:
squared differences give a gradient-energy value, absolute differences a
cheaper gradient-magnitude variant. Either one peaks when the image is
sharpest, so sweeping lens displacement and plotting the value yields a
measured focus curve. ``Camera`` is the capture path every study shares:
it captures only the zone its windows read.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Sequence, TypeVar

import numpy as np

from ._csvio import fmt_num, write_rows
from .image import Image, NoiseSpec, WindowSpec, add_noise, draw_noise, refuse_bool, require_int
from .optics import LensState, OpticalConfig, ZoneSpectrum, blur_radius, check_kernel_fits
from .optics import _plan, convolve, make_pillbox_psf

if TYPE_CHECKING:
    from concurrent.futures import Future

__all__ = [
    "MetricKind", "FocusSample", "FocusCurve", "Camera", "resolution", "sweep",
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
    window is constant. A position's two terms add to at most 2 * 255^2, so
    they fit int32; the sum over positions is taken in int64.
    """
    e = image.region(window).astype(np.int32)
    d_main = e[:-1, :-1] - e[1:, 1:]
    d_anti = e[1:, :-1] - e[:-1, 1:]
    if kind is MetricKind.SQUARED:
        np.multiply(d_main, d_main, out=d_main)
        np.multiply(d_anti, d_anti, out=d_anti)
    elif kind is MetricKind.ABSOLUTE:
        np.abs(d_main, out=d_main)
        np.abs(d_anti, out=d_anti)
    else:
        raise TypeError(f"unknown metric kind {kind!r}")
    d_main += d_anti
    return int(d_main.sum(dtype=np.int64))


class Camera:
    """Virtual camera for one study call that captures only the zone its windows read.

    The windows are fixed at construction and every capture is read through
    all of them; the zone is their bounding box, which must fit the scene.
    A capture blurs the zone plus a halo, draws noise only through the zone's
    last row, and yields the whole-frame ``optics.capture`` cropped to the
    zone (see ``optics``). ``readings``, the one capture route of sweeps,
    searches and both ``bench`` studies, fills one int64 array per call.

    Noise plan. The i-th z the camera captures, counted over all its
    ``readings`` calls, is captured ``trials`` times, and trial t is noised
    with ``noise.derived(*paths[i], t)``. A spec is derived only when its
    draw is queued, so building a camera costs the same for any trial
    count; with sigma = 0 every spec is the identity: the camera derives one, its first
    row's first, when it is built, and noises each row by it once. A call by a kind
    that is not a ``MetricKind`` (TypeError), for more z values than ``paths`` has
    left (ValueError) or for more readings than memory holds (MemoryError) raises
    before any blur. A call that raises ends the plan.

    Cache. The camera keeps one entry per blur radius for its life: the
    blurred zone and the noiseless readings of that zone by kind. Captures
    that share a radius, such as the +-z halves of a sweep, build one kernel
    and blur once; only the noise is drawn per capture. A ``readings`` call
    checks that the kernel of every z, in call order, fits the frame before
    it builds any kernel. Every noiseless capture is the
    blurred zone itself, so a radius is measured once per kind however many
    probes and trials read it: by the call's kind on the lane that blurs it,
    and by any other kind on the calling thread when a later call reads it
    by that kind. The camera also keeps the zone spectrum its last transform
    made (``optics.ZoneSpectrum``), so a later call, such as a search's
    refine probe, blurs through it where its plan allows. Both end with the
    camera; ``optics.convolve`` keeps nothing.

    Pool. One module-wide thread pool, sized to the usable CPUs, runs two
    kinds of task; numpy releases the GIL while it draws and transforms.
    A draw depends only on its spec, not on the blur, so with sigma > 0 the
    plan's draws are queued in plan order, one ``draw_noise(spec,
    zone)`` task per capture: before a call's blurs, and again after each
    draw is applied. For a zone of h x w at row y0 of a frame W wide, the
    draws submitted and not yet applied are capped at ``workers * (y0 + h) *
    W`` samples of fields: at least one field per worker, because
    (y0 + h) * W >= h * w. A running draw holds under 64 Ki samples plus
    its zone's h rows (see ``image.draw_noise``), not that prefix, but the
    cap stays a whole prefix per worker: it sets how far the
    draws run ahead of the captures, and so the draw schedule and the draws
    made per op, which this keeps as they were when each draw held its prefix.
    The cap never binds on the benchmark's autofocus-512 op: its 125
    captures are under the 289 draws two workers may hold, so all of them
    are queued at its first call.

    Blur lanes. Before it captures, a call plans its new radii, largest
    first (``optics._plan``): from the camera's spectrum, each radius gets
    the zone spectrum it blurs through, and each new spectrum is one zone
    transform, made on its first use. The camera keeps the plan's last
    spectrum, and the calling thread transforms the first, unless the
    camera's serves; only then does the call start min(radii, usable CPUs)
    minus 1 pool tasks. The calling thread and each of them pop one radius
    at a time from one queue until it is empty, the largest included, and
    blur it through its planned spectrum; the first lane to blur through a
    later spectrum transforms it, and a lane that pops another radius of it
    meanwhile waits. So a call's transforms depend on its radii and the
    camera's spectrum alone, not on the lanes. With sigma = 0 a lane also
    measures each zone it blurs, through every window by the call's kind;
    with sigma > 0 it only blurs. A lane task not yet started when the calling thread finds
    the queue empty is cancelled, having nothing left to take, so lanes
    queued behind draws cost no wait. A lane that raises clears the queue,
    so the others stop after the radius they hold. The lane tasks end with
    the call: it cancels or awaits them before it returns or raises, and an
    error on any lane reaches the caller. The calling thread then applies
    the draws first in first out and measures each noisy capture in plan
    order, so no value depends on the worker count, the lanes or which task
    finishes first.

    Leaving the camera, a context manager, cancels the queued draws, awaits
    the running ones and ends the plan, so no task outlives its call.
    A camera serves the thread that builds it: a ``readings`` call from any
    other thread raises RuntimeError naming both threads, before it touches
    the plan. Workers never submit work to the pool or wait on it, so
    callers waiting on their tasks cannot deadlock it, however many share it.
    """

    def __init__(
        self, scene: Image, cfg: OpticalConfig, windows: Sequence[WindowSpec],
        noise: NoiseSpec, paths: Sequence[tuple[int, ...]], trials: int,
    ):
        self._trials = require_int(trials, "trials", 1)
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
        self._noise, self._rows_left = noise, len(paths)
        self._identity = noise.derived(*paths[0], 0) if paths and not noise.sigma else None
        self._owner = threading.current_thread()
        self._blurred: dict[float, tuple[Image, dict[MetricKind, list[int]]]] = {}
        self._spectrum: ZoneSpectrum | None = None
        self._unsubmitted = (noise.derived(*path, t) for path in paths
                             for t in range(self._trials)) if noise.sigma else iter(())
        self._draws: deque[Future] = deque()
        workers = _usable_cpus()
        prefix = (zone.origin[1] + zone.height) * zone.frame_size[0]
        self._max_draws = workers * prefix // (zone.height * zone.width)

    def __enter__(self) -> Camera:
        return self

    def __exit__(self, *exc) -> None:
        """End the plan, cancel the queued draws and await the running ones."""
        self._rows_left = 0
        self._unsubmitted = iter(())
        draws, self._draws = self._draws, deque()
        _settle(draws)

    def readings(self, zs: Sequence[float], kind: MetricKind) -> np.ndarray:
        """int64 ``[i, t, k]``: the metric of window k in trial t of the capture at ``zs[i]``.

        The trials at ``zs[i]`` take the plan's next row (see the class docstring).
        """
        thread = threading.current_thread()
        if thread is not self._owner:
            raise RuntimeError(f"thread {thread.name!r} called a camera that serves "
                               f"thread {self._owner.name!r}")
        if not isinstance(kind, MetricKind):
            raise TypeError(f"unknown metric kind {kind!r}")
        if len(zs) > self._rows_left:
            raise ValueError(f"{len(zs)} z values need more rows than the "
                             f"{self._rows_left} left in the noise plan")
        # A call that raises ends the plan: its queue may be part way through a row.
        rows_left, self._rows_left = self._rows_left - len(zs), 0
        radii = [blur_radius(self._cfg, LensState(z)).px for z in zs]
        for z, radius in zip(zs, radii):
            check_kernel_fits(radius, self._zone.frame_size, f"z={z} mm reaches")
        new = set(radii).difference(self._blurred)
        try:
            values = np.empty((len(zs), self._trials, len(self._windows)), dtype=np.int64)
        except ValueError:  # numpy's "array is too big": its byte count overflows
            raise MemoryError("the readings do not fit in memory") from None
        self._submit()
        self._blur(new, None if self._noise.sigma else kind)
        for row, radius in zip(values, radii):
            zone, noiseless = self._blurred[radius]
            if self._noise.sigma:
                for trial in row:
                    capture = add_noise(zone, self._draws.popleft().result())
                    trial[:] = [resolution(capture, w, kind) for w in self._windows]
                    self._submit()
            else:  # every spec is the identity: one per camera, each (radius, kind) measured once
                capture = add_noise(zone, self._identity)
                if kind not in noiseless:
                    noiseless[kind] = [resolution(capture, w, kind) for w in self._windows]
                row[:] = noiseless[kind]
        self._rows_left = rows_left
        return values

    def probes(self, zs: Sequence[float], kind: MetricKind) -> list[FocusSample]:
        """Metric mean and population std of the one window over the trials at each z."""
        if len(self._windows) != 1:
            raise ValueError(f"probes need a camera with one window, got {len(self._windows)}")
        values = self.readings(zs, kind)[..., 0]
        means, stds = np.mean(values, axis=1).tolist(), np.std(values, axis=1).tolist()
        return [FocusSample(z, mean, std, self._trials) for z, mean, std in zip(zs, means, stds)]

    def _blur(self, radii: Iterable[float], kind: MetricKind | None) -> None:
        """Cache the zone blurred at each radius, on the blur lanes of the class docstring.

        With ``kind`` set, the lanes also measure each blurred zone by that kind.
        """
        radii = sorted(radii, reverse=True)
        queue = deque(zip(radii, _plan(self._zone, radii, self._spectrum)))
        if not queue:
            return
        # The camera keeps the plan's last spectrum. Its old one, unless the
        # plan reuses it, is freed before the transform that replaces it.
        self._spectrum = next((spectrum for _, spectrum in reversed(queue) if spectrum),
                              self._spectrum)
        if queue[0][1]:
            queue[0][1].transform()  # the first zone transform, on the calling thread
        blurred: dict[float, tuple[Image, dict[MetricKind, list[int]]]] = {}
        futures: list[Future] = []
        try:
            for _ in range(min(len(queue), _usable_cpus()) - 1):
                futures.append(_capture_pool().submit(
                    _blur_lane, self._zone, queue, self._windows, kind))
            blurred.update(_blur_lane(self._zone, queue, self._windows, kind))
            for future in futures:
                if not future.cancel():  # a lane not started now has nothing left to take
                    blurred.update(future.result())
        finally:
            _settle(futures)
        self._blurred.update(blurred)

    def _submit(self) -> None:
        """Submit the plan's next draws, in plan order, while fewer than the cap are held."""
        for spec in itertools.islice(self._unsubmitted, self._max_draws - len(self._draws)):
            self._draws.append(_capture_pool().submit(draw_noise, spec, self._zone))


def _blur_lane(
    zone: Image, queue: deque[tuple[float, ZoneSpectrum | None]], windows: Sequence[WindowSpec],
    kind: MetricKind | None,
) -> dict[float, tuple[Image, dict[MetricKind, list[int]]]]:
    """Blur ``zone`` at each radius it pops from ``queue``, through its planned spectrum.

    Each radius maps to its blurred zone and, with ``kind`` set, that zone's
    readings through ``windows`` by kind. An error clears the queue, so the
    other lanes take no further radius.
    """
    blurred = {}
    try:
        while True:
            try:
                radius, spectrum = queue.popleft()
            except IndexError:
                return blurred
            image = convolve(spectrum or zone, make_pillbox_psf(radius))
            readings = {kind: [resolution(image, w, kind) for w in windows]} if kind else {}
            blurred[radius] = image, readings
    finally:
        queue.clear()


def _settle(futures: Sequence[Future]) -> None:
    """Cancel the tasks that have not started and await the others, dropping their errors."""
    for future in futures:
        future.cancel()
    for future in futures:
        if not future.cancelled():
            future.exception()


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
            refuse_bool(value := getattr(self, name), name)
            if not math.isfinite(value):
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
    with Camera(scene, cfg, [window], noise, [(i,) for i in range(len(zs))], trials) as camera:
        return FocusCurve(tuple(camera.probes(zs, kind)))


def z_list(z_values: Iterable[float]) -> list[float]:
    """Given z values as floats; a ValueError unless nonempty, finite and strictly increasing."""
    zs = [float(z) for z in z_values]
    if not zs:
        raise ValueError("z_values must be nonempty")
    for z in zs:
        if not math.isfinite(z):
            raise ValueError(f"z_values must be finite, got {z}")
    if any(b <= a for a, b in zip(zs, zs[1:])):
        raise ValueError("z_values must be strictly increasing")
    return zs


def z_grid(z_min: float, z_max: float, count: int) -> list[float]:
    """``np.linspace(z_min, z_max, count)`` as floats, both ends exact: the one z grid builder.

    A ValueError names a non-finite bound as given, a count below 1, unequal
    bounds for one value, and, for more, bounds that do not increase, whose span
    overflows, or whose span holds fewer than ``count`` distinct floats. A count
    numpy cannot address raises MemoryError, allocating nothing.
    """
    (z_min,), (z_max,) = z_list([z_min]), z_list([z_max])  # a bad bound first, named as given
    if (count := require_int(count, "count", 1)) == 1:
        if z_min != z_max:
            raise ValueError(f"a count of 1 needs z_min == z_max, got [{z_min}, {z_max}]")
        return [z_min]
    z_list([z_min, z_max])
    if not math.isfinite(z_max - z_min):
        raise ValueError(f"z_values must be finite, but the span from {z_min} to {z_max} "
                         "overflows a float")
    if count > np.iinfo(np.intp).max // 16:  # numpy cannot address it as linspace's float count
        raise MemoryError("the z grid does not fit in memory")
    with np.errstate(over="ignore"):  # only the last value can overflow; linspace sets it to z_max
        grid = np.linspace(z_min, z_max, count)
    if not (grid[1:] > grid[:-1]).all():
        raise ValueError(f"the span from {z_min} to {z_max} holds fewer than {count} distinct "
                         "z values")
    return grid.tolist()
