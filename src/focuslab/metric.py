"""Windowed diagonal-gradient focus metrics and measured focus curves.

The metric sums Roberts-cross diagonal differences over an n x n window:
squared differences give a gradient-energy value, absolute differences a
cheaper gradient-magnitude variant. Either one peaks when the image is
sharpest, so sweeping lens displacement and plotting the value yields a
measured focus curve. ``Camera`` is the capture path every study shares:
it captures only the zone its windows read.
"""

from __future__ import annotations

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
    ``optics.capture`` cropped to the zone (see ``optics``).
    The blurred zone is cached by radius for the camera's life, so probes
    that share a radius, such as the +-z halves of a sweep, build one kernel
    and blur once. Noiseless probes also cache the metric value by (radius,
    window, kind): every such capture is the blurred zone itself, so a radius
    is measured once however many probes and trials read it.
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

    def frames(self, lens: LensState, noises: Sequence[NoiseSpec]) -> list[Image]:
        """One noisy capture of the zone per noise spec, all sharing one blur."""
        radius = blur_radius(self.cfg, lens).px
        blurred = self._blurred.get(radius)
        if blurred is None:
            blurred = self._blurred[radius] = convolve(self.zone, make_pillbox_psf(radius))
        return [add_noise(blurred, noise) for noise in noises]

    def probe(
        self, z: float, noise: NoiseSpec, index: int, trials: int, window: WindowSpec,
        kind: MetricKind,
    ) -> FocusSample:
        """Metric mean and population std of ``window`` over ``trials`` captures at z.

        Trial t is noised with the spec ``noise`` derives from (index, t), so
        the probe's noise depends on its index, not on what else was probed.
        """
        lens = LensState(z)
        frames = self.frames(lens, [noise.derived(index, t) for t in range(trials)])
        if noise.sigma == 0:
            key = (blur_radius(self.cfg, lens).px, window, kind)
            value = self._noiseless.get(key)
            if value is None:
                value = self._noiseless[key] = resolution(frames[0], window, kind)
            values = [value] * trials
        else:
            values = [resolution(frame, window, kind) for frame in frames]
        return FocusSample(z, float(np.mean(values)), float(np.std(values)), trials)


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
    metric (``Camera.probe``).
    """
    zs = [float(z) for z in z_values]
    if not zs:
        raise ValueError("z_values must be nonempty")
    if any(b <= a for a, b in zip(zs, zs[1:])):
        raise ValueError("z_values must be strictly increasing")
    trials = require_int(trials, "trials", 1)
    camera = Camera(scene, cfg, [window])
    samples = (camera.probe(z, noise, i, trials, window, kind) for i, z in enumerate(zs))
    return FocusCurve(tuple(samples))
