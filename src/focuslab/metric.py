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
from typing import Sequence

import numpy as np

from ._csvio import fmt_num, write_rows
from .image import Image, NoiseSpec, WindowSpec, add_noise
from .optics import LensState, OpticalConfig, PsfKernel, blur_radius, convolve, make_pillbox_psf

__all__ = ["MetricKind", "FocusSample", "FocusCurve", "Camera", "resolution", "sweep"]


class MetricKind(Enum):
    """Which reduction to apply to the diagonal differences."""

    SQUARED = "squared"
    ABSOLUTE = "absolute"


def resolution(image: Image, window: WindowSpec, kind: MetricKind) -> int:
    """Focus metric over the window: sum of Roberts-cross diagonal terms.

    With e the n x n window samples, every interior position contributes
    (e[i,j] - e[i+1,j+1]) and (e[i+1,j] - e[i,j+1]), squared or absolute
    according to ``kind``. Exact integer arithmetic; zero exactly when the
    window is constant.
    """
    e = image.region(window).astype(np.int64)
    d_main = e[:-1, :-1] - e[1:, 1:]
    d_anti = e[1:, :-1] - e[:-1, 1:]
    if kind is MetricKind.SQUARED:
        return int(np.sum(d_main * d_main) + np.sum(d_anti * d_anti))
    if kind is MetricKind.ABSOLUTE:
        return int(np.sum(np.abs(d_main)) + np.sum(np.abs(d_anti)))
    raise TypeError(f"unknown metric kind {kind!r}")


class Camera:
    """Virtual camera for one study call that captures only the zone its windows read.

    The zone is the bounding box of ``windows``, which must fit the scene.
    Each capture blurs the zone plus a kernel-radius halo and draws noise
    only through the zone's last row, and yields the same pixels as the
    whole-frame ``optics.capture`` cropped to the zone (see ``optics``).
    Kernels are cached by radius for the camera's life, so probes that
    share a radius, such as the +-z halves of a sweep, build one kernel.
    """

    def __init__(self, scene: Image, cfg: OpticalConfig, windows: Sequence[WindowSpec]):
        boxes = []
        for window in windows:
            scene.region(window)  # reject window overflow before any heavy work
            x0, y0 = window.origin()
            boxes.append((x0, y0, x0 + window.n, y0 + window.n))
        x0s, y0s, x1s, y1s = zip(*boxes)
        self.zone = scene.crop(min(x0s), min(y0s), max(x1s), max(y1s))
        self.cfg = cfg
        self._psfs: dict[float, PsfKernel] = {}

    def frames(self, lens: LensState, noises: Sequence[NoiseSpec]) -> list[Image]:
        """One noisy capture of the zone per noise spec, all sharing one blur."""
        radius = blur_radius(self.cfg, lens).px
        psf = self._psfs.get(radius)
        if psf is None:
            psf = self._psfs[radius] = make_pillbox_psf(radius)
        blurred = convolve(self.zone, psf)
        return [add_noise(blurred, noise) for noise in noises]

    def measure(
        self, lens: LensState, noises: Sequence[NoiseSpec], window: WindowSpec, kind: MetricKind
    ) -> list[int]:
        """The metric of ``window`` in each of ``frames(lens, noises)``."""
        return [resolution(frame, window, kind) for frame in self.frames(lens, noises)]


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
        best = max(self.entries, key=lambda s: (s.d_mean, -abs(s.z_mm), -s.z_mm))
        return best.z_mm

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

    At each z the scene is captured ``trials`` times (the blur is computed
    once since only the noise draw varies; each trial gets a seed derived
    from (z index, trial index)) and the mean and population standard
    deviation of the metric are recorded.
    """
    zs = [float(z) for z in z_values]
    if not zs:
        raise ValueError("z_values must be nonempty")
    if any(b <= a for a, b in zip(zs, zs[1:])):
        raise ValueError("z_values must be strictly increasing")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    camera = Camera(scene, cfg, [window])

    entries = []
    for zi, z in enumerate(zs):
        noises = [noise.derived(zi, t) for t in range(trials)]
        values = camera.measure(LensState(z), noises, window, kind)
        entries.append(
            FocusSample(
                z_mm=z,
                d_mean=float(np.mean(values)),
                d_stddev=float(np.std(values)),
                n_trials=trials,
            )
        )
    return FocusCurve(tuple(entries))
