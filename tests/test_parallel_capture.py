"""Noisy captures drawn on the shared capture pool against serial whole-frame ones.

``metric.Camera`` draws the noise of each noisy capture of a sweep, search
or stability study as one task on a module-wide thread pool, queued ahead of
the blur; the calling thread applies each draw and measures the capture in
capture order. Results must not depend on the pool: every study equals the
serial oracle, concurrent callers each get their own result, errors reach
the caller, a camera refuses every thread but its first caller, no draw
outlives its call or exceeds the camera's bound, a forked child builds its
own pool, and importing the package starts no thread.
"""

import multiprocessing
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import focuslab
import focuslab.metric
from focuslab import (
    Camera,
    LensState,
    MetricKind,
    NoiseField,
    NoiseSpec,
    OpticalConfig,
    SearchParams,
    WindowSpec,
    autofocus,
    capture,
    make_texture,
    probe_noise,
    resolution,
    stability_study,
    sweep,
)

from _oracles import naive_probe

# 0.4 blur px per 0.01 mm: kernels stay within a 96 px scene over +-1 mm.
CFG = OpticalConfig(a_mm=1000.0, f_mm=50.0, g=2.0, pixel_pitch_mm=0.02, d_max=100.0)
SCENE = make_texture(96, 80, 31)
WINDOW = WindowSpec(50, 40, 21)
NOISE = NoiseSpec(2.0, 11)
ZS = [-0.6, -0.25, -0.1, 0.0, 0.1, 0.3, 0.55]


def _noisy_sweep(seed: int):
    return sweep(SCENE, CFG, WINDOW, MetricKind.SQUARED, ZS, NoiseSpec(2.0, seed), 3)


def _stability(noise: NoiseSpec = NOISE):
    return stability_study(SCENE, CFG, LensState(0.15), (48, 40), [5, 9, 17], noise, repeats=4)


def test_noisy_sweep_equals_the_serial_oracle():
    curve = _noisy_sweep(11)
    assert len(curve.entries) == len(ZS)
    for i, (z, entry) in enumerate(zip(ZS, curve.entries)):
        values = naive_probe(SCENE, CFG, z, NOISE, (i,), 3, WINDOW, MetricKind.SQUARED)
        assert (entry.z_mm, entry.n_trials) == (z, 3)
        assert (entry.d_mean, entry.d_stddev) == (float(np.mean(values)), float(np.std(values)))


def test_autofocus_trace_equals_the_serial_oracle():
    params = SearchParams(z_min=-1.0, z_max=0.8, coarse_steps=7, refine_iterations=4,
                          trials_per_eval=3, metric=MetricKind.ABSOLUTE)
    result = autofocus(SCENE, CFG, WINDOW, NOISE, params)
    assert [p.phase for p in result.trace] == ["coarse"] * 7 + ["refine"] * 6
    for i, point in enumerate(result.trace):
        values = naive_probe(SCENE, CFG, point.z_mm, NOISE, (i,), 3, WINDOW, MetricKind.ABSOLUTE)
        assert point.d_mean == float(np.mean(values)), i


def test_stability_study_equals_the_serial_oracle():
    report = _stability()
    for row in report.rows:
        window = WindowSpec(48, 40, row.n)
        assert list(row.measurements) == naive_probe(
            SCENE, CFG, 0.15, NOISE, (), 4, window, MetricKind.SQUARED
        )


def test_concurrent_callers_each_get_their_serial_result():
    seeds = (3, 4, 5, 6)
    expected = {seed: _noisy_sweep(seed) for seed in seeds}
    got = {}
    start = threading.Barrier(len(seeds))

    def call(seed):
        start.wait()
        got[seed] = _noisy_sweep(seed)

    threads = [threading.Thread(target=call, args=(seed,)) for seed in seeds]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert got == expected


def test_a_camera_refuses_a_second_thread_by_name():
    kind = MetricKind.SQUARED
    plan = probe_noise(NOISE, len(ZS), 2)
    refused = []

    def intrude(camera):
        try:
            camera.readings(ZS[1:2], kind)
        except RuntimeError as exc:
            refused.append(str(exc))

    with Camera(SCENE, CFG, [WINDOW], plan) as camera:
        first = camera.readings(ZS[:1], kind)
        intruder = threading.Thread(target=intrude, args=(camera,), name="intruder")
        intruder.start()
        intruder.join(timeout=60)
        rest = camera.readings(ZS[1:], kind)
    owner = threading.current_thread().name
    assert len(refused) == 1 and "'intruder'" in refused[0] and f"'{owner}'" in refused[0]
    for z, row, trials in zip(ZS, plan, first + rest):
        for spec, values in zip(row, trials):
            assert values == [resolution(capture(SCENE, CFG, LensState(z), spec), WINDOW, kind)]


def test_an_error_in_a_capture_task_reaches_the_caller(monkeypatch):
    expected = _noisy_sweep(11)

    def failing(image, window, kind):
        raise ValueError("metric failed")

    with monkeypatch.context() as patch:
        patch.setattr(focuslab.metric, "resolution", failing)
        with pytest.raises(ValueError, match="metric failed"):
            _noisy_sweep(11)
    assert _noisy_sweep(11) == expected


def test_a_draw_that_raises_reaches_the_caller(monkeypatch):
    expected = _noisy_sweep(11)

    def failing(*args):
        raise ValueError("draw failed")

    with monkeypatch.context() as patch:
        patch.setattr(focuslab.metric, "draw_noise", failing)
        with pytest.raises(ValueError, match="draw failed"):
            _noisy_sweep(11)
    assert _noisy_sweep(11) == expected


class _DrawLog:
    """Wraps the camera's ``draw_noise`` and ``add_noise`` bindings to follow each draw.

    ``held`` is the most draws that were started and not yet applied at once.
    ``draw_s`` slows each draw, so that draws are still queued when a call
    returns; ``apply_s`` slows each application, so that uncapped draws run ahead.
    """

    def __init__(self, monkeypatch, draw_s: float = 0.0, apply_s: float = 0.0):
        self.started = self.finished = self.applied = self.held = 0
        lock = threading.Lock()
        draw, add = focuslab.metric.draw_noise, focuslab.metric.add_noise

        def drawing(*args):
            with lock:
                self.started += 1
                self.held = max(self.held, self.started - self.applied)
            try:
                time.sleep(draw_s)
                return draw(*args)
            finally:
                with lock:
                    self.finished += 1

        def adding(image, noise):
            if isinstance(noise, NoiseField):
                time.sleep(apply_s)
                with lock:
                    self.applied += 1
            return add(image, noise)

        monkeypatch.setattr(focuslab.metric, "draw_noise", drawing)
        monkeypatch.setattr(focuslab.metric, "add_noise", adding)


def _drain_pool():
    """Return once every task queued on the capture pool so far has run or been skipped.

    One task per worker waits at a barrier, so all workers must be free at once.
    """
    workers = focuslab.metric._usable_cpus()
    gate = threading.Barrier(workers, timeout=30)
    pool = focuslab.metric._capture_pool()
    for future in [pool.submit(gate.wait) for _ in range(workers)]:
        future.result()


def test_an_autofocus_at_the_boundary_leaves_no_draw_queued_or_running(monkeypatch):
    params = SearchParams(z_min=0.0, z_max=0.8, coarse_steps=5, refine_iterations=4,
                          trials_per_eval=3)
    log = _DrawLog(monkeypatch, draw_s=0.005)
    result = autofocus(SCENE, CFG, WINDOW, NOISE, params)
    assert result.at_boundary and log.applied == 5 * 3
    started = log.started
    assert log.finished == started  # none running
    _drain_pool()
    assert log.started == started  # none queued: a cancelled draw never starts


def test_a_noisy_sweep_never_holds_more_draws_than_its_bound(monkeypatch):
    # A 45 x 45 zone at (9, 1) of a 64 x 48 frame: each draw makes 46 rows of
    # 64 samples, so the workers' prefixes hold about 1.45 fields per worker.
    scene, window = make_texture(64, 48, 3), WindowSpec(31, 23, 45)
    workers = focuslab.metric._usable_cpus()
    bound = max(workers, workers * 46 * 64 // (45 * 45))
    zs, trials = ZS[:3], 7
    assert bound < len(zs) * trials
    expected = sweep(scene, CFG, window, MetricKind.SQUARED, zs, NOISE, trials)
    log = _DrawLog(monkeypatch, apply_s=0.002)
    assert sweep(scene, CFG, window, MetricKind.SQUARED, zs, NOISE, trials) == expected
    assert log.applied == len(zs) * trials
    assert 1 <= log.held <= bound


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs the fork start method")
# Forking a process that runs threads is the case under test.
@pytest.mark.filterwarnings("ignore:.*use of fork\\(\\) may lead to deadlocks:DeprecationWarning")
def test_a_forked_child_builds_its_own_pool():
    parent = _stability()  # the parent's pool now has threads, which a child lacks
    with multiprocessing.get_context("fork").Pool(1) as pool:
        child = pool.apply_async(_stability).get(timeout=30)
    assert child == parent


def test_importing_the_package_starts_no_thread():
    code = (
        "import sys, threading, focuslab; "
        "print(threading.active_count(), 'concurrent.futures' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(focuslab.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "False"]
