import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import focuslab.metric
from focuslab import (
    FocusSample,
    Image,
    LensState,
    NoiseSpec,
    OpticalConfig,
    SearchParams,
    WindowSpec,
    autofocus,
    blur_radius,
    make_texture,
    sweep,
)

# Coarser sensor than the bench default keeps kernels small enough for a
# 128 px scene while the peak plateau stays a few hundredths of a mm wide.
CFG = OpticalConfig(a_mm=1000.0, f_mm=50.0, g=2.0, pixel_pitch_mm=0.02, d_max=100.0)

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0

# The largest |z| whose kernel still fits a 64 x 64 scene: R = 31 px, 63 x 63.
Z_FIT_64 = 31.0 / blur_radius(CFG, LensState(1.0)).px
SCENE_64 = make_texture(64, 64, 28)


def plateau_halfwidth_mm(cfg) -> float:
    """|z| below which the pillbox collapses to the identity kernel."""
    return 0.5 / blur_radius(cfg, LensState(1.0)).px


# Each float field of the lens state, the search interval and a probe's
# statistics, with valid values for the other fields of its type.
FLOAT_FIELDS = [
    (LensState, dict(z_mm=0.5), "z_mm"),
    (SearchParams, dict(z_min=-1.0, z_max=1.0), "z_min"),
    (SearchParams, dict(z_min=-1.0, z_max=1.0), "z_max"),
    (FocusSample, dict(z_mm=0.5, d_mean=1.0, d_stddev=0.0, n_trials=1), "z_mm"),
    (FocusSample, dict(z_mm=0.5, d_mean=1.0, d_stddev=0.0, n_trials=1), "d_mean"),
    (FocusSample, dict(z_mm=0.5, d_mean=1.0, d_stddev=0.0, n_trials=1), "d_stddev"),
]


@pytest.mark.parametrize(("cls", "valid", "name"), FLOAT_FIELDS,
                         ids=[f"{cls.__name__}.{name}" for cls, _, name in FLOAT_FIELDS])
@pytest.mark.parametrize("flag", [True, False, np.True_])
def test_a_bool_in_a_float_field_is_refused(cls, valid, name, flag):
    cls(**valid)
    with pytest.raises(ValueError, match=f"^{name} must be a number, not a bool, got"):
        cls(**{**valid, name: flag})


class TestSearchParams:
    def test_validation(self):
        with pytest.raises(ValueError, match="z_min"):
            SearchParams(z_min=1.0, z_max=1.0)
        with pytest.raises(ValueError, match="coarse_steps"):
            SearchParams(z_min=-1.0, z_max=1.0, coarse_steps=4)
        with pytest.raises(ValueError, match="refine_iterations"):
            SearchParams(z_min=-1.0, z_max=1.0, refine_iterations=-1)
        with pytest.raises(ValueError, match="trials_per_eval"):
            SearchParams(z_min=-1.0, z_max=1.0, trials_per_eval=0)
        with pytest.raises(ValueError, match="metric"):
            SearchParams(z_min=-1.0, z_max=1.0, metric="squared")
        for z_min, z_max in ((-np.inf, 1.0), (-1.0, np.inf), (np.nan, 1.0)):
            with pytest.raises(ValueError, match="finite"):
                SearchParams(z_min=z_min, z_max=z_max)


class TestAutofocus:
    def test_noiseless_search_lands_on_the_focus_plateau(self):
        scene = make_texture(128, 128, 21)
        window = WindowSpec(64, 64, 31)
        params = SearchParams(z_min=-1.0, z_max=1.0, coarse_steps=11, refine_iterations=10)
        result = autofocus(scene, CFG, window, NoiseSpec(0.0), params)
        # Any point whose kernel is the identity ties for the maximum, so the
        # answer can sit anywhere on that plateau plus one final bracket.
        coarse_step = 2.0 / 10.0
        final_bracket = 2.0 * coarse_step * GOLDEN**10
        assert abs(result.z_star) <= plateau_halfwidth_mm(CFG) + final_bracket
        assert not result.at_boundary

    def test_refinement_stays_inside_the_coarse_bracket(self):
        scene = make_texture(128, 128, 21)
        window = WindowSpec(64, 64, 31)
        params = SearchParams(z_min=-1.0, z_max=1.0, coarse_steps=11, refine_iterations=8)
        result = autofocus(scene, CFG, window, NoiseSpec(0.0), params)
        coarse = [p for p in result.trace if p.phase == "coarse"]
        refine = [p for p in result.trace if p.phase == "refine"]
        best = max(coarse, key=lambda p: (p.d_mean, -abs(p.z_mm)))
        step = 2.0 / 10.0
        assert len(coarse) == 11 and len(refine) == 8 + 2
        for p in refine:
            assert best.z_mm - step - 1e-12 <= p.z_mm <= best.z_mm + step + 1e-12
        # The shrinking brackets never abandon the peak: some probe within
        # one final bracket of the plateau must exist.
        closest = min(abs(p.z_mm) for p in refine)
        assert closest <= plateau_halfwidth_mm(CFG) + 2.0 * step * GOLDEN**8

    def test_boundary_winner_is_flagged_not_raised(self):
        scene = make_texture(128, 128, 21)
        window = WindowSpec(64, 64, 31)
        params = SearchParams(z_min=0.3, z_max=1.0, coarse_steps=8, refine_iterations=6)
        result = autofocus(scene, CFG, window, NoiseSpec(0.0), params)
        assert result.at_boundary
        assert result.z_star == 0.3
        assert len(result.trace) == 8  # no refinement after a degenerate bracket

    def test_deterministic_with_noise(self):
        scene = make_texture(128, 128, 22)
        window = WindowSpec(64, 64, 31)
        params = SearchParams(z_min=-1.0, z_max=1.0, coarse_steps=7,
                              refine_iterations=5, trials_per_eval=3)
        noise = NoiseSpec(2.0, 1234)
        assert autofocus(scene, CFG, window, noise, params) == autofocus(
            scene, CFG, window, noise, params
        )

    def test_evaluation_budget_and_trace_accounting(self):
        scene = make_texture(128, 128, 23)
        window = WindowSpec(64, 64, 31)
        params = SearchParams(z_min=-1.0, z_max=1.0, coarse_steps=9,
                              refine_iterations=7, trials_per_eval=2)
        result = autofocus(scene, CFG, window, NoiseSpec(1.0, 5), params)
        assert result.evaluations == params.trials_per_eval * len(result.trace)
        assert result.evaluations <= params.trials_per_eval * (
            params.coarse_steps + 2 * params.refine_iterations + 2
        )

    def test_coarse_probes_equal_a_sweep_over_the_coarse_grid(self):
        scene = make_texture(128, 128, 26)
        window = WindowSpec(64, 64, 31)
        params = SearchParams(z_min=-1.0, z_max=0.8, coarse_steps=7,
                              refine_iterations=3, trials_per_eval=3)
        noise = NoiseSpec(2.0, 17)
        result = autofocus(scene, CFG, window, noise, params)
        coarse = [p for p in result.trace if p.phase == "coarse"]
        zs = np.linspace(params.z_min, params.z_max, params.coarse_steps)
        curve = sweep(scene, CFG, window, params.metric, zs, noise, trials=3)
        assert [p.z_mm for p in coarse] == curve.z_values().tolist()
        assert [p.d_mean for p in coarse] == curve.d_means().tolist()

    def test_result_is_argmax_of_trace(self):
        scene = make_texture(128, 128, 24)
        window = WindowSpec(64, 64, 31)
        params = SearchParams(z_min=-1.0, z_max=1.0, coarse_steps=7, refine_iterations=6)
        result = autofocus(scene, CFG, window, NoiseSpec(2.0, 9), params)
        best = max(p.d_mean for p in result.trace)
        assert result.d_star == best
        assert any(p.z_mm == result.z_star and p.d_mean == best for p in result.trace)
        assert params.z_min <= result.z_star <= params.z_max

    def test_flat_objective_ties_break_toward_zero(self):
        flat = Image(np.full((64, 64), 90, dtype=np.uint8))
        window = WindowSpec(32, 32, 15)
        params = SearchParams(z_min=-1.0, z_max=1.0, coarse_steps=11, refine_iterations=4)
        result = autofocus(flat, CFG, window, NoiseSpec(0.0), params)
        assert result.z_star == 0.0
        assert result.d_star == 0.0

    def test_noisy_search_stays_near_focus(self):
        scene = make_texture(128, 128, 25)
        window = WindowSpec(64, 64, 31)
        params = SearchParams(z_min=-1.0, z_max=1.0, coarse_steps=11,
                              refine_iterations=10, trials_per_eval=3)
        tol = plateau_halfwidth_mm(CFG) + 2.0 * (2.0 / 10.0) * GOLDEN**10
        for seed in (1, 2, 3):
            result = autofocus(scene, CFG, window, NoiseSpec(2.0, seed), params)
            assert abs(result.z_star) <= 2.0 * tol

    def test_interval_too_wide_for_the_scene_fails_before_probing(self, monkeypatch):
        def no_probe(*args, **kwargs):
            raise AssertionError("a probe ran")

        monkeypatch.setattr(focuslab.metric, "make_pillbox_psf", no_probe)
        scene = make_texture(64, 64, 27)
        params = SearchParams(z_min=-1.0, z_max=3.0)  # R = 35.6 px: a 73x73 kernel
        with pytest.raises(ValueError, match="z_min/z_max .* exceeds the 64x64 scene"):
            autofocus(scene, CFG, WindowSpec(32, 32, 15), NoiseSpec(0.0), params)

    def test_an_overflowing_span_fails_before_probing(self, monkeypatch):
        def no_kernel(*args, **kwargs):
            raise AssertionError("a kernel was built")

        monkeypatch.setattr(focuslab.metric, "make_pillbox_psf", no_kernel)
        # The reach, 23.75 px, fits the scene; the coarse grid's span does not fit a float.
        cfg = OpticalConfig(a_mm=1000.0, f_mm=50.0, g=2.0, pixel_pitch_mm=1e306, d_max=100.0)
        params = SearchParams(z_min=-1e308, z_max=1e308)
        with pytest.raises(ValueError, match="span from -1e\\+308 to 1e\\+308 overflows"):
            autofocus(SCENE_64, cfg, WindowSpec(32, 32, 15), NoiseSpec(2.0, 3), params)

    def test_trace_csv_layout(self):
        scene = make_texture(64, 64, 26)
        window = WindowSpec(32, 32, 15)
        params = SearchParams(z_min=-0.5, z_max=0.5, coarse_steps=5, refine_iterations=2)
        result = autofocus(scene, CFG, window, NoiseSpec(0.0), params)
        buf = io.StringIO()
        result.write_trace_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "step,z_mm,d_mean,phase"
        assert len(lines) == 1 + len(result.trace)
        phases = [line.split(",")[3] for line in lines[1:]]
        assert phases[:5] == ["coarse"] * 5 and set(phases[5:]) == {"refine"}


def test_a_coarse_count_numpy_cannot_address_fails_before_the_plan():
    # A plan of 2**62 probes would fill the host's memory; under the child's
    # 256 MiB cap it ends in a bare MemoryError, so the grid's message shows
    # that the grid was refused first.
    resource = pytest.importorskip("resource")  # POSIX only
    cap = 256 * 2**20
    search = ("import focuslab as f\n"
              "f.autofocus(f.make_texture(64, 64, 1), f.OpticalConfig(1000, 50, 2, 0.02, 100),\n"
              "            f.WindowSpec(32, 32, 15), f.NoiseSpec(0.0), f.SearchParams(-0.1, 0.1, 2**62))")
    threads = dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1")
    env = {**os.environ, **threads, "PYTHONPATH": str(Path(focuslab.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", search], env=env, capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )
    assert proc.stderr.splitlines()[-1] == "MemoryError: the z grid does not fit in memory"


@st.composite
def intervals(draw):
    ends = st.floats(-Z_FIT_64, Z_FIT_64)
    a, b = draw(ends), draw(ends)
    assume(a != b)
    return min(a, b), max(a, b)


@settings(max_examples=100)
@given(
    interval=intervals(),
    sigma=st.sampled_from([0.0, 2.0]),
    seed=st.integers(0, 2**32),
    trials=st.integers(1, 3),
    coarse_steps=st.integers(5, 11),
    refine_iterations=st.integers(0, 6),
)
def test_result_is_the_best_probe_of_its_trace(
    interval, sigma, seed, trials, coarse_steps, refine_iterations
):
    params = SearchParams(*interval, coarse_steps, refine_iterations, trials)
    result = autofocus(SCENE_64, CFG, WindowSpec(32, 32, 15), NoiseSpec(sigma, seed), params)
    best = focuslab.metric.best_probe(result.trace)
    assert (result.z_star, result.d_star) == (best.z_mm, best.d_mean)
    assert result.evaluations == trials * len(result.trace)
    coarse = result.trace[:coarse_steps]
    assert [p.phase for p in coarse] == ["coarse"] * coarse_steps
    winner = min(
        range(coarse_steps),
        key=lambda i: (-coarse[i].d_mean, abs(coarse[i].z_mm), coarse[i].z_mm, i),
    )
    assert result.at_boundary == (winner in (0, coarse_steps - 1))
    refined = 0 if result.at_boundary else refine_iterations + 2
    assert len(result.trace) == coarse_steps + refined
