import math

import numpy as np
import pytest

from focuslab import (
    Image,
    LensState,
    MetricKind,
    NoiseSpec,
    OpticalConfig,
    PsfKernel,
    WindowSpec,
    blur_radius,
    capture,
    convolve,
    edge_response,
    line_spread,
    make_pillbox_psf,
    make_step_edge,
    make_texture,
    resolution,
    theoretical_resolution,
)

from _oracles import naive_convolve

CFG = OpticalConfig(a_mm=1000.0, f_mm=50.0, g=2.0, pixel_pitch_mm=0.005, d_max=100.0)


class TestConfigValidation:
    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            OpticalConfig(a_mm=50.0, f_mm=50.0, g=1.0, pixel_pitch_mm=0.01, d_max=1.0)
        with pytest.raises(ValueError):
            OpticalConfig(a_mm=100.0, f_mm=-1.0, g=1.0, pixel_pitch_mm=0.01, d_max=1.0)

    def test_rejects_nonpositive_scalars(self):
        for kw in ({"g": 0.0}, {"pixel_pitch_mm": 0.0}, {"d_max": -2.0}):
            args = dict(a_mm=100.0, f_mm=10.0, g=1.0, pixel_pitch_mm=0.01, d_max=1.0)
            args.update(kw)
            with pytest.raises(ValueError):
                OpticalConfig(**args)

    def test_rejects_non_finite_fields(self):
        base = dict(a_mm=100.0, f_mm=10.0, g=1.0, pixel_pitch_mm=0.01, d_max=1.0)
        for name in base:
            for bad in (math.nan, math.inf):
                with pytest.raises(ValueError, match=f"{name} must be finite"):
                    OpticalConfig(**{**base, name: bad})

    def test_lens_state_must_be_finite(self):
        with pytest.raises(ValueError):
            LensState(float("nan"))
        with pytest.raises(ValueError):
            LensState(float("inf"))


class TestBlurRadius:
    def test_matches_direct_substitution(self):
        r = blur_radius(CFG, LensState(1.0))
        assert r.mm == pytest.approx(950.0 / 4000.0)  # 0.2375
        assert r.px == pytest.approx(0.2375 / 0.005)

    def test_zero_displacement_gives_point_psf(self):
        assert blur_radius(CFG, LensState(0.0)).mm == 0.0

    def test_even_in_displacement(self):
        assert blur_radius(CFG, LensState(-1.0)) == blur_radius(CFG, LensState(1.0))

    def test_linear_in_magnitude(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            z = float(rng.uniform(0.01, 10.0))
            r1 = blur_radius(CFG, LensState(z)).mm
            r2 = blur_radius(CFG, LensState(2.0 * z)).mm
            assert r2 == pytest.approx(2.0 * r1, rel=1e-12)


class TestPillboxPsf:
    def test_zero_radius_is_identity(self):
        psf = make_pillbox_psf(0.0)
        assert psf.size == 1
        assert psf.weights.tolist() == [[1.0]]

    def test_subpixel_radius_is_identity(self):
        assert make_pillbox_psf(0.49).size == 1

    def test_unit_sum_across_radii(self):
        for radius in (0.5, 0.7, 1.0, 2.5, 4.0, 8.0, 12.3):
            psf = make_pillbox_psf(radius)
            assert abs(float(psf.weights.sum()) - 1.0) <= 1e-9
            assert psf.size == 2 * math.ceil(radius) + 1

    def test_central_weight_matches_disc_density(self):
        # The disc has uniform density 1 / (pi R^2); a fully interior pixel's
        # weight approximates that density times its unit area.
        psf = make_pillbox_psf(4.0, supersample=8)
        center = float(psf.weights[psf.size // 2, psf.size // 2])
        assert center == pytest.approx(1.0 / (math.pi * 16.0), rel=0.05)

    def test_quarter_turn_symmetry_is_exact(self):
        for radius in (0.6, 1.5, 3.0, 7.7):
            w = make_pillbox_psf(radius).weights
            assert np.array_equal(w, np.rot90(w))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            make_pillbox_psf(-0.1)
        with pytest.raises(ValueError):
            make_pillbox_psf(2.0, supersample=0)

    def test_kernel_invariants_enforced(self):
        with pytest.raises(ValueError, match="sum"):
            PsfKernel(size=1, weights=np.array([[0.5]]), radius_px=0.0)
        with pytest.raises(ValueError, match="odd"):
            PsfKernel(size=2, weights=np.full((2, 2), 0.25), radius_px=1.0)
        lopsided = np.array([[0.5, 0.5, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            PsfKernel(size=3, weights=lopsided, radius_px=1.0)


class TestConvolve:
    def test_constant_image_is_fixed_point(self):
        img = Image(np.full((16, 16), 77, dtype=np.uint8))
        out = convolve(img, make_pillbox_psf(3.0))
        assert out == img

    def test_identity_kernel_is_noop(self):
        img = make_texture(16, 16, 0)
        assert convolve(img, make_pillbox_psf(0.0)) == img

    def test_step_edge_crosses_half_level_at_the_discontinuity(self):
        # The physical edge sits between the last low and first high column,
        # so the profile straddles mid-gray there: the two adjacent columns
        # average to ~127.5 and bracket it.
        img = make_step_edge(64, 16, 32, 0, 255)
        out = convolve(img, make_pillbox_psf(4.0))
        left = float(out.pixels[8, 31])
        right = float(out.pixels[8, 32])
        assert left < 127.5 < right
        assert (left + right) / 2.0 == pytest.approx(127.5, abs=2.0)

    def test_matches_naive_direct_convolution(self):
        # Compare against the unrounded reference: agreement within half a
        # gray level proves alignment and border handling; demanding the
        # identical rounded byte would hinge on ties at exact .5 values.
        rng = np.random.default_rng(8)
        for radius in (0.7, 1.3, 2.2):
            psf = make_pillbox_psf(radius)
            pixels = rng.integers(0, 256, size=(12, 12), dtype=np.uint8)
            reference = naive_convolve(pixels, psf.weights)
            got = convolve(Image(pixels), psf).pixels.astype(np.float64)
            assert np.max(np.abs(got - reference)) <= 0.5 + 1e-6

    def test_output_range_is_valid(self):
        img = make_texture(32, 32, 4)
        out = convolve(img, make_pillbox_psf(5.0))
        assert out.pixels.min() >= 0 and out.pixels.max() <= 255

    def test_oversized_kernel_rejected(self):
        img = Image(np.zeros((8, 8), dtype=np.uint8))
        with pytest.raises(ValueError, match="exceeds"):
            convolve(img, make_pillbox_psf(6.0))  # 13x13 kernel vs 8x8 image


class TestLineSpread:
    def test_identity_kernel_profile(self):
        assert line_spread(make_pillbox_psf(0.0)).tolist() == [1.0]

    def test_profile_sums_to_one(self):
        for radius in (1.0, 3.5, 6.0):
            assert float(line_spread(make_pillbox_psf(radius)).sum()) == pytest.approx(1.0, abs=1e-9)

    def test_center_matches_disc_chord_integral(self):
        # Column through the disc center integrates to 2R / (pi R^2) = 2/(pi R).
        for radius in (4.0, 6.0, 8.0):
            profile = line_spread(make_pillbox_psf(radius))
            center = float(profile[len(profile) // 2])
            assert center == pytest.approx(2.0 / (math.pi * radius), rel=0.05)

    def test_symmetric(self):
        profile = line_spread(make_pillbox_psf(5.3))
        assert np.allclose(profile, profile[::-1], rtol=0.0, atol=1e-15)


class TestEdgeResponse:
    def test_focused_lens_gives_unit_step(self):
        er = edge_response(CFG, LensState(0.0), half_span_px=4)
        jump = np.flatnonzero(np.diff(er.values))
        assert len(jump) == 1
        assert er.positions[jump[0] + 1] == 0
        assert er.values[jump[0]] == 0.0 and er.values[jump[0] + 1] == 1.0

    def test_monotone_with_saturated_tails(self):
        for z in (0.1, 0.3, 0.674):
            radius = blur_radius(CFG, LensState(z)).px
            er = edge_response(CFG, LensState(z), half_span_px=int(3 * radius) + 2)
            assert np.all(np.diff(er.values) >= 0)
            assert er.values[0] <= 0.01 and er.values[-1] >= 0.99

    def test_steepest_rise_sits_on_the_edge(self):
        for z in (0.0, 0.05, 0.2, 0.7):
            radius = blur_radius(CFG, LensState(z)).px
            er = edge_response(CFG, LensState(z), half_span_px=max(1, int(3 * radius) + 2))
            offset, _ = er.peak_derivative()
            assert offset == 0

    def test_peak_slope_matches_disc_chord_formula(self):
        z = 8.0 / blur_radius(CFG, LensState(1.0)).px  # R_px = 8
        er = edge_response(CFG, LensState(z), half_span_px=26)
        _, slope = er.peak_derivative()
        assert slope == pytest.approx(2.0 / (math.pi * 8.0), rel=0.05)

    def test_short_span_rejected(self):
        with pytest.raises(ValueError, match="span"):
            edge_response(CFG, LensState(1.0), half_span_px=10)  # R_px = 47.5


class TestTheoreticalResolution:
    def test_matches_direct_substitution(self):
        d = theoretical_resolution(CFG, LensState(1.0))
        assert d == pytest.approx(8000.0 / (950.0 * math.pi))

    def test_focused_lens_hits_the_ceiling(self):
        assert theoretical_resolution(CFG, LensState(0.0)) == CFG.d_max

    def test_small_displacement_is_clamped(self):
        # Unclamped value would exceed d_max for tiny |z|.
        assert theoretical_resolution(CFG, LensState(1e-6)) == CFG.d_max

    def test_resolution_radius_product_is_two(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a = float(rng.uniform(100.0, 5000.0))
            f = float(rng.uniform(1.0, 0.9 * a))
            g = float(rng.uniform(0.1, 10.0))
            cfg = OpticalConfig(a, f, g, pixel_pitch_mm=0.01, d_max=1e9)
            z = float(rng.uniform(0.01, 50.0)) * (1 if rng.random() < 0.5 else -1)
            lens = LensState(z)
            product = theoretical_resolution(cfg, lens) * math.pi * blur_radius(cfg, lens).mm
            assert product == pytest.approx(2.0, rel=1e-9)


class TestCapture:
    def test_focused_noiseless_capture_is_the_scene(self):
        scene = make_texture(32, 32, 9)
        assert capture(scene, CFG, LensState(0.0), NoiseSpec(0.0)) == scene

    def test_deterministic(self):
        scene = make_texture(32, 32, 9)
        lens = LensState(0.2)
        noise = NoiseSpec(2.0, 77)
        assert capture(scene, CFG, lens, noise) == capture(scene, CFG, lens, noise)

    def test_defocus_lowers_the_metric(self):
        scene = make_texture(128, 128, 9)
        window = WindowSpec(64, 64, 31)
        sharp = resolution(scene, window, MetricKind.SQUARED)
        z = 8.0 / blur_radius(CFG, LensState(1.0)).px  # R_px = 8
        blurred = capture(scene, CFG, LensState(z), NoiseSpec(0.0))
        assert resolution(blurred, window, MetricKind.SQUARED) < sharp
