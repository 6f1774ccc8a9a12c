import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import focuslab
from focuslab import (
    EdgeResponse,
    Image,
    LensState,
    MetricKind,
    NoiseSpec,
    OpticalConfig,
    PsfKernel,
    WindowSpec,
    blur_radius,
    capture,
    check_kernel_fits,
    convolve,
    edge_response,
    line_spread,
    make_pillbox_psf,
    make_step_edge,
    make_texture,
    resolution,
    theoretical_resolution,
)
from focuslab import optics
from focuslab.optics import DEFAULT_SUPERSAMPLE, _bases, _fft_shape, _kernel_spectrum, _product

from _oracles import exact_blur, naive_convolve, naive_pillbox_counts

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

    @pytest.mark.parametrize("name", ["a_mm", "f_mm", "g", "pixel_pitch_mm", "d_max"])
    @pytest.mark.parametrize("flag", [True, False, np.True_])
    def test_rejects_a_bool_in_each_field(self, name, flag):
        base = dict(a_mm=100.0, f_mm=10.0, g=1.0, pixel_pitch_mm=0.01, d_max=1.0)
        with pytest.raises(ValueError, match=f"^{name} must be a number, not a bool, got"):
            OpticalConfig(**{**base, name: flag})

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

    def test_a_huge_object_distance_does_not_overflow_to_no_blur(self):
        # 2 A G overflows at A >= ~4.5e307 with G = 2; (A - F) / A does not.
        near, far = (OpticalConfig(a, 50.0, 2.0, 0.005, 100.0) for a in (1e300, 1e308))
        lens = LensState(0.3)
        assert blur_radius(far, lens) == blur_radius(near, lens)
        assert blur_radius(far, lens).px == pytest.approx(15.0)


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
        psf = make_pillbox_psf(4.0)
        center = float(psf.weights[psf.size // 2, psf.size // 2])
        assert center == pytest.approx(1.0 / (math.pi * 16.0), rel=0.05)

    def test_quarter_turn_symmetry_is_exact(self):
        for radius in (0.6, 1.5, 3.0, 7.7):
            w = make_pillbox_psf(radius).weights
            assert np.array_equal(w, np.rot90(w))

    def test_weights_match_the_per_subsample_loop(self):
        rng = np.random.default_rng(DEFAULT_SUPERSAMPLE)
        radii = [0.5, 1.0, 1.5, 2.0, 237.0, 250.0]
        radii += [*rng.uniform(0.5, 8.0, 12), *rng.uniform(0.5, 252.0, 12)]
        for radius in radii:
            counts = naive_pillbox_counts(radius, DEFAULT_SUPERSAMPLE)
            weights = make_pillbox_psf(radius).weights
            assert np.array_equal(weights, counts / counts.sum()), radius

    @given(radius=st.floats(0.0, 40.0))
    def test_quadrant_build_matches_the_per_subsample_loop(self, radius):
        # The build mirrors the quadrant 0..half from the centre; at 8 x 8
        # subsamples the loop's whole grid is that mirror, exactly.
        counts = naive_pillbox_counts(radius, DEFAULT_SUPERSAMPLE)
        assert np.array_equal(counts, counts[::-1]) and np.array_equal(counts, counts[:, ::-1])
        weights = make_pillbox_psf(radius).weights
        assert np.array_equal(weights, counts / counts.sum())

    @given(radius=st.floats(0.0, 252.0))
    def test_weights_are_exactly_mirror_symmetric_on_each_axis(self, radius):
        # The blur's real kernel spectrum rests on this.
        w = make_pillbox_psf(radius).weights
        assert np.array_equal(w, w[::-1]) and np.array_equal(w, w[:, ::-1])

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            make_pillbox_psf(-0.1)

    def test_kernels_compare_and_print_by_radius(self):
        kernel = make_pillbox_psf(2.5)
        assert kernel == PsfKernel(2.5) and hash(kernel) == hash(PsfKernel(2.5))
        assert kernel != PsfKernel(2.25)
        assert repr(kernel) == "PsfKernel(radius_px=2.5)"
        assert kernel.size == 7 and not kernel.weights.flags.writeable


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

    @pytest.mark.parametrize("radius", (0.5, 1.0, 4.2, 17.0, 60.3))
    @pytest.mark.parametrize("box", ((31, 31), (40, 27), (27, 41), (1, 12)))
    def test_kernel_spectrum_is_the_phase_shifted_rfft2(self, radius, box):
        # rfft2 puts the kernel's centre at (h, h); the helper's is at (0, 0),
        # so the two differ by a linear phase, and the helper keeps rows 0..L_y // 2.
        weights = make_pillbox_psf(radius).weights
        h = weights.shape[0] // 2
        shape = _fft_shape(*box, weights.shape[0])
        fy = np.arange(shape[0] // 2 + 1)[:, None] / shape[0]
        fx = np.arange(shape[1] // 2 + 1)[None, :] / shape[1]
        shifted = np.fft.rfft2(weights, s=shape)[: shape[0] // 2 + 1]
        shifted *= np.exp(2j * np.pi * h * (fy + fx))
        got = _kernel_spectrum(weights[h:, h:], _bases(shape, h))
        assert np.max(np.abs(got - shifted)) <= 1e-12

    def test_kernel_spectrum_is_the_phase_shifted_rfft2_at_any_shape(self):
        # The test above over radii out to the autofocus kernels' and boxes
        # of every parity and aspect.
        parities, aspects = set(), set()

        @settings(max_examples=60)
        @given(radius=st.floats(0.5, 250.0), height=st.integers(1, 64),
               width=st.integers(1, 64))
        def matches(radius, height, width):
            self.test_kernel_spectrum_is_the_phase_shifted_rfft2(radius, (height, width))
            shape = _fft_shape(height, width, make_pillbox_psf(radius).size)
            parities.add((shape[0] % 2, shape[1] % 2))
            aspects.add(shape[0] == shape[1])

        matches()
        assert parities == {(0, 0), (0, 1), (1, 0), (1, 1)}
        assert aspects == {True, False}

    def test_crops_blur_to_the_exact_bytes_at_every_fft_parity(self):
        # The product's rows past L_y // 2 mirror the kernel's half spectrum,
        # a slice that differs for odd and even L_y; so the draws cover odd
        # and even lengths on each axis, and crops on every edge and inside.
        width, height = 64, 57
        scene = make_texture(width, height, 5)
        parities, edges = set(), set()

        @settings(max_examples=80)
        @given(radius=st.floats(0.5, 12.0), data=st.data())
        def blurs_exactly(radius, data):
            size = make_pillbox_psf(radius).size
            w, h = data.draw(st.integers(1, 30)), data.draw(st.integers(1, 30))
            shape = _fft_shape(h, w, size)
            assume(w != h and shape[0] != shape[1])
            x0 = data.draw(st.sampled_from((0, width - w)) | st.integers(1, width - w - 1))
            y0 = data.draw(st.sampled_from((0, height - h)) | st.integers(1, height - h - 1))
            box = (x0, y0, x0 + w, y0 + h)
            got = convolve(scene.crop(*box), make_pillbox_psf(radius)).pixels
            counts = naive_pillbox_counts(radius, DEFAULT_SUPERSAMPLE)
            assert np.array_equal(got, exact_blur(scene.pixels, counts, box))
            parities.add((shape[0] % 2, shape[1] % 2))
            edges.update(name for name, on in (
                ("left", x0 == 0), ("right", x0 + w == width), ("top", y0 == 0),
                ("bottom", y0 + h == height),
                ("inside", 0 < x0 < x0 + w < width and 0 < y0 < y0 + h < height),
            ) if on)

        blurs_exactly()
        assert parities == {(0, 0), (0, 1), (1, 0), (1, 1)}
        assert edges == {"left", "right", "top", "bottom", "inside"}

    def test_output_range_is_valid(self):
        img = make_texture(32, 32, 4)
        out = convolve(img, make_pillbox_psf(5.0))
        assert out.pixels.min() >= 0 and out.pixels.max() <= 255

    def test_oversized_kernel_rejected(self):
        img = Image(np.zeros((8, 8), dtype=np.uint8))
        with pytest.raises(ValueError, match="exceeds"):
            convolve(img, make_pillbox_psf(6.0))  # 13x13 kernel vs 8x8 image

    def test_oversized_kernel_is_refused_in_the_capture_routes_words(self):
        with pytest.raises(ValueError) as refused:
            convolve(make_texture(32, 32, 4), make_pillbox_psf(20.0))
        assert str(refused.value) == ("the PSF has a blur radius of 20px, "
                                      "whose 41x41 kernel exceeds the 32x32 scene")


def _matmul_tiles(monkeypatch) -> list[tuple[int, int, int]]:
    """The (m, n, k) of each product handed to ``np.matmul`` from here on."""
    tiles, matmul = [], np.matmul

    def spy(a, b, *args, **kwargs):
        tiles.append((a.shape[0], b.shape[1], a.shape[1]))
        return matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    return tiles


class TestProduct:
    @pytest.mark.parametrize("limit, rows, cols", [
        (5, [1] * 7, [1] * 6),  # one row and one column per tile
        (20, [2, 2, 2, 1], [2, 2, 2]),  # an uneven last row block
        (100, [5, 2], [4, 2]),  # uneven on both axes
        (210, [7], [6]),  # the whole product at the limit
        (2**18, [7], [6]),
    ], ids=["one-row", "uneven-rows", "uneven-both", "at-the-limit", "default"])
    def test_the_tiled_product_is_matmul_at_the_tile_edges(self, monkeypatch, limit, rows, cols):
        # Small integers keep every sum exact, in any order.
        rng = np.random.default_rng(3)
        a = rng.integers(-8, 9, size=(7, 5)).astype(np.float64)
        b = rng.integers(-8, 9, size=(5, 6)).astype(np.float64)
        monkeypatch.setattr(optics, "_ONE_THREAD_MNK", limit)
        tiles = _matmul_tiles(monkeypatch)
        assert np.array_equal(_product(a, b), a @ b)
        assert tiles == [(m, n, 5) for m in rows for n in cols]

    @pytest.mark.parametrize("radius, box", [
        (247.0, (31, 31)),  # the largest autofocus-512 kernel, at its window
        (250.0, (512, 512)),  # a whole 512x512 frame at the same reach
        (30.0, (255, 255)),  # the largest sweep-256 kernel
        (60.3, (27, 41)),
    ])
    def test_no_product_is_larger_than_one_thread_runs(self, monkeypatch, radius, box):
        weights = make_pillbox_psf(radius).weights
        h = weights.shape[0] // 2
        bases = _bases(_fft_shape(*box, weights.shape[0]), h)
        tiles = _matmul_tiles(monkeypatch)
        _kernel_spectrum(weights[h:, h:], bases)
        assert tiles and max(m * n * k for m, n, k in tiles) <= optics._ONE_THREAD_MNK


class TestKernelFit:
    @pytest.mark.parametrize("radius, frame", [
        (0.49, (1, 1)),  # the identity kernel fits any frame
        (31.0, (64, 64)),  # 63x63
        (20.0, (41, 64)),
    ])
    def test_a_kernel_no_wider_than_the_frame_fits(self, radius, frame):
        check_kernel_fits(radius, frame, "z reaches")

    @pytest.mark.parametrize("radius, frame", [
        (31.01, (64, 64)),  # 65x65
        (20.0, (64, 40)),  # 41 rows in 40
        (1e300, (64, 64)),
        (math.inf, (64, 64)),
    ])
    def test_a_wider_kernel_is_refused_by_its_reach(self, radius, frame):
        with pytest.raises(ValueError, match=r"^z reaches a blur radius of .* exceeds the"):
            check_kernel_fits(radius, frame, "z reaches")

    def test_a_huge_radius_is_refused_in_a_short_message(self):
        with pytest.raises(ValueError) as refused:
            check_kernel_fits(1e300, (64, 64), "z reaches")
        message = str(refused.value)
        assert len(message) < 200
        assert "1e+300px" in message and "2e+300x2e+300 kernel exceeds the 64x64" in message


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

    def test_short_span_rejected_before_its_kernel_is_built(self, monkeypatch):
        def no_build(radius_px):
            raise AssertionError("a pillbox was built")

        monkeypatch.setattr(focuslab.optics, "make_pillbox_psf", no_build)
        with pytest.raises(ValueError, match=r"half span 10px too small: .*\(47\.50px\)"):
            edge_response(CFG, LensState(1.0), half_span_px=10)

    def test_responses_compare_and_print_by_kernel_and_span(self):
        er = edge_response(CFG, LensState(0.1), half_span_px=np.int64(16))
        assert er == EdgeResponse(make_pillbox_psf(blur_radius(CFG, LensState(0.1)).px), 16)
        assert repr(er) == f"EdgeResponse(psf={er.psf!r}, half_span_px=16)"
        assert type(er.half_span_px) is int
        assert er.positions.tolist() == list(range(-16, 17))
        assert not er.positions.flags.writeable and not er.values.flags.writeable

    @pytest.mark.parametrize("half_span", [math.inf, math.nan, 14.3])
    def test_non_integer_span_rejected_by_name(self, half_span):
        # R_px = 4.75, so 14.3 clears the 3x-radius check; only the integer check stops it.
        with pytest.raises(ValueError, match="half span"):
            edge_response(CFG, LensState(0.1), half_span_px=half_span)


class TestTheoreticalResolution:
    def test_matches_direct_substitution(self):
        d = theoretical_resolution(CFG, LensState(1.0))
        assert d == pytest.approx(8000.0 / (950.0 * math.pi))

    def test_focused_lens_hits_the_ceiling(self):
        assert theoretical_resolution(CFG, LensState(0.0)) == CFG.d_max

    def test_a_huge_object_distance_does_not_overflow(self):
        near, far = (OpticalConfig(a, 50.0, 2.0, 0.005, 1e9) for a in (1e300, 1e308))
        lens = LensState(0.3)
        assert theoretical_resolution(far, lens) == theoretical_resolution(near, lens)
        assert theoretical_resolution(far, lens) == pytest.approx(8.0 / (0.3 * math.pi))

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

    def test_oversized_kernel_is_refused_before_it_is_built(self, monkeypatch):
        def no_build(*args, **kwargs):
            raise AssertionError("a pillbox was built")

        monkeypatch.setattr(focuslab.optics, "make_pillbox_psf", no_build)
        scene = make_texture(32, 32, 9)
        with pytest.raises(ValueError, match="z=1.0 mm reaches .* exceeds the 32x32 scene"):
            capture(scene, CFG, LensState(1.0), NoiseSpec(0.0))
