import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import focuslab
from focuslab import (
    Camera,
    Image,
    LensState,
    MetricKind,
    NoiseSpec,
    OpticalConfig,
    PgmFormatError,
    SearchParams,
    WindowSpec,
    add_noise,
    compare_metrics,
    draw_noise,
    load_pgm,
    make_pillbox_psf,
    make_step_edge,
    make_texture,
    resolution,
    save_pgm,
    stability_study,
    sweep,
)

from _oracles import naive_add_noise, naive_texture


class TestImage:
    def test_rejects_out_of_range_samples(self):
        with pytest.raises(ValueError, match=r"\[0, 255\]"):
            Image(np.array([[0, 256]]))
        with pytest.raises(ValueError, match=r"\[0, 255\]"):
            Image(np.array([[-1, 0]]))
        with pytest.raises(ValueError, match=r"\[0, 255\]"):
            Image(np.array([[np.nan, 1.0]]))
        with pytest.raises(ValueError, match=r"\[0, 255\]"):
            Image(np.array([[1.7, 2.0]]))

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            Image(np.zeros(4, dtype=np.uint8))
        with pytest.raises(ValueError):
            Image(np.zeros((0, 3), dtype=np.uint8))

    def test_rejects_non_numeric_samples(self):
        with pytest.raises(ValueError, match="samples must be real numbers, got dtype bool"):
            Image(np.zeros((2, 2), dtype=bool))

    def test_a_crop_without_its_surround_cannot_be_cropped(self):
        crop = Image(np.zeros((2, 2), np.uint8), origin=(1, 1), frame_size=(4, 4))
        message = "only an image whose surround is known can be cropped"
        with pytest.raises(ValueError, match=message):
            crop.crop(1, 1, 2, 2)

    def test_is_immutable(self):
        img = Image(np.zeros((2, 2), dtype=np.uint8))
        with pytest.raises(ValueError):
            img.pixels[0, 0] = 1

    @pytest.mark.parametrize("rows, dtype", [
        ([[0, 255]], np.int64), ([[1.0, 2.0]], np.float64), ([[3, 4]], np.uint8),
    ], ids=["int64", "float", "uint8"])
    def test_pixels_are_a_read_only_uint8_copy_of_the_source(self, rows, dtype):
        source = np.array(rows, dtype=dtype)
        img = Image(source)
        assert img == Image(np.array(rows, dtype=np.uint8))
        assert img.pixels.dtype == np.uint8 and not img.pixels.flags.writeable
        source[0, 0] = 7
        assert img.pixels.tolist() == rows

    def test_samples_row_major(self):
        img = Image(np.array([[1, 2], [3, 4]], dtype=np.uint8))
        assert img.pixels.tolist() == [[1, 2], [3, 4]]
        assert img.width == 2 and img.height == 2

    def test_equality(self):
        a = Image(np.arange(6, dtype=np.uint8).reshape(2, 3))
        b = Image(np.arange(6, dtype=np.uint8).reshape(2, 3))
        c = Image(np.arange(6, dtype=np.uint8).reshape(3, 2))
        assert a == b and a != c

    def test_equality_compares_the_place_in_the_frame(self):
        scene = make_texture(64, 64, 1)
        crop = scene.crop(0, 0, 4, 4)
        whole = Image(scene.pixels[:4, :4])
        assert crop == scene.crop(0, 0, 4, 4) and crop != whole
        # The frame width sets the noise stream, so the two noise differently.
        noise = NoiseSpec(2.0, 3)
        assert not np.array_equal(add_noise(crop, noise).pixels, add_noise(whole, noise).pixels)
        flat = Image(np.zeros((8, 8), dtype=np.uint8))
        assert flat.crop(0, 0, 2, 2) != flat.crop(3, 3, 5, 5)


class TestWindowSpec:
    def test_rejects_tiny(self):
        with pytest.raises(ValueError, match=">= 2"):
            WindowSpec(0, 0, 1)

    def test_rejects_non_integer_fields(self):
        for args in [(32.5, 32, 5), (32, 32, 5.5), (32, 32.0, 5)]:
            with pytest.raises(ValueError, match="must be an integer"):
                WindowSpec(*args)
        window = WindowSpec(np.int64(10), np.int32(7), np.uint8(5))
        assert window == WindowSpec(10, 7, 5) and type(window.n) is int

    def test_odd_window_is_centered(self):
        assert WindowSpec(10, 7, 5).origin() == (8, 5)

    def test_even_window_center_sits_above_left_of_middle(self):
        # 4-wide window from origin 9 spans 9..12; pixel 10 is just
        # above-left of the geometric middle at 10.5.
        assert WindowSpec(10, 10, 4).origin() == (9, 9)

    def test_region_extracts_block(self):
        img = Image(np.arange(25, dtype=np.uint8).reshape(5, 5))
        block = img.region(WindowSpec(2, 2, 3))
        assert block.tolist() == [[6, 7, 8], [11, 12, 13], [16, 17, 18]]

    def test_region_of_a_crop_names_its_place_in_the_frame(self):
        crop = make_texture(12, 10, 1).crop(2, 3, 8, 9)
        assert crop.region(WindowSpec(4, 5, 3)).tolist() == crop.pixels[1:4, 1:4].tolist()
        message = (r"3x3 window centered at \(2, 5\) does not fit "
                   r"a 6x6 image at \(2, 3\) in a 12x10 frame")
        with pytest.raises(ValueError, match=message):
            crop.region(WindowSpec(2, 5, 3))

    def test_region_rejects_overflow(self):
        img = Image(np.zeros((5, 5), dtype=np.uint8))
        for cx, cy, n in [(0, 2, 3), (2, 4, 3), (2, 2, 7)]:
            with pytest.raises(ValueError, match="does not fit"):
                img.region(WindowSpec(cx, cy, n))


class TestPgm:
    def test_reads_2x2_bytes_directly(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64]))
        img = load_pgm(path)
        assert (img.width, img.height) == (2, 2)
        assert img.pixels.tolist() == [[0, 255], [128, 64]]

    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        for i, (w, h) in enumerate([(1, 1), (31, 31), (7, 3), (64, 64)]):
            img = Image(rng.integers(0, 256, size=(h, w), dtype=np.uint8))
            path = tmp_path / f"rt{i}.pgm"
            save_pgm(img, path)
            assert load_pgm(path) == img

    def test_single_black_pixel_payload(self, tmp_path):
        path = tmp_path / "one.pgm"
        save_pgm(Image(np.zeros((1, 1), dtype=np.uint8)), path)
        assert path.read_bytes() == b"P5\n1 1\n255\n\x00"

    def test_header_comments_are_skipped(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# generated\n2 1 # trailing\n255\n\x01\x02")
        assert load_pgm(path).pixels.tolist() == [[1, 2]]

    def test_ascii_variant_rejected(self, tmp_path):
        path = tmp_path / "a.pgm"
        path.write_bytes(b"P2\n2 2\n255\n0 1 2 3\n")
        with pytest.raises(PgmFormatError, match="unsupported PGM variant"):
            load_pgm(path)

    def test_color_variant_rejected(self, tmp_path):
        path = tmp_path / "p6.pgm"
        path.write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
        with pytest.raises(PgmFormatError, match="unsupported PGM variant"):
            load_pgm(path)

    def test_wrong_maxval_rejected(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(PgmFormatError, match="maxval"):
            load_pgm(path)

    def test_truncated_raster_rejected(self, tmp_path):
        path = tmp_path / "tr.pgm"
        path.write_bytes(b"P5\n4 4\n255\n\x00\x01")
        with pytest.raises(PgmFormatError, match="truncated"):
            load_pgm(path)

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P5\nnope 2\n255\n\x00\x00")
        with pytest.raises(PgmFormatError, match="malformed"):
            load_pgm(path)

    @pytest.mark.parametrize("data, message", [
        (b"P", "file too short"),
        (b"GIF89a", "missing P5 magic number"),
        (b"P5\n", "missing width"),
        (b"P5\n2 # the height is cut off", "missing height"),
        (b"P5\n2 2\n", "missing maxval"),
        (b"P5\n0 2\n255\n", "bad dimensions 0x2"),
        (b"P512 1\n255\n" + bytes(12), "no whitespace after P5"),
        (b"P5 2#c\n2 255\n" + bytes(4), "non-numeric width b'2#c'"),
        (b"P5 2 2 # c", "missing maxval"),
    ], ids=["short", "no-magic", "no-width", "no-height", "no-maxval", "zero-width", "run-on",
            "hash-in-token", "comment-to-end"])
    def test_header_failures_are_named(self, tmp_path, data, message):
        path = tmp_path / "h.pgm"
        path.write_bytes(data)
        with pytest.raises(PgmFormatError, match=f"^malformed PGM header: {message}$"):
            load_pgm(path)

    def test_missing_file_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_pgm(tmp_path / "absent.pgm")

    def test_unwritable_target_raises_oserror(self, tmp_path):
        img = Image(np.zeros((1, 1), dtype=np.uint8))
        with pytest.raises(OSError):
            save_pgm(img, tmp_path / "no_such_dir" / "x.pgm")


class TestStepEdge:
    def test_four_wide_edge_at_two(self):
        img = make_step_edge(4, 2, 2, 0, 255)
        assert img.pixels.tolist() == [[0, 0, 255, 255], [0, 0, 255, 255]]

    def test_edge_at_zero_is_all_high(self):
        assert make_step_edge(4, 1, 0, 0, 255).pixels.tolist() == [[255] * 4]

    def test_edge_at_width_is_all_low(self):
        assert make_step_edge(4, 1, 4, 10, 200).pixels.tolist() == [[10] * 4]

    def test_columns_are_constant_with_one_value_each(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            w = int(rng.integers(1, 40))
            h = int(rng.integers(1, 40))
            edge = int(rng.integers(0, w + 1))
            low, high = sorted(rng.integers(0, 256, size=2).tolist())
            img = make_step_edge(w, h, edge, low, high)
            px = img.pixels
            assert np.all(px == px[0, :])  # constant within each column
            assert np.all(np.isin(px[0, :], [low, high]))

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(ValueError, match="edge_x"):
            make_step_edge(4, 4, 5, 0, 255)
        with pytest.raises(ValueError, match="edge_x"):
            make_step_edge(4, 4, -1, 0, 255)


class TestTexture:
    def test_deterministic_per_seed(self):
        assert make_texture(64, 64, 1) == make_texture(64, 64, 1)

    def test_seed_changes_content(self):
        assert make_texture(64, 64, 1) != make_texture(64, 64, 2)

    def test_histogram_spans_full_contrast(self):
        img = make_texture(64, 64, 1)
        assert img.pixels.min() <= 16
        assert img.pixels.max() >= 240

    def test_has_detail_under_the_metric(self):
        img = make_texture(64, 64, 1)
        assert resolution(img, WindowSpec(32, 32, 31), MetricKind.SQUARED) > 0

    def test_degenerate_sizes_still_work(self):
        assert make_texture(1, 1, 0).width == 1
        assert make_texture(1, 5, 0).height == 5

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            make_texture(8, 8, -1)

    # sha256 of the pixel bytes. The first four are the scenes the tests and
    # the benchmark use; 592925406497092371 is the first autofocus-512 scene
    # at benchmark seed 11, int(default_rng([11, 0, 0]).integers(2**62)).
    # The rest cover odd, even and single-pixel sides.
    @pytest.mark.parametrize(
        "width, height, seed, digest",
        [
            (512, 512, 99, "680e64112962d1a537065cdd3f109a04193b60aea80f08a29d1c5d744f5f04b5"),
            (256, 256, 123, "473aef3feea340bba33d57243d4a9c00d6bd5065e989ebbb177dafd5f9baae86"),
            (64, 64, 1, "8591f139d7a813534e2b0c778dc6b2d0cd41e2e44f3531ea0b72e750fb36481e"),
            (512, 512, 592925406497092371,
             "b8165f24a893b59e92414a66fb8882f3f002f3d5a7cf77fe1f441a448fed557b"),
            (1, 1, 0, "76be8b528d0075f7aae98d6fa57a6d3c83ae480a8469e668d7b0af968995ac71"),
            (1, 7, 3, "ff1343b7bfa56fb65cd58bc09242a616de30fa534d90ab2b908609cb97a6d1b0"),
            (6, 1, 5, "dcad708dfe0a59003c7364debd2aa3f1c9bedea4fb973539d213ea25839e3dd5"),
            (17, 5, 8, "cc486112be5f851ed3d63d6f4974ded8b7484ff10adf6c8651ac9e7f64fb0de6"),
            (96, 80, 42, "db5997cefec7795b1b99f559cb57c39b0592237e8e02798f813dfa40752c91f0"),
        ],
    )
    def test_pixel_bytes_are_pinned(self, width, height, seed, digest):
        pixels = make_texture(width, height, seed).pixels
        assert hashlib.sha256(pixels.tobytes()).hexdigest() == digest

    @settings(max_examples=60)
    @given(width=st.integers(1, 70), height=st.integers(1, 70), seed=st.integers(0, 2**63 - 1))
    @example(width=1, height=70, seed=3)
    @example(width=70, height=1, seed=4)
    @example(width=69, height=67, seed=5)
    def test_matches_the_full_spectrum_oracle(self, width, height, seed):
        pixels = make_texture(width, height, seed).pixels
        assert np.array_equal(pixels, naive_texture(width, height, seed))


class TestNoise:
    def test_sigma_zero_is_identity(self):
        img = make_texture(32, 32, 5)
        assert add_noise(img, NoiseSpec(0.0, 99)) is img

    @pytest.mark.parametrize("flag", [True, False, np.False_])
    def test_a_bool_sigma_is_refused(self, flag):
        with pytest.raises(ValueError, match="^noise sigma must be a number, not a bool, got"):
            NoiseSpec(flag)

    def test_deterministic_per_seed(self):
        img = make_texture(32, 32, 5)
        spec = NoiseSpec(3.0, 42)
        assert add_noise(img, spec) == add_noise(img, spec)
        assert add_noise(img, spec) != add_noise(img, NoiseSpec(3.0, 43))

    def test_sample_stddev_tracks_sigma(self):
        flat = Image(np.full((20, 50), 128, dtype=np.uint8))
        noisy = add_noise(flat, NoiseSpec(2.0, 7))
        measured = float(noisy.pixels.astype(np.float64).std())
        assert 1.5 <= measured <= 2.5

    def test_output_stays_in_range(self):
        # Saturation at both ends must clamp, not wrap.
        dark = Image(np.zeros((10, 10), dtype=np.uint8))
        bright = Image(np.full((10, 10), 255, dtype=np.uint8))
        for img in (dark, bright):
            out = add_noise(img, NoiseSpec(50.0, 3))
            assert out.pixels.min() >= 0 and out.pixels.max() <= 255

    @pytest.mark.parametrize("sigma", [0.5, 2.0, 1000.0])
    @pytest.mark.parametrize("seed", [0, 7, 2**63])
    def test_matches_the_whole_frame_normal_oracle(self, sigma, seed):
        img = make_texture(40, 24, 3)
        expected = naive_add_noise(img.pixels, sigma, seed)
        assert np.array_equal(add_noise(img, NoiseSpec(sigma, seed)).pixels, expected)
        crop = add_noise(img.crop(5, 3, 17, 11), NoiseSpec(sigma, seed))
        assert np.array_equal(crop.pixels, expected[3:11, 5:17])

    @pytest.mark.parametrize(("width", "height", "box"), [
        (40, 3, (5, 0, 17, 2)),  # nothing skipped: the crop starts at row 0
        (1, 3, (0, 1, 1, 2)),  # 1 sample skipped
        (65_535, 2, (0, 1, 65_535, 2)),  # one sample short of a chunk
        (65_536, 2, (7, 1, 300, 2)),  # one whole chunk
        (65_537, 2, (65_000, 1, 65_537, 2)),  # one chunk and one sample
        (65_536, 5, (1, 3, 9, 5)),  # three whole chunks, then two rows
    ], ids=["0", "1", "chunk-1", "chunk", "chunk+1", "3-chunks"])
    def test_a_skipped_prefix_of_any_length_keeps_the_whole_frame_draws(self, width, height, box):
        # Whole 64 Ki-sample chunks of the rows above a crop are drawn into
        # one reused buffer and the rest with the crop's rows; the crop's
        # draws must still be the frame's.
        sigma, seed = 3.0, 2**63
        x0, y0, x1, y1 = box
        scene = Image(np.random.default_rng(1).integers(0, 256, (height, width), dtype=np.uint8))
        crop = scene.crop(*box)
        draws = np.random.default_rng(seed).standard_normal(y1 * width).reshape(y1, width)
        field = draw_noise(NoiseSpec(sigma, seed), crop)
        assert np.array_equal(field.values, draws[y0:, x0:x1] * sigma)
        expected = naive_add_noise(scene.pixels, sigma, seed)[y0:y1, x0:x1]
        assert np.array_equal(add_noise(crop, NoiseSpec(sigma, seed)).pixels, expected)
        assert np.array_equal(add_noise(crop, field).pixels, expected)

    def test_a_field_drawn_ahead_gives_the_bytes_of_its_spec(self):
        img = make_texture(40, 24, 3)
        crop = img.crop(5, 3, 17, 11)
        spec = NoiseSpec(2.0, 9)
        field = draw_noise(spec, crop)
        assert field.sigma == 2.0 and field.values.shape == (8, 12)
        assert add_noise(crop, field) == add_noise(crop, spec)
        elsewhere = img.crop(6, 3, 18, 11)
        with pytest.raises(ValueError, match="does not fit"):
            add_noise(elsewhere, field)

    def test_a_drawn_field_is_read_only(self):
        field = draw_noise(NoiseSpec(2.0, 9), make_texture(40, 24, 3).crop(5, 3, 17, 11))
        with pytest.raises(ValueError, match="read-only"):
            field.values[0, 0] = 0.0

    def test_an_overflowing_sigma_saturates_without_a_warning(self):
        # Draws scaled by 1e308 overflow to +-inf; the suite turns numpy's
        # overflow warning into an error, so this fails if one is raised.
        img = make_texture(16, 16, 1)
        noisy = add_noise(img, NoiseSpec(1e308, 1))
        draws = np.random.default_rng(1).standard_normal((16, 16))
        assert np.array_equal(noisy.pixels, np.where(draws > 0, 255, 0))

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError, match="sigma"):
            NoiseSpec(-1.0, 0)
        with pytest.raises(ValueError, match="seed"):
            NoiseSpec(1.0, -4)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                NoiseSpec(bad, 0)

    def test_derived_seeds_are_stable_and_distinct(self):
        spec = NoiseSpec(1.0, 10)
        assert spec.derived(3, 1) == spec.derived(3, 1)
        seeds = {spec.derived(i, j).seed for i in range(4) for j in range(4)}
        assert len(seeds) == 16


_SCENE = make_texture(64, 64, 1)
_CFG = OpticalConfig(a_mm=1000.0, f_mm=50.0, g=2.0, pixel_pitch_mm=0.005, d_max=100.0)
_WINDOW = WindowSpec(32, 32, 9)
_PX = np.zeros((2, 2), np.uint8)


@pytest.mark.parametrize("build", [
    lambda: NoiseSpec(1.0, 1.5),
    lambda: NoiseSpec(1.0, float("nan")),
    lambda: SearchParams(-1.0, 1.0, coarse_steps=7.5),
    lambda: SearchParams(-1.0, 1.0, refine_iterations=2.5),
    lambda: SearchParams(-1.0, 1.0, trials_per_eval=1.5),
    lambda: sweep(_SCENE, _CFG, _WINDOW, MetricKind.SQUARED, [0.0], NoiseSpec(1.0), trials=1.5),
    lambda: stability_study(_SCENE, _CFG, LensState(0.0), (32, 32), [5], NoiseSpec(1.0),
                            repeats=3.5),
    lambda: compare_metrics(_SCENE, _CFG, _WINDOW, [0.0], repeats_for_timing=10.5),
], ids=["noise-seed", "noise-seed-nan", "coarse-steps", "refine-iterations", "trials-per-eval",
        "sweep-trials", "stability-repeats", "compare-repeats"])
def test_non_integer_counts_and_seeds_rejected(build):
    with pytest.raises(ValueError, match="must be an integer"):
        build()


@pytest.mark.parametrize("build, message", [
    (lambda: make_texture(8, 8, 1.5), "seed must be an integer"),
    (lambda: make_texture(8.5, 8, 1), "width must be an integer"),
    (lambda: make_step_edge(4.5, 2, 1, 0, 255), "width must be an integer"),
    (lambda: make_pillbox_psf(float("inf")), "radius must be finite"),
    (lambda: make_pillbox_psf(float("nan")), "radius must be finite"),
    (lambda: Camera(_SCENE, _CFG, [], NoiseSpec(0.0), [()], 1), "windows must be nonempty"),
    (lambda: _SCENE.crop(1.5, 0, 3, 3), r"box \[1\.5, 3\) x \[0, 3\) bound must be an integer"),
    (lambda: Image(_PX, origin=(0.7, 0), frame_size=(4, 4)), "image origin must be an integer"),
    (lambda: Image(_PX, origin=("1", 0), frame_size=(4, 4)), "image origin must be an integer"),
    (lambda: Image(_PX, frame_size=(4.9, 4)), "image frame_size must be an integer"),
], ids=["texture-seed", "texture-width", "step-width", "psf-inf", "psf-nan", "camera-no-windows",
        "crop-bound", "image-origin-float", "image-origin-str", "image-frame-size-float"])
def test_bad_arguments_rejected_with_their_name(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("study", [
    lambda zs: sweep(_SCENE, _CFG, _WINDOW, MetricKind.SQUARED, zs, NoiseSpec(0.0), trials=1),
    lambda zs: compare_metrics(_SCENE, _CFG, _WINDOW, zs, repeats_for_timing=10),
], ids=["sweep", "compare"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_non_finite_z_rejected_before_any_blur(monkeypatch, study, bad):
    def no_blur(*args):
        raise AssertionError("a capture was blurred")

    monkeypatch.setattr(focuslab.metric, "convolve", no_blur)
    with pytest.raises(ValueError, match="z_values must be finite"):
        study([0.1, bad])


@settings(max_examples=80)
@given(pixels=arrays(np.uint8, array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=40)))
def test_pgm_round_trip_over_random_shapes_and_bytes(tmp_path_factory, pixels):
    # Any raster byte, whitespace included, must survive the header's single separator.
    path = tmp_path_factory.getbasetemp() / "round_trip.pgm"
    save_pgm(Image(pixels), path)
    loaded = load_pgm(path)
    assert loaded.pixels.shape == pixels.shape
    assert np.array_equal(loaded.pixels, pixels)


_PNM_WHITESPACE = st.sampled_from([bytes([c]) for c in b" \t\n\r\x0b\x0c"])
# A '#' comment runs to the next newline, so its body may hold '#' and '\r' but no '\n'.
_COMMENT = st.lists(st.sampled_from(b"#\r\t a9\xff"), max_size=6).map(
    lambda body: b"#" + bytes(body) + b"\n")
_GAP = st.lists(st.one_of(_PNM_WHITESPACE, _COMMENT), max_size=4).map(b"".join)


@st.composite
def _pgm_files(draw):
    """(file bytes, pixels) of a P5 file whose header spreads whitespace and comments."""
    width, height = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    raster = draw(st.binary(min_size=width * height, max_size=width * height))
    # A comment may follow the magic directly; a token must end at a whitespace byte.
    header = b"P5" + draw(st.one_of(_COMMENT, _PNM_WHITESPACE)) + draw(_GAP)
    header += str(width).encode() + draw(_PNM_WHITESPACE) + draw(_GAP)
    header += str(height).encode() + draw(_PNM_WHITESPACE) + draw(_GAP)
    header += b"255" + draw(_PNM_WHITESPACE)
    return header + raster, np.frombuffer(raster, np.uint8).reshape(height, width)


@settings(max_examples=200)
@given(pgm=_pgm_files())
def test_header_whitespace_and_comments_are_skipped(tmp_path_factory, pgm):
    data, pixels = pgm
    path = tmp_path_factory.getbasetemp() / "header.pgm"
    path.write_bytes(data)
    assert np.array_equal(load_pgm(path).pixels, pixels)
