import io

import numpy as np
import pytest

from focuslab import (
    LensState,
    MetricKind,
    NoiseSpec,
    OpticalConfig,
    StabilityRow,
    WindowSpec,
    compare_metrics,
    stability_study,
)
from focuslab._csvio import fmt_num

CFG = OpticalConfig(a_mm=1000.0, f_mm=50.0, g=2.0, pixel_pitch_mm=0.005, d_max=100.0)


class TestStabilityRow:
    def test_published_style_row_arithmetic(self):
        # Three readings a couple of tenths of a percent apart, the regime a
        # 31x31 window reaches: the signed percent deviations follow directly.
        row = StabilityRow.from_measurements(31, [27930, 27896, 27868])
        assert row.mean == 27898.0
        assert [round(p, 3) for p in row.deviations_pct] == [0.115, -0.007, -0.108]
        assert round(row.max_abs_deviation_pct, 3) == 0.115

    def test_coarse_row_arithmetic(self):
        # A wobbly 5x5-style triple: (381-346)/346 ~ +10%.
        row = StabilityRow.from_measurements(5, [381, 290, 366])
        assert row.mean == pytest.approx(345.6667, abs=1e-4)
        assert round(row.deviations_pct[0], 1) == 10.2
        assert round(row.deviations_pct[1], 1) == -16.1

    def test_self_consistency(self):
        rng = np.random.default_rng(41)
        values = rng.integers(1000, 50000, size=7).tolist()
        row = StabilityRow.from_measurements(9, values)
        mean = float(np.mean(row.measurements))
        assert row.mean == mean
        for d, pct in zip(row.measurements, row.deviations_pct):
            assert pct == 100.0 * (d - mean) / mean
        assert row.max_abs_deviation_pct == max(abs(p) for p in row.deviations_pct)

    def test_all_zero_measurements(self):
        row = StabilityRow.from_measurements(5, [0, 0, 0])
        assert row.mean == 0.0
        assert row.deviations_pct == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("values", [[1.5, 2], [float("nan"), 2], [-1, 2]])
    def test_non_integer_or_negative_reading_rejected(self, values):
        with pytest.raises(ValueError, match="measurement"):
            StabilityRow.from_measurements(5, values)


    @pytest.mark.parametrize("n", [5.5, -3, 1])
    def test_non_integer_or_too_small_window_size_rejected(self, n):
        with pytest.raises(ValueError, match="window n"):
            StabilityRow.from_measurements(n, [1, 2])


class TestStabilityStudy:
    def test_noiseless_deviations_are_exactly_zero(self, texture_256):
        report = stability_study(
            texture_256, CFG, LensState(0.0), (128, 128), [5, 9], NoiseSpec(0.0), repeats=3
        )
        for row in report.rows:
            assert row.deviations_pct == (0.0,) * 3
            assert row.max_abs_deviation_pct == 0.0

    def test_larger_windows_scatter_less(self, texture_256):
        report = stability_study(
            texture_256, CFG, LensState(0.0), (128, 128), [5, 9, 17, 31],
            NoiseSpec(2.0, 1000), repeats=10,
        )
        spread = [row.max_abs_deviation_pct for row in report.rows]
        assert all(b < a for a, b in zip(spread, spread[1:]))

    def test_rows_follow_request_order(self, texture_256):
        report = stability_study(
            texture_256, CFG, LensState(0.0), (128, 128), [17, 5], NoiseSpec(1.0, 3), repeats=3
        )
        assert [row.n for row in report.rows] == [17, 5]

    def test_deterministic(self, texture_256):
        args = (texture_256, CFG, LensState(0.1), (128, 128), [5, 9], NoiseSpec(2.0, 7), 4)
        assert stability_study(*args) == stability_study(*args)

    def test_window_overflow_rejected(self, texture_256):
        with pytest.raises(ValueError, match="does not fit"):
            stability_study(
                texture_256, CFG, LensState(0.0), (2, 2), [5, 9], NoiseSpec(2.0), repeats=3
            )

    def test_fractional_size_rejected(self, texture_256):
        with pytest.raises(ValueError, match="must be an integer"):
            stability_study(
                texture_256, CFG, LensState(0.0), (128, 128), [5.7, 9], NoiseSpec(2.0), repeats=3
            )

    def test_too_few_repeats_rejected(self, texture_256):
        with pytest.raises(ValueError, match="repeats"):
            stability_study(
                texture_256, CFG, LensState(0.0), (128, 128), [5], NoiseSpec(2.0), repeats=2
            )

    def test_csv_layout(self, texture_256):
        report = stability_study(
            texture_256, CFG, LensState(0.0), (128, 128), [5], NoiseSpec(0.0), repeats=3
        )
        buf = io.StringIO()
        report.write_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "n,measurement_index,d,mean,deviation_pct"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "5" and first[1] == "0"


class TestCompareMetrics:
    def test_both_kinds_peak_at_the_same_displacement(self, texture_256):
        window = WindowSpec(128, 128, 31)
        zs = [-0.4, -0.2, 0.0, 0.2, 0.4]
        report = compare_metrics(texture_256, CFG, window, zs, repeats_for_timing=10)
        assert report.argmax_z_mm[MetricKind.SQUARED] == report.argmax_z_mm[MetricKind.ABSOLUTE]
        assert report.argmax_z_mm[MetricKind.SQUARED] in zs

    def test_times_are_positive_for_every_cell(self, texture_256):
        window = WindowSpec(128, 128, 31)
        report = compare_metrics(
            texture_256, CFG, window, [0.0], repeats_for_timing=10, sizes=(5, 31)
        )
        assert len(report.timings) == 4  # 2 kinds x 2 sizes
        for row in report.timings:
            assert row.mean_ns_per_eval > 0

    def test_bigger_windows_cost_more(self, texture_256):
        # Below ~100 px the vectorized metric is all fixed per-call overhead,
        # so the term-count scaling is only measurable once windows get big.
        window = WindowSpec(128, 128, 31)
        report = compare_metrics(
            texture_256, CFG, window, [0.0], repeats_for_timing=300, sizes=(5, 201)
        )
        by_cell = {(r.kind, r.n): r.mean_ns_per_eval for r in report.timings}
        for kind in MetricKind:
            assert by_cell[(kind, 201)] > by_cell[(kind, 5)]

    def test_empty_sizes_rejected(self, texture_256):
        with pytest.raises(ValueError, match="sizes must be nonempty"):
            compare_metrics(texture_256, CFG, WindowSpec(128, 128, 31), [0.0], 10, sizes=())

    def test_too_few_timing_repeats_rejected(self, texture_256):
        with pytest.raises(ValueError, match="repeats_for_timing"):
            compare_metrics(texture_256, CFG, WindowSpec(128, 128, 31), [0.0], 9)

    def test_csv_layout(self, texture_256):
        window = WindowSpec(128, 128, 31)
        report = compare_metrics(
            texture_256, CFG, window, [-0.1, 0.0, 0.1], repeats_for_timing=10, sizes=(5,)
        )
        buf = io.StringIO()
        report.write_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "kind,n,mean_ns_per_eval,argmax_z_mm"
        assert len(lines) == 3
        kinds = {line.split(",")[0] for line in lines[1:]}
        assert kinds == {"squared", "absolute"}
        assert all(line.split(",")[3] == "0" for line in lines[1:])


@pytest.mark.parametrize("value, text", [
    (-0.0, "0"),
    (-4e-10, "0"),  # rounds to -0 at 9 places
    (1.5e-3, "0.0015"),
    (1e20, "100000000000000000000"),
])
def test_fmt_num_prints_plain_decimals_and_no_negative_zero(value, text):
    assert fmt_num(value) == text
