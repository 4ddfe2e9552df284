"""Tests for the EWMA anomaly detector."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats import AnomalyConfig, EWMAAnomalyDetector
from repro.stats.ewma import ewm_mean_std


def detector(span=50, threshold=2.5, min_window=50):
    return EWMAAnomalyDetector(AnomalyConfig(span=span, threshold=threshold,
                                             min_window=min_window))


class TestDetection:
    def test_flat_series_never_alarms(self):
        det = detector()
        assert not det.detect(np.full(500, 100.0)).any()

    def test_spike_detected(self):
        rng = np.random.default_rng(0)
        x = rng.normal(100.0, 5.0, size=400)
        x[300] = 100.0 + 5.0 * 10  # 10 SD spike
        flags = detector().detect(x)
        assert flags[300]
        assert flags.sum() < 15  # few false alarms

    def test_no_detection_before_min_window(self):
        x = np.zeros(200)
        x[10] = 1e9
        assert not detector(min_window=50).detect(x)[:50].any()

    def test_spike_after_window_found_even_on_zero_history(self):
        x = np.zeros(200)
        x[100] = 50.0
        flags = detector().detect(x)
        assert flags[100]

    def test_threshold_controls_sensitivity(self):
        rng = np.random.default_rng(1)
        x = rng.normal(100.0, 5.0, size=400)
        x[200] = 115.0  # 3 SD
        assert detector(threshold=2.5).detect(x)[200]
        assert not detector(threshold=10.0).detect(x)[200]

    def test_short_series(self):
        assert len(detector().detect(np.array([1.0]))) == 1
        assert not detector().detect(np.array([1.0])).any()

    def test_extreme_threshold_stability(self):
        # The paper reports stable results even at 10 SD; a huge spike
        # must be caught at both 2.5 and 10 SD.
        rng = np.random.default_rng(2)
        x = rng.normal(10.0, 1.0, size=300)
        x[250] = 10_000.0
        assert detector(threshold=2.5).detect(x)[250]
        assert detector(threshold=10.0).detect(x)[250]


class TestMultiFeature:
    def test_anomaly_level_counts_features(self):
        rng = np.random.default_rng(3)
        features = rng.normal(100.0, 5.0, size=(400, 5))
        features[300, :3] += 200.0  # 3 of 5 features spike
        level = detector().anomaly_level(features)
        assert level[300] == 3

    def test_detect_multi_shape(self):
        feats = np.zeros((100, 5))
        out = detector().detect_multi(feats)
        assert out.shape == (100, 5)

    def test_detect_multi_requires_2d(self):
        with pytest.raises(ValueError):
            detector().detect_multi(np.zeros(10))


class TestBatchedRows:
    @pytest.mark.parametrize("n", (1, 2, 511, 512, 513, 864, 1500))
    def test_2d_detect_equals_rows(self, n):
        rng = np.random.default_rng(n)
        x = rng.poisson(3.0, size=(5, n)).astype(np.float64)
        x[:, n // 2:] += rng.poisson(0.05, size=(5, n - n // 2)) * 200.0
        x[3] = 0.0
        det = EWMAAnomalyDetector(AnomalyConfig())
        flags = det.detect(x)
        assert flags.shape == x.shape
        for row, values in enumerate(x):
            assert np.array_equal(flags[row], det.detect(values))

    def test_detect_multi_is_detect_per_column(self):
        rng = np.random.default_rng(4)
        features = rng.normal(100.0, 5.0, size=(400, 5))
        features[300, :2] += 300.0
        det = detector()
        multi = det.detect_multi(features)
        for j in range(5):
            assert np.array_equal(multi[:, j], det.detect(features[:, j]))
        assert multi[300].sum() >= 2


def unpruned_detect(config, series):
    """The detector without the row pruning: every row through the EWMA."""
    x = np.asarray(series, dtype=np.float64)
    flags = np.zeros(x.shape, dtype=bool)
    if x.shape[-1] < 2:
        return flags
    mean, sd = ewm_mean_std(x, config.span)
    prev_mean, prev_sd = mean[..., :-1], sd[..., :-1]
    current = x[..., 1:]
    exceeds = current > prev_mean + config.threshold * prev_sd
    flat = prev_sd == 0.0
    exceeds &= ~flat | (current > prev_mean * (1.0 + 1e-9) + 1e-9)
    exceeds &= current >= config.min_value
    flags[..., 1:] = exceeds
    flags[..., : config.min_window] = False
    return flags


@st.composite
def detector_inputs(draw):
    """Series whose values sit just below, at and above ``min_value``,
    zero or NaN, some reaching ``min_value`` only before ``min_window``;
    1-D and 2-D."""
    config = AnomalyConfig(span=draw(st.integers(1, 6)),
                           threshold=draw(st.sampled_from([0.5, 2.5])),
                           min_window=draw(st.integers(1, 8)),
                           min_value=draw(st.sampled_from([0.0, 1.0, 4.0])))
    below = np.nextafter(config.min_value, -np.inf)
    values = st.sampled_from([0.0, below, config.min_value, 10.0, 1e6,
                              float("nan")])
    n = draw(st.integers(0, 14))
    rows = draw(st.integers(0, 5))
    series = np.array(draw(st.lists(st.lists(values, min_size=n, max_size=n),
                                    min_size=max(rows, 1),
                                    max_size=max(rows, 1))),
                      dtype=np.float64).reshape(max(rows, 1), n)
    if draw(st.booleans()):  # alarm-capable values only before min_window
        series[:, config.min_window:] = np.minimum(
            series[:, config.min_window:], below)
    return config, series[0] if rows == 0 else series


class TestPruningOracle:
    @settings(deadline=None)
    @given(detector_inputs())
    def test_matches_the_unpruned_detector(self, case):
        config, series = case
        got = EWMAAnomalyDetector(config).detect(series)
        assert got.shape == series.shape
        assert np.array_equal(got, unpruned_detect(config, series))

    def test_pruned_rows_skip_the_ewma(self, monkeypatch):
        import repro.stats.anomaly as anomaly

        seen = []
        real = anomaly.ewm_mean_std
        monkeypatch.setattr(anomaly, "ewm_mean_std",
                            lambda x, span: seen.append(len(x)) or real(x, span))
        x = np.zeros((3, 20))
        x[0, 5] = 100.0    # alarm-capable value, but before min_window
        x[1, 12] = 4.0     # at the floor, after min_window: scanned
        x[2, 15] = np.nextafter(4.0, 0.0)
        det = EWMAAnomalyDetector(AnomalyConfig(span=3, min_window=10))
        assert det.detect(x).tolist() == unpruned_detect(det.config, x).tolist()
        assert seen == [1]


class TestConfigValidation:
    @pytest.mark.parametrize("kw", [{"span": 0}, {"threshold": 0.0}, {"min_window": 0}])
    def test_invalid(self, kw):
        with pytest.raises(ValueError):
            AnomalyConfig(**kw)

    def test_paper_defaults(self):
        cfg = AnomalyConfig()
        assert cfg.span == 288 and cfg.threshold == 2.5 and cfg.min_window == 288
