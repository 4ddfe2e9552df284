"""Tests for the EWMA anomaly detector."""

import numpy as np
import pytest

from repro.stats import AnomalyConfig, EWMAAnomalyDetector


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


class TestConfigValidation:
    @pytest.mark.parametrize("kw", [{"span": 0}, {"threshold": 0.0}, {"min_window": 0}])
    def test_invalid(self, kw):
        with pytest.raises(ValueError):
            AnomalyConfig(**kw)

    def test_paper_defaults(self):
        cfg = AnomalyConfig()
        assert cfg.span == 288 and cfg.threshold == 2.5 and cfg.min_window == 288
