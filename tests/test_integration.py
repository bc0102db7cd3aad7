"""End-to-end integration tests: generate -> split -> train -> evaluate
-> explain -> deploy, exercising the public API exactly as the examples
and benchmarks do."""

import numpy as np
import pytest

import repro
from repro.config import TrainingConfig
from repro.core.detector import OccupancyDetector
from repro.core.features import FeatureSet, extract_features
from repro.deploy.export import export_c_header
from repro.deploy.footprint import estimate_footprint
from repro.fastpath import freeze_detector


FAST = TrainingConfig(epochs=4, hidden_sizes=(32, 32), batch_size=128)


class TestPublicApi:
    def test_top_level_exports(self):
        assert repro.__version__
        for name in ("CampaignConfig", "OccupancyDetector", "generate_benchmark_folds"):
            assert hasattr(repro, name)


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def pipeline(self, day_split):
        """Train a CSI detector on fold 0 of the shared day campaign."""
        x_train = extract_features(day_split.train.data, FeatureSet.CSI)
        detector = OccupancyDetector(64, FAST)
        detector.fit(x_train, day_split.train.data.occupancy)
        return detector, day_split

    def test_temporal_generalization(self, pipeline):
        # The paper's protocol: never retrain, evaluate on future folds.
        detector, split = pipeline
        accuracies = []
        for fold in split.tests:
            x = extract_features(fold.data, FeatureSet.CSI)
            accuracies.append(detector.score(x, fold.data.occupancy))
        assert np.mean(accuracies) > 0.8

    def test_gradcam_on_trained_detector(self, pipeline):
        detector, split = pipeline
        x = extract_features(split.train.data, FeatureSet.CSI)
        occupied = x[split.train.data.occupancy == 1][:128]
        result = detector.explain(occupied, target_class=1)
        assert result.feature_importance.shape == (64,)
        # Guard bins carry a constant floor: zero importance.
        assert result.feature_importance[0] == pytest.approx(0.0, abs=1e-6)

    def test_deploy_chain(self, pipeline, tmp_path):
        detector, split = pipeline
        # The plan carries the fitted scaler: raw features in, no
        # hand-written standardisation on either side.
        quantized = freeze_detector(detector).quantized("int8")
        report = estimate_footprint(quantized)
        assert report.fits

        header = export_c_header(quantized, tmp_path / "model.h")
        assert "repro_input_mean" in header.read_text()

        # Quantized predictions agree with the float model.
        x = extract_features(split.tests[0].data, FeatureSet.CSI)[:200]
        agreement = np.mean(detector.predict(x) == quantized.predict(x))
        assert agreement > 0.97

    def test_dataset_save_load_retrain(self, day_dataset, tmp_path):
        from repro.data.io import load_npz, save_npz
        from repro.data.folds import make_paper_folds

        path = save_npz(day_dataset, tmp_path / "campaign.npz")
        restored = load_npz(path)
        split = make_paper_folds(restored)
        assert len(split.tests) == 5
