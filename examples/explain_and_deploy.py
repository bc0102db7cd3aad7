#!/usr/bin/env python3
"""Explainability and embedded deployment of the occupancy MLP.

Covers the paper's remaining two threads:

1. **Grad-CAM** (Section IV-B, Figure 3) — which of the 66 input features
   (64 CSI subcarriers + temperature + humidity) drive the "occupied"
   decision?  The paper finds the environment inputs near zero and the
   CSI low/high bands dominant.
2. **Deployment** (Sections IV-B, VI) — freeze the trained detector
   (scaler included) into the plan that serves traffic, quantize it to
   int8, check it fits the Nucleo-L432KC (256 KiB flash / 64 KiB RAM),
   model its Cortex-M4 inference latency and export it as a C header that
   takes raw features.

Usage::

    python examples/explain_and_deploy.py
"""

import numpy as np

from repro.config import CampaignConfig, TrainingConfig
from repro.core.detector import OccupancyDetector
from repro.core.features import FeatureSet, extract_features, feature_names
from repro.data.folds import make_paper_folds
from repro.data.recording import CollectionCampaign
from repro.deploy.export import export_c_header
from repro.deploy.footprint import estimate_footprint
from repro.deploy.timing import cortex_m4_latency_ms, measure_inference_ms
from repro.fastpath import freeze_detector


def main() -> None:
    config = CampaignConfig(duration_h=24.0, sample_rate_hz=0.25, seed=5)
    print(f"Simulating a {config.duration_h:.0f} h campaign...")
    dataset = CollectionCampaign(config).run()
    split = make_paper_folds(dataset)

    train = split.train.data
    x = extract_features(train, FeatureSet.CSI_ENV)
    print(f"Training the CSI+Env detector on {len(train)} rows x 66 features...")
    detector = OccupancyDetector(66, TrainingConfig(epochs=8))
    detector.fit(x, train.occupancy)

    # ---------------------------------------------------------- Grad-CAM
    occupied_probe = x[train.occupancy == 1][:512]
    result = detector.explain(occupied_probe, target_class=1)
    names = feature_names(FeatureSet.CSI_ENV)
    importance = result.feature_importance

    print("\nGrad-CAM importance for the 'occupied' decision (Figure 3):")
    scale = importance.max() or 1.0
    for i in list(range(4, 64, 8)) + [64, 65]:
        bar = "#" * int(30 * importance[i] / scale)
        print(f"  {names[i]:>3}  {importance[i]:6.3f}  {bar}")

    top = np.argsort(importance)[::-1][:5]
    print(f"  top-5 features: {[names[i] for i in top]}")
    print(f"  environment (e, h) importance: "
          f"{importance[64]:.3f}, {importance[65]:.3f} "
          f"vs CSI peak {importance[:64].max():.3f}")

    # --------------------------------------------------------- deployment
    print("\nQuantizing to int8 and checking the Nucleo-L432KC budget...")
    quantized = freeze_detector(detector).quantized("int8")
    report = estimate_footprint(quantized)
    print(f"  {report.describe()}")
    print(f"  Cortex-M4 (80 MHz) modelled latency: "
          f"{cortex_m4_latency_ms(quantized):.2f} ms/sample "
          f"(paper reports 10.781 ms)")
    host_ms = measure_inference_ms(detector.model, 66, n_repeats=100)
    print(f"  host (numpy) measured latency: {host_ms:.3f} ms/sample")

    # Quantization accuracy cost on held-out data.
    fold = split.tests[-1]
    x_test = extract_features(fold.data, FeatureSet.CSI_ENV)
    agreement = float(np.mean(detector.predict(x_test) == quantized.predict(x_test)))
    print(f"  float-vs-int8 prediction agreement on fold {fold.index}: "
          f"{100 * agreement:.2f} %")

    header = export_c_header(quantized, "occupancy_model.h")
    size_kib = header.stat().st_size / 1024
    print(f"\nExported firmware weights to {header} ({size_kib:.0f} KiB of C source).")


if __name__ == "__main__":
    main()
