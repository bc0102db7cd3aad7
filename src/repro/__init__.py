"""repro — reproduction of "Towards Deep Learning-based Occupancy Detection
Via WiFi Sensing in Unconstrained Environments" (DATE 2023).

The library is organised bottom-up:

* :mod:`repro.channel` / :mod:`repro.environment` — the physics and
  behavioural substrates replacing the paper's private testbed;
* :mod:`repro.data` — the Table I dataset pipeline and Table III folds;
* :mod:`repro.nn` / :mod:`repro.baselines` — the from-scratch learning
  stacks (autograd MLP; logistic regression, random forest, OLS);
* :mod:`repro.core` — the paper's contribution: the occupancy detector,
  the environment regressor, and the Table IV / Table V experiment
  harness;
* :mod:`repro.xai` — Grad-CAM feature importance (Figure 3);
* :mod:`repro.analysis` — the Section V-A profiling pipeline;
* :mod:`repro.deploy` — the served plan as C firmware, and Nucleo-L432KC
  resource accounting;
* :mod:`repro.serve` — the micro-batched multi-link inference engine;
* :mod:`repro.faults` — seedable fault injection and the chaos-bench
  accuracy-under-fault harness.

Quickstart::

    from repro import CampaignConfig, generate_benchmark_folds, OccupancyDetector
    from repro.core import FeatureSet, extract_features

    dataset, split = generate_benchmark_folds(CampaignConfig.smoke_scale())
    x = extract_features(split.train.data, FeatureSet.CSI)
    detector = OccupancyDetector(n_inputs=x.shape[1]).fit(x, split.train.data.occupancy)
"""

from .config import (
    BehaviorConfig,
    CampaignConfig,
    RadioConfig,
    RoomConfig,
    ThermalConfig,
    TrainingConfig,
)
from .core.detector import OccupancyDetector
from .core.estimator import Estimator, PersistentEstimator
from .core.regressor import EnvironmentRegressor
from .core.counter import OccupantCounter
from .core.activity import ActivityRecognizer
from .core.features import FeatureSet, extract_features
from .data.dataset import OccupancyDataset
from .data.folds import FoldSplit, make_paper_folds
from .data.synthetic import generate_benchmark_dataset, generate_benchmark_folds
from .exceptions import ReproError

__version__ = "1.0.0"

__all__ = [
    "BehaviorConfig",
    "CampaignConfig",
    "RadioConfig",
    "RoomConfig",
    "ThermalConfig",
    "TrainingConfig",
    "OccupancyDetector",
    "Estimator",
    "PersistentEstimator",
    "EnvironmentRegressor",
    "OccupantCounter",
    "ActivityRecognizer",
    "FeatureSet",
    "extract_features",
    "OccupancyDataset",
    "FoldSplit",
    "make_paper_folds",
    "generate_benchmark_dataset",
    "generate_benchmark_folds",
    "ReproError",
    "__version__",
]
