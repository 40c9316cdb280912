"""Class-balanced sample selection for active class-incremental learning.

Feature-level pipeline: cluster an unlabeled pool, spread a labeling budget
proportionally across clusters, greedily pick samples whose empirical
Gaussian matches each cluster's, then drive a multi-session protocol with
pseudo-feature replay and report balance and accuracy diagnostics against
baseline strategies.
"""

from .baselines import (
    balanced_random_select,
    coreset_select,
    entropy_select,
    margin_select,
    random_select,
)
from .config import RunConfig, load_config
from .datagen import WorldConfig, generate
from .errors import CbselError
from .features import FeatureStore, load_features, save_features
from .gaussian import (
    DiagonalGaussian,
    MomentAccumulator,
    estimate,
    kl_divergence,
    sample,
)
from .kmeans import Clustering, cluster_members, kmeans
from .learner import (
    MemoryBuffer,
    PrototypeClassifier,
    empty_classifier,
    estimate_class_distributions,
    predict_proba,
    pseudo_label,
    train_session,
)
from .protocol import (
    Oracle,
    RunReport,
    SessionPlan,
    SessionSpec,
    discovery_ratio,
    evaluate,
    imbalance_ratio,
    load_report,
    run,
    save_report,
    selected_vs_full_kl,
)
from .selection import (
    BudgetPlan,
    Selection,
    allocate_budget,
    brute_force_select,
    cbs_select,
    greedy_select_cluster,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetPlan",
    "CbselError",
    "Clustering",
    "DiagonalGaussian",
    "FeatureStore",
    "MemoryBuffer",
    "MomentAccumulator",
    "Oracle",
    "PrototypeClassifier",
    "RunConfig",
    "RunReport",
    "Selection",
    "SessionPlan",
    "SessionSpec",
    "WorldConfig",
    "allocate_budget",
    "balanced_random_select",
    "brute_force_select",
    "cbs_select",
    "cluster_members",
    "coreset_select",
    "discovery_ratio",
    "empty_classifier",
    "entropy_select",
    "estimate",
    "estimate_class_distributions",
    "evaluate",
    "generate",
    "greedy_select_cluster",
    "imbalance_ratio",
    "kl_divergence",
    "kmeans",
    "load_config",
    "load_features",
    "load_report",
    "margin_select",
    "predict_proba",
    "pseudo_label",
    "random_select",
    "run",
    "sample",
    "save_features",
    "save_report",
    "selected_vs_full_kl",
    "train_session",
]
