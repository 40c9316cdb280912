"""Class-balanced sample selection for active class-incremental learning.

Feature-level pipeline: cluster an unlabeled pool, spread a labeling budget
proportionally across clusters, greedily pick samples whose empirical
Gaussian matches each cluster's, then drive a multi-session protocol with
pseudo-feature replay and report balance and accuracy diagnostics against
baseline strategies.

The package exports the names a caller of the pipeline needs; every other
name is imported from its own module, such as
`cbsel.selection.greedy_select_cluster` or `cbsel.gaussian.kl_divergence`.
"""

from .config import RunConfig, load_config
from .datagen import WorldConfig, generate
from .errors import CbselError
from .features import FeatureStore, load_features, save_features
from .protocol import RunReport, SessionPlan, SessionSpec, load_report, run, save_report
from .selection import Selection, cbs_select

__version__ = "0.1.0"

__all__ = [
    "CbselError",
    "FeatureStore",
    "RunConfig",
    "RunReport",
    "Selection",
    "SessionPlan",
    "SessionSpec",
    "WorldConfig",
    "cbs_select",
    "generate",
    "load_config",
    "load_features",
    "load_report",
    "run",
    "save_features",
    "save_report",
]
