"""RICC + AICCA: rotationally invariant cloud clustering in pure NumPy."""

from repro.ricc.aicca import AICCAModel, ClassStatistics
from repro.ricc.autoencoder import RotationInvariantAutoencoder, TrainRecord
from repro.ricc.cluster import AgglomerativeClustering, Merge
from repro.ricc.evaluate import (
    QualityReport,
    adjusted_rand_index,
    cluster_stability,
    quality_report,
    silhouette_score,
)
from repro.ricc.rotinv import (
    NUM_TRANSFORMS,
    transform_batch,
)

__all__ = [
    "RotationInvariantAutoencoder",
    "TrainRecord",
    "AgglomerativeClustering",
    "Merge",
    "AICCAModel",
    "ClassStatistics",
    "silhouette_score",
    "adjusted_rand_index",
    "cluster_stability",
    "quality_report",
    "QualityReport",
    "transform_batch",
    "NUM_TRANSFORMS",
]
