"""AICCA: the AI-driven Cloud Classification Atlas.

Ties the RICC pieces together the way Section II-B describes: train the
rotationally invariant autoencoder on ocean-cloud tiles, cluster the
latent representations agglomeratively, freeze the centroids, and assign
one of ``num_classes`` (42 in the paper) labels to any new tile by
nearest centroid.  Class statistics associate labels with cloud physical
properties (mean optical thickness, cloud-top pressure, cloud fraction)
— the association AICCA derives from the MOD06 product.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.modis.constants import AICCA_NUM_CLASSES
from repro.ricc.autoencoder import RotationInvariantAutoencoder, TrainRecord
from repro.ricc.cluster import AgglomerativeClustering
from repro.ricc.evaluate import QualityReport, quality_report

__all__ = ["ClassStatistics", "AICCAModel"]


@dataclass(frozen=True)
class ClassStatistics:
    """Physical-property summary of one cloud class."""

    label: int
    count: int
    mean_optical_thickness: float
    mean_cloud_top_pressure: float
    mean_cloud_fraction: float


class AICCAModel:
    """A trained atlas: encoder + frozen centroids + label assignment."""

    def __init__(
        self,
        autoencoder: RotationInvariantAutoencoder,
        clustering: AgglomerativeClustering,
    ):
        if clustering.centroids_ is None:
            raise ValueError("clustering must be fitted before building an AICCAModel")
        if clustering.centroids_.shape[1] != autoencoder.latent_dim:
            raise ValueError("centroid dimensionality does not match the encoder latent")
        self.autoencoder = autoencoder
        self.clustering = clustering

    @property
    def num_classes(self) -> int:
        return self.clustering.centroids_.shape[0]  # type: ignore[union-attr]

    # -- construction ------------------------------------------------------------

    @classmethod
    def train(
        cls,
        tiles: np.ndarray,
        num_classes: int = AICCA_NUM_CLASSES,
        latent_dim: int = 16,
        hidden: Sequence[int] = (256, 64),
        epochs: int = 20,
        batch_size: int = 32,
        lr: float = 1e-3,
        lambda_inv: float = 1.0,
        linkage: str = "ward",
        seed: int = 0,
        verbose: bool = False,
    ) -> Tuple["AICCAModel", List[TrainRecord]]:
        """Stage-2 of the original workflow: RICC training + clustering.

        Returns the model and the training history.
        """
        if tiles.ndim != 4:
            raise ValueError("training tiles must be (N, H, W, C)")
        autoencoder = RotationInvariantAutoencoder(
            tile_shape=tiles.shape[1:],
            latent_dim=latent_dim,
            hidden=hidden,
            lambda_inv=lambda_inv,
            seed=seed,
        )
        history = autoencoder.train(
            tiles, epochs=epochs, batch_size=batch_size, lr=lr, seed=seed, verbose=verbose
        )
        # Training numerics are pinned to float64 (the float32 encode
        # path is reserved for inference throughput): centroids must not
        # depend on the storage dtype of the training tiles.
        latents = autoencoder.encode(np.asarray(tiles, dtype=np.float64))
        clustering = AgglomerativeClustering(n_clusters=num_classes, linkage=linkage)
        clustering.fit(latents)
        return cls(autoencoder, clustering), history

    # -- inference ------------------------------------------------------------

    def assign(self, tiles: np.ndarray) -> np.ndarray:
        """Stage-4 label assignment: tiles -> AICCA class labels.

        Float32 tiles are encoded in float32 (the inference fast path);
        the nearest-centroid argmin itself always runs in float64.
        """
        return self.clustering.predict(self.autoencoder.encode(tiles))

    def assign_with_margin(self, tiles: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Labels plus per-tile assignment margins (centroid-gap).

        The margin quantifies how decisively a tile landed in its class;
        the progressive-fidelity pass refines only tiles whose margin
        falls below ``inference.refine_threshold``.
        """
        return self.clustering.predict_with_margin(self.autoencoder.encode(tiles))

    def evaluate(
        self,
        tiles: np.ndarray,
        truth: Optional[np.ndarray] = None,
        seed: int = 0,
    ) -> QualityReport:
        """Stage-3 cluster evaluation on held-out tiles."""
        latents = self.autoencoder.encode(tiles)
        labels = self.clustering.predict(latents)

        def refit(subset: np.ndarray) -> np.ndarray:
            model = AgglomerativeClustering(
                n_clusters=min(self.num_classes, max(2, subset.shape[0] // 2)),
                linkage=self.clustering.linkage,
            )
            return model.fit_predict(subset)

        return quality_report(latents, labels, refit, truth=truth, seed=seed)

    def class_statistics(
        self,
        labels: np.ndarray,
        properties: Dict[str, np.ndarray],
    ) -> List[ClassStatistics]:
        """Per-class physical-property means from MOD06-derived fields.

        ``properties`` must contain per-tile ``optical_thickness``,
        ``cloud_top_pressure``, ``cloud_fraction`` arrays aligned with
        ``labels``.
        """
        required = ("optical_thickness", "cloud_top_pressure", "cloud_fraction")
        for key in required:
            if key not in properties:
                raise KeyError(f"properties lacks {key!r}")
            if np.asarray(properties[key]).shape != labels.shape:
                raise ValueError(f"property {key!r} misaligned with labels")
        stats = []
        for label in np.unique(labels):
            mask = labels == label
            stats.append(
                ClassStatistics(
                    label=int(label),
                    count=int(mask.sum()),
                    mean_optical_thickness=float(properties["optical_thickness"][mask].mean()),
                    mean_cloud_top_pressure=float(properties["cloud_top_pressure"][mask].mean()),
                    mean_cloud_fraction=float(properties["cloud_fraction"][mask].mean()),
                )
            )
        return stats

    # -- persistence ------------------------------------------------------------

    def save(self, path: str) -> None:
        np.savez(
            path,
            tile_shape=np.array(self.autoencoder.tile_shape),
            latent_dim=np.array([self.autoencoder.latent_dim]),
            centroids=self.clustering.centroids_,
            linkage=np.array([self.clustering.linkage]),
            **{f"model.{k}": v for k, v in self.autoencoder.state_dict().items()},
        )

    @classmethod
    def load(cls, path: str) -> "AICCAModel":
        with np.load(path) as data:
            centroids = data["centroids"]
            linkage = str(data["linkage"][0])
        autoencoder = RotationInvariantAutoencoder.load(path, prefix="model.")
        clustering = AgglomerativeClustering(n_clusters=centroids.shape[0], linkage=linkage)
        clustering.centroids_ = centroids
        return cls(autoencoder, clustering)
