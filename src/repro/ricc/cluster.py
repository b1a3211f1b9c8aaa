"""Agglomerative hierarchical clustering, from scratch.

RICC applies agglomerative clustering to latent representations to form
cluster centroids; AICCA cuts the hierarchy at 42 classes (Section II-B).
This is a direct Lance-Williams implementation supporting ward, average,
complete, and single linkage, recording the full merge history (a
dendrogram), final centroids, and nearest-centroid prediction for the
label-assignment stage.  scipy.cluster.hierarchy is used only in tests as
an independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

__all__ = ["Merge", "AgglomerativeClustering"]

_LINKAGES = ("ward", "average", "complete", "single")


@dataclass(frozen=True)
class Merge:
    """One dendrogram merge: clusters ``a`` and ``b`` join at ``distance``."""

    a: int
    b: int
    distance: float
    size: int


class AgglomerativeClustering:
    """Bottom-up hierarchical clustering with Lance-Williams updates.

    >>> model = AgglomerativeClustering(n_clusters=42, linkage="ward")
    >>> labels = model.fit_predict(latents)
    >>> new_labels = model.predict(new_latents)   # nearest centroid
    """

    def __init__(self, n_clusters: int, linkage: str = "ward"):
        if n_clusters < 1:
            raise ValueError("n_clusters must be >= 1")
        if linkage not in _LINKAGES:
            raise ValueError(f"linkage must be one of {_LINKAGES}, got {linkage!r}")
        self.n_clusters = n_clusters
        self.linkage = linkage
        self.labels_: Optional[np.ndarray] = None
        self.centroids_: Optional[np.ndarray] = None
        self.merges_: List[Merge] = []

    # -- fitting ------------------------------------------------------------

    def fit(self, x: np.ndarray) -> "AgglomerativeClustering":
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError("expected (N, D) data")
        n = x.shape[0]
        if n < self.n_clusters:
            raise ValueError(f"cannot form {self.n_clusters} clusters from {n} points")

        # Pairwise distance matrix; ward works on squared Euclidean.
        diff = x[:, None, :] - x[None, :, :]
        dist = np.einsum("ijk,ijk->ij", diff, diff)
        if self.linkage != "ward":
            dist = np.sqrt(dist)
        np.fill_diagonal(dist, np.inf)

        active = np.ones(n, dtype=bool)
        sizes = np.ones(n, dtype=np.int64)
        # members[i]: original point indices currently in cluster slot i.
        members: List[Optional[List[int]]] = [[i] for i in range(n)]
        self.merges_ = []

        remaining = n
        while remaining > self.n_clusters:
            i, j = self._closest_pair(dist, active)
            d_ij = dist[i, j]
            merged_size = sizes[i] + sizes[j]
            self.merges_.append(
                Merge(
                    a=i,
                    b=j,
                    distance=float(np.sqrt(d_ij)) if self.linkage == "ward" else float(d_ij),
                    size=int(merged_size),
                )
            )
            self._lance_williams(dist, active, sizes, i, j)
            members[i] = members[i] + members[j]  # type: ignore[operator]
            members[j] = None
            sizes[i] = merged_size
            active[j] = False
            dist[j, :] = np.inf
            dist[:, j] = np.inf
            remaining -= 1

        labels = np.empty(n, dtype=np.int64)
        centroids = []
        cluster_slots = [slot for slot in range(n) if active[slot]]
        for label, slot in enumerate(cluster_slots):
            for point in members[slot]:  # type: ignore[union-attr]
                labels[point] = label
            centroids.append(x[members[slot]].mean(axis=0))  # type: ignore[index]
        self.labels_ = labels
        self.centroids_ = np.vstack(centroids)
        return self

    @staticmethod
    def _closest_pair(dist: np.ndarray, active: np.ndarray) -> Tuple[int, int]:
        flat = np.argmin(dist)
        i, j = np.unravel_index(flat, dist.shape)
        if i > j:
            i, j = j, i
        return int(i), int(j)

    def _lance_williams(
        self,
        dist: np.ndarray,
        active: np.ndarray,
        sizes: np.ndarray,
        i: int,
        j: int,
    ) -> None:
        """Update distances of every active k to the merged cluster (slot i)."""
        k_mask = active.copy()
        k_mask[i] = False
        k_mask[j] = False
        if not k_mask.any():
            return
        d_ki = dist[k_mask, i]
        d_kj = dist[k_mask, j]
        d_ij = dist[i, j]
        if self.linkage == "ward":
            n_i, n_j = sizes[i], sizes[j]
            n_k = sizes[k_mask]
            total = n_i + n_j + n_k
            updated = ((n_i + n_k) * d_ki + (n_j + n_k) * d_kj - n_k * d_ij) / total
        elif self.linkage == "average":
            n_i, n_j = sizes[i], sizes[j]
            updated = (n_i * d_ki + n_j * d_kj) / (n_i + n_j)
        elif self.linkage == "complete":
            updated = np.maximum(d_ki, d_kj)
        else:  # single
            updated = np.minimum(d_ki, d_kj)
        dist[k_mask, i] = updated
        dist[i, k_mask] = updated

    # -- prediction ------------------------------------------------------------

    def fit_predict(self, x: np.ndarray) -> np.ndarray:
        return self.fit(x).labels_  # type: ignore[return-value]

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Nearest-centroid assignment for new points (the AICCA
        label-assignment stage runs exactly this against frozen centroids)."""
        if self.centroids_ is None:
            raise RuntimeError("predict before fit")
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.centroids_.shape[1]:
            raise ValueError(
                f"expected (N, {self.centroids_.shape[1]}) data, got {x.shape}"
            )
        d = ((x[:, None, :] - self.centroids_[None, :, :]) ** 2).sum(axis=2)
        return np.argmin(d, axis=1)
