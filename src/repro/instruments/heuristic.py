"""The heuristic threshold classifier — the second registered model.

A deliberately cheap baseline next to RICC: each tile is summarised by
the mean and standard deviation of its radiances, both statistics are
binned against quantile edges fitted on the bootstrap tiles, and the
(mean-bin, std-bin) pair indexes a class.  Deterministic, trains in
microseconds, persists as a tiny ``.npz`` — exactly what an ensemble
or comparison branch wants riding next to the real model, and a useful
pipeline-plumbing probe (if *this* model's labels drift across
drivers, the bug is in the plan, not the classifier).
"""

from __future__ import annotations

import numpy as np

from repro.instruments.registry import register_model

__all__ = ["ThresholdModel", "HeuristicModelType"]


def _tile_stats(tiles: np.ndarray) -> tuple:
    """Per-tile (mean, std) over all pixels and bands, float64."""
    flat = np.asarray(tiles, dtype=np.float64).reshape(tiles.shape[0], -1)
    return flat.mean(axis=1), flat.std(axis=1)


class ThresholdModel:
    """Quantile-binned mean/std classifier.

    ``num_classes`` is an upper bound: the grid has
    ``ceil(sqrt(C)) x ceil(C / ceil(sqrt(C)))`` cells and any overflow
    cell folds into the last class.
    """

    attribution = "heuristic/threshold"

    def __init__(
        self,
        mean_edges: np.ndarray,
        std_edges: np.ndarray,
        num_classes: int,
    ):
        self.mean_edges = np.asarray(mean_edges, dtype=np.float64)
        self.std_edges = np.asarray(std_edges, dtype=np.float64)
        self._num_classes = int(num_classes)

    @property
    def num_classes(self) -> int:
        return self._num_classes

    def assign(self, tiles: np.ndarray) -> np.ndarray:
        means, stds = _tile_stats(tiles)
        mean_bin = np.searchsorted(self.mean_edges, means, side="right")
        std_bin = np.searchsorted(self.std_edges, stds, side="right")
        n_std = len(self.std_edges) + 1
        labels = mean_bin * n_std + std_bin
        return np.minimum(labels, self._num_classes - 1).astype(np.int32)

    def save(self, path: str) -> None:
        np.savez(
            path,
            family=np.array("threshold"),
            mean_edges=self.mean_edges,
            std_edges=self.std_edges,
            num_classes=np.array(self._num_classes, dtype=np.int64),
        )

    @classmethod
    def load(cls, path: str) -> "ThresholdModel":
        with np.load(path, allow_pickle=False) as data:
            if str(data["family"]) != "threshold":
                raise ValueError(
                    f"{path} is not a threshold model "
                    f"(family={data['family']!r})"
                )
            return cls(
                mean_edges=data["mean_edges"],
                std_edges=data["std_edges"],
                num_classes=int(data["num_classes"]),
            )

    @classmethod
    def fit(
        cls, tiles: np.ndarray, num_classes: int, seed: int = 0
    ) -> "ThresholdModel":
        """Quantile edges from the bootstrap tiles (seed is unused —
        the fit is fully deterministic — but kept for interface
        symmetry with stochastic models)."""
        del seed
        means, stds = _tile_stats(tiles)
        n_mean = int(np.ceil(np.sqrt(num_classes)))
        n_std = int(np.ceil(num_classes / n_mean))
        mean_edges = np.quantile(means, np.linspace(0.0, 1.0, n_mean + 1)[1:-1])
        std_edges = np.quantile(stds, np.linspace(0.0, 1.0, n_std + 1)[1:-1])
        return cls(mean_edges, std_edges, num_classes)


class HeuristicModelType:
    """Registry entry for the threshold classifier."""

    name = "heuristic"
    attribution = ThresholdModel.attribution
    bootstrap = staticmethod(ThresholdModel.fit)
    load = staticmethod(ThresholdModel.load)


register_model(HeuristicModelType)
