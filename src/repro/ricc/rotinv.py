"""Rotation invariance machinery: dihedral transforms and the RI loss.

RICC's key idea (Kurihana et al., TGRS 2021): cloud class should not
depend on the orientation of the swath, so the autoencoder is trained to
be *rotationally invariant* — rotated copies of a tile must map to the
same representation and reconstruct equally well.  We implement the
dihedral group D4 (4 rotations x optional flip = 8 transforms) and the
two loss components used during training:

* **invariance loss** — variance of the latent codes across the 8
  transforms of each tile (zero iff the encoder is exactly invariant);
* **restoration loss** — the minimum over transforms of the
  reconstruction error against the transformed input, so the decoder may
  reconstruct *any* orientation rather than memorizing one.
"""

from __future__ import annotations

import numpy as np

__all__ = ["transform_batch", "NUM_TRANSFORMS"]

NUM_TRANSFORMS = 8


def transform_batch(tiles: np.ndarray, transform_index: int) -> np.ndarray:
    """Apply one D4 transform to a batch of (N, H, W, C) tiles."""
    if not 0 <= transform_index < NUM_TRANSFORMS:
        raise ValueError(f"transform index must be in [0, {NUM_TRANSFORMS})")
    if tiles.ndim != 4 or tiles.shape[1] != tiles.shape[2]:
        raise ValueError(f"tiles must be (N, H, W, C) square; got {tiles.shape}")
    result = tiles
    if transform_index >= 4:
        result = result[:, :, ::-1, :]
    k = transform_index % 4
    if k:
        result = np.rot90(result, k=k, axes=(1, 2))
    return np.ascontiguousarray(result)
