"""The rotationally invariant autoencoder (RICC's trainable core).

Architecture: a dense encoder/decoder over flattened (H, W, C) tiles.
Training minimizes

    L = lambda_rec * L_restore + lambda_inv * L_invariance

where ``L_restore`` is the *minimum* reconstruction error against any
dihedral transform of the input (the decoder may restore any orientation)
and ``L_invariance`` is the latent variance across the dihedral transforms
of each tile (zero for an exactly rotation-invariant encoder).  This is
the loss structure of Kurihana et al. (2021) adapted to the dense
architecture; the ablation benchmark compares it against a plain
autoencoder (lambda_inv = 0) on rotated test sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.ricc.layers import Activation, Dense, Sequential
from repro.ricc.optim import Adam
from repro.ricc.rotinv import NUM_TRANSFORMS, transform_batch

__all__ = ["RotationInvariantAutoencoder", "TrainRecord"]


@dataclass(frozen=True)
class TrainRecord:
    """Per-epoch training metrics."""

    epoch: int
    loss: float
    restore_loss: float
    invariance_loss: float


class RotationInvariantAutoencoder:
    """Dense RI autoencoder over square multi-channel tiles."""

    def __init__(
        self,
        tile_shape: Tuple[int, int, int],
        latent_dim: int = 16,
        hidden: Sequence[int] = (256, 64),
        lambda_inv: float = 1.0,
        lambda_rec: float = 1.0,
        seed: int = 0,
    ):
        self._configure(tile_shape, latent_dim, lambda_inv, lambda_rec)
        rng = np.random.default_rng(seed)
        self.encoder = _stack(
            Dense(i, o, rng) for _key, i, o in self._affine_layers("enc", hidden)
        )
        self._decoder = _stack(
            Dense(i, o, rng) for _key, i, o in self._affine_layers("dec", hidden)
        )

    def _configure(
        self,
        tile_shape: Tuple[int, int, int],
        latent_dim: int,
        lambda_inv: float,
        lambda_rec: float,
    ) -> None:
        height, width, channels = tile_shape
        if height != width:
            raise ValueError("tiles must be square")
        if latent_dim < 1:
            raise ValueError("latent dimension must be positive")
        self.tile_shape = (height, width, channels)
        self.input_dim = height * width * channels
        self.latent_dim = latent_dim
        self.lambda_inv = lambda_inv
        self.lambda_rec = lambda_rec
        self.trained_epochs = 0
        # A loaded model's decoder stays on disk until something needs it:
        # (path, key prefix, hidden widths) says where to read it from.
        self._decoder: Optional[Sequential] = None
        self._decoder_source: Optional[Tuple[str, str, Tuple[int, ...]]] = None

    def _affine_layers(self, net: str, hidden: Sequence[int]) -> List[Tuple[str, int, int]]:
        """``(parameter key, in_dim, out_dim)`` of each dense layer of
        ``"enc"`` or ``"dec"`` (the decoder mirrors the encoder)."""
        dims = [self.input_dim, *hidden, self.latent_dim]
        if net == "dec":
            dims.reverse()
        return [
            (f"{net}.layer{2 * index}", i, o)
            for index, (i, o) in enumerate(zip(dims, dims[1:]))
        ]

    @property
    def decoder(self) -> Sequential:
        """The decoder; a loaded model reads it from its file on first
        use, because label assignment — every loader's job but the
        trainer's — never calls it."""
        if self._decoder is None:
            path, prefix, hidden = self._decoder_source
            with np.load(path) as data:
                self._decoder = self._read_net(data, prefix, "dec", hidden)
            self._decoder_source = None
        return self._decoder

    def __getstate__(self) -> Dict[str, object]:
        self.decoder  # a pickle must not depend on the file it was loaded from
        return dict(self.__dict__)

    # -- inference ------------------------------------------------------------

    def _flatten(self, tiles: np.ndarray, dtype: Optional[np.dtype] = None) -> np.ndarray:
        if dtype is None:
            # Dtype-preserving: float32 batches stay float32 end to end
            # (the inference fast path); everything else upcasts to the
            # float64 the training loop requires.
            dtype = tiles.dtype if tiles.dtype in (np.float32, np.float64) else np.float64
        if tiles.ndim == 4:
            if tiles.shape[1:] != self.tile_shape:
                raise ValueError(f"tiles shaped {tiles.shape[1:]}, model expects {self.tile_shape}")
            return tiles.reshape(tiles.shape[0], -1).astype(dtype, copy=False)
        if tiles.ndim == 2 and tiles.shape[1] == self.input_dim:
            return tiles.astype(dtype, copy=False)
        raise ValueError(f"cannot interpret tile array of shape {tiles.shape}")

    def encode(self, tiles: np.ndarray) -> np.ndarray:
        """Latent codes (N, latent_dim); preserves a float32 input dtype."""
        return self.encoder.forward(self._flatten(tiles))

    def reconstruct(self, tiles: np.ndarray) -> np.ndarray:
        flat = self._flatten(tiles)
        return self.decoder.forward(self.encoder.forward(flat))

    def reconstruction_error(self, tiles: np.ndarray) -> float:
        # An evaluation metric, not a throughput path: pin to float64 so
        # reported errors do not depend on the caller's storage dtype.
        flat = self._flatten(tiles, dtype=np.float64)
        recon = self.decoder.forward(self.encoder.forward(flat))
        return float(np.mean((recon - flat) ** 2))

    # -- training ------------------------------------------------------------

    def train(
        self,
        tiles: np.ndarray,
        epochs: int = 20,
        batch_size: int = 32,
        lr: float = 1e-3,
        transforms_per_batch: int = 4,
        seed: int = 0,
        verbose: bool = False,
    ) -> List[TrainRecord]:
        """Train on (N, H, W, C) tiles; returns per-epoch records.

        ``transforms_per_batch`` samples that many dihedral transforms
        (always including at least two) for the invariance term each step,
        trading fidelity for speed exactly like the original's rotation
        sampling.
        """
        if tiles.ndim != 4:
            raise ValueError("training tiles must be (N, H, W, C)")
        if tiles.shape[0] < 2:
            raise ValueError("need at least two training tiles")
        transforms_per_batch = int(np.clip(transforms_per_batch, 2, NUM_TRANSFORMS))
        rng = np.random.default_rng(seed)
        optimizer = Adam(lr=lr)
        n = tiles.shape[0]
        history: List[TrainRecord] = []

        for epoch in range(epochs):
            order = rng.permutation(n)
            epoch_rec, epoch_inv, batches = 0.0, 0.0, 0
            for start in range(0, n, batch_size):
                batch = tiles[order[start : start + batch_size]]
                record = self._train_step(batch, optimizer, rng, transforms_per_batch)
                epoch_rec += record[0]
                epoch_inv += record[1]
                batches += 1
            record = TrainRecord(
                epoch=self.trained_epochs,
                restore_loss=epoch_rec / batches,
                invariance_loss=epoch_inv / batches,
                loss=(self.lambda_rec * epoch_rec + self.lambda_inv * epoch_inv) / batches,
            )
            history.append(record)
            self.trained_epochs += 1
            if verbose:
                print(
                    f"epoch {record.epoch:3d}  loss {record.loss:.5f}  "
                    f"restore {record.restore_loss:.5f}  inv {record.invariance_loss:.5f}"
                )
        return history

    def _train_step(
        self,
        batch: np.ndarray,
        optimizer: Adam,
        rng: np.random.Generator,
        transforms_per_batch: int,
    ) -> Tuple[float, float]:
        flat = batch.reshape(batch.shape[0], -1).astype(np.float64)
        n, d = flat.shape
        self.encoder.zero_grad()
        self.decoder.zero_grad()

        # --- restoration term: min over transforms of ||dec(enc(x)) - T(x)||^2
        latent = self.encoder.forward(flat)
        recon = self.decoder.forward(latent)
        best_err: Optional[np.ndarray] = None
        best_target = None
        for index in range(NUM_TRANSFORMS):
            target = transform_batch(batch, index).reshape(n, -1)
            err = ((recon - target) ** 2).mean(axis=1)
            if best_err is None:
                best_err, best_target = err, target
            else:
                better = err < best_err
                best_err = np.where(better, err, best_err)
                best_target = np.where(better[:, None], target, best_target)
        restore_loss = float(best_err.mean())
        grad_recon = (2.0 / (n * d)) * (recon - best_target) * self.lambda_rec
        grad_latent = self.decoder.backward(grad_recon)
        self.encoder.backward(grad_latent)

        # --- invariance term over a sampled transform subset
        chosen = rng.choice(NUM_TRANSFORMS, size=transforms_per_batch, replace=False)
        flats = [transform_batch(batch, int(index)).reshape(n, -1) for index in chosen]
        codes = [self.encoder.forward(f) for f in flats]
        stack = np.stack(codes)  # (T, N, Z)
        mean_code = stack.mean(axis=0)
        deviations = stack - mean_code
        t_count = len(codes)
        inv_loss = float((deviations**2).mean())
        scale = 2.0 / deviations.size * self.lambda_inv
        for f, deviation in zip(flats, deviations):
            self.encoder.forward(f)  # restore this transform's caches
            self.encoder.backward(scale * deviation)

        optimizer.step(self._all_params())
        return restore_loss, inv_loss

    def _all_params(self):
        # Distinct names across the two nets: Adam keys its moment
        # buffers by name, so "enc."/"dec." prefixes are load-bearing.
        return [
            (f"{prefix}.{name}", value, grad)
            for prefix, net in (("enc", self.encoder), ("dec", self.decoder))
            for name, value, grad in net.params()
        ]

    # -- persistence ------------------------------------------------------------

    def state_dict(self) -> Dict[str, np.ndarray]:
        state: Dict[str, np.ndarray] = {}
        for prefix, net in (("enc", self.encoder), ("dec", self.decoder)):
            for name, value, _grad in net.params():
                state[f"{prefix}.{name}"] = value.copy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        for prefix, net in (("enc", self.encoder), ("dec", self.decoder)):
            for name, value, _grad in net.params():
                key = f"{prefix}.{name}"
                if key not in state:
                    raise KeyError(f"missing parameter {key!r}")
                if state[key].shape != value.shape:
                    raise ValueError(f"shape mismatch for {key!r}")
                value[:] = state[key]

    def save(self, path: str) -> None:
        np.savez(
            path,
            tile_shape=np.array(self.tile_shape),
            latent_dim=np.array([self.latent_dim]),
            **self.state_dict(),
        )

    def _check_saved(
        self, data: "np.lib.npyio.NpzFile", prefix: str, net: str, hidden: Sequence[int]
    ) -> None:
        """Every parameter of ``net`` is in the archive with the shape
        the architecture needs (read from the array headers alone)."""
        for key, in_dim, out_dim in self._affine_layers(net, hidden):
            for name, shape in ((f"{key}.w", (in_dim, out_dim)), (f"{key}.b", (out_dim,))):
                if prefix + name not in data.files:
                    raise KeyError(f"missing parameter {name!r}")
                if _saved_shape(data, prefix + name) != shape:
                    raise ValueError(f"shape mismatch for {name!r}")

    def _read_net(
        self, data: "np.lib.npyio.NpzFile", prefix: str, net: str, hidden: Sequence[int]
    ) -> Sequential:
        """Build ``net`` straight from the saved arrays, adopted as read:
        no random initialisation to overwrite, no second copy."""
        self._check_saved(data, prefix, net, hidden)
        return _stack(
            Dense.from_arrays(data[f"{prefix}{key}.w"], data[f"{prefix}{key}.b"])
            for key, _in, _out in self._affine_layers(net, hidden)
        )

    @classmethod
    def load(
        cls,
        path: str,
        hidden: Optional[Sequence[int]] = None,
        lambda_inv: float = 1.0,
        lambda_rec: float = 1.0,
        prefix: str = "",
    ) -> "RotationInvariantAutoencoder":
        """Load a saved model (``prefix``: where its arrays sit inside a
        larger archive).  The whole file is validated, but only the
        encoder is read; see :attr:`decoder`."""
        with np.load(path) as data:
            tile_shape = tuple(int(v) for v in data["tile_shape"])
            latent_dim = int(data["latent_dim"][0])
            if hidden is None:
                # Recover hidden widths from the encoder weight shapes.
                hidden = []
                index = 0
                while f"{prefix}enc.layer{index}.w" in data.files:
                    hidden.append(_saved_shape(data, f"{prefix}enc.layer{index}.w")[1])
                    index += 2
                hidden = hidden[:-1]  # last dense maps to the latent
            model = cls.__new__(cls)
            model._configure(tile_shape, latent_dim, lambda_inv, lambda_rec)
            model.encoder = model._read_net(data, prefix, "enc", hidden)
            model._check_saved(data, prefix, "dec", hidden)
        model._decoder_source = (path, prefix, tuple(hidden))
        return model


def _stack(denses: Iterable[Dense]) -> Sequential:
    """Dense layers with a ReLU between each pair."""
    layers: List = []
    for dense in denses:
        if layers:
            layers.append(Activation("relu"))
        layers.append(dense)
    return Sequential(layers)


def _saved_shape(data: "np.lib.npyio.NpzFile", key: str) -> Tuple[int, ...]:
    """Shape of one array in an ``.npz``, from its header alone."""
    with data.zip.open(key + ".npy") as member:
        version = np.lib.format.read_magic(member)
        read_header = (
            np.lib.format.read_array_header_1_0
            if version == (1, 0)
            else np.lib.format.read_array_header_2_0
        )
        shape, _fortran_order, _dtype = read_header(member)
    return shape
