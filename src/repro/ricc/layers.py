"""Minimal neural-network layers with explicit backpropagation.

TensorFlow is unavailable offline, so the RICC autoencoder (Section II-B)
is implemented directly in NumPy.  The layer set is deliberately small —
dense affine layers plus elementwise activations — because the model that
matters here is the *rotationally invariant training objective*, not a
particular architecture; the original RICC's convolutional encoder is
approximated by an MLP over flattened tiles, which preserves the
latent-clustering behaviour at the tile sizes this reproduction uses.

All layers implement ``forward(x)`` and ``backward(grad)`` (returning the
gradient w.r.t. the input and accumulating parameter gradients), and
expose ``params()`` as a list of (name, value, grad) triples for the
optimizer.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

__all__ = ["Dense", "Activation", "Sequential", "ACTIVATIONS"]


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def _relu_grad(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return (x > 0).astype(x.dtype)


def _tanh(x: np.ndarray) -> np.ndarray:
    return np.tanh(x)


def _tanh_grad(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return 1.0 - y * y


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    expx = np.exp(x[~positive])
    out[~positive] = expx / (1.0 + expx)
    return out


def _sigmoid_grad(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return y * (1.0 - y)


def _linear(x: np.ndarray) -> np.ndarray:
    return x


def _linear_grad(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.ones_like(x)


ACTIVATIONS = {
    "relu": (_relu, _relu_grad),
    "tanh": (_tanh, _tanh_grad),
    "sigmoid": (_sigmoid, _sigmoid_grad),
    "linear": (_linear, _linear_grad),
}


class Dense:
    """Affine layer ``y = x W + b`` with He/Xavier-style init."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator, scale: Optional[float] = None):
        if in_dim < 1 or out_dim < 1:
            raise ValueError("layer dimensions must be positive")
        if scale is None:
            scale = np.sqrt(2.0 / in_dim)
        self._adopt(
            rng.normal(0.0, scale, size=(in_dim, out_dim)).astype(np.float64),
            np.zeros(out_dim, dtype=np.float64),
        )

    def _adopt(self, w: np.ndarray, b: np.ndarray) -> None:
        self.w = w
        self.b = b
        # Gradient buffers are as large as the weights and only training
        # touches them: allocated on first use, so a model loaded to
        # assign labels never pays for them.
        self._grad_w: Optional[np.ndarray] = None
        self._grad_b: Optional[np.ndarray] = None
        self._x: Optional[np.ndarray] = None

    @property
    def grad_w(self) -> np.ndarray:
        if self._grad_w is None:
            self._grad_w = np.zeros_like(self.w)
        return self._grad_w

    @property
    def grad_b(self) -> np.ndarray:
        if self._grad_b is None:
            self._grad_b = np.zeros_like(self.b)
        return self._grad_b

    @classmethod
    def from_arrays(cls, w: np.ndarray, b: np.ndarray) -> "Dense":
        """A layer that owns saved parameters as they are: no random
        draw to overwrite, no copy (float64 arrays are adopted in place)."""
        w = np.asarray(w, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        if w.ndim != 2 or b.shape != (w.shape[1],):
            raise ValueError(f"weights {w.shape} and bias {b.shape} do not form a layer")
        layer = cls.__new__(cls)
        layer._adopt(w, b)
        return layer

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        if x.dtype == np.float32:
            # Dtype-preserving inference path: casting the (small) weight
            # matrix down keeps the (large) batch matmul in float32 —
            # half the memory traffic and twice the SIMD width — instead
            # of NumPy silently upcasting the whole batch to float64.
            # Training always feeds float64, so gradients are unaffected.
            return x @ self.w.astype(np.float32) + self.b.astype(np.float32)
        return x @ self.w + self.b

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward before forward")
        grad_w, grad_b = self.grad_w, self.grad_b
        grad_w += self._x.T @ grad
        grad_b += grad.sum(axis=0)
        return grad @ self.w.T

    def params(self) -> List[Tuple[str, np.ndarray, np.ndarray]]:
        return [("w", self.w, self.grad_w), ("b", self.b, self.grad_b)]

    def zero_grad(self) -> None:
        if self._grad_w is not None:
            self._grad_w[:] = 0.0
        if self._grad_b is not None:
            self._grad_b[:] = 0.0


class Activation:
    """Elementwise activation layer."""

    def __init__(self, kind: str):
        if kind not in ACTIVATIONS:
            raise ValueError(f"unknown activation {kind!r}; known: {sorted(ACTIVATIONS)}")
        self.kind = kind
        self._fn, self._grad_fn = ACTIVATIONS[kind]
        self._x: Optional[np.ndarray] = None
        self._y: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        self._y = self._fn(x)
        return self._y

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._x is None or self._y is None:
            raise RuntimeError("backward before forward")
        return grad * self._grad_fn(self._x, self._y)

    def params(self) -> List[Tuple[str, np.ndarray, np.ndarray]]:
        return []

    def zero_grad(self) -> None:
        pass


class Sequential:
    """A stack of layers with forward/backward passes."""

    def __init__(self, layers: List):
        self.layers = list(layers)

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, grad: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def params(self) -> List[Tuple[str, np.ndarray, np.ndarray]]:
        out = []
        for index, layer in enumerate(self.layers):
            for name, value, grad in layer.params():
                out.append((f"layer{index}.{name}", value, grad))
        return out

    def zero_grad(self) -> None:
        for layer in self.layers:
            layer.zero_grad()

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)
