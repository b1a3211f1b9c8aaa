"""The optimizer of the NumPy network: Adam."""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

__all__ = ["Adam"]

Params = List[Tuple[str, np.ndarray, np.ndarray]]


class Adam:
    """Adam (Kingma & Ba 2015) with bias correction."""

    def __init__(self, lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        if not (0 <= beta1 < 1 and 0 <= beta2 < 1):
            raise ValueError("betas must be in [0, 1)")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._m: Dict[str, np.ndarray] = {}
        self._v: Dict[str, np.ndarray] = {}
        self._t = 0

    def step(self, params: Params) -> None:
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        for name, value, grad in params:
            m = self._m.setdefault(name, np.zeros_like(value))
            v = self._v.setdefault(name, np.zeros_like(value))
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            value -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)
