"""Bias-corrected adaptive moment optimizer."""

from __future__ import annotations

import numpy as np


class Adam:
    """Standard first/second-moment update with bias correction.

    Moment accumulators are keyed like the parameter dict; the step
    counter is shared across all parameters.
    """

    def __init__(self, param_shapes: dict[str, tuple], lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        if lr <= 0:
            raise ValueError("lr must be positive")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = {k: np.zeros(s) for k, s in param_shapes.items()}
        self.v = {k: np.zeros(s) for k, s in param_shapes.items()}

    @classmethod
    def for_params(cls, params: dict[str, np.ndarray], **kwargs) -> "Adam":
        return cls({k: v.shape for k, v in params.items()}, **kwargs)

    def step(self, params: dict[str, np.ndarray],
             grads: dict[str, np.ndarray]) -> None:
        """Update parameters in place; grads must cover every parameter."""
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        for name, p in params.items():
            g = grads[name]
            if g.shape != p.shape:
                raise ValueError(f"gradient shape mismatch for {name}")
            m = self.m[name] = self.beta1 * self.m[name] + (1 - self.beta1) * g
            v = self.v[name] = self.beta2 * self.v[name] + (1 - self.beta2) * g**2
            p -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
