"""Bias-corrected adaptive moment optimizer."""

from __future__ import annotations

import numpy as np


class Adam:
    """Standard first/second-moment update with bias correction.

    Moment accumulators are keyed like the parameter dict; the step
    counter is shared across all parameters.
    """

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params: dict[str, np.ndarray], lr: float):
        self.lr = lr  # NetworkConfig.learning_rate, checked positive there
        self.step_count = 0
        self.m = {k: np.zeros(v.shape) for k, v in params.items()}
        self.v = {k: np.zeros(v.shape) for k, v in params.items()}

    def step(self, params: dict[str, np.ndarray],
             grads: dict[str, np.ndarray]) -> None:
        """Update parameters in place; grads must cover every parameter."""
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.BETA1**t
        bc2 = 1.0 - self.BETA2**t
        for name, p in params.items():
            g = grads[name]
            if g.shape != p.shape:
                raise ValueError(f"gradient shape mismatch for {name}")
            m = self.m[name] = self.BETA1 * self.m[name] + (1 - self.BETA1) * g
            v = self.v[name] = self.BETA2 * self.v[name] + (1 - self.BETA2) * g**2
            p -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.EPS)
