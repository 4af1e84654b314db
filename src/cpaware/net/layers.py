"""Minimal NHWC layer zoo with hand-written backward passes.

Every layer keeps its learnable arrays in ``params`` and, after a
backward call, the matching cotangents in ``grads`` (same keys, same
shapes).  Forward caches whatever backward needs; layers are therefore
not reentrant, one in-flight batch at a time.
"""

from __future__ import annotations

import numpy as np


class Conv2D:
    """Stride-s 2-D convolution with zero padding of kernel_size // 2.

    For odd kernels and stride 1 the spatial size is preserved.  There is
    no bias: every convolution here feeds a BatchNorm2D, whose mean
    subtraction cancels a per-channel bias exactly and whose ``beta``
    does its job.
    """

    def __init__(self, in_channels: int, out_channels: int,
                 kernel_size: int = 3, stride: int = 1):
        if kernel_size <= 0 or stride <= 0:
            raise ValueError("kernel_size and stride must be positive")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.pad = kernel_size // 2
        self.params = {
            "w": np.zeros((kernel_size, kernel_size, in_channels, out_channels)),
        }
        self.grads: dict[str, np.ndarray] = {}
        self._cache = None

    @property
    def kernel_keys(self) -> tuple[str, ...]:
        return ("w",)

    def init_params(self, rng: np.random.Generator) -> None:
        fan_in = self.kernel_size**2 * self.in_channels
        self.params["w"] = rng.normal(
            0.0, np.sqrt(2.0 / fan_in), size=self.params["w"].shape
        )

    def out_shape(self, h: int, w: int) -> tuple[int, int]:
        k, s, p = self.kernel_size, self.stride, self.pad
        return (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        b, h, w, _ = x.shape
        ho, wo = self.out_shape(h, w)
        k, s, p = self.kernel_size, self.stride, self.pad
        xp = np.pad(x, ((0, 0), (p, p), (p, p), (0, 0))) if p else x
        out = np.zeros((b, ho, wo, self.out_channels))
        weight = self.params["w"]
        for i in range(k):
            for j in range(k):
                window = xp[:, i: i + s * ho: s, j: j + s * wo: s, :]
                out += np.tensordot(window, weight[i, j], axes=([3], [0]))
        self._cache = (xp, x.shape)
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        xp, x_shape = self._cache
        b, h, w, _ = x_shape
        ho, wo = dout.shape[1], dout.shape[2]
        k, s, p = self.kernel_size, self.stride, self.pad
        weight = self.params["w"]
        dw = np.zeros_like(weight)
        dxp = np.zeros_like(xp)
        for i in range(k):
            for j in range(k):
                window = xp[:, i: i + s * ho: s, j: j + s * wo: s, :]
                dw[i, j] = np.tensordot(window, dout, axes=([0, 1, 2], [0, 1, 2]))
                dxp[:, i: i + s * ho: s, j: j + s * wo: s, :] += np.tensordot(
                    dout, weight[i, j], axes=([3], [1])
                )
        self.grads = {"w": dw}
        if p:
            return dxp[:, p: p + h, p: p + w, :]
        return dxp


class BatchNorm2D:
    """Per-channel batch normalization over (batch, height, width).

    Training mode normalizes with biased batch statistics and refreshes the
    exponential running averages; inference mode uses the running averages
    only, so a sample's output never depends on its batch mates.
    """

    def __init__(self, channels: int, momentum: float = 0.9, eps: float = 1e-5):
        self.channels = channels
        self.momentum = momentum
        self.eps = eps
        self.params = {"gamma": np.ones(channels), "beta": np.zeros(channels)}
        self.state = {"running_mean": np.zeros(channels),
                      "running_var": np.ones(channels)}
        self.grads: dict[str, np.ndarray] = {}
        self._cache = None

    @property
    def kernel_keys(self) -> tuple[str, ...]:
        return ()

    def init_params(self, rng: np.random.Generator) -> None:
        self.params["gamma"] = np.ones(self.channels)
        self.params["beta"] = np.zeros(self.channels)
        self.state["running_mean"] = np.zeros(self.channels)
        self.state["running_var"] = np.ones(self.channels)

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        if train:
            mean = x.mean(axis=(0, 1, 2))
            var = x.var(axis=(0, 1, 2))
            m = self.momentum
            self.state["running_mean"] = m * self.state["running_mean"] + (1 - m) * mean
            self.state["running_var"] = m * self.state["running_var"] + (1 - m) * var
        else:
            mean = self.state["running_mean"]
            var = self.state["running_var"]
        inv_std = 1.0 / np.sqrt(var + self.eps)
        xhat = (x - mean) * inv_std
        self._cache = (xhat, inv_std, x.shape)
        return self.params["gamma"] * xhat + self.params["beta"]

    def backward(self, dout: np.ndarray) -> np.ndarray:
        xhat, inv_std, x_shape = self._cache
        n = x_shape[0] * x_shape[1] * x_shape[2]
        self.grads = {
            "gamma": (dout * xhat).sum(axis=(0, 1, 2)),
            "beta": dout.sum(axis=(0, 1, 2)),
        }
        dxhat = dout * self.params["gamma"]
        dx = (inv_std / n) * (
            n * dxhat
            - dxhat.sum(axis=(0, 1, 2))
            - xhat * (dxhat * xhat).sum(axis=(0, 1, 2))
        )
        return dx


class ReLU:
    def __init__(self):
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self._mask = None

    @property
    def kernel_keys(self) -> tuple[str, ...]:
        return ()

    def init_params(self, rng: np.random.Generator) -> None:
        pass

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        return np.where(self._mask, dout, 0.0)


class AvgPool2D:
    """Non-overlapping average pooling; spatial dims must divide evenly."""

    def __init__(self, pool: int = 2):
        if pool <= 0:
            raise ValueError("pool must be positive")
        self.pool = pool
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self._in_shape = None

    @property
    def kernel_keys(self) -> tuple[str, ...]:
        return ()

    def init_params(self, rng: np.random.Generator) -> None:
        pass

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        b, h, w, c = x.shape
        p = self.pool
        if h % p or w % p:
            raise ValueError(f"spatial dims {(h, w)} not divisible by pool {p}")
        self._in_shape = x.shape
        return x.reshape(b, h // p, p, w // p, p, c).mean(axis=(2, 4))

    def backward(self, dout: np.ndarray) -> np.ndarray:
        b, h, w, c = self._in_shape
        p = self.pool
        scaled = dout / (p * p)
        return np.broadcast_to(
            scaled[:, :, None, :, None, :], (b, h // p, p, w // p, p, c)
        ).reshape(b, h, w, c)


class GlobalAvgPool:
    """Mean over all spatial positions, (B, H, W, C) -> (B, C)."""

    def __init__(self):
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self._in_shape = None

    @property
    def kernel_keys(self) -> tuple[str, ...]:
        return ()

    def init_params(self, rng: np.random.Generator) -> None:
        pass

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        self._in_shape = x.shape
        return x.mean(axis=(1, 2))

    def backward(self, dout: np.ndarray) -> np.ndarray:
        b, h, w, c = self._in_shape
        return np.broadcast_to(dout[:, None, None, :] / (h * w), self._in_shape).copy()


class Dense:
    def __init__(self, in_features: int, out_features: int):
        self.in_features = in_features
        self.out_features = out_features
        self.params = {
            "w": np.zeros((in_features, out_features)),
            "b": np.zeros(out_features),
        }
        self.grads: dict[str, np.ndarray] = {}
        self._x = None

    @property
    def kernel_keys(self) -> tuple[str, ...]:
        return ("w",)

    def init_params(self, rng: np.random.Generator) -> None:
        self.params["w"] = rng.normal(
            0.0, np.sqrt(2.0 / self.in_features), size=self.params["w"].shape
        )
        self.params["b"] = np.zeros(self.out_features)

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        self._x = x
        return x @ self.params["w"] + self.params["b"]

    def backward(self, dout: np.ndarray) -> np.ndarray:
        self.grads = {"w": self._x.T @ dout, "b": dout.sum(axis=0)}
        return dout @ self.params["w"].T
