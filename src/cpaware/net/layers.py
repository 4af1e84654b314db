"""Minimal NHWC layer zoo with hand-written backward passes.

The layer protocol: every layer keeps its learnable arrays in ``params``
and, after a backward call, the matching cotangents in ``grads`` (same
keys, same shapes); layers with nothing to learn share one empty,
read-only mapping for both.  A layer with non-trainable arrays keeps
them in ``state``, which is optional.  Kernels start at zero; the model's
``he_init`` draws them.  ``forward(train=True)``
caches whatever backward needs, so layers are not reentrant: one
in-flight training batch at a time.  ``forward(train=False)`` keeps no
cache, so inference holds only the activation it is passing on.

A layer computes in the dtype of its input.  Parameters and state stay
float64; each layer casts its parameters to the input's dtype where it
uses them (``astype(x.dtype, copy=False)``, which returns the arrays
themselves on float64 input).  So float32 input gives float32 outputs,
cached arrays and gradients, and float64 input runs exactly as it would
with no casts at all.

The hot layers do their work in a few large BLAS calls: the convolution
is an im2col GEMM per kernel row (Chellapilla et al. 2006), and batch
normalization reduces over a (batch * height * width, channels) view
with one GEMV and one ``einsum`` per statistic.
"""

from __future__ import annotations

from types import MappingProxyType

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

_NO_ARRAYS = MappingProxyType({})


class Conv2D:
    """3x3 stride-1 2-D convolution with zero padding 1, so the spatial size is preserved.

    There is no bias: every convolution here feeds a BatchNorm2D, whose
    mean subtraction cancels a per-channel bias exactly and whose
    ``beta`` does its job.

    Kernel row i contributes ``cols_i @ w[i]``, where ``cols_i`` holds
    the 3 input pixels under that row for every output position,
    shape (batch * H * W, 3 * in_channels).  Only the padded input is
    cached for backward; ``cols_i`` is rebuilt there one row at a time,
    which keeps the full im2col matrix out of memory.
    """

    kernel_size = 3

    def __init__(self, in_channels: int, out_channels: int):
        self.in_channels = in_channels
        self.out_channels = out_channels
        k = self.kernel_size
        self.params = {"w": np.zeros((k, k, in_channels, out_channels))}
        self.grads: dict[str, np.ndarray] = {}
        self._xp = None

    def _cols(self, xp: np.ndarray, i: int, h: int, w: int) -> np.ndarray:
        """im2col matrix of kernel row i, columns ordered (kernel column, channel)."""
        k = self.kernel_size
        windows = sliding_window_view(xp[:, i: i + h], k, axis=2)
        return windows.swapaxes(3, 4).reshape(-1, k * self.in_channels)

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        b, h, w, _ = x.shape
        k = self.kernel_size
        xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
        weight = self.params["w"].astype(x.dtype, copy=False).reshape(
            k, k * self.in_channels, self.out_channels)
        out = self._cols(xp, 0, h, w) @ weight[0]
        for i in range(1, k):
            out += self._cols(xp, i, h, w) @ weight[i]
        self._xp = xp if train else None
        return out.reshape(b, h, w, self.out_channels)

    def backward(self, dout: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        """Kernel gradient into ``grads``; the input gradient unless ``input_grad`` is False."""
        xp = self._xp
        _, h, w, o = dout.shape
        k = self.kernel_size
        weight = self.params["w"].astype(xp.dtype, copy=False)
        flat = dout.reshape(-1, o)
        dw = np.empty_like(weight)
        for i in range(k):
            dw[i] = (self._cols(xp, i, h, w).T @ flat).reshape(k, self.in_channels, o)
        self.grads = {"w": dw}
        if not input_grad:
            return None
        dxp = np.zeros_like(xp)
        for i in range(k):
            for j in range(k):
                dxp[:, i: i + h, j: j + w, :] += np.tensordot(
                    dout, weight[i, j], axes=([3], [1])
                )
        return dxp[:, 1: 1 + h, 1: 1 + w, :]


class BatchNorm2D:
    """Per-channel batch normalization over (batch, height, width).

    Training mode normalizes with biased batch statistics and refreshes the
    exponential running averages; inference mode uses the running averages
    only, so a sample's output never depends on its batch mates.  Inference
    applies the folded affine map ``x * a + b`` with
    ``a = gamma / sqrt(running_var + eps)`` and ``b = beta - running_mean * a``.
    """

    MOMENTUM, EPS = 0.9, 1e-5

    def __init__(self, channels: int):
        self.channels = channels
        self.params = {"gamma": np.ones(channels), "beta": np.zeros(channels)}
        self.state = {"running_mean": np.zeros(channels),
                      "running_var": np.ones(channels)}
        self.grads: dict[str, np.ndarray] = {}
        self._cache = None

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        flat = x.reshape(-1, self.channels)
        gamma, beta = self.params["gamma"], self.params["beta"]
        if not train:
            self._cache = None
            scale = gamma / np.sqrt(self.state["running_var"] + self.EPS)
            shift = beta - self.state["running_mean"] * scale
            out = flat * scale.astype(flat.dtype, copy=False)
            out += shift.astype(flat.dtype, copy=False)
            return out.reshape(x.shape)
        n = flat.shape[0]
        mean = (np.ones(n, flat.dtype) @ flat) / n
        xhat = flat - mean
        var = np.einsum("ij,ij->j", xhat, xhat) / n
        m = self.MOMENTUM
        self.state["running_mean"] = m * self.state["running_mean"] + (1 - m) * mean
        self.state["running_var"] = m * self.state["running_var"] + (1 - m) * var
        inv_std = 1.0 / np.sqrt(var + self.EPS)
        xhat *= inv_std
        self._cache = (xhat, inv_std)
        out = xhat * gamma.astype(flat.dtype, copy=False)
        out += beta.astype(flat.dtype, copy=False)
        return out.reshape(x.shape)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        xhat, inv_std = self._cache
        flat = dout.reshape(-1, self.channels)
        n = flat.shape[0]
        dgamma = np.einsum("ij,ij->j", flat, xhat)
        dbeta = np.ones(n, flat.dtype) @ flat
        self.grads = {"gamma": dgamma, "beta": dbeta}
        # dx = (gamma * inv_std / n) * (n * dout - dbeta - xhat * dgamma),
        # built in one buffer.
        dx = xhat * (dgamma / n)
        dx += dbeta / n
        np.subtract(flat, dx, out=dx)
        dx *= self.params["gamma"].astype(flat.dtype, copy=False) * inv_std
        return dx.reshape(dout.shape)


class ReLU:
    params = grads = _NO_ARRAYS

    def __init__(self):
        self._mask = None

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        out = np.maximum(x, 0.0)
        self._mask = out > 0 if train else None
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        return dout * self._mask


class AvgPool2D:
    """Non-overlapping 2x2 average pooling; the model keeps spatial dims even."""

    params = grads = _NO_ARRAYS

    def __init__(self):
        self._in_shape = None

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        self._in_shape = x.shape if train else None
        out = x[:, 0::2, 0::2] + x[:, 0::2, 1::2]
        out += x[:, 1::2, 0::2]
        out += x[:, 1::2, 1::2]
        out /= 4
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        b, h, w, c = self._in_shape
        return np.broadcast_to(
            (dout / 4)[:, :, None, :, None, :], (b, h // 2, 2, w // 2, 2, c)
        ).reshape(b, h, w, c)


class GlobalAvgPool:
    """Mean over all spatial positions, (B, H, W, C) -> (B, C)."""

    params = grads = _NO_ARRAYS

    def __init__(self):
        self._in_shape = None

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        self._in_shape = x.shape if train else None
        return x.mean(axis=(1, 2))

    def backward(self, dout: np.ndarray) -> np.ndarray:
        b, h, w, c = self._in_shape
        return np.broadcast_to(dout[:, None, None, :] / (h * w), self._in_shape).copy()


class Dense:
    def __init__(self, in_features: int, out_features: int):
        self.params = {
            "w": np.zeros((in_features, out_features)),
            "b": np.zeros(out_features),
        }
        self.grads: dict[str, np.ndarray] = {}
        self._x = None

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        self._x = x if train else None
        return (x @ self.params["w"].astype(x.dtype, copy=False)
                + self.params["b"].astype(x.dtype, copy=False))

    def backward(self, dout: np.ndarray) -> np.ndarray:
        self.grads = {"w": self._x.T @ dout, "b": dout.sum(axis=0)}
        return dout @ self.params["w"].astype(dout.dtype, copy=False).T
