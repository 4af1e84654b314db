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

The hot layers work in a few wide passes.  A convolution copies its
padded input once into a horizontal im2col (Chellapilla et al. 2006)
and reads each kernel row from it as a view, for one stacked GEMM per
kernel row; its kernel gradient is a stacked GEMM over cache-sized
blocks of image rows (Goto & van de Geijn 2008), and its input gradient
is the same correlation with the flipped kernel.  Batch normalization
reduces over a (batch * height * width, channels) view with one GEMV or
``einsum`` per statistic, and does its elementwise work on (batch *
height, width * channels) rows.
"""

from __future__ import annotations

import math
from types import MappingProxyType

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

_NO_ARRAYS = MappingProxyType({})


class Conv2D:
    """3x3 stride-1 2-D convolution with zero padding 1, so the spatial size is preserved.

    There is no bias: every convolution here feeds a BatchNorm2D, whose
    mean subtraction cancels a per-channel bias exactly and whose
    ``beta`` does its job.

    A correlation pads its input once and copies it into one horizontal
    im2col ``rows`` of shape (batch, H + 2, W, 3 * channels), which
    holds the 3 pixels under a kernel row for every padded-row position.
    Kernel row i reads ``rows[:, i: i + H]`` as a free view and
    contributes ``rows_i @ w[i]``.  Backward rebuilds ``rows`` from the
    cached input, sums the kernel gradient over blocks of whole image
    rows, and gets the input gradient as the same correlation of
    ``dout`` with the flipped kernel, which is its adjoint.
    """

    kernel_size = 3
    # Pixels per kernel-gradient GEMM; blocks are whole image rows.  On 2
    # cores one (614400 x 9)^T (614400 x 8) float32 product took 10.3 ms,
    # and the same sum as 4096-pixel block products added afterwards 3.3
    # ms, with the same error against float64 (about 1e-6 of the largest
    # entry).
    BLOCK_PIXELS = 4096

    def __init__(self, in_channels: int, out_channels: int):
        self.in_channels = in_channels
        self.out_channels = out_channels
        k = self.kernel_size
        self.params = {"w": np.zeros((k, k, in_channels, out_channels))}
        self.grads: dict[str, np.ndarray] = {}
        self._x = None

    def _rows(self, x: np.ndarray) -> np.ndarray:
        """Horizontal im2col of ``x``, shape (batch, H + 2, W, 3 * channels),
        columns ordered (kernel column, channel)."""
        b, h, w, c = x.shape
        k = self.kernel_size
        xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
        windows = sliding_window_view(xp, k, axis=2).swapaxes(3, 4)
        return np.ascontiguousarray(windows).reshape(b, h + k - 1, w, k * c)

    def _correlate(self, x: np.ndarray, weight: np.ndarray) -> np.ndarray:
        """Zero-padded 3x3 correlation of ``x`` with ``weight``, shape (k, k, C, O)."""
        b, h, w, _ = x.shape
        k = self.kernel_size
        rows = self._rows(x)
        weight = weight.reshape(k, rows.shape[-1], -1)
        out = rows[:, :h].reshape(b, h * w, -1) @ weight[0]
        for i in range(1, k):
            out += rows[:, i: i + h].reshape(b, h * w, -1) @ weight[i]
        return out.reshape(b, h, w, -1)

    def _kernel_grad(self, dout: np.ndarray) -> np.ndarray:
        """Sum over batch and pixels of im2col^T @ dout, one GEMM per block of rows."""
        b, h, w, o = dout.shape
        k = self.kernel_size
        rows = self._rows(self._x)
        block_rows = math.gcd(h, max(1, self.BLOCK_PIXELS // w))
        blocks = dout.reshape(b, h // block_rows, block_rows * w, o)
        dw = np.empty((k, rows.shape[-1], o), dout.dtype)
        for i in range(k):
            rows_i = rows[:, i: i + h].reshape(*blocks.shape[:3], -1)
            dw[i] = (rows_i.swapaxes(2, 3) @ blocks).sum(axis=(0, 1))
        return dw.reshape(k, k, self.in_channels, o)

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        self._x = x if train else None
        return self._correlate(x, self.params["w"].astype(x.dtype, copy=False))

    def backward(self, dout: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        """Kernel gradient into ``grads``; the input gradient unless ``input_grad`` is False.

        The input gradient is the correlation of ``dout`` with the kernel
        flipped in space and transposed in channels.
        """
        self.grads = {"w": self._kernel_grad(dout)}
        if not input_grad:
            return None
        weight = self.params["w"].astype(dout.dtype, copy=False)
        return self._correlate(dout, weight[::-1, ::-1].swapaxes(2, 3))


class BatchNorm2D:
    """Per-channel batch normalization over (batch, height, width).

    Training mode normalizes with biased batch statistics and refreshes the
    exponential running averages; inference mode uses the running averages
    only, so a sample's output never depends on its batch mates.  Inference
    applies the folded affine map ``x * a + b`` with
    ``a = gamma / sqrt(running_var + eps)`` and ``b = beta - running_mean * a``.

    The statistics reduce over a (batch * H * W, channels) view with one
    GEMV or ``einsum`` each.  The elementwise work runs on (batch * H,
    W * channels) rows against channel vectors tiled W times, which does
    the same arithmetic per element in longer inner loops.
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
        width = x.shape[2]
        wide = x.reshape(-1, width * self.channels)
        gamma, beta = self.params["gamma"], self.params["beta"]
        if not train:
            self._cache = None
            scale = gamma / np.sqrt(self.state["running_var"] + self.EPS)
            shift = beta - self.state["running_mean"] * scale
            scale, shift = np.tile(np.stack([scale, shift]).astype(x.dtype), width)
            out = wide * scale
            out += shift
            return out.reshape(x.shape)
        flat = x.reshape(-1, self.channels)
        n = flat.shape[0]
        mean = (np.ones(n, x.dtype) @ flat) / n
        xhat = wide - np.tile(mean, width)
        xhat_flat = xhat.reshape(-1, self.channels)
        var = np.einsum("ij,ij->j", xhat_flat, xhat_flat) / n
        m = self.MOMENTUM
        self.state["running_mean"] = m * self.state["running_mean"] + (1 - m) * mean
        self.state["running_var"] = m * self.state["running_var"] + (1 - m) * var
        inv_std = 1.0 / np.sqrt(var + self.EPS)
        inv_std, gamma, beta = np.tile(
            np.stack([inv_std, gamma.astype(x.dtype), beta.astype(x.dtype)]), width)
        xhat *= inv_std
        self._cache = (xhat, inv_std)
        out = xhat * gamma
        out += beta
        return out.reshape(x.shape)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        xhat, inv_std = self._cache
        flat = dout.reshape(-1, self.channels)
        n = flat.shape[0]
        dgamma = np.einsum("ij,ij->j", flat, xhat.reshape(-1, self.channels))
        dbeta = np.ones(n, flat.dtype) @ flat
        self.grads = {"gamma": dgamma, "beta": dbeta}
        # dx = (gamma * inv_std / n) * (n * dout - dbeta - xhat * dgamma),
        # built in one buffer.
        width = xhat.shape[1] // self.channels
        dgamma_n, dbeta_n, gamma = np.tile(
            np.stack([dgamma / n, dbeta / n, self.params["gamma"].astype(flat.dtype)]), width)
        dx = xhat * dgamma_n
        dx += dbeta_n
        np.subtract(dout.reshape(xhat.shape), dx, out=dx)
        dx *= gamma * inv_std
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

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        out = x[:, 0::2, 0::2] + x[:, 0::2, 1::2]
        out += x[:, 1::2, 0::2]
        out += x[:, 1::2, 1::2]
        out /= 4
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        return np.repeat(np.repeat(dout / 4, 2, axis=2), 2, axis=1)


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
