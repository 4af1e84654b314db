"""Shared-backbone multitask network: intent classifier + log-BER regressor.

The backbone is a stack of conv blocks followed by a global average
pool.  Every block is the same: a 3x3 stride-1 convolution, batch norm
(``BatchNorm2D.MOMENTUM``, ``EPS``), ReLU and a 2x2 average pool, so each
block halves the feature map; only its filter count is configured.
Two dense heads read the shared per-channel features, one with a logit
per intent (``ThreatKind``) and one with the log-BER.  Both heads
backpropagate into the backbone, which is what couples the tasks during
training.

The network computes in the dtype of its input: float32 input runs in
float32, and any other input is cast to float64.  Datasets store their
feature maps as float32, so training and inference run in float32;
float64 is the reference path of the finite-difference gradient checks.
The parameters, the batch-norm running statistics and the optimizer stay
float64 whatever the input (mixed precision as in Micikevicius et al.
2018, "Mixed precision training", ICLR): the layers cast the parameters
where they use them, and the outputs and ``named_grads`` are cast to
float64, so the losses, Adam and everything downstream see float64.

Weights follow the He normal scheme (variance 2 / fan_in).  The dense
heads start with zero biases; the convolutions have none, since the
batch normalization after each one would cancel it.  A convolution
reads its three kernel rows from one horizontal im2col of its input, in
both passes (see ``layers``).  L2 regularization covers every
parameter of two or more dimensions, which are exactly the convolution
and dense weights.

Only ``forward(train=True)`` caches activations for ``backward``.
Inference (``predict_batched``) keeps no cache and runs one sample per
forward pass: BLAS rounds a product of 1 row differently from one of 16,
so a batched pass would make a sample's output depend on its batch.  One
sample a pass makes it a function of the sample and the weights alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..threats import ThreatKind
from .layers import AvgPool2D, BatchNorm2D, Conv2D, Dense, GlobalAvgPool, ReLU
from .losses import softmax


def _positive_ints(values) -> bool:
    return all(type(v) is int and v > 0 for v in values)


@dataclass(frozen=True)
class NetworkConfig:
    """Backbone widths plus the loss/optimizer hyperparameters it trains with."""

    input_shape: tuple  # (frames, bins, channels)
    conv_filters: tuple = (8, 16, 32)  # output channels of each conv block
    l2_coeff: float = 1e-4
    focal_gamma: float = 2.0
    reg_amplification: float = 10.0
    learning_rate: float = 1e-3  # Adam default (Kingma & Ba); 1e-4 stalls log-BER

    def __post_init__(self) -> None:
        if len(self.input_shape) != 3 or not _positive_ints(self.input_shape):
            raise ValueError("input_shape must be (frames, bins, channels), positive integers")
        if not self.conv_filters or not _positive_ints(self.conv_filters):
            raise ValueError("conv_filters must be one or more positive integers")
        for name in ("l2_coeff", "focal_gamma"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be non-negative and finite, "
                                 f"not {getattr(self, name)!r}")
        for name in ("reg_amplification", "learning_rate"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, "
                                 f"not {getattr(self, name)!r}")


class MultitaskNet:
    """Conv backbone of ``conv_filters`` widths feeding a softmax head and a scalar head."""

    def __init__(self, config: NetworkConfig):
        self.config = config
        self._dtype = None  # that of the last training forward pass
        h, w, c = config.input_shape
        self.backbone: list = []
        for filters in config.conv_filters:
            if h % 2 or w % 2:
                raise ValueError(
                    f"feature map {(h, w)} not divisible by pool 2; "
                    "adjust input_shape or conv_filters"
                )
            try:  # numpy refuses an array past the address space with ValueError
                self.backbone += [Conv2D(c, filters), BatchNorm2D(filters), ReLU(), AvgPool2D()]
            except (MemoryError, ValueError) as exc:
                raise ValueError(f"conv_filters {list(config.conv_filters)}: a block of "
                                 f"{filters} filters cannot be allocated ({exc})") from None
            h, w, c = h // 2, w // 2, filters
        self.backbone.append(GlobalAvgPool())
        self.feature_size = c
        self.head_cls = Dense(self.feature_size, len(ThreatKind))
        self.head_reg = Dense(self.feature_size, 1)

    # -- parameter bookkeeping -------------------------------------------

    def _named_layers(self):
        for i, layer in enumerate(self.backbone):
            yield f"backbone.{i}", layer
        yield "head_cls", self.head_cls
        yield "head_reg", self.head_reg

    def _named(self, table: str) -> dict[str, np.ndarray]:
        return {f"{prefix}.{key}": value for prefix, layer in self._named_layers()
                for key, value in getattr(layer, table, {}).items()}

    def named_params(self) -> dict[str, np.ndarray]:
        return self._named("params")

    def named_grads(self) -> dict[str, np.ndarray]:
        return {name: g.astype(float, copy=False) for name, g in self._named("grads").items()}

    def named_state(self) -> dict[str, np.ndarray]:
        """Non-trainable state (batch-norm running statistics)."""
        return self._named("state")

    def kernel_names(self) -> list[str]:
        """Parameters subject to L2 regularization: every one of two or more dimensions.

        Those are the convolution and dense weights; biases and the
        batch-norm scale and shift are 1-D.
        """
        return [name for name, value in self.named_params().items() if value.ndim >= 2]

    def kernel_sq_sum(self) -> float:
        params = self.named_params()
        return float(sum(np.sum(params[k] ** 2) for k in self.kernel_names()))

    # -- computation ------------------------------------------------------

    def check_input(self, x: np.ndarray) -> None:
        """Reject samples not of ``input_shape``, which global pooling would not."""
        shape, expected = tuple(np.shape(x)[1:]), tuple(self.config.input_shape)
        if shape != expected:
            raise ValueError(f"input samples have shape {shape}, but the model "
                             f"was built for input_shape {expected}")

    def forward(self, x: np.ndarray, train: bool = True) -> tuple[np.ndarray, np.ndarray]:
        """Logits (batch, intents) and log-BER predictions (batch,), as float64,
        computed in float32 for float32 ``x`` and in float64 otherwise."""
        self.check_input(x)
        out = np.asarray(x)
        out = out.astype(np.float32 if out.dtype == np.float32 else float, copy=False)
        if train:
            self._dtype = out.dtype
        for layer in self.backbone:
            out = layer.forward(out, train)
        logits = self.head_cls.forward(out, train).astype(float, copy=False)
        log_ber = self.head_reg.forward(out, train).reshape(-1).astype(float, copy=False)
        return logits, log_ber

    def backward(self, dlogits: np.ndarray, dlog_ber: np.ndarray) -> None:
        """Backpropagate both head cotangents through the shared backbone.

        A head with no task signal gets a zero cotangent, which gives it
        zero gradients and adds nothing to the backbone's.  Both cotangents
        are cast to the dtype the forward pass computed in.
        """
        dlogits = dlogits.astype(self._dtype, copy=False)
        dlog_ber = dlog_ber.astype(self._dtype, copy=False).reshape(-1, 1)
        out = self.head_cls.backward(dlogits) + self.head_reg.backward(dlog_ber)
        for layer in reversed(self.backbone[1:]):
            out = layer.backward(out)
        # Nothing reads the gradient with respect to the network input.
        self.backbone[0].backward(out, input_grad=False)

    def predict_batched(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Inference-mode class probabilities and log-BER predictions, one sample per pass."""
        outputs = [self.forward(x[i: i + 1], train=False) for i in range(len(x))]
        return (np.concatenate([softmax(logits) for logits, _ in outputs]),
                np.concatenate([log_ber for _, log_ber in outputs]))


def he_init(config: NetworkConfig, rng: np.random.Generator) -> MultitaskNet:
    """Build a network and draw each kernel, in ``named_params`` order, from
    N(0, 2 / fan_in), fan_in being the product of all but its output axis;
    the other parameters keep their construction values."""
    net = MultitaskNet(config)
    params = net.named_params()
    for name in net.kernel_names():
        w = params[name]
        w[...] = rng.normal(0.0, np.sqrt(2.0 / math.prod(w.shape[:-1])), size=w.shape)
    return net
