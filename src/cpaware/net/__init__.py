"""From-scratch multitask network: layers, losses, optimizer, checkpoints."""

from .checkpoint import load_model, read_checkpoint, save_model, write_checkpoint
from .losses import (
    focal_loss,
    focal_loss_with_logit_grad,
    mse_loss,
    regression_weight,
    softmax,
    total_loss,
)
from .model import MultitaskNet, NetworkConfig, he_init
from .optim import Adam

__all__ = [
    "Adam",
    "MultitaskNet",
    "NetworkConfig",
    "focal_loss",
    "focal_loss_with_logit_grad",
    "he_init",
    "load_model",
    "mse_loss",
    "read_checkpoint",
    "regression_weight",
    "save_model",
    "softmax",
    "total_loss",
    "write_checkpoint",
]
