"""Experiment configuration: generation, training and evaluation settings.

Two presets ship with the package.  ``desk_config`` keeps the whole
pipeline (generate, train, evaluate) in the tens of minutes on a laptop
CPU; ``full_scale_config`` selects the full frame geometry and sample
counts and is intended for long unattended runs.

Configs serialize to JSON with sorted keys, so identical configs always
produce identical bytes.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

from ..features import FeatureConfig, feature_shape
from ..net.model import NetworkConfig
from ..ofdm import FrameConfig
from ..tensorfile import from_json
from ..threats import ScenarioSpace

_DESK_FRAME = FrameConfig(64, 8, 64)


@dataclass(frozen=True)
class TrainRegime:
    epochs: int = 20
    batch_size: int = 16
    train_seed: int = 7

    def __post_init__(self) -> None:
        if self.epochs <= 0 or self.batch_size <= 0:
            raise ValueError("epochs and batch_size must be positive")
        if self.train_seed < 0:
            raise ValueError(f"train_seed must be non-negative, not {self.train_seed}")


@dataclass(frozen=True)
class ExperimentConfig:
    master_seed: int = 1
    # Samples per intent of the set built from this config, a train or a test set.
    train_per_kind: int = 200
    frame: FrameConfig = _DESK_FRAME
    feature: FeatureConfig = FeatureConfig(3)
    space: ScenarioSpace = ScenarioSpace()
    net: NetworkConfig = NetworkConfig(feature_shape(_DESK_FRAME))
    regime: TrainRegime = TrainRegime()

    def __post_init__(self) -> None:
        if self.train_per_kind <= 0:
            raise ValueError("train_per_kind must be positive")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be non-negative, not {self.master_seed}")
        expected = feature_shape(self.frame)
        if tuple(self.net.input_shape) != expected:
            raise ValueError(
                f"net input_shape {self.net.input_shape} does not match the "
                f"feature tensor shape {expected}"
            )


def desk_config(**overrides) -> ExperimentConfig:
    """Laptop-scale defaults: 64x64 frames, 200 training samples per kind."""
    return dataclasses.replace(ExperimentConfig(), **overrides)


def full_scale_config(**overrides) -> ExperimentConfig:
    """Full frame geometry and sample counts; hours of CPU, not minutes."""
    frame = FrameConfig(512, 64, 600)
    base = ExperimentConfig(
        train_per_kind=3600,
        frame=frame,
        feature=FeatureConfig(15),
        net=NetworkConfig(feature_shape(frame)),
    )
    return dataclasses.replace(base, **overrides)


def load_config(path) -> ExperimentConfig:
    return from_json(ExperimentConfig, json.loads(Path(path).read_text()))


def save_config(path, config: ExperimentConfig) -> None:
    Path(path).write_text(json.dumps(dataclasses.asdict(config), sort_keys=True, indent=2))
