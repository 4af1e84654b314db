"""Dataset construction, training orchestration, metrics and presets."""

from .config import (
    ExperimentConfig,
    TrainRegime,
    desk_config,
    full_scale_config,
    load_config,
    save_config,
)
from .dataset import Dataset, build_dataset, build_records, derive_seed, write_dataset
from .metrics import (
    evaluate_multitask,
    evaluate_sequential,
    report_from_rows,
    write_rows_csv,
)
from .training import TrainResult, save_result, train, train_step, write_log_csv

__all__ = [
    "Dataset",
    "ExperimentConfig",
    "TrainRegime",
    "TrainResult",
    "build_dataset",
    "build_records",
    "derive_seed",
    "desk_config",
    "evaluate_multitask",
    "evaluate_sequential",
    "full_scale_config",
    "load_config",
    "report_from_rows",
    "save_config",
    "save_result",
    "train",
    "train_step",
    "write_dataset",
    "write_log_csv",
    "write_rows_csv",
]
