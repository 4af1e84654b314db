"""Command-line front end.

Subcommands:

* ``generate``  build a labeled dataset file from a JSON config,
* ``train``     train the multitask model or a single-task variant (a
                resume must repeat its checkpoint's run settings and data),
* ``eval``      score a checkpoint (multitask) or a cascade (sequential)
                on a dataset, dumping metrics and raw predictions,
* ``assess``    grade samples with a multitask checkpoint and write the
                line-oriented assessment report,
* ``baseline``  alias for ``eval --mode sequential``.

Exit codes: 0 success, 2 usage error (bad arguments), 3 I/O error,
4 invalid config or data (including malformed JSON), 5 unexpected
internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import zipfile
import zlib
from pathlib import Path

import numpy as np

from .assessment import DEFAULT_THRESHOLDS, AssessmentThresholds, unreachable_scales, write_report
from .baseline import check_threshold
from .experiments.config import desk_config, full_scale_config, load_config, save_config
from .experiments.dataset import MAGIC, Dataset, build_dataset
from .experiments.metrics import (
    evaluate_multitask,
    evaluate_sequential,
    summary_lines,
    write_rows_csv,
)
from .experiments.training import TASKS, save_result, train, write_log_csv
from .features import feature_shape, feature_tensor
from .net.checkpoint import load_model
from .ofdm import block_spectra


def _add_generate(sub):
    p = sub.add_parser("generate", help="build a labeled dataset file")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--config", help="JSON experiment config (defaults to the desk preset)")
    source.add_argument("--preset", choices=("desk", "full"))
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, help="override the config master seed")
    p.add_argument("--count-per-kind", type=int, help="override samples per threat kind")
    p.add_argument("--dump-config", help="also write the effective config JSON here")


def _add_train(sub):
    p = sub.add_parser("train", help="train a model on a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--mode", choices=("multitask", "intent", "capability"),
                   default="multitask")
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--resume", help="checkpoint to continue from; the run's mode, "
                   "seed, batch size, data and network config must match the checkpoint's")
    p.add_argument("--log", help="write the per-step loss log CSV here")


def _eval_args(p):
    p.add_argument("--dataset", required=True)
    p.add_argument("--ckpt", required=True,
                   help="multitask checkpoint, or the regression model in sequential mode")
    p.add_argument("--ckpt2", help="classifier checkpoint (sequential mode)")
    p.add_argument("--theta", type=float, nargs="+",
                   help="gate thresholds for the sequential sweep (default 1e-2 1e-3 1e-4)")
    p.add_argument("--high-ber", type=float, default=DEFAULT_THRESHOLDS.high_ber)
    p.add_argument("--low-ber", type=float, default=DEFAULT_THRESHOLDS.low_ber)
    p.add_argument("--rows-out", help="write raw prediction rows CSV here")


def _add_eval(sub):
    """``eval`` and its alias ``baseline``, which fixes ``--mode sequential``."""
    p = sub.add_parser("eval", help="evaluate checkpoints on a dataset")
    p.add_argument("--mode", choices=("multitask", "sequential"), default="multitask")
    _eval_args(p)
    p = sub.add_parser("baseline", help="sequential-cascade evaluation (eval --mode sequential)")
    p.set_defaults(mode="sequential")
    _eval_args(p)


def _add_assess(sub):
    p = sub.add_parser("assess", help="grade samples and write the assessment report")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--input", required=True,
                   help="dataset file, or .npz with a complex 'samples' series")
    p.add_argument("--config", help="config JSON for .npz input (required; a dataset holds its own)")
    p.add_argument("--out", required=True)
    p.add_argument("--high-ber", type=float, default=DEFAULT_THRESHOLDS.high_ber)
    p.add_argument("--low-ber", type=float, default=DEFAULT_THRESHOLDS.low_ber)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cpaware", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    _add_generate(sub)
    _add_train(sub)
    _add_eval(sub)
    _add_assess(sub)
    return parser


def _load_trained(path, reads: str):
    """The model of checkpoint ``path``, refused if its run left a head task ``reads`` trains."""
    model, _, record = load_model(path)
    task = record["task"]
    trained = TASKS.get(str(task), (0.0, 0.0))  # str(): a JSON list or object is no task
    if any(need and not weight for need, weight in zip(TASKS[reads], trained)):
        raise ValueError(f"{path}: the checkpoint's run trained task {task!r}, "
                         f"but this command reads it as a {reads!r} model")
    return model


def cmd_generate(args) -> int:
    if args.config:
        config = load_config(args.config)
    else:
        config = full_scale_config() if args.preset == "full" else desk_config()
    flags = {"master_seed": args.seed, "train_per_kind": args.count_per_kind}
    config = dataclasses.replace(config, **{k: v for k, v in flags.items() if v is not None})
    count = build_dataset(args.out, config)
    if args.dump_config:
        save_config(args.dump_config, config)
    print(f"wrote {count} samples to {args.out} (seed {config.master_seed})")
    return 0


def cmd_train(args) -> int:
    ds = Dataset(args.dataset)
    config = ds.config
    flags = {"epochs": args.epochs, "batch_size": args.batch_size, "train_seed": args.seed}
    regime = dataclasses.replace(config.regime, **{k: v for k, v in flags.items() if v is not None})
    tensors, intent_idx, log_ber, _ = ds.load_arrays()
    result = train(tensors, intent_idx, log_ber, config.net, args.mode, regime, args.resume)
    save_result(args.out, result)
    if args.log:
        write_log_csv(args.log, result.log)
    final = f", final loss {result.log[-1]['loss_total']:.6g}" if result.log else ""
    print(f"trained {args.mode} for {len(result.log)} steps (label variance "
          f"{result.label_variance:.6g}{final}); saved {args.out}")
    return 0


def cmd_eval(args) -> int:
    thresholds = AssessmentThresholds(high_ber=args.high_ber, low_ber=args.low_ber)
    if args.mode == "multitask":
        for flag in ("ckpt2", "theta"):
            if getattr(args, flag) is not None:
                raise ValueError(f"--{flag} is for sequential mode; multitask mode reads "
                                 "one checkpoint and no gate")
    else:
        thetas = args.theta or [1e-2, 1e-3, 1e-4]
        if not args.ckpt2:
            raise ValueError("sequential mode needs --ckpt (regression) and --ckpt2 (classifier)")
        if args.rows_out and len(thetas) > 1:
            raise ValueError("--rows-out holds the rows of one --theta; give a single value")
        for theta in thetas:
            check_threshold(theta)
    ds = Dataset(args.dataset)
    tensors, intent_idx, log_ber, _ = ds.load_arrays()
    if args.mode == "multitask":
        model, _, _ = load_model(args.ckpt)
        report, rows = evaluate_multitask(model, tensors, intent_idx, log_ber, thresholds)
        print("\n".join(summary_lines(report, args.mode)))
    else:
        regressor = _load_trained(args.ckpt, "capability")
        classifier = _load_trained(args.ckpt2, "intent")
        for assessor, report, rows in evaluate_sequential(
                regressor, classifier, thetas, tensors, intent_idx, log_ber, thresholds):
            label = f"{args.mode} (theta={assessor.threshold_ber:g})"
            print("\n".join(summary_lines(report, label)))
            print(f"  classifier invocations: {assessor.classifier_invocations}"
                  f" / {len(rows)} (gated {assessor.gated_count})")
    unreachable = unreachable_scales(ds.config.frame, thresholds)
    if unreachable:
        print("  unreachable scales at this frame and thresholds: "
              + ", ".join(map(str, unreachable)))
    if args.rows_out:
        write_rows_csv(args.rows_out, rows)
    return 0


def cmd_assess(args) -> int:
    thresholds = AssessmentThresholds(high_ber=args.high_ber, low_ber=args.low_ber)
    model = _load_trained(args.ckpt, "multitask")
    path = Path(args.input)
    with open(path, "rb") as fh:
        head = fh.read(len(MAGIC))
    if head == MAGIC:
        if args.config:
            raise ValueError("--config is for .npz input; a dataset carries its own config")
        tensors, _, _, _ = Dataset(path).load_arrays()
    else:
        if head != b"PK\x03\x04":  # an .npz is a zip archive
            raise ValueError(f"{path}: neither a dataset nor an .npz archive")
        if not args.config:
            raise ValueError("--config is required for raw .npz input")
        config = load_config(args.config)
        try:
            with np.load(path) as payload:
                if "samples" not in payload:
                    raise ValueError(f"{path}: expected an array named 'samples'")
                samples = payload["samples"]
        except (zipfile.BadZipFile, zlib.error, EOFError, NotImplementedError,
                RuntimeError) as exc:  # what a damaged archive raises besides ValueError
            raise ValueError(f"{path}: corrupt .npz archive ({exc!r})") from None
        if not np.issubdtype(samples.dtype, np.number):
            raise ValueError(f"{path}: 'samples' must be numeric, not {samples.dtype}")
        if samples.ndim != 1:
            raise ValueError(f"{path}: 'samples' must be one 1-D series, "
                             f"not an array of shape {samples.shape}")
        if samples.size != config.frame.sample_len:
            raise ValueError(f"{path}: 'samples' must be one frame of "
                             f"{config.frame.sample_len} samples, not {samples.size}")
        if not np.all(np.isfinite(samples)):
            raise ValueError(f"{path}: 'samples' must be finite")
        # Rounded to the dataset's float32, so a series grades alike from either input.
        tensors = np.empty((1, *feature_shape(config.frame)), dtype="<f4")
        feature_tensor(block_spectra(samples, config.frame), config.feature, out=tensors[0])
    probs, rho_hat = model.predict_batched(tensors)
    write_report(args.out, np.argmax(probs, axis=1), rho_hat, thresholds)
    print(f"assessed {len(rho_hat)} samples; report written to {args.out}")
    return 0


_COMMANDS = {
    "generate": cmd_generate,
    "train": cmd_train,
    "eval": cmd_eval,
    "baseline": cmd_eval,
    "assess": cmd_assess,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except OSError as exc:
        print(f"cpaware: I/O error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"cpaware: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # pragma: no cover
        print(f"cpaware: internal error: {exc!r}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
