"""Command-line pipeline: synth, align, train, evaluate, predict.

Exit codes: 0 success; 2 input/config error, including an input file that is
missing, a directory, or not UTF-8 text; 3 any other OS error; 4 internal
invariant violation. Train runs are configured by a JSON file holding every
``TrainConfig`` field plus ``manifest`` and ``out_dir``, and no other field;
command-line flags override file values. ``SEQFUSE_SEED`` serves as a
fallback seed when the config omits one. Every command takes the frame grid
from the dataset manifest.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError, DimMismatchError, EmptyDatasetError, InputError
from .featureio import (
    PARTITIONS,
    FusedSequence,
    Manifest,
    align_dataset,
    load_fused_dataset,
    load_manifest,
    synth_generate,
    write_dataset,
)
from .metrics import evaluate
from .nn import predict
from .training import (
    Checkpoint,
    TrainConfig,
    load_checkpoint,
    save_checkpoint,
    train,
    write_history_csv,
)
from .util import fmt_float, read_json_object, write_atomic

SEED_ENV_VAR = "SEQFUSE_SEED"

CHECKPOINT_NAME = "checkpoint.sqf"
HISTORY_NAME = "history.csv"

@dataclass
class RunConfig:
    """Fully resolved training run: file locations plus hyperparameters."""

    manifest: Path
    out_dir: Path
    train: TrainConfig


# ---------------------------------------------------------------------------
# synth / align
# ---------------------------------------------------------------------------


def cmd_synth(args: argparse.Namespace) -> int:
    dims = _parse_int_list(args.dims, "dims")
    t_range = _parse_range(args.t_range, "t-range")
    counts = (args.n_train, args.n_devel, args.n_test)
    if any(c < 0 for c in counts):
        raise ConfigError("partition sizes must be nonnegative")
    partitions = [p for p, count in zip(PARTITIONS, counts) for _ in range(count)]
    if not partitions:
        raise ConfigError("no videos requested (n-train + n-devel + n-test = 0)")
    seed = args.seed if args.seed is not None else _env_seed()
    if seed is None:
        raise ConfigError(f"missing seed (use --seed or {SEED_ENV_VAR})")

    videos = synth_generate(seed, len(partitions), t_range, dims, args.snr)
    out_dir = Path(args.out_dir)
    n_videos = write_dataset(out_dir, zip(partitions, videos))
    print(f"wrote {n_videos} videos to {out_dir}")
    return 0


def cmd_align(args: argparse.Namespace) -> int:
    manifest = load_manifest(args.manifest)
    out_dir = Path(args.out_dir)
    n_videos = align_dataset(manifest, out_dir)
    print(f"aligned {n_videos} videos into {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def _env_seed() -> int | None:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"{SEED_ENV_VAR}={raw!r} is not an integer") from exc


def _resolve_run_config(args: argparse.Namespace) -> RunConfig:
    known = [f.name for f in fields(TrainConfig)] + ["manifest", "out_dir"]
    merged: dict = {}
    if args.config is not None:
        file_cfg = read_json_object(args.config, "config file")
        unknown = sorted(set(file_cfg) - set(known))
        if unknown:
            raise ConfigError(
                f"{args.config}: unknown config fields: {', '.join(unknown)}"
            )
        merged.update(file_cfg)
    for name in known:
        value = getattr(args, name, None)
        if value is not None:
            merged[name] = value

    for name in ("manifest", "out_dir"):
        if name not in merged:
            raise ConfigError(f"missing required config field: {name}")
        if not isinstance(merged[name], str) or "\0" in merged[name]:
            raise ConfigError(
                f"{name} must be a path string without NUL, got {merged[name]!r}"
            )
    manifest_path = Path(merged.pop("manifest"))
    out_dir = Path(merged.pop("out_dir"))

    if "seed" not in merged:
        env = _env_seed()
        if env is None:
            raise ConfigError(
                f"missing required config field: seed (or set {SEED_ENV_VAR})"
            )
        merged["seed"] = env

    if "track_order" not in merged:
        manifest = load_manifest(manifest_path)
        first = next(iter(manifest.videos.values()))
        merged["track_order"] = sorted(first.features)
    elif isinstance(merged["track_order"], str):
        merged["track_order"] = _parse_str_list(merged["track_order"])

    for name in ("target", "embed_dim", "hidden_units", "head_hidden", "epochs"):
        if name not in merged:
            raise ConfigError(f"missing required config field: {name}")
    try:
        train_cfg = TrainConfig(**merged)
    except TypeError as exc:
        raise ConfigError(f"bad train config: {exc}") from exc
    return RunConfig(manifest_path, out_dir, train_cfg)


def cmd_train(args: argparse.Namespace) -> int:
    run = _resolve_run_config(args)
    manifest = load_manifest(run.manifest)
    train_set = load_fused_dataset(manifest, "train", run.train.track_order)
    devel_set = load_fused_dataset(manifest, "devel", run.train.track_order)
    ckpt, history = train(train_set, devel_set, run.train)
    run.out_dir.mkdir(parents=True, exist_ok=True)
    # The checkpoint goes last, so a failed run never leaves one that looks finished.
    write_history_csv(history, run.out_dir / HISTORY_NAME)
    save_checkpoint(ckpt, run.out_dir / CHECKPOINT_NAME)
    print(
        f"best devel CCC {fmt_float(ckpt.best_ccc)} at epoch {ckpt.best_epoch}; "
        f"checkpoint written to {run.out_dir / CHECKPOINT_NAME}"
    )
    return 0


# ---------------------------------------------------------------------------
# evaluate / predict
# ---------------------------------------------------------------------------


def _load_scored_partition(
    args: argparse.Namespace,
) -> tuple[Checkpoint, Manifest, list[FusedSequence]]:
    """The checkpoint, and the partition it scores, whose tracks must have its dims."""
    ckpt = load_checkpoint(args.checkpoint)
    manifest = load_manifest(args.manifest)
    dataset = load_fused_dataset(manifest, args.partition, list(ckpt.config.track_order))
    trained = dict(ckpt.track_dims)
    for name, dim in dataset[0].track_dims if dataset else ():
        if trained.get(name, dim) != dim:
            raise DimMismatchError(
                f"{args.manifest}: track {name!r} has dim {dim}, but checkpoint "
                f"{args.checkpoint} was trained on dim {trained[name]}"
            )
    return ckpt, manifest, dataset


def cmd_evaluate(args: argparse.Namespace) -> int:
    ckpt, _, dataset = _load_scored_partition(args)
    report = evaluate(ckpt.model, dataset, ckpt.config.target)
    payload = json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    if args.out is not None:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        write_atomic(args.out, payload)
    else:
        sys.stdout.write(payload)
    print(report.summary(), file=sys.stderr)
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    ckpt, manifest, dataset = _load_scored_partition(args)
    if not dataset:
        raise EmptyDatasetError(f"partition {args.partition!r} has no videos to predict")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    target = ckpt.config.target
    preds = predict(ckpt.model, [seq.data for seq in dataset])
    for seq, video_preds in zip(dataset, preds):
        clamped = np.clip(video_preds, -1.0, 1.0)
        rows = ["frame_ms,prediction"]
        rows += [
            f"{j * manifest.frame_len_ms},{v!r}" for j, v in enumerate(clamped.tolist())
        ]
        write_atomic(out_dir / f"{seq.video_id}_{target}.csv", "\n".join(rows) + "\n")
    print(f"wrote predictions for {len(dataset)} videos to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok]
    except ValueError as exc:
        raise ConfigError(f"bad {what} value {text!r}: {exc}") from exc


def _parse_str_list(text: str) -> list[str]:
    return [tok for tok in text.split(",") if tok]


def _parse_range(text: str, what: str) -> tuple[int, int]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ConfigError(f"bad {what} value {text!r}: expected LO:HI")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ConfigError(f"bad {what} value {text!r}: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    fmt = argparse.ArgumentDefaultsHelpFormatter
    parser = argparse.ArgumentParser(
        prog="seqfuse",
        description="Frame-aligned multimodal fusion and LSTM affect regression.",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser(
        "synth", help="generate a synthetic dataset on disk", formatter_class=fmt
    )
    p.add_argument("--out-dir", required=True, help="output dataset directory")
    p.add_argument("--seed", type=int, default=None, help="dataset seed")
    p.add_argument("--n-train", type=int, default=8, help="videos in train partition")
    p.add_argument("--n-devel", type=int, default=2, help="videos in devel partition")
    p.add_argument("--n-test", type=int, default=0, help="videos in test partition")
    p.add_argument("--dims", default="4,6", help="comma-separated track dims")
    p.add_argument("--t-range", default="60:120", help="frames per video, LO:HI")
    p.add_argument("--snr", type=float, default=100.0, help="signal-to-noise ratio")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser(
        "align", help="align token features onto the frame grid", formatter_class=fmt
    )
    p.add_argument("--manifest", required=True, help="dataset manifest JSON")
    p.add_argument("--out-dir", required=True, help="output directory")
    p.set_defaults(func=cmd_align)

    p = sub.add_parser(
        "train", help="train a model from a JSON run config", formatter_class=fmt
    )
    p.add_argument("--config", default=None, help="JSON run config file")
    p.add_argument("--manifest", default=None, help="dataset manifest JSON")
    p.add_argument("--out-dir", dest="out_dir", default=None, help="run output directory")
    p.add_argument("--target", default=None, help="label target name")
    p.add_argument("--seed", type=int, default=None, help="run seed")
    p.add_argument("--epochs", type=int, default=None, help="max training epochs")
    p.add_argument("--learning-rate", type=float, default=None, help="Adam step size")
    p.add_argument("--dropout-rate", type=float, default=None, help="dropout rate")
    p.add_argument("--max-time-step", type=int, default=None, help="chunk length")
    p.add_argument("--embed-dim", type=int, default=None, help="projection width")
    p.add_argument("--hidden-units", type=int, default=None, help="LSTM width")
    p.add_argument("--head-hidden", type=int, default=None, help="head hidden width")
    p.add_argument("--patience", type=int, default=None, help="early-stop patience")
    p.add_argument(
        "--track-order",
        type=_parse_str_list,
        default=None,
        help="comma-separated fusion order",
    )
    p.set_defaults(func=cmd_train)

    p = sub.add_parser(
        "evaluate", help="score a checkpoint with CCC", formatter_class=fmt
    )
    p.add_argument("--checkpoint", required=True, help="checkpoint file")
    p.add_argument("--manifest", required=True, help="dataset manifest JSON")
    p.add_argument(
        "--partition",
        default="devel",
        choices=["train", "devel", "test", "all"],
        help="partition to score",
    )
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser(
        "predict", help="write per-video prediction CSVs", formatter_class=fmt
    )
    p.add_argument("--checkpoint", required=True, help="checkpoint file")
    p.add_argument("--manifest", required=True, help="dataset manifest JSON")
    p.add_argument("--out-dir", required=True, help="prediction output directory")
    p.add_argument(
        "--partition",
        default="all",
        choices=["train", "devel", "test", "all"],
        help="partition to predict",
    )
    p.set_defaults(func=cmd_predict)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help(sys.stderr)
        return 2
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        traceback.print_exc()
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
