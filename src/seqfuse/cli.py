"""Command-line pipeline: synth, align, train, evaluate, predict.

Exit codes: 0 success, 2 input/config error, 3 I/O error, 4 internal
invariant violation. Train runs are configured by a JSON file holding every
``TrainConfig`` field plus ``manifest`` and ``out_dir``; command-line flags
override file values. ``SEQFUSE_SEED`` serves as a fallback seed when the
config omits one.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, InputError
from .featureio import (
    DEFAULT_FRAME_LEN_MS,
    Manifest,
    VideoEntry,
    frame_track_to_tokens,
    load_fused_dataset,
    load_labeled_sequence,
    load_manifest,
    save_manifest,
    synth_generate,
    write_feature_csv,
    write_label_csv,
)
from .metrics import evaluate
from .nn import forward
from .training import (
    TrainConfig,
    load_checkpoint,
    save_checkpoint,
    train,
    write_history_csv,
)
from .util import fmt_float, write_atomic

SEED_ENV_VAR = "SEQFUSE_SEED"

CHECKPOINT_NAME = "checkpoint.sqf"
HISTORY_NAME = "history.csv"

_TRAIN_FIELDS = (
    "target",
    "embed_dim",
    "hidden_units",
    "head_hidden",
    "epochs",
    "seed",
    "track_order",
    "learning_rate",
    "adam_beta1",
    "adam_beta2",
    "adam_eps",
    "dropout_rate",
    "max_time_step",
    "patience",
)


@dataclass
class RunConfig:
    """Fully resolved training run: file locations plus hyperparameters."""

    manifest: Path
    out_dir: Path
    train: TrainConfig
    frame_len_ms: int = DEFAULT_FRAME_LEN_MS


def _feature_filename(video_id: str, track: str) -> str:
    return f"features/{video_id}_{track}.csv"


def _label_filename(video_id: str, target: str) -> str:
    return f"labels/{video_id}_{target}.csv"


def _check_manifest_files(manifest: Manifest, partition: str | None) -> None:
    """Missing referenced files are input errors (exit 2), named in the message."""
    for vid in manifest.video_ids(partition):
        entry = manifest.videos[vid]
        for track, relpath in entry.features.items():
            path = manifest.resolve(relpath)
            if not path.is_file():
                raise ConfigError(f"video {vid!r}: missing feature file: {path}")
        for target, relpath in entry.labels.items():
            path = manifest.resolve(relpath)
            if not path.is_file():
                raise ConfigError(f"video {vid!r}: missing label file: {path}")


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def cmd_synth(args: argparse.Namespace) -> int:
    dims = _parse_int_list(args.dims, "dims")
    t_range = _parse_range(args.t_range, "t-range")
    counts = (args.n_train, args.n_devel, args.n_test)
    if any(c < 0 for c in counts):
        raise ConfigError("partition sizes must be nonnegative")
    n_videos = sum(counts)
    if n_videos < 1:
        raise ConfigError("no videos requested (n-train + n-devel + n-test = 0)")
    seed = args.seed if args.seed is not None else _env_seed()
    if seed is None:
        raise ConfigError(f"missing seed (use --seed or {SEED_ENV_VAR})")

    videos = synth_generate(seed, n_videos, t_range, dims, args.snr)
    out_dir = Path(args.out_dir)
    (out_dir / "features").mkdir(parents=True, exist_ok=True)
    (out_dir / "labels").mkdir(parents=True, exist_ok=True)

    entries: dict[str, VideoEntry] = {}
    for idx, video in enumerate(videos):
        partition = (
            "train"
            if idx < args.n_train
            else "devel"
            if idx < args.n_train + args.n_devel
            else "test"
        )
        features = {}
        for track in video.tracks:
            relpath = _feature_filename(video.video_id, track.name)
            write_feature_csv(out_dir / relpath, frame_track_to_tokens(track))
            features[track.name] = relpath
        labels = {}
        for target, values in video.labels.items():
            relpath = _label_filename(video.video_id, target)
            write_label_csv(out_dir / relpath, values)
            labels[target] = relpath
        entries[video.video_id] = VideoEntry(partition, features, labels)

    save_manifest(Manifest(entries, root=out_dir), out_dir / "manifest.json")
    print(f"wrote {n_videos} videos to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# align
# ---------------------------------------------------------------------------


def cmd_align(args: argparse.Namespace) -> int:
    manifest = load_manifest(args.manifest)
    _check_manifest_files(manifest, None)
    out_dir = Path(args.out_dir)
    (out_dir / "features").mkdir(parents=True, exist_ok=True)
    (out_dir / "labels").mkdir(parents=True, exist_ok=True)

    entries: dict[str, VideoEntry] = {}
    for vid, entry in manifest.videos.items():
        seq = load_labeled_sequence(
            manifest, vid, list(entry.features), args.frame_len_ms
        )
        labels = {}
        for target, relpath in entry.labels.items():
            dst_rel = _label_filename(vid, target)
            write_atomic(out_dir / dst_rel, manifest.resolve(relpath).read_bytes())
            labels[target] = dst_rel
        features = {}
        for track in seq.tracks:
            dst_rel = _feature_filename(vid, track.name)
            write_feature_csv(out_dir / dst_rel, frame_track_to_tokens(track))
            features[track.name] = dst_rel
        entries[vid] = VideoEntry(entry.partition, features, labels)

    save_manifest(Manifest(entries, root=out_dir), out_dir / "manifest.json")
    print(f"aligned {len(entries)} videos into {out_dir}")
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
    merged: dict = {}
    if args.config is not None:
        path = Path(args.config)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            file_cfg = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
        known = set(_TRAIN_FIELDS) | {"manifest", "out_dir", "frame_len_ms"}
        unknown = sorted(set(file_cfg) - known)
        if unknown:
            raise ConfigError(f"{path}: unknown config fields: {', '.join(unknown)}")
        merged.update(file_cfg)
    for name in _TRAIN_FIELDS + ("manifest", "out_dir"):
        value = getattr(args, name, None)
        if value is not None:
            merged[name] = value

    if "manifest" not in merged:
        raise ConfigError("missing required config field: manifest")
    if "out_dir" not in merged:
        raise ConfigError("missing required config field: out_dir")
    manifest_path = Path(merged.pop("manifest"))
    out_dir = Path(merged.pop("out_dir"))
    frame_len_ms = int(merged.pop("frame_len_ms", DEFAULT_FRAME_LEN_MS))

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
    return RunConfig(manifest_path, out_dir, train_cfg, frame_len_ms)


def cmd_train(args: argparse.Namespace) -> int:
    run = _resolve_run_config(args)
    manifest = load_manifest(run.manifest)
    _check_manifest_files(manifest, "train")
    _check_manifest_files(manifest, "devel")
    train_set = load_fused_dataset(
        manifest, "train", run.train.track_order, run.frame_len_ms
    )
    devel_set = load_fused_dataset(
        manifest, "devel", run.train.track_order, run.frame_len_ms
    )
    ckpt, history = train(train_set, devel_set, run.train)
    run.out_dir.mkdir(parents=True, exist_ok=True)
    save_checkpoint(ckpt, run.out_dir / CHECKPOINT_NAME)
    write_history_csv(history, run.out_dir / HISTORY_NAME)
    print(
        f"best devel CCC {fmt_float(ckpt.best_ccc)} at epoch {ckpt.best_epoch}; "
        f"checkpoint written to {run.out_dir / CHECKPOINT_NAME}"
    )
    return 0


# ---------------------------------------------------------------------------
# evaluate / predict
# ---------------------------------------------------------------------------


def _load_checkpoint_arg(path_str: str):
    path = Path(path_str)
    if not path.is_file():
        raise ConfigError(f"checkpoint not found: {path}")
    return load_checkpoint(path)


def cmd_evaluate(args: argparse.Namespace) -> int:
    ckpt = _load_checkpoint_arg(args.checkpoint)
    manifest = load_manifest(args.manifest)
    _check_manifest_files(manifest, args.partition if args.partition != "all" else None)
    dataset = load_fused_dataset(
        manifest, args.partition, list(ckpt.config.track_order), args.frame_len_ms
    )
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
    ckpt = _load_checkpoint_arg(args.checkpoint)
    manifest = load_manifest(args.manifest)
    partition = None if args.partition == "all" else args.partition
    _check_manifest_files(manifest, partition)
    dataset = load_fused_dataset(
        manifest, args.partition, list(ckpt.config.track_order), args.frame_len_ms
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    target = ckpt.config.target
    for seq in dataset:
        trace = forward(ckpt.model, seq.data)
        clamped = np.clip(trace.predictions, -1.0, 1.0)
        rows = ["frame_ms,prediction"]
        rows += [
            f"{j * args.frame_len_ms},{fmt_float(v)}" for j, v in enumerate(clamped)
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
    p.add_argument(
        "--frame-len-ms", type=int, default=DEFAULT_FRAME_LEN_MS, help="frame length"
    )
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
    p.add_argument(
        "--frame-len-ms", type=int, default=DEFAULT_FRAME_LEN_MS, help="frame length"
    )
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
    p.add_argument(
        "--frame-len-ms", type=int, default=DEFAULT_FRAME_LEN_MS, help="frame length"
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
