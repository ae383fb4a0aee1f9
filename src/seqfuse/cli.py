"""Command-line pipeline: synth, align, train, evaluate, predict.

Exit codes: 0 success; 2 input/config error, including an input file that is
missing, a directory, or not UTF-8 text, and an output path that names no
file, where a directory exists or under a regular file; 3 any other OS
error; 4 internal invariant violation. Train runs are configured by a JSON
file holding every ``TrainConfig`` field plus ``manifest`` and ``out_dir``,
and no other field; command-line flags override file values.
``SEQFUSE_SEED`` serves as a fallback seed when the config omits one. Every
command takes the frame grid from the dataset manifest, and runs numpy's
bundled OpenBLAS on one thread (:func:`_one_blas_thread`).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import logging
import os
import sys
import traceback
from contextlib import contextmanager
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError, EmptyDatasetError, InputError
from .featureio import (
    PARTITIONS,
    Manifest,
    align_dataset,
    check_outputs,
    input_readers,
    load_fused_datasets,
    load_manifest,
    write_dataset,
)
from .metrics import ccc_report, predict_partition, score_partition
from .synth import synth_generate
from .training import (
    Checkpoint,
    TrainConfig,
    load_checkpoint,
    save_checkpoint,
    train,
    write_history_csv,
)
from .util import fmt_float, read_input, read_json_object, write_atomic

logger = logging.getLogger(__name__)

SEED_ENV_VAR = "SEQFUSE_SEED"

CHECKPOINT_NAME = "checkpoint.sqf"
HISTORY_NAME = "history.csv"
INDEX_NAME = "index.json"  # a prediction directory's completion marker

# The TrainConfig fields that no train flag sets, only a run config file.
UNFLAGGED_FIELDS = ("adam_beta1", "adam_beta2", "adam_eps")

# synth builds every video in memory before it writes the first, at a few kB
# each however short, so a count far past this would exhaust memory before
# anything is written (MuSe-Wild itself has a few hundred videos).
MAX_SYNTH_VIDEOS = 100_000


# ---------------------------------------------------------------------------
# synth / align
# ---------------------------------------------------------------------------


def cmd_synth(args: argparse.Namespace) -> int:
    dims = _parse_int_list(args.dims, "dims")
    t_range = _parse_range(args.t_range, "t-range")
    counts = (args.n_train, args.n_devel, args.n_test)
    if any(c < 0 for c in counts):
        raise ConfigError("partition sizes must be nonnegative")
    if sum(counts) > MAX_SYNTH_VIDEOS:
        raise ConfigError(
            f"n-train + n-devel + n-test = {sum(counts)} videos, more than the "
            f"{MAX_SYNTH_VIDEOS} that synth makes"
        )
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


def _resolve_run_config(args: argparse.Namespace) -> tuple[Path, Manifest, Path, TrainConfig]:
    """The manifest path, the manifest, the output directory and the config of a train run."""
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

    manifest = load_manifest(manifest_path)
    if "track_order" not in merged:
        first = next(iter(manifest.videos.values()))
        merged["track_order"] = sorted(first.features)
    elif isinstance(merged["track_order"], str):
        merged["track_order"] = _parse_str_list(merged["track_order"])

    for f in fields(TrainConfig):
        if f.default is MISSING and f.default_factory is MISSING and f.name not in merged:
            raise ConfigError(f"missing required config field: {f.name}")
    return manifest_path, manifest, out_dir, TrainConfig(**merged)


def cmd_train(args: argparse.Namespace) -> int:
    manifest_path, manifest, out_dir, config = _resolve_run_config(args)
    # Before any video is loaded: no output may be the manifest, the config
    # file or an input file of any manifest video.
    inputs = [(manifest_path, "train --manifest")]
    if args.config is not None:
        inputs.append((args.config, "train --config"))
    writes = [(out_dir / name, "train --out-dir") for name in (HISTORY_NAME, CHECKPOINT_NAME)]
    check_outputs(writes, input_readers(manifest, inputs), set())
    train_set, devel_set = load_fused_datasets(manifest, ("train", "devel"), config.track_order)
    ckpt, history = train(train_set, devel_set, config)
    out_dir.mkdir(parents=True, exist_ok=True)
    # An old checkpoint goes first and the new one last, so a failed run never
    # leaves one that looks finished beside another run's history.
    (out_dir / CHECKPOINT_NAME).unlink(missing_ok=True)
    write_history_csv(history, out_dir / HISTORY_NAME)
    save_checkpoint(ckpt, out_dir / CHECKPOINT_NAME)
    print(
        f"best devel CCC {fmt_float(ckpt.best_ccc)} at epoch {ckpt.best_epoch}; "
        f"checkpoint written to {out_dir / CHECKPOINT_NAME}"
    )
    # A finite blow-up can leave every trained epoch worse than the fresh model.
    if history and ckpt.best_epoch == 0:
        print(
            "warning: no trained epoch beat the untrained model's devel CCC, so the "
            "checkpoint holds epoch 0; largest epoch train loss "
            f"{fmt_float(max(st.train_loss for st in history))}",
            file=sys.stderr,
        )
    return 0


# ---------------------------------------------------------------------------
# evaluate / predict
# ---------------------------------------------------------------------------


def _scored_partition(
    args: argparse.Namespace, ckpt: Checkpoint, manifest: Manifest, score, out_flag: str,
    paths: list[Path]
) -> list:
    """``score``'s results on the partition, whose tracks must have the checkpoint's dims.

    ``paths`` are the files that the command will write where ``out_flag``
    points. Before any video is scored, one that is the manifest, the
    checkpoint or an input file of any manifest video, scored or not, raises
    ConfigError (``featureio.check_outputs``). ``score`` is
    ``metrics.score_partition`` or ``metrics.predict_partition``.
    """
    inputs = [(args.manifest, f"{args.command} --manifest"),
              (args.checkpoint, f"{args.command} --checkpoint")]
    writes = [(path, f"{args.command} {out_flag}") for path in paths]
    check_outputs(writes, input_readers(manifest, inputs), set())
    return score(
        ckpt.model, manifest, args.partition, ckpt.track_dims, f"checkpoint {args.checkpoint}"
    )


def cmd_evaluate(args: argparse.Namespace) -> int:
    ckpt, manifest = load_checkpoint(args.checkpoint), load_manifest(args.manifest)
    outputs = [] if args.out is None else [Path(args.out)]
    videos = _scored_partition(args, ckpt, manifest, score_partition, "--out", outputs)
    report = ccc_report(ckpt.config.target, videos)
    payload = json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    if args.out is not None:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        write_atomic(args.out, payload)
    else:
        sys.stdout.write(payload)
    print(report.summary(), file=sys.stderr)
    return 0


def _load_hashed(load, path: str, what: str):
    """``load(path, data)`` of the bytes ``data`` of the file ``path``, and their SHA-256."""
    # Imported here because hashlib loads OpenSSL, which adds about 3.5 MB to
    # every process that imports it, and only predict hashes.
    import hashlib

    data = read_input(path, what)
    return load(path, data), hashlib.sha256(data).hexdigest()


def cmd_predict(args: argparse.Namespace) -> int:
    # Each file is read once, so the index names the bytes that are scored.
    ckpt, ckpt_sha256 = _load_hashed(load_checkpoint, args.checkpoint, "checkpoint")
    manifest, manifest_sha256 = _load_hashed(load_manifest, args.manifest, "manifest")
    out_dir = Path(args.out_dir)
    target = ckpt.config.target
    names = [f"{vid}_{target}.csv" for vid in manifest.video_ids(args.partition)]
    paths = [out_dir / name for name in names]
    index = {"checkpoint_sha256": ckpt_sha256, "manifest_sha256": manifest_sha256,
             "partition": args.partition, "target": target, "files": names}
    # Every video is scored and formatted before the output directory is made.
    texts = _scored_partition(
        args, ckpt, manifest, predict_partition, "--out-dir", [*paths, out_dir / INDEX_NAME]
    )
    if not texts:
        raise EmptyDatasetError(f"partition {args.partition!r} has no videos to predict")
    out_dir.mkdir(parents=True, exist_ok=True)
    # The old index goes first and the new one last, so a failed run leaves
    # none beside a mix of two runs' prediction files.
    (out_dir / INDEX_NAME).unlink(missing_ok=True)
    for path, text in zip(paths, texts):
        write_atomic(path, text)
    write_atomic(out_dir / INDEX_NAME, json.dumps(index, indent=2, sort_keys=True) + "\n")
    print(f"wrote predictions for {len(texts)} videos to {out_dir}")
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
    partitions = [*PARTITIONS, "all"]

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
    flag_types = {"int": int, "float": float, "str": str, "list[str]": _parse_str_list}
    for f in fields(TrainConfig):
        if f.name not in UNFLAGGED_FIELDS:
            p.add_argument(f"--{f.name.replace('_', '-')}", type=flag_types[f.type],
                           help=f.metadata["help"])
    p.set_defaults(func=cmd_train)

    p = sub.add_parser(
        "evaluate", help="score a checkpoint with CCC", formatter_class=fmt
    )
    p.add_argument("--checkpoint", required=True, help="checkpoint file")
    p.add_argument("--manifest", required=True, help="dataset manifest JSON")
    p.add_argument(
        "--partition",
        default="devel",
        choices=partitions,
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
        choices=partitions,
        help="partition to predict",
    )
    p.set_defaults(func=cmd_predict)

    return parser


# The library file pattern and symbol prefix of the OpenBLAS that numpy's
# wheels bundle: scipy-openblas from numpy 2 on, numpy's own 64-bit build before.
_BUNDLED_OPENBLAS = (("libscipy_openblas64_*", "scipy_openblas_"), ("libopenblas64_*", "openblas_"))


def _openblas_thread_functions(numpy_dir: Path):
    """The thread-count getter and setter of the OpenBLAS bundled with the numpy
    package at ``numpy_dir``; None without one."""
    for pattern, prefix in _BUNDLED_OPENBLAS:
        for lib in [*numpy_dir.parent.glob(f"numpy.libs/{pattern}"),
                    *numpy_dir.glob(f".dylibs/{pattern}"), *numpy_dir.glob(f".libs/{pattern}")]:
            try:
                dll = ctypes.CDLL(str(lib))
                get = getattr(dll, f"{prefix}get_num_threads64_")
                set_ = getattr(dll, f"{prefix}set_num_threads64_")
            except (OSError, AttributeError):
                continue
            get.argtypes, get.restype = [], ctypes.c_int  # int f(void)
            set_.argtypes, set_.restype = [ctypes.c_int], None  # void f(int)
            return get, set_
    return None


@contextmanager
def _one_blas_thread():
    """Run BLAS on one thread in this process, and in the workers it forks,
    until the block ends; then give the caller's thread count back.

    OpenBLAS gives a matrix product other last bits once it splits it
    between threads, as it does at D near 900, so output bytes would depend
    on the thread count. This overrides ``OPENBLAS_NUM_THREADS``. Another
    BLAS (MKL, Accelerate, a system OpenBLAS) keeps its own count, and one
    WARNING says so.
    """
    functions = _openblas_thread_functions(Path(np.__file__).parent)
    if functions is None:
        logger.warning("numpy's BLAS is not its bundled OpenBLAS, so its thread count is not "
                       "pinned to 1 and output bytes may depend on that count")
        yield
        return
    get, set_ = functions
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def main(argv: list[str] | None = None) -> int:
    with _one_blas_thread():
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
