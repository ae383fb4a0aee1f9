"""Seeded input generator for the three benchmark workloads.

Every workload is written into its own directory through seqfuse's public
writers and described by a :class:`Workload`: the CLI stages to run, the
files they produce, and what the output checks need to know about the
inputs.  The seed changes every generated value; the sizes (videos, frames
per video, feature widths, token rates) are fixed by the workload
definition, so timings from different seeds measure the same amount of work.

Why each workload exists:

* ``train-small`` is the acceptance scale; the per-step ``nn`` loops of the
  training step dominate it.
* ``ingest-wide`` has token-rate tracks at D = 900; parsing, aligning and
  writing feature text in ``featureio`` dominate it.
* ``infer-long`` runs eval-mode forward over long unchunked sequences of
  widely varying length, with no backward pass and no Adam.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from seqfuse import cli
from seqfuse.featureio import (
    DEFAULT_FRAME_LEN_MS,
    Manifest,
    TokenFeature,
    TokenTrack,
    VideoEntry,
    save_manifest,
    synth_generate,
    write_feature_csv,
    write_label_csv,
)

FRAME_MS = DEFAULT_FRAME_LEN_MS
TARGET = "arousal"
SNR = 100.0

# Frames per video of `synth --seed 3 --t-range 60:100` (637 train and 179
# devel frames); fixed here so that every seed yields the same sizes.
SMALL_LENGTHS = (98, 60, 98, 79, 78, 76, 76, 72, 89, 90)
SMALL_SPLIT = (8, 2, 0)
SMALL_DIMS = (4, 6)
SMALL_EPOCHS = 15

WIDE_LENGTHS = (262, 214, 295, 243, 281, 227, 300, 263)
WIDE_SPLIT = (5, 1, 2)
WIDE_TRACKS = (("text", 768), ("audio", 88), ("video", 44))
WIDE_EPOCHS = 2
# Token-rate layout: text words of 120-700 ms with gaps and duplicated
# subword spans, 60 ms audio windows every 40 ms, video at 30 fps. Tokens
# run this far past the label horizon, where alignment must drop them.
WIDE_OVERRUN_MS = 3000

# Five videos (22k frames) keep one evaluate or predict call under about
# 2 s, so a run holds enough repeats to find the host's quiet moments.
LONG_LENGTHS = (8000, 1000, 5800, 2600, 4600)
LONG_CKPT_EPOCHS = 15

MODEL = {
    "target": TARGET,
    "embed_dim": 16,
    "hidden_units": 32,
    "head_hidden": 16,
    "dropout_rate": 0.5,
    "max_time_step": 100,
    "learning_rate": 0.005,
}

NAMES = ("train-small", "ingest-wide", "infer-long")


@dataclass
class Workload:
    """Generated inputs of one workload and the stages that consume them."""

    name: str
    root: Path
    stages: list[tuple[str, list[str]]]
    # Stage outputs: removed before every iteration, hashed after it.
    outputs: list[Path]
    partition: str
    # Video id -> labelled frame count, for every video of the dataset.
    frames: dict[str, int]
    partitions: dict[str, str]
    train_frames: int
    epochs: int
    # (video id, track) -> (start_ms, end_ms, vectors) exactly as written.
    tokens: dict[tuple[str, str], tuple[np.ndarray, np.ndarray, np.ndarray]]
    frame_aligned: bool
    aligned_dir: Path | None
    sizes: dict = field(default_factory=dict)

    @property
    def scored_frames(self) -> int:
        return sum(
            n for vid, n in self.frames.items() if self.partitions[vid] == self.partition
        )


def _partition(idx: int, split: tuple[int, int, int]) -> str:
    if idx < split[0]:
        return "train"
    return "devel" if idx < split[0] + split[1] else "test"


def _write_dataset(
    out_dir: Path,
    videos: list[tuple[str, str, dict[str, np.ndarray], list[TokenTrack]]],
) -> None:
    """Write (video id, partition, labels, token tracks) as a manifest dataset."""
    (out_dir / "features").mkdir(parents=True)
    (out_dir / "labels").mkdir(parents=True)
    entries = {}
    for vid, partition, labels, tracks in videos:
        features = {}
        for track in tracks:
            rel = f"features/{vid}_{track.name}.csv"
            write_feature_csv(out_dir / rel, track)
            features[track.name] = rel
        label_paths = {}
        for target, values in labels.items():
            rel = f"labels/{vid}_{target}.csv"
            write_label_csv(out_dir / rel, values)
            label_paths[target] = rel
        entries[vid] = VideoEntry(partition, features, label_paths)
    save_manifest(Manifest(entries, root=out_dir), out_dir / "manifest.json")


def _synth_videos(seed: int, lengths, dims) -> list:
    """`synth_generate` videos truncated to fixed lengths.

    All videos are drawn at the longest length, then cut, so the frame
    counts do not depend on the seed.
    """
    t = max(lengths)
    videos = synth_generate(seed, len(lengths), (t, t), list(dims), SNR)
    for video, n in zip(videos, lengths):
        for track in video.tracks:
            track.frames = track.frames[:n]
        video.labels = {k: v[:n] for k, v in video.labels.items()}
    return videos


def _frame_tokens(track) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    starts = np.arange(track.n_frames, dtype=np.int64) * FRAME_MS
    return starts, starts + FRAME_MS, track.frames


def _token_track(name: str, starts, ends, vectors) -> TokenTrack:
    tokens = [
        TokenFeature(int(s), int(e), v) for s, e, v in zip(starts, ends, vectors)
    ]
    return TokenTrack(name, vectors.shape[1], tokens)


def _write_synth(out_dir: Path, videos, split, tokens: dict) -> None:
    rows = []
    for idx, video in enumerate(videos):
        tracks = []
        for track in video.tracks:
            spans = _frame_tokens(track)
            tokens[(video.video_id, track.name)] = spans
            tracks.append(_token_track(track.name, *spans))
        rows.append((video.video_id, _partition(idx, split), video.labels, tracks))
    _write_dataset(out_dir, rows)


def _train_config(path: Path, manifest: Path, out_dir: Path, seed: int, epochs: int, tracks):
    config = dict(MODEL, seed=seed, epochs=epochs, patience=epochs)
    config.update(manifest=str(manifest), out_dir=str(out_dir), track_order=list(tracks))
    path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _score_stages(ckpt: Path, manifest: Path, partition: str, report: Path, preds: Path):
    return [
        (
            "evaluate",
            ["evaluate", "--checkpoint", str(ckpt), "--manifest", str(manifest),
             "--partition", partition, "--out", str(report)],
        ),
        (
            "predict",
            ["predict", "--checkpoint", str(ckpt), "--manifest", str(manifest),
             "--partition", partition, "--out-dir", str(preds)],
        ),
    ]


def _full_pipeline(root: Path, seed: int, epochs: int, tracks, partition: str):
    """align -> train -> evaluate -> predict over ``root/raw``."""
    raw, aligned, run = root / "raw", root / "aligned", root / "run"
    _train_config(root / "run.json", aligned / "manifest.json", run, seed, epochs, tracks)
    stages = [
        ("align", ["align", "--manifest", str(raw / "manifest.json"), "--out-dir", str(aligned)]),
        ("train", ["train", "--config", str(root / "run.json")]),
    ]
    stages += _score_stages(
        run / "checkpoint.sqf", aligned / "manifest.json", partition,
        run / "report.json", run / "preds",
    )
    return stages, [aligned, run]


def _wide_spans(rng: np.random.Generator, kind: str, end_ms: int):
    """Token spans of one token-rate track, covering [0, end_ms)."""
    if kind == "audio":
        starts = np.arange(0, end_ms, 40, dtype=np.int64)
        return starts, starts + 60
    if kind == "video":
        k = np.arange(int(end_ms * 30 / 1000) + 1, dtype=np.int64)
        starts, ends = (k * 1000) // 30, ((k + 1) * 1000) // 30
        return starts, ends
    starts, ends = [], []
    t = int(rng.integers(0, 400))
    while t < end_ms:
        length = int(rng.integers(120, 701))
        # A word split into subwords repeats its span once per piece.
        pieces = 1 + int(rng.random() < 0.15) + int(rng.random() < 0.05)
        starts += [t] * pieces
        ends += [t + length] * pieces
        t += length
        if rng.random() < 0.3:
            t += int(rng.integers(100, 1500))
    return np.array(starts, dtype=np.int64), np.array(ends, dtype=np.int64)


def _build_train_small(root: Path, seed: int) -> Workload:
    videos = _synth_videos(seed, SMALL_LENGTHS, SMALL_DIMS)
    tokens: dict = {}
    _write_synth(root / "raw", videos, SMALL_SPLIT, tokens)
    tracks = [t.name for t in videos[0].tracks]
    stages, outputs = _full_pipeline(root, seed, SMALL_EPOCHS, tracks, "devel")
    return Workload(
        "train-small", root, stages, outputs, "devel",
        frames={v.video_id: v.n_frames for v in videos},
        partitions={v.video_id: _partition(i, SMALL_SPLIT) for i, v in enumerate(videos)},
        train_frames=sum(SMALL_LENGTHS[: SMALL_SPLIT[0]]),
        epochs=SMALL_EPOCHS, tokens=tokens, frame_aligned=True,
        aligned_dir=root / "aligned",
    )


def _build_ingest_wide(root: Path, seed: int) -> Workload:
    # synth_generate supplies label curves and label-driven frame signals;
    # each token carries the signal of the frame holding its midpoint.
    videos = _synth_videos(seed, WIDE_LENGTHS, [d for _, d in WIDE_TRACKS])
    rng = np.random.default_rng([seed & 0xFFFFFFFF, 7])
    tokens: dict = {}
    rows = []
    for idx, video in enumerate(videos):
        horizon_ms = video.n_frames * FRAME_MS
        tracks = []
        for (name, dim), synth_track in zip(WIDE_TRACKS, video.tracks):
            starts, ends = _wide_spans(rng, name, horizon_ms + WIDE_OVERRUN_MS)
            mid = np.minimum((starts + ends) // 2 // FRAME_MS, video.n_frames - 1)
            noise = rng.normal(scale=0.01, size=(len(starts), dim))
            vectors = np.round(synth_track.frames[mid] + noise, 5)
            tokens[(video.video_id, name)] = (starts, ends, vectors)
            tracks.append(_token_track(name, starts, ends, vectors))
        rows.append((video.video_id, _partition(idx, WIDE_SPLIT), video.labels, tracks))
    _write_dataset(root / "raw", rows)
    stages, outputs = _full_pipeline(
        root, seed, WIDE_EPOCHS, [n for n, _ in WIDE_TRACKS], "test"
    )
    return Workload(
        "ingest-wide", root, stages, outputs, "test",
        frames={v.video_id: v.n_frames for v in videos},
        partitions={v.video_id: _partition(i, WIDE_SPLIT) for i, v in enumerate(videos)},
        train_frames=sum(WIDE_LENGTHS[: WIDE_SPLIT[0]]),
        epochs=WIDE_EPOCHS, tokens=tokens, frame_aligned=False,
        aligned_dir=root / "aligned",
    )


def _build_infer_long(root: Path, seed: int) -> Workload:
    # Two synth_generate calls with one seed share their track mixers, so a
    # checkpoint trained on the short set scores the long set meaningfully.
    ckpt_dir = root / "ckpt"
    short = _synth_videos(seed, SMALL_LENGTHS, SMALL_DIMS)
    _write_synth(ckpt_dir / "data", short, SMALL_SPLIT, {})
    tracks = [t.name for t in short[0].tracks]
    _train_config(
        ckpt_dir / "run.json", ckpt_dir / "data" / "manifest.json", ckpt_dir,
        seed, LONG_CKPT_EPOCHS, tracks,
    )
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["train", "--config", str(ckpt_dir / "run.json")])
    if code != 0:
        raise RuntimeError("set-up: training the infer-long checkpoint failed")

    videos = _synth_videos(seed, LONG_LENGTHS, SMALL_DIMS)
    split = (0, 0, len(videos))
    tokens: dict = {}
    _write_synth(root / "raw", videos, split, tokens)
    run = root / "run"
    stages = _score_stages(
        ckpt_dir / "checkpoint.sqf", root / "raw" / "manifest.json", "test",
        run / "report.json", run / "preds",
    )
    return Workload(
        "infer-long", root, stages, [run], "test",
        frames={v.video_id: v.n_frames for v in videos},
        partitions={v.video_id: "test" for v in videos},
        train_frames=0, epochs=0, tokens=tokens, frame_aligned=True,
        aligned_dir=None,
    )


_BUILDERS = {
    "train-small": _build_train_small,
    "ingest-wide": _build_ingest_wide,
    "infer-long": _build_infer_long,
}


def build(name: str, seed: int, root: Path) -> Workload:
    """Generate workload ``name`` from ``seed`` into the empty directory ``root``."""
    if root.exists():
        shutil.rmtree(root)
    root.mkdir(parents=True)
    workload = _BUILDERS[name](root, seed)
    inputs = sorted(p for p in root.rglob("*") if p.is_file())
    first = next(iter(workload.frames))
    workload.sizes = {
        "videos": len(workload.frames),
        "frames": sum(workload.frames.values()),
        "tokens": int(sum(len(s) for s, _, _ in workload.tokens.values())),
        "D": sum(v.shape[1] for (vid, _), (_, _, v) in workload.tokens.items() if vid == first),
        "input_files": len(inputs),
        "input_bytes": sum(p.stat().st_size for p in inputs),
    }
    return workload
