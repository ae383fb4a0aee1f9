"""The dataset tree: its manifest, its writers, the output guard and the loaders.

Dataset manifest JSON::

    {"frame_len_ms": 500,
     "videos": {
        "vid001": {"partition": "train",
                   "features": {"track0": "features/vid001_track0.csv"},
                   "labels": {"arousal": "labels/vid001_arousal.csv"}}}}

The optional ``frame_len_ms`` (an integer from 1 to 2**63 - 1, 250 when
absent) is the dataset's frame grid; the 250 of the CSV formats
(:mod:`seqfuse.csvfiles`) stands for it. No other top-level key is accepted.
Relative paths are resolved against the manifest's directory. Video ids,
track names and targets become parts of file names, so a name holding ``/``,
``\\`` or NUL is rejected. That is one rule of a video's entry, which
:func:`_check_entry` states once: the id, a partition of PARTITIONS, at least
one track and one target, and their names. :func:`load_manifest` applies it
to every entry it reads, and :func:`write_dataset` and :func:`align_dataset`
to every entry they would write, before they make any file of its video, so
neither writes a tree that its reader refuses or a file outside ``out_dir``.

Dataset tree, as :func:`write_dataset` lays it out for ``synth`` and
``align``::

    <out_dir>/features/<video>_<track>.csv       one frame-aligned Feature CSV
    <out_dir>/features/<video>_<track>.csv.cols  its parse cache (sidecar)
    <out_dir>/labels/<video>_<target>.csv        one Label CSV
    <out_dir>/manifest.json                      written last, relative paths

Every video of a tree must be on one frame grid, and the manifest records
it (``frame_len_ms`` is written only when it is not 250). A command that
writes a tree removes an existing ``manifest.json`` before it writes any
file, so a tree that a failed run has partly rewritten has no manifest.
The manifest does not list sidecars (see :mod:`seqfuse.sidecar`).

This module alone knows which files a video reads and writes. A video
reads its label files and its Feature CSVs, and beside each Feature CSV the
sidecar if there is one: :func:`read_feature_csv` reads the CSV once and
takes the sidecar's columns when they match its bytes (see
:mod:`seqfuse.sidecar`), and parses it otherwise. :func:`input_bytes` prices
each video for the worker pool (:mod:`seqfuse.pool`) in bytes of its files,
a Feature CSV with a sidecar at an eighth of its bytes.

Every command checks each output file with :func:`check_outputs` before it
writes it: none may be written twice, be read by a manifest video or other
input, name no file, be a directory, or lie under a regular file.
:func:`load_labeled_sequence` reads, aligns (:mod:`seqfuse.align`) and fuses
one manifest video into a LabeledSequence (:mod:`seqfuse.tracks`).
"""

from __future__ import annotations

import json
import os
import stat
from collections.abc import Iterable, Sequence
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .align import align_tokens_to_frames
from .csvfiles import (
    frame_track_to_tokens,
    parse_feature_csv,
    read_label_csv,
    write_feature_csv,
    write_label_csv,
)
from .errors import ConfigError, EmptyDatasetError, LengthMismatchError, MalformedRowError
from .pool import map_video_groups
from .sidecar import read_sidecar, sidecar_bytes, sidecar_path
from .tracks import _INT64_MAX, DEFAULT_FRAME_LEN_MS, LabeledSequence, TokenTrack, _check_frame_len
from .util import _regular_file, _stat, read_input, read_json_object, write_atomic

# Not used here: perfbench/ imports these from this module, and its tracer
# books calls to ``fuse`` under this module's name.
from .synth import synth_generate  # noqa: F401
from .tracks import TokenFeature, fuse  # noqa: F401

PARTITIONS = ("train", "devel", "test")

MANIFEST_NAME = "manifest.json"  # a dataset tree's completion marker


@dataclass
class VideoEntry:
    partition: str
    features: dict[str, str]
    labels: dict[str, str]


@dataclass
class Manifest:
    """Dataset manifest; ``root`` anchors the entries' relative paths.

    ``frame_len_ms`` is the frame grid of every label file and aligned track.
    """

    videos: dict[str, VideoEntry]
    root: Path = field(default_factory=Path)
    frame_len_ms: int = DEFAULT_FRAME_LEN_MS

    def video_ids(self, partition: str | None = None) -> list[str]:
        """Video ids in manifest order, optionally filtered by partition."""
        if partition is None or partition == "all":
            return list(self.videos)
        return [vid for vid, entry in self.videos.items() if entry.partition == partition]

    def resolve(self, relpath: str) -> Path:
        path = Path(relpath)
        return path if path.is_absolute() else self.root / path


# Characters that would let a name reach outside the directory that a file
# named after it is written to, or that no file name can hold.
_PATH_CHARS = ("/", "\\", "\0")


def check_name(name: str, what: str) -> None:
    """Raise ConfigError unless ``name`` is a nonempty string that can be part of a file name.

    Video ids, track names and targets become parts of file names in the
    dataset tree and in prediction output, so none may be empty or hold
    ``/``, ``\\`` or NUL.
    """
    if not isinstance(name, str) or not name or any(c in name for c in _PATH_CHARS):
        raise ConfigError(f"{what} must be a name without '/', '\\' or NUL, got {name!r}")


def _check_entry(where: str | Path, video_id, partition, tracks, targets) -> None:
    """Raise ConfigError unless :func:`load_manifest` takes this video's entry in ``where``.

    The video id, then the partition (one of PARTITIONS), then that
    ``tracks`` and ``targets``, the entry's track and target names, are
    both nonempty, then each name by :func:`check_name`. The manifest
    reader checks each entry it reads, and the writers each entry they
    would write, before they make any of its files.
    """
    at = f"{where}: video {video_id!r}"
    check_name(video_id, f"{at}: id")
    if partition not in PARTITIONS:
        raise ConfigError(f"{at}: partition {partition!r} not in {PARTITIONS}")
    if not tracks or not targets:
        raise ConfigError(f"{at}: needs features and labels")
    for key, names in (("track", tracks), ("target", targets)):
        for name in names:
            check_name(name, f"{at}: {key}")


def load_manifest(path: str | Path, data: bytes | None = None) -> Manifest:
    """The manifest at ``path``; ``data``, when given, is its bytes already read.

    Each entry must have the JSON shape above, then pass :func:`_check_entry`.
    """
    path = Path(path)
    raw = read_json_object(path, "manifest", data)
    if not isinstance(raw.get("videos"), dict):
        raise ConfigError(f"{path}: manifest must contain a 'videos' object")
    unknown = sorted(set(raw) - {"videos", "frame_len_ms"})
    if unknown:
        raise ConfigError(f"{path}: unknown manifest keys: {', '.join(map(repr, unknown))}")
    frame_len_ms = raw.get("frame_len_ms", DEFAULT_FRAME_LEN_MS)
    _check_frame_len(frame_len_ms, path)
    videos = {}
    for vid, entry in raw["videos"].items():
        try:
            partition = entry["partition"]
            features = entry["features"]
            labels = entry["labels"]
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"{path}: video {vid!r}: bad entry ({exc})") from exc
        for key, paths in (("features", features), ("labels", labels)):
            if not isinstance(paths, dict) or not all(isinstance(p, str) for p in paths.values()):
                raise ConfigError(f"{path}: video {vid!r}: {key!r} must map names to path strings")
        _check_entry(path, vid, partition, features, labels)
        videos[vid] = VideoEntry(partition, features, labels)
    if not videos:
        raise ConfigError(f"{path}: manifest lists no videos")
    return Manifest(videos, path.parent, frame_len_ms)


def save_manifest(manifest: Manifest, path: str | Path) -> None:
    payload = {"videos": {vid: asdict(entry) for vid, entry in manifest.videos.items()}}
    if manifest.frame_len_ms != DEFAULT_FRAME_LEN_MS:
        payload["frame_len_ms"] = manifest.frame_len_ms
    write_atomic(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _start_tree(out_dir: Path) -> None:
    """Make a tree's directories and remove its old ``manifest.json``, before any file is made."""
    (out_dir / "features").mkdir(parents=True, exist_ok=True)
    (out_dir / "labels").mkdir(parents=True, exist_ok=True)
    (out_dir / MANIFEST_NAME).unlink(missing_ok=True)


def _video_files(
    video_id: str, targets: Iterable[str], tracks: Iterable[str]
) -> tuple[dict[str, str], dict[str, str]]:
    """Relative paths of one video's label and feature files in a dataset tree."""
    return (
        {target: f"labels/{video_id}_{target}.csv" for target in targets},
        {track: f"features/{video_id}_{track}.csv" for track in tracks},
    )


def _tree_files(video_id: str, targets: Iterable[str], tracks: Iterable[str]) -> list[str]:
    """Relative paths of every file one video writes in a dataset tree, in the order written."""
    labels, features = _video_files(video_id, targets, tracks)
    files = list(labels.values())
    for csv in features.values():
        files += [csv, str(sidecar_path(csv))]
    return files


def _write_video(
    partition: str, seq: LabeledSequence, frame_len_ms: int, out_dir: Path
) -> VideoEntry:
    """Write one sequence's label files, then its tracks, under ``out_dir``; returns its entry.

    Labels are copied byte for byte from ``label_bytes`` where the sequence
    kept them and formatted on ``frame_len_ms`` otherwise; tracks are written
    as frame-aligned Feature CSVs, to the file names of :func:`_video_files`,
    each followed by its sidecar.
    A grid that :func:`load_manifest` would reject raises ConfigError, a
    sequence on another grid than ``frame_len_ms`` LengthMismatchError, and
    a last frame that ends past the int64 range, which no Feature CSV can
    hold, MalformedRowError, before any file is written.
    """
    _check_frame_len(seq.frame_len_ms, seq.video_id)
    if seq.frame_len_ms != frame_len_ms:
        raise LengthMismatchError(
            f"{seq.video_id}: on frame_len_ms {seq.frame_len_ms}, the dataset on {frame_len_ms}"
        )
    if seq.n_frames * frame_len_ms > _INT64_MAX:
        raise MalformedRowError(f"{seq.video_id}: frame {seq.n_frames - 1} ends past int64")
    labels, features = _video_files(seq.video_id, seq.labels, [tr.name for tr in seq.tracks])
    for target, values in seq.labels.items():
        path = out_dir / labels[target]
        if target in seq.label_bytes:
            write_atomic(path, seq.label_bytes[target])
        else:
            write_label_csv(path, values, frame_len_ms)
    for track in seq.tracks:
        tokens = frame_track_to_tokens(track, frame_len_ms)
        path = out_dir / features[track.name]
        csv = write_feature_csv(path, tokens)
        cache = sidecar_bytes(tokens.start_ms, tokens.end_ms, tokens.vectors, csv)
        write_atomic(sidecar_path(path), cache)
    return VideoEntry(partition, features, labels)


def write_dataset(out_dir: str | Path, videos: Iterable[tuple[str, LabeledSequence]]) -> int:
    """Write ``(partition, sequence)`` pairs as a dataset tree; returns the video count.

    Each sequence is written as it is drawn from ``videos``: its label files,
    then its tracks, all on the first sequence's ``frame_len_ms``. Before any
    of a sequence's file names is formed, an entry that :func:`load_manifest`
    would refuse (see :func:`_check_entry`: the id, the partition, no labels,
    a track or target name) raises ConfigError with its message for
    ``out_dir/manifest.json``. Before any of its files is written, a file
    name that an earlier sequence wrote or a grid that :func:`load_manifest`
    rejects raises ConfigError, and a sequence on another grid
    LengthMismatchError. ``manifest.json``,
    which records the grid, is written last, and an existing one is removed
    first, so a failure leaves none; no videos at all raise
    EmptyDatasetError, since a manifest must list one. Before any directory
    is made, :func:`check_outputs` refuses ``manifest.json`` as an output,
    so an ``out_dir`` under a regular file raises ConfigError.
    """
    out_dir = Path(out_dir)
    manifest_path = out_dir / MANIFEST_NAME
    claimed, entries, frame_len_ms = set(), {}, None
    check_outputs([(manifest_path, "the dataset tree")], {}, claimed)
    _start_tree(out_dir)
    for partition, seq in videos:
        tracks = [tr.name for tr in seq.tracks]
        _check_entry(manifest_path, seq.video_id, partition, tracks, seq.labels)
        frame_len_ms = frame_len_ms or seq.frame_len_ms
        relpaths = _tree_files(seq.video_id, seq.labels, tracks)
        check_outputs([(out_dir / p, f"video {seq.video_id!r}") for p in relpaths], {}, claimed)
        entries[seq.video_id] = _write_video(partition, seq, frame_len_ms, out_dir)
    if not entries:
        raise EmptyDatasetError(f"{out_dir}: no videos to write")
    save_manifest(Manifest(entries, out_dir, frame_len_ms), manifest_path)
    return len(entries)


def _align_group(video_ids: list[str], manifest: Manifest, out_dir: Path) -> list[VideoEntry]:
    return [
        _write_video(
            manifest.videos[vid].partition,
            load_labeled_sequence(manifest, vid, list(manifest.videos[vid].features)),
            manifest.frame_len_ms,
            out_dir,
        )
        for vid in video_ids
    ]


def _file_keys(path: str | Path) -> list:
    """The keys by which :func:`check_outputs` compares ``path`` with other files.

    They are its absolute, normalised path, then the ``(st_dev, st_ino)`` of
    the regular file there, if there is one.
    """
    path = os.path.abspath(path)
    info = _regular_file(path)
    return [path] if info is None else [path, (info.st_dev, info.st_ino)]


def _video_inputs(manifest: Manifest, video_id: str) -> tuple[list[Path], list[Path]]:
    """The label files and the Feature CSVs that one manifest video reads, resolved."""
    entry = manifest.videos[video_id]
    return ([manifest.resolve(p) for p in entry.labels.values()],
            [manifest.resolve(p) for p in entry.features.values()])


# One parsed byte of a Feature CSV costs about as much as this many read
# through its sidecar. On ingest-wide's 13.8 MB of aligned train and devel
# input, a serial load took 0.024-0.028 s (500-575 MB/s, most of it the CRC
# of the CSV's bytes) against 0.175-0.19 s parsed (73-79 MB/s), a ratio of
# 6.5-7.9. So input_bytes counts such a file at an eighth of its bytes,
# except for ``align``, which formats every track again at about 30 MB/s
# whether it parsed it or not. Then ingest-wide's aligned test partition
# counts 0.6 MiB and stays in-process (below pool.POOL_MIN_INPUT_BYTES), as
# measured in-process: evaluate and predict each 0.015-0.027 s against
# 0.025-0.041 s pooled. Its 22 MiB of token-rate input still aligns in the
# pool. The count does not see the model's per-frame cost: infer-long's test
# partition, 6.0 MiB without sidecars, still goes to the pool, but the same
# 22k frames at D = 10 with sidecars count 1.8 MiB and score serially, in
# 0.25-0.39 s against 0.24-0.30 s pooled.
_PARSED_PER_CACHED_BYTE = 8


def input_bytes(manifest: Manifest, video_ids: Iterable[str], rewrites: bool = False) -> list[int]:
    """Each listed video's input, in bytes of feature and label files to parse.

    A Feature CSV with a sidecar beside it counts an eighth of its bytes,
    its read cost, unless ``rewrites``: a caller that formats every track
    again, as ``align`` does, pays for each byte whether it is parsed or not.
    Never raises: a path that is missing, not a regular file or that the OS
    cannot take counts 0, and the reader reports it when the video is loaded.
    """
    sizes = []
    for vid in video_ids:
        labels, features = _video_inputs(manifest, vid)
        total = sum(getattr(_regular_file(path), "st_size", 0) for path in labels)
        for path in features:
            size = getattr(_regular_file(path), "st_size", 0)
            if not rewrites and size and _regular_file(sidecar_path(path)) is not None:
                size //= _PARSED_PER_CACHED_BYTE
            total += size
        sizes.append(total)
    return sizes


def input_readers(manifest: Manifest, others: Iterable[tuple[str | Path, str]] = ()) -> dict:
    """What reads each input file, as :func:`check_outputs` takes it.

    Each key of :func:`_file_keys` maps to the names of its readers: first
    the reader of each ``(path, reader)`` of ``others``, such as a command's
    manifest, then ``video 'v'`` for each manifest video, in manifest order,
    that reads the file as a label file, a Feature CSV or a Feature CSV's
    sidecar. Every video is listed, whichever ones a command reads, so a
    command that scores one partition cannot replace an input of another.
    """
    files = list(others)
    for vid in manifest.videos:
        labels, features = _video_inputs(manifest, vid)
        paths = (*labels, *features, *map(sidecar_path, features))
        files += [(path, f"video {vid!r}") for path in paths]
    readers: dict = {}
    for path, reader in files:
        for key in _file_keys(path):
            readers.setdefault(key, []).append(reader)
    return readers


def check_outputs(outputs: Iterable[tuple[Path, str]], readers: dict, claimed: set) -> None:
    """Raise ConfigError at the first output path that cannot be made, or is written twice or read.

    ``outputs`` yields ``(path, writer)`` pairs in the order written, where
    ``writer`` names what would write ``path``. For each in turn, a path
    without a file name (``""``, ``.``, ``/``, ``..``) raises ConfigError,
    and so does one where a directory, or anything else that is not a
    regular file, exists, and one whose nearest existing parent is not a
    directory (a regular file, say). Then the path is claimed: one that
    ``claimed`` already holds raises ConfigError, since names are joined
    with "_" and two dataset entries can map to one file name; ``claimed``
    takes each path. Then a file that ``readers`` (see
    :func:`input_readers`) lists under another reader than ``writer``
    raises ConfigError naming the first such reader. A writer may replace
    what it reads itself: ``align`` writes a video's files only once that
    video has read all of its inputs, so a tree can be aligned in place.
    Files are compared by :func:`_file_keys`, so an output that a symlink
    (of a file or of a directory above it) or a hard link makes the same
    file as an input is refused too.
    """
    for path, writer in outputs:
        if Path(path).name in ("", ".."):
            raise ConfigError(f"{str(path)!r}: {writer} needs a path that names a file")
        keys = _file_keys(path)  # the path alone unless a regular file is there
        if len(keys) == 1 and _stat(path) is not None:
            raise ConfigError(f"{path}: {writer} would write this file, which is a directory "
                              "or something else that is not a regular file")
        above = Path(path).parent
        while (info := _stat(above)) is None and above != above.parent:
            above = above.parent
        if info is not None and not stat.S_ISDIR(info.st_mode):
            raise ConfigError(f"{path}: {writer} would write this file under {above}, "
                              "which is not a directory")
        if keys[0] in claimed:
            raise ConfigError(f"{path}: two dataset entries map to this file")
        claimed.add(keys[0])
        other = next((r for key in keys for r in readers.get(key, ()) if r != writer), None)
        if other is not None:
            raise ConfigError(f"{path}: {writer} would write this file, which {other} reads")


def align_dataset(manifest: Manifest, out_dir: str | Path) -> int:
    """Align every manifest video onto its frame grid and write the tree; returns the count.

    Every entry and output file is checked first, in manifest order, before
    any directory or file is made. An entry that :func:`load_manifest` would
    refuse in ``out_dir/manifest.json`` (see :func:`_check_entry`) raises
    its ConfigError. Then one :func:`check_outputs` walk over every video's
    files and then ``manifest.json`` raises ConfigError for a name that two
    videos map to, as :func:`write_dataset` would, and for an output file of
    one video that is an input file of another.
    Each video's features and labels are then loaded with
    :func:`load_labeled_sequence` in manifest track order and written as by
    :func:`write_dataset`, with the same bytes and errors, through
    :func:`map_video_groups`, whose workers on a large input each align and
    write one group of videos and return only their manifest entries. A
    failed pooled run is made again in this process, which writes the same
    bytes again. An existing ``manifest.json`` is removed before the first
    file is written, and the new one is written last, so a failure leaves none.
    """
    out_dir = Path(out_dir)
    manifest_path, outputs = out_dir / MANIFEST_NAME, []
    for vid, entry in manifest.videos.items():
        _check_entry(manifest_path, vid, entry.partition, entry.features, entry.labels)
        relpaths = _tree_files(vid, entry.labels, entry.features)
        outputs += [(out_dir / relpath, f"video {vid!r}") for relpath in relpaths]
    outputs.append((manifest_path, "the dataset tree"))
    check_outputs(outputs, input_readers(manifest), set())
    _start_tree(out_dir)
    ids = list(manifest.videos)
    sizes = input_bytes(manifest, ids, rewrites=True)
    aligned = map_video_groups(ids, sizes, _align_group, manifest, out_dir)
    entries = dict(zip(manifest.videos, aligned))
    save_manifest(Manifest(entries, out_dir, manifest.frame_len_ms), manifest_path)
    return len(entries)


def read_feature_csv(path: Path, name: str) -> TokenTrack:
    """A dataset tree's Feature CSV as the TokenTrack ``name``, its file read once.

    When the sidecar beside it matches the bytes read (see
    :func:`seqfuse.sidecar.read_sidecar`), its columns stand in for the
    parse; otherwise those bytes are parsed, with the same columns, or with
    the errors of ``csvfiles.parse_feature_csv``.
    """
    data = read_input(path, "feature file")
    cached = read_sidecar(path, data)
    if cached is None:
        return parse_feature_csv(path, name, data)
    start_ms, end_ms, vectors = cached
    return TokenTrack._from_columns(name, vectors.shape[1], start_ms, end_ms, vectors)


def load_labeled_sequence(
    manifest: Manifest, video_id: str, track_order: list[str]
) -> LabeledSequence:
    """Parse, align and assemble one manifest video on the manifest's frame grid.

    Its tracks are fused in ``track_order``, the caller's choice of the
    video's manifest tracks (ConfigError names one it lacks). The number of
    frames comes from the first label file (features beyond the labelled
    horizon are dropped); LabeledSequence refuses a label file of another
    length with LengthMismatchError, naming the video and the target.
    """
    entry = manifest.videos[video_id]
    labels, label_bytes = {}, {}
    for target, relpath in entry.labels.items():
        path = manifest.resolve(relpath)
        label_bytes[target] = read_input(path, "label file")
        labels[target] = read_label_csv(path, manifest.frame_len_ms, label_bytes[target])
    t = len(next(iter(labels.values())))
    tracks = []
    for track_name in track_order:
        if track_name not in entry.features:
            raise ConfigError(f"{video_id}: manifest has no track {track_name!r}")
        token_track = read_feature_csv(manifest.resolve(entry.features[track_name]), track_name)
        tracks.append(align_tokens_to_frames(token_track, manifest.frame_len_ms, t))
    return LabeledSequence(video_id, tracks, labels, label_bytes, manifest.frame_len_ms)


def load_fused_datasets(
    manifest: Manifest, partitions: Sequence[str], track_order: list[str]
) -> list[list[LabeledSequence]]:
    """The sequences of each partition, in manifest video order, all loaded in one pass.

    Every video is loaded in this process with :func:`load_labeled_sequence`
    and the tracks of ``track_order``, in partition and manifest order, so
    the first load error in that order is raised. No track dims are compared
    here: ``training.train`` checks every train and devel video against the
    first train video, and a caller with another reference checks with
    :func:`check_same_tracks`.
    """
    return [
        [load_labeled_sequence(manifest, vid, track_order) for vid in manifest.video_ids(p)]
        for p in partitions
    ]
