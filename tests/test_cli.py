import concurrent.futures
import hashlib
import json
import multiprocessing
import os
import re
import shutil
import struct
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import fail_writes_halfway, zero_model
from seqfuse import (
    Checkpoint,
    TrainConfig,
    evaluate,
    load_checkpoint,
    load_manifest,
    save_checkpoint,
    synth_generate,
    train,
    write_dataset,
)
from seqfuse import cli as cli_module
from seqfuse import csvfiles, featureio, metrics, pool
from seqfuse.cli import main as cli_main
from seqfuse.featureio import load_fused_datasets
from seqfuse.nn import init_model, param_layout
from seqfuse.training import write_history_csv


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def write_train_config(path, manifest, out_dir, **overrides):
    cfg = dict(
        manifest=str(manifest),
        out_dir=str(out_dir),
        target="arousal",
        embed_dim=4,
        hidden_units=5,
        head_hidden=3,
        epochs=2,
        seed=11,
        track_order=["track0", "track1"],
    )
    cfg.update(overrides)
    cfg = {k: v for k, v in cfg.items() if v is not None}
    path.write_text(json.dumps(cfg))
    return path


# What check_outputs says of an output path where a directory exists.
DIRECTORY = "which is a directory or something else that is not a regular file"


def under_a_file(output, writer, blocker) -> str:
    """What the CLI prints for an output under the regular file ``blocker``."""
    return (f"error: {output}: {writer} would write this file under {blocker}, "
            "which is not a directory\n")


@pytest.fixture
def blocker(tmp_path) -> Path:
    """A regular file where an output directory would go."""
    path = tmp_path / "runfile"
    path.write_text("a file, not a directory\n")
    return path


def paths_and_bytes(root: Path):
    """Every path under ``root``, directories too, and the bytes of every file."""
    return sorted(root.rglob("*")), tree_bytes(root)


@pytest.fixture
def no_video_loads(monkeypatch):
    """Make loading any manifest video fail the test."""

    def never(*args, **kwargs):
        raise AssertionError("a video was loaded")

    monkeypatch.setattr(featureio, "load_labeled_sequence", never)
    monkeypatch.setattr(metrics, "load_labeled_sequence", never)


def fail_history_write(monkeypatch):
    """Make train's history write fail as a full disk would, naming the file."""

    def failing(history, path):
        raise OSError(28, "No space left on device", str(path))

    monkeypatch.setattr(cli_module, "write_history_csv", failing)


@pytest.fixture
def synth_dir(tmp_path, run_cli):
    out = tmp_path / "raw"
    code, _, err = run_cli(
        "synth", "--out-dir", out, "--seed", 5, "--n-train", 2, "--n-devel", 1,
        "--dims", "2,3", "--t-range", "8:14",
    )
    assert code == 0, err
    return out


@pytest.fixture
def trained_checkpoint(synth_dir, tmp_path, run_cli) -> bytes:
    """The bytes of the checkpoint that ``train`` writes for ``synth_dir``."""
    run_dir = tmp_path / "run"
    cfg = write_train_config(tmp_path / "cfg.json", synth_dir / "manifest.json", run_dir)
    assert run_cli("train", "--config", cfg)[0] == 0
    return (run_dir / "checkpoint.sqf").read_bytes()


class TestSynth:
    def test_deterministic_directory_trees(self, tmp_path, run_cli):
        args = ["synth", "--seed", 7, "--n-train", 2, "--n-devel", 1, "--dims", "2,3",
                "--t-range", "6:10"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(*args, "--out-dir", a)[0] == 0
        assert run_cli(*args, "--out-dir", b)[0] == 0
        assert tree_bytes(a) == tree_bytes(b)

    def test_zero_videos_rejected(self, tmp_path, run_cli):
        code, _, err = run_cli(
            "synth", "--out-dir", tmp_path / "x", "--seed", 1,
            "--n-train", 0, "--n-devel", 0, "--n-test", 0,
        )
        assert code == 2
        assert "no videos" in err

    @pytest.mark.parametrize("argv,message", [
        (["--snr", "nan"], "error: snr must be positive, got nan\n"),
        # Positive, but the noise it scales overflows.
        (["--snr", "1e-320"],
         "error: snr 1e-320 is too small: the noise it scales is not finite\n"),
        (["--t-range", "2:100000000000000000000"],
         "error: t_range (2, 100000000000000000000) puts frame_ms past the int64 range\n"),
        (["--n-train", 1, "--n-devel", 0, "--dims", "2",
          "--t-range", "10000000000000000:10000000000000000"],
         "error: t_range (10000000000000000, 10000000000000000): a video of "
         "10000000000000000 frames does not fit in memory\n"),
        # 142 PiB of mixer, past any address space; then past numpy's index range.
        (["--dims", "2,10000000000000000"],
         "error: dims [2, 10000000000000000]: the tracks do not fit in memory\n"),
        (["--dims", "100000000000000000000"],
         "error: dims [100000000000000000000]: the tracks do not fit in memory\n"),
        # The smallest refused count; a huge one once got the process killed
        # while its list of partitions was built.
        (["--n-train", 100_001, "--n-devel", 0],
         "error: n-train + n-devel + n-test = 100001 videos, more than the 100000 that "
         "synth makes\n"),
    ], ids=["snr-nan", "snr-noise-past-float-range", "t-range-past-int64",
            "t-range-past-memory", "dims-past-memory", "dims-past-index-range",
            "video-count-past-bound"])
    def test_bad_value_exit_2_naming_it(self, tmp_path, run_cli, argv, message):
        out = tmp_path / "x"
        code, _, err = run_cli("synth", "--out-dir", out, "--seed", 1, *argv)
        assert (code, err) == (2, message)
        assert not out.exists()

    def test_out_dir_under_a_regular_file_exit_2_writing_nothing(self, tmp_path, run_cli,
                                                                  blocker):
        # It once exited 3 when making the tree's directories met the file.
        out = blocker / "s"
        before = paths_and_bytes(tmp_path)
        code, stdout, err = run_cli("synth", "--out-dir", out, "--seed", 1)
        assert (code, stdout, err) == (
            2, "", under_a_file(out / "manifest.json", "the dataset tree", blocker))
        assert paths_and_bytes(tmp_path) == before

    def test_manifest_partitions(self, synth_dir):
        manifest = json.loads((synth_dir / "manifest.json").read_text())
        partitions = [v["partition"] for v in manifest["videos"].values()]
        assert partitions.count("train") == 2
        assert partitions.count("devel") == 1

    def test_missing_seed_rejected(self, tmp_path, run_cli, monkeypatch):
        monkeypatch.delenv("SEQFUSE_SEED", raising=False)
        code, _, err = run_cli("synth", "--out-dir", tmp_path / "x")
        assert code == 2
        assert "seed" in err

    def test_env_seed_fallback(self, tmp_path, run_cli, monkeypatch):
        monkeypatch.setenv("SEQFUSE_SEED", "5")
        a = tmp_path / "a"
        code, _, _ = run_cli("synth", "--out-dir", a, "--n-train", 1, "--n-devel", 1,
                             "--dims", "2", "--t-range", "6:8")
        assert code == 0
        b = tmp_path / "b"
        monkeypatch.delenv("SEQFUSE_SEED")
        code, _, _ = run_cli("synth", "--out-dir", b, "--seed", 5, "--n-train", 1,
                             "--n-devel", 1, "--dims", "2", "--t-range", "6:8")
        assert code == 0
        assert tree_bytes(a) == tree_bytes(b)

    def test_golden_bytes(self, tmp_path, run_cli):
        out = tmp_path / "raw"
        code, _, err = run_cli(
            "synth", "--out-dir", out, "--seed", 3, "--n-train", 2, "--n-devel", 1,
            "--n-test", 1, "--dims", "2,3", "--t-range", "5:9",
        )
        assert code == 0, err
        digests = {name: hashlib.sha256(b).hexdigest() for name, b in tree_bytes(out).items()}
        assert digests == GOLDEN_SYNTH_SHA256


# SHA-256 of every file ``synth --seed 3 --n-train 2 --n-devel 1 --n-test 1
# --dims 2,3 --t-range 5:9`` writes.
GOLDEN_SYNTH_SHA256 = {
    "features/video000_track0.csv": "107c92236bc59c32d6c52e330bb708b3cdc495aaf8a844b1925f4a929ccc3868",
    "features/video000_track1.csv": "1ca566acb12fe2e1df1d79c27dfc5336d3303837e61521ac28c8353c972918d7",
    "features/video001_track0.csv": "46177ec997ecad052a272992cf18d251048caa7193d865d2f3c871cee2fe7e25",
    "features/video001_track1.csv": "4fe7ac621ff8a91d413bd0248a8c7012c0ac86c6b678d99ab8af38df19662ee8",
    "features/video002_track0.csv": "d0361f16f0ec402d684f89c7b78e6f1263529b167c063642786ae1f5a2b0cdef",
    "features/video002_track1.csv": "549bbce01f292242819afce5bad993b681ac91c8cccf886825fdda9abdb76600",
    "features/video003_track0.csv": "ea70b0ab0e54cf43134235ba59f6edf444479e90ce08ef444189b3c4e4853344",
    "features/video003_track1.csv": "8f2587b9f3dc30bb8280352fb54be8435e5e07053919d0a9a7d7abaccf9a5ba5",
    "features/video000_track0.csv.cols": "8298cb7e47ecaae177b6455a32398461d22b75214f846403723db0c19a4d367c",
    "features/video000_track1.csv.cols": "1e6ebd834b683b71244bc16efc10559d9e5b24fa284fbfea6ef59a973fbce667",
    "features/video001_track0.csv.cols": "d29f2f01f3cb0b8995ec235b89e02c031e5ff19d195d008c1efc9d7a9c086ae6",
    "features/video001_track1.csv.cols": "6b4745183f6a79c6cf34726d08bd293281d54845d03ded095c4bd5dde1f470af",
    "features/video002_track0.csv.cols": "922b1c7fb8af2fa0ef99a1d7749d03a9c145bf30a01081b500b140442303f5fa",
    "features/video002_track1.csv.cols": "3df1ebc4a136938041f5ee3236b4e7ceeea2f6ccd6dd321e0905bac753273145",
    "features/video003_track0.csv.cols": "01191d38216c9130d1ceefb3dd977373f0a4e8ae7c12e273566c531a160d5975",
    "features/video003_track1.csv.cols": "444efb30d0ddea82ebe7490bca885acdd371a7c035a901ec4ec7a48881f76bca",
    "labels/video000_arousal.csv": "b609cffbd301a0dc40005717f065bf91980e173c96bb898b79634a03e83c2c54",
    "labels/video000_valence.csv": "4e6221f78c3256d4aafe84c861eac3fbe8d083d6f24746f83723db78e545b13d",
    "labels/video001_arousal.csv": "8361eca960bd58f08421ac592d9076b1fe0e811ed701481ae103071118256a1d",
    "labels/video001_valence.csv": "81fd7e15e6ccf9331180c36ed418f3a72f611ed916067b11ccc23a16f63d49e3",
    "labels/video002_arousal.csv": "3f60788f5d5f48a874369be888a9018328e3b02ee0c385ff304ee1740ba0be2c",
    "labels/video002_valence.csv": "f1a2a5db81f2398f3b46ff93eb26fa0891f90d8db237040cc8d5dfc70f60c736",
    "labels/video003_arousal.csv": "c87b239f0eabc14e94e42d400224c058650484c6c47086d9ac662cdf925c1274",
    "labels/video003_valence.csv": "0356e979e8ee120ad03331ab80fcabcaba0d1e4c07f1afb22666db96da743762",
    "manifest.json": "dcf73beade5516164d66697f09feeab941fe218271492fb3d48e988ecdff10e5",
}


# A small token-rate set: words that span several frames, pauses between
# them, two subwords sharing a span, signed zeros, and one frame-rate track
# whose value holds for several frames.
GOLDEN_ALIGN_INPUTS = {
    "features/v1_text.csv": (
        "start_ms,end_ms,f0,f1,f2\n"
        "0,700,0.5,-0.0,1.25\n"
        "700,760,0.1,0.2,0.3\n"
        "1500,2400,-1.5,2.0,0.001\n"
        "1500,2400,3.0,-0.0,7.0\n"
        "2600,3400,-0.0,-0.0,-0.0\n"
    ),
    "features/v1_video.csv": "start_ms,end_ms,f0,f1\n" + "".join(
        f"{j * 250},{(j + 1) * 250},{[0.25, 0.25, 0.25, -0.5][j % 4]},{j // 3 * 0.1}\n"
        for j in range(12)
    ),
    "labels/v1_arousal.csv": "frame_ms,value\n" + "".join(
        f"{j * 250},{(j - 5) / 8}\n" for j in range(11)
    ),
    "features/v2_text.csv": "start_ms,end_ms,f0,f1,f2\n100,1100,0.7,-0.7,0.0\n",
    "features/v2_video.csv": "start_ms,end_ms,f0,f1\n0,250,1.0,0.0\n250,500,1.0,-0.0\n",
    "labels/v2_arousal.csv": "frame_ms,value\n0,0.5\n250,-0.25\n500,0.0\n",
}

# SHA-256 of every file ``align`` writes for GOLDEN_ALIGN_INPUTS.
GOLDEN_ALIGN_SHA256 = {
    "features/v1_text.csv": "e4e5e2499530920f75b7f6af3dc479b4b6ed185584a081d6c74f0a595e3d142c",
    "features/v1_video.csv": "e0addd332f89c2be9800584425d4fc2b2afc52cc81b24e06cb8e1b20f5787ebc",
    "features/v2_text.csv": "896a0b6dcbf3269eb1f3e319116354539f34b5848b06810e2335f20f9c5c042f",
    "features/v2_video.csv": "4df694d3478738cf3910ee57827da28fb6243b9af516c09e54480e391199f218",
    "features/v1_text.csv.cols": "3ce49b5916db63f08b2c3f512e557f58951bc1998234ddeeda5d5dc827923a0c",
    "features/v1_video.csv.cols": "514847c17a576b1c52cd00def65b8628bbcd290d8871e7348c61915041074bee",
    "features/v2_text.csv.cols": "3a14ba55b569133a27e501add42262733918d59c39bf0b6ff41858532d04ba8f",
    "features/v2_video.csv.cols": "49e8d02977856e90cfa4d4e6380b87aa35d222b9e297456b6dbb09f255ebb4dc",
    "labels/v1_arousal.csv": "05db94c15a20e1f1f4afedc98d3606e252d52b9b3bbea31bb6f26532193ad4d8",
    "labels/v2_arousal.csv": "12147ead8ec641fe585652d971affe48132c0cb868be0b24adf5a8d8048754af",
    "manifest.json": "15f8e2a0a75e2df83faa9a741dae205499df4d55245f9015eace1dfde5685cf4",
}


def assert_align_golden_bytes(tmp_path, run_cli):
    data = tmp_path / "data"
    for relpath, text in GOLDEN_ALIGN_INPUTS.items():
        (data / relpath).parent.mkdir(parents=True, exist_ok=True)
        (data / relpath).write_text(text)
    videos = {
        vid: {
            "partition": "train",
            "features": {t: f"features/{vid}_{t}.csv" for t in ("text", "video")},
            "labels": {"arousal": f"labels/{vid}_arousal.csv"},
        }
        for vid in ("v1", "v2")
    }
    (data / "manifest.json").write_text(json.dumps({"videos": videos}))
    out = tmp_path / "out"
    code, _, err = run_cli("align", "--manifest", data / "manifest.json", "--out-dir", out)
    assert code == 0, err
    digests = {name: hashlib.sha256(b).hexdigest() for name, b in tree_bytes(out).items()}
    assert digests == GOLDEN_ALIGN_SHA256


# Two videos whose file names collide: (video id, (track, target)) per video,
# and the file name both map to.
COLLISION_CASES = [
    ({"a_b": ("c", "arousal"), "a": ("b_c", "arousal")}, "features/a_b_c.csv"),
    ({"a_b": ("t", "arousal"), "a": ("u", "b_arousal")}, "labels/a_b_arousal.csv"),
]


def assert_collision_exit_2_without_overwriting(tmp_path, run_cli, started, entries, collision,
                                                feature_rows=()):
    """``align`` exits 2 naming ``collision`` before it starts a worker or makes ``--out-dir``.

    ``started`` is a ``pool_spy`` record; ``feature_rows`` replaces the rows
    of the first videos' feature files.
    """
    data = tmp_path / "data"
    data.mkdir()
    videos = {}
    for k, (vid, (track, target)) in enumerate(entries.items()):
        row = feature_rows[k] if k < len(feature_rows) else f"0,500,0.{k}5"
        (data / f"f{k}.csv").write_text(f"start_ms,end_ms,f0\n{row}\n")
        (data / f"l{k}.csv").write_text(f"frame_ms,value\n0,0.{k}5\n250,0.{k}5\n")
        videos[vid] = {
            "partition": "train",
            "features": {track: f"f{k}.csv"},
            "labels": {target: f"l{k}.csv"},
        }
    (data / "manifest.json").write_text(json.dumps({"videos": videos}))
    out = tmp_path / "out"
    code, _, err = run_cli("align", "--manifest", data / "manifest.json", "--out-dir", out)
    assert code == 2, err
    assert err == f"error: {out / collision}: two dataset entries map to this file\n"
    # Every name is checked before anything is loaded or written.
    assert not out.exists()
    assert started == []


class TestAlign:
    def test_already_aligned_is_fixed_point(self, synth_dir, tmp_path, run_cli):
        out = tmp_path / "aligned"
        code, _, err = run_cli("align", "--manifest", synth_dir / "manifest.json",
                               "--out-dir", out)
        assert code == 0, err
        assert tree_bytes(out) == tree_bytes(synth_dir)

    def test_idempotent(self, synth_dir, tmp_path, run_cli):
        out = tmp_path / "aligned"
        manifest = synth_dir / "manifest.json"
        assert run_cli("align", "--manifest", manifest, "--out-dir", out)[0] == 0
        first = tree_bytes(out)
        assert run_cli("align", "--manifest", manifest, "--out-dir", out)[0] == 0
        assert tree_bytes(out) == first

    def test_out_dir_under_a_regular_file_exit_2_before_loading(
        self, synth_dir, tmp_path, run_cli, no_video_loads, blocker
    ):
        # It once exited 3 when making the tree's directories met the file.
        out = blocker / "al"
        before = paths_and_bytes(tmp_path)
        code, stdout, err = run_cli("align", "--manifest", synth_dir / "manifest.json",
                                    "--out-dir", out)
        assert (code, stdout, err) == (
            2, "", under_a_file(out / "labels/video000_arousal.csv", "video 'video000'", blocker))
        assert paths_and_bytes(tmp_path) == before

    def test_manifest_that_is_a_directory_exit_2_before_loading(
        self, synth_dir, tmp_path, run_cli, no_video_loads
    ):
        # It once made the tree's directories, then exited 3 when removing
        # the old manifest met the directory.
        out = tmp_path / "al"
        (out / "manifest.json").mkdir(parents=True)
        before = paths_and_bytes(tmp_path)
        code, stdout, err = run_cli("align", "--manifest", synth_dir / "manifest.json",
                                    "--out-dir", out)
        assert (code, stdout, err) == (
            2, "", f"error: {out / 'manifest.json'}: the dataset tree would write this file, "
                   f"{DIRECTORY}\n")
        assert paths_and_bytes(tmp_path) == before

    def test_missing_feature_file_exit_2_with_path(self, synth_dir, tmp_path, run_cli):
        victim = next((synth_dir / "features").glob("*.csv"))
        victim.unlink()
        code, _, err = run_cli("align", "--manifest", synth_dir / "manifest.json",
                               "--out-dir", tmp_path / "out")
        assert code == 2
        assert victim.name in err

    def test_failed_write_keeps_previous_output(self, synth_dir, tmp_path, run_cli, monkeypatch):
        out = tmp_path / "aligned"
        manifest = synth_dir / "manifest.json"
        assert run_cli("align", "--manifest", manifest, "--out-dir", out)[0] == 0
        before = tree_bytes(out)
        fail_writes_halfway(monkeypatch)
        code, _, err = run_cli("align", "--manifest", manifest, "--out-dir", out)
        monkeypatch.undo()
        assert code == 3 and "No space left" in err
        # Every file keeps its bytes, but the run removed the tree's manifest first.
        del before["manifest.json"]
        assert tree_bytes(out) == before

    def test_failed_realign_leaves_no_manifest(self, synth_dir, tmp_path, run_cli):
        # The old manifest once stayed beside the new run's files.
        out = tmp_path / "aligned"
        manifest = synth_dir / "manifest.json"
        assert run_cli("align", "--manifest", manifest, "--out-dir", out)[0] == 0
        *_, last = json.loads(manifest.read_text())["videos"].values()
        victim = synth_dir / last["features"]["track1"]
        victim.write_text(victim.read_text().replace(",", ",x", 1))
        code, _, err = run_cli("align", "--manifest", manifest, "--out-dir", out)
        assert code == 2 and f"{victim}: bad header" in err, err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize(
        "videos",
        [
            [],
            {"v": {"partition": "train", "features": ["abc"], "labels": {"arousal": "l.csv"}}},
            {"v": {"partition": "train", "features": {"a": 5}, "labels": {"arousal": "l.csv"}}},
            {"v": {"partition": "train", "features": {"a": "a.csv"}, "labels": "l.csv"}},
        ],
        ids=["videos-list", "features-list", "path-number", "labels-string"],
    )
    def test_manifest_type_errors_exit_2(self, tmp_path, run_cli, videos):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"videos": videos}))
        code, _, err = run_cli("align", "--manifest", manifest, "--out-dir", tmp_path / "out")
        assert code == 2, err
        assert "Traceback" not in err and str(manifest) in err

    def test_reads_each_label_file_once_and_copies_those_bytes(
        self, synth_dir, tmp_path, run_cli, monkeypatch
    ):
        # A valid label file in a spelling the writer would not produce: the
        # copy must be these bytes, read once.
        label_files = sorted((synth_dir / "labels").iterdir())
        assert len(label_files) == 6
        first = label_files[0]
        rows = first.read_text().splitlines()
        rows[1:] = [row + "0" for row in rows[1:]]
        first.write_bytes(("\r\n".join(rows) + "\r\n").encode())
        sources = {p.name: p.read_bytes() for p in label_files}

        reads = []
        read_bytes = Path.read_bytes

        def counting_read_bytes(path):
            reads.append(path.name)
            return read_bytes(path)

        monkeypatch.setattr(Path, "read_bytes", counting_read_bytes)
        out = tmp_path / "aligned"
        code, _, err = run_cli("align", "--manifest", synth_dir / "manifest.json",
                               "--out-dir", out)
        monkeypatch.undo()
        assert code == 0, err
        assert sorted(name for name in reads if name in sources) == sorted(sources)
        assert {p.name: p.read_bytes() for p in (out / "labels").iterdir()} == sources

    def test_golden_bytes(self, tmp_path, run_cli):
        assert_align_golden_bytes(tmp_path, run_cli)

    def test_rebins_unaligned_tokens(self, tmp_path, run_cli):
        data = tmp_path / "data"
        (data / "f").mkdir(parents=True)
        (data / "l").mkdir()
        (data / "f" / "v_a.csv").write_text(
            "start_ms,end_ms,f0\n0,500,2.0\n100,200,4.0\n"
        )
        (data / "l" / "v_ar.csv").write_text("frame_ms,value\n0,0.5\n250,-0.5\n")
        manifest = {
            "videos": {
                "v": {
                    "partition": "train",
                    "features": {"a": "f/v_a.csv"},
                    "labels": {"arousal": "l/v_ar.csv"},
                }
            }
        }
        (data / "manifest.json").write_text(json.dumps(manifest))
        out = tmp_path / "out"
        code, _, err = run_cli("align", "--manifest", data / "manifest.json",
                               "--out-dir", out)
        assert code == 0, err
        lines = (out / "features" / "v_a.csv").read_text().splitlines()
        assert lines[0] == "start_ms,end_ms,f0"
        assert lines[1] == "0,250,3.0"  # mean of 2.0 and 4.0
        assert lines[2] == "250,500,2.0"  # only the long token overlaps

    def test_frame_sum_past_the_float_range_aligned_to_its_mean(self, tmp_path, run_cli):
        # Each value is finite, and so is frame 0's mean, but not its sum. The
        # run once exited 2 with "track 'a': frame 0 is not finite".
        data = tmp_path / "data"
        (data / "f").mkdir(parents=True)
        (data / "l").mkdir()
        features = data / "f" / "v_a.csv"
        features.write_text("start_ms,end_ms,f0\n0,250,1e308\n0,250,1e308\n250,500,1.0\n")
        (data / "l" / "v_ar.csv").write_text("frame_ms,value\n0,0.5\n250,-0.5\n")
        manifest = {"videos": {"v": {"partition": "train", "features": {"a": "f/v_a.csv"},
                                     "labels": {"arousal": "l/v_ar.csv"}}}}
        (data / "manifest.json").write_text(json.dumps(manifest))
        out = tmp_path / "out"
        code, _, err = run_cli("align", "--manifest", data / "manifest.json",
                               "--out-dir", out)
        assert (code, err) == (0, "")
        assert (out / "features" / "v_a.csv").read_text() == (
            "start_ms,end_ms,f0\n0,250,1e+308\n250,500,1.0\n")

    def test_empty_track_name_exit_2_writing_nothing(self, synth_dir, tmp_path, run_cli):
        manifest = synth_dir / "manifest.json"
        raw = json.loads(manifest.read_text())
        features = raw["videos"]["video000"]["features"]
        features[""] = features.pop("track0")
        manifest.write_text(json.dumps(raw))
        out = tmp_path / "out"
        code, _, err = run_cli("align", "--manifest", manifest, "--out-dir", out)
        assert (code, err) == (
            2, f"error: {manifest}: video 'video000': track must be a name without '/', '\\' "
            "or NUL, got ''\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("depth", ["video-id", "entry-field"])
    def test_key_given_twice_exit_2_writing_nothing(self, synth_dir, tmp_path, run_cli, depth):
        manifest = synth_dir / "manifest.json"
        videos = json.loads(manifest.read_text())["videos"]
        if depth == "video-id":
            # json.dumps cannot repeat a key, so the object is spelt out.
            pairs = [*videos.items(), ("video000", videos["video000"])]
            text = '{"videos": {' + ", ".join(
                f"{json.dumps(k)}: {json.dumps(v)}" for k, v in pairs) + "}}"
            key = "video000"
        else:
            text = json.dumps({"videos": videos}).replace(
                '"partition": "train"', '"partition": "train", "partition": "devel"', 1)
            key = "partition"
        manifest.write_text(text)
        out = tmp_path / "out"
        code, _, err = run_cli("align", "--manifest", manifest, "--out-dir", out)
        assert (code, err) == (2, f"error: {manifest}: key {key!r} is given twice in one object\n")
        assert not out.exists()

    @pytest.mark.parametrize("entries,collision", COLLISION_CASES, ids=["features", "labels"])
    def test_colliding_file_names_exit_2_without_overwriting(
        self, tmp_path, run_cli, pool_spy, entries, collision
    ):
        assert_collision_exit_2_without_overwriting(tmp_path, run_cli, pool_spy, entries,
                                                    collision)

    @pytest.mark.parametrize("spelling", ["relative", "dotted", "absolute"])
    def test_output_that_another_video_reads_exit_2_writing_nothing(
        self, synth_dir, run_cli, pooled, spelling
    ):
        # Videos 0 and 1 read each other's track0 file. Aligned into the
        # manifest's own directory, video 1 once read video 0's new output
        # and the command exited 0.
        manifest = synth_dir / "manifest.json"
        raw = json.loads(manifest.read_text())
        first, second = (raw["videos"][vid]["features"] for vid in ("video000", "video001"))
        spell = {"relative": str, "dotted": lambda p: f"./labels/../{p}",
                 "absolute": lambda p: str(synth_dir / p)}[spelling]
        first["track0"], second["track0"] = spell(second["track0"]), spell(first["track0"])
        manifest.write_text(json.dumps(raw))
        before = tree_bytes(synth_dir)
        code, out, err = run_cli("align", "--manifest", manifest, "--out-dir", synth_dir)
        assert (code, out, err) == (
            2, "", f"error: {synth_dir / 'features' / 'video000_track0.csv'}: video 'video000' "
            "would write this file, which video 'video001' reads\n"
        )
        assert tree_bytes(synth_dir) == before
        assert pooled == []

    def test_in_place_keeps_the_tree(self, synth_dir, run_cli, pooled):
        # Each video reads its own files before it writes them.
        before = tree_bytes(synth_dir)
        code, _, err = run_cli("align", "--manifest", synth_dir / "manifest.json",
                               "--out-dir", synth_dir)
        assert code == 0, err
        assert tree_bytes(synth_dir) == before
        assert pooled == [2]

    @pytest.mark.parametrize("alias", ["symlinked-out-dir", "symlinked-file", "hard-link"])
    def test_output_that_aliases_another_videos_input_exit_2_writing_nothing(
        self, synth_dir, tmp_path, run_cli, pooled, alias
    ):
        manifest = synth_dir / "manifest.json"
        victim = synth_dir / "features" / "video001_track0.csv"
        if alias == "symlinked-out-dir":
            # Videos 0 and 1 read each other's track0 file, and the output
            # directory is the manifest's own under another name.
            raw = json.loads(manifest.read_text())
            first, second = (raw["videos"][vid]["features"] for vid in ("video000", "video001"))
            first["track0"], second["track0"] = second["track0"], first["track0"]
            manifest.write_text(json.dumps(raw))
            victim = synth_dir / "features" / "video000_track0.csv"
            out = tmp_path / "alias"
            out.symlink_to(synth_dir, target_is_directory=True)
        else:
            out = tmp_path / "out"
            (out / "features").mkdir(parents=True)
            link = out / "features" / "video000_track0.csv"
            if alias == "symlinked-file":
                link.symlink_to(victim)
            else:
                os.link(victim, link)
        before = tree_bytes(tmp_path)
        code, stdout, err = run_cli("align", "--manifest", manifest, "--out-dir", out)
        assert (code, stdout, err) == (
            2, "", f"error: {out / 'features' / 'video000_track0.csv'}: video 'video000' "
            "would write this file, which video 'video001' reads\n"
        )
        assert tree_bytes(tmp_path) == before and victim.is_file()
        assert pooled == []

    def test_in_place_through_a_symlinked_out_dir_keeps_the_tree(
        self, synth_dir, tmp_path, run_cli, pooled
    ):
        # Every output is its own video's input by inode too, which stays legal.
        before = tree_bytes(synth_dir)
        alias = tmp_path / "alias"
        alias.symlink_to(synth_dir, target_is_directory=True)
        code, _, err = run_cli("align", "--manifest", synth_dir / "manifest.json",
                               "--out-dir", alias)
        assert code == 0, err
        assert tree_bytes(synth_dir) == before
        assert pooled == [2]


# The run config that ``edited_run_config`` edits, after its two paths. With
# patience 1, seed 11 stops after epoch 1, so any epoch count trains fast.
RUN_CONFIG_PATHS = b'{"manifest": "raw/manifest.json", "out_dir": "run", '
RUN_CONFIG = dict(target="arousal", embed_dim=4, hidden_units=5, head_hidden=3, epochs=2,
                  seed=11, track_order=["track0", "track1"], patience=1)
SIZE_FIELDS = ("embed_dim", "hidden_units", "head_hidden")
FLOAT_FIELDS = ("learning_rate", "dropout_rate", "adam_beta1", "adam_eps")
# Small counts, and counts too large to allocate a model of or to be valid at all.
COUNTS = st.one_of(st.integers(1, 8), st.sampled_from([-1, 0, True, 2**62, 2**64]))


@st.composite
def edited_run_config(draw):
    """A run config's JSON bytes with one top-level value edited, or 1-3 bytes after its paths."""
    fields = dict(RUN_CONFIG)
    if draw(st.booleans()):
        key = draw(st.sampled_from([*RUN_CONFIG, "max_time_step", *FLOAT_FIELDS]))
        values = {
            "target": st.sampled_from(["valence", "missing", "a/b"]),
            "seed": st.integers(-2**70, 2**70),
            "track_order": st.sampled_from([["track1", "track0"], ["track0"], ["track0"] * 2,
                                            "track0,track1", ["track0", 5]]),
        }.get(key, st.floats() if key in FLOAT_FIELDS else COUNTS)
        if draw(st.booleans()):
            fields.pop(key, None)
        else:
            fields[key] = draw(st.one_of(values, st.sampled_from(JSON_VALUES)))
        return RUN_CONFIG_PATHS + json.dumps(fields)[1:].encode()
    body = json.dumps(fields)[1:].encode()
    edit, n = draw(st.sampled_from(["set", "delete", "insert"])), draw(st.integers(1, 3))
    at = draw(st.integers(0, len(body) - n))
    new = b"" if edit == "delete" else draw(st.binary(min_size=n, max_size=n))
    return RUN_CONFIG_PATHS + body[:at] + new + body[at + (0 if edit == "insert" else n):]


def allocates_little(text):
    """Whether a model that ``text`` asks for is small or too large to allocate at all.

    An inserted digit can make a size of thousands, whose model would take
    gigabytes; such configs are not run.
    """
    try:
        cfg = json.loads(text)
    except ValueError:
        return True
    return not isinstance(cfg, dict) or all(
        not (type(cfg.get(name)) is int and 64 < cfg[name] < 2**40) for name in SIZE_FIELDS
    )


class TestTrain:
    def test_end_to_end_writes_artifacts(self, synth_dir, tmp_path, run_cli):
        run_dir = tmp_path / "run"
        cfg = write_train_config(tmp_path / "cfg.json", synth_dir / "manifest.json", run_dir)
        code, out, err = run_cli("train", "--config", cfg)
        assert code == 0, err
        assert (run_dir / "checkpoint.sqf").is_file()
        history = (run_dir / "history.csv").read_text().splitlines()
        assert history[0] == "epoch,train_loss,devel_ccc"
        assert len(history) == 3
        ckpt = load_checkpoint(run_dir / "checkpoint.sqf")
        assert ckpt.config.target == "arousal"
        assert ckpt.track_dims == (("track0", 2), ("track1", 3))

    @pytest.mark.parametrize("kind", ["label-file", "manifest", "config"])
    def test_output_that_is_an_input_exit_2_leaving_inputs_unchanged(
        self, synth_dir, tmp_path, run_cli, kind
    ):
        # A label file at run/history.csv, a manifest named checkpoint.sqf in
        # the run directory, and a config file at run/history.csv.
        run_dir, manifest, cfg = tmp_path / "run", synth_dir / "manifest.json", tmp_path / "c.json"
        run_dir.mkdir()
        if kind == "label-file":
            (synth_dir / "labels" / "video000_arousal.csv").rename(run_dir / "history.csv")
            entries = json.loads(manifest.read_text())
            entries["videos"]["video000"]["labels"]["arousal"] = "../run/history.csv"
            manifest.write_text(json.dumps(entries))
            output, reader = run_dir / "history.csv", "video 'video000'"
        elif kind == "manifest":
            run_dir = synth_dir
            manifest = manifest.rename(synth_dir / "checkpoint.sqf")
            output, reader = manifest, "train --manifest"
        else:
            cfg = output = run_dir / "history.csv"
            reader = "train --config"
        write_train_config(cfg, manifest, run_dir)
        before = tree_bytes(tmp_path)
        code, out, err = run_cli("train", "--config", cfg)
        assert (code, out, err) == (
            2, "", f"error: {output}: train --out-dir would write this file, which {reader} "
                   "reads\n")
        assert tree_bytes(tmp_path) == before

    @pytest.mark.parametrize("name", ["history.csv", "checkpoint.sqf"])
    def test_output_that_is_a_directory_exit_2_before_loading(
        self, synth_dir, tmp_path, run_cli, no_video_loads, name
    ):
        # It once trained, then exited 3 when the write met the directory.
        run_dir = tmp_path / "run"
        (run_dir / name).mkdir(parents=True)
        cfg = write_train_config(tmp_path / "cfg.json", synth_dir / "manifest.json", run_dir)
        before = paths_and_bytes(tmp_path)
        code, out, err = run_cli("train", "--config", cfg)
        assert (code, out, err) == (
            2, "", f"error: {run_dir / name}: train --out-dir would write this file, "
                   f"{DIRECTORY}\n")
        assert paths_and_bytes(tmp_path) == before

    def test_out_dir_under_a_regular_file_exit_2_before_loading(
        self, synth_dir, tmp_path, run_cli, no_video_loads, blocker
    ):
        # It once trained, then exited 3 when making the run directory met the file.
        run_dir = blocker / "run"
        cfg = write_train_config(tmp_path / "cfg.json", synth_dir / "manifest.json", run_dir)
        before = paths_and_bytes(tmp_path)
        code, out, err = run_cli("train", "--config", cfg)
        assert (code, out, err) == (
            2, "", under_a_file(run_dir / "history.csv", "train --out-dir", blocker))
        assert paths_and_bytes(tmp_path) == before

    def test_identical_config_identical_checkpoint_bytes(self, synth_dir, tmp_path, run_cli):
        run_a, run_b = tmp_path / "a", tmp_path / "b"
        cfg_a = write_train_config(tmp_path / "ca.json", synth_dir / "manifest.json", run_a)
        cfg_b = write_train_config(tmp_path / "cb.json", synth_dir / "manifest.json", run_b)
        assert run_cli("train", "--config", cfg_a)[0] == 0
        assert run_cli("train", "--config", cfg_b)[0] == 0
        a = (run_a / "checkpoint.sqf").read_bytes()
        b = (run_b / "checkpoint.sqf").read_bytes()
        assert a == b

    def test_missing_target_exit_2_names_field(self, synth_dir, tmp_path, run_cli):
        cfg = write_train_config(
            tmp_path / "cfg.json", synth_dir / "manifest.json", tmp_path / "run",
            target=None,
        )
        code, _, err = run_cli("train", "--config", cfg)
        assert code == 2
        assert "target" in err

    def test_flags_override_config_file(self, synth_dir, tmp_path, run_cli):
        run_dir = tmp_path / "run"
        cfg = write_train_config(tmp_path / "cfg.json", synth_dir / "manifest.json",
                                 run_dir, epochs=1)
        code, _, err = run_cli("train", "--config", cfg, "--epochs", 3)
        assert code == 0, err
        history = (run_dir / "history.csv").read_text().splitlines()
        assert len(history) == 4  # header + 3 epochs

    def test_unknown_config_field_rejected(self, synth_dir, tmp_path, run_cli):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"manifest": str(synth_dir / "manifest.json"),
                                   "out_dir": str(tmp_path / "run"), "lr": 0.1}))
        code, _, err = run_cli("train", "--config", cfg)
        assert code == 2
        assert "lr" in err

    def test_config_key_given_twice_exit_2(self, synth_dir, tmp_path, run_cli):
        run_dir = tmp_path / "run"
        cfg = write_train_config(tmp_path / "cfg.json", synth_dir / "manifest.json", run_dir)
        cfg.write_text(cfg.read_text()[:-1] + ', "epochs": 3}')
        code, _, err = run_cli("train", "--config", cfg)
        assert (code, err) == (2, f"error: {cfg}: key 'epochs' is given twice in one object\n")
        assert not run_dir.exists()

    # 185 PiB and 284 PiB of parameters, past any address space; then past
    # numpy's index range.
    @pytest.mark.parametrize("field,value", [
        ("embed_dim", 10**15), ("hidden_units", 10**8), ("embed_dim", 10**20),
    ], ids=["embed-past-memory", "hidden-past-memory", "embed-past-index-range"])
    def test_model_too_large_exit_2_naming_dims(self, synth_dir, tmp_path, run_cli, field, value):
        run_dir = tmp_path / "run"
        cfg = write_train_config(tmp_path / "cfg.json", synth_dir / "manifest.json", run_dir,
                                 **{field: value})
        code, _, err = run_cli("train", "--config", cfg)
        dims = {"D": 5, "e": 4, "h": 5, "m": 3, {"embed_dim": "e", "hidden_units": "h"}[field]: value}
        expected = ", ".join(f"{k}={v}" for k, v in dims.items())
        assert (code, err) == (2, f"error: model dims {expected} do not fit in memory\n")
        assert not run_dir.exists()

    def test_trainability_scenario_through_cli(self, tmp_path, run_cli):
        raw = tmp_path / "raw"
        code, _, err = run_cli(
            "synth", "--out-dir", raw, "--seed", 3, "--n-train", 8, "--n-devel", 2,
            "--dims", "4,6", "--t-range", "60:100", "--snr", 100,
        )
        assert code == 0, err
        run_dir = tmp_path / "run"
        cfg = write_train_config(
            tmp_path / "cfg.json", raw / "manifest.json", run_dir,
            embed_dim=16, hidden_units=32, head_hidden=16, epochs=300,
            seed=3, patience=30,
        )
        code, _, err = run_cli("train", "--config", cfg)
        assert code == 0, err
        assert "warning" not in err
        ckpt = load_checkpoint(run_dir / "checkpoint.sqf")
        assert ckpt.best_ccc >= 0.95
        code, out, err = run_cli(
            "evaluate", "--checkpoint", run_dir / "checkpoint.sqf",
            "--manifest", raw / "manifest.json", "--partition", "devel",
        )
        assert code == 0, err
        assert json.loads(out)["concatenated_ccc"] >= 0.95

    @pytest.mark.parametrize(
        "override,needle",
        [
            ({"epochs": 2.5}, "epochs"),
            ({"adam_beta1": 1.0}, "adam_beta1"),
            ({"learning_rate": 1e300}, "training diverged"),
            ({"frame_len_ms": "abc"}, "frame_len_ms"),
            ({"frame_len_ms": [1]}, "frame_len_ms"),
            ({"frame_len_ms": 2.5}, "frame_len_ms"),
            ({"frame_len_ms": True}, "frame_len_ms"),
            ({"frame_len_ms": 0}, "frame_len_ms"),
            ({"frame_len_ms": 250}, "unknown config fields: frame_len_ms"),
            ({"track_order": 5}, "track_order"),
            ({"target": "../../esc"}, "target must be a name"),
        ],
        ids=[
            "non-integer-epochs", "beta1-one", "diverging", "frame-len-string",
            "frame-len-list", "frame-len-float", "frame-len-bool", "frame-len-zero",
            "frame-len-250", "track-order-int", "target-path",
        ],
    )
    def test_bad_or_diverging_config_exit_2_without_checkpoint(
        self, synth_dir, tmp_path, run_cli, override, needle
    ):
        run_dir = tmp_path / "run"
        cfg = write_train_config(tmp_path / "cfg.json", synth_dir / "manifest.json",
                                 run_dir, **override)
        code, _, err = run_cli("train", "--config", cfg)
        assert code == 2, err
        assert needle in err and "Traceback" not in err
        assert not (run_dir / "checkpoint.sqf").exists()

    @pytest.mark.parametrize(
        "field,value",
        [("adam_eps", float("inf")), ("learning_rate", True), ("learning_rate", float("nan")),
         ("dropout_rate", "0.5")],
        ids=["eps-inf", "lr-bool", "lr-nan", "dropout-string"],
    )
    def test_float_field_not_a_finite_number_exit_2_before_loading(
        self, synth_dir, tmp_path, run_cli, monkeypatch, field, value
    ):
        def never(*args, **kwargs):
            raise AssertionError("a video was loaded")

        monkeypatch.setattr(featureio, "load_labeled_sequence", never)
        run_dir = tmp_path / "run"
        cfg = write_train_config(tmp_path / "cfg.json", synth_dir / "manifest.json", run_dir,
                                 **{field: value})
        code, _, err = run_cli("train", "--config", cfg)
        assert (code, err) == (2, f"error: {field} must be a finite number, got {value!r}\n")
        assert not run_dir.exists()

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_learning_rate_flag_not_finite_exit_2(self, synth_dir, tmp_path, run_cli, value):
        run_dir = tmp_path / "run"
        cfg = write_train_config(tmp_path / "cfg.json", synth_dir / "manifest.json", run_dir)
        code, _, err = run_cli("train", "--config", cfg, "--learning-rate", value)
        assert (code, err) == (2, f"error: learning_rate must be a finite number, got {value}\n")
        assert not run_dir.exists()

    @pytest.mark.parametrize("field", ["manifest", "out_dir"])
    @pytest.mark.parametrize(
        "value", [5, None, ["manifest.json"], "run\0x"], ids=["int", "null", "list", "nul"]
    )
    def test_non_string_path_field_exit_2(self, synth_dir, tmp_path, run_cli, field, value):
        run_dir = tmp_path / "run"
        cfg = write_train_config(tmp_path / "cfg.json", synth_dir / "manifest.json", run_dir)
        raw = json.loads(cfg.read_text())
        raw[field] = value
        cfg.write_text(json.dumps(raw))
        code, _, err = run_cli("train", "--config", cfg)
        assert code == 2, err
        assert f"{field} must be a path string" in err and "Traceback" not in err
        assert not run_dir.exists()

    def test_unwritable_history_leaves_no_checkpoint(self, synth_dir, tmp_path, run_cli,
                                                     monkeypatch):
        run_dir = tmp_path / "run"
        fail_history_write(monkeypatch)
        cfg = write_train_config(tmp_path / "cfg.json", synth_dir / "manifest.json", run_dir)
        code, _, err = run_cli("train", "--config", cfg)
        assert code == 3, err
        assert "history.csv" in err
        assert not (run_dir / "checkpoint.sqf").exists()

    def test_failed_retrain_leaves_no_checkpoint(self, synth_dir, tmp_path, run_cli,
                                                 monkeypatch):
        # The old checkpoint once stayed beside a failed run's output.
        run_dir = tmp_path / "run"
        cfg = write_train_config(tmp_path / "cfg.json", synth_dir / "manifest.json", run_dir)
        assert run_cli("train", "--config", cfg)[0] == 0
        fail_history_write(monkeypatch)
        code, _, err = run_cli("train", "--config", cfg)
        assert code == 3 and "history.csv" in err, err
        assert not (run_dir / "checkpoint.sqf").exists()

    def test_devel_tracks_with_other_dims_exit_2(self, tmp_path, run_cli):
        manifest = write_mixed_dims_dataset(tmp_path / "raw", "devel")
        run_dir = tmp_path / "run"
        cfg = write_train_config(tmp_path / "cfg.json", manifest, run_dir)
        code, _, err = run_cli("train", "--config", cfg)
        assert code == 2, err
        assert "video003: track 'track0' has dim 3" in err and "Traceback" not in err
        assert not run_dir.exists()

    def test_finite_blow_up_warns_without_changing_outputs(self, synth_dir, tmp_path, run_cli):
        run_dir = tmp_path / "run"
        cfg = write_train_config(tmp_path / "cfg.json", synth_dir / "manifest.json",
                                 run_dir, learning_rate=1e6)
        code, _, err = run_cli("train", "--config", cfg)
        assert code == 0, err
        rows = (run_dir / "history.csv").read_text().splitlines()[1:]
        largest = max(float(row.split(",")[1]) for row in rows)
        assert largest > 1e9
        warnings = [line for line in err.splitlines() if line.startswith("warning:")]
        assert warnings == [
            "warning: no trained epoch beat the untrained model's devel CCC, so the "
            f"checkpoint holds epoch 0; largest epoch train loss {largest!r}"
        ]
        ckpt = load_checkpoint(run_dir / "checkpoint.sqf")
        assert ckpt.best_epoch == 0
        # The same run through the library writes the same bytes.
        manifest = load_manifest(synth_dir / "manifest.json")
        order = ["track0", "track1"]
        ckpt, history = train(
            load_fused_datasets(manifest, ["train"], order)[0],
            load_fused_datasets(manifest, ["devel"], order)[0],
            ckpt.config,
        )
        save_checkpoint(ckpt, tmp_path / "lib.sqf")
        write_history_csv(history, tmp_path / "lib.csv")
        assert (tmp_path / "lib.sqf").read_bytes() == (run_dir / "checkpoint.sqf").read_bytes()
        assert (tmp_path / "lib.csv").read_bytes() == (run_dir / "history.csv").read_bytes()

    def test_default_track_order_from_manifest(self, synth_dir, tmp_path, run_cli):
        run_dir = tmp_path / "run"
        cfg = write_train_config(tmp_path / "cfg.json", synth_dir / "manifest.json",
                                 run_dir, track_order=None)
        code, _, err = run_cli("train", "--config", cfg)
        assert code == 0, err
        ckpt = load_checkpoint(run_dir / "checkpoint.sqf")
        assert list(ckpt.config.track_order) == ["track0", "track1"]

    @pytest.mark.parametrize("track_order", [None, ["track0", "track1"]], ids=["default", "given"])
    def test_manifest_read_once(self, synth_dir, tmp_path, run_cli, monkeypatch, track_order):
        # The default track order and the loaded videos come from one read.
        reads = []
        real_load_manifest = cli_module.load_manifest
        monkeypatch.setattr(cli_module, "load_manifest",
                            lambda path: reads.append(Path(path)) or real_load_manifest(path))
        manifest = synth_dir / "manifest.json"
        cfg = write_train_config(tmp_path / "cfg.json", manifest, tmp_path / "run",
                                 track_order=track_order)
        code, _, err = run_cli("train", "--config", cfg)
        assert code == 0, err
        assert reads == [manifest]

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=edited_run_config())
    def test_edited_run_config_exit_0_or_2(self, synth_dir, tmp_path, run_cli, monkeypatch, text):
        monkeypatch.chdir(tmp_path)  # the config's paths are relative to it
        assume(allocates_little(text))
        (tmp_path / "cfg.json").write_bytes(text)
        code, _, err = run_cli("train", "--config", "cfg.json")
        assert code in (0, 2), err
        assert "Traceback" not in err


def write_mixed_dims_dataset(root, odd_partition):
    """Two train videos and one devel video on dims 2,3, plus video003 on dims 3,2."""
    videos = synth_generate(5, 3, (8, 14), [2, 3], 100.0)
    (odd,) = synth_generate(6, 1, (8, 14), [3, 2], 100.0)
    odd.video_id = "video003"
    write_dataset(root, zip(["train", "train", "devel", odd_partition], [*videos, odd]))
    return root / "manifest.json"


def make_zero_checkpoint(path, D=5, head_out_bias=0.0, track_dims=(("track0", 2), ("track1", 3)),
                         **tensors):
    """A zero model's checkpoint; each keyword names a tensor to fill with its value."""
    model = zero_model(D=D, e=4, h=5, m=3)
    model.tensors["head_out_b"][0] = head_out_bias
    for name, value in tensors.items():
        model.tensors[name][...] = value
    cfg = TrainConfig(
        target="arousal", embed_dim=4, hidden_units=5, head_hidden=3,
        epochs=1, seed=0, track_order=[n for n, _ in track_dims],
    )
    save_checkpoint(Checkpoint(model, cfg, tuple(track_dims), 0.0, 0), path)


class TestEvaluate:
    def test_report_to_stdout(self, synth_dir, tmp_path, run_cli):
        ckpt_path = tmp_path / "z.sqf"
        make_zero_checkpoint(ckpt_path)
        code, out, err = run_cli("evaluate", "--checkpoint", ckpt_path,
                                 "--manifest", synth_dir / "manifest.json",
                                 "--partition", "devel")
        assert code == 0, err
        payload = json.loads(out)
        assert payload["target"] == "arousal"
        assert set(payload) == {"concatenated_ccc", "n_frames_total", "per_video", "target"}
        assert "concatenated CCC" in err  # summary line on stderr

    def test_one_frame_video_left_out_of_per_video(self, synth_dir, tmp_path, run_cli):
        manifest = json.loads((synth_dir / "manifest.json").read_text())
        short, entry = next(iter(manifest["videos"].items()))
        for relpath in entry["labels"].values():
            path = synth_dir / relpath
            path.write_text("\n".join(path.read_text().splitlines()[:2]) + "\n")
        ckpt_path = tmp_path / "z.sqf"
        make_zero_checkpoint(ckpt_path)
        code, out, err = run_cli("evaluate", "--checkpoint", ckpt_path,
                                 "--manifest", synth_dir / "manifest.json",
                                 "--partition", "all")
        assert code == 0, err
        report = json.loads(out)
        assert sorted(report["per_video"]) == sorted(set(manifest["videos"]) - {short})
        frames = {
            vid: len((synth_dir / e["labels"]["arousal"]).read_text().splitlines()) - 1
            for vid, e in manifest["videos"].items()
        }
        assert frames[short] == 1
        assert report["n_frames_total"] == sum(frames.values())

    def test_report_file_and_dim_mismatch(self, synth_dir, tmp_path, run_cli):
        ckpt_path = tmp_path / "bad.sqf"
        make_zero_checkpoint(ckpt_path, D=9, track_dims=(("track0", 4), ("track1", 5)))
        code, _, err = run_cli("evaluate", "--checkpoint", ckpt_path,
                               "--manifest", synth_dir / "manifest.json")
        assert code == 2

    @pytest.mark.parametrize("out,reader", [
        ("manifest.json", "evaluate --manifest"),
        ("z.sqf", "evaluate --checkpoint"),
        ("labels/video002_valence.csv", "video 'video002'"),
    ], ids=["manifest", "checkpoint", "label-file"])
    def test_out_that_it_reads_exit_2_writing_nothing(self, synth_dir, tmp_path, run_cli,
                                                      out, reader):
        # --out once replaced the manifest with the report, and exited 0.
        ckpt_path = synth_dir / "z.sqf"
        make_zero_checkpoint(ckpt_path)
        before = tree_bytes(tmp_path)
        code, stdout, err = run_cli("evaluate", "--checkpoint", ckpt_path,
                                    "--manifest", synth_dir / "manifest.json",
                                    "--out", synth_dir / out)
        assert (code, stdout, err) == (
            2, "", f"error: {synth_dir / out}: evaluate --out would write this file, "
            f"which {reader} reads\n")
        assert tree_bytes(tmp_path) == before

    @pytest.mark.parametrize("out", ["", ".", "/", "dir"], ids=["empty", "dot", "root", "dir"])
    def test_out_that_names_no_file_exit_2_before_loading(
        self, synth_dir, tmp_path, run_cli, monkeypatch, no_video_loads, out
    ):
        # Each once scored the partition, then exited 4 (no file name) or 3
        # (a directory).
        monkeypatch.chdir(tmp_path)
        (tmp_path / "dir").mkdir()
        ckpt_path = tmp_path / "z.sqf"
        make_zero_checkpoint(ckpt_path)
        before = paths_and_bytes(tmp_path)
        code, stdout, err = run_cli("evaluate", "--checkpoint", ckpt_path,
                                    "--manifest", synth_dir / "manifest.json", "--out", out)
        expected = {"": "'.': evaluate --out needs a path that names a file",
                    ".": "'.': evaluate --out needs a path that names a file",
                    "/": "'/': evaluate --out needs a path that names a file",
                    "dir": f"dir: evaluate --out would write this file, {DIRECTORY}"}[out]
        assert (code, stdout, err) == (2, "", f"error: {expected}\n")
        assert paths_and_bytes(tmp_path) == before

    def test_out_under_a_regular_file_exit_2_before_loading(
        self, synth_dir, tmp_path, run_cli, no_video_loads, blocker
    ):
        # It once scored the partition, then exited 3 when making the
        # report's directory met the file.
        ckpt_path = tmp_path / "z.sqf"
        make_zero_checkpoint(ckpt_path)
        before = paths_and_bytes(tmp_path)
        code, stdout, err = run_cli("evaluate", "--checkpoint", ckpt_path,
                                    "--manifest", synth_dir / "manifest.json",
                                    "--out", blocker / "r.json")
        assert (code, stdout, err) == (
            2, "", under_a_file(blocker / "r.json", "evaluate --out", blocker))
        assert paths_and_bytes(tmp_path) == before

    def test_out_over_an_unscored_videos_label_file_exit_2_keeping_it(self, tmp_path, run_cli):
        # Scoring the train partition once wrote its report over a devel
        # label file and exited 0, and the next evaluate of devel exited 2
        # with "bad label header".
        data = tmp_path / "d"
        code, _, err = run_cli("synth", "--out-dir", data, "--seed", 5, "--n-train", 2,
                               "--n-devel", 2, "--dims", "2,3", "--t-range", "8:14")
        assert code == 0, err
        cfg = write_train_config(tmp_path / "cfg.json", data / "manifest.json",
                                 tmp_path / "run", epochs=1)
        assert run_cli("train", "--config", cfg)[0] == 0
        ckpt_path, label = tmp_path / "run" / "checkpoint.sqf", data / "labels/video002_arousal.csv"
        before = tree_bytes(tmp_path)
        code, stdout, err = run_cli("evaluate", "--checkpoint", ckpt_path,
                                    "--manifest", data / "manifest.json",
                                    "--partition", "train", "--out", label)
        assert (code, stdout) == (2, "")
        assert "evaluate --out" in err and "video 'video002'" in err
        assert tree_bytes(tmp_path) == before

    def test_non_finite_config_float_in_header_exit_2(self, synth_dir, tmp_path, run_cli):
        ckpt = tmp_path / "z.sqf"
        make_zero_checkpoint(ckpt)
        data = ckpt.read_bytes()
        (n,) = struct.unpack("<I", data[4:8])
        header = json.loads(data[8 : 8 + n])
        header["config"]["adam_eps"] = float("inf")
        raw = json.dumps(header, sort_keys=True).encode()
        assert b'"adam_eps": Infinity' in raw
        ckpt.write_bytes(data[:4] + struct.pack("<I", len(raw)) + raw + data[8 + n :])
        code, out, err = run_cli("evaluate", "--checkpoint", ckpt,
                                 "--manifest", synth_dir / "manifest.json")
        assert (code, out) == (2, "")
        assert err == (f"error: {ckpt}: bad header fields: adam_eps must be a finite number, "
                       "got inf\n")

    @pytest.mark.parametrize("value,name", [
        (float("nan"), "projection_w"),
        (float("inf"), "lstm_b"),
    ], ids=["nan", "inf"])
    def test_non_finite_parameter_exit_2_writing_nothing(self, synth_dir, tmp_path, run_cli,
                                                         value, name):
        ckpt = write_scoring_checkpoint(tmp_path / "r.sqf")
        data = bytearray(ckpt.read_bytes())
        (n,) = struct.unpack("<I", data[4:8])
        payload = 8 + n
        # The first entry of ``name`` and the last of the payload, in head_out_b.
        start = {spec.name: spec.start
                 for spec in param_layout(load_checkpoint(ckpt).model.dims)}[name]
        for entry in (start, (len(data) - payload) // 8 - 1):
            struct.pack_into("<d", data, payload + 8 * entry, value)
        ckpt.write_bytes(bytes(data))
        out = tmp_path / "out"
        for argv in (["evaluate", "--out", out / "report.json"], ["predict", "--out-dir", out]):
            code, stdout, err = run_cli(*argv, "--checkpoint", ckpt,
                                        "--manifest", synth_dir / "manifest.json")
            assert (code, stdout) == (2, ""), err
            assert err == f"error: {ckpt}: parameter {name!r} is not finite\n"
        assert not out.exists()

    def test_parameters_that_overflow_exit_2_naming_the_video(self, synth_dir, tmp_path,
                                                              run_cli):
        ckpt, out = tmp_path / "z.sqf", tmp_path / "out"
        # Every head unit is 1.0, so every prediction is 3e308: inf.
        make_zero_checkpoint(ckpt, head_hidden_b=1.0, head_out_w=1e308)
        for argv in (["evaluate", "--out", out / "report.json"], ["predict", "--out-dir", out]):
            code, stdout, err = run_cli(*argv, "--checkpoint", ckpt, "--partition", "all",
                                        "--manifest", synth_dir / "manifest.json")
            assert (code, stdout) == (2, ""), err
            assert err == (f"error: video000: the predictions of checkpoint {ckpt} are not "
                           "finite (its parameters or these features overflow float64)\n")
        assert not out.exists()

    def test_finite_predictions_near_the_float_range_scored(self, synth_dir, tmp_path, run_cli):
        ckpt = tmp_path / "z.sqf"
        make_zero_checkpoint(ckpt, head_out_bias=1e300)
        code, out, err = run_cli("evaluate", "--checkpoint", ckpt,
                                 "--manifest", synth_dir / "manifest.json")
        assert code == 0, err
        assert json.loads(out)["concatenated_ccc"] == 0.0  # constant, far from the labels

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_edited_checkpoint_exit_0_or_2(self, synth_dir, tmp_path, run_cli,
                                           trained_checkpoint, data):
        ckpt = tmp_path / "edited.sqf"
        ckpt.write_bytes(data.draw(edited_checkpoint(trained_checkpoint)))
        code, _, err = run_cli("evaluate", "--checkpoint", ckpt,
                               "--manifest", synth_dir / "manifest.json")
        assert code in (0, 2), err
        assert "Traceback" not in err

    def test_corrupt_checkpoint_exit_2(self, synth_dir, tmp_path, run_cli):
        ckpt_path = tmp_path / "z.sqf"
        make_zero_checkpoint(ckpt_path)
        (tmp_path / "trunc.sqf").write_bytes(ckpt_path.read_bytes()[:40])
        code, _, err = run_cli("evaluate", "--checkpoint", tmp_path / "trunc.sqf",
                               "--manifest", synth_dir / "manifest.json")
        assert code == 2


@st.composite
def edited_checkpoint(draw, data):
    """``data`` with one to three bytes set, deleted or inserted, most in the header."""
    (n,) = struct.unpack("<I", data[4:8])
    data = bytearray(data)
    for _ in range(draw(st.integers(1, 3))):
        in_header = draw(st.integers(0, 9)) < 8
        at = draw(st.integers(0, 8 + n - 1) if in_header else st.integers(8 + n, len(data) - 1))
        at = min(at, len(data) - 1)
        edit = draw(st.sampled_from(["set", "delete", "insert"]))
        if edit == "set":
            data[at] = draw(st.integers(0, 255))
        elif edit == "delete":
            del data[at]
        else:
            data.insert(at, draw(st.integers(0, 255)))
    return bytes(data)


# The characters an edit inserts: those of numbers, nan, inf and CSV rows.
EDIT_CHARS = "0123456789.,-enaif+ \n"
TRAIN_ONE_EPOCH = ["--target", "arousal", "--seed", 1, "--epochs", 1, "--embed-dim", 4,
                   "--hidden-units", 5, "--head-hidden", 3]


@st.composite
def edited_bytes(draw, data):
    """``data`` with one byte set, 1-7 bytes deleted, 1-5 characters inserted, or truncated."""
    at = draw(st.integers(0, len(data) - 1))
    edit = draw(st.sampled_from(["set", "delete", "insert", "truncate"]))
    if edit == "set":
        return data[:at] + bytes([draw(st.integers(0, 255))]) + data[at + 1:]
    if edit == "delete":
        return data[:at] + data[at + draw(st.integers(1, 7)):]
    if edit == "insert":
        return data[:at] + draw(st.text(EDIT_CHARS, min_size=1, max_size=5)).encode() + data[at:]
    return data[:at]


@pytest.fixture(scope="module")
def edit_trees(tmp_path_factory):
    """A raw tree, the tree that align makes of it and a checkpoint trained on that one."""
    root = tmp_path_factory.mktemp("edit")
    for argv in (
        ["synth", "--out-dir", root / "raw", "--seed", 5, "--n-train", 2, "--n-devel", 1,
         "--dims", "2,3", "--t-range", "8:14"],
        ["align", "--manifest", root / "raw" / "manifest.json", "--out-dir", root / "aligned"],
        ["train", "--manifest", root / "aligned" / "manifest.json", "--out-dir", root / "run",
         *TRAIN_ONE_EPOCH],
    ):
        assert cli_main([str(a) for a in argv]) == 0
    return root


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_edited_dataset_tree_file_exit_0_or_2(edit_trees, tmp_path, run_cli, data):
    # One file of a raw or an aligned tree is edited: the manifest, a label
    # CSV, a Feature CSV or a sidecar. The command that reads it, align on
    # the raw tree and evaluate, predict or train on the aligned one, exits 0
    # or 2.
    tree = data.draw(st.sampled_from(["raw", "aligned"]))
    work = Path(tempfile.mkdtemp(dir=tmp_path))
    shutil.copytree(edit_trees / tree, work / tree)
    pattern = data.draw(st.sampled_from(["manifest.json", "labels/*.csv", "features/*.csv",
                                         "features/*.csv.cols"]))
    path = data.draw(st.sampled_from(sorted((work / tree).glob(pattern))))
    path.write_bytes(data.draw(edited_bytes(path.read_bytes())))
    manifest, out = work / tree / "manifest.json", work / "out"
    ckpt = edit_trees / "run" / "checkpoint.sqf"
    command = "align" if tree == "raw" else data.draw(st.sampled_from(["evaluate", "predict",
                                                                       "train"]))
    argv = {
        "align": ["--manifest", manifest, "--out-dir", out],
        "evaluate": ["--checkpoint", ckpt, "--manifest", manifest, "--partition", "all"],
        "predict": ["--checkpoint", ckpt, "--manifest", manifest, "--out-dir", out],
        "train": ["--manifest", manifest, "--out-dir", out, *TRAIN_ONE_EPOCH],
    }[command]
    code, _, err = run_cli(command, *argv)
    assert code in (0, 2), err
    assert "Traceback" not in err


def assert_dims_other_than_the_checkpoints_exit_2(tmp_path, run_cli, command, partition=None):
    raw = tmp_path / "raw"
    code, _, err = run_cli("synth", "--out-dir", raw, "--seed", 5, "--n-train", 2,
                           "--n-devel", 1, "--dims", "3,2", "--t-range", "8:14")
    assert code == 0, err
    ckpt = tmp_path / "z.sqf"
    make_zero_checkpoint(ckpt)  # trained on track0:2, track1:3
    out = tmp_path / "out"
    argv = {
        "evaluate": ["--out", out / "report.json"],
        "predict": ["--out-dir", out],
    }[command]
    if partition is not None:
        argv += ["--partition", partition]
    code, _, err = run_cli(command, "--checkpoint", ckpt, "--manifest", raw / "manifest.json",
                           *argv)
    assert code == 2, err
    # The first video scored, of the command's default partition or the given one.
    default = {"evaluate": "devel", "predict": "all"}[command]
    first = load_manifest(raw / "manifest.json").video_ids(partition or default)[0]
    assert err == (
        f"error: {first}: track 'track0' has dim 3 where checkpoint {ckpt} has track "
        "'track0' of dim 2\n"
    )
    assert not out.exists()


def assert_partition_with_two_sets_of_dims_exit_2(tmp_path, run_cli, command):
    manifest = write_mixed_dims_dataset(tmp_path / "raw", "train")
    ckpt = tmp_path / "z.sqf"
    make_zero_checkpoint(ckpt)
    out = tmp_path / "out"
    argv = {
        "evaluate": ["--out", out / "report.json", "--partition", "train"],
        "predict": ["--out-dir", out, "--partition", "train"],
    }[command]
    code, _, err = run_cli(command, "--checkpoint", ckpt, "--manifest", manifest, *argv)
    assert code == 2, err
    # video000 and video001 have the checkpoint's dims; video003 is checked against it too.
    assert err == (
        f"error: video003: track 'track0' has dim 3 where checkpoint {ckpt} has track "
        "'track0' of dim 2\n"
    )
    assert not out.exists()


class TestTrackDims:
    """Every scored video must have the checkpoint's track dims."""

    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    def test_dataset_dims_other_than_the_checkpoints_exit_2(self, tmp_path, run_cli, command):
        assert_dims_other_than_the_checkpoints_exit_2(tmp_path, run_cli, command)

    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    def test_partition_with_two_sets_of_dims_exit_2(self, tmp_path, run_cli, command):
        assert_partition_with_two_sets_of_dims_exit_2(tmp_path, run_cli, command)

    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    def test_track_order_other_than_the_track_dims_exit_2(self, tmp_path, run_cli, command):
        raw, run_dir, out = tmp_path / "raw", tmp_path / "run", tmp_path / "out"
        code, _, err = run_cli("synth", "--out-dir", raw, "--seed", 3, "--n-train", 3,
                               "--n-devel", 1, "--n-test", 1, "--dims", "2,3",
                               "--t-range", "20:30")
        assert code == 0, err
        code, _, err = run_cli("train", "--manifest", raw / "manifest.json", "--out-dir", run_dir,
                               "--target", "arousal", "--seed", 1, "--epochs", 1,
                               "--embed-dim", 4, "--hidden-units", 4, "--head-hidden", 2)
        assert code == 0, err
        ckpt = run_dir / "checkpoint.sqf"
        data = ckpt.read_bytes()
        (n,) = struct.unpack("<I", data[4:8])
        header = json.loads(data[8 : 8 + n])
        header["config"]["track_order"] = ["track1", "track0"]  # D stays 5
        raw_header = json.dumps(header, sort_keys=True).encode()
        ckpt.write_bytes(data[:4] + struct.pack("<I", len(raw_header)) + raw_header + data[8 + n :])
        argv = {"evaluate": ["--out", out / "report.json"], "predict": ["--out-dir", out]}[command]
        code, _, err = run_cli(command, "--checkpoint", ckpt, "--manifest", raw / "manifest.json",
                               "--partition", "test", *argv)
        assert code == 2, err
        assert f"{ckpt}: track_dims name tracks ['track0', 'track1'], but " in err
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    def test_stored_dims_other_than_the_configs_exit_2(self, synth_dir, tmp_path, run_cli,
                                                        command):
        # The header's dims say e4/h5, its config e7/h9. The model's dims are
        # the config's, so the header describes another payload size.
        ckpt, out = tmp_path / "z.sqf", tmp_path / "out"
        make_zero_checkpoint(ckpt)
        data = ckpt.read_bytes()
        (n,) = struct.unpack("<I", data[4:8])
        header = json.loads(data[8 : 8 + n])
        assert (header["dims"]["e"], header["dims"]["h"]) == (4, 5)
        header["config"].update(embed_dim=7, hidden_units=9)
        raw = json.dumps(header, sort_keys=True).encode()
        ckpt.write_bytes(data[:4] + struct.pack("<I", len(raw)) + raw + data[8 + n :])
        argv = {"evaluate": ["--out", out / "report.json"], "predict": ["--out-dir", out]}[command]
        code, stdout, err = run_cli(command, "--checkpoint", ckpt,
                                    "--manifest", synth_dir / "manifest.json", *argv)
        assert (code, stdout) == (2, ""), err
        assert err.startswith(f"error: {ckpt}: payload has ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("value", [float("inf"), 1.5, True, "2"],
                             ids=["inf", "float", "bool", "string"])
    @pytest.mark.parametrize("field", ["best_epoch", "dim"])
    def test_bad_header_integer_exit_2(self, synth_dir, tmp_path, run_cli, field, value):
        ckpt = tmp_path / "z.sqf"
        make_zero_checkpoint(ckpt)
        data = ckpt.read_bytes()
        (n,) = struct.unpack("<I", data[4:8])
        header = json.loads(data[8 : 8 + n])
        if field == "best_epoch":
            header["best_epoch"] = value
        else:
            header["track_dims"][0][1] = value
        raw = json.dumps(header, sort_keys=True).encode()
        ckpt.write_bytes(data[:4] + struct.pack("<I", len(raw)) + raw + data[8 + n :])
        code, _, err = run_cli("evaluate", "--checkpoint", ckpt,
                               "--manifest", synth_dir / "manifest.json")
        assert code == 2, err
        assert f"{ckpt}: " in err and "must be an integer >= " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("edit", [
        lambda raw: raw.replace(b'"best_epoch": 0', b'"best_epoch": 0, "best_epoch": 2'),
        lambda raw: raw.replace(b'{"best_ccc"', b'{"extra": 1, "best_ccc"'),
    ], ids=["repeated-key", "extra-key"])
    def test_header_with_a_key_save_never_writes_exit_2(self, synth_dir, tmp_path, run_cli, edit):
        ckpt = tmp_path / "z.sqf"
        make_zero_checkpoint(ckpt)
        data = ckpt.read_bytes()
        (n,) = struct.unpack("<I", data[4:8])
        raw = edit(data[8 : 8 + n])
        assert raw != data[8 : 8 + n]
        ckpt.write_bytes(data[:4] + struct.pack("<I", len(raw)) + raw + data[8 + n :])
        out = tmp_path / "report.json"
        code, _, err = run_cli("evaluate", "--checkpoint", ckpt, "--out", out,
                               "--manifest", synth_dir / "manifest.json")
        assert (code, err) == (
            2, f"error: {ckpt}: header differs from the one its fields are saved with\n"
        )
        assert not out.exists()


class TestPredict:
    def test_zero_checkpoint_predicts_zero(self, synth_dir, tmp_path, run_cli):
        ckpt_path = tmp_path / "z.sqf"
        make_zero_checkpoint(ckpt_path)
        out = tmp_path / "preds"
        code, _, err = run_cli("predict", "--checkpoint", ckpt_path,
                               "--manifest", synth_dir / "manifest.json",
                               "--out-dir", out)
        assert code == 0, err
        files = sorted(out.glob("*.csv"))
        assert len(files) == 3 and sorted(out.iterdir()) == [out / "index.json", *files]
        lines = files[0].read_text().splitlines()
        assert lines[0] == "frame_ms,prediction"
        assert all(line.endswith(",0.0") for line in lines[1:])
        assert lines[1].startswith("0,")
        assert lines[2].startswith("250,")

    def test_out_of_range_output_clamped(self, synth_dir, tmp_path, run_cli):
        ckpt_path = tmp_path / "bias.sqf"
        make_zero_checkpoint(ckpt_path, head_out_bias=1.7)
        out = tmp_path / "preds"
        code, _, err = run_cli("predict", "--checkpoint", ckpt_path,
                               "--manifest", synth_dir / "manifest.json",
                               "--out-dir", out)
        assert code == 0, err
        for path in out.glob("*.csv"):
            for line in path.read_text().splitlines()[1:]:
                assert line.endswith(",1.0")

    def test_partition_filter(self, synth_dir, tmp_path, run_cli):
        ckpt_path = tmp_path / "z.sqf"
        make_zero_checkpoint(ckpt_path)
        out = tmp_path / "preds"
        code, *_ = run_cli("predict", "--checkpoint", ckpt_path,
                           "--manifest", synth_dir / "manifest.json",
                           "--out-dir", out, "--partition", "devel")
        assert code == 0
        assert len(list(out.iterdir())) == 2  # one prediction file and the index

    def test_index_lists_only_the_last_runs_files(self, synth_dir, tmp_path, run_cli):
        # Old prediction files of other videos stay beside the new ones, so
        # the index, written last, says which files the last run wrote.
        ckpt_path = tmp_path / "z.sqf"
        make_zero_checkpoint(ckpt_path)
        manifest, out = synth_dir / "manifest.json", tmp_path / "preds"
        for partition in ("all", "devel"):
            code, _, err = run_cli("predict", "--checkpoint", ckpt_path, "--manifest", manifest,
                                   "--out-dir", out, "--partition", partition)
            assert code == 0, err
        assert len(list(out.glob("*.csv"))) == 3
        index = (out / "index.json").read_text()
        assert json.loads(index) == {
            "checkpoint_sha256": hashlib.sha256(ckpt_path.read_bytes()).hexdigest(),
            "manifest_sha256": hashlib.sha256(manifest.read_bytes()).hexdigest(),
            "partition": "devel",
            "target": "arousal",
            "files": ["video002_arousal.csv"],
        }
        assert index == json.dumps(json.loads(index), indent=2, sort_keys=True) + "\n"

    def test_reads_each_input_once_and_indexes_the_bytes_it_scored(
        self, synth_dir, tmp_path, run_cli, monkeypatch
    ):
        # The checkpoint and the manifest are each replaced right after they
        # are read, so an index that hashed a second read of either would not
        # name the bytes that were scored.
        ckpt_path = tmp_path / "z.sqf"
        make_zero_checkpoint(ckpt_path)
        manifest = synth_dir / "manifest.json"
        inputs = sorted([ckpt_path, *(p for p in synth_dir.rglob("*") if p.is_file())])
        # The checkpoint, the manifest, and 6 label files, Feature CSVs and sidecars.
        assert len(inputs) == 1 + 1 + 6 + 6 + 6
        reads, scored = [], {}
        read_bytes = Path.read_bytes

        def replacing_read_bytes(path):
            data = read_bytes(path)
            reads.append(path)
            scored.setdefault(path, data)
            if path in (ckpt_path, manifest):
                path.write_bytes(data + b" ")
            return data

        monkeypatch.setattr(Path, "read_bytes", replacing_read_bytes)
        out = tmp_path / "preds"
        code, _, err = run_cli("predict", "--checkpoint", ckpt_path, "--manifest", manifest,
                               "--out-dir", out)
        monkeypatch.undo()
        assert code == 0, err
        assert sorted(reads) == inputs
        index = json.loads((out / "index.json").read_text())
        assert (index["checkpoint_sha256"], index["manifest_sha256"]) == (
            hashlib.sha256(scored[ckpt_path]).hexdigest(),
            hashlib.sha256(scored[manifest]).hexdigest())

    def test_failed_run_leaves_no_index(self, synth_dir, tmp_path, run_cli, monkeypatch):
        ckpt_path = tmp_path / "z.sqf"
        make_zero_checkpoint(ckpt_path)
        argv = ["predict", "--checkpoint", ckpt_path, "--manifest", synth_dir / "manifest.json",
                "--out-dir", tmp_path / "preds"]
        assert run_cli(*argv)[0] == 0
        assert (tmp_path / "preds" / "index.json").is_file()
        real_write_atomic, written = cli_module.write_atomic, []

        def second_write_fails(path, data):
            written.append(Path(path).name)
            if len(written) == 2:
                raise OSError(28, "No space left on device")
            real_write_atomic(path, data)

        monkeypatch.setattr(cli_module, "write_atomic", second_write_fails)
        code, stdout, err = run_cli(*argv)
        assert (code, stdout, err) == (3, "", "I/O error: [Errno 28] No space left on device\n")
        assert written == ["video000_arousal.csv", "video001_arousal.csv"]
        assert not (tmp_path / "preds" / "index.json").exists()

    def test_index_over_the_manifest_exit_2_writing_nothing(self, synth_dir, tmp_path, run_cli):
        manifest = synth_dir / "index.json"
        (synth_dir / "manifest.json").rename(manifest)
        ckpt_path = tmp_path / "z.sqf"
        make_zero_checkpoint(ckpt_path)
        before = tree_bytes(tmp_path)
        code, stdout, err = run_cli("predict", "--checkpoint", ckpt_path, "--manifest", manifest,
                                    "--out-dir", synth_dir)
        assert (code, stdout, err) == (
            2, "", f"error: {manifest}: predict --out-dir would write this file, which "
            "predict --manifest reads\n")
        assert tree_bytes(tmp_path) == before

    @pytest.mark.parametrize("name", ["video000_arousal.csv", "index.json"])
    def test_output_that_is_a_directory_exit_2_before_loading(
        self, synth_dir, tmp_path, run_cli, no_video_loads, name
    ):
        # It once scored every video, then exited 3 when the write met the
        # directory.
        out = tmp_path / "preds"
        (out / name).mkdir(parents=True)
        ckpt_path = tmp_path / "z.sqf"
        make_zero_checkpoint(ckpt_path)
        before = paths_and_bytes(tmp_path)
        code, stdout, err = run_cli("predict", "--checkpoint", ckpt_path,
                                    "--manifest", synth_dir / "manifest.json", "--out-dir", out)
        assert (code, stdout, err) == (
            2, "", f"error: {out / name}: predict --out-dir would write this file, {DIRECTORY}\n")
        assert paths_and_bytes(tmp_path) == before

    def test_out_dir_that_is_a_regular_file_exit_2_before_loading(
        self, synth_dir, tmp_path, run_cli, no_video_loads, blocker
    ):
        # It once scored every video, then exited 3 when making the output
        # directory met the file.
        ckpt_path = tmp_path / "z.sqf"
        make_zero_checkpoint(ckpt_path)
        before = paths_and_bytes(tmp_path)
        code, stdout, err = run_cli("predict", "--checkpoint", ckpt_path,
                                    "--manifest", synth_dir / "manifest.json",
                                    "--out-dir", blocker)
        assert (code, stdout, err) == (
            2, "", under_a_file(blocker / "video000_arousal.csv", "predict --out-dir", blocker))
        assert paths_and_bytes(tmp_path) == before

    def test_empty_partition_exit_2_naming_it(self, synth_dir, tmp_path, run_cli):
        ckpt_path = tmp_path / "z.sqf"
        make_zero_checkpoint(ckpt_path)
        out = tmp_path / "preds"
        code, _, err = run_cli("predict", "--checkpoint", ckpt_path,
                               "--manifest", synth_dir / "manifest.json",
                               "--out-dir", out, "--partition", "test")
        assert code == 2
        assert "'test'" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("out_dir", ["labels", "symlinked-labels", "features"])
    def test_out_dir_holding_its_inputs_exit_2_writing_nothing(self, tmp_path, run_cli,
                                                               out_dir):
        # Predicting the test partition into the tree's labels/ once replaced
        # its label files with predictions, and the next evaluate exited 2
        # with "bad label header". A track named like the target puts a
        # Feature CSV where features/ as --out-dir puts a prediction file.
        data = tmp_path / "data"
        code, _, err = run_cli("synth", "--out-dir", data, "--seed", 5, "--n-train", 2,
                               "--n-devel", 1, "--n-test", 2, "--dims", "2,3",
                               "--t-range", "8:14")
        assert code == 0, err
        track_dims = (("track0", 2), ("track1", 3))
        reader, partition = "video003", "test"
        if out_dir == "features":
            raw = json.loads((data / "manifest.json").read_text())
            for vid, entry in raw["videos"].items():
                del entry["features"]["track0"]
                entry["features"]["arousal"] = f"features/{vid}_arousal.csv"
                for suffix in ("", ".cols"):
                    (data / f"features/{vid}_track0.csv{suffix}").rename(
                        data / f"features/{vid}_arousal.csv{suffix}")
            (data / "manifest.json").write_text(json.dumps(raw))
            track_dims = (("arousal", 2), ("track1", 3))
            reader, partition = "video000", "all"
        out = data / out_dir
        if out_dir == "symlinked-labels":
            out = tmp_path / "preds"
            out.symlink_to(data / "labels", target_is_directory=True)
        ckpt_path = tmp_path / "z.sqf"
        make_zero_checkpoint(ckpt_path, track_dims=track_dims)
        before = tree_bytes(tmp_path)
        code, stdout, err = run_cli("predict", "--checkpoint", ckpt_path,
                                    "--manifest", data / "manifest.json",
                                    "--out-dir", out, "--partition", partition)
        assert (code, stdout, err) == (
            2, "", f"error: {out / f'{reader}_arousal.csv'}: predict --out-dir would write "
            f"this file, which video {reader!r} reads\n")
        assert tree_bytes(tmp_path) == before
        assert run_cli("evaluate", "--checkpoint", ckpt_path, "--manifest",
                       data / "manifest.json", "--partition", partition)[0] == 0

    def test_out_dir_over_an_unscored_videos_feature_csv_exit_2_writing_nothing(
            self, tmp_path, run_cli):
        # A train video's Feature CSV named like devel's prediction file: predicting
        # devel into its directory once replaced that input of an unscored video.
        data = tmp_path / "data"
        code, _, err = run_cli("synth", "--out-dir", data, "--seed", 5, "--n-train", 2,
                               "--n-devel", 1, "--dims", "2,3", "--t-range", "8:14")
        assert code == 0, err
        raw = json.loads((data / "manifest.json").read_text())
        out = data / "preds"
        out.mkdir()
        for suffix in ("", ".cols"):
            (data / f"features/video000_track0.csv{suffix}").rename(
                out / f"video002_arousal.csv{suffix}")
        raw["videos"]["video000"]["features"]["track0"] = "preds/video002_arousal.csv"
        (data / "manifest.json").write_text(json.dumps(raw))
        ckpt_path = tmp_path / "z.sqf"
        make_zero_checkpoint(ckpt_path)
        before = tree_bytes(tmp_path), sorted(tmp_path.rglob("*"))
        code, stdout, err = run_cli("predict", "--checkpoint", ckpt_path,
                                    "--manifest", data / "manifest.json",
                                    "--out-dir", out, "--partition", "devel")
        assert (code, stdout) == (2, "")
        assert "predict --out-dir" in err and "video 'video000'" in err
        assert (tree_bytes(tmp_path), sorted(tmp_path.rglob("*"))) == before

    def test_test_video_bytes_same_when_predicted_with_all(self, tmp_path, run_cli):
        raw = tmp_path / "raw"
        code, _, err = run_cli(
            "synth", "--out-dir", raw, "--seed", 8, "--n-train", 2, "--n-devel", 1,
            "--n-test", 3, "--dims", "2,3", "--t-range", "20:80",
        )
        assert code == 0, err
        ckpt_path = tmp_path / "r.sqf"
        cfg = TrainConfig(
            target="arousal", embed_dim=4, hidden_units=5, head_hidden=3,
            epochs=1, seed=0, track_order=["track0", "track1"],
        )
        model = init_model(3, {"D": 5, "e": 4, "h": 5, "m": 3})
        save_checkpoint(Checkpoint(model, cfg, (("track0", 2), ("track1", 3)), 0.0, 0), ckpt_path)
        outs = {}
        for partition in ("test", "all"):
            code, _, err = run_cli("predict", "--checkpoint", ckpt_path,
                                   "--manifest", raw / "manifest.json",
                                   "--out-dir", tmp_path / partition, "--partition", partition)
            assert code == 0, err
            outs[partition] = tree_bytes(tmp_path / partition)
            del outs[partition]["index.json"]  # it names the partition
        assert (len(outs["test"]), len(outs["all"])) == (3, 6)
        for name, data in outs["test"].items():
            assert outs["all"][name] == data, name
            values = {line.split(b",")[1] for line in data.splitlines()[1:]}
            assert len(values) > 2  # not clamped to a constant


class TestCliSurface:
    @pytest.mark.parametrize("command", ["synth", "align", "train", "evaluate", "predict"])
    def test_help_lists_flags_with_defaults(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--help" in out
        assert "default" in out

    @pytest.mark.parametrize(
        "command",
        [
            ["align", "--manifest", "m.json", "--out-dir", "o"],
            ["evaluate", "--checkpoint", "c.sqf", "--manifest", "m.json"],
            ["predict", "--checkpoint", "c.sqf", "--manifest", "m.json", "--out-dir", "o"],
        ],
        ids=["align", "evaluate", "predict"],
    )
    def test_frame_len_flag_is_gone(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main([*command, "--frame-len-ms", "250"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --frame-len-ms 250" in capsys.readouterr().err

    def test_no_subcommand_exits_2(self, capsys):
        assert cli_main([]) == 2

    def test_missing_manifest_exit_2(self, tmp_path, run_cli):
        code, _, err = run_cli("align", "--manifest", tmp_path / "nope.json",
                               "--out-dir", tmp_path / "o")
        assert code == 2
        assert "nope.json" in err

    def test_missing_checkpoint_exit_2(self, synth_dir, tmp_path, run_cli):
        code, _, err = run_cli("evaluate", "--checkpoint", tmp_path / "gone.sqf",
                               "--manifest", synth_dir / "manifest.json")
        assert code == 2
        assert "gone.sqf" in err

    def test_unwritable_out_dir_exit_3(self, synth_dir, tmp_path, run_cli, monkeypatch):
        # The OS refuses to make the directory, as a read-only parent does
        # for a user other than root. (A regular file in its way is refused
        # with exit 2 before any work: see TestAlign.)
        blocked = tmp_path / "blocked"
        real_mkdir = Path.mkdir

        def refuse(self, *args, **kwargs):
            if blocked in (self, *self.parents):
                raise PermissionError(13, "Permission denied", str(self))
            return real_mkdir(self, *args, **kwargs)

        monkeypatch.setattr(Path, "mkdir", refuse)
        code, _, err = run_cli("align", "--manifest", synth_dir / "manifest.json",
                               "--out-dir", blocked)
        assert code == 3


def corrupt(path: Path, fault: str) -> None:
    """Make ``path`` missing, a directory, or hold byte 0xff at the start of line 2."""
    if fault == "missing":
        path.unlink()
    elif fault == "directory":
        path.unlink()
        path.mkdir()
    else:
        first, _, rest = path.read_bytes().partition(b"\n")
        path.write_bytes(first + b"\n\xff" + rest)


# Every input file kind, through every command that reads it.
INPUT_CASES = [
    ("feature", "align"), ("feature", "train"), ("feature", "evaluate"), ("feature", "predict"),
    ("label", "align"), ("label", "train"), ("label", "evaluate"), ("label", "predict"),
    ("manifest", "align"), ("manifest", "train"), ("manifest", "evaluate"),
    ("manifest", "predict"), ("config", "train"), ("checkpoint", "evaluate"),
    ("checkpoint", "predict"),
]


def assert_bad_input_file_exit_2_naming_path(synth_dir, tmp_path, run_cli, kind, command, fault):
    manifest = synth_dir / "manifest.json"
    raw = json.loads(manifest.read_text())
    entry = next(iter(raw["videos"].values()))
    ckpt = tmp_path / "z.sqf"
    make_zero_checkpoint(ckpt)
    cfg = write_train_config(tmp_path / "cfg.json", manifest, tmp_path / "run")
    victim = {
        "feature": synth_dir / entry["features"]["track0"],
        "label": synth_dir / entry["labels"]["arousal"],
        "manifest": manifest,
        "config": cfg,
        "checkpoint": ckpt,
    }[kind]
    if fault == "nul":
        # The file stays intact; the path that names it gains a NUL byte.
        victim = Path(f"{victim}\0")
        if kind in ("feature", "label"):
            key, name = ("features", "track0") if kind == "feature" else ("labels", "arousal")
            entry[key][name] += "\0"
            manifest.write_text(json.dumps(raw))
        elif kind == "manifest":
            manifest = victim
            write_train_config(cfg, manifest, tmp_path / "run")
        elif kind == "config":
            cfg = victim
        else:
            ckpt = victim
    argv = {
        "align": ["align", "--manifest", manifest, "--out-dir", tmp_path / "out"],
        "train": ["train", "--config", cfg],
        "evaluate": ["evaluate", "--checkpoint", ckpt, "--manifest", manifest,
                     "--partition", "all"],
        "predict": ["predict", "--checkpoint", ckpt, "--manifest", manifest,
                    "--out-dir", tmp_path / "preds"],
    }[command]
    if fault != "nul":
        corrupt(victim, fault)
    code, _, err = run_cli(*argv)
    assert code == 2, err
    assert "Traceback" not in err
    assert (repr(str(victim)) if fault == "nul" else str(victim)) in err
    if fault == "non-utf8" and kind != "checkpoint":
        assert f"{victim}:2: not UTF-8" in err


@pytest.mark.parametrize("command", ["align", "train", "evaluate"])
def test_label_files_of_two_lengths_exit_2_naming_video_and_target(
    synth_dir, tmp_path, run_cli, trained_checkpoint, command
):
    # The frame count comes from a video's first label file; LabeledSequence
    # refuses one of another length.
    valence = synth_dir / "labels" / "video000_valence.csv"
    valence.write_text("".join(valence.read_text().splitlines(keepends=True)[:-1]))
    manifest = synth_dir / "manifest.json"
    argv = {
        "align": ["--manifest", manifest, "--out-dir", tmp_path / "aligned"],
        "train": ["--config", write_train_config(tmp_path / "cfg2.json", manifest,
                                                 tmp_path / "run2")],
        "evaluate": ["--checkpoint", tmp_path / "run" / "checkpoint.sqf",
                     "--manifest", manifest, "--partition", "train"],
    }[command]
    code, _, err = run_cli(command, *argv)
    assert code == 2
    assert "video000" in err and "'valence'" in err and "Traceback" not in err


class TestInputFileContract:
    @pytest.mark.parametrize("fault", ["missing", "directory", "non-utf8", "nul"])
    @pytest.mark.parametrize("kind, command", INPUT_CASES, ids=[f"{k}-{c}" for k, c in INPUT_CASES])
    def test_bad_input_file_exit_2_naming_path(
        self, synth_dir, tmp_path, run_cli, kind, command, fault
    ):
        assert_bad_input_file_exit_2_naming_path(synth_dir, tmp_path, run_cli, kind, command, fault)

    def test_align_failing_on_later_video_writes_no_manifest(self, synth_dir, tmp_path, run_cli):
        manifest = synth_dir / "manifest.json"
        *_, last = json.loads(manifest.read_text())["videos"].values()
        corrupt(synth_dir / last["features"]["track1"], "non-utf8")
        out = tmp_path / "out"
        code, _, err = run_cli("align", "--manifest", manifest, "--out-dir", out)
        assert code == 2, err
        assert any((out / "features").iterdir())  # earlier videos were aligned
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("video_id", ["../../escaped", "esc\0aped"], ids=["dotdot", "nul"])
    @pytest.mark.parametrize("command", ["align", "predict"])
    def test_unsafe_video_id_exit_2_writing_nothing(
        self, synth_dir, tmp_path, run_cli, command, video_id
    ):
        manifest = synth_dir / "manifest.json"
        raw = json.loads(manifest.read_text())
        raw["videos"] = {video_id if vid == "video000" else vid: entry
                         for vid, entry in raw["videos"].items()}
        manifest.write_text(json.dumps(raw))
        ckpt = tmp_path / "z.sqf"
        make_zero_checkpoint(ckpt)
        before = tree_bytes(tmp_path)
        argv = {
            "align": ["align", "--manifest", manifest, "--out-dir", tmp_path / "out" / "aligned"],
            "predict": ["predict", "--checkpoint", ckpt, "--manifest", manifest,
                        "--out-dir", tmp_path / "out" / "preds"],
        }[command]
        code, _, err = run_cli(*argv)
        assert code == 2, err
        assert str(manifest) in err and repr(video_id) in err and "Traceback" not in err
        assert tree_bytes(tmp_path) == before
        assert not (tmp_path / "out").exists()


class TestFrameGrid:
    """The frame grid is the manifest's ``frame_len_ms``; no command takes it."""

    @pytest.mark.parametrize(
        "value", ["abc", [1], 2.5, True, 0, -5],
        ids=["string", "list", "float", "bool", "zero", "negative"],
    )
    @pytest.mark.parametrize("command", ["align", "train", "evaluate", "predict"])
    def test_bad_manifest_frame_len_exit_2_naming_manifest(
        self, synth_dir, tmp_path, run_cli, command, value
    ):
        manifest = synth_dir / "manifest.json"
        raw = json.loads(manifest.read_text())
        raw["frame_len_ms"] = value
        manifest.write_text(json.dumps(raw))
        out = tmp_path / "out"
        ckpt = tmp_path / "z.sqf"
        make_zero_checkpoint(ckpt)
        argv = {
            "align": ["--manifest", manifest, "--out-dir", out],
            "train": ["--config", write_train_config(tmp_path / "cfg.json", manifest, out)],
            "evaluate": ["--checkpoint", ckpt, "--manifest", manifest, "--out", out / "r"],
            "predict": ["--checkpoint", ckpt, "--manifest", manifest, "--out-dir", out],
        }[command]
        code, _, err = run_cli(command, *argv)
        assert code == 2, err
        assert f"{manifest}: frame_len_ms must be an integer >= 1, got {value!r}" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["align", "train", "evaluate", "predict"])
    def test_frame_len_past_int64_exit_2_naming_manifest(
        self, synth_dir, tmp_path, run_cli, command
    ):
        manifest = synth_dir / "manifest.json"
        raw = json.loads(manifest.read_text())
        raw["frame_len_ms"] = 2**63
        manifest.write_text(json.dumps(raw))
        out = tmp_path / "out"
        ckpt = tmp_path / "z.sqf"
        make_zero_checkpoint(ckpt)
        argv = {
            "align": ["--manifest", manifest, "--out-dir", out],
            "train": ["--config", write_train_config(tmp_path / "cfg.json", manifest, out)],
            "evaluate": ["--checkpoint", ckpt, "--manifest", manifest, "--out", out / "r"],
            "predict": ["--checkpoint", ckpt, "--manifest", manifest, "--out-dir", out],
        }[command]
        code, _, err = run_cli(command, *argv)
        assert code == 2, err
        assert err == f"error: {manifest}: frame_len_ms {2**63} is past the int64 range\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["align", "train"])
    def test_label_grid_wrapping_past_int64_exit_2(self, tmp_path, run_cli, command):
        # On the grid 0, 2**63 - 1, 2 * (2**63 - 1), the last wraps to -2 in int64.
        data = tmp_path / "data"
        data.mkdir()
        (data / "f.csv").write_text("start_ms,end_ms,f0,f1\n0,5,1.0,2.0\n")
        (data / "bad.csv").write_text(f"frame_ms,value\n0,0.5\n{2**63 - 1},0.5\n-2,0.5\n")
        (data / "good.csv").write_text("frame_ms,value\n0,0.5\n")
        videos = {
            vid: {"partition": partition, "features": {"track0": "f.csv"},
                  "labels": {"arousal": labels}}
            for vid, partition, labels in [("v", "train", "bad.csv"), ("w", "devel", "good.csv")]
        }
        manifest = data / "manifest.json"
        manifest.write_text(json.dumps({"frame_len_ms": 2**63 - 1, "videos": videos}))
        out = tmp_path / "out"
        argv = {
            "align": ["--manifest", manifest, "--out-dir", out],
            "train": ["--config", write_train_config(tmp_path / "cfg.json", manifest, out,
                                                      track_order=["track0"])],
        }[command]
        code, _, err = run_cli(command, *argv)
        assert code == 2, err
        assert err == f"error: {data / 'bad.csv'}:4: frame_ms -2 != {2 * (2**63 - 1)}\n"
        assert not (out / "manifest.json").exists() and not (out / "checkpoint.sqf").exists()

    def test_misspelt_grid_key_exit_2_naming_manifest_and_key(self, tmp_path, run_cli):
        videos = synth_generate(6, 2, (10, 16), [2, 3], 100.0)
        for video in videos:
            video.frame_len_ms = 500
        raw = tmp_path / "raw"
        write_dataset(raw, zip(["train", "devel"], videos))
        manifest = raw / "manifest.json"
        payload = json.loads(manifest.read_text())
        payload["frame_len"] = payload.pop("frame_len_ms")
        manifest.write_text(json.dumps(payload))
        out = tmp_path / "out"
        code, _, err = run_cli("align", "--manifest", manifest, "--out-dir", out)
        assert code == 2, err
        assert f"{manifest}: unknown manifest keys: 'frame_len'" in err
        assert "Traceback" not in err and not out.exists()

    def test_500ms_dataset_runs_with_no_grid_argument(self, tmp_path, run_cli):
        videos = synth_generate(6, 3, (10, 16), [2, 3], 100.0)
        for video in videos:
            video.frame_len_ms = 500
        raw, aligned, run_dir = tmp_path / "raw", tmp_path / "aligned", tmp_path / "run"
        write_dataset(raw, zip(["train", "train", "devel"], videos))
        code, _, err = run_cli("align", "--manifest", raw / "manifest.json", "--out-dir", aligned)
        assert code == 0, err
        manifest = load_manifest(aligned / "manifest.json")
        assert manifest.frame_len_ms == 500
        cfg = write_train_config(tmp_path / "cfg.json", aligned / "manifest.json", run_dir)
        code, _, err = run_cli("train", "--config", cfg)
        assert code == 0, err
        ckpt = run_dir / "checkpoint.sqf"
        report = tmp_path / "report.json"
        code, _, err = run_cli("evaluate", "--checkpoint", ckpt,
                               "--manifest", aligned / "manifest.json", "--out", report)
        assert code == 0, err
        model = load_checkpoint(ckpt).model
        (devel,) = load_fused_datasets(manifest, ["devel"], ["track0", "track1"])
        expected = evaluate(model, devel, "arousal").to_dict()
        assert report.read_text() == json.dumps(expected, indent=2, sort_keys=True) + "\n"
        code, _, err = run_cli("predict", "--checkpoint", ckpt,
                               "--manifest", aligned / "manifest.json", "--out-dir", tmp_path / "p")
        assert code == 0, err
        for video in videos:
            rows = (tmp_path / "p" / f"{video.video_id}_arousal.csv").read_text().splitlines()
            frame_ms = [int(row.split(",")[0]) for row in rows[1:]]
            assert frame_ms == [500 * j for j in range(video.n_frames)]


@pytest.fixture
def pool_spy(monkeypatch):
    """Two usable CPUs, and a record of the worker count of every pool started.

    Every worker process must have stopped by the end of the test.
    """
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    started = []

    class SpyPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SpyPool)
    yield started
    assert multiprocessing.active_children() == []


@pytest.fixture
def pooled(pool_spy, monkeypatch):
    """Make ``align``, ``evaluate`` and ``predict`` use workers on any input."""
    monkeypatch.setattr(pool, "POOL_MIN_INPUT_BYTES", 0)
    return pool_spy


class TestPooledAlign:
    """``align`` in worker processes keeps the serial run's bytes, errors and exit codes."""

    def test_golden_bytes(self, tmp_path, run_cli, pooled):
        assert_align_golden_bytes(tmp_path, run_cli)
        assert pooled == [2]

    @pytest.mark.parametrize("entries,collision", COLLISION_CASES, ids=["features", "labels"])
    def test_colliding_file_names_exit_2_without_overwriting(
        self, tmp_path, run_cli, pooled, entries, collision
    ):
        assert_collision_exit_2_without_overwriting(tmp_path, run_cli, pooled, entries, collision)

    def test_collision_after_two_videos_exit_2_without_overwriting(
        self, tmp_path, run_cli, pooled
    ):
        entries, collision = COLLISION_CASES[0]
        first, last = entries.items()
        entries = dict([first, ("z", ("t", "arousal")), last])
        assert_collision_exit_2_without_overwriting(tmp_path, run_cli, pooled, entries, collision)

    @pytest.mark.parametrize("row", ["0,500,x", "500,0,1.0"], ids=["cell", "span"])
    def test_collision_reported_before_an_earlier_videos_malformed_features(
        self, tmp_path, run_cli, pooled, row
    ):
        entries, collision = COLLISION_CASES[0]
        first, last = entries.items()
        entries = dict([first, ("z", ("t", "arousal")), last])
        assert_collision_exit_2_without_overwriting(tmp_path, run_cli, pooled, entries, collision,
                                                    feature_rows=[row])

    def test_mixed_track_dims_align_as_in_serial(self, tmp_path, run_cli, pool_spy, monkeypatch):
        # Unlike train, evaluate and predict, align does not compare videos' tracks.
        manifest = write_mixed_dims_dataset(tmp_path / "raw", "train")
        trees = []
        for threshold in (pool.POOL_MIN_INPUT_BYTES, 0):
            monkeypatch.setattr(pool, "POOL_MIN_INPUT_BYTES", threshold)
            out = tmp_path / f"out{threshold}"
            code, _, err = run_cli("align", "--manifest", manifest, "--out-dir", out)
            assert code == 0, err
            trees.append(tree_bytes(out))
        assert pool_spy == [2]  # only the run at threshold 0
        assert trees[0] == trees[1] == tree_bytes(tmp_path / "raw")

    @pytest.mark.parametrize("fault", ["missing", "directory", "non-utf8", "nul"])
    @pytest.mark.parametrize("kind", ["feature", "label"])
    def test_bad_input_file_exit_2_naming_path(
        self, synth_dir, tmp_path, run_cli, pooled, kind, fault
    ):
        assert_bad_input_file_exit_2_naming_path(synth_dir, tmp_path, run_cli, kind, "align", fault)
        assert pooled == [2]

    def test_label_error_in_later_video_writes_no_manifest(
        self, synth_dir, tmp_path, run_cli, pooled
    ):
        manifest = synth_dir / "manifest.json"
        *_, last = json.loads(manifest.read_text())["videos"].values()
        label = synth_dir / last["labels"]["valence"]
        rows = label.read_text().splitlines()
        rows[2] = rows[2].split(",")[0] + ",1.5"
        label.write_text("\n".join(rows) + "\n")
        out = tmp_path / "out"
        code, _, err = run_cli("align", "--manifest", manifest, "--out-dir", out)
        assert code == 2, err
        assert f"{label}:3: label 1.5 outside [-1, 1]" in err and "Traceback" not in err
        assert any((out / "features").iterdir())  # earlier videos were aligned
        assert not (out / "manifest.json").exists()
        assert pooled == [2]

    def test_same_tree_just_below_and_at_the_threshold(self, tmp_path, run_cli, pool_spy):
        raw = tmp_path / "raw"
        write_dataset(raw, zip(["train", "devel"], synth_generate(1, 2, (230, 230), [200, 200], 100.0)))
        manifest = load_manifest(raw / "manifest.json")
        size = sum(featureio.input_bytes(manifest, manifest.videos, rewrites=True))
        assert size < pool.POOL_MIN_INPUT_BYTES
        # Blank lines are skipped by the reader, so padding changes only the size.
        padded = manifest.resolve(manifest.videos["video001"].features["track1"])
        with open(padded, "ab") as fh:
            fh.write(b"\n" * (pool.POOL_MIN_INPUT_BYTES - 1 - size))
        trees = []
        for extra in (b"", b"\n"):
            with open(padded, "ab") as fh:
                fh.write(extra)
            out = tmp_path / f"out{len(trees)}"
            code, _, err = run_cli("align", "--manifest", raw / "manifest.json", "--out-dir", out)
            assert code == 0, err
            trees.append(tree_bytes(out))
        size = sum(featureio.input_bytes(manifest, manifest.videos, rewrites=True))
        assert size == pool.POOL_MIN_INPUT_BYTES
        assert pool_spy == [2]  # only the run at the threshold
        assert trees[0] == trees[1]

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_one_bad_input_file_aligns_as_in_serial(self, synth_dir, tmp_path, run_cli,
                                                     pool_spy, monkeypatch, data):
        files = data.draw(edited_dataset(tree_bytes(synth_dir)))
        root = Path(tempfile.mkdtemp(dir=tmp_path))
        for name, content in files.items():
            (root / name).parent.mkdir(parents=True, exist_ok=True)
            (root / name).write_bytes(content)
        runs = []
        for threshold in (pool.POOL_MIN_INPUT_BYTES, 0):
            monkeypatch.setattr(pool, "POOL_MIN_INPUT_BYTES", threshold)
            out = root / f"out{threshold}"
            code, _, err = run_cli("align", "--manifest", root / "manifest.json", "--out-dir", out)
            runs.append((code, err.replace(str(out), "OUT"), out))
        (code, err, out), (pooled_code, pooled_err, pooled_out) = runs
        assert code in (0, 2, 3), err
        assert pooled_code == code, (err, pooled_err)
        assert pooled_err.splitlines()[-1:] == err.splitlines()[-1:]
        assert "Traceback" not in err + pooled_err
        if code:
            # A pooled failure may leave other groups' files: only the manifests are compared.
            assert not (out / "manifest.json").exists()
            assert not (pooled_out / "manifest.json").exists()
        else:
            assert tree_bytes(pooled_out) == tree_bytes(out)


def write_scoring_checkpoint(path):
    """A checkpoint of a random model on track0:2, track1:3, whose predictions vary."""
    cfg = TrainConfig(
        target="arousal", embed_dim=4, hidden_units=5, head_hidden=3,
        epochs=1, seed=0, track_order=["track0", "track1"],
    )
    model = init_model(3, {"D": 5, "e": 4, "h": 5, "m": 3})
    save_checkpoint(Checkpoint(model, cfg, (("track0", 2), ("track1", 3)), 0.0, 0), path)
    return path


def score_outputs(run_cli, ckpt, manifest, out):
    """Exit codes and output of evaluate and predict over all videos, and the predictions."""
    code_e, report, err_e = run_cli("evaluate", "--checkpoint", ckpt, "--manifest", manifest,
                                    "--partition", "all")
    code_p, out_p, err_p = run_cli("predict", "--checkpoint", ckpt, "--manifest", manifest,
                                   "--out-dir", out)
    return (code_e, report, err_e, code_p, out_p.replace(str(out), "OUT"), err_p), tree_bytes(out)


def groups_of(manifest_path, partition):
    """The video groups that a two-worker pool scores, as ``score_partition`` splits them."""
    manifest = load_manifest(manifest_path)
    ids = manifest.video_ids(partition)
    return pool._split_by_size(ids, featureio.input_bytes(manifest, ids), 2)


class TestPooledScoring:
    """``evaluate`` and ``predict`` in worker processes keep the serial run's bytes and errors."""

    def test_same_outputs_below_and_at_the_threshold(self, synth_dir, tmp_path, run_cli,
                                                     pool_spy, monkeypatch):
        ckpt = write_scoring_checkpoint(tmp_path / "r.sqf")
        manifest = synth_dir / "manifest.json"
        loaded = load_manifest(manifest)
        size = sum(featureio.input_bytes(loaded, loaded.videos))
        runs = []
        for threshold in (size + 1, size):
            monkeypatch.setattr(pool, "POOL_MIN_INPUT_BYTES", threshold)
            runs.append(score_outputs(run_cli, ckpt, manifest, tmp_path / f"p{threshold}"))
            assert multiprocessing.active_children() == []
        assert pool_spy == [2, 2]  # only the runs at the threshold
        (serial, serial_preds), (pooled_run, pooled_preds) = runs
        assert serial[0] == serial[3] == 0 and "wrote predictions for 3" in serial[4], serial
        assert pooled_run == serial
        assert pooled_preds == serial_preds and len(serial_preds) == 3 + 1  # and the index
        values = {line.split(b",")[1] for name, data in serial_preds.items()
                  if name.endswith(".csv") for line in data.splitlines()[1:]}
        assert len(values) > 2  # not clamped to a constant

    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    def test_dataset_dims_other_than_the_checkpoints_exit_2(self, tmp_path, run_cli, pooled,
                                                            command):
        assert_dims_other_than_the_checkpoints_exit_2(tmp_path, run_cli, command, "all")
        assert pooled == [2]

    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    def test_partition_with_two_sets_of_dims_exit_2(self, tmp_path, run_cli, pooled, command):
        assert_partition_with_two_sets_of_dims_exit_2(tmp_path, run_cli, command)
        groups = groups_of(tmp_path / "raw" / "manifest.json", "train")
        assert ["video003"] in groups and "video000" not in groups[groups.index(["video003"])]
        assert pooled == [2]

    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    def test_first_videos_other_dims_reported_before_a_later_load_error(
        self, tmp_path, run_cli, pool_spy, monkeypatch, command
    ):
        # Each video is checked against the checkpoint as soon as it is loaded.
        raw = tmp_path / "raw"
        code, _, err = run_cli("synth", "--out-dir", raw, "--seed", 5, "--n-train", 2,
                               "--n-devel", 1, "--dims", "3,2", "--t-range", "8:14")
        assert code == 0, err
        videos = json.loads((raw / "manifest.json").read_text())["videos"]
        corrupt(raw / videos["video002"]["labels"]["valence"], "non-utf8")
        ckpt = tmp_path / "z.sqf"
        make_zero_checkpoint(ckpt)  # trained on track0:2, track1:3
        runs = []
        for threshold in (pool.POOL_MIN_INPUT_BYTES, 0):
            monkeypatch.setattr(pool, "POOL_MIN_INPUT_BYTES", threshold)
            out = tmp_path / f"out{threshold}"
            argv = {"evaluate": ["--out", out / "report.json"],
                    "predict": ["--out-dir", out]}[command]
            code, stdout, err = run_cli(command, "--checkpoint", ckpt,
                                        "--manifest", raw / "manifest.json",
                                        "--partition", "all", *argv)
            runs.append((code, stdout, err, out.exists()))
        assert pool_spy == [2]  # only the run at threshold 0
        assert runs[0] == runs[1] == (
            2, "", f"error: video000: track 'track0' has dim 3 where checkpoint {ckpt} has "
            "track 'track0' of dim 2\n", False
        )

    @pytest.mark.parametrize("fault", ["missing", "directory", "non-utf8", "nul"])
    @pytest.mark.parametrize("kind", ["feature", "label", "manifest", "checkpoint"])
    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    def test_bad_input_file_exit_2_naming_path(
        self, synth_dir, tmp_path, run_cli, pooled, command, kind, fault
    ):
        assert_bad_input_file_exit_2_naming_path(synth_dir, tmp_path, run_cli, kind, command, fault)
        # A bad manifest or checkpoint is found before any video is loaded.
        assert pooled == ([2] if kind in ("feature", "label") else [])

    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    def test_first_failure_in_manifest_order_reported_across_groups(
        self, synth_dir, tmp_path, run_cli, pooled, command
    ):
        manifest = synth_dir / "manifest.json"
        groups = groups_of(manifest, "all")
        assert groups == [["video002"], ["video000", "video001"]]
        videos = json.loads(manifest.read_text())["videos"]
        for vid in ("video001", "video002"):
            corrupt(synth_dir / videos[vid]["labels"]["valence"], "non-utf8")
        ckpt = write_scoring_checkpoint(tmp_path / "r.sqf")
        out = tmp_path / "out"
        argv = {"evaluate": ["--out", out / "report.json"], "predict": ["--out-dir", out]}[command]
        code, _, err = run_cli(command, "--checkpoint", ckpt, "--manifest", manifest,
                               "--partition", "all", *argv)
        assert code == 2, err
        first = synth_dir / videos["video001"]["labels"]["valence"]
        assert f"error: {first}:2: not UTF-8" in err and "video002" not in err
        assert "Traceback" not in err and not out.exists()
        assert pooled == [2]

    def test_io_error_in_worker_exit_3_as_in_serial(self, synth_dir, tmp_path, run_cli,
                                                    pool_spy, monkeypatch):
        manifest = synth_dir / "manifest.json"
        victim = synth_dir / json.loads(manifest.read_text())["videos"]["video001"]["labels"][
            "arousal"]
        real_read_input = featureio.read_input

        def denied(path, what):
            if Path(path) == victim:
                raise PermissionError(13, "Permission denied", str(path))
            return real_read_input(path, what)

        monkeypatch.setattr(featureio, "read_input", denied)
        ckpt = write_scoring_checkpoint(tmp_path / "r.sqf")
        errs = []
        for threshold in (pool.POOL_MIN_INPUT_BYTES, 0):
            monkeypatch.setattr(pool, "POOL_MIN_INPUT_BYTES", threshold)
            code, out, err = run_cli("evaluate", "--checkpoint", ckpt, "--manifest", manifest,
                                     "--partition", "all")
            assert code == 3 and out == "", err
            errs.append(err)
        assert pool_spy == [2]
        assert errs[0] == errs[1] == f"I/O error: [Errno 13] Permission denied: '{victim}'\n"

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_one_bad_input_file_scores_as_in_serial(self, synth_dir, tmp_path, run_cli,
                                                    pool_spy, monkeypatch, data):
        files = data.draw(edited_dataset(tree_bytes(synth_dir)))
        root = Path(tempfile.mkdtemp(dir=tmp_path))
        for name, content in files.items():
            (root / name).parent.mkdir(parents=True, exist_ok=True)
            (root / name).write_bytes(content)
        ckpt = write_scoring_checkpoint(root / "r.sqf")
        for command in ("evaluate", "predict"):
            runs = []
            for threshold in (pool.POOL_MIN_INPUT_BYTES, 0):
                monkeypatch.setattr(pool, "POOL_MIN_INPUT_BYTES", threshold)
                out = root / f"{command}{threshold}"
                argv = {"evaluate": ["--out", out / "report.json"],
                        "predict": ["--out-dir", out]}[command]
                code, stdout, err = run_cli(command, "--checkpoint", ckpt,
                                            "--manifest", root / "manifest.json",
                                            "--partition", "all", *argv)
                written = tree_bytes(out) if out.exists() else None
                runs.append((code, stdout.replace(str(out), "OUT"), err, written))
            (code, stdout, err, written), (pooled_code, pooled_stdout, pooled_err,
                                           pooled_written) = runs
            assert code in (0, 2, 3), err
            assert pooled_code == code, (err, pooled_err)
            assert pooled_err.splitlines()[-1:] == err.splitlines()[-1:]
            assert "Traceback" not in err + pooled_err
            if code:
                assert written is pooled_written is None  # no report, no prediction directory
            else:
                assert (pooled_stdout, pooled_written) == (stdout, written)


def train_runs(run_cli, monkeypatch, tmp_path, manifest, thresholds, **overrides):
    """``train`` at each pool threshold: (exit code, stdout, stderr) and the files written.

    Each run writes to a run directory of its own, which stdout names as RUN.
    """
    runs = []
    for k, threshold in enumerate(thresholds):
        monkeypatch.setattr(pool, "POOL_MIN_INPUT_BYTES", threshold)
        run_dir = tmp_path / f"run{k}"
        cfg = write_train_config(tmp_path / f"cfg{k}.json", manifest, run_dir, **overrides)
        code, out, err = run_cli("train", "--config", cfg)
        files = tree_bytes(run_dir) if run_dir.exists() else {}
        runs.append(((code, out.replace(str(run_dir), "RUN"), err), files))
    return runs


# Values that ``edited_dataset`` may set a manifest field to.
JSON_VALUES = [5, None, [], {}, "", -1, 1.5, True, "../x", float("inf"), float("nan"), "a\0b"]


def json_paths(value, path=()):
    """The key path of every member of every object nested in ``value``."""
    if isinstance(value, dict):
        for key, member in value.items():
            yield path + (key,)
            yield from json_paths(member, path + (key,))


@st.composite
def edited_dataset(draw, files):
    """``files`` (name -> bytes of a dataset tree) with one file edited."""
    kind = draw(st.sampled_from(["features/", "labels/", "manifest.json"]))
    name = draw(st.sampled_from(sorted(n for n in files if n.startswith(kind))))
    data = files[name]
    if kind == "manifest.json" and draw(st.booleans()):
        raw = json.loads(data)
        *parents, key = draw(st.sampled_from(list(json_paths(raw))))
        member = raw
        for parent in parents:
            member = member[parent]
        member[key] = draw(st.sampled_from(JSON_VALUES))
        data = json.dumps(raw).encode()
    else:
        edit = draw(st.sampled_from(["insert", "delete", "truncate", "flip"]))
        at = draw(st.integers(0, len(data) - 1))
        if edit == "insert":
            data = data[:at] + bytes([draw(st.integers(0, 255))]) + data[at:]
        elif edit == "delete":
            data = data[:at] + data[at + 1 :]
        elif edit == "truncate":
            data = data[:at]
        else:
            data = data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))]) + data[at + 1 :]
    return {**files, name: data}


class TestPooledTrain:
    """``train`` loads in its own process at every pool threshold, with the same bytes and errors.

    A worker would have to send every fused matrix back, so ``train`` starts
    no pool even where ``align``, ``evaluate`` and ``predict`` would.
    """

    def test_same_outputs_below_and_at_the_threshold(self, synth_dir, tmp_path, run_cli,
                                                     pool_spy, monkeypatch):
        manifest = synth_dir / "manifest.json"
        loaded = load_manifest(manifest)
        ids = loaded.video_ids("train") + loaded.video_ids("devel")
        size = sum(featureio.input_bytes(loaded, ids))
        (serial, serial_files), (pooled_run, pooled_files) = train_runs(
            run_cli, monkeypatch, tmp_path, manifest, (size + 1, size)
        )
        assert pool_spy == []
        assert serial[0] == 0 and "checkpoint written to RUN/checkpoint.sqf" in serial[1]
        # Two epochs on three short videos do not beat epoch 0, so stderr has a line too.
        assert serial[2].startswith("warning: no trained epoch beat")
        assert pooled_run == serial
        assert pooled_files == serial_files
        assert sorted(serial_files) == ["checkpoint.sqf", "history.csv"]

    @pytest.mark.parametrize("kind", ["feature", "label", "manifest-entry"])
    def test_bad_train_video_in_second_group_reported_before_bad_devel_video(
        self, synth_dir, tmp_path, run_cli, pool_spy, monkeypatch, kind
    ):
        manifest = synth_dir / "manifest.json"
        raw = json.loads(manifest.read_text())
        bad = []
        for vid in ("video001", "video002"):  # a train video, and the devel video
            entry = raw["videos"][vid]
            if kind == "feature":
                bad.append(synth_dir / entry["features"]["track1"])
                corrupt(bad[-1], "non-utf8")
            elif kind == "label":
                bad.append(synth_dir / entry["labels"]["valence"])
                corrupt(bad[-1], "non-utf8")
            else:  # a label file, whose header the feature reader rejects
                entry["features"]["track1"] = entry["labels"]["valence"]
                bad.append(synth_dir / entry["features"]["track1"])
        manifest.write_text(json.dumps(raw))
        runs = train_runs(run_cli, monkeypatch, tmp_path, manifest,
                          (pool.POOL_MIN_INPUT_BYTES, 0))
        assert pool_spy == []
        (serial, serial_files), (pooled_run, pooled_files) = runs
        assert pooled_run == serial and pooled_files == serial_files == {}
        code, _, err = serial
        assert code == 2 and "Traceback" not in err
        assert err.startswith("error: ") and str(bad[0]) in err and str(bad[1]) not in err

    def test_partition_with_dims_of_two_groups_exit_2(self, tmp_path, run_cli, pool_spy,
                                                      monkeypatch):
        manifest = write_mixed_dims_dataset(tmp_path / "raw", "train")
        runs = train_runs(run_cli, monkeypatch, tmp_path, manifest,
                          (pool.POOL_MIN_INPUT_BYTES, 0))
        assert pool_spy == []
        (serial, serial_files), (pooled_run, pooled_files) = runs
        assert pooled_run == serial and pooled_files == serial_files == {}
        assert serial[0] == 2
        assert serial[2] == (
            "error: video003: track 'track0' has dim 3 where video000 has track 'track0' of dim 2\n"
        )

    def test_load_error_reported_before_an_earlier_videos_other_dims(
        self, tmp_path, run_cli, pool_spy, monkeypatch
    ):
        # Every video is loaded before any two are compared.
        videos = synth_generate(5, 1, (8, 14), [2, 3], 100.0)
        videos += synth_generate(6, 1, (8, 14), [3, 2], 100.0)
        videos += synth_generate(7, 2, (8, 14), [2, 3], 100.0)
        for k, video in enumerate(videos):
            video.video_id = f"video{k:03d}"
        raw = tmp_path / "raw"
        write_dataset(raw, zip(["train", "train", "train", "devel"], videos))
        victim = raw / "labels" / "video002_valence.csv"
        corrupt(victim, "non-utf8")
        runs = train_runs(run_cli, monkeypatch, tmp_path, raw / "manifest.json",
                          (pool.POOL_MIN_INPUT_BYTES, 0))
        assert pool_spy == []
        (serial, serial_files), (pooled_run, pooled_files) = runs
        assert pooled_run == serial and pooled_files == serial_files == {}
        assert serial[0] == 2
        assert serial[2] == f"error: {victim}:2: not UTF-8 text (invalid start byte)\n"

    def test_load_error_wins_over_devel_dims_unlike_train(
        self, tmp_path, run_cli, pool_spy, monkeypatch
    ):
        # train loads every train and devel video before train() compares
        # each with the first train video, so the later load error is reported.
        videos = synth_generate(5, 2, (8, 14), [2, 3], 100.0)
        videos += synth_generate(6, 2, (8, 14), [3, 2], 100.0)
        for k, video in enumerate(videos):
            video.video_id = f"video{k:03d}"
        raw = tmp_path / "raw"
        write_dataset(raw, zip(["train", "train", "devel", "devel"], videos))
        victim = raw / "labels" / "video003_valence.csv"
        corrupt(victim, "non-utf8")
        runs = train_runs(run_cli, monkeypatch, tmp_path, raw / "manifest.json",
                          (pool.POOL_MIN_INPUT_BYTES, 0))
        assert pool_spy == []
        (serial, serial_files), (pooled_run, pooled_files) = runs
        assert pooled_run == serial and pooled_files == serial_files == {}
        assert serial[0] == 2
        assert serial[2] == f"error: {victim}:2: not UTF-8 text (invalid start byte)\n"

    def test_io_error_in_worker_exit_3_as_in_serial(self, synth_dir, tmp_path, run_cli,
                                                    pool_spy, monkeypatch):
        manifest = synth_dir / "manifest.json"
        victim = synth_dir / json.loads(manifest.read_text())["videos"]["video001"]["labels"][
            "arousal"]
        real_read_input = featureio.read_input

        def denied(path, what):
            if Path(path) == victim:
                raise PermissionError(13, "Permission denied", str(path))
            return real_read_input(path, what)

        monkeypatch.setattr(featureio, "read_input", denied)
        runs = train_runs(run_cli, monkeypatch, tmp_path, manifest,
                          (pool.POOL_MIN_INPUT_BYTES, 0))
        assert pool_spy == []
        for (code, out, err), files in runs:
            assert (code, out, files) == (3, "", {})
            assert err == f"I/O error: [Errno 13] Permission denied: '{victim}'\n"

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_one_bad_input_file_gives_the_serial_result(self, synth_dir, tmp_path, run_cli,
                                                        pool_spy, monkeypatch, data):
        files = data.draw(edited_dataset(tree_bytes(synth_dir)))
        root = Path(tempfile.mkdtemp(dir=tmp_path))
        for name, content in files.items():
            (root / name).parent.mkdir(parents=True, exist_ok=True)
            (root / name).write_bytes(content)
        runs = train_runs(run_cli, monkeypatch, root, root / "manifest.json",
                          (pool.POOL_MIN_INPUT_BYTES, 0), epochs=1)
        assert pool_spy == []
        ((code, _, err), serial_files), ((pooled_code, _, pooled_err), pooled_files) = runs
        assert code in (0, 2, 3), err
        assert pooled_code == code, (err, pooled_err)
        assert pooled_err.splitlines()[-1:] == err.splitlines()[-1:]
        assert "Traceback" not in err + pooled_err
        assert pooled_files == serial_files
        if code:
            assert "checkpoint.sqf" not in serial_files


@pytest.mark.parametrize("command", ["align", "train", "evaluate"])
def test_internal_error_in_worker_prints_the_serial_traceback(
    synth_dir, tmp_path, run_cli, pooled, monkeypatch, command
):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(featureio, "read_label_csv", broken)
    manifest = synth_dir / "manifest.json"
    argv = {
        "align": ["--manifest", manifest, "--out-dir", tmp_path / "out"],
        "train": ["--config", write_train_config(tmp_path / "cfg.json", manifest, tmp_path / "r")],
        "evaluate": ["--checkpoint", write_scoring_checkpoint(tmp_path / "r.sqf"),
                     "--manifest", manifest, "--partition", "all"],
    }[command]
    code, _, err = run_cli(command, *argv)
    assert code == 4
    assert err.endswith("internal error: boom\n")
    # The frame that called the reader, as the serial run in this process made it.
    assert "read_label_csv(" in err
    assert pooled == ([] if command == "train" else [2])


@pytest.mark.parametrize("fault", ["raise", "exit"])
@pytest.mark.parametrize("command", ["align", "evaluate"])
def test_failure_only_in_a_worker_gives_the_serial_result(
    synth_dir, tmp_path, run_cli, pool_spy, monkeypatch, command, fault
):
    real_read_label_csv = featureio.read_label_csv
    test_pid = os.getpid()

    def fails_in_a_worker(*args, **kwargs):
        if os.getpid() != test_pid:
            if fault == "exit":
                os._exit(1)
            raise RuntimeError("only in a worker")
        return real_read_label_csv(*args, **kwargs)

    monkeypatch.setattr(featureio, "read_label_csv", fails_in_a_worker)
    # As in the command line, where the root logger has no handler, the
    # warning reaches stderr through logging's last resort.
    monkeypatch.setattr(pool.logger, "propagate", False)
    manifest = synth_dir / "manifest.json"
    ckpt = write_scoring_checkpoint(tmp_path / "r.sqf")
    runs = []
    for threshold in (pool.POOL_MIN_INPUT_BYTES, 0):
        monkeypatch.setattr(pool, "POOL_MIN_INPUT_BYTES", threshold)
        out = tmp_path / f"out{threshold}"
        argv = {
            "align": ["--manifest", manifest, "--out-dir", out],
            "evaluate": ["--checkpoint", ckpt, "--manifest", manifest, "--partition", "all",
                         "--out", out / "report.json"],
        }[command]
        code, stdout, err = run_cli(command, *argv)
        runs.append((code, stdout.replace(str(out), "OUT"), err, tree_bytes(out)))
        assert multiprocessing.active_children() == []
    assert pool_spy == [2]  # only the run at threshold 0
    (code, stdout, err, tree), (pooled_code, pooled_stdout, pooled_err, pooled_tree) = runs
    assert code == 0 and tree, runs[0]
    assert (pooled_code, pooled_stdout, pooled_tree) == (code, stdout, tree)
    # The pooled run's failure is logged once, then the serial run says what it says.
    warning, rest = pooled_err.split("\n", 1)
    assert rest == err
    message = {"raise": re.escape("RuntimeError: only in a worker"),
               "exit": "BrokenProcessPool: .+"}[fault]
    assert re.fullmatch(f"pooled run failed, so its 3 videos run again in this process: "
                        f"{message}", warning), warning


def test_blas_thread_count_leaves_checkpoint_and_prediction_bytes_unchanged(tmp_path, run_cli):
    # train, predict and evaluate run in fresh processes at 1 and 2 BLAS
    # threads and must write the same bytes. At D = 900 and e64/h32/m16,
    # OpenBLAS on two threads splits the projection and weight-gradient
    # products of every chunk of 70 rows or more, and of predict's whole-video
    # projection, and gives them other last bits; cli.main pins BLAS to one
    # thread, so both runs use the one-thread kernel.
    raw = tmp_path / "raw"
    code, _, err = run_cli("synth", "--out-dir", raw, "--seed", 2, "--n-train", 3, "--n-devel", 1,
                           "--n-test", 1, "--dims", "768,88,44", "--t-range", "120:160")
    assert code == 0, err
    src = str(Path(featureio.__file__).parents[1])
    trees = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run_dir = tmp_path / f"run{threads}"
        for argv in (
            ["train", "--manifest", raw / "manifest.json", "--out-dir", run_dir,
             "--target", "arousal", "--seed", 1, "--epochs", 3, "--embed-dim", 64,
             "--hidden-units", 32, "--head-hidden", 16],
            ["predict", "--checkpoint", run_dir / "checkpoint.sqf",
             "--manifest", raw / "manifest.json", "--out-dir", run_dir / "predictions"],
            ["evaluate", "--checkpoint", run_dir / "checkpoint.sqf",
             "--manifest", raw / "manifest.json", "--partition", "all",
             "--out", run_dir / "report.json"],
        ):
            done = subprocess.run([sys.executable, "-m", "seqfuse.cli", *map(str, argv)],
                                  env=env, capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, done.stderr
        trees.append(tree_bytes(run_dir))
    # Checkpoint, history, one prediction file per video, the prediction index
    # and the report.
    assert len(trees[0]) == 2 + 5 + 1 + 1
    assert trees[0] == trees[1]


def test_blas_without_the_openblas_setter_warns_once_and_runs(tmp_path, run_cli, monkeypatch):
    # Another BLAS (MKL, Accelerate, a system OpenBLAS) has no setter to find:
    # the command keeps that BLAS's thread count, says so once and runs.
    monkeypatch.setattr(cli_module, "_openblas_thread_functions", lambda numpy_dir: None)
    # As in the command line, where the root logger has no handler, the
    # warning reaches stderr through logging's last resort.
    monkeypatch.setattr(cli_module.logger, "propagate", False)
    code, out, err = run_cli("synth", "--out-dir", tmp_path / "raw", "--seed", 1)
    assert (code, out) == (0, f"wrote 10 videos to {tmp_path / 'raw'}\n")
    assert err == ("numpy's BLAS is not its bundled OpenBLAS, so its thread count is not "
                   "pinned to 1 and output bytes may depend on that count\n")


@pytest.mark.parametrize("outcome", ["exit", "raise"])
def test_cli_main_runs_on_one_blas_thread_and_gives_the_callers_count_back(
    tmp_path, run_cli, monkeypatch, outcome
):
    # The installed numpy bundles OpenBLAS, so the lookup finds its getter and
    # setter. A command runs on one thread; an in-process caller gets its own
    # count back when cli.main returns, also when the command fails.
    found = cli_module._openblas_thread_functions(Path(np.__file__).parent)
    assert found is not None
    get, set_ = found
    during = []

    def cmd_synth(args):
        during.append(get())
        if outcome == "raise":
            raise RuntimeError("inside the command")
        return 0

    monkeypatch.setattr(cli_module, "cmd_synth", cmd_synth)
    before = get()
    set_(2)
    try:
        code, _, _ = run_cli("synth", "--out-dir", tmp_path / "raw")
        after = get()
    finally:
        set_(before)
    assert (code, during, after) == ({"exit": 0, "raise": 4}[outcome], [1], 2)


@pytest.mark.parametrize("lib, prefix", [
    ("numpy.libs/libscipy_openblas64_-32a4b2a6.so", "scipy_openblas_"),  # numpy 2, Linux
    ("numpy/.dylibs/libscipy_openblas64_.dylib", "scipy_openblas_"),  # numpy 2, macOS
    ("numpy.libs/libopenblas64_p-r0-0cf96a72.3.23.dev.so", "openblas_"),  # numpy 1.x, Linux
    ("numpy/.dylibs/libopenblas64_.0.dylib", "openblas_"),  # numpy 1.x, macOS
    ("numpy/.libs/libopenblas64__v0.3.23-gcc_10_3_0.dll", "openblas_"),  # numpy 1.x, Windows
    ("numpy.libs/libmkl_rt.so.2", None),
])
def test_openblas_thread_functions_are_found_in_each_wheel_layout(tmp_path, monkeypatch, lib,
                                                                  prefix):
    # Each numpy wheel bundles its OpenBLAS under its own file and symbol
    # names; the lookup finds the getter and setter in each, and none where
    # numpy bundles another library.
    (tmp_path / "numpy").mkdir()
    (tmp_path / lib).parent.mkdir(exist_ok=True)
    (tmp_path / lib).touch()

    class Library:
        def __init__(self, path):
            self.path = Path(path)

        def __getattr__(self, symbol):
            if prefix is None or not symbol.startswith(prefix):
                raise AttributeError(symbol)
            return SimpleNamespace(name=f"{self.path.relative_to(tmp_path)}:{symbol}")

    monkeypatch.setattr(cli_module.ctypes, "CDLL", Library)
    found = cli_module._openblas_thread_functions(tmp_path / "numpy")
    if prefix is None:
        assert found is None
    else:
        assert [f.name for f in found] == [f"{lib}:{prefix}get_num_threads64_",
                                           f"{lib}:{prefix}set_num_threads64_"]


@pytest.mark.parametrize("mode", ["serial", "pooled"])
def test_sidecars_leave_train_evaluate_and_predict_bytes_unchanged(
    synth_dir, tmp_path, run_cli, pool_spy, monkeypatch, mode
):
    bare = tmp_path / "bare"
    shutil.copytree(synth_dir, bare)
    sidecars = sorted(bare.rglob("*.csv.cols"))
    assert len(sidecars) == 6
    for sidecar in sidecars:
        sidecar.unlink()
    monkeypatch.setattr(pool, "POOL_MIN_INPUT_BYTES", 0 if mode == "pooled" else 1 << 62)
    parse_rows = csvfiles._parse_rows
    parsed = []
    monkeypatch.setattr(csvfiles, "_parse_rows",
                        lambda path, *a: parsed.append(path) or parse_rows(path, *a))
    runs = []
    for data in (synth_dir, bare):
        run_dir = tmp_path / f"run-{data.name}"
        manifest = data / "manifest.json"
        cfg = write_train_config(tmp_path / f"{data.name}.json", manifest, run_dir)
        outputs = [run_cli("train", "--config", cfg)]
        outputs.append(run_cli("evaluate", "--checkpoint", run_dir / "checkpoint.sqf",
                               "--manifest", manifest, "--partition", "all"))
        outputs.append(run_cli("predict", "--checkpoint", run_dir / "checkpoint.sqf",
                               "--manifest", manifest, "--out-dir", run_dir / "preds"))
        assert [code for code, _, _ in outputs] == [0, 0, 0], outputs
        runs.append(([(out.replace(str(run_dir), "RUN"), err) for _, out, err in outputs],
                     tree_bytes(run_dir)))
        features = [path for path in parsed if path.parent.name == "features"]
        runs[-1] += (len(parsed) - len(features), len(features))
        parsed.clear()
    assert runs[0][:2] == runs[1][:2]
    # Checkpoint, history, one prediction file per video and the prediction index.
    assert len(runs[0][1]) == 2 + 3 + 1
    if mode == "serial":
        # Three loads of 3 videos, each with two label files and two tracks;
        # only the bare tree's tracks are parsed.
        assert (runs[0][2:], runs[1][2:]) == ((18, 0), (18, 18))
    else:
        # evaluate and predict load in workers; train loads in this process.
        assert pool_spy == [2, 2] * 2
        assert (runs[0][2:], runs[1][2:]) == ((6, 0), (6, 6))
