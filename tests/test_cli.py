import concurrent.futures
import hashlib
import json
import multiprocessing
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import fail_writes_halfway, zero_model
from seqfuse import (
    Checkpoint,
    TrainConfig,
    evaluate,
    init_model,
    load_checkpoint,
    load_manifest,
    save_checkpoint,
    synth_generate,
    train,
    write_dataset,
)
from seqfuse import cli as cli_module
from seqfuse import featureio
from seqfuse.cli import main as cli_main
from seqfuse.featureio import load_fused_datasets
from seqfuse.nn import param_layout
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


@pytest.fixture
def synth_dir(tmp_path, run_cli):
    out = tmp_path / "raw"
    code, _, err = run_cli(
        "synth", "--out-dir", out, "--seed", 5, "--n-train", 2, "--n-devel", 1,
        "--dims", "2,3", "--t-range", "8:14",
    )
    assert code == 0, err
    return out


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
        (["--t-range", "2:100000000000000000000"],
         "error: t_range (2, 100000000000000000000) puts frame_ms past the int64 range\n"),
        (["--n-train", 1, "--n-devel", 0, "--dims", "2",
          "--t-range", "10000000000000000:10000000000000000"],
         "error: t_range (10000000000000000, 10000000000000000): a video of "
         "10000000000000000 frames does not fit in memory\n"),
    ], ids=["snr-nan", "t-range-past-int64", "t-range-past-memory"])
    def test_bad_value_exit_2_naming_it(self, tmp_path, run_cli, argv, message):
        out = tmp_path / "x"
        code, _, err = run_cli("synth", "--out-dir", out, "--seed", 1, *argv)
        assert (code, err) == (2, message)
        assert not out.exists()

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

    def test_missing_feature_file_exit_2_with_path(self, synth_dir, tmp_path, run_cli):
        victim = next((synth_dir / "features").iterdir())
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
        assert tree_bytes(out) == before

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

    @pytest.mark.parametrize("entries,collision", COLLISION_CASES, ids=["features", "labels"])
    def test_colliding_file_names_exit_2_without_overwriting(
        self, tmp_path, run_cli, pool_spy, entries, collision
    ):
        assert_collision_exit_2_without_overwriting(tmp_path, run_cli, pool_spy, entries,
                                                    collision)


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

    def test_unwritable_history_leaves_no_checkpoint(self, synth_dir, tmp_path, run_cli):
        run_dir = tmp_path / "run"
        (run_dir / "history.csv").mkdir(parents=True)
        cfg = write_train_config(tmp_path / "cfg.json", synth_dir / "manifest.json", run_dir)
        code, _, err = run_cli("train", "--config", cfg)
        assert code == 3, err
        assert "history.csv" in err
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


def write_mixed_dims_dataset(root, odd_partition):
    """Two train videos and one devel video on dims 2,3, plus video003 on dims 3,2."""
    videos = synth_generate(5, 3, (8, 14), [2, 3], 100.0)
    (odd,) = synth_generate(6, 1, (8, 14), [3, 2], 100.0)
    odd.video_id = "video003"
    write_dataset(root, zip(["train", "train", "devel", odd_partition], [*videos, odd]))
    return root / "manifest.json"


def make_zero_checkpoint(path, D=5, head_out_bias=0.0, track_dims=(("track0", 2), ("track1", 3))):
    model = zero_model(D=D, e=4, h=5, m=3)
    model.tensors["head_out_b"][0] = head_out_bias
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

    def test_corrupt_checkpoint_exit_2(self, synth_dir, tmp_path, run_cli):
        ckpt_path = tmp_path / "z.sqf"
        make_zero_checkpoint(ckpt_path)
        (tmp_path / "trunc.sqf").write_bytes(ckpt_path.read_bytes()[:40])
        code, _, err = run_cli("evaluate", "--checkpoint", tmp_path / "trunc.sqf",
                               "--manifest", synth_dir / "manifest.json")
        assert code == 2


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

    @pytest.mark.parametrize("value", [float("inf"), 1.5, True], ids=["inf", "float", "bool"])
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


class TestPredict:
    def test_zero_checkpoint_predicts_zero(self, synth_dir, tmp_path, run_cli):
        ckpt_path = tmp_path / "z.sqf"
        make_zero_checkpoint(ckpt_path)
        out = tmp_path / "preds"
        code, _, err = run_cli("predict", "--checkpoint", ckpt_path,
                               "--manifest", synth_dir / "manifest.json",
                               "--out-dir", out)
        assert code == 0, err
        files = sorted(out.iterdir())
        assert len(files) == 3
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
        for path in out.iterdir():
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
        assert len(list(out.iterdir())) == 1


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

    def test_unwritable_out_dir_exit_3(self, synth_dir, tmp_path, run_cli):
        blocker = tmp_path / "blocked"
        blocker.write_text("file, not a directory")
        code, _, err = run_cli("align", "--manifest", synth_dir / "manifest.json",
                               "--out-dir", blocker)
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
            for track in video.tracks:
                track.frame_len_ms = 500
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
            for track in video.tracks:
                track.frame_len_ms = 500
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
    """Make ``align``, ``train``, ``evaluate`` and ``predict`` use workers on any input."""
    monkeypatch.setattr(featureio, "POOL_MIN_INPUT_BYTES", 0)
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
        for threshold in (featureio.POOL_MIN_INPUT_BYTES, 0):
            monkeypatch.setattr(featureio, "POOL_MIN_INPUT_BYTES", threshold)
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
        size = sum(featureio.input_bytes(manifest, manifest.videos))
        assert size < featureio.POOL_MIN_INPUT_BYTES
        # Blank lines are skipped by the reader, so padding changes only the size.
        padded = manifest.resolve(manifest.videos["video001"].features["track1"])
        with open(padded, "ab") as fh:
            fh.write(b"\n" * (featureio.POOL_MIN_INPUT_BYTES - 1 - size))
        trees = []
        for extra in (b"", b"\n"):
            with open(padded, "ab") as fh:
                fh.write(extra)
            out = tmp_path / f"out{len(trees)}"
            code, _, err = run_cli("align", "--manifest", raw / "manifest.json", "--out-dir", out)
            assert code == 0, err
            trees.append(tree_bytes(out))
        size = sum(featureio.input_bytes(manifest, manifest.videos))
        assert size == featureio.POOL_MIN_INPUT_BYTES
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
        for threshold in (featureio.POOL_MIN_INPUT_BYTES, 0):
            monkeypatch.setattr(featureio, "POOL_MIN_INPUT_BYTES", threshold)
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
    return featureio._split_by_size(ids, featureio.input_bytes(manifest, ids), 2)


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
            monkeypatch.setattr(featureio, "POOL_MIN_INPUT_BYTES", threshold)
            runs.append(score_outputs(run_cli, ckpt, manifest, tmp_path / f"p{threshold}"))
            assert multiprocessing.active_children() == []
        assert pool_spy == [2, 2]  # only the runs at the threshold
        (serial, serial_preds), (pooled_run, pooled_preds) = runs
        assert serial[0] == serial[3] == 0 and "wrote predictions for 3" in serial[4], serial
        assert pooled_run == serial
        assert pooled_preds == serial_preds and len(serial_preds) == 3
        values = {line.split(b",")[1] for data in serial_preds.values()
                  for line in data.splitlines()[1:]}
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
        for threshold in (featureio.POOL_MIN_INPUT_BYTES, 0):
            monkeypatch.setattr(featureio, "POOL_MIN_INPUT_BYTES", threshold)
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
        for threshold in (featureio.POOL_MIN_INPUT_BYTES, 0):
            monkeypatch.setattr(featureio, "POOL_MIN_INPUT_BYTES", threshold)
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
            for threshold in (featureio.POOL_MIN_INPUT_BYTES, 0):
                monkeypatch.setattr(featureio, "POOL_MIN_INPUT_BYTES", threshold)
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
        monkeypatch.setattr(featureio, "POOL_MIN_INPUT_BYTES", threshold)
        run_dir = tmp_path / f"run{k}"
        cfg = write_train_config(tmp_path / f"cfg{k}.json", manifest, run_dir, **overrides)
        code, out, err = run_cli("train", "--config", cfg)
        files = tree_bytes(run_dir) if run_dir.exists() else {}
        runs.append(((code, out.replace(str(run_dir), "RUN"), err), files))
    return runs


def train_groups(manifest_path):
    """The video groups that a two-worker pool loads for ``train``: train, then devel videos."""
    manifest = load_manifest(manifest_path)
    ids = manifest.video_ids("train") + manifest.video_ids("devel")
    return featureio._split_by_size(ids, featureio.input_bytes(manifest, ids), 2)


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
    """``train`` loading its videos in worker processes keeps the serial run's bytes and errors."""

    def test_same_outputs_below_and_at_the_threshold(self, synth_dir, tmp_path, run_cli,
                                                     pool_spy, monkeypatch):
        manifest = synth_dir / "manifest.json"
        loaded = load_manifest(manifest)
        ids = loaded.video_ids("train") + loaded.video_ids("devel")
        size = sum(featureio.input_bytes(loaded, ids))
        (serial, serial_files), (pooled_run, pooled_files) = train_runs(
            run_cli, monkeypatch, tmp_path, manifest, (size + 1, size)
        )
        assert pool_spy == [2]  # only the run at the threshold
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
        assert train_groups(manifest) == [["video002"], ["video000", "video001"]]
        runs = train_runs(run_cli, monkeypatch, tmp_path, manifest,
                          (featureio.POOL_MIN_INPUT_BYTES, 0))
        assert pool_spy == [2]
        (serial, serial_files), (pooled_run, pooled_files) = runs
        assert pooled_run == serial and pooled_files == serial_files == {}
        code, _, err = serial
        assert code == 2 and "Traceback" not in err
        assert err.startswith("error: ") and str(bad[0]) in err and str(bad[1]) not in err

    def test_partition_with_dims_of_two_groups_exit_2(self, tmp_path, run_cli, pool_spy,
                                                      monkeypatch):
        manifest = write_mixed_dims_dataset(tmp_path / "raw", "train")
        groups = train_groups(manifest)
        assert "video000" not in next(group for group in groups if "video003" in group)
        runs = train_runs(run_cli, monkeypatch, tmp_path, manifest,
                          (featureio.POOL_MIN_INPUT_BYTES, 0))
        assert pool_spy == [2]
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
                          (featureio.POOL_MIN_INPUT_BYTES, 0))
        assert pool_spy == [2]
        (serial, serial_files), (pooled_run, pooled_files) = runs
        assert pooled_run == serial and pooled_files == serial_files == {}
        assert serial[0] == 2
        assert serial[2] == f"error: {victim}:2: not UTF-8 text (invalid start byte)\n"

    def test_devel_dims_checked_against_devel_so_a_later_load_error_wins(
        self, tmp_path, run_cli, pool_spy, monkeypatch
    ):
        # train loads every train and devel video, then checks each partition
        # against its first video, before train() compares devel with train.
        videos = synth_generate(5, 2, (8, 14), [2, 3], 100.0)
        videos += synth_generate(6, 2, (8, 14), [3, 2], 100.0)
        for k, video in enumerate(videos):
            video.video_id = f"video{k:03d}"
        raw = tmp_path / "raw"
        write_dataset(raw, zip(["train", "train", "devel", "devel"], videos))
        victim = raw / "labels" / "video003_valence.csv"
        corrupt(victim, "non-utf8")
        runs = train_runs(run_cli, monkeypatch, tmp_path, raw / "manifest.json",
                          (featureio.POOL_MIN_INPUT_BYTES, 0))
        assert pool_spy == [2]
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
                          (featureio.POOL_MIN_INPUT_BYTES, 0))
        assert pool_spy == [2]
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
                          (featureio.POOL_MIN_INPUT_BYTES, 0), epochs=1)
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
    assert pooled == [2]


@pytest.mark.parametrize("fault", ["raise", "exit"])
@pytest.mark.parametrize("command", ["align", "train", "evaluate"])
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
    manifest = synth_dir / "manifest.json"
    ckpt = write_scoring_checkpoint(tmp_path / "r.sqf")
    runs = []
    for threshold in (featureio.POOL_MIN_INPUT_BYTES, 0):
        monkeypatch.setattr(featureio, "POOL_MIN_INPUT_BYTES", threshold)
        out = tmp_path / f"out{threshold}"
        argv = {
            "align": ["--manifest", manifest, "--out-dir", out],
            "train": ["--config", write_train_config(tmp_path / f"cfg{threshold}.json",
                                                     manifest, out)],
            "evaluate": ["--checkpoint", ckpt, "--manifest", manifest, "--partition", "all",
                         "--out", out / "report.json"],
        }[command]
        code, stdout, err = run_cli(command, *argv)
        runs.append((code, stdout.replace(str(out), "OUT"), err, tree_bytes(out)))
        assert multiprocessing.active_children() == []
    assert pool_spy == [2]  # only the run at threshold 0
    assert runs[0][0] == 0 and runs[0][3], runs[0]
    assert runs[1] == runs[0]


def test_blas_thread_count_leaves_checkpoint_and_prediction_bytes_unchanged(tmp_path, run_cli):
    # At D = 100 and e64/h32/m16 the projection's matrix products are large
    # enough for OpenBLAS to split them between threads.
    raw = tmp_path / "raw"
    code, _, err = run_cli("synth", "--out-dir", raw, "--seed", 2, "--n-train", 3, "--n-devel", 1,
                           "--n-test", 1, "--dims", "60,40", "--t-range", "120:160")
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
        ):
            done = subprocess.run([sys.executable, "-m", "seqfuse.cli", *map(str, argv)],
                                  env=env, capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, done.stderr
        trees.append(tree_bytes(run_dir))
    assert len(trees[0]) == 2 + 5  # checkpoint, history and one prediction file per video
    assert trees[0] == trees[1]
