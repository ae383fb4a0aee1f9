import concurrent.futures
import hashlib
import json
import os
import struct
from pathlib import Path

import pytest

from conftest import fail_writes_halfway, zero_model
from seqfuse import (
    Checkpoint,
    TrainConfig,
    evaluate,
    init_model,
    load_checkpoint,
    load_fused_dataset,
    load_manifest,
    save_checkpoint,
    synth_generate,
    write_dataset,
)
from seqfuse import featureio
from seqfuse.cli import main as cli_main


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


def assert_collision_exit_2_without_overwriting(tmp_path, run_cli, entries, collision):
    data = tmp_path / "data"
    data.mkdir()
    videos = {}
    for k, (vid, (track, target)) in enumerate(entries.items()):
        (data / f"f{k}.csv").write_text(f"start_ms,end_ms,f0\n0,500,0.{k}5\n")
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
    assert f"{out / collision}: two dataset entries" in err and "Traceback" not in err
    assert ",0.05\n" in (out / collision).read_text()  # the first video's
    assert not (out / "manifest.json").exists()


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
        self, tmp_path, run_cli, entries, collision
    ):
        assert_collision_exit_2_without_overwriting(tmp_path, run_cli, entries, collision)


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

    def test_default_track_order_from_manifest(self, synth_dir, tmp_path, run_cli):
        run_dir = tmp_path / "run"
        cfg = write_train_config(tmp_path / "cfg.json", synth_dir / "manifest.json",
                                 run_dir, track_order=None)
        code, _, err = run_cli("train", "--config", cfg)
        assert code == 0, err
        ckpt = load_checkpoint(run_dir / "checkpoint.sqf")
        assert list(ckpt.config.track_order) == ["track0", "track1"]


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

    def test_corrupt_checkpoint_exit_2(self, synth_dir, tmp_path, run_cli):
        ckpt_path = tmp_path / "z.sqf"
        make_zero_checkpoint(ckpt_path)
        (tmp_path / "trunc.sqf").write_bytes(ckpt_path.read_bytes()[:40])
        code, _, err = run_cli("evaluate", "--checkpoint", tmp_path / "trunc.sqf",
                               "--manifest", synth_dir / "manifest.json")
        assert code == 2


class TestTrackDims:
    """A loaded partition has one set of track dims, and it must be the checkpoint's."""

    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    def test_dataset_dims_other_than_the_checkpoints_exit_2(self, tmp_path, run_cli, command):
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
        code, _, err = run_cli(command, "--checkpoint", ckpt, "--manifest", raw / "manifest.json",
                               *argv)
        assert code == 2, err
        assert (
            f"{raw / 'manifest.json'}: track 'track0' has dim 3, but checkpoint {ckpt} "
            "was trained on dim 2"
        ) in err
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    def test_partition_with_two_sets_of_dims_exit_2(self, tmp_path, run_cli, command):
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
        assert "video003: track 'track0' has dim 3 where video000 has track 'track0' of dim 2" in err
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
        devel = load_fused_dataset(manifest, "devel", ["track0", "track1"])
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
    """Two usable CPUs, and a record of the worker count of every align pool started."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    started = []

    class SpyPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SpyPool)
    return started


@pytest.fixture
def pooled(pool_spy, monkeypatch):
    """Make ``align`` hand its videos to worker processes however small the input."""
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
        assert_collision_exit_2_without_overwriting(tmp_path, run_cli, entries, collision)
        assert pooled == [1]  # the video before the collision

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
        size = featureio._input_bytes(manifest)
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
        assert featureio._input_bytes(manifest) == featureio.POOL_MIN_INPUT_BYTES
        assert pool_spy == [2]  # only the run at the threshold
        assert trees[0] == trees[1]
