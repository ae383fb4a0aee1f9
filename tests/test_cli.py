import json
from pathlib import Path

import pytest

from conftest import fail_writes_halfway, zero_model
from seqfuse import Checkpoint, TrainConfig, load_checkpoint, save_checkpoint
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


class TestAlign:
    def test_already_aligned_is_fixed_point(self, synth_dir, tmp_path, run_cli):
        out = tmp_path / "aligned"
        code, _, err = run_cli("align", "--manifest", synth_dir / "manifest.json",
                               "--out-dir", out)
        assert code == 0, err
        for src in (synth_dir / "features").iterdir():
            assert (out / "features" / src.name).read_text() == src.read_text()

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
            ({"track_order": 5}, "track_order"),
        ],
        ids=[
            "non-integer-epochs", "beta1-one", "diverging", "frame-len-string",
            "frame-len-list", "frame-len-float", "frame-len-bool", "frame-len-zero",
            "track-order-int",
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

    def test_default_track_order_from_manifest(self, synth_dir, tmp_path, run_cli):
        run_dir = tmp_path / "run"
        cfg = write_train_config(tmp_path / "cfg.json", synth_dir / "manifest.json",
                                 run_dir, track_order=None)
        code, _, err = run_cli("train", "--config", cfg)
        assert code == 0, err
        ckpt = load_checkpoint(run_dir / "checkpoint.sqf")
        assert list(ckpt.config.track_order) == ["track0", "track1"]


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


class TestCliSurface:
    @pytest.mark.parametrize("command", ["synth", "align", "train", "evaluate", "predict"])
    def test_help_lists_flags_with_defaults(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--help" in out
        assert "default" in out

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


class TestInputFileContract:
    @pytest.mark.parametrize("fault", ["missing", "directory", "non-utf8"])
    @pytest.mark.parametrize("kind, command", INPUT_CASES, ids=[f"{k}-{c}" for k, c in INPUT_CASES])
    def test_bad_input_file_exit_2_naming_path(
        self, synth_dir, tmp_path, run_cli, kind, command, fault
    ):
        manifest = synth_dir / "manifest.json"
        entry = next(iter(json.loads(manifest.read_text())["videos"].values()))
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
        argv = {
            "align": ["align", "--manifest", manifest, "--out-dir", tmp_path / "out"],
            "train": ["train", "--config", cfg],
            "evaluate": ["evaluate", "--checkpoint", ckpt, "--manifest", manifest,
                         "--partition", "all"],
            "predict": ["predict", "--checkpoint", ckpt, "--manifest", manifest,
                        "--out-dir", tmp_path / "preds"],
        }[command]
        corrupt(victim, fault)
        code, _, err = run_cli(*argv)
        assert code == 2, err
        assert str(victim) in err and "Traceback" not in err
        if fault == "non-utf8" and kind != "checkpoint":
            assert f"{victim}:2: not UTF-8" in err

    def test_align_failing_on_later_video_writes_no_manifest(self, synth_dir, tmp_path, run_cli):
        manifest = synth_dir / "manifest.json"
        *_, last = json.loads(manifest.read_text())["videos"].values()
        corrupt(synth_dir / last["features"]["track1"], "non-utf8")
        out = tmp_path / "out"
        code, _, err = run_cli("align", "--manifest", manifest, "--out-dir", out)
        assert code == 2, err
        assert any((out / "features").iterdir())  # earlier videos were aligned
        assert not (out / "manifest.json").exists()
