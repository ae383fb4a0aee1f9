"""Acceptance gate: every criterion prints one [acceptance] PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import assert_models_equal, make_split
from oracles import align_bruteforce, ccc_direct, finite_diff_grads, gradcheck_max_relerr
from seqfuse import TrainConfig, ccc, load_checkpoint, load_manifest, save_checkpoint, train
from seqfuse.align import align_tokens_to_frames
from seqfuse.nn import backward, forward, init_model
from seqfuse.tracks import TokenFeature, TokenTrack
from seqfuse.training import chunk
from seqfuse.cli import main as cli_main
from seqfuse.featureio import load_fused_datasets


def report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {criterion}: {status}{suffix}")
    assert ok, f"{criterion}: {detail}"


def run_cli(*argv) -> int:
    return cli_main([str(a) for a in argv])


def test_criterion_1_gradient_correctness():
    start = time.monotonic()
    worst = 0.0
    for seed in range(100):
        model = init_model(seed, {"D": 3, "e": 3, "h": 4, "m": 3})
        rng = np.random.default_rng(10_000 + seed)
        inputs = rng.normal(size=(7, 3))
        labels = rng.uniform(-1.0, 1.0, size=7)
        trace = forward(model, inputs)
        analytic = model.views(backward(model, trace, labels))
        numeric = finite_diff_grads(model, inputs, labels, eps=1e-5)
        worst = max(worst, gradcheck_max_relerr(analytic, numeric))
    elapsed = time.monotonic() - start
    report(
        "1 gradient correctness",
        worst < 1e-4 and elapsed < 60.0,
        f"worst rel err {worst:.3e} over 100 models, {elapsed:.1f}s",
    )


def test_criterion_2_ccc_oracle_equivalence():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 501))
        x = rng.normal(loc=rng.uniform(-2, 2), scale=rng.uniform(0.05, 3.0), size=n)
        y = rng.normal(loc=rng.uniform(-2, 2), scale=rng.uniform(0.05, 3.0), size=n)
        worst = max(worst, abs(ccc(x, y) - ccc_direct(x, y)))
    x = rng.normal(size=64)
    identity_err = abs(ccc(x, x.copy()) - 1.0)
    flip = rng.normal(size=64)
    flip -= flip.mean()
    flip_err = abs(ccc(flip, -flip) + 1.0)
    const_err = abs(ccc(np.full(32, 0.7), rng.normal(size=32)))
    ok = (
        worst <= 1e-10
        and identity_err <= 1e-12
        and flip_err <= 1e-12
        and const_err <= 1e-12
    )
    report(
        "2 CCC oracle equivalence",
        ok,
        f"1000 pairs worst |diff| {worst:.2e}; identities {identity_err:.1e}/"
        f"{flip_err:.1e}/{const_err:.1e}",
    )


def test_criterion_3_alignment_oracle_equivalence():
    rng = np.random.default_rng(7)
    n_frames = 50
    mismatches = 0
    for _ in range(200):
        n_tokens = int(rng.integers(0, 240))
        tokens = []
        for _ in range(n_tokens):
            start = int(rng.integers(-500, n_frames * 250 + 500))
            length = int(rng.integers(1, 900))
            tokens.append(TokenFeature(start, start + length, rng.normal(size=3)))
        track = TokenTrack("layout", 3, tokens)
        ours = align_tokens_to_frames(track, 250, n_frames)
        ref = align_bruteforce(track, 250, n_frames)
        if not np.array_equal(ours.frames, ref.frames):
            mismatches += 1

    vectors = rng.normal(size=(n_frames, 3))
    tiling = TokenTrack(
        "tile",
        3,
        [TokenFeature(j * 250, (j + 1) * 250, vectors[j]) for j in range(n_frames)],
    )
    tiled = align_tokens_to_frames(tiling, 250, n_frames)
    tiling_ok = np.array_equal(tiled.frames, vectors)

    sparse = TokenTrack("gap", 3, [TokenFeature(0, 250, rng.normal(size=3))])
    gapped = align_tokens_to_frames(sparse, 250, 4)
    zero_ok = np.array_equal(gapped.frames[1:], np.zeros((3, 3)))

    report(
        "3 alignment oracle equivalence",
        mismatches == 0 and tiling_ok and zero_ok,
        f"{mismatches} mismatching layouts of 200; tiling {tiling_ok}; zero-fill {zero_ok}",
    )


def test_criterion_4_trainability():
    start = time.monotonic()
    train_set, devel_set = make_split(
        seed=3, n_train=8, n_devel=2, t_range=(60, 100), dims=(4, 6), snr=100.0
    )
    config = TrainConfig(
        target="arousal",
        embed_dim=16,
        hidden_units=32,
        head_hidden=16,
        epochs=300,
        seed=3,
        track_order=["track0", "track1"],
        learning_rate=1e-3,
        patience=30,
    )
    ckpt, history = train(train_set, devel_set, config)
    elapsed = time.monotonic() - start
    report(
        "4 trainability",
        ckpt.best_ccc >= 0.95 and elapsed < 300.0,
        f"best devel CCC {ckpt.best_ccc:.4f} at epoch {ckpt.best_epoch} "
        f"({len(history)} epochs, {elapsed:.1f}s)",
    )


def _pipeline(root: Path, seed: int) -> tuple[bytes, bytes]:
    raw = root / "raw"
    aligned = root / "aligned"
    run_dir = root / "run"
    assert run_cli(
        "synth", "--out-dir", raw, "--seed", seed, "--n-train", 3, "--n-devel", 2,
        "--dims", "3,2", "--t-range", "20:40",
    ) == 0
    assert run_cli("align", "--manifest", raw / "manifest.json", "--out-dir", aligned) == 0
    cfg = root / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "manifest": str(aligned / "manifest.json"),
                "out_dir": str(run_dir),
                "target": "valence",
                "embed_dim": 6,
                "hidden_units": 8,
                "head_hidden": 4,
                "epochs": 3,
                "seed": seed,
                "track_order": ["track0", "track1"],
            }
        )
    )
    assert run_cli("train", "--config", cfg) == 0
    assert run_cli(
        "evaluate", "--checkpoint", run_dir / "checkpoint.sqf",
        "--manifest", aligned / "manifest.json", "--partition", "devel",
        "--out", run_dir / "report.json",
    ) == 0
    return (run_dir / "checkpoint.sqf").read_bytes(), (run_dir / "report.json").read_bytes()


def test_criterion_5_end_to_end_determinism(tmp_path):
    ckpt_a, report_a = _pipeline(tmp_path / "one", seed=21)
    ckpt_b, report_b = _pipeline(tmp_path / "two", seed=21)
    report(
        "5 end-to-end determinism",
        ckpt_a == ckpt_b and report_a == report_b,
        f"checkpoint bytes equal: {ckpt_a == ckpt_b}; report bytes equal: "
        f"{report_a == report_b}",
    )


def test_criterion_6_chunking_equivalence():
    from seqfuse.training import _mask_seed, adam_step, init_adam_state

    # short sequences: per-update trajectories must match bitwise
    train_set, devel_set = make_split(seed=6, n_train=3, n_devel=1, t_range=(30, 90))
    assert all(s.n_frames <= 100 for s in train_set)
    config_a = TrainConfig(
        target="arousal", embed_dim=5, hidden_units=6, head_hidden=4, epochs=2,
        seed=4, track_order=["track0", "track1"], max_time_step=100,
    )
    config_b = TrainConfig(
        target="arousal", embed_dim=5, hidden_units=6, head_hidden=4, epochs=2,
        seed=4, track_order=["track0", "track1"], max_time_step=10**6,
    )
    trajectory_ok = True
    models = {}
    for key, config in (("chunked", config_a), ("whole", config_b)):
        model = init_model(config.seed, {"D": 10, "e": 5, "h": 6, "m": 4})
        state = init_adam_state(model)
        snapshots = []
        for epoch in (1, 2):
            for chunk_index, seq in enumerate(train_set):
                pieces = chunk(seq, config.max_time_step, config.target)
                assert len(pieces) == 1
                features, labels = pieces[0]
                trace = forward(
                    model, features, config.dropout_rate,
                    _mask_seed(config.seed, epoch, chunk_index),
                )
                grads = backward(model, trace, labels)
                model, state = adam_step(model, grads, state, config)
                snapshots.append(model.params.copy())
        models[key] = snapshots
    for snap_a, snap_b in zip(models["chunked"], models["whole"]):
        if not np.array_equal(snap_a, snap_b):
            trajectory_ok = False

    ckpt_a, hist_a = train(train_set, devel_set, config_a)
    ckpt_b, hist_b = train(train_set, devel_set, config_b)
    try:
        assert_models_equal(ckpt_a.model, ckpt_b.model)
        endpoints_ok = hist_a == hist_b
    except AssertionError:
        endpoints_ok = False

    # long sequence: 100/100/50 split that concatenates exactly
    long_train, _ = make_split(seed=8, n_train=1, n_devel=1, t_range=(250, 250))
    pieces = chunk(long_train[0], 100, "arousal")
    lengths = [p[0].shape[0] for p in pieces]
    concat_ok = (
        lengths == [100, 100, 50]
        and np.array_equal(np.vstack([p[0] for p in pieces]), long_train[0].data)
        and np.array_equal(
            np.concatenate([p[1] for p in pieces]), long_train[0].labels["arousal"]
        )
    )
    report(
        "6 chunking equivalence",
        trajectory_ok and endpoints_ok and concat_ok,
        f"trajectories {trajectory_ok}; full-run equality {endpoints_ok}; "
        f"250-frame split {lengths}",
    )


def test_criterion_7_checkpoint_roundtrip(tmp_path):
    from test_training import _random_checkpoint

    bad = 0
    for seed in range(100):
        ckpt = _random_checkpoint(seed)
        path = tmp_path / "rt.sqf"
        save_checkpoint(ckpt, path)
        back = load_checkpoint(path)
        if back.model.dims != ckpt.model.dims or not np.array_equal(
            back.model.params, ckpt.model.params
        ):
            bad += 1
        if back.config != ckpt.config or back.track_dims != ckpt.track_dims:
            bad += 1

    # rejection paths exercised through the CLI exit codes
    raw = tmp_path / "data"
    assert run_cli(
        "synth", "--out-dir", raw, "--seed", 2, "--n-train", 1, "--n-devel", 1,
        "--dims", "1", "--t-range", "8:8",
    ) == 0
    good = tmp_path / "good.sqf"
    model = init_model(0, {"D": 1, "e": 2, "h": 2, "m": 2})
    cfg = TrainConfig(
        target="arousal", embed_dim=2, hidden_units=2, head_hidden=2, epochs=1,
        seed=0, track_order=["track0"],
    )
    from seqfuse import Checkpoint

    save_checkpoint(Checkpoint(model, cfg, (("track0", 1),), 0.0, 0), good)
    blob = good.read_bytes()
    corrupt = tmp_path / "corrupt.sqf"
    corrupt.write_bytes(blob[: len(blob) - 9])
    mismatched = tmp_path / "foreign.sqf"
    mismatched.write_bytes(b"SQF9" + blob[4:])
    corrupt_code = run_cli(
        "evaluate", "--checkpoint", corrupt, "--manifest", raw / "manifest.json"
    )
    version_code = run_cli(
        "evaluate", "--checkpoint", mismatched, "--manifest", raw / "manifest.json"
    )
    report(
        "7 checkpoint round trip",
        bad == 0 and corrupt_code == 2 and version_code == 2,
        f"{bad} lossy round trips of 100; corrupt exit {corrupt_code}; "
        f"foreign-version exit {version_code}",
    )


def test_criterion_8_cross_command_consistency(tmp_path):
    raw = tmp_path / "raw"
    assert run_cli(
        "synth", "--out-dir", raw, "--seed", 3, "--n-train", 8, "--n-devel", 2,
        "--dims", "4,6", "--t-range", "60:100", "--snr", 100,
    ) == 0
    manifest = load_manifest(raw / "manifest.json")
    (train_set,) = load_fused_datasets(manifest, ["train"], ["track0", "track1"])
    (devel_set,) = load_fused_datasets(manifest, ["devel"], ["track0", "track1"])
    config = TrainConfig(
        target="arousal", embed_dim=16, hidden_units=32, head_hidden=16,
        epochs=60, seed=3, track_order=["track0", "track1"], patience=60,
    )
    ckpt, _ = train(train_set, devel_set, config)
    # clamping must not trigger: raw devel predictions stay inside [-1, 1]
    max_abs = max(
        float(np.max(np.abs(forward(ckpt.model, seq.data).predictions)))
        for seq in devel_set
    )
    assert max_abs <= 1.0, f"model overshoots the label range ({max_abs})"

    ckpt_path = tmp_path / "model.sqf"
    save_checkpoint(ckpt, ckpt_path)
    preds_dir = tmp_path / "preds"
    assert run_cli(
        "predict", "--checkpoint", ckpt_path, "--manifest", raw / "manifest.json",
        "--out-dir", preds_dir, "--partition", "devel",
    ) == 0
    report_path = tmp_path / "report.json"
    assert run_cli(
        "evaluate", "--checkpoint", ckpt_path, "--manifest", raw / "manifest.json",
        "--partition", "devel", "--out", report_path,
    ) == 0

    preds, labels = [], []
    for vid in manifest.video_ids("devel"):
        rows = (preds_dir / f"{vid}_arousal.csv").read_text().splitlines()[1:]
        preds.extend(float(line.split(",")[1]) for line in rows)
        entry = manifest.videos[vid]
        label_rows = (
            manifest.resolve(entry.labels["arousal"]).read_text().splitlines()[1:]
        )
        labels.extend(float(line.split(",")[1]) for line in label_rows)
    offline = ccc_direct(np.array(preds), np.array(labels))
    reported = json.loads(report_path.read_text())["concatenated_ccc"]
    diff = abs(offline - reported)
    report(
        "8 cross-command consistency",
        diff <= 1e-9,
        f"offline CCC {offline:.12f} vs report {reported:.12f} (|diff| {diff:.2e}, "
        f"max |pred| {max_abs:.3f})",
    )
