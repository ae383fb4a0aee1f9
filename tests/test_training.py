import hashlib
import json
import re
import struct
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import (
    assert_models_equal,
    fail_writes_halfway,
    make_split,
    small_train_config,
    zero_model,
)
from oracles import adam_single_update, mse_handsum
from seqfuse import (
    Checkpoint,
    ConfigError,
    CorruptCheckpointError,
    DimMismatchError,
    EmptyDatasetError,
    EpochStats,
    EmptySequenceError,
    FrameTrack,
    LabeledSequence,
    LengthMismatchError,
    ShapeMismatchError,
    TargetMissingError,
    TrainConfig,
    VersionMismatchError,
    load_checkpoint,
    save_checkpoint,
    synth_generate,
    train,
)
from seqfuse.nn import backward, forward, init_model
from seqfuse.training import adam_step, chunk, init_adam_state, mse_loss, write_history_csv


class TestTrainConfig:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("epochs", 2.5),
            ("epochs", True),
            ("embed_dim", 4.0),
            ("seed", "1"),
            ("patience", None),
            ("adam_beta1", 1.0),
            ("adam_beta1", -0.1),
            ("adam_beta2", 1.0),
            ("adam_eps", 0.0),
            ("track_order", 5),
            ("track_order", "track0"),
            ("track_order", []),
            ("track_order", ["track0", 1]),
            ("track_order", ["track0", "track0"]),
            ("target", ""),
            ("target", "../esc"),
            ("target", "a\\b"),
            ("target", "a\0b"),
            ("adam_eps", float("inf")),
            ("learning_rate", True),
            ("learning_rate", float("nan")),
            ("learning_rate", "0.1"),
            pytest.param("learning_rate", 10**400, id="learning_rate-past-float"),
            ("adam_beta2", None),
            ("dropout_rate", float("-inf")),
            ("max_time_step", True),
            ("max_time_step", 0),
            ("patience", "3"),
            ("seed", True),
            ("seed", 1.0),
            ("head_hidden", np.True_),
            ("hidden_units", 0),
            ("epochs", -1),
        ],
    )
    def test_bad_value_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            small_train_config(**{field: value})

    @pytest.mark.parametrize("field,value,message", [
        ("embed_dim", 0, "embed_dim must be an integer >= 1, got 0"),
        ("epochs", -1, "epochs must be an integer >= 0, got -1"),
        ("max_time_step", 2.0, "max_time_step must be an integer >= 1, got 2.0"),
        ("patience", True, "patience must be an integer >= 1, got True"),
        ("seed", "x", "seed must be an integer, got 'x'"),
    ], ids=["embed-dim-zero", "epochs-negative", "chunk-float", "patience-bool", "seed-string"])
    def test_int_field_message_names_its_least(self, field, value, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            small_train_config(**{field: value})

    def test_numpy_integer_fields_kept_as_ints(self):
        ints = dict(embed_dim=np.int64(4), hidden_units=np.uint8(5), head_hidden=np.int32(3),
                    epochs=np.int16(0), seed=np.int64(-3), max_time_step=np.uint64(7),
                    patience=np.int8(2))
        cfg = small_train_config(**ints)
        assert {name: getattr(cfg, name) for name in ints} == ints
        assert all(type(getattr(cfg, name)) is int for name in ints)

    def test_boundary_values_accepted(self):
        cfg = small_train_config(adam_beta1=0.0, adam_beta2=0.0, adam_eps=1e-300)
        assert cfg.adam_beta1 == 0.0
        # A JSON config may hold a float field as an integer.
        cfg = small_train_config(learning_rate=1, adam_beta1=0, dropout_rate=0)
        assert (cfg.learning_rate, cfg.adam_beta1, cfg.dropout_rate) == (1, 0, 0)


class TestMseLoss:
    def test_perfect_fit(self):
        y = np.array([0.1, -0.2, 0.3])
        assert mse_loss(y.copy(), y) == 0.0

    def test_unit_errors(self):
        assert mse_loss(np.array([1.0, 1.0]), np.array([0.0, 0.0])) == 1.0

    def test_matches_hand_summation(self):
        rng = np.random.default_rng(21)
        pred = rng.normal(size=17)
        lab = rng.uniform(-1, 1, size=17)
        assert mse_loss(pred, lab) == pytest.approx(mse_handsum(pred, lab), abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            mse_loss(np.zeros(3), np.zeros(4))

    def test_empty(self):
        with pytest.raises(EmptySequenceError):
            mse_loss(np.zeros(0), np.zeros(0))


def _sequence(t, D=4, video_id="v"):
    rng = np.random.default_rng(t)
    return LabeledSequence(
        video_id,
        [FrameTrack("track0", rng.normal(size=(t, D)))],
        {"arousal": rng.uniform(-1, 1, t), "valence": rng.uniform(-1, 1, t)},
    )


class TestChunk:
    def test_exact_fit_single_chunk(self):
        chunks = chunk(_sequence(100), 100, "arousal")
        assert len(chunks) == 1
        assert chunks[0][0].shape[0] == 100

    def test_division_with_remainder(self):
        chunks = chunk(_sequence(250), 100, "arousal")
        assert [c[0].shape[0] for c in chunks] == [100, 100, 50]
        assert [len(c[1]) for c in chunks] == [100, 100, 50]

    def test_concatenation_reconstructs(self):
        seq = _sequence(237)
        chunks = chunk(seq, 100, "valence")
        assert np.array_equal(np.vstack([c[0] for c in chunks]), seq.data)
        assert np.array_equal(
            np.concatenate([c[1] for c in chunks]), seq.labels["valence"]
        )

    def test_target_missing(self):
        with pytest.raises(TargetMissingError):
            chunk(_sequence(10), 100, "dominance")

    # True once cut a sequence into one-frame chunks.
    @pytest.mark.parametrize("max_time_step", [0, True, 100.0, "100"],
                             ids=["zero", "bool", "float", "string"])
    def test_chunk_length_that_is_not_an_integer_of_at_least_1_refused(self, max_time_step):
        message = f"max_time_step must be an integer >= 1, got {max_time_step!r}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            chunk(_sequence(10), max_time_step, "arousal")

    def test_numpy_integer_chunk_length_accepted(self):
        chunks = chunk(_sequence(250), np.int64(100), "arousal")
        assert [c[0].shape[0] for c in chunks] == [100, 100, 50]

    def test_empty_sequence(self):
        # No sequence without frames reaches chunk: no track has zero frames.
        message = "track 'track0': frames must be (t, dim) with t and dim at least 1"
        with pytest.raises(DimMismatchError, match=re.escape(f"{message}, got shape (0, 4)")):
            FrameTrack("track0", np.zeros((0, 4)))


class TestAdamStep:
    def test_zero_gradient_fresh_state_is_noop(self):
        model = init_model(3, {"D": 3, "e": 3, "h": 4, "m": 3})
        cfg = small_train_config()
        grads = np.zeros_like(model.params)
        new_model, state = adam_step(model, grads, init_adam_state(model), cfg)
        assert_models_equal(model, new_model)
        assert state.step == 1

    def test_single_scalar_parameter_hand_oracle(self):
        model = zero_model()
        cfg = small_train_config(learning_rate=1e-3)
        grads = np.zeros_like(model.params)
        model.views(grads)["head_out_b"][0] = 1.0
        new_model, _ = adam_step(model, grads, init_adam_state(model), cfg)
        expected, *_ = adam_single_update(0.0, 1.0, 1e-3, 0.9, 0.999, 1e-8)
        assert expected == pytest.approx(-1e-3 / (1.0 + 1e-8), abs=1e-18)
        assert new_model.tensors["head_out_b"][0] == pytest.approx(expected, abs=1e-15)
        # every other parameter untouched
        for name, p in new_model.tensors.items():
            if name != "head_out_b":
                assert np.array_equal(p, model.tensors[name]), name

    def test_deterministic(self):
        model = init_model(5, {"D": 3, "e": 3, "h": 4, "m": 3})
        rng = np.random.default_rng(9)
        grads = rng.normal(size=model.params.shape)
        cfg = small_train_config()
        a_model, a_state = adam_step(model, grads, init_adam_state(model), cfg)
        b_model, b_state = adam_step(model, grads, init_adam_state(model), cfg)
        assert_models_equal(a_model, b_model)
        assert np.array_equal(a_state.m, b_state.m)
        assert np.array_equal(a_state.v, b_state.v)

    def test_bitwise_equal_to_the_formula_and_inputs_untouched(self):
        model = init_model(5, {"D": 7, "e": 3, "h": 4, "m": 3})
        cfg = small_train_config(learning_rate=0.005)
        b1, b2, eps, lr = cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps, cfg.learning_rate
        rng = np.random.default_rng(4)
        state = init_adam_state(model)
        params, m, v = model.params, state.m, state.v
        for step in range(1, 6):
            grads = rng.normal(size=model.params.shape) * 10.0 ** rng.integers(-8, 3)
            inputs = [a.copy() for a in (model.params, grads, state.m, state.v)]
            model, state = adam_step(model, grads, state, cfg)
            for before, now in zip(inputs, (params, grads, m, v)):
                assert np.array_equal(before, now)
            m = b1 * m + (1.0 - b1) * grads
            v = b2 * v + (1.0 - b2) * grads * grads
            m_hat = m / (1.0 - b1**step)
            v_hat = v / (1.0 - b2**step)
            params = params - lr * m_hat / (np.sqrt(v_hat) + eps)
            for got, want in ((model.params, params), (state.m, m), (state.v, v)):
                assert got.tobytes() == want.tobytes()
            params, m, v = model.params, state.m, state.v

    def test_shape_mismatch(self):
        model = init_model(5, {"D": 3, "e": 3, "h": 4, "m": 3})
        grads = np.zeros(model.params.size - 1)
        with pytest.raises(ShapeMismatchError):
            adam_step(model, grads, init_adam_state(model), small_train_config())
        other = init_model(5, {"D": 4, "e": 3, "h": 4, "m": 3})
        with pytest.raises(ShapeMismatchError):
            adam_step(model, np.zeros_like(model.params), init_adam_state(other),
                      small_train_config())

    def test_multi_step_matches_hand_sequence(self):
        model = zero_model()
        cfg = small_train_config(learning_rate=0.01)
        state = init_adam_state(model)
        p_ref, m_ref, v_ref, step_ref = 0.0, 0.0, 0.0, 0
        for g in (1.0, -0.5, 2.0, 0.25):
            grads = np.zeros_like(model.params)
            model.views(grads)["head_out_b"][0] = g
            model, state = adam_step(model, grads, state, cfg)
            p_ref, m_ref, v_ref, step_ref = adam_single_update(
                p_ref, g, 0.01, 0.9, 0.999, 1e-8, m_ref, v_ref, step_ref
            )
            assert model.tensors["head_out_b"][0] == pytest.approx(p_ref, abs=1e-15)


class TestTrain:
    def test_deterministic_runs(self):
        train_set, devel_set = make_split(seed=5, n_train=3, n_devel=1, t_range=(15, 30))
        cfg = small_train_config(epochs=3)
        ckpt_a, hist_a = train(train_set, devel_set, cfg)
        ckpt_b, hist_b = train(train_set, devel_set, cfg)
        assert_models_equal(ckpt_a.model, ckpt_b.model)
        assert hist_a == hist_b
        assert ckpt_a.best_ccc == ckpt_b.best_ccc
        assert ckpt_a.best_epoch == ckpt_b.best_epoch

    def test_zero_epochs_returns_fresh_model(self):
        train_set, devel_set = make_split(seed=6, n_train=2, n_devel=1, t_range=(12, 20))
        cfg = small_train_config(epochs=0)
        ckpt, history = train(train_set, devel_set, cfg)
        assert history == []
        assert ckpt.best_epoch == 0
        fresh = init_model(
            cfg.seed,
            {"D": train_set[0].dim, "e": cfg.embed_dim, "h": cfg.hidden_units, "m": cfg.head_hidden},
        )
        assert_models_equal(ckpt.model, fresh)

    def test_history_and_checkpoint_metadata(self):
        train_set, devel_set = make_split(seed=7, n_train=2, n_devel=1, t_range=(12, 20))
        cfg = small_train_config(epochs=4, patience=10)
        ckpt, history = train(train_set, devel_set, cfg)
        assert [st.epoch for st in history] == [1, 2, 3, 4]
        assert all(np.isfinite(st.train_loss) for st in history)
        assert ckpt.track_dims == (("track0", 4), ("track1", 6))
        assert ckpt.config == cfg

    def test_empty_sets_rejected(self):
        train_set, devel_set = make_split(seed=8, n_train=1, n_devel=1, t_range=(10, 10))
        with pytest.raises(EmptyDatasetError):
            train([], devel_set, small_train_config())
        with pytest.raises(EmptyDatasetError):
            train(train_set, [], small_train_config())

    def test_target_missing(self):
        train_set, devel_set = make_split(seed=9, n_train=1, n_devel=1, t_range=(10, 10))
        with pytest.raises(TargetMissingError):
            train(train_set, devel_set, small_train_config(target="dominance"))

    def test_extra_track_named(self):
        (a,) = synth_generate(1, 1, (10, 10), [4, 6], 100.0)
        (b,) = synth_generate(2, 1, (10, 10), [4], 100.0)
        a.video_id, b.video_id = "a", "b"
        with pytest.raises(DimMismatchError) as info:
            train([b, a], [a], small_train_config())
        assert str(info.value) == "a: has track 'track1' of dim 6 where b has no such track"

    def test_track_order_mismatch(self):
        train_set, devel_set = make_split(seed=10, n_train=1, n_devel=1, t_range=(10, 10))
        with pytest.raises(ConfigError):
            train(train_set, devel_set, small_train_config(track_order=["track1", "track0"]))

    def test_devel_video_without_the_target_named(self):
        train_set, devel_set = make_split(seed=9, n_train=1, n_devel=1, t_range=(10, 10))
        del devel_set[0].labels["arousal"]
        message = f"{devel_set[0].video_id}: no labels for target 'arousal'"
        with pytest.raises(TargetMissingError, match=re.escape(message)):
            train(train_set, devel_set, small_train_config())

    def test_tracks_in_another_order_than_the_config_named(self):
        train_set, devel_set = make_split(seed=10, n_train=1, n_devel=1, t_range=(10, 10))
        train_set, devel_set = (
            [LabeledSequence(seq.video_id, [FrameTrack(tr.name, tr.frames)
                                            for tr in reversed(seq.tracks)], seq.labels)
             for seq in videos]
            for videos in (train_set, devel_set)
        )
        message = (f"train video {train_set[0].video_id!r}: track_dims name tracks "
                   "['track1', 'track0'], but config.track_order is ['track0', 'track1']")
        with pytest.raises(ConfigError, match=re.escape(message)):
            train(train_set, devel_set, small_train_config())

    def test_early_stopping_after_patience_epochs(self, monkeypatch):
        import seqfuse.training as training_mod

        scores = iter([0.5, 0.4, 0.45, 0.3, 0.2, 0.1, 0.05])
        monkeypatch.setattr(
            training_mod,
            "evaluate",
            lambda model, devel, target: SimpleNamespace(concatenated_ccc=next(scores)),
        )
        train_set, devel_set = make_split(seed=11, n_train=2, n_devel=1, t_range=(10, 16))
        cfg = small_train_config(epochs=200, patience=3)
        ckpt, history = train(train_set, devel_set, cfg)
        # epoch-0 score 0.5 is never beaten; three bad epochs then stop
        assert len(history) == 3
        assert ckpt.best_epoch == 0
        assert ckpt.best_ccc == 0.5

    def test_early_stopping_counter_resets_on_improvement(self, monkeypatch):
        import seqfuse.training as training_mod

        scores = iter([0.1, 0.2, 0.15, 0.14, 0.3, 0.1, 0.05, 0.0])
        monkeypatch.setattr(
            training_mod,
            "evaluate",
            lambda model, devel, target: SimpleNamespace(concatenated_ccc=next(scores)),
        )
        train_set, devel_set = make_split(seed=11, n_train=2, n_devel=1, t_range=(10, 16))
        cfg = small_train_config(epochs=200, patience=3)
        ckpt, history = train(train_set, devel_set, cfg)
        # improvements at epochs 1 and 4; then three bad epochs (5, 6, 7)
        assert len(history) == 7
        assert ckpt.best_epoch == 4
        assert ckpt.best_ccc == 0.3

    def test_loss_monotone_on_fixed_chunk_without_dropout(self):
        rng = np.random.default_rng(13)
        features = rng.normal(size=(40, 5))
        labels = rng.uniform(-1, 1, size=40)
        model = init_model(2, {"D": 5, "e": 6, "h": 8, "m": 4})
        cfg = TrainConfig(
            target="arousal",
            embed_dim=6,
            hidden_units=8,
            head_hidden=4,
            epochs=1,
            seed=2,
            track_order=["only"],
            learning_rate=1e-4,
            dropout_rate=0.0,
        )
        state = init_adam_state(model)
        losses = []
        for _ in range(51):
            trace = forward(model, features)
            losses.append(mse_loss(trace.predictions, labels))
            grads = backward(model, trace, labels)
            model, state = adam_step(model, grads, state, cfg)
        increases = sum(max(0.0, b - a) for a, b in zip(losses, losses[1:]))
        assert increases <= 1e-6

    @pytest.mark.parametrize(
        "n_train,where", [(1, "non-finite devel CCC"), (3, "non-finite loss")]
    )
    def test_divergence_raises(self, n_train, where):
        # One Adam step of size ~1e300 overflows the forward pass. With one
        # short train video the first non-finite value is the devel CCC.
        train_set, devel_set = make_split(
            seed=5, n_train=n_train, n_devel=1, t_range=(10, 16)
        )
        with pytest.raises(ConfigError, match=f"training diverged: {where}"):
            train(train_set, devel_set, small_train_config(learning_rate=1e300))

    def test_chunking_noop_when_t_below_max(self):
        train_set, devel_set = make_split(seed=12, n_train=3, n_devel=1, t_range=(20, 60))
        assert all(s.n_frames <= 100 for s in train_set + devel_set)
        cfg_chunked = small_train_config(epochs=3, max_time_step=100)
        cfg_whole = small_train_config(epochs=3, max_time_step=10**6)
        ckpt_a, hist_a = train(train_set, devel_set, cfg_chunked)
        ckpt_b, hist_b = train(train_set, devel_set, cfg_whole)
        assert_models_equal(ckpt_a.model, ckpt_b.model)
        assert [st.train_loss for st in hist_a] == [st.train_loss for st in hist_b]
        assert [st.devel_ccc for st in hist_a] == [st.devel_ccc for st in hist_b]


def _random_checkpoint(seed):
    rng = np.random.default_rng(seed)
    dims = {
        "D": int(rng.integers(1, 8)),
        "e": int(rng.integers(1, 8)),
        "h": int(rng.integers(1, 8)),
        "m": int(rng.integers(1, 8)),
    }
    model = init_model(seed, dims)
    cfg = TrainConfig(
        target="valence",
        embed_dim=dims["e"],
        hidden_units=dims["h"],
        head_hidden=dims["m"],
        epochs=int(rng.integers(1, 50)),
        seed=seed,
        track_order=["track0"],
    )
    return Checkpoint(model, cfg, (("track0", dims["D"]),), float(rng.uniform(-1, 1)), 3)


# Bytes the version-1 format gives for _golden_checkpoint(); a change here
# breaks every checkpoint written before it.
GOLDEN_SIZE = 2106
GOLDEN_SHA256 = "86557ed3c49d5fb46d181e9f295395f82d417ce0333fcb18f0ac15150f7f4807"


def _golden_checkpoint():
    cfg = TrainConfig(
        target="arousal",
        embed_dim=4,
        hidden_units=3,
        head_hidden=2,
        epochs=1,
        seed=7,
        track_order=["track0"],
    )
    model = init_model(7, {"D": 5, "e": 4, "h": 3, "m": 2})
    return Checkpoint(model, cfg, (("track0", 5),), 0.5, 0)


def _rewrite_header(src, dst, edit):
    """Copy a checkpoint with ``edit`` applied to its parsed JSON header."""
    data = src.read_bytes()
    (n,) = struct.unpack("<I", data[4:8])
    header = json.loads(data[8 : 8 + n])
    edit(header)
    raw = json.dumps(header, sort_keys=True).encode("utf-8")
    dst.write_bytes(data[:4] + struct.pack("<I", len(raw)) + raw + data[8 + n :])


def _swap_offsets(header, a="head_hidden_b", b="head_out_w"):
    specs = {spec["name"]: spec for spec in header["params"]}
    specs[a]["offset"], specs[b]["offset"] = specs[b]["offset"], specs[a]["offset"]


class TestCheckpointIo:
    def test_roundtrip_is_bitwise(self, tmp_path):
        for seed in range(10):
            ckpt = _random_checkpoint(seed)
            path = tmp_path / f"ckpt{seed}.sqf"
            save_checkpoint(ckpt, path)
            back = load_checkpoint(path)
            assert_models_equal(ckpt.model, back.model)
            assert back.config == ckpt.config
            assert back.track_dims == ckpt.track_dims
            assert back.best_ccc == ckpt.best_ccc
            assert back.best_epoch == ckpt.best_epoch

    def test_save_is_deterministic(self, tmp_path):
        ckpt = _random_checkpoint(4)
        save_checkpoint(ckpt, tmp_path / "a.sqf")
        save_checkpoint(ckpt, tmp_path / "b.sqf")
        assert (tmp_path / "a.sqf").read_bytes() == (tmp_path / "b.sqf").read_bytes()

    @pytest.mark.parametrize("case", ["embed-dim", "track-names"])
    def test_save_refuses_what_load_refuses_writing_nothing(self, tmp_path, case):
        # Such a checkpoint once saved, then loaded as CorruptCheckpointError.
        model = init_model(0, {"D": 5, "e": 4, "h": 5, "m": 3})
        cfg = small_train_config(embed_dim=8 if case == "embed-dim" else 4)
        names = ("a", "b") if case == "track-names" else ("track0", "track1")
        ckpt = Checkpoint(model, cfg, ((names[0], 2), (names[1], 3)), 0.5, 0)
        path = tmp_path / "c.sqf"
        if case == "embed-dim":
            error, message = ShapeMismatchError, (
                "c.sqf: model dims {'D': 5, 'e': 4, 'h': 5, 'm': 3}, but its config and "
                "track dims give {'D': 5, 'e': 8, 'h': 5, 'm': 3}")
        else:
            error, message = ConfigError, (
                "c.sqf: track_dims name tracks ['a', 'b'], but config.track_order is "
                "['track0', 'track1']")
        with pytest.raises(error, match=re.escape(message)):
            save_checkpoint(ckpt, path)
        assert list(tmp_path.iterdir()) == []

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "ckpt.sqf"
        save_checkpoint(_random_checkpoint(1), path)
        data = path.read_bytes()
        for cut in (2, 6, len(data) // 2, len(data) - 1):
            (tmp_path / "cut.sqf").write_bytes(data[:cut])
            with pytest.raises(CorruptCheckpointError):
                load_checkpoint(tmp_path / "cut.sqf")

    def test_foreign_version_tag_rejected(self, tmp_path):
        path = tmp_path / "ckpt.sqf"
        save_checkpoint(_random_checkpoint(2), path)
        data = path.read_bytes()
        (tmp_path / "v2.sqf").write_bytes(b"SQF2" + data[4:])
        with pytest.raises(VersionMismatchError):
            load_checkpoint(tmp_path / "v2.sqf")

    def test_alien_magic_rejected(self, tmp_path):
        path = tmp_path / "ckpt.sqf"
        save_checkpoint(_random_checkpoint(2), path)
        data = path.read_bytes()
        (tmp_path / "bad.sqf").write_bytes(b"WHAT" + data[4:])
        with pytest.raises(CorruptCheckpointError):
            load_checkpoint(tmp_path / "bad.sqf")

    def test_golden_bytes(self, tmp_path):
        path = tmp_path / "golden.sqf"
        save_checkpoint(_golden_checkpoint(), path)
        data = path.read_bytes()
        assert len(data) == GOLDEN_SIZE
        assert hashlib.sha256(data).hexdigest() == GOLDEN_SHA256

    def test_untouched_rewritten_header_loads(self, tmp_path):
        save_checkpoint(_golden_checkpoint(), tmp_path / "g.sqf")
        _rewrite_header(tmp_path / "g.sqf", tmp_path / "same.sqf", lambda header: None)
        assert_models_equal(load_checkpoint(tmp_path / "same.sqf").model,
                            _golden_checkpoint().model)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda header: header["dims"].update(D=6),
            lambda header: header["params"][0].update(shape=[5, 4]),
            _swap_offsets,
            lambda header: header["config"].update(target="../esc"),
            lambda header: header["config"].update(track_order=["track1"]),
            lambda header: header.update(
                config={**header["config"], "track_order": ["track0", "track1"]},
                track_dims=[["track1", 2], ["track0", 3]],
            ),
            lambda header: header.update(
                config={**header["config"], "track_order": ["track0", "track0"]},
                track_dims=[["track0", 2], ["track0", 3]],
            ),
            lambda header: header.update(extra=1),
            lambda header: header.pop("params"),
            # The model's dims come from the config, not from the stored dims.
            lambda header: header["config"].update(embed_dim=7, hidden_units=9),
            lambda header: header.pop("dims"),
        ],
        ids=["dims", "shape", "offsets", "target-path", "track-renamed", "track-order-swapped",
             "track-named-twice", "extra-key", "params-missing", "config-dims", "dims-missing"],
    )
    def test_tampered_header_rejected(self, tmp_path, edit):
        save_checkpoint(_golden_checkpoint(), tmp_path / "g.sqf")
        _rewrite_header(tmp_path / "g.sqf", tmp_path / "bad.sqf", edit)
        with pytest.raises(CorruptCheckpointError):
            load_checkpoint(tmp_path / "bad.sqf")

    @pytest.mark.parametrize("second", [b"2", b"0"])
    def test_repeated_header_key_rejected(self, tmp_path, second):
        save_checkpoint(_golden_checkpoint(), tmp_path / "g.sqf")
        data = (tmp_path / "g.sqf").read_bytes()
        (n,) = struct.unpack("<I", data[4:8])
        raw = data[8 : 8 + n]
        assert raw.count(b'"best_epoch": 0') == 1
        raw = raw.replace(b'"best_epoch": 0', b'"best_epoch": 0, "best_epoch": ' + second)
        (tmp_path / "bad.sqf").write_bytes(
            data[:4] + struct.pack("<I", len(raw)) + raw + data[8 + n :]
        )
        with pytest.raises(CorruptCheckpointError, match="bad.sqf: header differs from the one"):
            load_checkpoint(tmp_path / "bad.sqf")

    @pytest.mark.parametrize(
        "field,value",
        [
            ("best_epoch", float("inf")),
            ("best_epoch", 1.5),
            ("best_epoch", True),
            ("best_epoch", "0"),
            ("best_epoch", -1),
            ("track_dims", [["track0", float("inf")]]),
            ("track_dims", [["track0", 5.0]]),
            ("track_dims", [["track0", True], ["track1", 4]]),
            ("track_dims", [["track0", 0], ["track1", 5]]),
            ("track_dims", [[5, 5]]),
            ("track_dims", [["track0", 4]]),
            ("best_ccc", True),
            ("best_ccc", "0.25"),
            ("best_ccc", 1),
            ("best_ccc", None),
            ("best_ccc", float("nan")),
            ("best_ccc", float("inf")),
            ("dims", {"D": True, "e": 4, "h": 3, "m": 2}),
            ("dims", {"D": 5, "e": 4.0, "h": 3, "m": 2}),
            ("dims", {"D": 5, "e": 4, "h": "3", "m": 2}),
            ("dims", {"D": 5, "e": 4, "h": 3, "m": 0}),
            ("dims", {"D": 5, "e": 4, "h": 3}),
            ("dims", [5, 4, 3, 2]),
            ("track_dims", [["track0", "5"]]),
            ("best_epoch", None),
        ],
        ids=[
            "epoch-inf", "epoch-float", "epoch-bool", "epoch-string", "epoch-negative",
            "dim-inf", "dim-float", "dim-bool", "dim-zero", "name-int", "dims-sum",
            "ccc-bool", "ccc-string", "ccc-int", "ccc-null", "ccc-nan", "ccc-inf",
            "model-D-bool", "model-e-float", "model-h-string", "model-m-zero",
            "model-m-missing", "model-dims-list", "dim-string", "epoch-null",
        ],
    )
    def test_bad_header_integer_rejected(self, tmp_path, field, value):
        save_checkpoint(_golden_checkpoint(), tmp_path / "g.sqf")
        _rewrite_header(tmp_path / "g.sqf", tmp_path / "bad.sqf",
                        lambda header: header.update({field: value}))
        with pytest.raises(CorruptCheckpointError, match="bad.sqf: "):
            load_checkpoint(tmp_path / "bad.sqf")

    @pytest.mark.parametrize("field", ["learning_rate", "adam_eps", "dropout_rate"])
    def test_non_finite_config_float_rejected(self, tmp_path, field):
        save_checkpoint(_golden_checkpoint(), tmp_path / "g.sqf")
        _rewrite_header(tmp_path / "g.sqf", tmp_path / "bad.sqf",
                        lambda header: header["config"].update({field: float("inf")}))
        with pytest.raises(CorruptCheckpointError,
                           match=f"bad.sqf: bad header fields: {field} must be a finite number"):
            load_checkpoint(tmp_path / "bad.sqf")

    @pytest.mark.parametrize("key", "Dehm")
    def test_bool_model_dim_rejected(self, tmp_path, key):
        # At width 1 a ``true`` dim gives the same layout, so only its type
        # tells: the header's dims are not the ones its config gives.
        cfg = small_train_config(embed_dim=1, hidden_units=1, head_hidden=1, track_order=["t"])
        model = init_model(0, {"D": 1, "e": 1, "h": 1, "m": 1})
        save_checkpoint(Checkpoint(model, cfg, (("t", 1),), 0.5, 0), tmp_path / "g.sqf")
        _rewrite_header(tmp_path / "g.sqf", tmp_path / "bad.sqf",
                        lambda header: header["dims"].update({key: True}))
        with pytest.raises(CorruptCheckpointError,
                           match="bad.sqf: header differs from the one its fields are saved"):
            load_checkpoint(tmp_path / "bad.sqf")

    @pytest.mark.parametrize("header", [b"[]", b'"SQF1"', b"3", b"null"])
    def test_header_not_an_object_rejected(self, tmp_path, header):
        path = tmp_path / "list.sqf"
        path.write_bytes(b"SQF1" + struct.pack("<I", len(header)) + header)
        with pytest.raises(CorruptCheckpointError, match="not a JSON object"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [float("nan"), float("-inf")], ids=["nan", "inf"])
    def test_non_finite_parameter_rejected_naming_it(self, tmp_path, value):
        ckpt = _random_checkpoint(3)
        ckpt.model.tensors["head_hidden_b"][-1] = value
        save_checkpoint(ckpt, tmp_path / "bad.sqf")
        with pytest.raises(CorruptCheckpointError,
                           match="bad.sqf: parameter 'head_hidden_b' is not finite"):
            load_checkpoint(tmp_path / "bad.sqf")

    def test_trailing_garbage_rejected(self, tmp_path):
        path = tmp_path / "ckpt.sqf"
        save_checkpoint(_random_checkpoint(3), path)
        (tmp_path / "fat.sqf").write_bytes(path.read_bytes() + b"\x00" * 16)
        with pytest.raises(CorruptCheckpointError):
            load_checkpoint(tmp_path / "fat.sqf")


class TestHistoryCsv:
    def test_format(self, tmp_path):
        from seqfuse import EpochStats

        history = [EpochStats(1, 0.5, 0.1), EpochStats(2, 0.25, 0.4)]
        path = tmp_path / "history.csv"
        write_history_csv(history, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,train_loss,devel_ccc"
        assert lines[1] == "1,0.5,0.1"
        assert lines[2] == "2,0.25,0.4"


class TestAtomicWrites:
    @pytest.mark.parametrize(
        "write",
        [
            lambda path: save_checkpoint(_random_checkpoint(5), path),
            lambda path: write_history_csv([EpochStats(1, 0.5, 0.25)], path),
        ],
        ids=["checkpoint", "history"],
    )
    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch, write):
        path = tmp_path / "artefact"
        save_checkpoint(_golden_checkpoint(), path)
        before = path.read_bytes()
        fail_writes_halfway(monkeypatch)
        with pytest.raises(OSError, match="No space left"):
            write(path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["artefact"]
