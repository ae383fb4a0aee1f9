import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import seqfuse.metrics as metrics_mod
from seqfuse.pool import _split_by_size
from oracles import ccc_direct
from seqfuse import (
    DegenerateInputError,
    DimMismatchError,
    EmptyDatasetError,
    FrameTrack,
    LabeledSequence,
    LengthMismatchError,
    NonFiniteOutputError,
    ccc,
    evaluate,
    load_manifest,
    predict,
    synth_generate,
    write_dataset,
)
from seqfuse.nn import init_model

@st.composite
def vector_pairs(draw):
    n = draw(st.integers(2, 60))
    elems = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)
    x = draw(hnp.arrays(np.float64, n, elements=elems))
    y = draw(hnp.arrays(np.float64, n, elements=elems))
    return x, y


class TestCcc:
    def test_identical_nonconstant_is_one(self):
        x = np.array([0.1, 0.5, -0.2, 0.9])
        assert ccc(x, x.copy()) == 1.0

    def test_zero_mean_sign_flip_is_minus_one(self):
        x = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        assert ccc(x, -x) == -1.0

    def test_hand_computed_example(self):
        # population moments of x=[1,2,3,4], y=[1,3,2,4]:
        # var_x = var_y = 1.25, cov = 1.0, means equal -> 2/(2.5) = 0.8
        x = np.array([1.0, 2.0, 3.0, 4.0])
        y = np.array([1.0, 3.0, 2.0, 4.0])
        assert ccc(x, y) == pytest.approx(0.8, abs=1e-15)
        assert ccc(x, y) == pytest.approx(ccc_direct(x, y), abs=1e-12)

    def test_constant_vs_nonconstant_is_zero(self):
        x = np.full(5, 0.3)
        y = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
        assert ccc(x, y) == 0.0

    def test_degenerate_raises(self):
        x = np.full(4, 0.7)
        with pytest.raises(DegenerateInputError):
            ccc(x, x.copy())

    @pytest.mark.parametrize("s", [1e-7, 1e-100, 1e-300])
    def test_small_scale_inputs_are_not_degenerate(self, s):
        # The threshold is relative to the inputs' scale, not to 1.
        x = np.array([0.0, s, 2.0 * s, s])
        assert ccc(x, x.copy()) == 1.0

    @pytest.mark.parametrize("c", [0.1, 1e-200, 3e300])
    def test_constant_equal_inputs_raise_at_any_scale(self, c):
        with pytest.raises(DegenerateInputError):
            ccc(np.full(6, c), np.full(6, c))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            ccc(np.zeros(3), np.zeros(4))

    def test_too_short(self):
        with pytest.raises(LengthMismatchError):
            ccc(np.array([1.0]), np.array([2.0]))

    def test_matches_direct_oracle_random_pairs(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = int(rng.integers(2, 300))
            x = rng.normal(scale=rng.uniform(0.1, 3.0), size=n)
            y = rng.normal(scale=rng.uniform(0.1, 3.0), size=n)
            assert ccc(x, y) == pytest.approx(ccc_direct(x, y), abs=1e-10)

    @settings(max_examples=100, deadline=None)
    @given(pair=vector_pairs())
    def test_symmetric_exactly(self, pair):
        x, y = pair
        try:
            forward_value = ccc(x, y)
        except DegenerateInputError:
            with pytest.raises(DegenerateInputError):
                ccc(y, x)
            return
        assert forward_value == ccc(y, x)

    @settings(max_examples=100, deadline=None)
    @given(pair=vector_pairs())
    def test_bounded(self, pair):
        x, y = pair
        try:
            value = ccc(x, y)
        except DegenerateInputError:
            return
        assert abs(value) <= 1.0 + 1e-12

    def test_constant_shift_decreases_positive_ccc(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            n = int(rng.integers(5, 50))
            x = rng.normal(size=n)
            x -= x.mean()
            y = x + 0.1 * rng.normal(size=n)
            y -= y.mean()
            base = ccc(x, y)
            if base <= 0.0:
                continue
            c = float(rng.uniform(0.1, 2.0)) * (1 if rng.random() < 0.5 else -1)
            assert ccc(x, y + c) < base

    def test_scale_identity(self):
        x = np.array([0.4, -0.2, 0.9, 0.0, -0.6])
        assert ccc(x, 1.0 * x) == 1.0
        assert ccc(x, 2.0 * x) < 1.0
        assert ccc(x, x + 0.3) < 1.0
        assert ccc(x, 0.5 * x - 0.2) < 1.0

    @pytest.mark.parametrize("power", [480, 600, 1020])
    def test_inputs_near_the_float_range_scale_exactly(self, power):
        rng = np.random.default_rng(power)
        x, y = rng.normal(size=50), rng.uniform(-1.0, 1.0, size=50)
        s = 2.0**power
        assert ccc(x * s, y * s) == ccc(x, y)
        assert ccc(x * s, y) == pytest.approx(ccc_direct(x * s / 2.0**1000, y / 2.0**1000))


def _sequence(video_id, t, D, labels, seed=0):
    rng = np.random.default_rng(seed)
    track = FrameTrack("track0", rng.normal(size=(t, D)))
    return LabeledSequence(video_id, [track], {"arousal": labels})


def _fake_model(D=3):
    return init_model(0, {"D": D, "e": 3, "h": 4, "m": 3})


def _inject_predictor(monkeypatch, mapping):
    """Replace the network with a lookup keyed by each input matrix's bytes."""

    def fake_predict(model, sequences):
        return [np.asarray(mapping[data.tobytes()]) for data in sequences]

    monkeypatch.setattr(metrics_mod, "predict", fake_predict)


class TestEvaluate:
    def test_perfect_predictor_scores_one(self, monkeypatch):
        rng = np.random.default_rng(3)
        seqs = [
            _sequence("a", 10, 3, rng.uniform(-1, 1, 10), seed=1),
            _sequence("b", 7, 3, rng.uniform(-1, 1, 7), seed=2),
        ]
        _inject_predictor(
            monkeypatch, {s.data.tobytes(): s.labels["arousal"] for s in seqs}
        )
        report = evaluate(_fake_model(), seqs, "arousal")
        assert report.concatenated_ccc == 1.0
        assert report.per_video == {"a": 1.0, "b": 1.0}
        assert report.n_frames_total == 17

    def test_concatenated_matches_manual_concatenation(self, monkeypatch):
        labels_a = np.array([0.1, -0.4, 0.3, 0.8, -0.9])
        labels_b = np.array([-0.2, 0.6, 0.0, 0.5])
        preds_a = np.array([0.2, -0.3, 0.25, 0.7, -0.8])
        preds_b = np.array([-0.1, 0.4, 0.1, 0.45])
        seq_a = _sequence("a", 5, 3, labels_a, seed=10)
        seq_b = _sequence("b", 4, 3, labels_b, seed=11)
        _inject_predictor(
            monkeypatch,
            {seq_a.data.tobytes(): preds_a, seq_b.data.tobytes(): preds_b},
        )
        report = evaluate(_fake_model(), [seq_a, seq_b], "arousal")
        expected = ccc_direct(
            np.concatenate([preds_a, preds_b]), np.concatenate([labels_a, labels_b])
        )
        assert report.concatenated_ccc == pytest.approx(expected, abs=1e-12)
        assert report.per_video["a"] == pytest.approx(
            ccc_direct(preds_a, labels_a), abs=1e-12
        )

    def test_single_video_concatenated_equals_per_video(self):
        model = init_model(4, {"D": 3, "e": 3, "h": 4, "m": 3})
        seq = _sequence("only", 20, 3, np.random.default_rng(5).uniform(-1, 1, 20))
        report = evaluate(model, [seq], "arousal")
        assert report.concatenated_ccc == report.per_video["only"]

    def test_dim_mismatch(self):
        seq = _sequence("a", 5, 7, np.zeros(5))
        with pytest.raises(DimMismatchError):
            evaluate(_fake_model(D=3), [seq], "arousal")

    def test_empty_dataset(self):
        with pytest.raises(EmptyDatasetError):
            evaluate(_fake_model(), [], "arousal")

    def test_degenerate_video_omitted_but_counted(self, monkeypatch, caplog):
        flat = np.full(6, 0.25)
        varied = np.array([0.1, -0.2, 0.4, 0.9, -0.5, 0.3])
        seq_flat = _sequence("flat", 6, 3, flat, seed=20)
        seq_varied = _sequence("varied", 6, 3, varied, seed=21)
        _inject_predictor(
            monkeypatch,
            {seq_flat.data.tobytes(): flat.copy(), seq_varied.data.tobytes(): varied.copy()},
        )
        with caplog.at_level(logging.WARNING):
            report = evaluate(_fake_model(), [seq_flat, seq_varied], "arousal")
        assert "flat" not in report.per_video
        assert report.per_video["varied"] == 1.0
        assert report.n_frames_total == 12
        expected = ccc_direct(
            np.concatenate([flat, varied]), np.concatenate([flat, varied])
        )
        assert report.concatenated_ccc == pytest.approx(expected, abs=1e-12)
        assert any("flat" in rec.message for rec in caplog.records)

    def test_overflowing_predictions_raise_naming_the_video(self):
        model = init_model(1, {"D": 5, "e": 4, "h": 5, "m": 3})
        # Each head unit stays near tanh(1.0) = 0.76, so three of them times 1e308 overflow.
        model.tensors["head_hidden_b"][...] = 1.0
        model.tensors["head_out_w"][...] = 1e308
        videos = synth_generate(3, 2, (20, 30), [2, 3], 100.0)
        with pytest.raises(NonFiniteOutputError) as info:
            evaluate(model, videos, "arousal")
        assert str(info.value) == (
            "video000: the predictions of the model are not finite "
            "(its parameters or these features overflow float64)"
        )

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_first_non_finite_video_in_the_given_order_is_named(self, monkeypatch, bad):
        labels = np.array([0.1, -0.4, 0.3])
        seq_a, seq_b, seq_c = (_sequence(v, 3, 3, labels, seed=k)
                               for k, v in enumerate("abc"))
        _inject_predictor(monkeypatch, {
            seq_a.data.tobytes(): labels,
            seq_b.data.tobytes(): [0.2, bad, 0.1],
            seq_c.data.tobytes(): [bad, bad, bad],
        })
        for order, named in (([seq_a, seq_b, seq_c], "b"), ([seq_c, seq_b], "c")):
            with pytest.raises(NonFiniteOutputError, match=f"^{named}: the predictions of"):
                evaluate(_fake_model(), order, "arousal")
        assert evaluate(_fake_model(), [seq_a], "arousal").concatenated_ccc == 1.0

    def test_report_dict_and_summary(self):
        model = init_model(4, {"D": 2, "e": 2, "h": 2, "m": 2})
        seq = _sequence("v", 12, 2, np.random.default_rng(6).uniform(-1, 1, 12))
        report = evaluate(model, [seq], "arousal")
        payload = report.to_dict()
        assert set(payload) == {"target", "concatenated_ccc", "per_video", "n_frames_total"}
        assert "arousal" in report.summary()


class TestSplitBySize:
    """The grouping of ``pool.map_video_groups``, which scoring runs on."""

    def test_largest_first_onto_the_lightest_group_each_in_order(self):
        groups = _split_by_size(["a", "b", "c", "d", "e"], [5, 9, 2, 7, 3], 2)
        assert groups == [["b", "c", "e"], ["a", "d"]]  # 14 and 12 bytes

    def test_unknown_sizes_still_give_every_group_a_video(self):
        assert _split_by_size(["a", "b", "c"], [0, 0, 0], 2) == [["a", "c"], ["b"]]


class TestScorePartition:
    def _dataset(self, tmp_path):
        videos = synth_generate(2, 3, (10, 20), [2, 3], 100.0)
        write_dataset(tmp_path, zip(["devel"] * 3, videos))
        return load_manifest(tmp_path / "manifest.json"), videos

    def test_predictions_are_predicts_in_manifest_order(self, tmp_path):
        manifest, videos = self._dataset(tmp_path)
        model = init_model(1, {"D": 5, "e": 3, "h": 4, "m": 3})
        scored = metrics_mod.score_partition(
            model, manifest, "devel", (("track0", 2), ("track1", 3)), "checkpoint c.sqf"
        )
        assert [v.video_id for v in scored] == [v.video_id for v in videos]
        expected = predict(model, [v.data for v in videos])
        for video, preds in zip(scored, expected):
            assert video.predictions.tobytes() == preds.tobytes()
        report = metrics_mod.ccc_report("arousal", scored)
        assert report.to_dict() == evaluate(model, videos, "arousal").to_dict()

    def test_other_track_dims_raise_naming_the_owner(self, tmp_path, monkeypatch):
        manifest, _ = self._dataset(tmp_path)
        model = init_model(1, {"D": 5, "e": 3, "h": 4, "m": 3})
        loaded = []
        real_load = metrics_mod.load_labeled_sequence
        monkeypatch.setattr(metrics_mod, "load_labeled_sequence",
                            lambda *call: loaded.append(call[1]) or real_load(*call))
        with pytest.raises(DimMismatchError) as info:
            metrics_mod.score_partition(
                model, manifest, "devel", (("track0", 3), ("track1", 2)), "checkpoint c.sqf"
            )
        assert str(info.value) == (
            "video000: track 'track0' has dim 2 where checkpoint c.sqf has track 'track0' of dim 3"
        )
        assert loaded == ["video000"]  # checked as soon as it is loaded
