import logging
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import seqfuse.metrics as metrics_mod
from oracles import ccc_direct
from seqfuse import (
    DegenerateInputError,
    DimMismatchError,
    EmptyDatasetError,
    FusedSequence,
    LengthMismatchError,
    ccc,
    evaluate,
    init_model,
)

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


def _fused(video_id, t, D, labels, seed=0):
    rng = np.random.default_rng(seed)
    return FusedSequence(video_id, rng.normal(size=(t, D)), {"arousal": labels})


def _fake_model(D=3):
    return init_model(0, {"D": D, "e": 3, "h": 4, "m": 3})


def _inject_predictor(monkeypatch, mapping):
    """Replace the network with a lookup keyed by the input matrix bytes."""

    def fake_forward(model, data, dropout_rate=0.0, mask_seed=None):
        return SimpleNamespace(predictions=np.asarray(mapping[data.tobytes()]))

    monkeypatch.setattr(metrics_mod, "forward", fake_forward)


class TestEvaluate:
    def test_perfect_predictor_scores_one(self, monkeypatch):
        rng = np.random.default_rng(3)
        seqs = [
            _fused("a", 10, 3, rng.uniform(-1, 1, 10), seed=1),
            _fused("b", 7, 3, rng.uniform(-1, 1, 7), seed=2),
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
        seq_a = _fused("a", 5, 3, labels_a, seed=10)
        seq_b = _fused("b", 4, 3, labels_b, seed=11)
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
        seq = _fused("only", 20, 3, np.random.default_rng(5).uniform(-1, 1, 20))
        report = evaluate(model, [seq], "arousal")
        assert report.concatenated_ccc == report.per_video["only"]

    def test_dim_mismatch(self):
        seq = _fused("a", 5, 7, np.zeros(5))
        with pytest.raises(DimMismatchError):
            evaluate(_fake_model(D=3), [seq], "arousal")

    def test_empty_dataset(self):
        with pytest.raises(EmptyDatasetError):
            evaluate(_fake_model(), [], "arousal")

    def test_degenerate_video_omitted_but_counted(self, monkeypatch, caplog):
        flat = np.full(6, 0.25)
        varied = np.array([0.1, -0.2, 0.4, 0.9, -0.5, 0.3])
        seq_flat = _fused("flat", 6, 3, flat, seed=20)
        seq_varied = _fused("varied", 6, 3, varied, seed=21)
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

    def test_report_dict_and_summary(self):
        model = init_model(4, {"D": 2, "e": 2, "h": 2, "m": 2})
        seq = _fused("v", 12, 2, np.random.default_rng(6).uniform(-1, 1, 12))
        report = evaluate(model, [seq], "arousal")
        payload = report.to_dict()
        assert set(payload) == {"target", "concatenated_ccc", "per_video", "n_frames_total"}
        assert "arousal" in report.summary()
