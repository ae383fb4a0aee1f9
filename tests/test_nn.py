import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_models_equal, zero_model
from oracles import (
    finite_diff_grads,
    gradcheck_max_relerr,
    linear_relu_naive,
    lstm_step_scalar,
)
from seqfuse import (
    DimMismatchError,
    Model,
    TraceMismatchError,
    backward,
    forward,
    init_model,
    mse_loss,
)


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def random_model(seed, D, e, h, m, scale=1.0):
    """A model whose every parameter is drawn from N(0, scale^2)."""
    dims = {"D": D, "e": e, "h": h, "m": m}
    size = Model(dims).params.size
    return Model(dims, scale * np.random.default_rng(seed).normal(size=size))


def _gradcheck_relerr(model, t, data_seed, **dropout):
    """Worst relative error of ``backward`` against finite differences."""
    rng = np.random.default_rng(data_seed)
    x = rng.normal(size=(t, model.dims["D"]))
    y = rng.uniform(-1.0, 1.0, size=t)
    trace = forward(model, x, **dropout)
    analytic = model.views(backward(model, trace, y))
    return gradcheck_max_relerr(analytic, finite_diff_grads(model, x, y, **dropout))


class TestInitModel:
    def test_same_seed_bitwise_identical(self):
        a = init_model(0, {"D": 5, "e": 4, "h": 3, "m": 2})
        b = init_model(0, {"D": 5, "e": 4, "h": 3, "m": 2})
        assert_models_equal(a, b)

    def test_shapes(self):
        model = init_model(1, {"D": 5, "e": 4, "h": 3, "m": 2})
        shapes = {name: p.shape for name, p in model.tensors.items()}
        assert shapes == {
            "projection_w": (4, 5),
            "projection_b": (4,),
            "lstm_input_w": (12, 4),
            "lstm_recurrent_w": (12, 3),
            "lstm_b": (12,),
            "head_hidden_w": (2, 3),
            "head_hidden_b": (2,),
            "head_out_w": (1, 2),
            "head_out_b": (1,),
        }
        assert model.params.shape == (131,)
        # the named tensors are views that tile the flat vector in order
        flat = np.concatenate([p.ravel() for p in model.tensors.values()])
        assert np.array_equal(flat, model.params)
        assert all(np.shares_memory(p, model.params) for p in model.tensors.values())

    def test_forget_gate_bias_is_one(self):
        model = init_model(2, {"D": 5, "e": 4, "h": 3, "m": 2})
        h = 3
        assert np.all(model.tensors["lstm_b"][h : 2 * h] == 1.0)

    def test_init_bounds(self):
        model = init_model(3, {"D": 9, "e": 8, "h": 6, "m": 4})
        assert np.all(np.abs(model.tensors["projection_w"]) <= 1.0 / 3.0)
        assert np.all(np.abs(model.tensors["lstm_input_w"]) <= 1.0 / np.sqrt(8.0))

    def test_different_seeds_differ(self):
        a = init_model(0, {"D": 5, "e": 4, "h": 3, "m": 2})
        b = init_model(1, {"D": 5, "e": 4, "h": 3, "m": 2})
        assert not np.array_equal(a.tensors["projection_w"], b.tensors["projection_w"])

    def test_bad_dims(self):
        with pytest.raises(DimMismatchError):
            init_model(0, {"D": 0, "e": 4, "h": 3, "m": 2})


class TestLinearRelu:
    """The projection and head stages of ``forward``: relu(W @ x + b)."""

    def test_identity_clips_negatives(self):
        model = zero_model(D=3, e=3)
        model.tensors["projection_w"][...] = np.eye(3)
        trace = forward(model, np.array([[1.0, -2.0, 3.0]]))
        assert np.array_equal(trace.embed[0], [1.0, 0.0, 3.0])

    def test_zero_weight_constant_output(self):
        model = zero_model(D=3, e=2)
        model.tensors["projection_b"][...] = [-1.0, 2.0]
        trace = forward(model, np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [5.0, -7.0, 0.5]]))
        for row in trace.embed:
            assert np.array_equal(row, [0.0, 2.0])

    def test_matches_naive_dot_products(self):
        model = random_model(4, D=8, e=8, h=5, m=6)
        x = np.random.default_rng(5).normal(size=(6, 8))
        trace = forward(model, x)
        p = model.tensors
        for j in range(6):
            ref_embed = linear_relu_naive(p["projection_w"], p["projection_b"], x[j])
            np.testing.assert_allclose(trace.embed[j], ref_embed, atol=1e-12)
            ref_act = linear_relu_naive(p["head_hidden_w"], p["head_hidden_b"], trace.hidden[j])
            np.testing.assert_allclose(trace.head_act[j], ref_act, atol=1e-12)

    def test_dim_mismatch(self):
        dims = {"D": 3, "e": 3, "h": 4, "m": 3}
        size = Model(dims).params.size
        for bad in (np.zeros(size - 1), np.zeros(size + 1), np.zeros((size, 1))):
            with pytest.raises(DimMismatchError):
                Model(dims, bad)


class TestLstmStep:
    """The recurrence inside ``forward``, one step per input row."""

    def test_zero_everything_is_fixed_point(self):
        trace = forward(zero_model(), np.zeros((5, 3)))
        assert np.array_equal(trace.hidden, np.zeros((5, 4)))
        assert np.array_equal(trace.cell, np.zeros((5, 4)))

    def test_zero_weights_closed_form(self):
        # With zero weights the gates are constants set by the LSTM bias, so
        # c_j = i * g * (1 + f + ... + f^j) and h_j = o * tanh(c_j).
        model = zero_model(h=3)
        b_i, b_f = np.array([0.3, -1.2, 2.0]), np.array([0.0, 1.5, -0.7])
        b_g, b_o = np.array([1.1, -0.4, 0.9]), np.array([-0.2, 0.8, 0.0])
        model.tensors["lstm_b"][...] = np.concatenate([b_i, b_f, b_g, b_o])
        trace = forward(model, np.random.default_rng(6).normal(size=(6, 3)))
        i, f, g, o = sigmoid(b_i), sigmoid(b_f), np.tanh(b_g), sigmoid(b_o)
        for j in range(6):
            c = i * g * (1.0 - f ** (j + 1)) / (1.0 - f)
            np.testing.assert_allclose(trace.cell[j], c, atol=1e-14)
            np.testing.assert_allclose(trace.hidden[j], o * np.tanh(c), atol=1e-14)

    def test_matches_scalar_oracle(self):
        model = random_model(12, D=3, e=2, h=3, m=4)
        x = np.random.default_rng(13).normal(size=(7, 3))
        trace = forward(model, x)
        p = model.tensors
        h_prev, c_prev = np.zeros(3), np.zeros(3)
        for j in range(7):
            embed = linear_relu_naive(p["projection_w"], p["projection_b"], x[j])
            h_prev, c_prev = lstm_step_scalar(
                p["lstm_input_w"], p["lstm_recurrent_w"], p["lstm_b"], embed, h_prev, c_prev
            )
            act = linear_relu_naive(p["head_hidden_w"], p["head_hidden_b"], h_prev)
            pred = float(p["head_out_b"][0])
            for w, a in zip(p["head_out_w"][0], act):
                pred += float(w) * a
            np.testing.assert_allclose(trace.hidden[j], h_prev, atol=1e-12)
            np.testing.assert_allclose(trace.cell[j], c_prev, atol=1e-12)
            assert trace.predictions[j] == pytest.approx(pred, abs=1e-12)

    def test_dim_mismatch(self):
        for bad in (np.zeros(3), np.zeros((2, 2, 3))):
            with pytest.raises(DimMismatchError):
                forward(zero_model(), bad)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_hidden_state_bounded(self, seed):
        model = random_model(seed, D=3, e=3, h=4, m=2, scale=3.0)
        trace = forward(model, np.random.default_rng(seed).normal(size=(20, 3)))
        assert np.all(np.abs(trace.hidden) <= 1.0)


class TestForward:
    def test_zero_model_predicts_zero(self):
        model = zero_model()
        trace = forward(model, np.random.default_rng(0).normal(size=(6, 3)))
        assert np.array_equal(trace.predictions, np.zeros(6))

    def test_rate_zero_mask_seed_is_noop(self, tiny_model):
        x = np.random.default_rng(1).normal(size=(5, 3))
        a = forward(tiny_model, x, dropout_rate=0.0, mask_seed=None)
        b = forward(tiny_model, x, dropout_rate=0.0, mask_seed=123)
        assert np.array_equal(a.predictions, b.predictions)
        assert np.array_equal(a.hidden, b.hidden)
        assert a.mask_embed is None and b.mask_embed is None

    def test_eval_mode_ignores_rate(self, tiny_model):
        x = np.random.default_rng(2).normal(size=(5, 3))
        a = forward(tiny_model, x)
        b = forward(tiny_model, x, dropout_rate=0.9, mask_seed=None)
        assert np.array_equal(a.predictions, b.predictions)
        assert b.mask_embed is None and b.dropout_rate == 0.0

    def test_single_step_equals_manual_composition(self, tiny_model):
        x = np.random.default_rng(3).normal(size=(1, 3))
        trace = forward(tiny_model, x)
        p = tiny_model.tensors
        embed = np.maximum(0.0, p["projection_w"] @ x[0] + p["projection_b"])
        pre = p["lstm_input_w"] @ embed + p["lstm_b"]
        i, _, g, o = np.split(pre, 4)
        c = sigmoid(i) * np.tanh(g)  # c_0 = 0, so the forget gate drops out
        h = sigmoid(o) * np.tanh(c)
        act = np.maximum(0.0, p["head_hidden_w"] @ h + p["head_hidden_b"])
        pred = p["head_out_w"] @ act + p["head_out_b"]
        np.testing.assert_allclose(trace.embed[0], embed, atol=1e-15)
        np.testing.assert_allclose(trace.hidden[0], h, atol=1e-15)
        np.testing.assert_allclose(trace.cell[0], c, atol=1e-15)
        np.testing.assert_allclose(trace.predictions[0], pred[0], atol=1e-15)

    def test_deterministic_given_mask_seed(self, tiny_model):
        x = np.random.default_rng(4).normal(size=(9, 3))
        a = forward(tiny_model, x, dropout_rate=0.5, mask_seed=77)
        b = forward(tiny_model, x, dropout_rate=0.5, mask_seed=77)
        assert np.array_equal(a.predictions, b.predictions)
        assert np.array_equal(a.mask_embed, b.mask_embed)
        assert np.array_equal(a.mask_head, b.mask_head)

    def test_mask_seeds_change_masks(self, tiny_model):
        x = np.random.default_rng(4).normal(size=(30, 3))
        a = forward(tiny_model, x, dropout_rate=0.5, mask_seed=1)
        b = forward(tiny_model, x, dropout_rate=0.5, mask_seed=2)
        assert not np.array_equal(a.mask_embed, b.mask_embed)

    @pytest.mark.parametrize("t,D,e,h,m", [(1, 2, 3, 2, 2), (13, 4, 5, 6, 3), (100, 1, 1, 1, 1)])
    def test_prediction_length_matches_input(self, t, D, e, h, m):
        model = init_model(5, {"D": D, "e": e, "h": h, "m": m})
        trace = forward(model, np.random.default_rng(6).normal(size=(t, D)))
        assert trace.predictions.shape == (t,)
        assert trace.n_steps == t
        assert trace.gates.shape == (t, 4 * h)
        assert trace.cell.shape == (t, h)
        assert trace.hidden.shape == (t, h)
        assert trace.head_act.shape == (t, m)

    def test_dim_mismatch(self, tiny_model):
        with pytest.raises(DimMismatchError):
            forward(tiny_model, np.zeros((4, 7)))


class TestBackward:
    def test_perfect_fit_gives_zero_gradients(self, tiny_model):
        x = np.random.default_rng(8).normal(size=(6, 3))
        trace = forward(tiny_model, x)
        grads = backward(tiny_model, trace, trace.predictions.copy())
        assert np.array_equal(grads, np.zeros_like(tiny_model.params))

    # t = 7 keeps the bare seed as its test id. At t = 1 there is no
    # recurrent step, so d_gate[1:] and hidden[:-1] are empty.
    @pytest.mark.parametrize(
        "seed,t",
        [
            pytest.param(seed, t, id=str(seed) if t == 7 else f"{seed}-t{t}")
            for seed in range(5)
            for t in (7, 1, 2)
        ],
    )
    def test_matches_finite_differences(self, seed, t):
        model = init_model(seed, {"D": 3, "e": 3, "h": 4, "m": 3})
        assert _gradcheck_relerr(model, t, data_seed=1000 + seed) < 1e-4

    def test_matches_finite_differences_with_dropout(self):
        model = init_model(9, {"D": 3, "e": 3, "h": 4, "m": 3})
        for t in (7, 1, 2):
            relerr = _gradcheck_relerr(model, t, 2024, dropout_rate=0.5, mask_seed=55)
            assert relerr < 1e-4, f"t={t}"

    def test_gradients_linear_in_labels(self, tiny_model):
        rng = np.random.default_rng(31)
        x = rng.normal(size=(8, 3))
        y1 = rng.uniform(-1.0, 1.0, size=8)
        y2 = rng.uniform(-1.0, 1.0, size=8)
        trace = forward(tiny_model, x, dropout_rate=0.5, mask_seed=9)
        g1 = backward(tiny_model, trace, y1)
        g2 = backward(tiny_model, trace, y2)
        g_mid = backward(tiny_model, trace, (y1 + y2) / 2.0)
        np.testing.assert_allclose(g_mid, (g1 + g2) / 2.0, atol=1e-12)

    def test_label_length_mismatch(self, tiny_model):
        trace = forward(tiny_model, np.zeros((4, 3)))
        with pytest.raises(TraceMismatchError):
            backward(tiny_model, trace, np.zeros(5))

    def test_foreign_trace_rejected(self, tiny_model):
        other = init_model(1, {"D": 2, "e": 2, "h": 2, "m": 2})
        trace = forward(other, np.zeros((4, 2)))
        with pytest.raises(TraceMismatchError):
            backward(tiny_model, trace, np.zeros(4))

    def test_loss_decreases_along_negative_gradient(self, tiny_model):
        rng = np.random.default_rng(77)
        x = rng.normal(size=(10, 3))
        y = rng.uniform(-1.0, 1.0, size=10)
        trace = forward(tiny_model, x)
        loss0 = mse_loss(trace.predictions, y)
        grads = backward(tiny_model, trace, y)
        stepped = Model(tiny_model.dims, tiny_model.params - 1e-3 * grads)
        loss1 = mse_loss(forward(stepped, x).predictions, y)
        assert loss1 < loss0
