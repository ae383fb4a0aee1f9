import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_models_equal, zero_model
from oracles import (
    _sig,
    backward_reference,
    backward_rowwise,
    finite_diff_grads,
    forward_reference,
    forward_rowwise,
    gradcheck_max_relerr,
    linear_relu_naive,
    lstm_step_scalar,
)
from seqfuse import DimMismatchError, Model, TraceMismatchError, predict
from seqfuse.nn import EVAL_BLOCK, EVAL_ROWS, backward, forward, init_model
from seqfuse.training import mse_loss


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

    @pytest.mark.parametrize("key", list("Dehm"))
    @pytest.mark.parametrize("value", [True, np.True_, 2.0, "2", 0],
                             ids=["bool", "numpy-bool", "float", "string", "zero"])
    def test_bool_dim_refused_naming_it(self, key, value):
        # True once passed operator.index and built a model with that dim 1;
        # a float or a string raised TypeError.
        dims = {"D": 2, "e": 2, "h": 2, "m": 2, key: value}
        message = f"^dim {key} must be an integer >= 1, got {re.escape(repr(value))}$"
        with pytest.raises(DimMismatchError, match=message):
            init_model(1, dims)
        with pytest.raises(DimMismatchError, match=message):
            Model(dims)

    def test_numpy_integer_dims_accepted(self):
        dims = {"D": np.int64(5), "e": np.int32(4), "h": np.uint8(3), "m": np.int16(2)}
        model = init_model(1, dims)
        assert model.dims == {"D": 5, "e": 4, "h": 3, "m": 2}
        assert all(type(v) is int for v in model.dims.values())
        assert_models_equal(model, init_model(1, {"D": 5, "e": 4, "h": 3, "m": 2}))


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
        assert np.array_equal(a.embed, b.embed) and np.array_equal(a.head_act, b.head_act)
        assert a.dropout_rate == 0.0 and b.dropout_rate == 0.0

    def test_eval_mode_ignores_rate(self, tiny_model):
        x = np.random.default_rng(2).normal(size=(5, 3))
        a = forward(tiny_model, x)
        b = forward(tiny_model, x, dropout_rate=0.9, mask_seed=None)
        assert np.array_equal(a.predictions, b.predictions)
        assert np.array_equal(a.embed, b.embed) and np.array_equal(a.head_act, b.head_act)
        assert b.dropout_rate == 0.0

    def test_evaluation_never_draws_from_a_generator(self, tiny_model, monkeypatch):
        def no_generator(*seeds):
            raise AssertionError(f"seeded_rng{seeds} called in evaluation mode")

        monkeypatch.setattr("seqfuse.nn.seeded_rng", no_generator)
        x = np.random.default_rng(2).normal(size=(5, 3))
        forward(tiny_model, x, dropout_rate=0.9, mask_seed=None)
        forward(tiny_model, x, dropout_rate=0.0, mask_seed=123)
        predict(tiny_model, [x, x[:2]])
        with pytest.raises(AssertionError, match="seeded_rng"):
            forward(tiny_model, x, dropout_rate=0.5, mask_seed=123)

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
        assert np.array_equal(a.embed, b.embed)
        assert np.array_equal(a.head_act, b.head_act)

    def test_mask_seeds_change_masks(self, tiny_model):
        x = np.random.default_rng(4).normal(size=(30, 3))
        a = forward(tiny_model, x, dropout_rate=0.5, mask_seed=1)
        b = forward(tiny_model, x, dropout_rate=0.5, mask_seed=2)
        assert not np.array_equal(a.embed > 0.0, b.embed > 0.0)

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


def _gap(actual, reference):
    """Largest |actual - reference| as a share of the largest |reference| entry."""
    return np.max(np.abs(actual - reference)) / np.max(np.abs(reference))


def _reference_gaps(model, t, data_seed, **dropout):
    """Prediction and gradient gaps of ``forward``/``backward`` from the reference."""
    rng = np.random.default_rng(data_seed)
    x = rng.normal(size=(t, model.dims["D"]))
    y = rng.uniform(-1.0, 1.0, size=t)
    trace, ref = forward(model, x, **dropout), forward_reference(model, x, **dropout)
    grads = backward(model, trace, y)
    return _gap(trace.predictions, ref.predictions), _gap(grads, backward_reference(model, ref, y))


class TestReferenceAgreement:
    """``forward``/``backward`` against the exp-form sigmoid loops in ``oracles``.

    The tanh-form gates differ from the exp-form ones by at most 2.2e-16
    absolute. Under large random weights the recurrence amplifies that
    one-ulp difference chaotically, hence the looser adversarial bound.
    """

    @pytest.mark.parametrize("D", [3, 10])
    @pytest.mark.parametrize("dropout", [{}, {"dropout_rate": 0.5, "mask_seed": 21}])
    def test_init_scale_within_1e14(self, D, dropout):
        for seed in range(3):
            model = init_model(seed, {"D": D, "e": 16, "h": 32, "m": 16})
            gaps = _reference_gaps(model, 100, data_seed=40 + seed, **dropout)
            assert max(gaps) <= 1e-14, (seed, gaps)

    @pytest.mark.parametrize("scale", [0.3, 1.0, 3.0])
    @pytest.mark.parametrize("D", [3, 10, 900])
    @pytest.mark.parametrize("dropout", [{}, {"dropout_rate": 0.5, "mask_seed": 22}])
    def test_adversarial_weights_within_1e12(self, scale, D, dropout):
        for seed, t in enumerate((1, 2, 37, 150)):
            model = random_model(100 * D + seed, D=D, e=8, h=8, m=4, scale=scale)
            gaps = _reference_gaps(model, t, data_seed=seed, **dropout)
            assert max(gaps) <= 1e-12, (seed, t, gaps)

    def test_long_eval_forward_matches_at_every_step(self):
        model = init_model(7, {"D": 10, "e": 16, "h": 32, "m": 16})
        x = np.random.default_rng(8).normal(size=(1000, 10))
        trace, ref = forward(model, x), forward_reference(model, x)
        for name in ("gates", "cell", "hidden"):
            a, b = getattr(trace, name), getattr(ref, name)
            per_step = np.max(np.abs(a - b), axis=1) / np.max(np.abs(b))
            assert np.all(per_step <= 1e-14), (name, int(np.argmax(per_step)))
        assert _gap(trace.predictions, ref.predictions) <= 1e-14

    @pytest.mark.parametrize("h", [1, 32])
    @pytest.mark.parametrize("t", [1, 100])
    @pytest.mark.parametrize("dropout", [{}, {"dropout_rate": 0.5, "mask_seed": 23}])
    def test_byte_identical_to_the_rowwise_loops(self, h, t, dropout):
        model = init_model(h + t, {"D": 10, "e": 16, "h": h, "m": 16})
        rng = np.random.default_rng(t)
        x, y = rng.normal(size=(t, 10)), rng.uniform(-1.0, 1.0, size=t)
        trace, ref = forward(model, x, **dropout), forward_rowwise(model, x, **dropout)
        for name in ("gates", "cell", "hidden", "predictions"):
            assert getattr(trace, name).tobytes() == getattr(ref, name).tobytes(), name
        got, want = backward(model, trace, y), backward_rowwise(model, ref, y)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dropout", [{}, {"dropout_rate": 0.5, "mask_seed": 3}])
    def test_forward_and_backward_leave_params_untouched(self, dropout):
        model = random_model(5, D=6, e=5, h=7, m=3)
        before = model.params.tobytes()
        rng = np.random.default_rng(6)
        trace = forward(model, rng.normal(size=(20, 6)), **dropout)
        backward(model, trace, rng.uniform(-1.0, 1.0, size=20))
        assert model.params.tobytes() == before

    def test_gate_activations_on_a_bias_grid(self):
        # With zero weights a one-step forward's gate row is the activated
        # LSTM bias, so the bias grid drives every gate unit directly. The
        # first call puts inf, -inf and NaN into the i block.
        grid = np.concatenate([[np.inf, -np.inf, np.nan], np.linspace(-40.0, 40.0, 2401)])
        h = 101
        sig, tanh = np.r_[0 : 2 * h, 3 * h : 4 * h], np.r_[2 * h : 3 * h]
        model = zero_model(D=1, e=1, h=h, m=1)
        for lo in range(0, grid.size, 4 * h):
            z = np.zeros(4 * h)
            z[: grid.size - lo] = grid[lo : lo + 4 * h]
            model.tensors["lstm_b"][...] = z
            gates = forward(model, np.zeros((1, 1))).gates[0]
            assert np.array_equal(gates[tanh], np.tanh(z[tanh]), equal_nan=True)
            zs, gs = z[sig], gates[sig]
            assert np.array_equal(np.isnan(gs), np.isnan(zs))
            if lo == 0:
                assert gs[0] == 1.0 and gs[1] == 0.0 and np.isnan(gs[2])
            finite = np.isfinite(zs)
            expected = np.array([_sig(v) for v in zs[finite]])
            assert np.max(np.abs(gs[finite] - expected)) <= 2.3e-16


# Lengths around the input-to-gate block: equal lengths, one-step videos,
# block - 1, block, block + 1, block + 2 and a few blocks plus a tail.
K = EVAL_BLOCK
BATCH_LENGTHS = (K + 2, 1, 7, K - 1, 7, K, 1, K + 1, 3 * K + 5, 2 * K, 2 * K + 1, 2)


def _videos(D, lengths, seed):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(t, D)) for t in lengths]


def _bytes(arrays):
    return [a.tobytes() for a in arrays]


@st.composite
def predict_cases(draw):
    """(model, videos): N(0, s^2) weights, lengths around EVAL_BLOCK multiples."""
    e, h, m, D = (draw(st.integers(1, hi)) for hi in (48, 40, 8, 12))
    scale = draw(st.sampled_from([0.3, 1.0, 3.0]))
    seed = draw(st.integers(0, 2**32 - 1))
    near_block = st.builds(lambda n, d: max(1, n * K + d), st.integers(0, 4), st.integers(-2, 2))
    length = st.one_of(near_block, st.integers(1, 300))
    lengths = draw(st.lists(length, min_size=1, max_size=20))
    return random_model(seed, D=D, e=e, h=h, m=m, scale=scale), _videos(D, lengths, seed)


class TestPredict:
    """``predict``: one shrinking-batch recurrence over many videos."""

    @pytest.mark.parametrize(
        "model",
        [
            init_model(0, {"D": 10, "e": 16, "h": 32, "m": 16}),
            random_model(1, D=3, e=8, h=8, m=4, scale=3.0),
            init_model(2, {"D": 900, "e": 32, "h": 5, "m": 2}),
            init_model(3, {"D": 2, "e": 3, "h": 1, "m": 1}),
        ],
        ids=["e16h32m16", "e8h8m4-s3", "D900e32h5m2", "e3h1m1"],
    )
    def test_video_scores_do_not_depend_on_the_other_videos(self, model):
        videos = _videos(model.dims["D"], BATCH_LENGTHS, seed=4)
        alone = _bytes(predict(model, [x])[0] for x in videos)
        assert _bytes(predict(model, videos)) == alone
        rng = np.random.default_rng(5)
        for _ in range(5):
            for picked in (
                rng.permutation(len(videos)),
                sorted(rng.choice(len(videos), int(rng.integers(1, 12)), replace=False)),
            ):
                got = _bytes(predict(model, [videos[i] for i in picked]))
                assert got == [alone[i] for i in picked]
        # Added videos: duplicates of every length and one longer than all,
        # more than EVAL_ROWS in all.
        extra = _videos(model.dims["D"], (5 * K + 3, *BATCH_LENGTHS), seed=6)
        together = _bytes(predict(model, extra + videos + videos))
        assert len(together) > 2 * EVAL_ROWS
        assert together[len(extra) :] == alone + alone

    def test_byte_identical_to_forward_at_e16_h32_m16(self):
        # A one-row input-to-gate product differs from a many-row one in the
        # last bits here, and reaches the output about one time in four, so
        # sixteen videos end one step past a block boundary.
        model = init_model(7, {"D": 10, "e": 16, "h": 32, "m": 16})
        tails = tuple(n * K + 1 for n in range(1, 17))
        videos = _videos(10, BATCH_LENGTHS + (1000, 333) + tails, seed=8)
        expected = [forward(model, x).predictions.tobytes() for x in videos]
        assert _bytes(predict(model, videos)) == expected

    @settings(max_examples=50, deadline=None)
    @given(case=predict_cases())
    def test_byte_identical_to_forward(self, case):
        model, videos = case
        expected = [forward(model, x).predictions.tobytes() for x in videos]
        assert _bytes(predict(model, videos)) == expected

    def test_input_order_empty_videos_and_no_videos(self, tiny_model):
        videos = _videos(3, (4, 0, 9), seed=9)
        preds = predict(tiny_model, videos)
        assert [p.shape for p in preds] == [(4,), (0,), (9,)]
        assert preds[2].tobytes() == forward(tiny_model, videos[2]).predictions.tobytes()
        assert predict(tiny_model, []) == []

    def test_dim_mismatch(self, tiny_model):
        for bad in (np.zeros(3), np.zeros((2, 2, 3)), np.zeros((4, 7))):
            with pytest.raises(DimMismatchError):
                predict(tiny_model, [np.zeros((5, 3)), bad])

    @pytest.mark.parametrize("D", [3, 10])
    def test_init_scale_within_1e14_of_reference(self, D):
        for seed in range(3):
            model = init_model(seed, {"D": D, "e": 16, "h": 32, "m": 16})
            videos = _videos(D, (100, 1000, 1, K + 1), seed=40 + seed)
            for x, got in zip(videos, predict(model, videos)):
                ref = forward_reference(model, x).predictions
                assert _gap(got, ref) <= 1e-14, (seed, len(x))

    @pytest.mark.parametrize("scale", [0.3, 1.0, 3.0])
    @pytest.mark.parametrize("D", [3, 10, 900])
    def test_random_weights_within_1e14_of_reference(self, scale, D):
        rngs = [np.random.default_rng(seed) for seed in range(4)]
        videos = [rng.normal(size=(t, D)) for rng, t in zip(rngs, (1, 2, 37, 150))]
        for seed in range(4):
            model = random_model(100 * D + seed, D=D, e=8, h=8, m=4, scale=scale)
            for x, got in zip(videos, predict(model, videos)):
                ref = forward_reference(model, x).predictions
                assert _gap(got, ref) <= 1e-14, (seed, len(x))

    def test_params_untouched(self):
        model = random_model(5, D=6, e=5, h=7, m=3)
        before = model.params.tobytes()
        predict(model, _videos(6, BATCH_LENGTHS, seed=10))
        assert model.params.tobytes() == before

    def test_peak_memory_does_not_grow_with_the_number_of_videos(self):
        model = init_model(13, {"D": 10, "e": 16, "h": 32, "m": 16})
        videos = _videos(10, (300,) * (4 * EVAL_ROWS), seed=14)
        peaks = []
        tracemalloc.start()
        try:
            for batch in (videos[:EVAL_ROWS], videos):
                tracemalloc.reset_peak()
                predict(model, batch)
                peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert peaks[1] < 1.25 * peaks[0], peaks

    def test_peak_memory_below_forward_one_video_at_a_time(self):
        model = init_model(11, {"D": 10, "e": 16, "h": 32, "m": 16})
        videos = _videos(10, (8000, 1000, 5800, 2600, 4600), seed=12)
        tracemalloc.start()
        try:
            for x in videos:
                forward(model, x)
            forward_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            predict(model, videos)
            predict_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert predict_peak < forward_peak, (predict_peak, forward_peak)
