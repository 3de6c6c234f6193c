"""MLP forward/backward, the update rule, and the schedule/serialization ops."""

import math

import numpy as np
import pytest
from reference import load_checkpoint, whole_vector_update

from lossprio import model
from lossprio.errors import ConfigurationError, TrainingDivergedError
from lossprio.model import (
    ModelParams,
    TrainerConfig,
    Workspace,
    _backward,
    forward,
    gradient_check,
    init_params,
    init_sgd_state,
    learning_rate_at,
    prediction_entropy,
    save_checkpoint,
    sgd_step,
)


def _linear_params(weights, biases):
    return ModelParams([np.array(weights, dtype=float)], [np.array(biases, dtype=float)])


class TestForward:
    def test_zero_weights_give_uniform_distribution(self):
        params = ModelParams(
            [np.zeros((5, 16)), np.zeros((16, 10))],
            [np.zeros(16), np.zeros(10)],
        )
        result = forward(params, np.ones((3, 5)), np.array([0, 4, 9]), Workspace(params, 3))
        np.testing.assert_allclose(result.probabilities, 0.1, atol=1e-15)
        np.testing.assert_allclose(result.losses, math.log(10), rtol=1e-12)

    def test_two_class_linear_hand_computed(self):
        # single linear layer, worked by hand with independent arithmetic
        w = [[0.5, -0.25], [0.1, 0.3]]
        b = [0.05, -0.1]
        x = np.array([[1.0, 2.0]])
        z0 = 1.0 * 0.5 + 2.0 * 0.1 + 0.05
        z1 = 1.0 * -0.25 + 2.0 * 0.3 - 0.1
        e0, e1 = math.exp(z0), math.exp(z1)
        p0 = e0 / (e0 + e1)
        params = _linear_params(w, b)
        result = forward(params, x, np.array([0]), Workspace(params, 1))
        np.testing.assert_allclose(result.probabilities[0], [p0, 1 - p0], rtol=1e-14)
        np.testing.assert_allclose(result.losses[0], -math.log(p0), rtol=1e-14)
        assert result.predictions[0] == (0 if p0 > 0.5 else 1)

    def test_distributions_sum_to_one(self):
        rng = np.random.default_rng(2)
        params = init_params([6, 12, 4], rng)
        result = forward(params, rng.standard_normal((50, 6)), rng.integers(4, size=50),
                         Workspace(params, 50))
        np.testing.assert_allclose(result.probabilities.sum(axis=1), 1.0, rtol=1e-12)
        assert (result.losses >= 0).all()

    def test_extreme_logits_stay_finite(self):
        params = _linear_params([[1000.0, -1000.0]], [0.0, 0.0])
        result = forward(params, np.array([[1.0]]), np.array([1]), Workspace(params, 1))
        assert np.isfinite(result.losses).all()
        assert np.isfinite(result.probabilities).all()


class TestInit:
    def test_fan_in_bounds_and_determinism(self):
        a = init_params([100, 50, 10], 7)
        b = init_params([100, 50, 10], 7)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)
        assert abs(a.weights[0]).max() <= 1 / math.sqrt(100)
        assert abs(a.weights[1]).max() <= 1 / math.sqrt(50)
        assert a.architecture == [100, 50, 10]

    def test_bad_architecture_rejected(self):
        with pytest.raises(ConfigurationError):
            init_params([5], 0)


class TestBackwardAndUpdate:
    def test_single_layer_matches_closed_form(self):
        # softmax regression: dW = X^T (p - onehot) / B, no decay, no momentum
        rng = np.random.default_rng(4)
        w = rng.standard_normal((3, 4)) * 0.1
        b = rng.standard_normal(4) * 0.1
        X = rng.standard_normal((6, 3))
        y = rng.integers(4, size=6)

        logits = X @ w + b
        exp = np.exp(logits - logits.max(axis=1, keepdims=True))
        p = exp / exp.sum(axis=1, keepdims=True)
        onehot = np.eye(4)[y]
        grad_w = X.T @ (p - onehot) / 6
        grad_b = (p - onehot).mean(axis=0)

        params = _linear_params(w.copy(), b.copy())
        cfg = TrainerConfig(momentum=0.0, weight_decay=0.0)
        state = init_sgd_state(params)
        sgd_step(params, X, y, cfg, state, lr=0.5, workspace=Workspace(params, 6))
        np.testing.assert_allclose(params.weights[0], w - 0.5 * grad_w, rtol=1e-12)
        np.testing.assert_allclose(params.biases[0], b - 0.5 * grad_b, rtol=1e-12)

    def test_update_order_decay_then_momentum_then_step(self):
        # v = m*v + (g + wd*w); w -= lr*v, checked over two steps
        params = ModelParams([np.array([[2.0, -1.0]])], [np.array([0.0, 0.0])])
        X, y = np.array([[1.0]]), np.array([0])
        cfg = TrainerConfig(momentum=0.5, weight_decay=0.1)
        state = init_sgd_state(params)

        expect_w = np.array([[2.0, -1.0]])
        expect_b = np.array([0.0, 0.0])
        vel_w, vel_b = np.zeros((1, 2)), np.zeros(2)
        workspace = Workspace(params, 1)
        for _ in range(2):
            ref = ModelParams([expect_w.copy()], [expect_b.copy()])
            grad = _backward(ref, X, y, Workspace(ref, 1))[1]
            vel_w = 0.5 * vel_w + (grad.weights[0] + 0.1 * expect_w)
            vel_b = 0.5 * vel_b + (grad.biases[0] + 0.1 * expect_b)
            expect_w = expect_w - 0.2 * vel_w
            expect_b = expect_b - 0.2 * vel_b
            sgd_step(params, X, y, cfg, state, lr=0.2, workspace=workspace)
        np.testing.assert_allclose(params.weights[0], expect_w, rtol=1e-12)
        np.testing.assert_allclose(params.biases[0], expect_b, rtol=1e-12)

    def test_steps_bit_equal_to_per_layer_reference(self):
        # the flat-vector update against the per-layer rule written out from
        # the per-layer gradients: v = m*v + (g + wd*w); w = w - lr*v, to the bit
        rng = np.random.default_rng(13)
        params = init_params([6, 9, 7, 4], rng)
        ref_w = [w.copy() for w in params.weights]
        ref_b = [b.copy() for b in params.biases]
        vel_w = [np.zeros_like(w) for w in ref_w]
        vel_b = [np.zeros_like(b) for b in ref_b]
        cfg = TrainerConfig(momentum=0.9, weight_decay=0.01)
        state, workspace = init_sgd_state(params), Workspace(params, 11)
        for step, lr in enumerate((0.3, 0.3, 0.1, 0.05, 0.05, 0.01)):
            X, y = rng.standard_normal((11, 6)), rng.integers(4, size=11)
            ref = ModelParams(ref_w, ref_b)
            ref_loss, grad = _backward(ref, X, y, Workspace(ref, 11))
            gw, gb = grad.weights, grad.biases
            for i in range(len(ref_w)):
                vel_w[i] = cfg.momentum * vel_w[i] + (gw[i] + cfg.weight_decay * ref_w[i])
                vel_b[i] = cfg.momentum * vel_b[i] + (gb[i] + cfg.weight_decay * ref_b[i])
                ref_w[i] = ref_w[i] - lr * vel_w[i]
                ref_b[i] = ref_b[i] - lr * vel_b[i]
            assert sgd_step(params, X, y, cfg, state, lr, workspace) == ref_loss
            for got, want in zip(params.weights + params.biases, ref_w + ref_b):
                assert np.array_equal(got, want), f"step {step}"
        assert np.shares_memory(params.weights[1], params.vector)

    def test_workspace_changes_no_bit(self):
        # the same steps and forwards, written into one workspace with room
        # for more rows than any call uses, give the bytes of a fresh one
        # sized to each call's batch
        rng = np.random.default_rng(14)
        plain = init_params([6, 9, 7, 4], rng)
        reused = plain.copy()
        workspace = Workspace(reused, rows=16)
        cfg = TrainerConfig(momentum=0.9, weight_decay=0.01)
        states = init_sgd_state(plain), init_sgd_state(reused)
        for rows in (11, 16, 3, 11):
            X, y = rng.standard_normal((rows, 6)), rng.integers(4, size=rows)
            want = forward(plain, X, y, Workspace(plain, rows))
            got = forward(reused, X, y, workspace)
            for field in ("losses", "probabilities", "predictions"):
                assert getattr(got, field).tobytes() == getattr(want, field).tobytes()
            assert (sgd_step(plain, X, y, cfg, states[0], lr=0.2,
                             workspace=Workspace(plain, rows))
                    == sgd_step(reused, X, y, cfg, states[1], lr=0.2, workspace=workspace))
            assert plain.vector.tobytes() == reused.vector.tobytes()
        assert np.shares_memory(got.probabilities, workspace.acts[-1])

    def test_zero_learning_rate_keeps_params(self):
        rng = np.random.default_rng(6)
        params = init_params([4, 8, 3], rng)
        before = params.vector.copy()
        state = init_sgd_state(params)
        sgd_step(params, rng.standard_normal((5, 4)), rng.integers(3, size=5),
                 TrainerConfig(), state, lr=0.0, workspace=Workspace(params, 5))
        assert np.array_equal(params.vector, before)
        assert state.updates == 1 and state.backprops == 5

    def test_duplicated_batch_matches_single_example(self):
        # mean gradient: two copies of one example step like one copy; only
        # BLAS accumulation order separates the two routes, so the bound is
        # a couple of ulps rather than bit equality
        rng = np.random.default_rng(7)
        x = rng.standard_normal((1, 5))
        y = np.array([1])
        cfg = TrainerConfig(momentum=0.0, weight_decay=0.0)

        single = init_params([5, 6, 3], 11)
        double = init_params([5, 6, 3], 11)
        sgd_step(single, x, y, cfg, init_sgd_state(single), lr=0.3,
                 workspace=Workspace(single, 1))
        sgd_step(double, np.vstack([x, x]), np.array([1, 1]), cfg,
                 init_sgd_state(double), lr=0.3, workspace=Workspace(double, 2))
        np.testing.assert_allclose(single.vector, double.vector, rtol=0, atol=1e-14)

    def test_backprop_counter_tracks_batch_size(self):
        rng = np.random.default_rng(8)
        params = init_params([4, 3], rng)
        state, workspace = init_sgd_state(params), Workspace(params, 7)
        for batch in (2, 7, 1):
            sgd_step(params, rng.standard_normal((batch, 4)),
                     rng.integers(3, size=batch), TrainerConfig(), state, lr=0.01,
                     workspace=workspace)
        assert state.backprops == 10
        assert state.updates == 3

    def test_divergence_carries_update_index(self):
        params = init_params([4, 3], 0)
        state = init_sgd_state(params)
        state.updates = 41
        params.weights[0][0, 0] = np.inf
        with np.errstate(invalid="ignore"):
            with pytest.raises(TrainingDivergedError) as exc:
                sgd_step(params, np.ones((2, 4)), np.array([0, 1]),
                         TrainerConfig(), state, lr=0.1, workspace=Workspace(params, 2))
        assert exc.value.iteration == 41


class TestBlockedUpdate:
    # (784, 256, 10) holds 203,530 parameters: six full blocks and a partial one
    ARCH = [784, 256, 10]

    def batch(self, rng):
        return rng.standard_normal((16, 784)), rng.integers(10, size=16)

    def test_steps_byte_equal_to_the_whole_vector_update(self):
        rng = np.random.default_rng(21)
        params = init_params(self.ARCH, rng)
        assert params.vector.size > 6 * model.SGD_BLOCK
        ref, velocity = params.copy(), np.zeros_like(params.vector)
        cfg, state = TrainerConfig(), init_sgd_state(params)
        workspace, ref_workspace = Workspace(params, 16), Workspace(ref, 16)
        for lr in (0.1, 0.1, 0.05, 0.02, 0.02):
            X, y = self.batch(rng)
            grad = _backward(ref, X, y, ref_workspace)[1].vector
            whole_vector_update(ref.vector, velocity, grad, cfg, lr)
            sgd_step(params, X, y, cfg, state, lr, workspace)
            assert params.vector.tobytes() == ref.vector.tobytes()
            assert state.velocity.tobytes() == velocity.tobytes()

    def test_non_finite_gradient_in_the_last_block_changes_nothing(self, monkeypatch):
        rng = np.random.default_rng(22)
        params = init_params(self.ARCH, rng)
        cfg, state, workspace = TrainerConfig(), init_sgd_state(params), Workspace(params, 16)
        sgd_step(params, *self.batch(rng), cfg, state, 0.1, workspace)  # a nonzero velocity
        before = params.vector.tobytes(), state.velocity.tobytes()
        backward = model._backward

        def last_entry_infinite(*args):
            loss, grad = backward(*args)
            grad.vector[-1] = np.inf
            return loss, grad

        monkeypatch.setattr(model, "_backward", last_entry_infinite)
        with pytest.raises(TrainingDivergedError) as exc:
            sgd_step(params, *self.batch(rng), cfg, state, 0.1, workspace)
        assert exc.value.iteration == 1
        assert (params.vector.tobytes(), state.velocity.tobytes()) == before


class TestGradientCheck:
    def test_linear_model_tight(self):
        rng = np.random.default_rng(9)
        params = init_params([6, 4], rng)
        err = gradient_check(params, rng.standard_normal((10, 6)),
                             rng.integers(4, size=10), epsilon=1e-5)
        assert err < 1e-7

    def test_small_mlp(self):
        rng = np.random.default_rng(10)
        params = init_params([8, 16, 4], rng)
        err = gradient_check(params, rng.standard_normal((8, 8)),
                             rng.integers(4, size=8), epsilon=1e-4)
        assert err < 1e-4

    def test_many_seeds_stay_tight(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            params = init_params([5, 7, 3], rng)
            err = gradient_check(params, rng.standard_normal((6, 5)),
                                 rng.integers(3, size=6))
            assert err < 1e-5, f"seed {seed} gave {err}"

    def test_epsilon_outside_stable_range_rejected(self):
        params = init_params([4, 2], 0)
        with pytest.raises(ConfigurationError):
            gradient_check(params, np.zeros((1, 4)), np.array([0]), epsilon=0.5)


# rows of one batch of class distributions, each with its entropy in nats
ENTROPY_ROWS = {
    "one_hot": ([0.0, 1.0] + [0.0] * 8, 0.0),
    "uniform_over_10": ([0.1] * 10, math.log(10)),
    "half_half_with_zeros": ([0.5, 0.5] + [0.0] * 8, math.log(2)),
}


class TestPredictionEntropy:
    @pytest.mark.parametrize("name", list(ENTROPY_ROWS))
    def test_each_row_of_a_batch(self, name):
        entropy = prediction_entropy(np.array([row for row, _ in ENTROPY_ROWS.values()]))
        assert entropy.shape == (len(ENTROPY_ROWS),)
        got = entropy[list(ENTROPY_ROWS).index(name)]
        np.testing.assert_allclose(got, ENTROPY_ROWS[name][1], rtol=1e-12, atol=0)


class TestLearningRateSchedule:
    @pytest.mark.parametrize(
        "progress, expected",
        [(0.0, 0.1), (0.5, 0.1), (0.6, 0.02), (0.7, 0.02), (0.8, 0.004), (0.9, 0.004), (1.0, 0.004)],
    )
    def test_default_schedule(self, progress, expected):
        np.testing.assert_allclose(learning_rate_at(progress, TrainerConfig()), expected,
                                   rtol=1e-12)

    def test_drop_points_validated(self):
        with pytest.raises(ConfigurationError):
            TrainerConfig(lr_drop_points=(0.8, 0.6))
        with pytest.raises(ConfigurationError):
            TrainerConfig(lr_drop_points=(0.0, 0.5))

    def test_momentum_validated(self):
        with pytest.raises(ConfigurationError):
            TrainerConfig(momentum=1.0)


class TestCheckpoint:
    def test_round_trip_is_lossless(self, tmp_path):
        params = init_params([12, 7, 5], 19)
        path = tmp_path / "model.npz"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        assert loaded.architecture == params.architecture
        assert np.array_equal(loaded.vector, params.vector)

    def test_vector_round_trip(self):
        params = init_params([6, 5, 4], 23)
        back = ModelParams.on_vector(params.vector.copy(), params.architecture)
        assert back.architecture == params.architecture
        assert all(np.array_equal(a, b) for a, b in zip(back.weights + back.biases,
                                                        params.weights + params.biases))
        with pytest.raises(ConfigurationError):
            ModelParams.on_vector(params.vector[:-1], params.architecture)


class TestTrainingSmoke:
    def test_separable_task_drives_loss_down_monotonically(self):
        # full-batch descent on well-separated blobs: strictly below 0.1
        # within 500 steps and never increasing along the way
        rng = np.random.default_rng(12)
        n = 60
        X = np.vstack([rng.standard_normal((n, 4)) * 0.3 + 2.0,
                       rng.standard_normal((n, 4)) * 0.3 - 2.0])
        y = np.array([0] * n + [1] * n)
        params = init_params([4, 8, 2], np.random.default_rng(3))
        cfg = TrainerConfig(momentum=0.0, weight_decay=0.0, batch_size=2 * n)
        state, workspace = init_sgd_state(params), Workspace(params, 2 * n)
        losses = [sgd_step(params, X, y, cfg, state, lr=0.5, workspace=workspace)
                  for _ in range(500)]
        assert all(later <= earlier + 1e-12 for earlier, later in zip(losses, losses[1:]))
        assert losses[-1] < 0.1
        assert min(i for i, l in enumerate(losses) if l < 0.1) < 500
