import re

import numpy as np
import pytest

from inhernet.errors import NumericalError, RangeError, ShapeError
from inhernet.experiments import build_toy_teacher, perturb_heads, toy_classification_data
from inhernet.inherit import inherit_conv, inherit_dense, inherit_network
from inhernet.io import SyntheticTask, gen_synthetic
from inhernet.nn import (DenseLayer, Network, ReluLayer, accuracy, cross_entropy, make_mlp,
                         mse_loss)
from inhernet.rng import philox
from inhernet.io import Dataset
from inhernet.linalg import log_softmax
from inhernet.train import (LOSSES, RUNLOG_COLUMNS, RunLog, TrainConfig, evaluate,
                            gating_grad_variance, grad_norm, kd_loss, learning_rate, sgd_step,
                            train)


def cfg(**kw):
    base = dict(base_lr=0.1, epochs=5, batch_size=16, seed=0, loss="mse")
    base.update(kw)
    return TrainConfig(**base)


def soft(teacher_logits, c):
    """The teacher's log-probabilities at ``c``'s temperature, as ``kd_loss`` takes them."""
    return log_softmax(teacher_logits / c.temperature)


class TestSchedule:
    def test_first_step_full_rate(self):
        assert learning_rate(cfg(schedule="inverse_sqrt", base_lr=0.3), 1) == 0.3

    def test_step_four_halves(self):
        assert learning_rate(cfg(schedule="inverse_sqrt", base_lr=0.3), 4) == 0.15

    def test_sqrt_identity_to_one_ulp(self):
        c = cfg(schedule="inverse_sqrt", base_lr=0.7)
        for t in range(1, 5000):
            assert abs(learning_rate(c, t) * np.sqrt(t) - 0.7) <= np.spacing(0.7)

    def test_constant_schedule(self):
        c = cfg(schedule="constant", base_lr=0.2)
        assert learning_rate(c, 100) == 0.2

    def test_step_schedule_is_unknown(self):
        with pytest.raises(RangeError, match="unknown schedule 'step'"):
            cfg(schedule="step")

    def test_step_index_must_be_positive(self):
        with pytest.raises(RangeError):
            learning_rate(cfg(), 0)


class TestSgdStep:
    def test_quadratic_convergence_with_scalar_oracle(self):
        # minimize 0.5 * (theta - 5)^2 under the diminishing schedule and
        # compare against a literal scalar simulation
        c = cfg(schedule="inverse_sqrt", base_lr=0.5)
        net = Network([DenseLayer(np.zeros((1, 1)))])
        theta = net.param_vector()
        expected = 0.0
        for t in range(1, 1001):
            net.grad_vector()[0] = theta[0] - 5.0
            sgd_step(net, t, c)
            expected = expected - 0.5 / np.sqrt(t) * (expected - 5.0)
        assert abs(theta[0] - 5.0) < 0.05
        assert abs(theta[0] - expected) < 1e-12

    def test_nonfinite_gradient_aborts_with_step(self):
        net = Network([DenseLayer(np.ones((1, 2)))])
        net.grad_vector()[...] = [np.inf, 0.0]
        with pytest.raises(NumericalError, match="step 7"):
            sgd_step(net, 7, cfg())

    def test_nonfinite_flat_gradient_names_layer_key(self):
        net = Network([DenseLayer(np.ones((3, 4)), np.zeros(4)), ReluLayer(),
                       inherit_dense(np.eye(4), 2, 3, bias=np.zeros(4))])
        before = net.param_vector().copy()
        for bad in (np.nan, np.inf, -np.inf):
            net.layers[2].grads["head_1"][0, 2] = bad
            with pytest.raises(NumericalError, match=r"'2\.head_1' at step 12"):
                sgd_step(net, 12, cfg())
            assert np.array_equal(net.param_vector(), before)

    def test_gradient_whose_squared_norm_overflows_still_steps(self):
        net = Network([DenseLayer(np.ones((3, 4)), np.zeros(4))])
        g = net.grad_vector()
        g[...] = philox(43, 0).uniform(-2e160, 2e160, size=g.size)
        expected = net.param_vector() - 0.1 / np.sqrt(5) * g
        with pytest.warns(RuntimeWarning, match="overflow"):   # numpy's, from g @ g
            sgd_step(net, 5, cfg(base_lr=0.1))
        assert net.param_vector().tobytes() == expected.tobytes()


class TestGradNorm:
    def test_squared_norm_overflow_gives_the_finite_norm(self):
        net = make_mlp([3, 4], seed=0)                  # 16 parameters
        net.grad_vector()[...] = 2e160
        with pytest.warns(RuntimeWarning, match="overflow"):   # numpy's, from g @ g
            assert grad_norm(net) == 8e160
        for bad in (np.nan, np.inf):
            net.grad_vector()[3] = bad
            with np.errstate(over="ignore", invalid="ignore"):
                assert not np.isfinite(grad_norm(net))

    @pytest.mark.filterwarnings("error::RuntimeWarning")    # train prints no overflow warning
    def test_run_log_stays_finite_on_such_a_step(self):
        # one step: dL/dW is 8e160 in each of 4 entries, so g @ g overflows
        net = Network([DenseLayer(np.ones((4, 1)))])
        one = Dataset(x=np.full((1, 4), 1e80), y=np.zeros((1, 1)), kind="regression")
        log = train(net, (one, one), cfg(base_lr=1e-200, epochs=1, batch_size=1))
        assert log.grad_norm_mean[0] == pytest.approx(1.6e161)
        assert np.isfinite(log.eval_loss[0])


class TestKdLoss:
    def test_identical_logits_reduce_to_ce(self):
        gen = philox(1, 0)
        logits = gen.standard_normal((5, 4))
        labels = gen.integers(0, 4, size=5)
        c = cfg(loss="ce+kd", lambda_ce=1.0, lambda_kd=9.0, temperature=2.0)
        total, _ = kd_loss(logits, soft(logits, c), labels, c)
        ce, _ = cross_entropy(logits, labels)
        assert abs(total - ce) < 1e-12

    def test_zero_weight_is_plain_ce(self):
        gen = philox(2, 0)
        s = gen.standard_normal((6, 3))
        t = gen.standard_normal((6, 3))
        labels = gen.integers(0, 3, size=6)
        c = cfg(loss="ce+kd", lambda_kd=0.0)
        total, grad = kd_loss(s, soft(t, c), labels, c)
        ce, ce_grad = cross_entropy(s, labels)
        assert total == ce
        assert np.array_equal(grad, ce_grad)

    def test_against_high_precision_reference(self):
        # batch regenerated from its Philox key; total computed with
        # 50-digit decimal arithmetic at tau=2, lambda_ce=1, lambda_kd=9
        gen = philox(2024, 1)
        s = gen.standard_normal((3, 4))
        t = gen.standard_normal((3, 4))
        labels = gen.integers(0, 4, size=3)
        c = cfg(loss="ce+kd", lambda_ce=1.0, lambda_kd=9.0, temperature=2.0)
        total, _ = kd_loss(s, soft(t, c), labels, c)
        assert abs(total - 7.716641641727973364028849) < 1e-12

    def test_gradient_matches_finite_differences(self):
        gen = philox(3, 0)
        s = gen.standard_normal((4, 5))
        t = gen.standard_normal((4, 5))
        labels = gen.integers(0, 5, size=4)
        c = cfg(loss="ce+kd", lambda_ce=0.7, lambda_kd=4.0, temperature=3.0)
        t = soft(t, c)
        _, grad = kd_loss(s, t, labels, c)
        step = 1e-5
        fd = np.zeros_like(s)
        for idx in np.ndindex(s.shape):
            sp = s.copy(); sp[idx] += step
            sm = s.copy(); sm[idx] -= step
            fd[idx] = (kd_loss(sp, t, labels, c)[0]
                       - kd_loss(sm, t, labels, c)[0]) / (2 * step)
        mask = np.abs(grad) > 1e-6
        assert float((np.abs(grad - fd)[mask] / np.abs(grad)[mask]).max()) < 1e-4

    def test_saturated_teacher_stays_finite(self):
        # exp(-805) underflows to 0, which once met log(0) and gave NaN
        s = np.array([[0.3, -0.2, 1.1], [2.0, 0.5, -1.0]])
        t = np.array([[0.0, -800.0, 5.0], [1.0, -900.0, 0.0]])
        labels = np.array([2, 0])
        c = cfg(loss="ce+kd", lambda_ce=0.5, lambda_kd=3.0, temperature=1.0)
        t = soft(t, c)
        loss, grad = kd_loss(s, t, labels, c)
        assert np.isfinite(loss) and np.all(np.isfinite(grad))
        step = 1e-6
        fd = np.zeros_like(s)
        for idx in np.ndindex(s.shape):
            sp = s.copy(); sp[idx] += step
            sm = s.copy(); sm[idx] -= step
            fd[idx] = (kd_loss(sp, t, labels, c)[0]
                       - kd_loss(sm, t, labels, c)[0]) / (2 * step)
        assert np.max(np.abs(grad - fd)) < 1e-7

    def test_rows_of_a_whole_split_log_softmax_are_bit_identical(self):
        # train forms the teacher's log-softmax once and hands each step its rows
        gen = philox(4, 0)
        teacher = 3.0 * gen.standard_normal((1600, 4))
        c = cfg(loss="ce+kd", lambda_ce=0.5, lambda_kd=3.0, temperature=2.0)
        whole = soft(teacher, c)
        for rows in np.array_split(gen.permutation(1600), 50):
            s = gen.standard_normal((len(rows), 4))
            labels = gen.integers(0, 4, size=len(rows))
            per_batch = kd_loss(s, soft(teacher[rows], c), labels, c)
            cached = kd_loss(s, whole[rows], labels, c)
            assert per_batch[0] == cached[0] and np.array_equal(per_batch[1], cached[1])

    def test_class_dim_mismatch(self):
        with pytest.raises(ShapeError):
            kd_loss(np.zeros((2, 3)), np.zeros((2, 4)), np.array([0, 1]), cfg())

    def test_invalid_config(self):
        with pytest.raises(RangeError):
            cfg(temperature=0.0)
        with pytest.raises(RangeError):
            cfg(base_lr=-1.0)
        with pytest.raises(RangeError):
            cfg(lambda_kd=-0.1)
        for field, value in (("batch_size", 0), ("batch_size", -4), ("epochs", -3)):
            with pytest.raises(RangeError, match=field):
                cfg(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("base_lr", np.nan), ("base_lr", np.inf), ("base_lr", 0.0),
        ("temperature", np.nan), ("temperature", np.inf), ("temperature", -1.0),
        ("lambda_kd", np.nan), ("lambda_kd", np.inf), ("lambda_ce", np.nan),
        ("lambda_ce", -0.5)])
    def test_non_finite_and_sign_flipping_settings_name_their_field(self, field, value):
        with pytest.raises(RangeError, match=field):
            cfg(**{field: value})


class TestTrain:
    def test_diverging_run_names_the_layer_and_the_step(self):
        data = toy_classification_data()
        net = inherit_network(build_toy_teacher(data), r=8, h=3, cap_rank=True,
                              gate_input="input")
        perturb_heads(net, 0)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                NumericalError, match=r"^at epoch 1, step \d+: layer \d+: softmax input"):
            train(net, data, cfg(base_lr=1e6, loss="ce", batch_size=32))

    def test_overflowing_gradient_names_the_epoch_and_the_step(self):
        # the output 6e8 * [1, -1] is finite; its gradient at the hidden unit is 3e308
        net = Network([DenseLayer(np.full((4, 1), 1e-300)), DenseLayer([[1.5e308, -1.5e308]])])
        one = Dataset(x=np.ones((1, 4)), y=np.array([1]), kind="classification")
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                NumericalError, match=r"^at epoch 1, step 1: non-finite gradient in '0\.weight'$"):
            train(net, (one, one), cfg(loss="ce", batch_size=1))

    @pytest.mark.parametrize("loss", LOSSES)
    def test_overflowing_last_layer_names_the_layer_and_the_loss(self, loss):
        net = Network([DenseLayer(np.ones((4, 3))), ReluLayer(),
                       DenseLayer(np.full((3, 2), 1e308))])
        y, kind = ((np.zeros((2, 2)), "regression") if loss == "mse"
                   else (np.array([0, 1]), "classification"))
        data = (Dataset(x=np.ones((2, 4)), y=y, kind=kind),) * 2
        teacher = Network([DenseLayer(np.ones((4, 2)))]) if loss == "ce+kd" else None
        with np.errstate(over="ignore"), pytest.raises(
                NumericalError, match=r"^at epoch 1, step 1: output of layer 2 \(dense\) "
                                      rf"holds NaN or Inf before the '{re.escape(loss)}' loss"):
            train(net, data, cfg(loss=loss, batch_size=2), teacher=teacher)

    def test_zero_epochs_leaves_net_unchanged(self):
        task = SyntheticTask(kind="piecewise", seed=3, n=100, dim=4, classes=1,
                             out_dim=2)
        data = gen_synthetic(task)
        net = make_mlp([4, 2], seed=1)
        before = {k: v.copy() for k, v in net.param_items().items()}
        log = train(net, data, cfg(epochs=0))
        assert len(log) == 0
        for k, v in net.param_items().items():
            assert np.array_equal(v, before[k])

    def test_realizable_linear_regression(self):
        # noise-free single-cluster task is globally linear; least squares
        # confirms realizability, then SGD must reach near-zero eval loss
        task = SyntheticTask(kind="piecewise", seed=4, n=500, dim=6, classes=1,
                             out_dim=3)
        data = gen_synthetic(task)
        xb = np.hstack([data[0].x, np.ones((data[0].x.shape[0], 1))])
        coef, residual, _, _ = np.linalg.lstsq(xb, data[0].y, rcond=None)
        assert np.max(np.abs(xb @ coef - data[0].y)) < 1e-8
        net = Network([DenseLayer(np.zeros((6, 3)), np.zeros(3))])
        log = train(net, data, cfg(epochs=200, base_lr=0.05, batch_size=32,
                                   schedule="constant"))
        assert log.eval_loss[-1] < 1e-3

    def test_same_seed_bit_identical(self):
        task = SyntheticTask(kind="blobs", seed=5, n=300, dim=6, classes=3,
                             separation=2.0)
        data = gen_synthetic(task)
        logs = []
        for _ in range(2):
            net = make_mlp([6, 12, 3], seed=9)
            logs.append(train(net, data, cfg(loss="ce", epochs=4, seed=13)))
        assert logs[0].train_loss == logs[1].train_loss
        assert logs[0].eval_loss == logs[1].eval_loss
        assert logs[0].eval_acc == logs[1].eval_acc
        assert logs[0].grad_norm_mean == logs[1].grad_norm_mean
        assert logs[0].grad_norm_var == logs[1].grad_norm_var

    def test_epochs_to_threshold_recorded(self):
        task = SyntheticTask(kind="piecewise", seed=6, n=400, dim=5, classes=1,
                             out_dim=2)
        data = gen_synthetic(task)
        net = Network([DenseLayer(np.zeros((5, 2)), np.zeros(2))])
        log = train(net, data, cfg(epochs=100, base_lr=0.05, threshold=1e-2,
                                   schedule="constant"))
        assert log.epochs_to_threshold is not None
        t = log.epochs_to_threshold
        assert log.eval_loss[t - 1] <= 1e-2
        assert all(v > 1e-2 for v in log.eval_loss[:t - 1])

    def test_trailing_mean_eval_loss_improves(self):
        task = SyntheticTask(kind="blobs", seed=7, n=400, dim=8, classes=2,
                             separation=2.0)
        data = gen_synthetic(task)
        net = make_mlp([8, 16, 2], seed=2)
        log = train(net, data, cfg(loss="ce", epochs=30, base_lr=0.05))
        assert np.mean(log.eval_loss[-10:]) <= np.mean(log.eval_loss[:10])

    def test_runlog_lengths_and_csv(self, tmp_path):
        task = SyntheticTask(kind="blobs", seed=8, n=200, dim=4, classes=2)
        data = gen_synthetic(task)
        net = make_mlp([4, 6, 2], seed=1)
        log = train(net, data, cfg(loss="ce", epochs=3))
        assert len(log.train_loss) == len(log.eval_loss) == 3
        assert all(np.isfinite(v) for v in log.train_loss)
        path = tmp_path / "log.csv"
        log.to_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == ",".join(RUNLOG_COLUMNS)
        assert len(lines) == 4

    def test_runlog_csv_bytes(self, tmp_path):
        log = RunLog(train_loss=[0.5, 0.25], eval_loss=[0.4, 0.1 + 0.2],
                     eval_acc=[float("nan"), 1.0], grad_norm_mean=[1e-20, 3.0],
                     grad_norm_var=[0.0, 2.5], wall_ms=[12.5, 7.0])
        path = tmp_path / "log.csv"
        log.to_csv(path)
        assert path.read_bytes() == (
            b"epoch,train_loss,eval_loss,eval_acc,grad_norm_mean,grad_norm_var,wall_ms\n"
            b"1,0.5,0.4,nan,1e-20,0.0,12.5\n"
            b"2,0.25,0.30000000000000004,1.0,3.0,2.5,7.0\n")

    def test_non_finite_input_raises_through_forward_evaluate_and_train(self):
        net = make_mlp([4, 8, 3], seed=0)
        x = philox(40, 0).standard_normal((20, 4))
        y = np.arange(20) % 3
        for bad in (np.nan, np.inf):
            xb = x.copy()
            xb[7, 2] = bad
            with pytest.raises(NumericalError, match="input"):
                net.forward(xb)
            with pytest.raises(NumericalError, match="input"):
                evaluate(net, xb, y, cfg(loss="ce"))
            data = (Dataset(xb, y, "classification"), Dataset(x, y, "classification"))
            with pytest.raises(NumericalError, match="input"):
                train(net, data, cfg(loss="ce", epochs=1))

    def test_image_split_evaluates_in_training_batch_blocks(self):
        gen = philox(41, 0)
        net = Network([inherit_conv(gen.standard_normal((4, 3, 3, 3)), 3, 2, padding=1),
                       ReluLayer(),
                       inherit_conv(gen.standard_normal((2, 4, 3, 3)), 2, 2, stride=2,
                                    padding=1)])
        x = gen.standard_normal((11, 3, 7, 7))
        y = gen.standard_normal(net.forward(x).shape)
        whole = mse_loss(net.forward(x), y)[0]
        sizes = []
        forward = net.forward
        net.forward = lambda xb: sizes.append(len(xb)) or forward(xb)
        loss, acc = evaluate(net, x, y, cfg(batch_size=4))
        assert sizes == [4, 4, 3]
        assert loss == whole and np.isnan(acc)
        with pytest.raises(ShapeError, match="empty"):
            evaluate(net, x[:0], y[:0], cfg(batch_size=4))
        x[9, 1, 2, 3] = np.nan
        with pytest.raises(NumericalError, match="input"):
            evaluate(net, x, y, cfg(batch_size=4))

    def test_row_split_evaluates_in_row_blocks(self):
        net = make_mlp([4, 8, 3], seed=0)
        x = philox(42, 0).standard_normal((1300, 4))
        y = np.arange(1300) % 3
        out = net.forward(x)
        whole = cross_entropy(out, y)[0], accuracy(out, y)
        sizes = []
        forward = net.forward
        net.forward = lambda xb: sizes.append(len(xb)) or forward(xb)
        assert evaluate(net, x, y, cfg(loss="ce", batch_size=4)) == whole
        assert sizes == [512, 512, 276]
        sizes.clear()
        evaluate(net, x[:20], y[:20], cfg(loss="ce", batch_size=4))
        assert sizes == [20]
        with pytest.raises(ShapeError, match="empty"):
            evaluate(net, x[:0], y[:0], cfg(loss="ce"))
        # the whole split is checked before any block runs, and the error names it
        x[1100, 2] = np.nan
        sizes.clear()
        with pytest.raises(NumericalError, match=r"input of shape \(1300, 4\) holds NaN"):
            evaluate(net, x, y, cfg(loss="ce"))
        assert sizes == []

    def test_teacher_runs_once_per_call(self):
        task = SyntheticTask(kind="blobs", seed=9, n=100, dim=4, classes=2)
        data = gen_synthetic(task)
        teacher = make_mlp([4, 8, 2], seed=3)
        calls = []
        forward = teacher.forward
        teacher.forward = lambda x: calls.append(x.shape) or forward(x)
        train(make_mlp([4, 2], seed=1), data, cfg(loss="ce+kd", epochs=3), teacher=teacher)
        assert calls == [data[0].x.shape]

    def test_training_after_rewrap_updates_what_forward_reads(self):
        task = SyntheticTask(kind="piecewise", seed=3, n=200, dim=4, classes=1,
                             out_dim=2)
        data = gen_synthetic(task)
        layer = inherit_dense(philox(5, 0).standard_normal((4, 2)), 1, 2)
        net = Network([layer])
        Network([layer])           # a second network moves the layer's arrays
        before = net.forward(data[1].x)
        log = train(net, data, cfg(epochs=3, base_lr=0.002))
        after = net.forward(data[1].x)
        assert not np.array_equal(after, before)
        assert ((after - data[1].y) ** 2).mean() == log.eval_loss[-1]

    def test_kd_training_requires_teacher(self):
        task = SyntheticTask(kind="blobs", seed=9, n=100, dim=4, classes=2)
        data = gen_synthetic(task)
        net = make_mlp([4, 2], seed=1)
        with pytest.raises(RangeError):
            train(net, data, cfg(loss="ce+kd", epochs=1))


class TestGatingVariance:
    def _task_data(self, seed):
        task = SyntheticTask(kind="piecewise", seed=500 + seed, n=400, dim=8,
                             classes=2, out_dim=4, separation=2.5, map_rank=1)
        return gen_synthetic(task)

    def test_identical_heads_equal_variance(self):
        gen = philox(10, 0)
        data = self._task_data(0)
        layer = inherit_dense(gen.standard_normal((8, 4)), 2, 3)
        rep = gating_grad_variance(layer, data, cfg(batch_size=32))
        # identical heads make gating irrelevant, so both regimes see the
        # same per-batch gradients up to summation order
        assert abs(rep.adaptive_variance - rep.uniform_variance) \
            <= 1e-9 * max(1.0, rep.uniform_variance)

    def test_single_head_paths_identical(self):
        gen = philox(11, 0)
        data = self._task_data(1)
        layer = inherit_dense(gen.standard_normal((8, 4)), 2, 1)
        rep = gating_grad_variance(layer, data, cfg(batch_size=32))
        assert abs(rep.adaptive_variance - rep.uniform_variance) \
            <= 1e-9 * max(1.0, rep.uniform_variance)

    def test_trained_adaptive_gating_reduces_variance(self):
        from inhernet.experiments import perturb_heads
        wins = 0
        w = philox(99, 3).standard_normal((8, 4))
        for seed in range(5):
            data = self._task_data(seed)
            layer = inherit_dense(w, 2, 3, gate_input="input", bias=np.zeros(4))
            net = Network([layer])
            perturb_heads(net, seed, gate_scale=0.5)
            c = cfg(base_lr=0.02, epochs=60, batch_size=32, seed=seed,
                    schedule="constant")
            train(net, data, c)
            rep = gating_grad_variance(layer, data, c)
            wins += rep.adaptive_variance <= rep.uniform_variance
        assert wins >= 4
