"""SGD training engine with a diminishing step schedule and KD losses.

The optimizer is plain SGD at a constant rate or, by default, at the base
rate divided by the square root of the step index, counting optimizer
steps (not epochs) from 1. Shuffling draws a fresh permutation per epoch
from the counter-based stream keyed by (seed, epoch), so identical configs
produce bit-identical loss trajectories. A step that meets NaN or Inf, in
a layer, the network output, the loss or the gradient, raises
:class:`~inhernet.errors.NumericalError` prefixed ``at epoch E, step T:``.

Each step works on the network's flat vectors (see :class:`~inhernet.nn.Network`):
zeroing the gradients is one fill, the gradient norm one dot product and
the SGD update one finiteness check plus one axpy. For distillation the
frozen teacher runs once per ``train`` call, over the whole training
split, and so does its log-softmax at the distillation temperature; every
step takes that log-softmax's rows at the batch indices.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import rng as _rng
from .errors import NumericalError, RangeError, ShapeError
from .inherit import GatedMixture
from .io import write_csv
from .linalg import log_softmax
from .nn import ROW_BLOCK, Network, accuracy, cross_entropy, forward_in_blocks, mse_loss

SCHEDULES = ("constant", "inverse_sqrt")
LOSSES = ("mse", "ce", "ce+kd")

RUNLOG_COLUMNS = ("epoch", "train_loss", "eval_loss", "eval_acc",
                  "grad_norm_mean", "grad_norm_var", "wall_ms")


@dataclass
class TrainConfig:
    base_lr: float
    epochs: int
    batch_size: int
    seed: int
    schedule: str = "inverse_sqrt"
    loss: str = "mse"
    lambda_ce: float = 1.0
    lambda_kd: float = 9.0
    temperature: float = 2.0
    threshold: float | None = None       # eval-loss level for epochs_to_threshold

    def __post_init__(self):
        if self.epochs < 0:
            raise RangeError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise RangeError(f"batch_size must be >= 1, got {self.batch_size}")
        # chained comparisons, which NaN fails
        for name in ("base_lr", "temperature"):
            value = getattr(self, name)
            if not 0 < value < np.inf:
                raise RangeError(f"{name} must be positive and finite, got {value}")
        for name in ("lambda_ce", "lambda_kd"):
            value = getattr(self, name)
            if not 0 <= value < np.inf:
                raise RangeError(f"{name} must be nonnegative and finite, got {value}")
        if self.schedule not in SCHEDULES:
            raise RangeError(f"unknown schedule {self.schedule!r}")
        if self.loss not in LOSSES:
            raise RangeError(f"unknown loss {self.loss!r}")


@dataclass
class RunLog:
    """Per-epoch training metrics; list lengths equal the epoch count."""

    train_loss: list[float] = field(default_factory=list)
    eval_loss: list[float] = field(default_factory=list)
    eval_acc: list[float] = field(default_factory=list)
    grad_norm_mean: list[float] = field(default_factory=list)
    grad_norm_var: list[float] = field(default_factory=list)
    wall_ms: list[float] = field(default_factory=list)
    epochs_to_threshold: int | None = None

    def __len__(self) -> int:
        return len(self.train_loss)

    def to_csv(self, path) -> None:
        rows = zip(self.train_loss, self.eval_loss, self.eval_acc, self.grad_norm_mean,
                   self.grad_norm_var, self.wall_ms)
        write_csv(path, RUNLOG_COLUMNS, [[i + 1, *row] for i, row in enumerate(rows)])


def learning_rate(config: TrainConfig, t: int) -> float:
    """Step size at optimizer step ``t`` (1-based)."""
    if t < 1:
        raise RangeError(f"step index must be >= 1, got {t}")
    if config.schedule == "constant":
        return config.base_lr
    return config.base_lr / np.sqrt(t)


def sgd_step(net: Network, t: int, config: TrainConfig) -> None:
    """In-place update ``theta <- theta - eta_t * g`` of every parameter of ``net``.

    One finiteness check and one axpy over the network's flat vectors. The
    check is the squared norm ``g @ g``, one BLAS pass with no boolean
    temporary. Only when that is not finite, from a NaN or Inf or from
    entries so large that their squares overflow (numpy then warns of the
    overflow), does it scan entry by entry. A non-finite gradient raises
    before any parameter is touched, naming the first offending
    ``{layer}.{name}`` key.
    """
    eta = learning_rate(config, t)
    g = net.grad_vector()
    if not np.isfinite(np.dot(g, g)) and not np.all(np.isfinite(g)):
        key = next(k for k, v in net.grad_items().items() if not np.all(np.isfinite(v)))
        raise NumericalError(f"non-finite gradient in {key!r} at step {t}")
    theta = net.param_vector()
    theta -= eta * g


def kd_loss(student_logits: np.ndarray, teacher_log_probs: np.ndarray,
            labels: np.ndarray, config: TrainConfig):
    """Combined task + distillation loss and its gradient wrt student logits.

    ``L = lambda_ce * CE(student, labels)
       + lambda_kd * tau^2 * KL(softmax(teacher/tau) || softmax(student/tau))``

    averaged over the batch. The temperature-squared factor keeps the KD
    gradient magnitude comparable across temperatures; differentiating the
    softened log-softmax contributes the remaining 1/tau.

    ``teacher_log_probs`` is the teacher's ``log_softmax(teacher_logits / tau)``;
    :func:`train` forms it once per call and passes each batch its rows.
    """
    if student_logits.shape != teacher_log_probs.shape:
        raise ShapeError(f"logit shapes differ: {student_logits.shape} "
                         f"vs {teacher_log_probs.shape}")
    b = student_logits.shape[0]
    tau = config.temperature
    ce, ce_grad = cross_entropy(student_logits, labels)
    # Both softened distributions are log-softmax outputs, so a saturated
    # teacher (p underflowing to 0) contributes 0 * finite, never 0 * log(0).
    log_q = log_softmax(student_logits / tau)
    p = np.exp(teacher_log_probs)
    kl = float(np.sum(p * (teacher_log_probs - log_q)) / b)
    loss = config.lambda_ce * ce + config.lambda_kd * tau * tau * kl
    grad = config.lambda_ce * ce_grad + config.lambda_kd * tau * (np.exp(log_q) - p) / b
    return loss, grad


def _batch_loss(net: Network, x: np.ndarray, y: np.ndarray, config: TrainConfig,
                teacher_log_probs: np.ndarray | None = None):
    logits = net.forward(x)
    if not np.isfinite(logits).all():
        last = len(net.layers) - 1
        raise NumericalError(f"output of layer {last} ({net.layers[last].kind}) holds NaN "
                             f"or Inf before the {config.loss!r} loss")
    if config.loss == "mse":
        return mse_loss(logits, y)
    if config.loss == "ce":
        return cross_entropy(logits, y)
    if teacher_log_probs is None:
        raise RangeError("loss 'ce+kd' requires a teacher network")
    return kd_loss(logits, teacher_log_probs, y, config)


def evaluate(net: Network, x: np.ndarray, y: np.ndarray, config: TrainConfig):
    """Task loss and accuracy on an evaluation split.

    The evaluation loss is always the plain task loss (MSE or CE), even when
    training optimizes the combined KD objective; accuracy is NaN for
    regression targets.

    The split runs forward through :func:`~inhernet.nn.forward_in_blocks`
    and the loss is formed once over the joined outputs, which are a single
    forward's up to last-place rounding. A row split goes in blocks of
    :data:`~inhernet.nn.ROW_BLOCK` rows, so a large eval split neither
    builds split-sized activations nor page-faults on every call. An image
    split (4-D) goes in blocks of ``config.batch_size`` images: a conv
    layer's lowering buffers grow with the batch, about 9*r values per
    padded pixel for an inherited one, so larger blocks would build them
    many times larger than training ever does.
    """
    out = forward_in_blocks(net, x, config.batch_size if x.ndim == 4 else ROW_BLOCK)
    if config.loss == "mse":
        return mse_loss(out, y)[0], float("nan")
    return cross_entropy(out, y)[0], accuracy(out, y)


def grad_norm(net: Network) -> float:
    """The Euclidean norm of the flat gradient, from one dot product.

    Only when that dot is not finite is the norm taken again on the
    gradient scaled by its largest magnitude, so entries whose squares
    overflow, as 2e160 does, still give a finite norm (numpy warns of the
    overflow in the first dot), while a NaN or Inf entry still gives a
    non-finite one.
    """
    g = net.grad_vector()
    sq = float(np.dot(g, g))
    if sq < math.inf or not np.all(np.isfinite(g)):
        return math.sqrt(sq)
    top = float(np.max(np.abs(g)))
    return top * float(np.linalg.norm(g / top))


def train(net: Network, data, config: TrainConfig,
          teacher: Network | None = None) -> RunLog:
    """Run SGD for ``config.epochs`` epochs and return the populated log.

    ``data`` is a ``(train_split, eval_split)`` pair of datasets with ``x``
    and ``y`` arrays. ``epochs_to_threshold`` records the first epoch whose
    post-epoch evaluation loss is at or below ``config.threshold``. With
    ``ce+kd`` the frozen teacher's log-probabilities at the distillation
    temperature are computed once for the whole training split, up front.
    """
    train_ds, eval_ds = data
    log = RunLog()
    n = train_ds.x.shape[0]
    teacher_log_probs = None
    if config.loss == "ce+kd":
        if teacher is None:
            raise RangeError("loss 'ce+kd' requires a teacher network")
        teacher_log_probs = log_softmax(teacher.forward(train_ds.x) / config.temperature)
    t = 0
    for epoch in range(config.epochs):
        start = time.perf_counter()
        perm = _rng.philox(config.seed, _rng.STREAM_SHUFFLE, epoch).permutation(n)
        epoch_losses = []
        step_norms = []
        for lo in range(0, n, config.batch_size):
            idx = perm[lo:lo + config.batch_size]
            xb, yb = train_ds.x[idx], train_ds.y[idx]
            t += 1
            kd_rows = None if teacher_log_probs is None else teacher_log_probs[idx]
            try:
                loss, grad = _batch_loss(net, xb, yb, config, kd_rows)
                if not np.isfinite(loss):
                    raise NumericalError(f"loss became non-finite; batch indices "
                                         f"{idx[:4].tolist()}...")
                net.zero_grads()
                net.backward(grad)
                # both dots fall back when a finite gradient's g @ g overflows
                with np.errstate(over="ignore"):
                    step_norms.append(grad_norm(net))
                    sgd_step(net, t, config)
            except NumericalError as exc:
                # the prefix names the step, which sgd_step's own message ends with
                detail = str(exc).removesuffix(f" at step {t}")
                raise NumericalError(f"at epoch {epoch + 1}, step {t}: {detail}") from exc
            epoch_losses.append(loss)
        ev_loss, ev_acc = evaluate(net, eval_ds.x, eval_ds.y, config)
        log.train_loss.append(float(np.mean(epoch_losses)))
        log.eval_loss.append(ev_loss)
        log.eval_acc.append(ev_acc)
        log.grad_norm_mean.append(float(np.mean(step_norms)))
        log.grad_norm_var.append(float(np.var(step_norms)))
        log.wall_ms.append((time.perf_counter() - start) * 1000.0)
        if (log.epochs_to_threshold is None and config.threshold is not None
                and ev_loss <= config.threshold):
            log.epochs_to_threshold = epoch + 1
    return log


@dataclass
class GatingVarianceReport:
    """Per-minibatch gradient variance with learned vs uniform gating."""

    adaptive_variance: float
    uniform_variance: float
    batches: int


def gating_grad_variance(layer, data, config: TrainConfig) -> GatingVarianceReport:
    """Measure gradient variance of one layer under both gating regimes.

    For each minibatch the full parameter gradient of the layer is
    flattened into a vector; the reported variance is the mean squared
    distance from the across-batch mean gradient. The uniform arm clones
    the layer and pins its gate to 1/H. Measurement only, no pass/fail.
    """
    train_ds, _ = data
    n = train_ds.x.shape[0]
    perm = _rng.philox(config.seed, _rng.STREAM_SHUFFLE, 0).permutation(n)

    def collect(net: Network) -> np.ndarray:
        rows = []
        for lo in range(0, n, config.batch_size):
            idx = perm[lo:lo + config.batch_size]
            _, grad = _batch_loss(net, train_ds.x[idx], train_ds.y[idx], config)
            net.zero_grads()
            net.backward(grad)
            rows.append(net.grad_vector().copy())
        return np.stack(rows)

    if not isinstance(layer, GatedMixture) or layer.gate_frozen:
        raise ShapeError("gating variance measurement expects a layer with a trainable gate")
    adaptive = Network([layer])
    uniform = Network([layer.ungated()])
    g_a = collect(adaptive)
    g_u = collect(uniform)

    def spread(g: np.ndarray) -> float:
        mean = g.mean(axis=0)
        return float(np.mean(np.sum((g - mean) ** 2, axis=1)))

    return GatingVarianceReport(adaptive_variance=spread(g_a),
                                uniform_variance=spread(g_u),
                                batches=g_a.shape[0])
