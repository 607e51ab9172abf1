"""The benchmark's three workloads.

Each workload turns the benchmark seed into a teacher, a train/eval split
and a freshly inherited student, using only the package's public
functions. The seed reaches the training inputs, the head jitter and the
shuffle order. The teacher and the task geometry are fixed per workload,
and so are the eval splits of distill-desk and conv-mimic. The final loss
therefore moves little from seed to seed. With a seed-drawn teacher, the
spread of ``eval_loss`` across seeds was several times wider.

``tiny=True`` shrinks every size so the benchmark's own tests run in
seconds; the timed benchmark always runs at full size.
"""

from __future__ import annotations

from contextlib import AbstractContextManager
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from inhernet import experiments, inherit, io, nn, rng
from inhernet.io import Dataset
from inhernet.nn import Network
from inhernet.train import TrainConfig

# Stream tag for the benchmark's own draws (the package uses tags 0-7).
STREAM_BENCH = 11

Span = Callable[[str], AbstractContextManager]


@dataclass
class Job:
    """Everything one pass needs, before the student's heads are jittered."""

    teacher: Network
    data: tuple[Dataset, Dataset]
    student: Network
    config: TrainConfig
    distill: bool        # the teacher runs inside the training loop
    infer_batches: int   # student forward batches timed per pass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable[[int, bool, Span], Job]


def _split(x: np.ndarray, y: np.ndarray, n_train: int, n_eval: int, seed: int,
           kind: str) -> tuple[Dataset, Dataset]:
    """The pool's first ``n_eval`` rows as a fixed eval split, and
    ``n_train`` seed-drawn training rows from the rest.

    A fixed eval split keeps its sampling noise out of the seed-to-seed
    spread of the final eval loss.
    """
    tr = n_eval + rng.philox(seed, STREAM_BENCH).permutation(x.shape[0] - n_eval)[:n_train]
    return (Dataset(x=x[tr], y=y[tr], kind=kind),
            Dataset(x=x[:n_eval], y=y[:n_eval], kind=kind))


# --- distill-desk -------------------------------------------------------------

def distill_desk(seed: int, tiny: bool, span: Span) -> Job:
    """Insight 1's distillation job at r=8, H=3, input gating, B=32.

    The rows come from a pool with the insight-1 toy task's blob centers
    (same task seed, larger n).
    """
    n_train, n_eval, epochs, infer = (96, 64, 2, 8) if tiny else (1600, 4000, 20, 1000)
    with span("experiments.teacher_build"):
        teacher = experiments.build_toy_teacher(experiments.toy_classification_data())
    pool = io.gen_synthetic(replace(experiments.TOY_TASK, n=8000))
    x = np.concatenate([pool[0].x, pool[1].x])
    y = np.concatenate([pool[0].y, pool[1].y])
    data = _split(x, y, n_train, n_eval, seed, "classification")
    student = inherit.inherit_network(teacher, r=8, h=3, gate_input="input",
                                      cap_rank=True)
    cfg = TrainConfig(base_lr=0.01, epochs=epochs, batch_size=32, seed=seed,
                      loss="ce+kd")
    return Job(teacher, data, student, cfg, distill=True, infer_batches=infer)


# --- finetune-wide ------------------------------------------------------------

WIDE_TEACHER_SEED = 5
WIDE_DECAY = 0.97


def finetune_wide(seed: int, tiny: bool, span: Span) -> Job:
    """Mimic regression of a 512-wide spectral teacher at r=32, H=4, B=256."""
    if tiny:
        dims, r, n, batch, epochs, infer, lr = [32, 32, 32, 8], 4, 160, 32, 2, 4, 0.1
    else:
        dims, r, n, batch, epochs, infer, lr = [512, 512, 512, 64], 32, 5120, 256, 3, 240, 2.0
    with span("experiments.teacher_build"):
        teacher = experiments.spectral_mlp(dims, seed=WIDE_TEACHER_SEED,
                                           decay=WIDE_DECAY)
    data = io.gen_synthetic(io.SyntheticTask(kind="mimic", seed=seed, n=n,
                                             dim=dims[0]), teacher=teacher)
    student = inherit.inherit_network(teacher, r=r, h=4, cap_rank=True)
    cfg = TrainConfig(base_lr=lr, epochs=epochs, batch_size=batch, seed=seed,
                      loss="mse")
    return Job(teacher, data, student, cfg, distill=False, infer_batches=infer)


# --- conv-mimic ---------------------------------------------------------------

CONV_TEACHER_SEED = 3
CONV_CHANNELS = (3, 16, 16)


def conv_teacher() -> Network:
    """Two 3x3 convolutions (3->16->16, padding 1) with a ReLU between."""
    layers = []
    for i, (c, n) in enumerate(zip(CONV_CHANNELS[:-1], CONV_CHANNELS[1:])):
        gen = rng.philox(CONV_TEACHER_SEED, rng.STREAM_INIT, i)
        kernel = nn.kaiming_uniform((n, c, 3, 3), fan_in=c * 9, gen=gen)
        layers.append(nn.Conv2DLayer(kernel, stride=1, padding=1, bias=np.zeros(n)))
        if i == 0:
            layers.append(nn.ReluLayer())
    return Network(layers)


def conv_mimic(seed: int, tiny: bool, span: Span) -> Job:
    """Mimic a conv teacher on seed-drawn images at r=4, H=3, B=16."""
    side, n_train, n_eval, epochs, infer = (8, 32, 16, 1, 4) if tiny else (16, 384, 256, 2, 256)
    with span("experiments.teacher_build"):
        teacher = conv_teacher()
    shape = (CONV_CHANNELS[0], side, side)
    # Eval images come from a fixed key, training images from the seed.
    x = np.concatenate([rng.philox(0, STREAM_BENCH, 2).standard_normal((n_eval, *shape)),
                        rng.philox(seed, STREAM_BENCH, 1).standard_normal((n_train, *shape))])
    # Chunked so the teacher's im2col buffer stays small.
    y = np.concatenate([teacher.forward(x[lo:lo + 64]) for lo in range(0, x.shape[0], 64)])
    data = (Dataset(x=x[n_eval:], y=y[n_eval:], kind="regression"),
            Dataset(x=x[:n_eval], y=y[:n_eval], kind="regression"))
    student = inherit.inherit_network(teacher, r=4, h=3, cap_rank=True)
    cfg = TrainConfig(base_lr=0.2, epochs=epochs, batch_size=8 if tiny else 16,
                      seed=seed, loss="mse")
    return Job(teacher, data, student, cfg, distill=False, infer_batches=infer)


WORKLOADS = {w.name: w for w in (
    Workload("distill-desk",
             "insight 1's r=8 H=3 ce+kd job: every GEMM is at most 96 wide, so "
             "per-step bookkeeping, the teacher forward and kd_loss dominate",
             distill_desk),
    Workload("finetune-wide",
             "512-wide mimic regression at r=32 H=4 B=256 with no teacher in "
             "the loop: the gated layers' GEMMs are most of each step",
             finetune_wide),
    Workload("conv-mimic",
             "the only path through InherConv2DLayer, im2col/col2im and the 4-D "
             "einsums; activations are large next to parameters",
             conv_mimic),
)}
