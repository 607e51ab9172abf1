"""Reproducible desk-scale experiments and self-check suites.

Three trend experiments back the headline behavioral claims:

1. Distillation helps aggressively compressed inheritors and stops helping
   (or hurts) once the rank is large enough that task loss alone trains the
   inheritor past its teacher.
2. Rank dominates head count; several gated heads beat a single head at
   mid ranks.
3. SVD-initialized inheritors reach a near-teacher loss threshold in far
   fewer epochs than identically shaped randomly initialized ones.

Each ``run_insight{n}`` returns its rows, a summary line and its chart's
series; :func:`run_insight` runs one of them by number (:data:`INSIGHTS`)
and is the one place that writes their CSV and SVG files.

All experiments are bit-deterministic given their seed list. Seed sweeps
use every CPU the process may run on (``taskset`` or a cpuset narrows
that set), one spawned worker process each, or run in-process on one CPU;
results come back in job order. Each worker imports the caller's main
module, so a script that runs a sweep does so under ``__main__``.

Symmetry note: freshly inherited expert heads are exact copies, and exact
copies receive identical gradients forever, so gating can never
differentiate them. The harness therefore applies a small documented
jitter to heads after construction. Fidelity tests always run on
unjittered layers.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import rng as _rng
from .errors import RangeError
from .inherit import GatedMixture, inherit_network
from .io import Dataset, SyntheticTask, atomic_write, gen_synthetic, write_csv
from .nn import DenseLayer, Network, ReluLayer, make_mlp
from .train import TrainConfig, evaluate, train

# Classification toy task shared by the distillation and head-count
# experiments: four classes, three Gaussian blobs each, moderate overlap.
TOY_TASK = SyntheticTask(kind="blobs", seed=42, n=2000, dim=24, classes=4,
                         per_class=3, separation=1.5)
TEACHER_DIMS = [24, 96, 96, 4]
TEACHER_SEED = 7
TEACHER_SUBSET = 100     # deliberately undertrained teacher (sees 100 samples)
TEACHER_EPOCHS = 10

INSIGHT1_RANKS = (2, 4, 8, 16)
INSIGHT2_HEADS = (1, 2, 3)
INSIGHT2_MID_RANK = 4

HEAD_JITTER = 0.3


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_jobs(fn, jobs: list) -> list:
    """``[fn(job) for job in jobs]``, one worker process per CPU; ``fn`` must pickle."""
    workers = min(len(jobs), _cpus())
    if workers <= 1:
        return [fn(job) for job in jobs]
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn")) as pool:
        return list(pool.map(fn, jobs))


def _check_seeds(seeds: int) -> None:
    if seeds < 1:
        raise RangeError(f"seeds must be >= 1, got {seeds}")


def perturb_heads(net: Network, seed: int) -> None:
    """Break the head replica symmetry of freshly inherited layers in place: jitter
    every entry of the down and up blocks a layer holds per head (not the bias)
    with Gaussian noise at ``HEAD_JITTER`` times its RMS."""
    gen = _rng.philox(seed, _rng.STREAM_JITTER)
    for layer in net.layers:
        if not isinstance(layer, GatedMixture):
            continue
        for block in ("down", "up"):
            for p in layer.blocks[block] if block in layer.per_head else ():
                p += HEAD_JITTER * np.linalg.norm(p) / np.sqrt(p.size) * \
                    gen.standard_normal(p.shape)


def toy_classification_data():
    return gen_synthetic(TOY_TASK)


def build_toy_teacher(data) -> Network:
    """Teacher for the classification experiments, trained on a small subset.

    Undertraining is intentional: the distillation regime flip needs a
    teacher that a high-rank inheritor can out-train on the full split.
    """
    train_ds, eval_ds = data
    subset = Dataset(x=train_ds.x[:TEACHER_SUBSET], y=train_ds.y[:TEACHER_SUBSET],
                     kind="classification")
    teacher = make_mlp(TEACHER_DIMS, seed=TEACHER_SEED)
    cfg = TrainConfig(base_lr=0.1, epochs=TEACHER_EPOCHS, batch_size=64,
                      seed=TEACHER_SEED, loss="ce")
    train(teacher, (subset, eval_ds), cfg)
    return teacher


def spectral_mlp(dims: list[int], seed: int, decay: float = 0.8) -> Network:
    """ReLU MLP whose weights have geometrically decaying singular values.

    Stand-in for a well-trained teacher: random orthogonal factors around
    the spectrum ``2 * decay**i``, so low-rank truncations retain most of
    the energy.
    """
    layers = []
    for i, (m, n) in enumerate(zip(dims[:-1], dims[1:])):
        gen = _rng.philox(seed, _rng.STREAM_INIT, i)
        qa, _ = np.linalg.qr(gen.standard_normal((m, m)))
        qb, _ = np.linalg.qr(gen.standard_normal((n, n)))
        k = min(m, n)
        s = 2.0 * decay ** np.arange(k)
        layers.append(DenseLayer((qa[:, :k] * s) @ qb[:k, :], np.zeros(n)))
        if i < len(dims) - 2:
            layers.append(ReluLayer())
    return Network(layers)


# --- insight 1: distillation vs rank -----------------------------------------

def _toy_job(args) -> float:
    """Final eval accuracy of an input-gated, jittered inheritor trained by ``cfg``."""
    teacher, r, h, cfg = args
    data = toy_classification_data()
    net = inherit_network(teacher, r=r, h=h, cap_rank=True, gate_input="input")
    perturb_heads(net, cfg.seed)
    return train(net, data, cfg, teacher=teacher).eval_acc[-1]


def run_insight1(seeds: int = 5) -> dict:
    """Sweep rank with and without distillation; report the per-rank deltas."""
    _check_seeds(seeds)
    data = toy_classification_data()
    teacher = build_toy_teacher(data)
    keys = [(r, s, kd) for r in INSIGHT1_RANKS for s in range(seeds) for kd in (False, True)]
    jobs = [(teacher, r, 3, TrainConfig(base_lr=0.01, epochs=100, batch_size=32, seed=s,
                                        loss="ce+kd" if kd else "ce"))
            for r, s, kd in keys]
    acc = dict(zip(keys, _map_jobs(_toy_job, jobs)))
    rows = []
    for r in INSIGHT1_RANKS:
        for s in range(seeds):
            base, kd = acc[(r, s, False)], acc[(r, s, True)]
            rows.append({"r": r, "seed": s, "acc_ce": base, "acc_kd": kd,
                         "delta": kd - base})
    smallest, largest = INSIGHT1_RANKS[0], INSIGHT1_RANKS[-1]
    pos_small = sum(1 for row in rows if row["r"] == smallest and row["delta"] > 0)
    nonpos_large = sum(1 for row in rows if row["r"] == largest and row["delta"] <= 0)
    summary = (f"distillation delta: positive at r={smallest} in {pos_small}/{seeds} "
               f"seeds, nonpositive at r={largest} in {nonpos_large}/{seeds} seeds")
    med = {kd: [float(np.median([acc[(r, s, kd)] for s in range(seeds)]))
                for r in INSIGHT1_RANKS] for kd in (False, True)}
    chart = {"series": {"task loss only": list(zip(INSIGHT1_RANKS, med[False])),
                        "with distillation": list(zip(INSIGHT1_RANKS, med[True]))},
             "title": "final accuracy vs rank", "xlabel": "rank", "ylabel": "accuracy"}
    return {"rows": rows, "summary": summary, "seeds": seeds, "chart": chart,
            "pos_at_smallest": pos_small, "nonpos_at_largest": nonpos_large,
            "majority_flip": pos_small * 2 > seeds and nonpos_large * 2 > seeds}


# --- insight 2: rank vs head count --------------------------------------------

def run_insight2(seeds: int = 5) -> dict:
    """Grid over (rank, head count); compare the two sweep ranges."""
    _check_seeds(seeds)
    data = toy_classification_data()
    teacher = build_toy_teacher(data)
    keys = [(r, h, s) for r in INSIGHT1_RANKS for h in INSIGHT2_HEADS for s in range(seeds)]
    jobs = [(teacher, r, h, TrainConfig(base_lr=0.03, epochs=80, batch_size=32, seed=s,
                                        loss="ce"))
            for r, h, s in keys]
    acc = dict(zip(keys, _map_jobs(_toy_job, jobs)))
    rows = [{"r": r, "h": h, "seed": s, "acc": acc[(r, h, s)]} for r, h, s in keys]
    mid = INSIGHT2_MID_RANK
    h3_ge_h1 = sum(1 for s in range(seeds) if acc[(mid, 3, s)] >= acc[(mid, 1, s)])
    range_wins = 0
    for s in range(seeds):
        r_vals = [acc[(r, 3, s)] for r in INSIGHT1_RANKS]
        h_vals = [acc[(mid, h, s)] for h in INSIGHT2_HEADS]
        range_wins += (max(r_vals) - min(r_vals)) > (max(h_vals) - min(h_vals))
    summary = (f"rank-sweep range exceeds head-sweep range in {range_wins}/{seeds} "
               f"seeds; H=3 >= H=1 at r={mid} in {h3_ge_h1}/{seeds} seeds")
    series = {f"H={h}": [(r, float(np.median([acc[(r, h, s)] for s in range(seeds)])))
                         for r in INSIGHT1_RANKS]
              for h in INSIGHT2_HEADS}
    chart = {"series": series, "title": "final accuracy vs rank per head count",
             "xlabel": "rank", "ylabel": "accuracy"}
    return {"rows": rows, "summary": summary, "seeds": seeds, "chart": chart,
            "h3_ge_h1": h3_ge_h1, "range_wins": range_wins,
            "majority": h3_ge_h1 * 2 > seeds and range_wins * 2 > seeds}


# --- insight 3: convergence speed of SVD init ---------------------------------

MIMIC_DIMS = [16, 64, 64, 8]
MIMIC_RANK = 8
MIMIC_EPOCHS = 80


def _insight3_job(args):
    variant, seed = args
    teacher = spectral_mlp(MIMIC_DIMS, seed=100 + seed)
    task = SyntheticTask(kind="mimic", seed=200 + seed, n=1000, dim=MIMIC_DIMS[0])
    data = gen_synthetic(task, teacher=teacher)
    probe = inherit_network(teacher, r=MIMIC_RANK, h=3, cap_rank=True)
    cfg0 = TrainConfig(base_lr=0.05, epochs=0, batch_size=32, seed=seed, loss="mse")
    threshold = 1.05 * evaluate(probe, data[1].x, data[1].y, cfg0)[0]
    net = inherit_network(teacher, r=MIMIC_RANK, h=3, variant=variant,
                          seed=300 + seed, cap_rank=True)
    cfg = TrainConfig(base_lr=0.05, epochs=MIMIC_EPOCHS, batch_size=32, seed=seed,
                      loss="mse", threshold=threshold)
    log = train(net, data, cfg)
    censored = log.epochs_to_threshold is None
    epochs = MIMIC_EPOCHS + 1 if censored else log.epochs_to_threshold
    return (variant, seed, epochs, censored, log.eval_loss[-1], threshold)


def run_insight3(seeds: int = 5) -> dict:
    """Epochs-to-threshold for SVD-initialized vs randomly initialized nets.

    The threshold is 1.05 times the SVD-initialized network's starting
    evaluation loss (the rank-r truncation level); runs that never reach it
    are censored at epochs + 1.
    """
    _check_seeds(seeds)
    jobs = [(v, s) for v in ("standard", "no-svd") for s in range(seeds)]
    rows = [{"variant": v, "seed": s, "epochs_to_threshold": e, "censored": c,
             "final_eval_loss": fl, "threshold": t}
            for v, s, e, c, fl, t in _map_jobs(_insight3_job, jobs)]
    med = {v: float(np.median([row["epochs_to_threshold"] for row in rows
                               if row["variant"] == v]))
           for v in ("standard", "no-svd")}
    summary = (f"median epochs to threshold: svd-init {med['standard']:g} vs "
               f"random-init {med['no-svd']:g} "
               f"({'faster with svd init' if med['standard'] < med['no-svd'] else 'no speedup'})")
    pts = {v: [(row["seed"], row["epochs_to_threshold"]) for row in rows if row["variant"] == v]
           for v in ("standard", "no-svd")}
    chart = {"series": pts, "title": "epochs to threshold per seed",
             "xlabel": "seed", "ylabel": "epochs"}
    return {"rows": rows, "summary": summary, "seeds": seeds, "chart": chart,
            "median_standard": med["standard"], "median_no_svd": med["no-svd"],
            "svd_faster": med["standard"] < med["no-svd"]}


INSIGHTS = {1: run_insight1, 2: run_insight2, 3: run_insight3}


def run_insight(which: int, seeds: int = 5, out_dir=None, plot: bool = False) -> dict:
    """Run insight ``which`` of :data:`INSIGHTS` over ``seeds`` seeds.

    With ``out_dir`` its rows go to ``insight{which}.csv``, headed by the
    rows' own keys, and with ``plot`` its chart to ``insight{which}.svg``.
    """
    if which not in INSIGHTS:
        raise RangeError(f"unknown insight {which}; expected one of {tuple(INSIGHTS)}")
    result = INSIGHTS[which](seeds)
    if out_dir is not None:
        rows = result["rows"]
        write_csv(os.path.join(out_dir, f"insight{which}.csv"), list(rows[0]),
                  [list(row.values()) for row in rows])
        if plot:
            write_svg_lines(os.path.join(out_dir, f"insight{which}.svg"), **result["chart"])
    return result


# --- plain-text report writers -------------------------------------------------

def write_svg_lines(path, series: dict[str, list[tuple]], title: str = "",
                    xlabel: str = "", ylabel: str = "") -> None:
    """Minimal SVG polyline chart; pure text, no plotting dependency."""
    w, h, pad = 640, 400, 56
    xs = [p[0] for pts in series.values() for p in pts]
    ys = [p[1] for pts in series.values() for p in pts]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x1 = x0 + 1
    if y1 == y0:
        y1 = y0 + 1

    def sx(v):
        return pad + (v - x0) / (x1 - x0) * (w - 2 * pad)

    def sy(v):
        return h - pad - (v - y0) / (y1 - y0) * (h - 2 * pad)

    colors = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b")
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}">',
             f'<rect width="{w}" height="{h}" fill="white"/>',
             f'<text x="{w/2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
             f'<text x="{w/2}" y="{h-8}" text-anchor="middle" font-size="12">{xlabel}</text>',
             f'<text x="14" y="{h/2}" text-anchor="middle" font-size="12" '
             f'transform="rotate(-90 14 {h/2})">{ylabel}</text>',
             f'<line x1="{pad}" y1="{h-pad}" x2="{w-pad}" y2="{h-pad}" stroke="black"/>',
             f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{h-pad}" stroke="black"/>']
    for i, (name, pts) in enumerate(series.items()):
        color = colors[i % len(colors)]
        coords = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in sorted(pts))
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" '
                     f'stroke-width="2"/>')
        parts.append(f'<text x="{w-pad+4}" y="{pad + 16*i}" font-size="11" '
                     f'fill="{color}">{name}</text>')
    parts.append("</svg>")
    atomic_write(path, "\n".join(parts).encode("utf-8"))
