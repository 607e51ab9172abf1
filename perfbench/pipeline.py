"""One benchmark run: repeated closed-loop passes, checks and metrics.

A pass is the whole job a user runs, from one process with one caller:

1. setup: build the teacher, generate the data, ``inherit_network``, then
   ``perturb_heads``;
2. train: one ``train()`` call of fixed length (the write path);
3. infer: ``Network.forward`` on the student, batch by batch over the eval
   split (the read path);
4. checkpoint: ``save_checkpoint`` the student, then ``load_checkpoint`` it.

A run repeats passes until its time is up and reports medians over them.
Every pass rebuilds everything from the seed, so every pass must reach the
same eval loss and parameter digest. Train calls, infer batches and
correctness checks are the run's operations; any that fails makes the
run incorrect.

In a traced run, passes alternate untraced and traced. The traced passes
give the per-layer metrics; comparing the two kinds gives the tracing
overhead, and both kinds must train to bit-identical parameters.
"""

from __future__ import annotations

import ctypes
import gc
import glob
import hashlib
import importlib
import os
import platform
import resource
import shutil
import tempfile
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import numpy as np

from inhernet import experiments, inherit, io, linalg, nn, rng
from inhernet.linalg import truncated_svd

import tracer as tracing
from workloads import STREAM_BENCH, WORKLOADS, Job, Workload

# ``inhernet.train`` the attribute is the train() function; this is the module.
trainmod = importlib.import_module("inhernet.train")

MIN_PASSES = 3              # per kind of pass (untraced, traced) at full size
MIN_INFER_BATCHES = 1000    # so p99 has at least ten samples beyond it
HARD_LIMIT_S = 150.0        # start no pass after this, whatever --seconds says
FIDELITY_RTOL = 1e-9

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "train_samples_per_s": "samples/s",
    "infer_ms_p50": "ms",
    "infer_ms_p99": "ms",
    "eval_loss": "loss",
    "peak_rss_mb": "MB",
}

# Per-layer metrics read from spans: name -> (unit, phase, span names, statistic).
# ``p50_us`` is the median inclusive duration of one call, ``total_ms`` the
# summed duration per pass, ``self_ms`` the summed self time per pass, and
# ``calls`` the number of calls per pass. Only spans inside the named phase
# count, so the teacher's own training during setup never reaches the
# train-phase figures.
SPAN_METRICS = {
    "inherit.dense_fwd_us": ("us", "train", ("inherit.dense_fwd",), "p50_us"),
    "inherit.dense_bwd_us": ("us", "train", ("inherit.dense_bwd",), "p50_us"),
    "inherit.dense_gflop_s": ("GFLOP/s", "train",
                              ("inherit.dense_fwd", "inherit.dense_bwd"), "gflop_s"),
    "inherit.conv_fwd_us": ("us", "train", ("inherit.conv_fwd",), "p50_us"),
    "inherit.conv_bwd_us": ("us", "train", ("inherit.conv_bwd",), "p50_us"),
    "nn.im2col_us": ("us", "train", ("nn.im2col",), "p50_us"),
    "nn.col2im_us": ("us", "train", ("nn.col2im",), "p50_us"),
    "train.sgd_step_us": ("us", "train", ("train.sgd_step",), "p50_us"),
    "train.grad_norm_us": ("us", "train", ("train.grad_norm",), "p50_us"),
    "nn.zero_grads_us": ("us", "train", ("nn.zero_grads",), "p50_us"),
    "train.self_ms": ("ms", "train", ("train.train",), "self_ms"),
    "train.teacher_forward_us": ("us", "train", ("train.teacher_forward",), "p50_us"),
    "train.teacher_forward_calls": ("count", "train", ("train.teacher_forward",), "calls"),
    "train.kd_loss_us": ("us", "train", ("train.kd_loss",), "p50_us"),
    "nn.dense_fwd_us": ("us", "train", ("nn.dense_fwd",), "p50_us"),
    "nn.dense_bwd_us": ("us", "train", ("nn.dense_bwd",), "p50_us"),
    "nn.relu_us": ("us", "train", ("nn.relu",), "p50_us"),
    "nn.loss_us": ("us", "train", ("nn.loss",), "p50_us"),
    "train.evaluate_ms": ("ms", "train", ("train.evaluate",), "total_ms"),
    "linalg.softmax_us": ("us", "train", ("linalg.softmax",), "p50_us"),
    "linalg.softmax_calls": ("count", "train", ("linalg.softmax",), "calls"),
    "train.steps": ("count", "train", ("train.sgd_step",), "calls"),
    "linalg.truncated_svd_ms": ("ms", "setup", ("linalg.truncated_svd",), "total_ms"),
    "inherit.build_ms": ("ms", "setup", ("inherit.build",), "total_ms"),
    "io.gen_synthetic_ms": ("ms", "setup", ("io.gen_synthetic",), "total_ms"),
    "experiments.teacher_build_ms": ("ms", "setup", ("experiments.teacher_build",),
                                     "total_ms"),
    "io.save_checkpoint_ms": ("ms", "checkpoint", ("io.save_checkpoint",), "total_ms"),
    "io.load_checkpoint_ms": ("ms", "checkpoint", ("io.load_checkpoint",), "total_ms"),
}
PER_LAYER = {name: spec[0] for name, spec in SPAN_METRICS.items()}
PER_LAYER.update({
    "nn.teacher_forward_ms_p50": "ms",
    "io.checkpoint_bytes": "bytes",
    "trace_overhead_frac": "frac",
})


# --- instrumentation ------------------------------------------------------------

def _dense_gate_dim(layer) -> int:
    if layer.gate_frozen:
        return 0
    return layer.rank if layer.gate_input == "code" else layer.in_dim


def dense_fwd_flops(layer, x) -> float:
    """GEMM and mixing FLOPs of one InherNetLayer forward, from shapes."""
    b, m, r, n, h = x.shape[0], layer.in_dim, layer.rank, layer.out_dim, layer.n_heads
    return 2.0 * b * (m * r + h * r * n + h * n + _dense_gate_dim(layer) * h)


def dense_bwd_flops(layer, grad_out) -> float:
    """GEMM and mixing FLOPs of one InherNetLayer backward, from shapes."""
    b, m, r, n, h = (grad_out.shape[0], layer.in_dim, layer.rank, layer.out_dim,
                     layer.n_heads)
    gate = 2.0 * b * h * n + 4.0 * b * _dense_gate_dim(layer) * h if not layer.gate_frozen else 0.0
    return 4.0 * b * (h * r * n + m * r) + gate


def instrument(tr: tracing.Tracer) -> None:
    """Patch the package's public callables that the per-layer metrics read."""
    for module, attr, name in (
            (linalg, "softmax", "linalg.softmax"),
            (linalg, "truncated_svd", "linalg.truncated_svd"),
            (nn, "im2col", "nn.im2col"),
            (nn, "col2im", "nn.col2im"),
            (nn, "mse_loss", "nn.loss"),
            (nn, "cross_entropy", "nn.loss"),
            (trainmod, "train", "train.train"),
            (trainmod, "sgd_step", "train.sgd_step"),
            (trainmod, "grad_norm", "train.grad_norm"),
            (trainmod, "kd_loss", "train.kd_loss"),
            (trainmod, "evaluate", "train.evaluate"),
            (inherit, "inherit_network", "inherit.build"),
            (io, "gen_synthetic", "io.gen_synthetic"),
            (io, "save_checkpoint", "io.save_checkpoint"),
            (io, "load_checkpoint", "io.load_checkpoint")):
        tr.patch_function(module, attr, name)
    for cls, attr, name, work in (
            (inherit.InherNetLayer, "forward", "inherit.dense_fwd", dense_fwd_flops),
            (inherit.InherNetLayer, "backward", "inherit.dense_bwd", dense_bwd_flops),
            (inherit.InherConv2DLayer, "forward", "inherit.conv_fwd", None),
            (inherit.InherConv2DLayer, "backward", "inherit.conv_bwd", None),
            (nn.DenseLayer, "forward", "nn.dense_fwd", None),
            (nn.DenseLayer, "backward", "nn.dense_bwd", None),
            (nn.ReluLayer, "forward", "nn.relu", None),
            (nn.ReluLayer, "backward", "nn.relu", None),
            (nn.Network, "zero_grads", "nn.zero_grads", None)):
        tr.patch(cls, attr, name, work)


# --- one pass -------------------------------------------------------------------

class Ledger:
    """Counts operations; keeps a message for each that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


@dataclass
class PassResult:
    traced: bool
    setup_s: float
    train_s: float
    samples: int
    infer_ms: np.ndarray
    checkpoint_s: float
    checkpoint_bytes: int
    eval_loss0: float
    eval_loss: float
    digest: str
    teacher_ms: np.ndarray | None

    @property
    def wall_s(self) -> float:
        return self.setup_s + self.train_s + float(self.infer_ms.sum()) / 1e3 + self.checkpoint_s


def param_digest(net: nn.Network) -> str:
    """SHA-256 over every parameter's name, shape and little-endian bytes."""
    h = hashlib.sha256()
    for key, p in net.param_items().items():
        h.update(f"{key}{p.shape}".encode())
        h.update(np.ascontiguousarray(p, dtype="<f8").tobytes())
    return h.hexdigest()


def check_fidelity(job: Job, ledger: Ledger) -> None:
    """Each unjittered inherited layer must equal its rank-r truncated teacher."""
    gen = rng.philox(0, STREAM_BENCH, 3)
    for i, (t_layer, s_layer) in enumerate(zip(job.teacher.layers, job.student.layers)):
        if isinstance(t_layer, nn.DenseLayer):
            w_r = truncated_svd(t_layer.weight, s_layer.rank).reconstruct()
            x = gen.standard_normal((8, w_r.shape[0]))
            want = x @ w_r + (t_layer.bias if t_layer.bias is not None else 0.0)
        elif isinstance(t_layer, nn.Conv2DLayer):
            k = t_layer.kernel
            w_r = truncated_svd(k.reshape(k.shape[0], -1), s_layer.rank).reconstruct()
            x = gen.standard_normal((2, k.shape[1], 8, 8))
            want = nn.Conv2DLayer(w_r.reshape(k.shape), t_layer.stride, t_layer.padding,
                                  t_layer.params.get("bias")).forward(x)
        else:
            continue
        err = np.linalg.norm(s_layer.forward(x) - want)
        ledger.record(bool(err <= FIDELITY_RTOL * np.linalg.norm(want)),
                      f"layer {i}: inherited output differs from the rank-"
                      f"{s_layer.rank} teacher by {err:.3g}")


def _bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _forward_ms(net: nn.Network, batches: list[np.ndarray], n: int,
                ledger: Ledger | None = None) -> np.ndarray:
    """Time ``n`` forward calls cycling over ``batches``, in ms each.

    With a ledger, each output's finiteness is one checked operation.
    """
    ms = np.empty(n)
    for i in range(n):
        xb = batches[i % len(batches)]
        start = time.perf_counter_ns()
        out = net.forward(xb)
        ms[i] = (time.perf_counter_ns() - start) / 1e6
        if ledger is not None:
            ledger.record(bool(np.isfinite(out).all()), f"infer batch {i} is not finite")
    return ms


def run_pass(wl: Workload, seed: int, tiny: bool, ledger: Ledger, ckpt_path: str,
             tr: tracing.Tracer | None, reference: bool) -> PassResult:
    """Run the four phases once; ``reference`` also times the teacher's forward."""
    def span(name):
        return tr.span(name) if tr is not None else nullcontext()

    gc.collect()
    t0 = time.perf_counter()
    with span("phase.setup"):
        job = wl.setup(seed, tiny, span)
    t1 = time.perf_counter()
    check_fidelity(job, ledger)
    t2 = time.perf_counter()
    with span("phase.setup"):
        experiments.perturb_heads(job.student, seed)
    setup_s = (t1 - t0) + (time.perf_counter() - t2)

    train_ds, eval_ds = job.data
    cfg = job.config
    eval_loss0 = trainmod.evaluate(job.student, eval_ds.x, eval_ds.y, cfg)[0]
    if tr is not None and job.distill:
        tr.patch(job.teacher, "forward", "train.teacher_forward")
    gc.collect()
    t0 = time.perf_counter()
    with span("phase.train"):
        log = trainmod.train(job.student, job.data, cfg,
                             teacher=job.teacher if job.distill else None)
    train_s = time.perf_counter() - t0
    ledger.record(True, "train call")
    ledger.record(bool(np.all(np.isfinite(log.train_loss + log.eval_loss))),
                  "a training or eval loss is not finite")
    ledger.record(log.eval_loss[-1] < eval_loss0,
                  f"eval loss did not fall: {eval_loss0!r} -> {log.eval_loss[-1]!r}")

    b = cfg.batch_size
    batches = [eval_ds.x[lo:lo + b] for lo in range(0, eval_ds.x.shape[0] - b + 1, b)]
    gc.collect()
    with span("phase.infer"):
        infer_ms = _forward_ms(job.student, batches, job.infer_batches, ledger)
    teacher_ms = _forward_ms(job.teacher, batches, job.infer_batches) if reference else None

    t0 = time.perf_counter()
    with span("phase.checkpoint"):
        io.save_checkpoint(job.student, ckpt_path)
        loaded, _ = io.load_checkpoint(ckpt_path)
    checkpoint_s = time.perf_counter() - t0
    mine, theirs = job.student.param_items(), loaded.param_items()
    ledger.record(mine.keys() == theirs.keys()
                  and all(_bits_equal(mine[k], theirs[k]) for k in mine),
                  "checkpoint round trip changed a parameter")
    ledger.record(_bits_equal(job.student.forward(batches[0]), loaded.forward(batches[0])),
                  "reloaded student's forward differs from the in-memory student's")

    return PassResult(traced=tr is not None, setup_s=setup_s, train_s=train_s,
                      samples=cfg.epochs * train_ds.x.shape[0], infer_ms=infer_ms,
                      checkpoint_s=checkpoint_s,
                      checkpoint_bytes=os.path.getsize(ckpt_path),
                      eval_loss0=eval_loss0, eval_loss=log.eval_loss[-1],
                      digest=param_digest(job.student), teacher_ms=teacher_ms)


# --- metrics --------------------------------------------------------------------

def end_to_end_metrics(passes: list[PassResult]) -> dict[str, float]:
    untraced = [p for p in passes if not p.traced]
    latencies = np.concatenate([p.infer_ms for p in untraced])
    return {
        "setup_s": median(p.setup_s for p in untraced),
        "wall_s": median(p.wall_s for p in untraced),
        "train_samples_per_s": median(p.samples / p.train_s for p in untraced),
        "infer_ms_p50": float(np.percentile(latencies, 50)),
        "infer_ms_p99": float(np.percentile(latencies, 99)),
        "eval_loss": untraced[0].eval_loss,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def span_metrics(tr: tracing.Tracer) -> dict[str, float]:
    """The SPAN_METRICS figures of one traced pass."""
    groups = tr.by_phase()
    self_ns = tr.self_times()
    spans = tr.spans
    out = {}
    for metric, (_, phase, names, stat) in SPAN_METRICS.items():
        idx = [i for name in names for i in groups.get(phase, {}).get(name, [])]
        durations = [spans[i][2] - spans[i][1] for i in idx]
        if stat == "calls":
            out[metric] = float(len(idx))
        elif stat == "p50_us":
            out[metric] = median(durations) / 1e3 if idx else 0.0
        elif stat == "total_ms":
            out[metric] = sum(durations) / 1e6
        elif stat == "self_ms":
            out[metric] = sum(self_ns[i] for i in idx) / 1e6
        else:  # gflop_s: FLOP per ns is GFLOP per s
            out[metric] = sum(spans[i][4] for i in idx) / sum(durations) if idx else 0.0
    return out


def per_layer_metrics(passes: list[PassResult],
                      tracers: list[tracing.Tracer]) -> dict[str, float]:
    per_pass = [span_metrics(tr) for tr in tracers]
    out = {m: median(d[m] for d in per_pass) for m in SPAN_METRICS}
    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    out["nn.teacher_forward_ms_p50"] = float(np.percentile(
        np.concatenate([p.teacher_ms for p in untraced]), 50))
    out["io.checkpoint_bytes"] = float(traced[0].checkpoint_bytes)
    out["trace_overhead_frac"] = (median(p.train_s for p in traced)
                                  / median(p.train_s for p in untraced) - 1.0)
    return out


# --- provenance -----------------------------------------------------------------

def _openblas_threads() -> int | None:
    """Thread count OpenBLAS reports, read from the library numpy loaded."""
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def _git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "inhernet").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(root: Path, seed: int, seconds: float, tiny: bool) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads_reported": _openblas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(root),
        "seed": seed,
        "run_seconds": seconds,
        "scale": "tiny" if tiny else "full",
    }


# --- a run ----------------------------------------------------------------------

def _enough(passes: list[PassResult], trace: bool, tiny: bool) -> bool:
    need = 1 if tiny else MIN_PASSES
    untraced = [p for p in passes if not p.traced]
    if trace:
        return len(untraced) >= need and len(passes) - len(untraced) >= need
    if len(untraced) < max(need, 2):
        return False
    return tiny or sum(p.infer_ms.size for p in untraced) >= MIN_INFER_BATCHES


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool,
        root: Path) -> dict:
    """Run passes for ``seconds`` and return the full result record.

    The record's ``metrics`` are the end-to-end metrics, or with ``trace``
    the per-layer ones; a traced run also writes its spans to
    ``.bench_out/trace-<workload>.jsonl`` under ``root``.
    """
    wl = WORKLOADS[workload]
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=out_dir, prefix="run-")
    ledger = Ledger()
    passes: list[PassResult] = []
    tracers: list[tracing.Tracer] = []
    origin_ns = time.perf_counter_ns()
    start = time.perf_counter()
    try:
        while True:
            tr = tracing.Tracer() if trace and len(passes) % 2 == 1 else None
            try:
                with tr if tr is not None else nullcontext():
                    if tr is not None:
                        instrument(tr)
                    p = run_pass(wl, seed, tiny, ledger, os.path.join(tmp, "student.ckpt"),
                                 tr, reference=trace and tr is None)
            except Exception:  # a failed pass fails the run, with its traceback
                ledger.record(False, f"pass {len(passes)} raised:\n{traceback.format_exc()}")
                break
            if passes:
                ledger.record(p.digest == passes[0].digest and p.eval_loss == passes[0].eval_loss,
                              f"pass {len(passes)} (traced={p.traced}) did not repeat pass "
                              f"0's digest and eval loss")
            passes.append(p)
            if tr is not None:
                tracers.append(tr)
            elapsed = time.perf_counter() - start
            if (elapsed >= seconds and _enough(passes, trace, tiny)) or elapsed >= HARD_LIMIT_S:
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    metrics, units = {}, PER_LAYER if trace else END_TO_END
    if _enough(passes, trace, tiny):
        metrics = per_layer_metrics(passes, tracers) if trace else end_to_end_metrics(passes)
    if trace and tracers:
        with open(out_dir / f"trace-{workload}.jsonl", "w") as f:
            for i, tr in enumerate(tracers):
                tr.write_jsonl(f, origin_ns, {"traced_pass": i})
    failed = len(ledger.failures)
    first = passes[0] if passes else None
    return {
        "workload": workload,
        "why": wl.why,
        "trace": trace,
        "provenance": provenance(root, seed, seconds, tiny),
        "correct": failed == 0 and bool(metrics),
        "attempted": max(ledger.attempted, 1),
        "failed": failed,
        "failed_frac": failed / max(ledger.attempted, 1),
        "failures": ledger.failures,
        "passes": len(passes),
        "traced_passes": len(tracers),
        "infer_batches": int(sum(p.infer_ms.size for p in passes if not p.traced)),
        "per_pass": [{"traced": p.traced, "setup_s": p.setup_s, "train_s": p.train_s,
                      "infer_ms_p50": float(np.median(p.infer_ms)),
                      "checkpoint_s": p.checkpoint_s} for p in passes],
        "eval_loss0": first.eval_loss0 if first else None,
        "eval_loss": first.eval_loss if first else None,
        "digest": first.digest if first else None,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
