"""Named self-check suites behind the ``verify`` command.

Each suite runs a list of fast property checks and returns structured
results; the CLI renders a pass/fail table and exits nonzero if anything
failed. Checks use their own from-scratch oracles where the property has
one (random-factorization dominance, finite differences, explicit
assemblies) rather than re-deriving answers through the code under test.
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from . import rng as _rng
from .errors import CorruptionError, FormatError, RangeError
from .experiments import spectral_mlp
from .inherit import InherNetLayer, factor_matrix, inherit_conv, inherit_dense, inherit_layer
from .io import SyntheticTask, gen_synthetic, load_checkpoint, save_checkpoint
from .linalg import frobenius_norm, log_softmax, softmax, truncated_svd, condition_number
from .nn import Conv2DLayer, DenseLayer, Network, finite_difference_grad, make_mlp, mse_loss
from .theory import (compression_ratio_paper, eckart_young_error, preservation_bound,
                     rank_for_energy, LayerInfluence)
from .train import TrainConfig, kd_loss, learning_rate, train

@dataclass
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str


def _fd_relative_dev(net: Network, loss_fn, x, y) -> float:
    out = net.forward(x)
    _, grad = loss_fn(out, y)
    net.zero_grads()
    net.backward(grad)
    fd = finite_difference_grad(net, loss_fn, x, y)
    worst = 0.0
    for key, g in net.grad_items().items():
        mask = np.abs(g) > 1e-6
        if mask.any():
            worst = max(worst, float((np.abs(g - fd[key])[mask]
                                      / np.abs(g)[mask]).max()))
    return worst


def gradient_decomposition_check(layer: InherNetLayer, x: np.ndarray,
                                 y: np.ndarray, loss_fn) -> float:
    """Max absolute deviation between an ``inherit_dense`` layer's backward and
    the two-term assembly.

    The total gradient over the head and gate parameter blocks must equal
    the per-head gate-weighted gradients plus the gate-sensitivity terms,
    assembled here sample by sample from scratch. Head-block terms weight
    the unweighted pathwise gradient by the per-sample gate value; the
    gate-block term sums, per head, the loss sensitivity to that head's
    gate weight against the explicit softmax Jacobian. Per-sample terms
    mean-reduce through the loss gradient's own batch normalization.
    """
    out = layer.forward(x)
    _, gy = loss_fn(out, y)
    layer.zero_grads()
    layer.backward(gy)
    lhs = {k: layer.grads[k].copy() for k in layer.params}

    # Straight-line recomputation of the layer's intermediates.
    z = x @ layer.params["w_down"]
    b = x.shape[0]
    heads = [layer.params[f"head_{h}"] for h in range(layer.n_heads)]
    f_h = [z @ w for w in heads]
    if layer.has_head_bias:
        f_h = [f + layer.params[f"head_bias_{h}"] for h, f in enumerate(f_h)]
    g = layer.gate_values(x, z)

    dev = 0.0
    for h in range(layer.n_heads):
        rhs_w = np.zeros_like(heads[h])
        rhs_b = np.zeros(layer.out_dim)
        for i in range(b):
            rhs_w += g[i, h] * np.outer(z[i], gy[i])
            rhs_b += g[i, h] * gy[i]
        dev = max(dev, float(np.max(np.abs(lhs[f"head_{h}"] - rhs_w))))
        if layer.has_head_bias:
            dev = max(dev, float(np.max(np.abs(lhs[f"head_bias_{h}"] - rhs_b))))
    if not layer.gate_frozen:
        gate_in = z if layer.gate_input == "code" else x
        rhs_gw = np.zeros_like(layer.params["gate_weight"])
        rhs_gb = np.zeros_like(layer.params["gate_bias"])
        for h in range(layer.n_heads):
            onehot = np.zeros(layer.n_heads)
            onehot[h] = 1.0
            for i in range(b):
                delta = float(gy[i] @ f_h[h][i])
                jac = g[i, h] * (onehot - g[i])
                rhs_gw += delta * np.outer(gate_in[i], jac)
                rhs_gb += delta * jac
        dev = max(dev, float(np.max(np.abs(lhs["gate_weight"] - rhs_gw))))
        dev = max(dev, float(np.max(np.abs(lhs["gate_bias"] - rhs_gb))))
    return dev


def suite_svd() -> list[CheckResult]:
    out = []
    gen = _rng.philox(11, 0)

    worst = 0.0
    for _ in range(10):
        m, n = int(gen.integers(3, 41)), int(gen.integers(3, 31))
        w = gen.standard_normal((m, n))
        for r in range(1, min(m, n, 6)):
            f = truncated_svd(w, r)
            err = frobenius_norm(w - f.reconstruct())
            tail = math.sqrt(float(np.sum(f.full_spectrum[r:] ** 2)))
            worst = max(worst, abs(err - tail) / (1.0 + tail))
    out.append(CheckResult("svd", "truncation error equals tail energy",
                           worst < 1e-8, f"max relative deviation {worst:.2e}"))

    beaten = True
    for _ in range(5):
        w = gen.standard_normal((20, 14))
        for r in (1, 3):
            best = frobenius_norm(w - truncated_svd(w, r).reconstruct())
            for _ in range(100):
                a = gen.standard_normal((20, r))
                b = gen.standard_normal((r, 14))
                if frobenius_norm(w - a @ b) < best:
                    beaten = False
    out.append(CheckResult("svd", "beats random rank-r factorizations", beaten,
                           "optimal in all sampled comparisons" if beaten
                           else "a random factorization won"))

    worst = 0.0
    for m, n in ((256, 256), (64, 96), (128, 32)):
        w = gen.standard_normal((m, n))
        f = truncated_svd(w, min(m, n))
        worst = max(worst,
                    float(np.abs(f.u.T @ f.u - np.eye(f.rank)).max()),
                    float(np.abs(f.v.T @ f.v - np.eye(f.rank)).max()))
    out.append(CheckResult("svd", "orthonormal factors up to 256x256",
                           worst < 1e-8, f"max deviation from identity {worst:.2e}"))

    worst = 0.0
    for _ in range(5):
        w = gen.standard_normal((17, 23))
        f = truncated_svd(w, 5)
        energy = float(np.sum(f.full_spectrum ** 2))
        worst = max(worst, abs(energy - frobenius_norm(w) ** 2) / energy)
    out.append(CheckResult("svd", "spectrum energy matches squared norm",
                           worst < 1e-8, f"max relative deviation {worst:.2e}"))

    ok = True
    worst = 0.0
    for offset in (0.0, -1e3, 1e6):
        # large-magnitude logits with a representable spread: outputs must
        # stay strictly positive and sum to 1
        v = offset + gen.standard_normal((40, 7)) * 50.0
        s = softmax(v)
        ok &= bool(np.all(s > 0) and np.all(s <= 1))
        worst = max(worst, float(np.abs(s.sum(axis=1) - 1.0).max()))
    # spreads beyond the exp range underflow to exact zeros by necessity;
    # the simplex properties that remain are [0, 1] entries and unit sums
    wide = softmax(np.array([0.0, -2e6, 1.0]))
    ok &= bool(np.all(wide >= 0) and np.all(wide <= 1)
               and abs(wide.sum() - 1.0) < 1e-12)
    out.append(CheckResult("svd", "softmax stays on the simplex",
                           ok and worst < 1e-12,
                           f"max row-sum deviation {worst:.2e}"))

    w = gen.standard_normal((12, 9))
    f1, f2 = truncated_svd(w, 4), truncated_svd(w.copy(), 4)
    same = np.array_equal(f1.u, f2.u) and np.array_equal(f1.v, f2.v)
    out.append(CheckResult("svd", "sign convention is reproducible", same,
                           "bit-identical factors across runs" if same
                           else "factors differ between runs"))
    return out


def suite_gradients() -> list[CheckResult]:
    out = []
    gen = _rng.philox(12, 0)

    net = make_mlp([6, 10, 4], seed=3)
    x = gen.standard_normal((5, 6))
    y = gen.standard_normal((5, 4))
    dev = _fd_relative_dev(net, mse_loss, x, y)
    out.append(CheckResult("gradients", "dense/relu network vs finite differences",
                           dev < 1e-4, f"max relative deviation {dev:.2e}"))

    conv = Conv2DLayer(gen.standard_normal((4, 3, 3, 3)), stride=2, padding=1,
                       bias=gen.standard_normal(4))
    xc = gen.standard_normal((2, 3, 7, 7))
    yc = gen.standard_normal(conv.forward(xc).shape)
    dev = _fd_relative_dev(Network([conv]), mse_loss, xc, yc)
    out.append(CheckResult("gradients", "convolution vs finite differences",
                           dev < 1e-4, f"max relative deviation {dev:.2e}"))

    worst = 0.0
    for gate_input in ("code", "input"):
        for mode in ("convex", "paper"):
            w = gen.standard_normal((8, 5))
            layer = inherit_dense(w, 3, 2, mode=mode, gate_input=gate_input,
                                  bias=gen.standard_normal(5))
            layer.params["gate_weight"] += 0.4 * gen.standard_normal(
                layer.params["gate_weight"].shape)
            worst = max(worst, _fd_relative_dev(
                Network([layer]), mse_loss,
                gen.standard_normal((6, 8)), gen.standard_normal((6, 5))))
    out.append(CheckResult("gradients", "inherited dense vs finite differences",
                           worst < 1e-4, f"max relative deviation {worst:.2e}"))

    clayer = inherit_conv(gen.standard_normal((6, 3, 3, 3)), 4, 2,
                          bias=gen.standard_normal(6))
    clayer.params["gate_weight"] += 0.4 * gen.standard_normal((4, 2))
    xc = gen.standard_normal((2, 3, 6, 6))
    yc = gen.standard_normal(clayer.forward(xc).shape)
    dev = _fd_relative_dev(Network([clayer]), mse_loss, xc, yc)
    out.append(CheckResult("gradients", "inherited conv vs finite differences",
                           dev < 1e-4, f"max relative deviation {dev:.2e}"))

    w = gen.standard_normal((8, 5))
    inv = inherit_layer(DenseLayer(w, gen.standard_normal(5)), 3, 2, "inverse")
    inv.params["gate_weight"] += 0.4 * gen.standard_normal((8, 2))
    sym = inherit_layer(DenseLayer(w, gen.standard_normal(5)), 3, 2, "symmetric")
    sym.params["gate_weight"] += 0.4 * gen.standard_normal((8, 2))
    worst = max(_fd_relative_dev(Network([inv]), mse_loss,
                                 gen.standard_normal((6, 8)),
                                 gen.standard_normal((6, 5))),
                _fd_relative_dev(Network([sym]), mse_loss,
                                 gen.standard_normal((6, 8)),
                                 gen.standard_normal((6, 5))))
    out.append(CheckResult("gradients", "inverse/symmetric vs finite differences",
                           worst < 1e-4, f"max relative deviation {worst:.2e}"))

    worst = 0.0
    for seed in range(20):
        g = _rng.philox(600 + seed, 0)
        m, n = int(g.integers(3, 12)), int(g.integers(2, 9))
        r = int(g.integers(1, min(m, n) + 1))
        h = int(g.integers(1, 5))
        layer = inherit_dense(g.standard_normal((m, n)), r, h,
                              mode="convex" if seed % 2 else "paper",
                              gate_input="code" if seed % 3 else "input",
                              bias=g.standard_normal(n) if seed % 4 == 0 else None)
        if not layer.gate_frozen:
            layer.params["gate_weight"] += 0.5 * g.standard_normal(
                layer.params["gate_weight"].shape)
        x = g.standard_normal((5, m))
        y = g.standard_normal((5, n))
        worst = max(worst, gradient_decomposition_check(layer, x, y, mse_loss))
    out.append(CheckResult("gradients", "two-term gradient decomposition",
                           worst < 1e-8, f"max assembly deviation {worst:.2e}"))

    cfg = TrainConfig(base_lr=0.1, epochs=1, batch_size=4, seed=0, loss="ce+kd",
                      lambda_ce=1.0, lambda_kd=9.0, temperature=2.0)
    sl = gen.standard_normal((6, 4))
    tlp = log_softmax(gen.standard_normal((6, 4)) / cfg.temperature)
    labels = gen.integers(0, 4, size=6)
    _, grad = kd_loss(sl, tlp, labels, cfg)
    fd = np.zeros_like(sl)
    step = 1e-5
    for idx in np.ndindex(sl.shape):
        sp = sl.copy(); sp[idx] += step
        sm = sl.copy(); sm[idx] -= step
        fd[idx] = (kd_loss(sp, tlp, labels, cfg)[0]
                   - kd_loss(sm, tlp, labels, cfg)[0]) / (2 * step)
    mask = np.abs(grad) > 1e-6
    dev = float((np.abs(grad - fd)[mask] / np.abs(grad)[mask]).max())
    out.append(CheckResult("gradients", "distillation loss vs finite differences",
                           dev < 1e-4, f"max relative deviation {dev:.2e}"))
    return out


def suite_theory() -> list[CheckResult]:
    out = []
    gen = _rng.philox(13, 0)

    exact = (compression_ratio_paper(100, 100, 5, 3) == 10000 / 3018
             and compression_ratio_paper(4, 4, 4, 1) == 16 / 37)
    layer = inherit_dense(gen.standard_normal((100, 100)), 5, 3)
    count_ok = layer.param_count() == 2018
    out.append(CheckResult("theory", "compression arithmetic is exact",
                           exact and count_ok,
                           f"ratio(100,100,5,3)={compression_ratio_paper(100, 100, 5, 3):.6f}, "
                           f"count={layer.param_count()}"))

    # closed-form denominator counts a down per head; the built layer shares one
    m, n, r, h = 30, 20, 4, 3
    formula_count = h * r * (m + n) + h * (r + 1)
    shared = inherit_dense(gen.standard_normal((m, n)), r, h).param_count()
    out.append(CheckResult("theory", "per-head vs shared-down accounting differ for H>1",
                           shared < formula_count,
                           f"shared {shared} < formula {formula_count}"))

    ok = True
    worst = 0.0
    for _ in range(100):
        k = int(gen.integers(2, 30))
        s = np.sort(np.abs(gen.standard_normal(k)))[::-1] + 1e-6
        eps = float(gen.uniform(0.01, 0.9))
        r_star = rank_for_energy(s, eps)
        err = eckart_young_error(s, r_star)
        total = float(np.sum(s * s))
        tail = total - float(np.sum(s[:r_star] ** 2))
        ok &= err * err <= eps * total + 1e-12 * total
        worst = max(worst, abs(err * err - tail) / total)
    out.append(CheckResult("theory", "energy-rank selection bounds truncation error",
                           ok and worst < 1e-12,
                           f"max slack identity deviation {worst:.2e}"))

    s1 = np.array([3.0, 2.0, 1.0])
    full = preservation_bound(LayerInfluence.uniform(2), [s1, s1], [3, 3])
    mono = True
    prev = -np.inf
    for r in (1, 2, 3):
        b = preservation_bound(LayerInfluence.uniform(1), [s1], [r])
        mono &= b >= prev
        prev = b
    out.append(CheckResult("theory", "preservation bound is 1 at full rank and monotone",
                           full == 1.0 and mono, f"full-rank bound {full}"))

    teacher = spectral_mlp([24, 64, 64, 8], seed=77, decay=0.55)
    student = inherit_by_energy(teacher, epsilon=1e-6)
    x = _rng.philox(78, 0).standard_normal((200, 24))
    mse = float(np.mean((student.forward(x) - teacher.forward(x)) ** 2))
    compressed = student.param_count() < teacher.param_count()
    out.append(CheckResult("theory", "energy-chosen ranks reproduce the teacher",
                           mse <= 1e-4 and compressed,
                           f"mse {mse:.2e}, params {student.param_count()} vs "
                           f"{teacher.param_count()}"))

    cfg = TrainConfig(base_lr=0.4, epochs=1, batch_size=4, seed=0,
                      schedule="inverse_sqrt", loss="mse")
    ulp_ok = all(abs(learning_rate(cfg, t) * math.sqrt(t) - 0.4)
                 <= np.spacing(0.4) for t in range(1, 2000))
    halves = learning_rate(cfg, 4) == 0.2
    out.append(CheckResult("theory", "inverse-sqrt schedule identity",
                           ulp_ok and halves,
                           "eta_t * sqrt(t) constant to 1 ulp" if ulp_ok
                           else "schedule drifted"))

    k_id = condition_number(np.eye(5))
    k_diag = condition_number(np.diag([10.0, 1.0]))
    out.append(CheckResult("theory", "condition numbers on known spectra",
                           k_id == 1.0 and k_diag == 10.0,
                           f"identity {k_id}, diag(10,1) {k_diag}"))

    task = SyntheticTask(kind="piecewise", seed=21, n=400, dim=6, classes=2,
                         out_dim=3, separation=2.0)
    data = gen_synthetic(task)
    net = make_mlp([6, 16, 3], seed=5)
    cfg = TrainConfig(base_lr=0.05, epochs=40, batch_size=32, seed=5, loss="mse")
    log = train(net, data, cfg)
    msq = [m * m for m in log.grad_norm_mean]
    early = float(np.mean(msq[:10]))
    late = float(np.mean(msq[-10:]))
    out.append(CheckResult("theory", "mean squared gradient norm decays over training",
                           late <= early,
                           f"first-10 mean {early:.3e} vs last-10 mean {late:.3e}"))

    ok, detail = _roundtrip_all_variants()
    out.append(CheckResult("theory", "checkpoints round-trip bit-exactly", ok, detail))
    return out


def inherit_by_energy(teacher: Network, epsilon: float) -> Network:
    """Inherit every dense and conv layer at H=1 and the least rank keeping 1 - epsilon energy."""
    def rank(layer) -> int:      # a ReLU's is never read: inherit_layer gives it a new ReLU
        w = factor_matrix(layer)
        return 0 if w is None else rank_for_energy(np.linalg.svd(w, compute_uv=False), epsilon)

    return Network([inherit_layer(layer, rank(layer), 1) for layer in teacher.layers])


def _roundtrip_all_variants() -> tuple[bool, str]:
    gen = _rng.philox(14, 0)
    w = gen.standard_normal((9, 6))
    bias = gen.standard_normal(6)
    nets = {
        "standard": Network([inherit_dense(w, 3, 2, bias=bias)]),
        "paper": Network([inherit_dense(w, 3, 2, mode="paper")]),
        "no-gate": Network([inherit_layer(DenseLayer(w, bias), 3, 2, "no-gate")]),
        "no-svd": Network([inherit_layer(DenseLayer(w), 3, 2, "no-svd", seed=4)]),
        "symmetric": Network([inherit_layer(DenseLayer(w, bias), 3, 2, "symmetric")]),
        "inverse": Network([inherit_layer(DenseLayer(w, bias), 3, 2, "inverse")]),
        "conv": Network([inherit_conv(gen.standard_normal((5, 2, 3, 3)), 3, 2,
                                      bias=gen.standard_normal(5))]),
        "mlp": make_mlp([5, 8, 3], seed=2),
    }
    with tempfile.TemporaryDirectory() as d:
        for name, net in nets.items():
            p1 = os.path.join(d, f"{name}.ckpt")
            save_checkpoint(net, p1)
            loaded, _ = load_checkpoint(p1)
            orig = net.param_items()
            back = loaded.param_items()
            if set(orig) != set(back) or any(
                    not np.array_equal(orig[k], back[k]) for k in orig):
                return False, f"parameters changed for variant {name!r}"
            p2 = os.path.join(d, f"{name}-2.ckpt")
            save_checkpoint(loaded, p2)
            if open(p1, "rb").read() != open(p2, "rb").read():
                return False, f"bytes changed for variant {name!r}"
    return True, "all layer variants round-trip bit-exactly"


def check_checkpoint_file(path) -> CheckResult:
    """Validate an existing checkpoint file: loadable and re-serializable."""
    try:
        net, extra = load_checkpoint(path)
        with tempfile.TemporaryDirectory() as d:
            p2 = os.path.join(d, "roundtrip.ckpt")
            save_checkpoint(net, p2, extra=extra)
            load_checkpoint(p2)
    except (FormatError, CorruptionError, OSError) as exc:
        return CheckResult("checkpoint", f"file {path} loads cleanly", False, str(exc))
    return CheckResult("checkpoint", f"file {path} loads cleanly", True,
                       f"{len(net.layers)} layers, {net.param_count()} parameters")


SUITES = {"svd": suite_svd, "gradients": suite_gradients, "theory": suite_theory}


def run_suites(which: str, checkpoint=None) -> list[CheckResult]:
    if which not in SUITES and which != "all":
        raise RangeError(f"unknown suite {which!r}; expected one of {(*SUITES, 'all')}")
    results = [result for name, suite in SUITES.items() if which in (name, "all")
               for result in suite()]
    if checkpoint is not None:
        results.append(check_checkpoint_file(checkpoint))
    return results
