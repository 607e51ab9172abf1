"""Acceptance gate: every headline property at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one pass/fail line
per criterion. Trend criteria (6-8) run the full seeded experiments and
are the slow part of the suite; each asserts its own wall-clock budget.
"""

import time

import numpy as np
import pytest

from inhernet.experiments import (run_insight1, run_insight2, run_insight3,
                                  spectral_mlp)
from inhernet.inherit import inherit_conv, inherit_dense, inherit_layer
from inhernet.io import SyntheticTask, gen_synthetic, load_checkpoint, \
    save_checkpoint
from inhernet.linalg import frobenius_norm, truncated_svd
from inhernet.nn import DenseLayer, Network, finite_difference_grad, make_mlp, mse_loss
from inhernet.rng import philox
from inhernet.theory import compression_ratio_paper, eckart_young_error, rank_for_energy
from inhernet.train import TrainConfig, train
from inhernet.verify import gradient_decomposition_check, inherit_by_energy
from oracles import conv_loops


def report(criterion, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {criterion}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def test_criterion_1_eckart_young_optimality():
    start = time.perf_counter()
    gen = philox(1001, 0)
    worst_rel = 0.0
    dominated = True
    for _ in range(50):
        m = int(gen.integers(8, 65))
        n = int(gen.integers(8, 97))
        w = gen.standard_normal((m, n))
        for r in range(1, 9):
            if r > min(m, n):
                continue
            f = truncated_svd(w, r)
            err = frobenius_norm(w - f.reconstruct())
            tail = float(np.sqrt(np.sum(f.full_spectrum[r:] ** 2)))
            # relative to the matrix norm so the full-rank case (tail 0)
            # stays well-defined
            worst_rel = max(worst_rel, abs(err - tail) / frobenius_norm(w))
            for _ in range(100):
                a = gen.standard_normal((m, r))
                b = gen.standard_normal((r, n))
                if frobenius_norm(w - a @ b) < err:
                    dominated = False
    elapsed = time.perf_counter() - start
    report(1, worst_rel < 1e-8 and dominated and elapsed < 30.0,
           f"max tail-identity deviation {worst_rel:.2e}, "
           f"dominated all random factorizations: {dominated}, "
           f"runtime {elapsed:.1f}s (< 30s)")


def test_criterion_2_initialization_fidelity():
    start = time.perf_counter()
    gen = philox(1002, 0)

    # dense, general teacher: outputs match the rank-r truncation
    w = gen.standard_normal((24, 18))
    rank_r = truncated_svd(w, 6).reconstruct()
    layer = inherit_dense(w, 6, 3)
    worst_dense = 0.0
    for _ in range(50):
        x = gen.standard_normal((1, 24))
        worst_dense = max(worst_dense,
                          float(np.max(np.abs(layer.forward(x) - x @ rank_r))))

    # dense, exactly-rank-r teacher
    w_exact = gen.standard_normal((24, 4)) @ gen.standard_normal((4, 18))
    layer_exact = inherit_dense(w_exact, 4, 3)
    worst_exact = 0.0
    for _ in range(50):
        x = gen.standard_normal((1, 24))
        worst_exact = max(worst_exact,
                          float(np.max(np.abs(layer_exact.forward(x) - x @ w_exact))))

    # conv, general teacher: outputs match the truncated reshaped kernel
    k = gen.standard_normal((8, 3, 3, 3))
    k_r = truncated_svd(k.reshape(8, -1), 5).reconstruct().reshape(k.shape)
    conv = inherit_conv(k, 5, 3, stride=1, padding=1)
    worst_conv = 0.0
    for _ in range(50):
        x = gen.standard_normal((1, 3, 6, 6))
        worst_conv = max(worst_conv,
                         float(np.max(np.abs(conv.forward(x) - conv_loops(x, k_r, 1, 1)))))

    # conv, exactly-rank-r kernel
    khat = gen.standard_normal((8, 4)) @ gen.standard_normal((4, 12))
    k_exact = khat.reshape(8, 3, 2, 2)
    conv_exact = inherit_conv(k_exact, 4, 2)
    worst_conv_exact = 0.0
    for _ in range(50):
        x = gen.standard_normal((1, 3, 5, 5))
        worst_conv_exact = max(
            worst_conv_exact,
            float(np.max(np.abs(conv_exact.forward(x) - conv_loops(x, k_exact, 1, 0)))))

    elapsed = time.perf_counter() - start
    report(2, worst_dense < 1e-6 and worst_conv < 1e-6
           and worst_exact < 1e-10 and worst_conv_exact < 1e-10
           and elapsed < 10.0,
           f"dense {worst_dense:.2e}, conv {worst_conv:.2e} (< 1e-6); "
           f"exact-rank {worst_exact:.2e}, {worst_conv_exact:.2e} (< 1e-10); "
           f"runtime {elapsed:.1f}s (< 10s)")


def test_criterion_3_gradient_decomposition():
    start = time.perf_counter()
    worst_assembly = 0.0
    worst_fd = 0.0
    for seed in range(20):
        gen = philox(1003, 0, seed)
        m, n = int(gen.integers(3, 12)), int(gen.integers(2, 9))
        r = int(gen.integers(1, min(m, n) + 1))
        h = int(gen.integers(1, 5))
        layer = inherit_dense(gen.standard_normal((m, n)), r, h,
                              mode="convex" if seed % 2 else "paper",
                              gate_input="code" if seed % 3 else "input",
                              bias=gen.standard_normal(n) if seed % 4 == 0 else None)
        layer.params["gate_weight"] += 0.5 * gen.standard_normal(
            layer.params["gate_weight"].shape)
        for i in range(h):
            layer.params[f"head_{i}"] += 0.2 * gen.standard_normal((r, n))
        x = gen.standard_normal((5, m))
        y = gen.standard_normal((5, n))
        worst_assembly = max(worst_assembly,
                             gradient_decomposition_check(layer, x, y, mse_loss))

        net = Network([layer])
        out = net.forward(x)
        _, grad = mse_loss(out, y)
        net.zero_grads()
        net.backward(grad)
        fd = finite_difference_grad(net, mse_loss, x, y)
        for key, g in net.grad_items().items():
            mask = np.abs(g) > 1e-6
            if mask.any():
                worst_fd = max(worst_fd, float((np.abs(g - fd[key])[mask]
                                                / np.abs(g)[mask]).max()))
    elapsed = time.perf_counter() - start
    report(3, worst_assembly < 1e-8 and worst_fd < 1e-4 and elapsed < 60.0,
           f"assembly deviation {worst_assembly:.2e} (< 1e-8), "
           f"finite-difference deviation {worst_fd:.2e} (< 1e-4), "
           f"runtime {elapsed:.1f}s (< 60s)")


def test_criterion_4_compression_arithmetic():
    ratio = compression_ratio_paper(100, 100, 5, 3)
    layer = inherit_dense(philox(1004, 0).standard_normal((100, 100)), 5, 3)
    count = layer.param_count()
    differs = all(
        inherit_dense(philox(1004, 1).standard_normal((30, 20)), 4, h).param_count()
        != 4 * h * 50 + h * 5
        for h in (2, 3))
    report(4, ratio == 10000 / 3018 and count == 2018 and differs,
           f"ratio(100,100,5,3) = {ratio} (= 10000/3018), "
           f"count = {count} (= 2018), shared-down vs per-head counts "
           f"differ for H>1: {differs}")


def test_criterion_5_spectral_energy_chain():
    gen = philox(1005, 0)
    worst_slack = 0.0
    bounded = True
    for _ in range(100):
        k = int(gen.integers(2, 40))
        s = np.sort(np.abs(gen.standard_normal(k)))[::-1] + 1e-9
        eps = float(gen.uniform(0.005, 0.95))
        r = rank_for_energy(s, eps)
        err = eckart_young_error(s, r)
        total = float(np.sum(s * s))
        tail = total - float(np.sum(s[:r] ** 2))
        bounded &= err * err <= eps * total + 1e-12 * total
        worst_slack = max(worst_slack, abs(err * err - tail) / total)
    report(5, bounded and worst_slack < 1e-12,
           f"error^2 <= eps * energy always: {bounded}, "
           f"slack equals residual energy to {worst_slack:.2e} (< 1e-12)")


def test_criterion_6_insight3_convergence_speed():
    start = time.perf_counter()
    result = run_insight3(seeds=5)
    elapsed = time.perf_counter() - start
    report(6, result["svd_faster"] and elapsed < 600.0,
           f"median epochs to threshold: svd {result['median_standard']:g} < "
           f"random {result['median_no_svd']:g}, runtime {elapsed:.0f}s (< 600s)")


@pytest.fixture(scope="module")
def insight1_result():
    start = time.perf_counter()
    result = run_insight1(seeds=5)
    result["elapsed"] = time.perf_counter() - start
    return result


def test_criterion_7_insight1_regime_flip(insight1_result):
    r = insight1_result
    majority = r["pos_at_smallest"] * 2 > r["seeds"] and \
        r["nonpos_at_largest"] * 2 > r["seeds"]
    report(7, majority and r["elapsed"] < 900.0,
           f"{r['summary']}; runtime {r['elapsed']:.0f}s (< 900s)")


def test_criterion_7b_distillation_helps_small_rank(insight1_result):
    # companion check: at the smallest rank the distilled run is at least
    # as accurate as the plain run in >= 4/5 seeds
    rows = [row for row in insight1_result["rows"] if row["r"] == 2]
    wins = sum(row["acc_kd"] >= row["acc_ce"] for row in rows)
    report("7b", wins >= 4, f"distillation at rank 2 at least ties in {wins}/5 seeds")


def test_criterion_8_insight2_trends():
    start = time.perf_counter()
    result = run_insight2(seeds=5)
    elapsed = time.perf_counter() - start
    ok = result["range_wins"] * 2 > result["seeds"] and \
        result["h3_ge_h1"] * 2 > result["seeds"]
    report(8, ok and elapsed < 900.0,
           f"{result['summary']}; runtime {elapsed:.0f}s (< 900s)")


def test_criterion_9_universality_proxy():
    start = time.perf_counter()
    details = []
    ok = True
    for i, dims in enumerate(([24, 64, 64, 8], [16, 48, 48, 6], [32, 80, 80, 10])):
        teacher = spectral_mlp(dims, seed=1900 + i, decay=0.55)
        student = inherit_by_energy(teacher, epsilon=1e-6)
        x = philox(1009, 0, i).standard_normal((300, dims[0]))
        mse = float(np.mean((student.forward(x) - teacher.forward(x)) ** 2))
        compressed = student.param_count() < teacher.param_count()
        ok &= mse <= 1e-4 and compressed
        details.append(f"teacher {i}: mse {mse:.1e}, "
                       f"{student.param_count()}/{teacher.param_count()} params")
    elapsed = time.perf_counter() - start
    report(9, ok and elapsed < 120.0,
           "; ".join(details) + f"; runtime {elapsed:.1f}s (< 120s)")


def test_criterion_10_determinism_and_persistence(tmp_path):
    task = SyntheticTask(kind="blobs", seed=55, n=400, dim=6, classes=2,
                         separation=2.0)
    data = gen_synthetic(task)
    csvs = []
    for name in ("a.csv", "b.csv"):
        net = make_mlp([6, 12, 2], seed=4)
        log = train(net, data, TrainConfig(base_lr=0.05, epochs=6, batch_size=32,
                                           seed=19, loss="ce"))
        path = tmp_path / name
        log.to_csv(path)
        with open(path) as f:
            rows = [line.split(",") for line in f.read().strip().split("\n")]
        wall = rows[0].index("wall_ms")
        csvs.append([[v for i, v in enumerate(row) if i != wall] for row in rows])
    identical = csvs[0] == csvs[1]

    gen = philox(1010, 0)
    w = gen.standard_normal((9, 6))
    bias = gen.standard_normal(6)
    variants = {
        "standard": Network([inherit_dense(w, 3, 2, bias=bias)]),
        "paper": Network([inherit_dense(w, 3, 3, mode="paper")]),
        "input-gate": Network([inherit_dense(w, 3, 2, gate_input="input")]),
        "no-gate": Network([inherit_layer(DenseLayer(w, bias), 3, 2, "no-gate")]),
        "no-svd": Network([inherit_layer(DenseLayer(w), 3, 2, "no-svd", seed=6)]),
        "symmetric": Network([inherit_layer(DenseLayer(w, bias), 3, 2, "symmetric")]),
        "inverse": Network([inherit_layer(DenseLayer(w, bias), 3, 2, "inverse")]),
        "conv": Network([inherit_conv(gen.standard_normal((5, 2, 3, 3)), 3, 2,
                                      bias=gen.standard_normal(5))]),
    }
    roundtrips = True
    for name, net in variants.items():
        p1 = tmp_path / f"{name}.ckpt"
        p2 = tmp_path / f"{name}-2.ckpt"
        save_checkpoint(net, p1)
        loaded, _ = load_checkpoint(p1)
        save_checkpoint(loaded, p2)
        roundtrips &= p1.read_bytes() == p2.read_bytes()
        roundtrips &= all(np.array_equal(v, loaded.param_items()[k])
                          for k, v in net.param_items().items())
    report(10, identical and roundtrips,
           f"run logs byte-identical excluding wall time: {identical}; "
           f"checkpoint round trips bit-exact for all variants: {roundtrips}")
