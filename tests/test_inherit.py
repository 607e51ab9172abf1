import copy
import itertools
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inhernet import inherit
from inhernet.errors import NumericalError, RangeError, ShapeError
from inhernet.inherit import (COMBINER_MODES, GATE_INPUTS, KINDS, STACKS, VARIANTS,
                              InherConv2DLayer, InherNetLayer, _gate_weighted,
                              factor_matrix,
                              inherit_conv, inherit_dense, inherit_layer, inherit_network)
from inhernet.linalg import truncated_svd
from inhernet.nn import (Conv2DLayer, DenseLayer, Network, ReluLayer,
                         finite_difference_grad, mse_loss)
from inhernet.rng import philox
from inhernet.verify import gradient_decomposition_check
from oracles import conv_loops


def eq3_oracle(layer: InherNetLayer, x):
    """Per-sample straight-line evaluation of the gated expert sum."""
    w_down = layer.params["w_down"]
    heads = [layer.params[f"head_{h}"] for h in range(layer.n_heads)]
    out = np.zeros((x.shape[0], layer.out_dim))
    for i in range(x.shape[0]):
        z = x[i] @ w_down
        if layer.gate_frozen:
            g = np.full(layer.n_heads, 1.0 / layer.n_heads)
        else:
            gate_in = z if layer.gate_input == "code" else x[i]
            logits = gate_in @ layer.params["gate_weight"] + layer.params["gate_bias"]
            e = np.exp(logits - logits.max())
            g = e / e.sum()
        acc = np.zeros(layer.out_dim)
        for h in range(layer.n_heads):
            term = z @ heads[h]
            if layer.has_head_bias:
                term = term + layer.params[f"head_bias_{h}"]
            acc += g[h] * term
        out[i] = acc
    return out


def exact_rank_matrix(gen, m, n, r):
    return gen.standard_normal((m, r)) @ gen.standard_normal((r, n))


class TestInheritDense:
    def test_exact_rank_reconstruction(self):
        gen = philox(1, 0)
        w = exact_rank_matrix(gen, 10, 7, 2)
        layer = inherit_dense(w, 2, 3)
        for _ in range(50):
            x = gen.standard_normal((1, 10))
            assert np.max(np.abs(layer.forward(x) - x @ w)) < 1e-10

    def test_single_head_modes_identical(self):
        gen = philox(2, 0)
        w = gen.standard_normal((8, 5))
        x = gen.standard_normal((6, 8))
        convex = inherit_dense(w, 3, 1, mode="convex")
        paper = inherit_dense(w, 3, 1, mode="paper")
        assert np.array_equal(convex.forward(x), paper.forward(x))
        # equals the plain two-factor low-rank layer
        f = truncated_svd(w, 3)
        sq = np.sqrt(f.sigma)
        plain = Network([DenseLayer(f.u * sq), DenseLayer(sq[:, None] * f.v.T)])
        assert np.max(np.abs(convex.forward(x) - plain.forward(x))) < 1e-12

    def test_paper_mode_scale_shortfall(self):
        # verbatim per-head 1/H scaling under a convex (softmax) combination
        # reproduces only W_r / H at uniform gating
        gen = philox(3, 0)
        w = gen.standard_normal((12, 9))
        x = gen.standard_normal((20, 12))
        rank_r = truncated_svd(w, 4).reconstruct()
        paper = inherit_dense(w, 4, 3, mode="paper")
        assert np.max(np.abs(paper.forward(x) - x @ rank_r / 3)) < 1e-10
        convex = inherit_dense(w, 4, 3, mode="convex")
        assert np.max(np.abs(convex.forward(x) - x @ rank_r)) < 1e-10

    def test_factor_initialization(self):
        gen = philox(4, 0)
        w = gen.standard_normal((7, 6))
        f = truncated_svd(w, 3)
        sq = np.sqrt(f.sigma)
        layer = inherit_dense(w, 3, 2)
        assert np.max(np.abs(layer.params["w_down"] - f.u * sq)) < 1e-12
        for h in range(2):
            assert np.max(np.abs(layer.params[f"head_{h}"]
                                 - sq[:, None] * f.v.T)) < 1e-12
        assert np.all(layer.params["gate_weight"] == 0.0)
        assert np.all(layer.params["gate_bias"] == 0.0)

    def test_rank_out_of_range(self):
        with pytest.raises(RangeError):
            inherit_dense(np.ones((4, 3)), 4, 2)

    def test_teacher_bias_copied(self):
        gen = philox(5, 0)
        w = gen.standard_normal((6, 4))
        bias = gen.standard_normal(4)
        layer = inherit_dense(w, 4, 3, bias=bias)
        x = gen.standard_normal((5, 6))
        teacher = Network([DenseLayer(w, bias)])
        assert np.max(np.abs(layer.forward(x) - teacher.forward(x))) < 1e-9


class TestForwardGating:
    def test_zero_gate_params_uniform(self):
        gen = philox(6, 0)
        layer = inherit_dense(gen.standard_normal((5, 4)), 2, 4)
        x = gen.standard_normal((7, 5))
        z = x @ layer.params["w_down"]
        g = layer.gate_values(x, z)
        assert np.array_equal(g, np.full((7, 4), 0.25))

    def test_identical_heads_gating_independent(self):
        gen = philox(7, 0)
        layer = inherit_dense(gen.standard_normal((6, 5)), 3, 3)
        x = gen.standard_normal((4, 6))
        base = layer.forward(x)
        layer.params["gate_weight"][...] = gen.standard_normal((3, 3))
        layer.params["gate_bias"][...] = gen.standard_normal(3)
        assert np.max(np.abs(layer.forward(x) - base)) < 1e-12

    def test_matches_per_sample_oracle(self):
        gen = philox(8, 0)
        for gate_input in ("code", "input"):
            layer = inherit_dense(gen.standard_normal((9, 6)), 4, 3,
                                  gate_input=gate_input,
                                  bias=gen.standard_normal(6))
            layer.params["gate_weight"][...] = gen.standard_normal(
                layer.params["gate_weight"].shape)
            layer.params["gate_bias"][...] = gen.standard_normal(3)
            for h in range(3):
                layer.params[f"head_{h}"] += 0.3 * gen.standard_normal((4, 6))
            x = gen.standard_normal((11, 9))
            assert np.max(np.abs(layer.forward(x) - eq3_oracle(layer, x))) < 1e-12

    def test_gating_simplex(self):
        gen = philox(9, 0)
        layer = inherit_dense(gen.standard_normal((6, 4)), 2, 5)
        layer.params["gate_weight"][...] = 3.0 * gen.standard_normal((2, 5))
        x = 10 * gen.standard_normal((50, 6))
        z = x @ layer.params["w_down"]
        g = layer.gate_values(x, z)
        assert np.all(g > 0) and np.all(g <= 1)
        assert np.max(np.abs(g.sum(axis=1) - 1.0)) < 1e-12

    def test_gate_shift_invariance_bit_identical(self):
        # dyadic bias entries and a dyadic shift keep the additions exact,
        # so the outputs must agree bit for bit
        gen = philox(10, 0)
        layer = inherit_dense(gen.standard_normal((6, 4)), 2, 3)
        layer.params["gate_bias"][...] = np.array([0.5, -1.25, 2.0])
        x = gen.standard_normal((8, 6))
        base = layer.forward(x)
        layer.params["gate_bias"][...] += 4.0
        assert np.array_equal(layer.forward(x), base)

    def test_init_equivalence_bounded_inputs(self):
        gen = philox(11, 0)
        w = gen.standard_normal((10, 8))
        rank_r = truncated_svd(w, 3).reconstruct()
        for h in (1, 2, 5):
            layer = inherit_dense(w, 3, h)
            for _ in range(10):
                x = gen.standard_normal((1, 10))
                x = 10.0 * x / np.linalg.norm(x)
                assert np.max(np.abs(layer.forward(x) - x @ rank_r)) <= 1e-6

    def test_input_width_checked(self):
        layer = inherit_dense(np.eye(4), 2, 2)
        with pytest.raises(ShapeError):
            layer.forward(np.ones((2, 5)))


class TestInheritConv:
    def test_one_by_one_kernel_matches_dense(self):
        gen = philox(12, 0)
        k = gen.standard_normal((6, 4, 1, 1))
        conv_layer = inherit_conv(k, 3, 2)
        dense_layer = inherit_dense(k.reshape(6, 4).T, 3, 2)
        x = gen.standard_normal((5, 4))
        as_image = x.T[None]                       # (1, c, 5, 1) spatial layout
        out_conv = conv_layer.forward(x.T[None, :, :, None])
        out_dense = dense_layer.forward(x)
        assert np.max(np.abs(out_conv[0, :, :, 0].T - out_dense)) < 1e-10

    def test_exact_rank_kernel(self):
        gen = philox(13, 0)
        khat = exact_rank_matrix(gen, 6, 12, 3)
        k = khat.reshape(6, 3, 2, 2)
        layer = inherit_conv(k, 3, 2, stride=1, padding=1)
        x = gen.standard_normal((2, 3, 6, 6))
        assert np.max(np.abs(layer.forward(x) - conv_loops(x, k, 1, 1))) < 1e-9

    def test_truncated_kernel_matches_im2col_oracle(self):
        """The oracle's 6 filters on 3 channels lower through im2col; the
        student's 2-filter shared stage through kn2row."""
        gen = philox(14, 0)
        k = gen.standard_normal((6, 3, 3, 3))
        rank_r = truncated_svd(k.reshape(6, -1), 2).reconstruct().reshape(k.shape)
        oracle = Conv2DLayer(rank_r, stride=1, padding=0)
        layer = inherit_conv(k, 2, 3, stride=1, padding=0)
        x = gen.standard_normal((1, 3, 8, 8))
        assert np.max(np.abs(layer.forward(x) - oracle.forward(x))) < 1e-8

    @pytest.mark.parametrize("h", [1, 3])
    @pytest.mark.parametrize("bias", [False, True])
    @pytest.mark.parametrize("stride,padding", [(1, 0), (2, 1)])
    def test_matches_per_head_oracle(self, h, bias, stride, padding):
        """The conv twin of the dense per-sample oracle: at every pixel,
        sum_h g_h * (head_h @ code + head_bias_h) with g from the pooled code."""
        gen = philox(16, h)
        k = gen.standard_normal((5, 3, 3, 3))
        layer = inherit_conv(k, 4, h, stride=stride, padding=padding,
                             bias=gen.standard_normal(5) if bias else None)
        layer.params["gate_weight"][...] = gen.standard_normal((4, h))
        layer.params["gate_bias"][...] = gen.standard_normal(h)
        jitter(layer, gen)
        x = gen.standard_normal((3, 3, 7, 7))
        out = layer.forward(x)
        code = conv_loops(x, layer.params["shared_kernel"], stride, padding)
        expected = np.zeros_like(out)
        for i in range(len(x)):
            logits = code[i].mean(axis=(1, 2)) @ layer.params["gate_weight"] \
                + layer.params["gate_bias"]
            g = np.exp(logits - logits.max())
            g /= g.sum()
            assert np.ptp(g) > 0.05 or h == 1
            for oi, oj in itertools.product(*map(range, code.shape[2:])):
                for j in range(h):
                    term = layer.params[f"head_{j}"] @ code[i, :, oi, oj]
                    if bias:
                        term = term + layer.params[f"head_bias_{j}"]
                    expected[i, :, oi, oj] += g[j] * term
        assert np.max(np.abs(out - expected)) <= 1e-12 * np.max(np.abs(expected))

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1)])
    @pytest.mark.parametrize("c,r", [(2, 3), (3, 2)], ids=["im2col", "kn2row"])
    def test_both_lowerings_match_the_oracle_and_finite_differences(self, c, r, stride,
                                                                     padding):
        gen = philox(17, 10 * c + stride + padding)
        k, bias = gen.standard_normal((5, c, 3, 3)), gen.standard_normal(5)
        rank_r = truncated_svd(k.reshape(5, -1), r).reconstruct().reshape(k.shape)
        layer = inherit_conv(k, r, 3, stride=stride, padding=padding, bias=bias)
        x = gen.standard_normal((2, c, 7, 7))
        want = conv_loops(x, rank_r, stride, padding) + bias[:, None, None]
        assert np.linalg.norm(layer.forward(x) - want) <= 1e-12 * np.linalg.norm(want)
        jitter(layer, gen)
        assert fd_relative_dev(layer, x, gen) < 1e-4

    def test_factor_shapes(self):
        k = philox(15, 0).standard_normal((6, 3, 3, 3))
        layer = inherit_conv(k, 4, 2)
        assert layer.params["shared_kernel"].shape == (4, 3, 3, 3)
        for h in range(2):
            assert layer.params[f"head_{h}"].shape == (6, 4)

    def test_rank_out_of_range(self):
        with pytest.raises(RangeError):
            inherit_conv(np.ones((2, 1, 2, 2)), 3, 1)

    @pytest.mark.parametrize("stride,padding", [(0, 0), (1, -1)])
    def test_invalid_geometry_rejected_at_construction(self, stride, padding):
        k = philox(15, 1).standard_normal((4, 2, 3, 3))
        with pytest.raises(ShapeError, match="stride"):
            inherit_conv(k, 2, 2, stride=stride, padding=padding)
        layer = inherit_conv(k, 2, 2)
        with pytest.raises(ShapeError, match="stride"):
            InherConv2DLayer(layer.blocks["down"], layer.blocks["up"],
                             stride=stride, padding=padding)


def conv_step_oracle(layer: InherConv2DLayer, x, gy):
    """Forward and backward of an inherited conv, sample by sample and head by head.

    y_b = sum_h g_bh (U_h z_b + b_h), with the code map z_b from the loop
    convolution and g_b from its spatial mean; the gradients follow the
    chain rule written out per sample. Returns (y, parameter gradients, dL/dx).
    """
    k, stride, padding = layer.params["shared_kernel"], layer.stride, layer.padding
    code = conv_loops(x, k, stride, padding)
    b, r, oh, ow = code.shape
    h, p = layer.n_heads, oh * ow
    ups = [layer.params[f"head_{j}"] for j in range(h)]
    biases = [layer.params[f"head_bias_{j}"] if layer.has_head_bias else np.zeros(len(ups[0]))
              for j in range(h)]
    out = np.zeros((b, len(ups[0]), oh, ow))
    grads = {key: np.zeros_like(v) for key, v in layer.params.items()}
    dcode = np.zeros_like(code)
    for i in range(b):
        z, gyi = code[i].reshape(r, p), gy[i].reshape(-1, p)
        pooled = z.mean(axis=1)
        if layer.gate_frozen:
            g = np.full(h, 1.0 / h)
        else:
            logits = pooled @ layer.params["gate_weight"] + layer.params["gate_bias"]
            g = np.exp(logits - logits.max())
            g /= g.sum()
        scores, dz = np.zeros(h), np.zeros((r, p))
        for j in range(h):
            term = ups[j] @ z + biases[j][:, None]
            out[i] += g[j] * term.reshape(-1, oh, ow)
            scores[j] = np.sum(gyi * term)
            grads[f"head_{j}"] += g[j] * (gyi @ z.T)
            if layer.has_head_bias:
                grads[f"head_bias_{j}"] += g[j] * gyi.sum(axis=1)
            dz += g[j] * (ups[j].T @ gyi)
        if not layer.gate_frozen:
            dlogits = g * (scores - g @ scores)
            grads["gate_weight"] += np.outer(pooled, dlogits)
            grads["gate_bias"] += dlogits
            dz += (layer.params["gate_weight"] @ dlogits)[:, None] / p
        dcode[i] = dz.reshape(r, oh, ow)
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    dxp = np.zeros_like(xp)
    for ki, kj in itertools.product(*map(range, k.shape[2:])):
        window = (slice(None), slice(None), slice(ki, ki + stride * oh, stride),
                  slice(kj, kj + stride * ow, stride))
        grads["shared_kernel"][:, :, ki, kj] = np.einsum("brij,bcij->rc", dcode, xp[window])
        dxp[window] += np.einsum("rc,brij->bcij", k[:, :, ki, kj], dcode)
    return out, grads, dxp[:, :, padding:padding + x.shape[2], padding:padding + x.shape[3]]


class TestConvHeadStage:
    """The head stage, one GEMM of the gate-mixed [U | b] against the code map
    plus a ones channel, and its backward, against the per-sample oracle."""

    @pytest.mark.parametrize("c,r,h,bias,frozen,stride,padding", [
        (5, 2, 3, True, False, 1, 1),
        (5, 2, 3, False, False, 1, 1),
        (5, 2, 3, True, True, 1, 1),
        (5, 2, 3, True, False, 2, 1),
        (5, 2, 1, True, False, 1, 0),
        (5, 2, 1, False, True, 2, 1),
        (2, 3, 3, True, False, 1, 1),
        (2, 3, 3, False, False, 2, 1),
    ], ids=["kn2row", "no-bias", "frozen-gate", "stride-2", "one-head",
            "one-head-frozen-no-bias-stride-2", "im2col", "im2col-no-bias-stride-2"])
    def test_forward_and_backward_match_the_oracle(self, c, r, h, bias, frozen, stride, padding):
        gen = philox(19, 10 * c + h)
        teacher = Conv2DLayer(gen.standard_normal((6, c, 3, 3)), stride, padding,
                              gen.standard_normal(6) if bias else None)
        layer = inherit_layer(teacher, r, h, "no-gate" if frozen else "standard")
        jitter(layer, gen)
        x = gen.standard_normal((3, c, 7, 7))
        y = layer.forward(x)
        gy = gen.standard_normal(y.shape)
        dx = layer.backward(gy)
        want_y, want_grads, want_dx = conv_step_oracle(layer, x, gy)

        def close(got, want):
            return np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

        assert y.flags.c_contiguous and close(y, want_y)
        assert dx.shape == x.shape and close(dx, want_dx)
        assert dx.flags.c_contiguous or c < r       # kn2row's dL/dx needs no crop
        assert list(layer.grads) == list(want_grads)
        for key, g in layer.grads.items():
            assert close(g, want_grads[key]), key

    def test_no_bias_keeps_the_code_map_without_a_ones_channel(self):
        gen = philox(20, 0)
        for bias, channels in ((None, 2), (gen.standard_normal(6), 3)):
            layer = inherit_conv(gen.standard_normal((6, 5, 3, 3)), 2, 3, padding=1, bias=bias)
            layer.forward(gen.standard_normal((2, 5, 4, 4)))
            z = layer.saved[2]
            assert z.shape == (2, channels, 16)
            if bias is not None:
                assert np.all(z[:, 2] == 1.0)


class TestGateWeighted:
    @pytest.mark.parametrize("b", [1, 2, 7, 32, 256, 512])
    def test_per_head_products_are_the_broadcast_bit_for_bit(self, b):
        gen = philox(21, b)
        g = gen.random((b, 4))
        for a in (gen.standard_normal((b, 1, 5)), gen.standard_normal((b, 4, 5))):
            out = np.empty((b, 4, 5))
            got = _gate_weighted(g, a, 4, out=out)
            assert got is out and got.tobytes() == (g[:, :, None] * a).tobytes()


class TestGradientDecomposition:
    def test_frozen_gating_head_term_alone(self):
        gen = philox(16, 0)
        layer = inherit_layer(DenseLayer(gen.standard_normal((7, 5))), 3, 3, "no-gate")
        x = gen.standard_normal((6, 7))
        y = gen.standard_normal((6, 5))
        assert gradient_decomposition_check(layer, x, y, mse_loss) < 1e-8

    def test_single_head_chain_rule(self):
        gen = philox(17, 0)
        layer = inherit_dense(gen.standard_normal((6, 4)), 2, 1)
        layer.params["gate_weight"][...] = gen.standard_normal((2, 1))
        x = gen.standard_normal((5, 6))
        y = gen.standard_normal((5, 4))
        assert gradient_decomposition_check(layer, x, y, mse_loss) < 1e-8

    @pytest.mark.parametrize("seed", range(20))
    def test_random_configurations(self, seed):
        gen = philox(700 + seed, 0)
        m, n = int(gen.integers(3, 10)), int(gen.integers(2, 8))
        r = int(gen.integers(1, min(m, n) + 1))
        h = int(gen.integers(1, 5))
        layer = inherit_dense(gen.standard_normal((m, n)), r, h,
                              mode="paper" if seed % 2 else "convex",
                              gate_input="input" if seed % 3 == 0 else "code",
                              bias=gen.standard_normal(n) if seed % 4 == 0 else None)
        layer.params["gate_weight"] += 0.6 * gen.standard_normal(
            layer.params["gate_weight"].shape)
        for i in range(h):
            layer.params[f"head_{i}"] += 0.2 * gen.standard_normal((r, n))
        x = gen.standard_normal((6, m))
        y = gen.standard_normal((6, n))
        assert gradient_decomposition_check(layer, x, y, mse_loss) < 1e-8


def fd_relative_dev(layer, x, gen) -> float:
    """Largest relative gap between a layer's backward and central differences.

    The input gradient is checked too, through a leading identity layer.
    """
    width = x.shape[1]
    lead = DenseLayer(np.eye(width)) if x.ndim == 2 else Conv2DLayer(
        np.eye(width)[:, :, None, None])
    net = Network([lead, layer])
    y = gen.standard_normal(net.forward(x).shape)
    _, grad = mse_loss(net.forward(x), y)
    net.zero_grads()
    net.backward(grad)
    fd = finite_difference_grad(net, mse_loss, x, y)
    worst = 0.0
    for key, g in net.grad_items().items():
        assert np.all(np.abs(g - fd[key]) <= 1e-6 + 1e-4 * np.abs(g)), key
        mask = np.abs(g) > 1e-6
        if mask.any():
            worst = max(worst, float((np.abs(g - fd[key])[mask] / np.abs(g)[mask]).max()))
    return worst


def jitter(layer, gen) -> None:
    """Move heads and gate off their symmetric initial values."""
    for key, p in layer.params.items():
        if key != "shared_kernel" and key != "w_down":
            p += 0.4 * gen.standard_normal(p.shape)


class TestFusedHeadGradients:
    @pytest.mark.parametrize("h", [1, 3])
    @pytest.mark.parametrize("gate_input", ["code", "input"])
    @pytest.mark.parametrize("bias", [False, True])
    @pytest.mark.parametrize("frozen", [False, True])
    def test_dense_matches_finite_differences(self, h, gate_input, bias, frozen):
        gen = philox(800 + h, 0)
        w = gen.standard_normal((7, 5))
        variant = "no-gate" if frozen else "standard"
        layer = inherit_layer(DenseLayer(w, gen.standard_normal(5) if bias else None), 3, h,
                              variant, gate_input=gate_input)
        assert layer.gate_frozen == frozen and layer.has_head_bias == bias
        jitter(layer, gen)
        x = gen.standard_normal((6, 7))
        assert fd_relative_dev(layer, x, gen) < 1e-4
        y = gen.standard_normal((6, 5))
        assert gradient_decomposition_check(layer, x, y, mse_loss) < 1e-8

    @pytest.mark.parametrize("h", [1, 3])
    @pytest.mark.parametrize("bias", [False, True])
    @pytest.mark.parametrize("frozen", [False, True])
    def test_conv_matches_finite_differences(self, h, bias, frozen):
        gen = philox(900 + h, 0)
        teacher = Conv2DLayer(gen.standard_normal((4, 2, 3, 3)), stride=2, padding=1,
                              bias=gen.standard_normal(4) if bias else None)
        layer = inherit_layer(teacher, 2, h, "no-gate" if frozen else "standard")
        assert layer.gate_frozen == frozen and layer.has_head_bias == bias
        jitter(layer, gen)
        x = gen.standard_normal((2, 2, 5, 5))
        assert fd_relative_dev(layer, x, gen) < 1e-4

    @pytest.mark.parametrize("padding", [0, 1])
    def test_conv_stride_two_matches_finite_differences(self, padding):
        gen = philox(950 + padding, 0)
        layer = inherit_conv(gen.standard_normal((4, 2, 3, 3)), 2, 3, stride=2,
                             padding=padding, bias=gen.standard_normal(4))
        jitter(layer, gen)
        x = gen.standard_normal((2, 2, 5, 7))
        assert fd_relative_dev(layer, x, gen) < 1e-4

    @pytest.mark.parametrize("variant,h", [("inverse", 1), ("inverse", 3), ("symmetric", 2)])
    @pytest.mark.parametrize("bias", [False, True])
    def test_ablation_kinds_match_finite_differences(self, variant, h, bias):
        gen = philox(850 + h, 0)
        layer = inherit_layer(DenseLayer(gen.standard_normal((7, 5)),
                                         gen.standard_normal(5) if bias else None), 3, h, variant)
        assert layer.kind == variant and layer.has_head_bias == bias
        jitter(layer, gen)
        assert fd_relative_dev(layer, gen.standard_normal((6, 7)), gen) < 1e-4

    @pytest.mark.parametrize("build", [
        lambda gen: inherit_dense(gen.standard_normal((6, 5)), 2, 3,
                                  bias=gen.standard_normal(5)),
        lambda gen: inherit_conv(gen.standard_normal((4, 2, 3, 3)), 2, 3,
                                 bias=gen.standard_normal(4))])
    def test_heads_are_views_of_one_block(self, build):
        layer = build(philox(41, 0))
        block, gblock = layer.blocks["up"], layer.grad_blocks["up"]
        for h in range(3):
            assert np.shares_memory(layer.params[f"head_{h}"], block)
            assert np.array_equal(layer.params[f"head_{h}"], block[h])
            assert np.shares_memory(layer.grads[f"head_{h}"], gblock)
            assert np.shares_memory(layer.params[f"head_bias_{h}"], layer.blocks["bias"])
        assert list(layer.params) == list(layer.grads)
        assert layer.param_count() == sum(p.size for p in layer.params.values())


BUILD_KIND = {
    "inherit_dense": lambda gen: inherit_dense(gen.standard_normal((6, 5)), 2, 3,
                                               bias=gen.standard_normal(5)),
    "inverse": lambda gen: inherit_layer(DenseLayer(gen.standard_normal((6, 5)),
                                                    gen.standard_normal(5)), 2, 3, "inverse"),
    "symmetric": lambda gen: inherit_layer(DenseLayer(gen.standard_normal((6, 5)),
                                                      gen.standard_normal(5)), 2, 3, "symmetric"),
    "inherit_conv": lambda gen: inherit_conv(gen.standard_normal((4, 2, 3, 3)), 2, 3,
                                             bias=gen.standard_normal(4)),
}


class TestBlockVocabulary:
    @pytest.mark.parametrize("kind", list(KINDS))
    def test_every_array_name_is_an_entry_of_its_block(self, kind):
        layer = BUILD_KIND[kind](philox(43, 0))
        assert layer.kind == kind and set(STACKS) <= set(layer.blocks)
        assert isinstance(layer, KINDS[kind].layer)
        for block, name in zip(STACKS, KINDS[kind].stacked):
            names = [name.format(i) for i in range(layer.n_heads)] if "{}" in name else [name]
            assert len(layer.blocks[block]) == len(names)
            for i, view in enumerate(names):
                assert np.shares_memory(layer.params[view], layer.blocks[block])
                assert np.array_equal(layer.params[view], layer.blocks[block][i])
                assert np.shares_memory(layer.grads[view], layer.grad_blocks[block])

    @pytest.mark.parametrize("kind", list(KINDS))
    def test_config_round_trip_keeps_every_block(self, kind):
        gen = philox(44, 0)
        layer = BUILD_KIND[kind](gen)
        jitter(layer, gen)
        copy = type(layer).from_config(layer.config(), layer.params)
        assert list(copy.params) == list(layer.params)
        for block in STACKS:
            assert np.array_equal(copy.blocks[block], layer.blocks[block])

    @pytest.mark.parametrize("kind,heads,message", [
        ("inherit_dense", (2, 3, 3), "down stack holds 2 entries, expected 1"),
        ("inherit_dense", (1, 3, 2), "bias stack holds 2 entries, expected 3"),
        ("inverse", (3, 2, 1), "up stack holds 2 entries, expected 1")])
    def test_stack_of_the_wrong_length_names_its_block(self, kind, heads, message):
        hd, hu, hb = heads
        with pytest.raises(ShapeError, match=message):
            InherNetLayer(np.zeros((hd, 6, 2)), np.zeros((hu, 2, 5)), np.zeros((hb, 5)),
                          gate_input="code" if kind == "inherit_dense" else "input", kind=kind)


def per_head_oracle(layer: InherNetLayer, x):
    """``sum_h g_h (x D_h U_h + b_h)`` head by head, with the gate formed here."""
    def entry(block, h):
        return layer.blocks[block][h if block in layer.per_head else 0]
    codes = [x @ entry("down", h) for h in range(layer.n_heads)]
    if layer.gate_frozen:
        g = np.full((len(x), layer.n_heads), 1.0 / layer.n_heads)
    else:
        gate_in = codes[0] if layer.gate_input == "code" else x
        logits = gate_in @ layer.params["gate_weight"] + layer.params["gate_bias"]
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        g = e / e.sum(axis=1, keepdims=True)
    out = np.zeros((len(x), layer.out_dim))
    for h in range(layer.n_heads):
        term = codes[h] @ entry("up", h)
        if layer.has_head_bias:
            term = term + entry("bias", h)
        out += g[:, h:h + 1] * term
    return out


def _teacher(gen, bias=True):
    return DenseLayer(gen.standard_normal((6, 5)), gen.standard_normal(5) if bias else None)


DENSE_CASES = {
    "code gate": lambda gen: inherit_layer(_teacher(gen), 2, 3),
    "input gate": lambda gen: inherit_layer(_teacher(gen), 2, 3, gate_input="input"),
    "one head": lambda gen: inherit_layer(_teacher(gen), 2, 1),
    "inverse": lambda gen: inherit_layer(_teacher(gen), 2, 3, "inverse"),
    "symmetric": lambda gen: inherit_layer(_teacher(gen), 2, 3, "symmetric"),
    "frozen gate": lambda gen: inherit_layer(_teacher(gen), 2, 3, "no-gate"),
    "no bias": lambda gen: inherit_layer(_teacher(gen, bias=False), 2, 3),
    "inverse, no bias": lambda gen: inherit_layer(_teacher(gen, bias=False), 2, 3, "inverse"),
}


class TestFusedOutputStage:
    """The output stage is one GEMM of the mixing buffer against ``[up; bias]``."""

    @pytest.mark.parametrize("case", list(DENSE_CASES))
    def test_matches_the_per_head_oracle(self, case):
        gen = philox(45, 0)
        layer = DENSE_CASES[case](gen)
        jitter(layer, gen)
        x = gen.standard_normal((9, 6))
        want = per_head_oracle(layer, x)
        standalone = layer.forward(x)
        Network([ReluLayer(), layer])
        for out in (standalone, layer.forward(x)):
            assert np.linalg.norm(out - want) <= 1e-12 * np.linalg.norm(want), case

    @pytest.mark.parametrize("case", list(DENSE_CASES))
    def test_up_and_bias_are_adjacent_in_the_flat_vector(self, case):
        layer = DENSE_CASES[case](philox(46, 0))
        Network([ReluLayer(), layer])
        up, bias = layer.blocks["up"], layer.blocks.get("bias")
        start = up.__array_interface__["data"][0]
        assert np.shares_memory(up, layer.flat)
        if bias is not None:
            assert bias.__array_interface__["data"][0] == start + up.nbytes

    @pytest.mark.parametrize("kind", list(KINDS))
    def test_standalone_and_copied_layers_forward_like_the_bound_one(self, kind):
        gen = philox(47, 0)
        layer = BUILD_KIND[kind](gen)
        jitter(layer, gen)
        x = gen.standard_normal((2, 2, 5, 5) if kind == "inherit_conv" else (7, 6))
        outputs = [layer.forward(x)]
        copies = [copy.deepcopy(layer), pickle.loads(pickle.dumps(layer))]
        bound = Network([layer]).forward(x)
        copies += [copy.deepcopy(layer), pickle.loads(pickle.dumps(layer))]
        for twin in copies:
            assert not np.shares_memory(twin.flat, layer.flat)
            assert all(np.shares_memory(b, twin.flat) for b in twin.blocks.values())
            outputs.append(twin.forward(x))
        for out in outputs:
            assert out.tobytes() == bound.tobytes()

    @pytest.mark.parametrize("kind", list(KINDS))
    def test_empty_batch_is_a_shape_error(self, kind):
        net = Network([BUILD_KIND[kind](philox(48, 0))])
        x = np.zeros((0, 2, 5, 5) if kind == "inherit_conv" else (0, 6))
        with pytest.raises(ShapeError, match="^layer 0: .*empty"):
            net.forward(x)


class TestGradientGrid:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_every_variant_matches_finite_differences(self, data):
        m, n = data.draw(st.integers(2, 6), "m"), data.draw(st.integers(2, 5), "n")
        r = data.draw(st.integers(1, min(m, n)), "r")
        h = data.draw(st.integers(1, 3), "h")
        variant = data.draw(st.sampled_from(VARIANTS), "variant")
        mode = "convex" if variant == "no-svd" else data.draw(st.sampled_from(COMBINER_MODES),
                                                                "mode")
        gate_input = data.draw(st.sampled_from(GATE_INPUTS), "gate_input")
        bias = data.draw(st.booleans(), "bias")
        gen = philox(data.draw(st.integers(0, 2**16), "seed"), 0)
        layer = inherit_layer(DenseLayer(gen.standard_normal((m, n)),
                                         gen.standard_normal(n) if bias else None),
                              r, h, variant, mode, gate_input, seed=3)
        jitter(layer, gen)
        x = gen.standard_normal((4, m))
        assert fd_relative_dev(layer, x, gen) < 1e-4
        if layer.kind == "inherit_dense":
            y = gen.standard_normal((4, n))
            assert gradient_decomposition_check(layer, x, y, mse_loss) < 1e-8


class TestInverse:
    def test_single_head_equals_standard(self):
        gen = philox(18, 0)
        w = gen.standard_normal((8, 5))
        std = inherit_dense(w, 3, 1)
        inv = inherit_layer(DenseLayer(w), 3, 1, "inverse")
        x = gen.standard_normal((10, 8))
        assert np.max(np.abs(std.forward(x) - inv.forward(x))) < 1e-10

    def test_exact_rank_init(self):
        gen = philox(19, 0)
        w = exact_rank_matrix(gen, 9, 6, 2)
        inv = inherit_layer(DenseLayer(w), 2, 3, "inverse")
        x = gen.standard_normal((8, 9))
        assert np.max(np.abs(inv.forward(x) - x @ w)) < 1e-10

    def test_matches_standard_init_forward(self):
        gen = philox(20, 0)
        w = gen.standard_normal((10, 7))
        std = inherit_dense(w, 4, 3)
        inv = inherit_layer(DenseLayer(w), 4, 3, "inverse")
        x = gen.standard_normal((12, 10))
        assert np.max(np.abs(std.forward(x) - inv.forward(x))) < 1e-10

    def test_aggregation_precedes_up_projection(self):
        gen = philox(21, 0)
        inv = inherit_layer(DenseLayer(gen.standard_normal((6, 4))), 2, 3, "inverse")
        inv.params["gate_weight"][...] = gen.standard_normal((6, 3))
        for h in range(3):
            inv.params[f"down_{h}"] += 0.3 * gen.standard_normal((6, 2))
        x = gen.standard_normal((5, 6))
        out = inv.forward(x)
        # explicit aggregation oracle
        from inhernet.linalg import softmax
        g = softmax(x @ inv.params["gate_weight"] + inv.params["gate_bias"])
        z_agg = sum(g[:, h, None] * (x @ inv.params[f"down_{h}"]) for h in range(3))
        assert np.max(np.abs(out - z_agg @ inv.params["w_up"])) < 1e-12


class TestVariants:
    def test_no_gate_is_mean_of_heads(self):
        gen = philox(22, 0)
        layer = inherit_layer(DenseLayer(gen.standard_normal((7, 5))), 3, 4, "no-gate")
        for h in range(4):
            layer.params[f"head_{h}"] += gen.standard_normal((3, 5))
        x = gen.standard_normal((6, 7))
        z = x @ layer.params["w_down"]
        mean = np.mean([z @ layer.params[f"head_{h}"] for h in range(4)], axis=0)
        assert np.max(np.abs(layer.forward(x) - mean)) < 1e-12
        assert "gate_weight" not in layer.params

    def test_no_svd_same_parameter_count(self):
        gen = philox(23, 0)
        w = gen.standard_normal((9, 6))
        std = inherit_layer(DenseLayer(w), 3, 2, "standard")
        rnd = inherit_layer(DenseLayer(w), 3, 2, "no-svd", seed=5)
        assert std.param_count() == rnd.param_count()
        assert not np.allclose(std.params["w_down"], rnd.params["w_down"])

    def test_no_svd_deterministic_per_seed(self):
        w = philox(24, 0).standard_normal((6, 4))
        a = inherit_layer(DenseLayer(w), 2, 2, "no-svd", seed=9)
        b = inherit_layer(DenseLayer(w), 2, 2, "no-svd", seed=9)
        assert np.array_equal(a.params["w_down"], b.params["w_down"])

    def test_symmetric_parameter_budget(self):
        w = philox(25, 0).standard_normal((64, 64))
        std = inherit_layer(DenseLayer(w), 48, 3, "standard")
        sym = inherit_layer(DenseLayer(w), 48, 3, "symmetric")
        budget = std.param_count()
        assert sym.param_count() <= budget
        assert abs(sym.param_count() - budget) / budget < 0.02

    def test_symmetric_init_reconstructs_budgeted_truncation(self):
        """Uniform gating of the two branches gives W_{r_sym} in convex mode;
        in paper mode each branch's up holds one half, so it gives W_{r_sym} / 2."""
        gen = philox(26, 0)
        w = gen.standard_normal((8, 6))
        x = gen.standard_normal((5, 8))
        for mode, scale in (("convex", 1.0), ("paper", 0.5)):
            sym = inherit_layer(DenseLayer(w), 4, 3, "symmetric", mode)
            assert sym.rank == 3 and sym.n_heads == 2
            want = x @ truncated_svd(w, sym.rank).reconstruct() * scale
            assert np.max(np.abs(sym.forward(x) - want)) < 1e-8, mode
            for i in range(2):
                assert np.array_equal(sym.params[f"down_{i}"], sym.params["down_0"])
                assert np.array_equal(sym.params[f"up_{i}"], sym.params["up_0"])

    @pytest.mark.parametrize("variant,conv", [(v, False) for v in VARIANTS] + [
        (v, True) for v in ("standard", "no-svd", "no-gate")])
    def test_one_factorization_per_build(self, variant, conv, monkeypatch):
        """Every SVD variant factors its teacher once; no-svd never does."""
        calls = []
        monkeypatch.setattr(inherit, "truncated_svd",
                            lambda w, r: calls.append(r) or truncated_svd(w, r))
        gen = philox(27, 1)
        teacher = (Conv2DLayer(gen.standard_normal((5, 3, 3, 3)), bias=gen.standard_normal(5))
                   if conv else DenseLayer(gen.standard_normal((9, 6)), gen.standard_normal(6)))
        student = inherit_layer(teacher, 3, 2, variant,
                                "convex" if variant == "no-svd" else "paper")
        assert len(calls) == (0 if variant == "no-svd" else 1)
        assert calls == ([] if variant == "no-svd" else [student.rank])

    @pytest.mark.parametrize("conv", [False, True], ids=["dense", "conv"])
    def test_no_svd_refuses_paper_mode(self, conv):
        """``no-svd`` draws no SVD factor for ``paper`` mode to divide by H, so
        the pair would build the ``convex`` student under the other mode's name."""
        gen = philox(68, 0)
        teacher = (Conv2DLayer(gen.standard_normal((5, 2, 3, 3))) if conv
                   else DenseLayer(gen.standard_normal((6, 4))))
        with pytest.raises(RangeError, match="variant 'no-svd' .* mode 'paper'"):
            inherit_layer(teacher, 2, 2, "no-svd", "paper")
        with pytest.raises(RangeError, match="^layer 1: variant 'no-svd'"):
            inherit_network(Network([ReluLayer(), teacher]), 2, 2, "no-svd", "paper")

    def test_unknown_variant(self):
        with pytest.raises(RangeError):
            inherit_layer(DenseLayer(np.eye(4)), 2, 2, "bogus")

    def test_symmetric_rank_is_the_largest_that_fits(self):
        """The symmetric student fits the standard student's count, and one more
        branch rank, which adds an m-column to each down and an n-row to each
        up, would not, unless the rank is already min(m, n)."""
        gen = philox(61, 0)
        for m, n, r, h, gate_input, bias in itertools.product(
                (4, 7, 12), (4, 6, 16), (3, 4), (2, 3), GATE_INPUTS, (False, True)):
            teacher = DenseLayer(gen.standard_normal((m, n)),
                                 gen.standard_normal(n) if bias else None)
            budget = inherit_layer(teacher, r, h, gate_input=gate_input).param_count()
            sym = inherit_layer(teacher, r, h, "symmetric", gate_input=gate_input)
            case = (m, n, r, h, gate_input, bias, sym.rank)
            assert sym.param_count() <= budget, case
            assert sym.rank == min(m, n) or sym.param_count() + 2 * (m + n) > budget, case

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_out_of_range_rank_raises_for_every_variant(self, variant):
        w = philox(62, 0).standard_normal((6, 4))
        for r in (0, 5):
            with pytest.raises(RangeError, match="rank"):
                inherit_layer(DenseLayer(w), r, 2, variant)


class TestFactorMatrix:
    def test_dense_weight_conv_reshape_and_relu(self):
        gen = philox(63, 0)
        dense = DenseLayer(gen.standard_normal((6, 4)))
        conv = Conv2DLayer(gen.standard_normal((5, 2, 3, 3)))
        assert np.array_equal(factor_matrix(dense), dense.params["weight"])
        assert np.array_equal(factor_matrix(conv), conv.params["kernel"].reshape(5, 18))
        assert factor_matrix(ReluLayer()) is None

    def test_other_kinds_raise(self):
        student = inherit_dense(philox(64, 0).standard_normal((6, 4)), 2, 2)
        with pytest.raises(RangeError, match="inherit_dense"):
            factor_matrix(student)
        with pytest.raises(RangeError, match="layer 1: cannot inherit"):
            inherit_network(Network([ReluLayer(), student]), 2, 2)

    def test_conv_student_factors_the_reshaped_kernel(self):
        conv = Conv2DLayer(philox(65, 0).standard_normal((5, 2, 3, 3)), padding=1)
        layer = inherit_layer(conv, 3, 2)
        kernel = layer.params["shared_kernel"].reshape(3, -1)
        want = truncated_svd(factor_matrix(conv), 3).reconstruct()
        for h in range(2):
            assert np.max(np.abs(layer.params[f"head_{h}"] @ kernel - want)) < 1e-12

    @pytest.mark.parametrize("variant", ["symmetric", "inverse"])
    def test_conv_rejects_dense_only_variants(self, variant):
        conv = Conv2DLayer(philox(66, 0).standard_normal((5, 2, 3, 3)))
        with pytest.raises(RangeError, match="dense-only"):
            inherit_layer(conv, 2, 2, variant)
        with pytest.raises(RangeError, match="layer 0: variant"):
            inherit_network(Network([conv]), 2, 2, variant=variant)


    @pytest.mark.parametrize("variant", ["standard", "no-gate", "no-svd"])
    def test_conv_rejects_input_gating(self, variant):
        conv = Conv2DLayer(philox(67, 0).standard_normal((5, 2, 3, 3)))
        with pytest.raises(RangeError, match="pooled code"):
            inherit_layer(conv, 2, 2, variant, gate_input="input")
        with pytest.raises(RangeError, match="layer 2: a conv layer gates on its pooled code"):
            inherit_network(Network([DenseLayer(np.eye(3)), ReluLayer(), conv]), 2, 2,
                            variant=variant, gate_input="input")


class TestInheritNetwork:
    def test_network_inheritance_preserves_activations(self):
        gen = philox(27, 0)
        teacher = Network([DenseLayer(gen.standard_normal((6, 8)), np.zeros(8)),
                           ReluLayer(),
                           DenseLayer(gen.standard_normal((8, 3)), np.zeros(3))])
        student = inherit_network(teacher, r=3, h=2)
        assert len(student.layers) == 3
        assert isinstance(student.layers[1], ReluLayer)

    def test_rank_error_names_layer(self):
        gen = philox(28, 0)
        teacher = Network([DenseLayer(gen.standard_normal((6, 8))),
                           ReluLayer(),
                           DenseLayer(gen.standard_normal((8, 3)))])
        with pytest.raises(RangeError, match="layer 2"):
            inherit_network(teacher, r=5, h=2)

    @pytest.mark.parametrize("r,h,field", [(2.5, 2, "rank"), (2, 2.0, "head count")])
    def test_non_integer_rank_or_head_count_is_named(self, r, h, field):
        teacher = Network([DenseLayer(philox(28, 1).standard_normal((6, 8)))])
        with pytest.raises(RangeError, match=f"layer 0: {field} must be an integer"):
            inherit_network(teacher, r, h)

    def test_numpy_integer_rank_and_head_count_accepted(self):
        teacher = Network([DenseLayer(philox(28, 2).standard_normal((6, 8)))])
        student = inherit_network(teacher, np.int64(3), np.int32(2))
        plain = inherit_network(teacher, 3, 2)
        assert np.array_equal(student.param_vector(), plain.param_vector())

    def test_cap_rank_clamps(self):
        gen = philox(29, 0)
        teacher = Network([DenseLayer(gen.standard_normal((6, 8))),
                           ReluLayer(),
                           DenseLayer(gen.standard_normal((8, 3)))])
        student = inherit_network(teacher, r=5, h=2, cap_rank=True)
        assert student.layers[0].rank == 5
        assert student.layers[2].rank == 3

    def test_full_rank_network_matches_teacher(self):
        gen = philox(30, 0)
        teacher = Network([DenseLayer(gen.standard_normal((6, 8)),
                                      gen.standard_normal(8)),
                           ReluLayer(),
                           DenseLayer(gen.standard_normal((8, 3)),
                                      gen.standard_normal(3))])
        student = inherit_network(teacher, r=6, h=3, cap_rank=True)
        x = gen.standard_normal((20, 6))
        assert np.max(np.abs(student.forward(x) - teacher.forward(x))) < 1e-8


class TestNonFiniteTeacher:
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("field,value", [("weight", np.nan), ("bias", np.nan),
                                             ("weight", np.inf), ("bias", -np.inf)])
    def test_dense_field_is_named(self, variant, field, value):
        """Every variant, ``no-svd`` too, which takes no SVD, refuses the
        teacher before it builds a student whose forward would be NaN."""
        teacher = DenseLayer(np.eye(4)[:, :3], np.array([0.0, 1.0, 1.0]))
        teacher.params[field][1] = value
        with pytest.raises(NumericalError, match=f"^teacher {field} holds NaN or Inf$"):
            inherit_layer(teacher, 2, 2, variant)

    @pytest.mark.parametrize("variant", ["standard", "no-gate", "no-svd"])
    @pytest.mark.parametrize("field", ["kernel", "bias"])
    def test_conv_field_is_named(self, variant, field):
        gen = philox(69, 0)
        teacher = Conv2DLayer(gen.standard_normal((5, 2, 3, 3)), bias=gen.standard_normal(5))
        teacher.params[field].flat[3] = np.nan
        with pytest.raises(NumericalError, match=f"^teacher {field} holds NaN or Inf$"):
            inherit_layer(teacher, 2, 2, variant)

    def test_network_error_names_the_layer(self):
        gen = philox(69, 1)
        teacher = Network([DenseLayer(gen.standard_normal((6, 8)), gen.standard_normal(8)),
                           ReluLayer(),
                           DenseLayer(gen.standard_normal((8, 3)), gen.standard_normal(3))])
        teacher.layers[2].params["bias"][0] = np.nan
        with pytest.raises(NumericalError, match="^layer 2: teacher bias holds NaN or Inf$"):
            inherit_network(teacher, 2, 2)
