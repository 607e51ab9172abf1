import numpy as np
import pytest

import copy
import itertools
import pickle
import tracemalloc

from inhernet import io, nn
from inhernet.errors import RangeError, ShapeError, StateError
from inhernet.experiments import perturb_heads
from inhernet.inherit import inherit_conv, inherit_dense, inherit_layer
from inhernet.nn import (Conv2DLayer, DenseLayer, Network, ReluLayer, accuracy, col2im,
                         cross_entropy, cross_entropy_value, finite_difference_grad,
                         forward_in_blocks, im2col, kn2row, kn2row_backward, make_mlp,
                         mse_loss, mse_value)
from inhernet.rng import philox
from oracles import conv_loops


def straight_line_mlp(weights, biases, x):
    """Independent re-implementation of a ReLU MLP forward pass."""
    h = x
    for i, (w, b) in enumerate(zip(weights, biases)):
        h = h @ w + b
        if i < len(weights) - 1:
            h = np.maximum(h, 0.0)
    return h


def max_relative_fd_deviation(net, loss_fn, x, y, step=1e-5):
    out = net.forward(x)
    _, grad = loss_fn(out, y)
    net.zero_grads()
    net.backward(grad)
    fd = finite_difference_grad(net, loss_fn, x, y, step)
    worst = 0.0
    for key, g in net.grad_items().items():
        mask = np.abs(g) > 1e-6
        if mask.any():
            worst = max(worst, float((np.abs(g - fd[key])[mask]
                                      / np.abs(g)[mask]).max()))
    return worst


class TestForward:
    def test_identity_dense(self):
        layer = DenseLayer(np.eye(4), np.zeros(4))
        x = philox(1, 0).standard_normal((3, 4))
        assert np.array_equal(layer.forward(x), x)

    def test_two_layer_associativity(self):
        gen = philox(2, 0)
        a = gen.standard_normal((5, 6))
        b = gen.standard_normal((6, 4))
        x = gen.standard_normal((7, 5))
        two = Network([DenseLayer(a), DenseLayer(b)]).forward(x)
        one = Network([DenseLayer(a @ b)]).forward(x)
        assert np.max(np.abs(two - one)) < 1e-12

    def test_against_straight_line_oracle(self):
        net = make_mlp([6, 10, 8, 3], seed=11)
        ws = [l.weight for l in net.layers if isinstance(l, DenseLayer)]
        bs = [l.bias for l in net.layers if isinstance(l, DenseLayer)]
        x = philox(3, 0).standard_normal((9, 6))
        assert np.max(np.abs(net.forward(x) - straight_line_mlp(ws, bs, x))) < 1e-12

    def test_shape_error_names_layer(self):
        net = Network([DenseLayer(np.ones((3, 2))), DenseLayer(np.ones((5, 2)))])
        with pytest.raises(ShapeError, match="layer 1"):
            net.forward(np.ones((1, 3)))

    def test_zero_input_zero_bias_zero_output(self):
        layer = DenseLayer(philox(4, 0).standard_normal((4, 3)))
        assert np.array_equal(layer.forward(np.zeros((2, 4))), np.zeros((2, 3)))


class TestBackward:
    def test_zero_gradient_at_exact_fit(self):
        gen = philox(5, 0)
        w = gen.standard_normal((4, 3))
        x = gen.standard_normal((6, 4))
        net = Network([DenseLayer(w)])
        y = net.forward(x)
        loss, grad = mse_loss(net.forward(x), y)
        net.zero_grads()
        net.backward(grad)
        assert loss == 0.0
        assert np.max(np.abs(net.grad_items()["0.weight"])) == 0.0

    def test_closed_form_single_sample(self):
        gen = philox(6, 0)
        w = gen.standard_normal((2, 2))
        x = gen.standard_normal((1, 2))
        y = gen.standard_normal((1, 2))
        net = Network([DenseLayer(w)])
        _, grad = mse_loss(net.forward(x), y)
        net.zero_grads()
        net.backward(grad)
        expected = 2.0 * x.T @ (x @ w - y) / 2.0   # n_out = 2
        assert np.max(np.abs(net.grad_items()["0.weight"] - expected)) < 1e-12

    def test_mlp_matches_finite_differences(self):
        gen = philox(7, 0)
        net = make_mlp([5, 8, 4], seed=3)
        x = gen.standard_normal((6, 5))
        y = gen.standard_normal((6, 4))
        assert max_relative_fd_deviation(net, mse_loss, x, y) < 1e-4

    def test_backward_before_forward(self):
        layer = DenseLayer(np.ones((2, 2)))
        with pytest.raises(StateError):
            layer.backward(np.ones((1, 2)))

    @pytest.mark.parametrize("seed", range(20))
    def test_gradient_check_each_layer_type(self, seed):
        gen = philox(100 + seed, 0)
        net = Network([DenseLayer(gen.standard_normal((5, 7)),
                                  gen.standard_normal(7)),
                       ReluLayer(),
                       DenseLayer(gen.standard_normal((7, 3)))])
        x = gen.standard_normal((4, 5))
        y = gen.standard_normal((4, 3))
        assert max_relative_fd_deviation(net, mse_loss, x, y) < 1e-4


def gated(layer, gen):
    """``layer`` with a gate that is no longer uniform."""
    layer.params["gate_weight"][...] = gen.standard_normal(layer.params["gate_weight"].shape)
    return layer


# first-layer kind -> (layer, input batch); inherit_conv on both sides of its lowering rule
FIRST_LAYERS = {
    "dense": lambda gen: (DenseLayer(gen.standard_normal((5, 4)), gen.standard_normal(4)),
                          gen.standard_normal((6, 5))),
    "conv2d": lambda gen: (Conv2DLayer(gen.standard_normal((4, 3, 3, 3)), padding=1,
                                       bias=gen.standard_normal(4)),
                           gen.standard_normal((2, 3, 6, 6))),
    "inherit_dense_code": lambda gen: (
        gated(inherit_dense(gen.standard_normal((5, 4)), 2, 3, bias=gen.standard_normal(4)),
              gen), gen.standard_normal((6, 5))),
    "inherit_dense_input": lambda gen: (
        gated(inherit_dense(gen.standard_normal((5, 4)), 2, 3, gate_input="input"), gen),
        gen.standard_normal((6, 5))),
    "inherit_conv_kn2row": lambda gen: (
        gated(inherit_conv(gen.standard_normal((4, 3, 3, 3)), 2, 3, padding=1,
                           bias=gen.standard_normal(4)), gen),
        gen.standard_normal((2, 3, 6, 6))),
    "inherit_conv_im2col": lambda gen: (
        gated(inherit_conv(gen.standard_normal((4, 3, 3, 3)), 3, 3, stride=2, padding=1,
                           bias=gen.standard_normal(4)), gen),
        gen.standard_normal((2, 3, 7, 7))),
}


# manifest kind -> (layer, input batch): one layer of every kind a checkpoint holds
EVERY_KIND = {
    "dense": lambda gen: (DenseLayer(gen.standard_normal((5, 4)), gen.standard_normal(4)),
                          gen.standard_normal((6, 5))),
    "relu": lambda gen: (ReluLayer(), gen.standard_normal((6, 5))),
    "conv2d": FIRST_LAYERS["conv2d"],
    "inherit_dense": FIRST_LAYERS["inherit_dense_code"],
    "inverse": lambda gen: (gated(inherit_layer(DenseLayer(gen.standard_normal((5, 4)),
                                                           gen.standard_normal(4)), 2, 3,
                                                "inverse"), gen), gen.standard_normal((6, 5))),
    "symmetric": lambda gen: (gated(inherit_layer(DenseLayer(gen.standard_normal((5, 4)),
                                                             gen.standard_normal(4)), 2, 3,
                                                  "symmetric"), gen), gen.standard_normal((6, 5))),
    "inherit_conv": FIRST_LAYERS["inherit_conv_im2col"],
}


class TestSavedSlot:
    """A layer's forward-to-backward state is its ``saved`` slot, which copies
    and pickles drop."""

    def test_every_manifest_kind_is_built(self):
        assert EVERY_KIND.keys() == io.LAYER_KINDS.keys()

    @pytest.mark.parametrize("kind", list(io.LAYER_KINDS))
    def test_a_backward_needs_a_forward_of_the_same_layer(self, kind):
        gen = philox(38, 0)
        layer, x = EVERY_KIND[kind](gen)
        assert layer.kind == kind
        with pytest.raises(StateError, match="backward called before forward"):
            layer.backward(np.ones(1))
        gy = gen.standard_normal(layer.forward(x).shape)
        dx = layer.backward(gy)
        for twin in (copy.deepcopy(layer), pickle.loads(pickle.dumps(layer))):
            assert twin.saved is None
            with pytest.raises(StateError, match="backward called before forward"):
                twin.backward(gy)
            twin.forward(x)
            assert np.array_equal(twin.backward(gy), dx)

    @pytest.mark.parametrize("kind", list(io.LAYER_KINDS))
    def test_a_network_pickles_to_the_same_bytes_after_a_step(self, kind):
        gen = philox(39, 0)
        layer, x = EVERY_KIND[kind](gen)
        net = Network([layer])
        before = pickle.dumps(net)
        net.zero_grads()
        net.backward(gen.standard_normal(net.forward(x).shape))
        net.zero_grads()
        assert layer.saved is not None and pickle.dumps(net) == before
        with pytest.raises(StateError):
            copy.deepcopy(net).backward(np.ones(1))


class TestFirstLayerBackward:
    @pytest.mark.parametrize("kind", list(FIRST_LAYERS))
    def test_network_backward_drops_only_the_input_gradient(self, kind):
        gen = philox(30, 0)
        layer, x = FIRST_LAYERS[kind](gen)
        # a backward that raises inside the first layer, here one before any forward
        probe = copy.deepcopy(layer)
        with pytest.raises(StateError):
            Network([probe]).backward(np.ones(1))
        assert probe.input_grad and "input_grad" not in vars(probe)
        net = Network([layer, ReluLayer()])
        _, grad = mse_loss(net.forward(x), gen.standard_normal(net.forward(x).shape))
        net.zero_grads()
        dx = grad
        for each in reversed(net.layers):
            dx = each.backward(dx)
        walked = net.grad_vector().copy()
        net.zero_grads()
        assert net.backward(grad) is None
        assert net.grad_vector().tobytes() == walked.tobytes()
        assert dx.shape == x.shape
        assert np.array_equal(layer.backward(net.layers[1].backward(grad)), dx)

    def test_input_gated_first_layer_skips_the_gate_input_product(self, monkeypatch):
        gen = philox(31, 0)
        layer, x = FIRST_LAYERS["inherit_dense_input"](gen)
        returned = []
        gate_backward = type(layer)._gate_backward
        monkeypatch.setattr(type(layer), "_gate_backward",
                            lambda self, *a: returned.append(gate_backward(self, *a)) or returned[-1])
        net = Network([layer])
        w = gen.standard_normal(net.forward(x).shape)
        net.zero_grads()
        net.backward(w)
        assert returned[-1] is None
        skipped = net.grad_vector().copy()
        net.zero_grads()
        dx = layer.backward(w)
        assert returned[-1].shape == x.shape
        assert net.grad_vector().tobytes() == skipped.tobytes()
        # dL/dx of L = sum(w * f(x)), by central differences
        step, numeric = 1e-6, np.zeros_like(x)
        for idx in np.ndindex(x.shape):
            xp, xm = x.copy(), x.copy()
            xp[idx] += step
            xm[idx] -= step
            numeric[idx] = np.sum(w * (layer.forward(xp) - layer.forward(xm))) / (2 * step)
        assert np.max(np.abs(dx - numeric)) < 1e-6


class TestForwardInBlocks:
    def test_blocks_fill_one_array_and_one_block_is_the_forward_itself(self):
        net = make_mlp([4, 8, 3], seed=0)
        x = philox(44, 0).standard_normal((1025, 4))
        outputs = []
        forward = net.forward
        net.forward = lambda xb: outputs.append(forward(xb)) or outputs[-1]
        out = forward_in_blocks(net, x)
        assert [len(o) for o in outputs] == [512, 512, 1]
        # the one-row tail runs through GEMV, which may round differently
        assert np.allclose(out, forward(x), rtol=1e-13, atol=1e-13)
        outputs.clear()
        assert forward_in_blocks(net, x[:512]) is outputs[-1]
        assert [len(o) for o in outputs] == [512]
        with pytest.raises(RangeError, match="block"):
            forward_in_blocks(net, x, 0)


class TestConv:
    def test_forward_matches_loop_oracle(self):
        gen = philox(8, 0)
        for kernel_shape, stride, pad in [((4, 3, 5, 5), 1, 2),
                                          ((2, 3, 3, 3), 2, 1),
                                          ((3, 1, 1, 1), 1, 0)]:
            k = gen.standard_normal(kernel_shape)
            x = gen.standard_normal((2, kernel_shape[1], 7, 7))
            layer = Conv2DLayer(k, stride=stride, padding=pad)
            assert np.max(np.abs(layer.forward(x)
                                 - conv_loops(x, k, stride, pad))) < 1e-10

    def test_gradients_match_finite_differences(self):
        gen = philox(9, 0)
        layer = Conv2DLayer(gen.standard_normal((3, 2, 3, 3)), stride=1,
                            padding=1, bias=gen.standard_normal(3))
        x = gen.standard_normal((2, 2, 5, 5))
        y = gen.standard_normal((2, 3, 5, 5))
        assert max_relative_fd_deviation(Network([layer]), mse_loss, x, y) < 1e-4

    def test_invalid_geometry(self):
        layer = Conv2DLayer(np.ones((1, 1, 5, 5)))
        with pytest.raises(ShapeError):
            layer.forward(np.ones((1, 1, 3, 3)))

    @pytest.mark.parametrize("padding", [0, 1])
    def test_stride_two_gradients_match_finite_differences(self, padding):
        gen = philox(10 + padding, 0)
        layer = Conv2DLayer(gen.standard_normal((3, 2, 3, 3)), stride=2,
                            padding=padding, bias=gen.standard_normal(3))
        x = gen.standard_normal((2, 2, 5, 7))
        y = gen.standard_normal(layer.forward(x).shape)
        # a leading 1x1 identity conv checks the input gradient (col2im) too
        lead = Conv2DLayer(np.eye(2)[:, :, None, None])
        assert max_relative_fd_deviation(Network([lead, layer]), mse_loss, x, y) < 1e-4

    @pytest.mark.parametrize("build", [
        lambda k: Conv2DLayer(k, stride=2, padding=1, bias=np.ones(len(k))),
        lambda k: inherit_conv(k, 2, 3, stride=2, padding=1, bias=np.ones(len(k)))],
        ids=["conv2d", "inherit_conv"])
    def test_output_is_c_contiguous_nchw(self, build):
        gen = philox(12, 0)
        layer = build(gen.standard_normal((4, 3, 3, 3)))
        out = layer.forward(gen.standard_normal((2, 3, 7, 9)))
        assert out.shape == (2, 4, 4, 5) and out.flags.c_contiguous


def valid_size(k: int, stride: int, padding: int, at_least: int) -> int:
    """The smallest image side >= ``at_least`` that the conv geometry tiles exactly."""
    size = at_least
    while (size + 2 * padding - k) % stride or size + 2 * padding < k:
        size += 1
    return size


class TestIm2col:
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    @pytest.mark.parametrize("kh,kw", [(1, 1), (3, 3), (2, 3)])
    def test_col2im_is_the_adjoint(self, stride, padding, kh, kw):
        gen = philox(13, 0)
        h = valid_size(kh, stride, padding, 5)
        w = valid_size(kw, stride, padding, h + 2)          # non-square
        x = gen.standard_normal((2, 3, h, w))
        cols = im2col(x, kh, kw, stride, padding)
        g = gen.standard_normal(cols.shape)
        lhs = float(np.sum(cols * g))
        rhs = float(np.sum(x * col2im(g, x.shape, kh, kw, stride, padding)))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_channels_first_layout(self):
        gen = philox(14, 0)
        x = gen.standard_normal((2, 3, 5, 7))
        stride, padding, kh, kw = 2, 1, 3, 3
        cols = im2col(x, kh, kw, stride, padding)
        assert cols.shape == (2, 3 * kh * kw, 3 * 4) and cols.flags.c_contiguous
        xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
        for c, i, j in itertools.product(range(3), range(kh), range(kw)):
            row = cols[:, (c * kh + i) * kw + j].reshape(2, 3, 4)
            assert np.array_equal(row, xp[:, c, i:i + 5:stride, j:j + 7:stride])


KN2ROW_GEOMETRY = pytest.mark.parametrize("stride,padding,kh,kw", [
    (s, p, kh, kw) for s in (1, 2) for p in (0, 1, 2) for kh, kw in ((1, 1), (3, 3), (2, 3))])


class TestKn2row:
    def case(self, stride, padding, kh, kw, c=3, r=2):
        gen = philox(16, 0)
        h = valid_size(kh, stride, padding, 5)
        w = valid_size(kw, stride, padding, h + 2)          # non-square
        return gen, gen.standard_normal((2, c, h, w)), gen.standard_normal((r, c, kh, kw))

    @KN2ROW_GEOMETRY
    def test_forward_matches_the_im2col_oracle(self, stride, padding, kh, kw):
        _, x, k = self.case(stride, padding, kh, kw)
        y, kept = kn2row(x, k, stride, padding)
        want = k.reshape(len(k), -1) @ im2col(x, kh, kw, stride, padding)
        assert y.ndim == 4 and y.shape[:2] == want.shape[:2] and y.flags.c_contiguous
        assert np.linalg.norm(y.reshape(want.shape) - want) <= 1e-12 * np.linalg.norm(want)
        assert kept is x

    @KN2ROW_GEOMETRY
    def test_input_gradient_is_the_adjoint(self, stride, padding, kh, kw):
        gen, x, k = self.case(stride, padding, kh, kw)
        y, xp = kn2row(x, k, stride, padding)
        g = gen.standard_normal(y.shape)
        _, dx = kn2row_backward(g, xp, k, stride, padding)
        lhs, rhs = float(np.sum(y * g)), float(np.sum(x * dx))
        assert dx.shape == x.shape and dx.flags.c_contiguous
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    @pytest.mark.parametrize("stride,padding,kh,kw", [(1, 1, 3, 3), (2, 0, 2, 3), (2, 2, 1, 1)])
    def test_kernel_gradient_matches_finite_differences(self, stride, padding, kh, kw):
        gen, x, k = self.case(stride, padding, kh, kw)
        g = gen.standard_normal(kn2row(x, k, stride, padding)[0].shape)
        dk, _ = kn2row_backward(g, kn2row(x, k, stride, padding)[1], k, stride, padding)
        step, fd = 1e-6, np.zeros_like(k)
        for idx in np.ndindex(k.shape):
            kp, km = k.copy(), k.copy()
            kp[idx] += step
            km[idx] -= step
            fd[idx] = (np.sum(kn2row(x, kp, stride, padding)[0] * g)
                       - np.sum(kn2row(x, km, stride, padding)[0] * g)) / (2 * step)
        assert np.abs(dk - fd).max() <= 1e-6 * max(1.0, np.abs(fd).max())

    def test_a_strided_input_is_kept_as_a_contiguous_copy(self):
        gen, x, k = self.case(1, 1, 3, 3)
        wide = np.repeat(x, 2, axis=3)
        strided = wide[:, :, :, ::2]
        y, kept = kn2row(strided, k, 1, 1)
        assert kept is not strided and kept.flags.c_contiguous and np.array_equal(kept, x)
        assert np.array_equal(y, kn2row(x, k, 1, 1)[0])

    def test_layers_keep_the_input_they_were_handed(self):
        """Both conv kinds lower a many-channel input through kn2row and keep
        that input, not a padded copy, as their backward buffer."""
        gen = philox(17, 1)
        x = gen.standard_normal((2, 6, 5, 5))
        for layer in (Conv2DLayer(gen.standard_normal((2, 6, 3, 3)), padding=1),
                      inherit_conv(gen.standard_normal((6, 6, 3, 3)), 2, 3, padding=1)):
            layer.forward(x)
            assert layer.saved[0] is x

    def test_inherited_conv_caches_no_patch_matrix(self):
        """One 256-image forward at r=4 on 16 channels, which lowers through
        kn2row: what the layer keeps for its backward, apart from the input it
        was handed, stays under twice that input."""
        gen = philox(17, 0)
        x = gen.standard_normal((256, 16, 16, 16))
        layer = inherit_conv(gen.standard_normal((16, 16, 3, 3)), 4, 3, padding=1)
        layer.forward(x)
        cached = sum(v.nbytes for v in (*vars(layer).values(), *layer.saved)
                     if isinstance(v, np.ndarray) and v is not x)
        assert cached < 2 * x.nbytes

    def test_inherited_conv_backward_before_forward(self):
        layer = inherit_conv(philox(18, 0).standard_normal((3, 2, 3, 3)), 2, 2, padding=1)
        with pytest.raises(StateError):
            layer.backward(np.ones((1, 3, 4, 4)))


def images_per_block(c: int, kh: int, kw: int, oh: int, ow: int) -> int:
    """How many images' im2col patches fit in ``nn.LOWER_BLOCK_BYTES``."""
    return nn.LOWER_BLOCK_BYTES // (c * kh * kw * oh * ow * 8)


class TestBlockedIm2col:
    """An im2col lowering whose batch's patches outgrow ``LOWER_BLOCK_BYTES``
    runs block by block and keeps its input instead of a patch matrix."""

    @pytest.mark.parametrize("stride,side", [(1, 16), (2, 17)], ids=["stride-1", "stride-2"])
    def test_conv2d_matches_a_whole_batch_lowering_bit_for_bit(self, stride, side):
        gen = philox(19, stride)
        k, bias = gen.standard_normal((16, 16, 3, 3)), gen.standard_normal(16)
        o = (side + 2 - 3) // stride + 1
        n = images_per_block(16, 3, 3, o, o)
        x = gen.standard_normal((3 * n - 1, 16, side, side))    # blocks of n, n and n - 1
        layer = Conv2DLayer(k, stride=stride, padding=1, bias=bias)
        y = layer.forward(x)
        gy = gen.standard_normal(y.shape)
        dx = layer.backward(gy)
        assert layer.saved[0] is x
        cols = im2col(x, 3, 3, stride, 1)
        g = gy.reshape(len(x), 16, -1)
        assert np.array_equal(y, (k.reshape(16, -1) @ cols).reshape(y.shape) + bias[:, None, None])
        assert np.array_equal(layer.grads["kernel"],
                              np.matmul(g, cols.transpose(0, 2, 1)).sum(axis=0).reshape(k.shape))
        assert np.array_equal(layer.grads["bias"], gy.sum(axis=(0, 2, 3)))
        assert np.array_equal(dx, col2im(k.reshape(16, -1).T @ g, x.shape, 3, 3, stride, 1))

    def test_inherited_conv_matches_one_block_bit_for_bit(self, monkeypatch):
        """8 channels into an r = 8 code lowers through im2col; 41 images span
        three blocks, and the same layer with the whole batch as one block is
        the reference."""
        gen = philox(20, 0)
        x = gen.standard_normal((41, 8, 16, 16))
        assert images_per_block(8, 3, 3, 16, 16) < 41 / 2
        layer = inherit_conv(gen.standard_normal((16, 8, 3, 3)), 8, 3, padding=1,
                             bias=gen.standard_normal(16))
        gy = gen.standard_normal((41, 16, 16, 16))
        runs = []
        for budget in (nn.LOWER_BLOCK_BYTES, 1 << 40):
            monkeypatch.setattr(nn, "LOWER_BLOCK_BYTES", budget)
            layer.zero_grads()
            y = layer.forward(x)
            runs.append((y, layer.backward(gy), layer.grad_flat.copy(), layer.saved[0] is x))
        (y, dx, grads, kept_x), (y1, dx1, grads1, kept_x1) = runs
        assert kept_x and not kept_x1
        assert np.array_equal(y, y1) and np.array_equal(dx, dx1)
        assert np.array_equal(grads, grads1)

    @pytest.mark.parametrize("build", [
        lambda k: Conv2DLayer(k, padding=1),
        lambda k: inherit_conv(k, 3, 2, padding=1)], ids=["conv2d", "inherit_conv"])
    def test_what_the_layer_keeps(self, build):
        """One block keeps its patch matrix; several keep the input itself."""
        gen = philox(21, 0)
        layer = build(gen.standard_normal((4, 3, 3, 3)))
        n = images_per_block(3, 3, 3, 16, 16)
        small = gen.standard_normal((n, 3, 16, 16))
        layer.forward(small)
        assert np.array_equal(layer.saved[0], im2col(small, 3, 3, 1, 1))
        large = gen.standard_normal((n + 1, 3, 16, 16))
        layer.forward(large)
        assert layer.saved[0] is large

    @pytest.mark.parametrize("channels,budget,kept_shape", [
        (6, None, (0, 6, 5, 5)), (2, None, (0, 18, 25)), (2, 1, (0, 18, 25))],
        ids=["kn2row", "im2col-one-block", "im2col-one-image-blocks"])
    def test_an_empty_batch_lowers_once(self, monkeypatch, channels, budget, kept_shape):
        """A 0-image batch still unfolds once: the forward returns and keeps
        empty arrays of a batch's shapes, and the backward a zero kernel
        gradient and an empty dL/dx."""
        if budget is not None:
            monkeypatch.setattr(nn, "LOWER_BLOCK_BYTES", budget)
        kernel = philox(23, 0).standard_normal((4, channels, 3, 3))
        x = np.zeros((0, channels, 5, 5))
        y, kept = nn.conv_lowered(x, kernel, 1, 1)
        assert y.shape == (0, 4, 5, 5) and y.flags.c_contiguous and kept.shape == kept_shape
        dk, dx = nn.conv_lowered_backward(np.zeros(y.shape), kept, x.shape, kernel, 1, 1, True)
        assert dk.shape == kernel.shape and not dk.any() and dx.shape == x.shape

    def test_peak_memory_follows_the_block_not_the_batch(self):
        """A 64-image forward of a 16->16 3x3 conv on 16x16 images: its whole-
        batch patch matrix would be 18.9 MB."""
        gen = philox(22, 0)
        layer = Conv2DLayer(gen.standard_normal((16, 16, 3, 3)), padding=1, bias=np.zeros(16))
        x = gen.standard_normal((64, 16, 16, 16))
        tracemalloc.start()
        try:
            y = layer.forward(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < y.nbytes + 2 * nn.LOWER_BLOCK_BYTES

    def test_first_layer_over_several_blocks_forms_only_its_kernel_gradient(self):
        gen = philox(23, 0)
        k = gen.standard_normal((16, 16, 3, 3))
        layer = Conv2DLayer(k, padding=1)
        x = gen.standard_normal((2 * images_per_block(16, 3, 3, 16, 16) + 1, 16, 16, 16))
        returned = []
        backward = layer.backward
        layer.backward = lambda g: returned.append(backward(g))
        net = Network([layer])
        gy = gen.standard_normal(net.forward(x).shape)
        net.backward(gy)
        assert returned == [None]
        cols = im2col(x, 3, 3, 1, 1)
        want = np.matmul(gy.reshape(len(x), 16, -1), cols.transpose(0, 2, 1)).sum(axis=0)
        assert np.array_equal(layer.grads["kernel"], want.reshape(k.shape))


class TestRelu:
    def test_nan_signed_zero_and_negatives_give_positive_zero(self):
        # lengths 1..17 reach both the vector loop and its scalar tail
        for n in range(1, 18):
            x = np.full(n, -0.0)
            x[::3] = np.nan
            x[1::3] = -2.5
            y = ReluLayer().forward(x)
            assert np.all(y == 0.0) and not np.signbit(y).any()

    def test_forward_bit_equal_to_where(self):
        x = philox(15, 0).standard_normal((37, 11))
        y = ReluLayer().forward(x)
        assert y.tobytes() == np.where(x > 0, x, 0.0).tobytes()

    def test_backward_is_zero_on_inactive_units(self):
        gen = philox(16, 0)
        x = gen.standard_normal((9, 13))
        x[0, :4] = [0.0, -0.0, np.nan, 1e-300]
        layer = ReluLayer()
        layer.forward(x)
        g = gen.standard_normal(x.shape)
        grad = layer.backward(g)
        active = x > 0
        assert np.array_equal(grad[active], g[active])
        assert np.all(grad[~active] == 0.0)

    def test_backward_before_forward(self):
        with pytest.raises(StateError):
            ReluLayer().backward(np.ones(3))

    def test_backward_is_the_mask_product_bit_for_bit(self):
        """``grad * (y > 0)`` exactly: signed zeros, Inf and NaN in the
        gradient, odd lengths and a strided gradient included."""
        gen = philox(17, 0)
        specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-310, -1e-310, 5.0, -5.0])
        for n in (1, 2, 3, 7, 9, 17, 33, 101):
            x = gen.standard_normal(n)
            x[::4] = -0.0
            x[1::5] = np.nan
            x[2::6] = 0.0
            layer = ReluLayer()
            y = layer.forward(x)
            g = np.resize(specials, n) * np.where(gen.random(n) < 0.5, 1.0, -1.0)
            g[gen.random(n) < 0.3] = specials[gen.integers(0, len(specials))]
            with np.errstate(invalid="ignore"):                 # Inf * 0
                assert layer.backward(g).tobytes() == (g * (y > 0.0)).tobytes()
        x = gen.standard_normal((5, 6, 7))
        layer = ReluLayer()
        y = layer.forward(x)
        g = gen.standard_normal((5, 6, 14))[:, :, ::2]
        assert layer.backward(g).tobytes() == (g * (y > 0.0)).tobytes()


class TestCrossEntropy:
    @pytest.mark.parametrize("b, k", [(1, 2), (5, 4), (1300, 3), (64, 96)])
    def test_value_is_the_loss_bit_for_bit(self, b, k):
        gen = philox(13, b)
        logits = 4.0 * gen.standard_normal((b, k))
        labels = gen.integers(0, k, size=b)
        assert np.float64(cross_entropy_value(logits, labels)).tobytes() == \
            np.float64(cross_entropy(logits, labels)[0]).tobytes()
        assert cross_entropy_value(logits, labels.tolist()) == cross_entropy(logits, labels)[0]
        for bad, error in (((logits, labels + k), RangeError), ((logits, labels * 1.0), RangeError),
                           ((logits[:0], labels[:0]), ShapeError),
                           ((logits, labels[:-1]), ShapeError)):
            with pytest.raises(error):
                cross_entropy_value(*bad)

    def test_uniform_logits(self):
        loss, _ = cross_entropy(np.zeros((4, 6)), np.array([0, 1, 2, 3]))
        assert abs(loss - np.log(6)) < 1e-12

    def test_confident_correct_limit(self):
        logits = np.zeros((2, 3))
        logits[0, 1] = 50.0
        logits[1, 2] = 50.0
        loss, _ = cross_entropy(logits, np.array([1, 2]))
        assert loss < 1e-12

    def test_against_high_precision_reference(self):
        # batch regenerated from its Philox key; loss computed with
        # 50-digit decimal arithmetic
        gen = philox(2024, 0)
        logits = gen.standard_normal((5, 4))
        labels = gen.integers(0, 4, size=5)
        loss, _ = cross_entropy(logits, labels)
        assert abs(loss - 1.689304928038380974027118) < 1e-12

    def test_gradient_is_softmax_minus_onehot(self):
        gen = philox(12, 0)
        logits = gen.standard_normal((3, 4))
        labels = np.array([1, 0, 3])
        _, grad = cross_entropy(logits, labels)
        from inhernet.linalg import softmax
        expected = softmax(logits)
        for i, lab in enumerate(labels):
            expected[i, lab] -= 1.0
        assert np.max(np.abs(grad - expected / 3)) < 1e-14

    def test_label_out_of_range(self):
        with pytest.raises(RangeError):
            cross_entropy(np.zeros((2, 3)), np.array([0, 3]))

    @pytest.mark.parametrize("labels", [np.array([0.0, 1.0]), np.array([True, False])],
                             ids=["float", "bool"])
    def test_labels_of_a_non_integer_dtype_rejected(self, labels):
        with pytest.raises(RangeError, match="labels must be integers"):
            cross_entropy(np.zeros((2, 3)), labels)

    def test_empty_batch_names_the_batch(self):
        with pytest.raises(ShapeError, match="empty batch"):
            cross_entropy(np.zeros((0, 3)), np.zeros(0, dtype=np.int64))

    def test_accuracy(self):
        logits = np.array([[1.0, 2.0], [5.0, 1.0]])
        assert accuracy(logits, np.array([1, 0])) == 1.0


class TestMse:
    def test_gradient_bit_equal_to_the_plain_form(self):
        # 7 * 13 * 3 entries: dividing by a size that is not a power of two rounds
        gen = philox(31, 0)
        pred, target = gen.standard_normal((7, 13, 3)), gen.standard_normal((7, 13, 3))
        loss, grad = mse_loss(pred, target)
        diff = pred - target
        assert np.array_equal(grad, 2.0 * diff / diff.size)
        assert abs(loss - float(np.mean(diff * diff))) <= 1e-14 * loss

    @pytest.mark.parametrize("size", [1, 2, 3, 5, 7, 16, 63, 64, 65, 273, 1024, 4096])
    def test_gradient_bit_equal_with_signed_zeros_inf_and_nan(self, size):
        """Odd sizes and powers of two alike match ``2.0 * diff / size``,
        subnormal, Inf and NaN entries included."""
        gen = philox(32, size)
        pred, target = gen.standard_normal(size), gen.standard_normal(size)
        pred[::3] *= 1e-310
        target[::3] *= 1e-310
        pred[1::4], target[1::4] = -0.0, 0.0
        pred[2::5], target[2::5] = 0.0, 0.0
        if size > 3:
            pred[3], pred[-1], target[-2] = np.inf, np.nan, -np.inf
        with np.errstate(invalid="ignore"):
            diff = pred - target
            _, grad = mse_loss(pred, target)
            assert grad.tobytes() == (2.0 * diff / diff.size).tobytes()

    def test_empty_batch_names_the_batch(self):
        with pytest.raises(ShapeError, match="empty batch"):
            mse_loss(np.zeros((0, 3)), np.zeros((0, 3)))

    @pytest.mark.parametrize("shape", [(1,), (7, 13, 3), (256, 16, 4, 4)])
    def test_value_is_the_loss_bit_for_bit(self, shape):
        gen = philox(33, len(shape))
        pred, target = gen.standard_normal(shape), gen.standard_normal(shape)
        assert np.float64(mse_value(pred, target)).tobytes() == \
            np.float64(mse_loss(pred, target)[0]).tobytes()
        for bad in ((np.zeros((0, 3)), np.zeros((0, 3))), (np.zeros((2, 3)), np.zeros((3, 2)))):
            with pytest.raises(ShapeError):
                mse_value(*bad)

    def test_integer_inputs_give_a_float_gradient(self):
        loss, grad = mse_loss(np.array([[3, 1]]), np.array([[1, 1]]))
        assert loss == 2.0 and grad.dtype == np.float64 and np.array_equal(grad, [[2.0, 0.0]])


class TestFiniteDifference:
    def test_quadratic_toy(self):
        # f(w) = w^2 via mse of a 1x1 layer against 0 on input 1: grad = 2w
        net = Network([DenseLayer(np.array([[3.0]]))])
        fd = finite_difference_grad(net, mse_loss, np.array([[1.0]]),
                                    np.array([[0.0]]), step=1e-5)
        assert abs(fd["0.weight"][0, 0] - 6.0) < 1e-6

    def test_cross_check_against_backward(self):
        gen = philox(13, 0)
        net = Network([DenseLayer(gen.standard_normal((3, 2)),
                                  gen.standard_normal(2))])
        x = gen.standard_normal((4, 3))
        y = gen.standard_normal((4, 2))
        assert max_relative_fd_deviation(net, mse_loss, x, y) < 1e-4

    def test_richardson_step_behavior(self):
        # per-parameter slices of cross-entropy are non-quadratic, so the
        # central-difference truncation error scales like step^2
        def dev(step):
            net = Network([DenseLayer(np.array([[0.9, -0.4], [0.2, 1.1]]))])
            x = np.array([[1.0, -2.0]])
            y = np.array([0])
            out = net.forward(x)
            _, grad = cross_entropy(out, y)
            net.zero_grads()
            net.backward(grad)
            fd = finite_difference_grad(net, cross_entropy, x, y, step)
            return float(np.max(np.abs(fd["0.weight"]
                                       - net.grad_items()["0.weight"])))

        assert dev(1e-2) > 50 * dev(1e-3)

    def test_step_must_be_positive(self):
        net = Network([DenseLayer(np.ones((1, 1)))])
        with pytest.raises(RangeError):
            finite_difference_grad(net, mse_loss, np.ones((1, 1)),
                                   np.ones((1, 1)), step=0.0)


class TestDeterminism:
    def test_bit_identical_forward(self):
        x = philox(14, 0).standard_normal((5, 6))
        a = make_mlp([6, 9, 2], seed=21).forward(x)
        b = make_mlp([6, 9, 2], seed=21).forward(x)
        assert np.array_equal(a, b)


def mixed_network(gen) -> Network:
    """Dense, ReLU, inherited dense (with head biases) and inherited conv layers."""
    return Network([
        DenseLayer(gen.standard_normal((4, 6)), gen.standard_normal(6)),
        ReluLayer(),
        inherit_dense(gen.standard_normal((6, 5)), 2, 3, bias=gen.standard_normal(5)),
        inherit_conv(gen.standard_normal((4, 2, 3, 3)), 2, 2, padding=1,
                     bias=gen.standard_normal(4)),
        Conv2DLayer(gen.standard_normal((3, 4, 3, 3)), padding=1),
    ])


def walk(layers, x):
    """Each layer's forward in turn, outside any network."""
    for layer in layers:
        x = layer.forward(x)
    return x


def assert_packed(net: Network) -> None:
    """Every parameter and gradient array is a view of the network's vectors, in order."""
    params, grads = net.param_items(), net.grad_items()
    vec, gvec = net.param_vector(), net.grad_vector()
    assert params.keys() == grads.keys()
    for key in params:
        assert np.shares_memory(params[key], vec), key
        assert np.shares_memory(grads[key], gvec), key
    assert np.array_equal(np.concatenate([p.ravel() for p in params.values()]), vec)
    assert vec.size == gvec.size == net.param_count()


class TestFlatStore:
    def test_every_array_is_a_view_of_the_flat_vectors(self):
        assert_packed(mixed_network(philox(30, 0)))

    def test_a_standalone_layer_holds_its_blocks_in_one_vector(self):
        gen = philox(36, 0)
        for layer in (DenseLayer(gen.standard_normal((4, 6)), gen.standard_normal(6)),
                      inherit_dense(gen.standard_normal((6, 5)), 2, 3, bias=gen.standard_normal(5)),
                      inherit_conv(gen.standard_normal((4, 2, 3, 3)), 2, 2)):
            for blocks, flat in ((layer.blocks, layer.flat), (layer.grad_blocks, layer.grad_flat)):
                assert all(np.shares_memory(b, flat) for b in blocks.values())
                assert np.array_equal(np.concatenate([b.ravel() for b in blocks.values()]), flat)
            assert layer.param_count() == layer.flat.size and not layer.grad_flat.any()

    def test_zero_grads_fill_in_place(self):
        net = mixed_network(philox(31, 0))
        before = net.grad_items()
        net.grad_vector()[...] = 1.0
        net.zero_grads()
        after = net.grad_items()
        assert all(after[k] is before[k] for k in before)
        assert not net.grad_vector().any()
        layer = net.layers[2]
        held = dict(layer.grads)
        layer.grads["head_1"][...] = 2.0
        layer.zero_grads()
        assert all(layer.grads[k] is held[k] for k in held)
        assert not any(g.any() for g in held.values())

    def test_vector_edits_reach_forward(self):
        net = mixed_network(philox(32, 0))
        x = philox(32, 1).standard_normal((2, 4))
        dense = Network(copy.deepcopy(net.layers[:3]))
        base = dense.forward(x)
        dense.param_vector()[...] *= 1.5
        assert not np.allclose(dense.forward(x), base)

    def test_perturb_heads_edits_reach_forward(self):
        gen = philox(33, 0)
        layer = inherit_dense(gen.standard_normal((6, 5)), 2, 3, gate_input="input")
        layer.params["gate_weight"][...] = gen.standard_normal((6, 3))
        net = Network([layer])
        x = gen.standard_normal((4, 6))
        base = net.forward(x)
        perturb_heads(net, seed=1)
        heads = [layer.params[f"head_{h}"] for h in range(3)]
        assert not np.array_equal(heads[0], heads[1])
        want = sum(g[:, h, None] * (x @ layer.params["w_down"] @ heads[h])
                   for g in [layer.gate_values(x, None)] for h in range(3))
        assert not np.allclose(net.forward(x), base)
        assert np.allclose(net.forward(x), want, rtol=1e-12, atol=1e-12)

    def test_a_bound_layer_refuses_a_second_network(self):
        net = mixed_network(philox(34, 0))
        gen = philox(34, 1)
        x, xc = gen.standard_normal((2, 4)), gen.standard_normal((2, 2, 5, 5))
        outputs = lambda: (walk(net.layers[:3], x), net.layers[3].forward(xc))
        base, vec = outputs(), net.param_vector().copy()
        for layer in net.layers[:4]:          # dense, ReLU, inherited dense, inherited conv
            with pytest.raises(StateError, match=rf"^layer 1 \({layer.kind}\) already belongs"):
                Network([DenseLayer(np.eye(4)), layer])
        assert_packed(net)
        assert np.array_equal(net.param_vector(), vec)
        assert all(np.array_equal(a, b) for a, b in zip(outputs(), base))
        twin = Network([copy.deepcopy(net.layers[3])])
        assert not np.shares_memory(twin.param_vector(), vec)
        assert np.array_equal(twin.forward(xc), base[1])

    def test_a_layer_appears_once_in_a_network(self):
        relu = ReluLayer()
        with pytest.raises(StateError, match=r"^layer 2 \(relu\)"):
            Network([relu, DenseLayer(np.eye(3)), relu])
        Network([relu])                       # the refused network bound nothing

    @pytest.mark.parametrize("copier", [copy.deepcopy,
                                        lambda n: pickle.loads(pickle.dumps(n))])
    def test_copies_get_their_own_vectors(self, copier):
        net = mixed_network(philox(35, 0))
        twin = copier(net)
        assert_packed(twin)
        assert not np.shares_memory(twin.param_vector(), net.param_vector())
        x = philox(35, 1).standard_normal((2, 4))
        assert np.array_equal(walk(twin.layers[:3], x), walk(net.layers[:3], x))
        twin.param_vector()[...] = 0.0
        assert not walk(twin.layers[:3], x).any() and walk(net.layers[:3], x).any()
