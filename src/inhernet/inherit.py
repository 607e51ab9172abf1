"""Gated low-rank inheritance of trained layers.

A teacher layer ``W`` (m-by-n) is replaced by one shared down-projection
``w_down = U_r sqrt(S_r)`` feeding ``H`` expert up-projections, each built
from ``sqrt(S_r) V_r^T``, combined per sample by softmax gating. Two
combiner conventions are supported:

* ``convex`` (default): every head holds the full ``sqrt(S_r) V_r^T``, so
  any convex gating of identical heads reproduces the rank-r teacher
  exactly at initialization.
* ``paper``: every head holds ``sqrt(S_r) V_r^T / H`` verbatim; uniform
  gating then reproduces only ``W_r / H``, since the gate output is a
  convex combination rather than a plain sum.

Gating can read the r-dimensional code (default, matching the
``H*(r+1)`` gate parameter count used in compression accounting) or the
raw input. Gate weights and bias start at zero, so gating is exactly
uniform at step 0. Convolution kernels are inherited by reshaping to
(N, c*kh*kw), factorizing, and realizing the factors as a shared spatial
convolution (r filters) followed by H gated 1x1 expansions; the gate reads
the spatial mean of the r-channel code map.

The H heads of an inherited layer are stored as one block, a stacked
(H, r, n) array for dense layers and (H, N, r) for convolutions, of which
each ``head_{h}`` parameter is a view (likewise the head biases, one
(H, n) block). The gated sum is evaluated in code space: the
gate-weighted codes ``g_h * z`` of all heads form one (B, H*r) matrix,
and a single GEMM against the stacked heads sums over heads and code
channels at once; the head biases add ``g @ head_bias``. Backward is two
GEMMs, and no step loops over heads in Python.
"""

from __future__ import annotations

import numpy as np

from . import rng as _rng
from .errors import RangeError, ShapeError
from .linalg import softmax, truncated_svd
from .nn import (Conv2DLayer, DenseLayer, Layer, Network, ReluLayer, col2im,
                 conv_output_size, im2col, kaiming_uniform)

COMBINER_MODES = ("convex", "paper")
GATE_INPUTS = ("code", "input")
VARIANTS = ("standard", "no-svd", "no-gate", "symmetric", "inverse")


def _check_mode(mode: str, gate_input: str) -> None:
    if mode not in COMBINER_MODES:
        raise RangeError(f"unknown combiner mode {mode!r}; expected one of {COMBINER_MODES}")
    if gate_input not in GATE_INPUTS:
        raise RangeError(f"unknown gate input {gate_input!r}; expected one of {GATE_INPUTS}")


# The gated head sum  y = sum_h g_h * (z @ head_h)  in code space, with codes
# z of shape (B, P, r): P = 1 for dense layers, one row per output pixel for
# convolutions. Head biases add ``g @ head_bias`` outside this core.

def _gated_codes(g: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Rows ``g_h * z`` for every head: (B*P, H*r)."""
    b, p, _ = z.shape
    return (g[:, None, :, None] * z[:, :, None, :]).reshape(b * p, -1)


def _mix_backward(gy: np.ndarray, g: np.ndarray, zg: np.ndarray, experts: np.ndarray):
    """Backward of ``y = zg @ experts`` for output gradient ``gy`` (B*P, n).

    ``experts`` is the (H*r, n) stack of code-to-output maps. Returns
    their gradient as (H, r, n), the code gradient (B, P, r), and
    ``dzg`` (B, P, H, r), the gradient wrt every head's code row, from
    which the layer forms its gate scores.
    """
    b, h = g.shape
    d_experts = (zg.T @ gy).reshape(h, -1, gy.shape[1])
    dzg = (gy @ experts.T).reshape(b, -1, h, d_experts.shape[1])
    gz = np.matmul(g[:, None, None, :], dzg)[:, :, 0]
    return d_experts, gz, dzg


def _softmax_backward(g: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Gradient wrt the gate logits, given the gate ``g`` and ``dL/dg = s``."""
    return g * (s - np.sum(g * s, axis=1, keepdims=True))


class InherNetLayer(Layer):
    """One shared down-projection, H gated expert up-projections.

    ``y = sum_h g_h(x) * (x @ w_down @ head_h + head_bias_h)`` with
    ``g = softmax(gate_in @ gate_weight + gate_bias)`` per sample, where
    ``gate_in`` is the code ``x @ w_down`` or the input ``x``. With
    ``gate_frozen`` the gate is pinned to exactly uniform weights and
    carries no trainable parameters. The heads are one (H, r, n) block.
    """

    stacked = {"heads": "head", "head_bias": "head_bias"}

    def __init__(self, w_down: np.ndarray, heads: list[np.ndarray],
                 gate_weight: np.ndarray, gate_bias: np.ndarray,
                 gate_input: str = "code", head_bias: list[np.ndarray] | None = None,
                 gate_frozen: bool = False):
        super().__init__()
        if gate_input not in GATE_INPUTS:
            raise RangeError(f"unknown gate input {gate_input!r}")
        if not heads:
            raise RangeError("at least one expert head is required")
        m, r = w_down.shape
        n = heads[0].shape[1]
        for h, head in enumerate(heads):
            if head.shape != (r, n):
                raise ShapeError(f"head {h} shape {head.shape} != ({r}, {n})")
        gdim = r if gate_input == "code" else m
        if not gate_frozen and gate_weight.shape != (gdim, len(heads)):
            raise ShapeError(f"gate weight shape {gate_weight.shape} != ({gdim}, {len(heads)})")
        blocks = {"w_down": w_down, "heads": np.stack(heads)}
        if head_bias is not None:
            for h, bias in enumerate(head_bias):
                if bias.shape != (n,):
                    raise ShapeError(f"head bias {h} shape {bias.shape} != ({n},)")
            blocks["head_bias"] = np.stack(head_bias)
        if not gate_frozen:
            blocks["gate_weight"] = gate_weight
            blocks["gate_bias"] = gate_bias
        self._store(blocks)
        self.gate_frozen = gate_frozen
        self.gate_input = gate_input
        self.n_heads = len(heads)
        self.has_head_bias = head_bias is not None
        self._x = None

    @property
    def w_down(self) -> np.ndarray:
        return self.params["w_down"]

    @property
    def heads(self) -> list[np.ndarray]:
        return list(self.blocks["heads"])

    @property
    def in_dim(self) -> int:
        return self.w_down.shape[0]

    @property
    def out_dim(self) -> int:
        return self.blocks["heads"].shape[2]

    @property
    def rank(self) -> int:
        return self.w_down.shape[1]

    def gate_values(self, x: np.ndarray, z: np.ndarray) -> np.ndarray:
        if self.gate_frozen:
            return np.full((x.shape[0], self.n_heads), 1.0 / self.n_heads)
        gate_in = z if self.gate_input == "code" else x
        return softmax(gate_in @ self.params["gate_weight"] + self.params["gate_bias"])

    def forward(self, x):
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ShapeError(f"inherited layer expects input width {self.in_dim}, "
                             f"got batch shape {x.shape}")
        z = x @ self.w_down
        g = self.gate_values(x, z)
        zg = _gated_codes(g, z[:, None, :])
        y = zg @ self.blocks["heads"].reshape(zg.shape[1], -1)
        if self.has_head_bias:
            y += g @ self.blocks["head_bias"]
        self._x, self._z, self._g, self._zg = x, z, g, zg
        return y

    def backward(self, grad_out):
        self._require_forward()
        x, z, g = self._x, self._z, self._g
        heads = self.blocks["heads"]
        d_heads, gz, dzg = _mix_backward(grad_out, g, self._zg,
                                         heads.reshape(-1, heads.shape[2]))
        gz = gz[:, 0]
        self.grad_blocks["heads"] += d_heads
        if self.has_head_bias:
            self.grad_blocks["head_bias"] += g.T @ grad_out
        gx_extra = 0.0
        if not self.gate_frozen:
            # gate score s_h = grad_out . (z @ head_h + head_bias_h)
            s = np.einsum("br,bhr->bh", z, dzg[:, 0])
            if self.has_head_bias:
                s += grad_out @ self.blocks["head_bias"].T
            dlogits = _softmax_backward(g, s)
            gate_in = z if self.gate_input == "code" else x
            self.grads["gate_weight"] += gate_in.T @ dlogits
            self.grads["gate_bias"] += dlogits.sum(axis=0)
            dgate_in = dlogits @ self.params["gate_weight"].T
            if self.gate_input == "code":
                gz += dgate_in
            else:
                gx_extra = dgate_in
        self.grads["w_down"] += x.T @ gz
        return gz @ self.w_down.T + gx_extra


class InverseLayer(Layer):
    """Mirrored structure: H gated down-projections into one shared up.

    ``z_agg = sum_h g_h(x) * (x @ down_h)`` precedes the single expansion
    ``y = z_agg @ w_up + bias``. Gating always reads the raw input, since
    the aggregated code does not exist until after gating.
    """

    def __init__(self, downs: list[np.ndarray], w_up: np.ndarray,
                 gate_weight: np.ndarray, gate_bias: np.ndarray,
                 bias: np.ndarray | None = None):
        super().__init__()
        if not downs:
            raise RangeError("at least one down-projection is required")
        m, r = downs[0].shape
        for h, d in enumerate(downs):
            if d.shape != (m, r):
                raise ShapeError(f"down {h} shape {d.shape} != ({m}, {r})")
        if w_up.shape[0] != r:
            raise ShapeError(f"up projection shape {w_up.shape} does not accept rank {r}")
        blocks = {f"down_{h}": d for h, d in enumerate(downs)}
        blocks.update(w_up=w_up, gate_weight=gate_weight, gate_bias=gate_bias)
        if bias is not None:
            blocks["bias"] = bias
        self._store(blocks)
        self.n_heads = len(downs)
        self._x = None

    @property
    def in_dim(self) -> int:
        return self.params["down_0"].shape[0]

    @property
    def out_dim(self) -> int:
        return self.params["w_up"].shape[1]

    @property
    def rank(self) -> int:
        return self.params["down_0"].shape[1]

    def forward(self, x):
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ShapeError(f"inverse layer expects input width {self.in_dim}, "
                             f"got batch shape {x.shape}")
        g = softmax(x @ self.params["gate_weight"] + self.params["gate_bias"])
        zs = np.stack([x @ self.params[f"down_{h}"] for h in range(self.n_heads)])
        z_agg = np.einsum("bh,hbr->br", g, zs)
        y = z_agg @ self.params["w_up"]
        if "bias" in self.params:
            y = y + self.params["bias"]
        self._x, self._g, self._zs, self._z_agg = x, g, zs, z_agg
        return y

    def backward(self, grad_out):
        self._require_forward()
        x, g, zs, z_agg = self._x, self._g, self._zs, self._z_agg
        self.grads["w_up"] += z_agg.T @ grad_out
        if "bias" in self.params:
            self.grads["bias"] += grad_out.sum(axis=0)
        gz_agg = grad_out @ self.params["w_up"].T
        gx = np.zeros_like(x)
        for h in range(self.n_heads):
            wz = g[:, h, None] * gz_agg
            self.grads[f"down_{h}"] += x.T @ wz
            gx += wz @ self.params[f"down_{h}"].T
        s = np.einsum("br,hbr->bh", gz_agg, zs)
        dlogits = _softmax_backward(g, s)
        self.grads["gate_weight"] += x.T @ dlogits
        self.grads["gate_bias"] += dlogits.sum(axis=0)
        return gx + dlogits @ self.params["gate_weight"].T


class SymmetricLayer(Layer):
    """Two parallel (down, up) branches combined by input gating.

    The ablation structure with two reductions and two expansions; branch
    widths are chosen by the caller to match a reference parameter budget.
    """

    N_BRANCHES = 2

    def __init__(self, downs: list[np.ndarray], ups: list[np.ndarray],
                 gate_weight: np.ndarray, gate_bias: np.ndarray,
                 bias: np.ndarray | None = None):
        super().__init__()
        if len(downs) != self.N_BRANCHES or len(ups) != self.N_BRANCHES:
            raise RangeError("symmetric layer takes exactly two branches")
        blocks = {}
        for i, (d, u) in enumerate(zip(downs, ups)):
            if d.shape[1] != u.shape[0]:
                raise ShapeError(f"branch {i}: down {d.shape} does not feed up {u.shape}")
            blocks[f"down_{i}"] = d
            blocks[f"up_{i}"] = u
        blocks.update(gate_weight=gate_weight, gate_bias=gate_bias)
        if bias is not None:
            blocks["bias"] = bias
        self._store(blocks)
        self._x = None

    @property
    def in_dim(self) -> int:
        return self.params["down_0"].shape[0]

    @property
    def out_dim(self) -> int:
        return self.params["up_0"].shape[1]

    @property
    def rank(self) -> int:
        return self.params["down_0"].shape[1]

    def forward(self, x):
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ShapeError(f"symmetric layer expects input width {self.in_dim}, "
                             f"got batch shape {x.shape}")
        g = softmax(x @ self.params["gate_weight"] + self.params["gate_bias"])
        zs = [x @ self.params[f"down_{i}"] for i in range(self.N_BRANCHES)]
        outs = np.stack([zs[i] @ self.params[f"up_{i}"] for i in range(self.N_BRANCHES)])
        y = np.einsum("bh,hbn->bn", g, outs)
        if "bias" in self.params:
            y = y + self.params["bias"]
        self._x, self._g, self._zs, self._outs = x, g, zs, outs
        return y

    def backward(self, grad_out):
        self._require_forward()
        x, g, zs, outs = self._x, self._g, self._zs, self._outs
        if "bias" in self.params:
            self.grads["bias"] += grad_out.sum(axis=0)
        gx = np.zeros_like(x)
        for i in range(self.N_BRANCHES):
            wgy = g[:, i, None] * grad_out
            self.grads[f"up_{i}"] += zs[i].T @ wgy
            gz = wgy @ self.params[f"up_{i}"].T
            self.grads[f"down_{i}"] += x.T @ gz
            gx += gz @ self.params[f"down_{i}"].T
        s = np.einsum("bn,hbn->bh", grad_out, outs)
        dlogits = _softmax_backward(g, s)
        self.grads["gate_weight"] += x.T @ dlogits
        self.grads["gate_bias"] += dlogits.sum(axis=0)
        return gx + dlogits @ self.params["gate_weight"].T


class InherConv2DLayer(Layer):
    """Inherited convolution: shared spatial stage plus H gated 1x1 heads.

    The spatial kernel has shape (r, c, kh, kw) and produces the r-channel
    code map; each head is an (N, r) channel-mixing matrix applied as a 1x1
    convolution. Gating reads the spatial mean of the code map, one gate
    vector per sample. The heads are one (H, N, r) block.
    """

    stacked = {"heads": "head", "head_bias": "head_bias"}

    def __init__(self, shared_kernel: np.ndarray, heads: list[np.ndarray],
                 gate_weight: np.ndarray, gate_bias: np.ndarray,
                 stride: int = 1, padding: int = 0,
                 head_bias: list[np.ndarray] | None = None,
                 gate_frozen: bool = False):
        super().__init__()
        shared_kernel = np.asarray(shared_kernel, dtype=np.float64)
        if shared_kernel.ndim != 4:
            raise ShapeError(f"spatial kernel must be 4-D, got {shared_kernel.shape}")
        r = shared_kernel.shape[0]
        if not heads:
            raise RangeError("at least one expert head is required")
        n = heads[0].shape[0]
        for h, head in enumerate(heads):
            if head.shape != (n, r):
                raise ShapeError(f"head {h} shape {head.shape} != ({n}, {r})")
        blocks = {"shared_kernel": shared_kernel, "heads": np.stack(heads)}
        if head_bias is not None:
            for h, bias in enumerate(head_bias):
                if bias.shape != (n,):
                    raise ShapeError(f"head bias {h} shape {bias.shape} != ({n},)")
            blocks["head_bias"] = np.stack(head_bias)
        if not gate_frozen:
            blocks["gate_weight"] = gate_weight
            blocks["gate_bias"] = gate_bias
        self._store(blocks)
        self.gate_frozen = gate_frozen
        self.stride = stride
        self.padding = padding
        self.n_heads = len(heads)
        self.has_head_bias = head_bias is not None
        self._x = None

    @property
    def rank(self) -> int:
        return self.params["shared_kernel"].shape[0]

    def _experts(self) -> np.ndarray:
        """The (N, r) heads as one (H*r, N) stack of code-to-output maps."""
        heads = self.blocks["heads"]
        return heads.transpose(0, 2, 1).reshape(-1, heads.shape[1])

    def forward(self, x):
        k = self.params["shared_kernel"]
        r, c, kh, kw = k.shape
        if x.ndim != 4 or x.shape[1] != c:
            raise ShapeError(f"inherited conv expects (B, {c}, H, W), got {x.shape}")
        b = x.shape[0]
        oh = conv_output_size(x.shape[2], kh, self.stride, self.padding)
        ow = conv_output_size(x.shape[3], kw, self.stride, self.padding)
        cols = im2col(x, kh, kw, self.stride, self.padding)
        z = cols @ k.reshape(r, -1).T                        # (B, OH*OW, r)
        pooled = z.mean(axis=1)
        if self.gate_frozen:
            g = np.full((b, self.n_heads), 1.0 / self.n_heads)
        else:
            g = softmax(pooled @ self.params["gate_weight"] + self.params["gate_bias"])
        zg = _gated_codes(g, z)
        y = (zg @ self._experts()).reshape(b, oh * ow, -1)
        if self.has_head_bias:
            y += (g @ self.blocks["head_bias"])[:, None, :]
        self._x, self._cols, self._z, self._pooled, self._g, self._zg = \
            x, cols, z, pooled, g, zg
        return y.transpose(0, 2, 1).reshape(b, -1, oh, ow)

    def backward(self, grad_out):
        self._require_forward()
        x, cols, z, pooled, g = self._x, self._cols, self._z, self._pooled, self._g
        k = self.params["shared_kernel"]
        r, _, kh, kw = k.shape
        b, p, _ = z.shape
        gy = grad_out.reshape(b, -1, p).transpose(0, 2, 1)    # (B, OH*OW, N)
        experts = self._experts()
        d_heads, gz, _ = _mix_backward(gy.reshape(b * p, -1), g, self._zg, experts)
        self.grad_blocks["heads"] += d_heads.transpose(0, 2, 1)
        gy_sum = gy.sum(axis=1)
        if self.has_head_bias:
            self.grad_blocks["head_bias"] += g.T @ gy_sum
        if not self.gate_frozen:
            # gate score s_h = sum over pixels of grad_out . (head_h z + head_bias_h),
            # contracted through the per-sample (r, N) code-gradient products
            codes_gy = z.transpose(0, 2, 1) @ gy
            s = codes_gy.reshape(b, -1) @ experts.reshape(self.n_heads, -1).T
            if self.has_head_bias:
                s += gy_sum @ self.blocks["head_bias"].T
            dlogits = _softmax_backward(g, s)
            self.grads["gate_weight"] += pooled.T @ dlogits
            self.grads["gate_bias"] += dlogits.sum(axis=0)
            dpooled = dlogits @ self.params["gate_weight"].T
            gz += dpooled[:, None, :] / p
        # per-sample products: merging (B, P) would copy the strided im2col rows
        self.grads["shared_kernel"] += np.matmul(gz.transpose(0, 2, 1), cols).sum(
            axis=0).reshape(k.shape)
        return col2im(gz @ k.reshape(r, -1), x.shape, kh, kw, self.stride, self.padding)


def _sqrt_factors(w: np.ndarray, r: int):
    f = truncated_svd(w, r)
    sq = np.sqrt(f.sigma)
    return f.u * sq, sq[:, None] * f.v.T, f


def inherit_dense(w: np.ndarray, r: int, h: int, mode: str = "convex",
                  gate_input: str = "code",
                  bias: np.ndarray | None = None) -> InherNetLayer:
    """Build an inherited layer from a dense teacher weight matrix.

    ``w_down`` is ``U_r sqrt(S_r)``; every head starts at
    ``sqrt(S_r) V_r^T`` (mode ``convex``) or at one H-th of that (mode
    ``paper``). Gate parameters start at zero so gating is uniform, and a
    teacher bias, if present, is copied into every head's output stage.
    """
    _check_mode(mode, gate_input)
    if h < 1:
        raise RangeError(f"head count must be >= 1, got {h}")
    w_down, head_base, _ = _sqrt_factors(w, r)
    if mode == "paper":
        head_base = head_base / h
    m, n = w.shape
    gdim = r if gate_input == "code" else m
    head_bias = [bias.astype(np.float64).copy() for _ in range(h)] if bias is not None else None
    return InherNetLayer(
        w_down=w_down,
        heads=[head_base.copy() for _ in range(h)],
        gate_weight=np.zeros((gdim, h)),
        gate_bias=np.zeros(h),
        gate_input=gate_input,
        head_bias=head_bias,
    )


def inherit_conv(k: np.ndarray, r: int, h: int, mode: str = "convex",
                 stride: int = 1, padding: int = 0,
                 bias: np.ndarray | None = None) -> InherConv2DLayer:
    """Build an inherited convolution from a 4-D teacher kernel.

    ``k`` of shape (N, c, kh, kw) is reshaped to (N, c*kh*kw) and
    factorized; ``sqrt(S_r) V_r^T`` becomes the shared spatial kernel
    (r, c, kh, kw) and ``U_r sqrt(S_r)`` the (N, r) expert heads realized
    as 1x1 convolutions.
    """
    _check_mode(mode, "code")
    if h < 1:
        raise RangeError(f"head count must be >= 1, got {h}")
    k = np.asarray(k, dtype=np.float64)
    if k.ndim != 4:
        raise ShapeError(f"conv kernel must be 4-D, got {k.shape}")
    n, c, kh, kw = k.shape
    khat = k.reshape(n, c * kh * kw)
    if not 1 <= r <= min(n, c * kh * kw):
        raise RangeError(f"rank {r} out of range [1, {min(n, c * kh * kw)}] "
                         f"for kernel shape {k.shape}")
    head_base, shared_flat, _ = _sqrt_factors(khat, r)
    if mode == "paper":
        head_base = head_base / h
    head_bias = [bias.astype(np.float64).copy() for _ in range(h)] if bias is not None else None
    return InherConv2DLayer(
        shared_kernel=shared_flat.reshape(r, c, kh, kw),
        heads=[head_base.copy() for _ in range(h)],
        gate_weight=np.zeros((r, h)),
        gate_bias=np.zeros(h),
        stride=stride,
        padding=padding,
        head_bias=head_bias,
    )


def build_inverse(w: np.ndarray, r: int, h: int, mode: str = "convex",
                  bias: np.ndarray | None = None) -> InverseLayer:
    """Mirror of :func:`inherit_dense`: H gated downs, one shared up."""
    _check_mode(mode, "input")
    if h < 1:
        raise RangeError(f"head count must be >= 1, got {h}")
    down_base, w_up, _ = _sqrt_factors(w, r)
    if mode == "paper":
        down_base = down_base / h
    m = w.shape[0]
    return InverseLayer(
        downs=[down_base.copy() for _ in range(h)],
        w_up=w_up,
        gate_weight=np.zeros((m, h)),
        gate_bias=np.zeros(h),
        bias=bias.astype(np.float64).copy() if bias is not None else None,
    )


def symmetric_rank_for(m: int, n: int, budget: int, bias: bool) -> int:
    """Largest branch rank whose two-branch parameter total fits the budget."""
    fixed = 2 * m + 2 + (2 * n if bias else 0)
    r = (budget - fixed) // (2 * (m + n))
    return max(1, int(r))


def make_variant(w: np.ndarray, r: int, h: int, variant: str = "standard",
                 mode: str = "convex", gate_input: str = "code",
                 bias: np.ndarray | None = None, seed: int = 0) -> Layer:
    """Build one of the ablation variants of an inherited dense layer.

    ``no-svd`` keeps the architecture but draws Kaiming-uniform factors;
    ``no-gate`` freezes gating at exactly uniform; ``symmetric`` uses two
    (down, up) branches whose rank is the largest fitting the standard
    variant's parameter budget; ``inverse`` mirrors the projections.
    """
    if variant not in VARIANTS:
        raise RangeError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    m, n = np.asarray(w).shape
    if variant == "standard":
        return inherit_dense(w, r, h, mode, gate_input, bias)
    if variant == "no-svd":
        layer = inherit_dense(w, r, h, mode, gate_input, bias)
        layer.params["w_down"][...] = kaiming_uniform(
            (m, r), fan_in=m, gen=_rng.philox(seed, _rng.STREAM_INIT, 0))
        for i in range(h):
            layer.params[f"head_{i}"][...] = kaiming_uniform(
                (r, n), fan_in=r, gen=_rng.philox(seed, _rng.STREAM_INIT, i + 1))
        return layer
    if variant == "no-gate":
        ref = inherit_dense(w, r, h, mode, gate_input, bias)
        return InherNetLayer(
            w_down=ref.params["w_down"],
            heads=[ref.params[f"head_{i}"] for i in range(h)],
            gate_weight=np.zeros((0, 0)),
            gate_bias=np.zeros(0),
            gate_input=gate_input,
            head_bias=([ref.params[f"head_bias_{i}"] for i in range(h)]
                       if bias is not None else None),
            gate_frozen=True,
        )
    if variant == "inverse":
        return build_inverse(w, r, h, mode, bias)
    # symmetric: two SVD-initialized branches, budget-matched to standard
    budget = inherit_dense(w, r, h, mode, gate_input, bias).param_count()
    r_sym = min(symmetric_rank_for(m, n, budget, bias is not None), min(m, n))
    down, up, _ = _sqrt_factors(w, r_sym)
    return SymmetricLayer(
        downs=[down.copy(), down.copy()],
        ups=[up.copy(), up.copy()],
        gate_weight=np.zeros((m, 2)),
        gate_bias=np.zeros(2),
        bias=bias.astype(np.float64).copy() if bias is not None else None,
    )


def inherit_network(net: Network, r: int, h: int, variant: str = "standard",
                    mode: str = "convex", gate_input: str = "code",
                    seed: int = 0, cap_rank: bool = False) -> Network:
    """Inherit every dense and conv layer of a teacher network.

    With ``cap_rank`` the per-layer rank is clamped to ``min(m, n)``;
    otherwise an out-of-range rank raises and names the offending layer.
    """
    layers: list[Layer] = []
    for i, layer in enumerate(net.layers):
        if isinstance(layer, DenseLayer):
            m, n = layer.weight.shape
            r_l = min(r, min(m, n)) if cap_rank else r
            if not 1 <= r_l <= min(m, n):
                raise RangeError(f"layer {i}: rank {r} out of range [1, {min(m, n)}] "
                                 f"for weight shape {(m, n)}")
            layers.append(make_variant(layer.weight, r_l, h, variant, mode,
                                       gate_input, layer.bias, seed + i))
        elif isinstance(layer, Conv2DLayer):
            if variant in ("symmetric", "inverse"):
                raise RangeError(f"layer {i}: variant {variant!r} is dense-only")
            n, c, kh, kw = layer.kernel.shape
            rmax = min(n, c * kh * kw)
            r_l = min(r, rmax) if cap_rank else r
            if not 1 <= r_l <= rmax:
                raise RangeError(f"layer {i}: rank {r} out of range [1, {rmax}] "
                                 f"for kernel shape {layer.kernel.shape}")
            conv = inherit_conv(layer.kernel, r_l, h, mode, layer.stride,
                                layer.padding, layer.params.get("bias"))
            if variant == "no-gate":
                conv = InherConv2DLayer(
                    shared_kernel=conv.params["shared_kernel"],
                    heads=[conv.params[f"head_{j}"] for j in range(h)],
                    gate_weight=np.zeros((0, 0)), gate_bias=np.zeros(0),
                    stride=layer.stride, padding=layer.padding,
                    head_bias=([conv.params[f"head_bias_{j}"] for j in range(h)]
                               if conv.has_head_bias else None),
                    gate_frozen=True)
            elif variant == "no-svd":
                gen = _rng.philox(seed + i, _rng.STREAM_INIT, 0)
                conv.params["shared_kernel"][...] = kaiming_uniform(
                    conv.params["shared_kernel"].shape, fan_in=c * kh * kw, gen=gen)
                for j in range(h):
                    conv.params[f"head_{j}"][...] = kaiming_uniform(
                        (n, r_l), fan_in=r_l,
                        gen=_rng.philox(seed + i, _rng.STREAM_INIT, j + 1))
            layers.append(conv)
        elif isinstance(layer, ReluLayer):
            layers.append(ReluLayer())
        else:
            raise RangeError(f"layer {i}: cannot inherit layer type {type(layer).__name__}")
    return Network(layers)


def gradient_decomposition_check(layer: InherNetLayer, x: np.ndarray,
                                 y: np.ndarray, loss_fn) -> float:
    """Max absolute deviation between backward and the two-term assembly.

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
