"""Gated low-rank inheritance of trained layers.

Every gated layer computes one map, a mixture of H low-rank experts
``y = sum_h g_h(x) * (x @ D_h @ U_h + b_h)`` with per-sample gate
``g = softmax(gate_in @ gate_weight + gate_bias)`` (the factorised mixture
of sparsely-gated MoE layers and of low-rank adapters). D, U and b are
stacks whose leading axis is 1 (shared by every head) or H (one per head);
which side is per head is all that separates the variants. Every gated
layer stores the three stacks as the blocks ``down``, ``up`` and ``bias``;
its manifest kind fixes which of them are per head and the array names
they are saved and exposed under (:data:`KINDS`):

* ``inherit_dense``: shared ``w_down``, per-head ``head_{h}`` and
  ``head_bias_{h}``; the gate reads the code ``x @ w_down`` or the input.
* ``inverse``: per-head ``down_{h}``, shared ``w_up`` and ``bias``.
* ``symmetric``: two branches ``down_{i}``/``up_{i}``, shared ``bias``.
* ``inherit_conv``: the down stack is a shared spatial kernel
  ``shared_kernel`` (r filters), the up stack per-head 1x1 expansions
  ``head_{h}`` (N, r) with biases ``head_bias_{h}``; the gate reads the
  spatial mean of the code map. A dense layer is the one-pixel case of
  this layer. The shared stage is a convolution with r filters, and it
  runs the teacher conv's code, :func:`~inhernet.nn.conv_lowered`, which
  picks the cheaper lowering for those few output channels.

The ablation kinds gate on the input; a frozen gate (``no-gate``) is
exactly uniform and has no parameters. Each layer mixes its heads in the
space that is cheaper for its shape, and no step loops over heads in
Python. A dense layer has one code per sample, so it mixes codes: the
gate-weighted codes of all heads form one (B, H*r) matrix (summed over
heads first when U is shared) and one GEMM against the stacked U gives the
output. A convolution has one code per output pixel, so it mixes weights:
each sample's gate sums the heads into one (N, r) matrix, as CondConv
routes expert kernels into one per-example kernel, and that matrix
multiplies the sample's (r, OH*OW) code map. Its output is NCHW without a
transpose, and no per-head copy of the code map exists on either pass.
Inheritance starts every head
from the teacher's truncated SVD: D = ``U_r sqrt(S_r)``, U = ``sqrt(S_r)
V_r^T`` (a conv kernel, reshaped to (N, c*kh*kw), is the transpose of W).
In ``convex`` mode (default) each head holds the full factor, so any
convex gating of identical heads reproduces the rank-r teacher exactly; in
``paper`` mode each holds one H-th of it, so uniform gating reproduces only
``W_r / H``. Gate parameters start at zero, so gating starts uniform; code
gating has the ``H*(r+1)`` gate parameters the compression accounting counts.

Only this module knows which teacher layers decompose: :func:`factor_matrix`
gives the matrix a teacher layer's SVD factors, :func:`inherit_layer` builds
its student.
"""

from __future__ import annotations

import numpy as np

from . import rng as _rng
from .errors import RangeError, ShapeError
from .linalg import softmax, truncated_svd
from .nn import (Layer, Network, ReluLayer, check_conv_geometry, conv_lowered,
                 conv_lowered_backward, kaiming_uniform)

COMBINER_MODES = ("convex", "paper")
GATE_INPUTS = ("code", "input")
VARIANTS = ("standard", "no-svd", "no-gate", "symmetric", "inverse")

STACKS = ("down", "up", "bias")

# Manifest kind -> array names of the down, up and bias blocks, which checkpoint
# format v1 fixes. A name with "{}" makes the block per head, one array per
# head; any other names the one entry of a shared block.
KINDS = {
    "inherit_dense": ("w_down", "head_{}", "head_bias_{}"),
    "inverse": ("down_{}", "w_up", "bias"),
    "symmetric": ("down_{}", "up_{}", "bias"),
    "inherit_conv": ("shared_kernel", "head_{}", "head_bias_{}"),
}


def _tile(a: np.ndarray | None, h: int) -> np.ndarray | None:
    """``h`` copies of ``a`` stacked along a new leading axis (None stays None)."""
    return None if a is None else np.repeat(np.asarray(a, dtype=np.float64)[None], h, axis=0)


def _stack(arrays: dict[str, np.ndarray], name: str, h: int) -> np.ndarray:
    """The stack behind an array name of :data:`KINDS`: one array per head, or one."""
    if "{}" in name:
        return np.stack([arrays[name.format(i)] for i in range(h)])
    return arrays[name][None]


def _sum_to(a: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``a`` over the axes where ``shape`` is 1, undoing a broadcast to ``a``."""
    if a.shape == shape:
        return a
    axes = tuple(i for i, (m, n) in enumerate(zip(a.shape, shape)) if n == 1 and m != 1)
    return a.sum(axis=axes, keepdims=True)


def _gate_weighted(g: np.ndarray, a: np.ndarray, k: int) -> np.ndarray:
    """``g_h * a_h`` for every head, from ``a`` (B, 1|H, r), summed over heads if ``k`` is 1."""
    if k == 1 and a.shape[1] > 1:
        return np.matmul(g[:, None, :], a)
    return g[:, :, None] * a


class GatedMixture(Layer):
    """Storage, persistence and softmax gate of the gated layers.

    A subclass stores its down, up and bias stacks through
    ``_store_stacks`` as the blocks ``down``, ``up`` and ``bias`` (absent
    without a bias); ``per_head`` names those of them that hold one entry
    per head, and the others hold one shared entry. It draws its
    per-sample gate (B, H) from ``_gate`` and mixes its heads in the form
    its shape makes cheaper. Its backward
    reduces the output gradient to the gate scores ``s = dL/dg`` (B, H) and
    hands them to ``_gate_backward``, the one place the softmax-gate
    backward is written.
    """

    def _store_stacks(self, kind: str, down, up, bias, gate_width: int,
                      gate_weight, gate_bias) -> None:
        """Check the stacks and the gate against ``kind``, then store them.

        Without ``gate_weight`` the gate is frozen at uniform and has no
        parameters.
        """
        self.kind, self.stacked = kind, dict(zip(STACKS, KINDS[kind]))
        self.per_head = tuple(name for name, view in self.stacked.items() if "{}" in view)
        blocks = {name: np.asarray(a, dtype=np.float64)
                  for name, a in zip(STACKS, (down, up, bias)) if a is not None}
        h = len(blocks[self.per_head[0]])
        if h < 1:
            raise RangeError("at least one expert head is required")
        for name in STACKS:
            want = h if name in self.per_head else 1
            if name in blocks and len(blocks[name]) != want:
                raise ShapeError(f"{name} stack holds {len(blocks[name])} entries, expected {want}")
        if gate_weight is not None:
            gate_weight, gate_bias = np.asarray(gate_weight), np.asarray(gate_bias)
            if gate_weight.shape != (gate_width, h) or gate_bias.shape != (h,):
                raise ShapeError(f"gate shapes {gate_weight.shape} and {gate_bias.shape} "
                                 f"!= ({gate_width}, {h}) and ({h},)")
            blocks.update(gate_weight=gate_weight, gate_bias=gate_bias)
        self._store(blocks)
        self.n_heads = h
        self.gate_frozen = gate_weight is None
        self.has_head_bias = bias is not None

    @classmethod
    def from_config(cls, config: dict, arrays: dict[str, np.ndarray]) -> "GatedMixture":
        fields = dict(config)
        if config["kind"] in ("inverse", "symmetric"):
            # format v1 wrote none of these for the ablation kinds
            for key, value in (("gate_input", "input"), ("gate_frozen", False),
                               ("has_head_bias", "bias" in arrays), ("n_heads", 2)):
                fields.setdefault(key, value)
        h = fields["n_heads"]
        down, up, bias = KINDS[fields["kind"]]
        gate = {} if fields["gate_frozen"] else {
            "gate_weight": arrays["gate_weight"], "gate_bias": arrays["gate_bias"]}
        return cls(_stack(arrays, down, h), _stack(arrays, up, h),
                   _stack(arrays, bias, h) if fields["has_head_bias"] else None,
                   **gate, **{k: fields[k] for k in cls.settings})

    def config(self) -> dict:
        return {**super().config(), "n_heads": self.n_heads, "has_head_bias": self.has_head_bias,
                "gate_frozen": self.gate_frozen}

    def ungated(self) -> "GatedMixture":
        """This layer's ``no-gate`` form: copies of its arrays, the gate frozen at uniform."""
        return type(self).from_config({**self.config(), "gate_frozen": True}, self.params)

    def _gate(self, gate_in: np.ndarray) -> np.ndarray:
        """Per-sample gate weights (B, H); exactly uniform when the gate is frozen."""
        if self.gate_frozen:
            return np.full((gate_in.shape[0], self.n_heads), 1.0 / self.n_heads)
        return softmax(gate_in @ self.params["gate_weight"] + self.params["gate_bias"])

    def _gate_backward(self, g: np.ndarray, gate_in: np.ndarray, s: np.ndarray,
                       input_grad: bool = True) -> np.ndarray | None:
        """Backward of the softmax gate for the scores ``s = dL/dg`` (B, H).

        Adds the gate's gradients; returns dL/d ``gate_in``, zero for a
        frozen gate, or None when ``input_grad`` is false and nothing reads it.
        """
        if self.gate_frozen:
            return np.zeros_like(gate_in) if input_grad else None
        dlogits = g * (s - np.sum(g * s, axis=1, keepdims=True))
        self.grads["gate_weight"] += gate_in.T @ dlogits
        self.grads["gate_bias"] += dlogits.sum(axis=0)
        return dlogits @ self.params["gate_weight"].T if input_grad else None


class InherNetLayer(GatedMixture):
    """The dense gated mixture ``y = sum_h g_h(x) * (x @ D_h @ U_h + b_h)``.

    ``down`` (1|H, m, r), ``up`` (1|H, r, n) and ``bias`` (1|H, n) are
    stacks, and ``kind`` fixes which of them are per head. The gate reads
    the code ``x @ w_down`` (``gate_input="code"``, ``inherit_dense`` only)
    or the input ``x``. The heads mix in code space: the codes (B, 1|H, r),
    weighted by the gate, meet the stacked up matrix in one GEMM over the
    batch.
    """

    settings = ("kind", "gate_input")

    def __init__(self, down: np.ndarray, up: np.ndarray, bias: np.ndarray | None = None,
                 gate_weight: np.ndarray | None = None, gate_bias: np.ndarray | None = None,
                 gate_input: str = "code", kind: str = "inherit_dense"):
        super().__init__()
        if kind not in ("inherit_dense", "inverse", "symmetric"):
            raise RangeError(f"unknown dense kind {kind!r}")
        if gate_input not in GATE_INPUTS or (gate_input == "code" and kind != "inherit_dense"):
            raise RangeError(f"gate_input must be one of {GATE_INPUTS} (only 'input' for "
                             f"kind {kind!r}), got {gate_input!r}")
        down, up = np.asarray(down, dtype=np.float64), np.asarray(up, dtype=np.float64)
        if down.ndim != 3 or up.ndim != 3 or down.shape[2] != up.shape[1]:
            raise ShapeError(f"down stack {down.shape} does not feed up stack {up.shape}")
        if bias is not None and np.shape(bias)[1:] != up.shape[2:]:
            raise ShapeError(f"bias stack {np.shape(bias)} does not match output width {up.shape[2]}")
        self.gate_input = gate_input
        self._store_stacks(kind, down, up, bias, down.shape[2 if gate_input == "code" else 1],
                           gate_weight, gate_bias)
        self._x = None

    def _down_matrix(self) -> np.ndarray:
        """The down stack as one (m, (1|H)*r) matrix; a view when shared."""
        down = self.blocks["down"]
        return down.transpose(1, 0, 2).reshape(down.shape[1], -1)

    @property
    def in_dim(self) -> int:
        return self.blocks["down"].shape[1]

    @property
    def out_dim(self) -> int:
        return self.blocks["up"].shape[2]

    @property
    def rank(self) -> int:
        return self.blocks["up"].shape[1]

    def gate_values(self, x: np.ndarray, z: np.ndarray) -> np.ndarray:
        return self._gate(z if self.gate_input == "code" else x)

    def forward(self, x):
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ShapeError(f"inherited layer expects input width {self.in_dim}, "
                             f"got batch shape {x.shape}")
        b = x.shape[0]
        z = x @ self._down_matrix()
        g = self.gate_values(x, z)
        z = z.reshape(b, len(self.blocks["down"]), -1)
        up, bias = self.blocks["up"], self.blocks.get("bias")
        y = _gate_weighted(g, z, len(up)).reshape(b, -1) @ up.reshape(-1, up.shape[2])
        if bias is not None:
            y += _sum_to(g, (b, len(bias))) @ bias
        self._x, self._z, self._g = x, z, g
        return y

    def backward(self, grad_out):
        """Recomputes the gate-weighted codes from the cached gate and codes
        rather than cache H copies of the code."""
        self._require_forward()
        x, z, g = self._x, self._z, self._g
        b, hd, r = z.shape
        up, bias = self.blocks["up"], self.blocks.get("bias")
        self.grad_blocks["up"] += (_gate_weighted(g, z, len(up)).reshape(b, -1).T
                                   @ grad_out).reshape(up.shape)
        dz_mix = (grad_out @ up.reshape(-1, up.shape[2]).T).reshape(b, -1, r)  # grad_out @ up_h^T
        s = np.einsum("bhr,bhr->bh", z, dz_mix)
        if bias is not None:
            self.grad_blocks["bias"] += _sum_to(g.T @ grad_out, bias.shape)
            s += grad_out @ bias.T
        code = self.gate_input == "code"
        # a code gate's input gradient feeds dz; an input gate's only dL/dx
        dgate = self._gate_backward(g, z.reshape(b, -1) if code else x, s,
                                    code or self.input_grad)
        dz = _gate_weighted(g, dz_mix, hd).reshape(b, -1)
        if code:
            dz += dgate
        d_down = self.grad_blocks["down"]
        d_down += (x.T @ dz).reshape(x.shape[1], *d_down.shape[::2]).transpose(1, 0, 2)
        if not self.input_grad:
            return None
        gx = dz @ self._down_matrix().T
        if not code:
            gx += dgate
        return gx


class InherConv2DLayer(GatedMixture):
    """Inherited convolution: a shared spatial stage plus H gated 1x1 heads.

    ``down`` is a one-entry stack (1, r, c, kh, kw), the spatial kernel that
    produces the r-channel code map; ``up`` (H, N, r) are channel-mixing
    matrices applied as 1x1 convolutions and ``bias`` (H, N) their biases. The
    gate reads the spatial mean of the code map, one gate vector per
    sample. The heads mix in weight space: each sample's gate sums the
    heads into one (N, r) matrix ``M``, which multiplies that sample's (r,
    OH*OW) code map, and the backward draws the heads' and the gate's
    gradients from one per-sample product grad_out @ code^T. The shared
    stage runs through :func:`~inhernet.nn.conv_lowered`, like the teacher
    conv, and keeps only the buffer it hands back.
    """

    kind = "inherit_conv"
    settings = ("stride", "padding")

    def __init__(self, down: np.ndarray, up: np.ndarray, bias: np.ndarray | None = None,
                 gate_weight: np.ndarray | None = None, gate_bias: np.ndarray | None = None,
                 stride: int = 1, padding: int = 0):
        super().__init__()
        down, up = np.asarray(down, dtype=np.float64), np.asarray(up, dtype=np.float64)
        check_conv_geometry(stride, padding)
        if down.ndim != 5 or up.ndim != 3 or up.shape[2] != down.shape[1]:
            raise ShapeError(f"head stack {up.shape} does not read the code of "
                             f"kernel stack {down.shape}")
        if bias is not None and np.shape(bias)[1:] != up.shape[1:2]:
            raise ShapeError(f"head bias stack {np.shape(bias)} does not match "
                             f"{up.shape[1]} output channels")
        self.stride, self.padding = stride, padding
        self._store_stacks(self.kind, down, up, bias, down.shape[1], gate_weight, gate_bias)
        self._kept = None

    @property
    def rank(self) -> int:
        return self.blocks["up"].shape[2]

    def forward(self, x):
        k = self.blocks["down"][0]
        self._kept = None    # drop the last batch's buffer first, so two are never alive
        code, self._kept = conv_lowered(x, k, self.stride, self.padding)   # (B, r, OH, OW)
        b, r, oh, ow = code.shape
        z = code.reshape(b, r, oh * ow)
        pooled = z.mean(axis=2)
        g = self._gate(pooled)
        up, bias = self.blocks["up"], self.blocks.get("bias")
        m = (g @ up.reshape(len(up), -1)).reshape(b, -1, r)          # (B, N, r)
        y = m @ z
        if bias is not None:
            y += (g @ bias)[:, :, None]
        self._x_shape = x.shape
        self._z, self._pooled, self._g, self._m = z, pooled, g, m
        return y.reshape(b, -1, oh, ow)

    def backward(self, grad_out):
        """Returns dL/dx, or None while ``input_grad`` is cleared."""
        self._require_forward("_kept")
        z, g = self._z, self._g
        b, r, p = z.shape
        up, bias = self.blocks["up"], self.blocks.get("bias")
        gy = grad_out.reshape(b, -1, p)                           # (B, N, OH*OW)
        c = (gy @ z.transpose(0, 2, 1)).reshape(b, -1)            # (B, N*r)
        self.grad_blocks["up"] += (g.T @ c).reshape(up.shape)
        s = c @ up.reshape(len(up), -1).T
        if bias is not None:
            gy_sum = gy.sum(axis=2)
            self.grad_blocks["bias"] += g.T @ gy_sum
            s += gy_sum @ bias.T
        dz = self._m.transpose(0, 2, 1) @ gy
        dz += self._gate_backward(g, self._pooled, s)[:, :, None] / p
        dk, dx = conv_lowered_backward(dz, self._kept, self._x_shape, self.blocks["down"][0],
                                       self.stride, self.padding, self.input_grad)
        self.grad_blocks["down"] += dk[None]
        return dx


def _svd_start(w: np.ndarray, r: int, h: int, mode: str, gate_input: str):
    """Check a builder's arguments; returns the sqrt factors of the rank-r SVD
    of ``w``, ``U_r sqrt(S_r)`` and ``sqrt(S_r) V_r^T``, and the divisor of
    the per-head factor (H in ``paper`` mode, else 1)."""
    if mode not in COMBINER_MODES:
        raise RangeError(f"unknown combiner mode {mode!r}; expected one of {COMBINER_MODES}")
    if gate_input not in GATE_INPUTS:
        raise RangeError(f"gate_input must be one of {GATE_INPUTS}, got {gate_input!r}")
    if h < 1:
        raise RangeError(f"head count must be >= 1, got {h}")
    f = truncated_svd(w, r)
    sq = np.sqrt(f.sigma)
    return f.u * sq, sq[:, None] * f.v.T, h if mode == "paper" else 1


def inherit_dense(w: np.ndarray, r: int, h: int, mode: str = "convex",
                  gate_input: str = "code",
                  bias: np.ndarray | None = None) -> InherNetLayer:
    """Build an inherited layer from a dense teacher weight matrix.

    ``w_down`` is ``U_r sqrt(S_r)``; every head starts at
    ``sqrt(S_r) V_r^T`` (mode ``convex``) or at one H-th of that (mode
    ``paper``). Gate parameters start at zero so gating is uniform, and a
    teacher bias, if present, is copied into every head's output stage.
    """
    w_down, head_base, div = _svd_start(w, r, h, mode, gate_input)
    gdim = r if gate_input == "code" else w.shape[0]
    return InherNetLayer(w_down[None], _tile(head_base / div, h), _tile(bias, h),
                         np.zeros((gdim, h)), np.zeros(h), gate_input)


def inherit_conv(k: np.ndarray, r: int, h: int, mode: str = "convex",
                 stride: int = 1, padding: int = 0,
                 bias: np.ndarray | None = None) -> InherConv2DLayer:
    """Build an inherited convolution from a 4-D teacher kernel.

    ``k`` of shape (N, c, kh, kw) is reshaped to (N, c*kh*kw) and
    factorized; ``sqrt(S_r) V_r^T`` becomes the shared spatial kernel
    (r, c, kh, kw) and ``U_r sqrt(S_r)`` the (N, r) expert heads realized
    as 1x1 convolutions.
    """
    k = np.asarray(k, dtype=np.float64)
    if k.ndim != 4:
        raise ShapeError(f"conv kernel must be 4-D, got {k.shape}")
    n, c, kh, kw = k.shape
    head_base, shared_flat, div = _svd_start(k.reshape(n, c * kh * kw), r, h, mode, "code")
    return InherConv2DLayer(shared_flat.reshape(1, r, c, kh, kw), _tile(head_base / div, h),
                            _tile(bias, h), np.zeros((r, h)), np.zeros(h), stride, padding)


def symmetric_rank_for(m: int, n: int, budget: int, bias: bool) -> int:
    """Largest branch rank whose two-branch parameter total fits the budget."""
    fixed = 2 * m + 2 + (2 * n if bias else 0)
    r = (budget - fixed) // (2 * (m + n))
    return max(1, int(r))


def _standard_param_count(m: int, n: int, r: int, h: int, gate_input: str, bias: bool) -> int:
    """Parameters of ``inherit_dense(w, r, h, gate_input=gate_input)`` for an m x n ``w``."""
    gate_width = r if gate_input == "code" else m
    return m * r + h * r * n + (h * n if bias else 0) + (gate_width + 1) * h


def factor_matrix(layer: Layer) -> np.ndarray | None:
    """The teacher matrix whose truncated SVD a layer's inheritance starts from.

    A dense weight as it is, a conv kernel (N, c, kh, kw) as its (N, c*kh*kw)
    reshape, ``None`` for a ReLU; any other kind raises :class:`RangeError`.
    """
    if layer.kind == "dense":
        return layer.params["weight"]
    if layer.kind == "conv2d":
        kernel = layer.params["kernel"]
        return kernel.reshape(len(kernel), -1)
    if layer.kind == "relu":
        return None
    raise RangeError(f"cannot inherit layer kind {layer.kind!r}")


def inherit_layer(layer: Layer, r: int, h: int, variant: str = "standard",
                  mode: str = "convex", gate_input: str = "code", seed: int = 0) -> Layer:
    """The student of one teacher layer: a gated ``variant`` of a dense or conv
    layer, a new ReLU for a ReLU.

    ``no-gate`` freezes the gate at uniform; ``no-svd`` redraws the shared
    factor and every head Kaiming-uniform from the streams (seed, init, 0)
    and (seed, init, h + 1). The dense-only ``inverse`` mirrors the
    projections (H gated downs, one shared up), and ``symmetric`` uses two
    (down, up) branches of the largest rank that fits the standard
    variant's parameter budget.
    A conv layer gates on its pooled code, so it takes only ``gate_input="code"``.
    """
    w, bias = factor_matrix(layer), layer.params.get("bias")
    if w is None:
        return ReluLayer()
    if variant not in VARIANTS:
        raise RangeError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    if variant in ("symmetric", "inverse") and layer.kind != "dense":
        raise RangeError(f"variant {variant!r} is dense-only")
    if gate_input != "code" and layer.kind != "dense":
        raise RangeError(f"a conv layer gates on its pooled code: gate_input must be "
                         f"'code', got {gate_input!r}")
    if variant == "inverse":
        down, up, div = _svd_start(w, r, h, mode, "input")
        return InherNetLayer(_tile(down / div, h), up[None], _tile(bias, 1),
                             np.zeros((w.shape[0], h)), np.zeros(h), "input", "inverse")
    if variant == "symmetric":
        # two SVD-initialized branches, budget-matched to standard
        m, n = w.shape
        if not 1 <= r <= min(m, n):
            raise RangeError(f"rank {r} out of range [1, {min(m, n)}] for shape {w.shape}")
        budget = _standard_param_count(m, n, r, h, gate_input, bias is not None)
        r_sym = min(symmetric_rank_for(m, n, budget, bias is not None), m, n)
        down, up, _ = _svd_start(w, r_sym, h, mode, gate_input)   # also checks h, mode, gate
        return InherNetLayer(_tile(down, 2), _tile(up, 2), _tile(bias, 1),
                             np.zeros((m, 2)), np.zeros(2), "input", "symmetric")
    if layer.kind == "dense":
        student = inherit_dense(w, r, h, mode, gate_input, bias)
    else:
        student = inherit_conv(layer.params["kernel"], r, h, mode, layer.stride,
                               layer.padding, bias)
    if variant == "no-gate":
        return student.ungated()
    if variant == "no-svd":
        down, up = student.blocks["down"], student.blocks["up"]
        down[0] = kaiming_uniform(down.shape[1:], fan_in=down[0].size // student.rank,
                                  gen=_rng.philox(seed, _rng.STREAM_INIT, 0))
        for j in range(student.n_heads):
            up[j] = kaiming_uniform(up.shape[1:], fan_in=student.rank,
                                    gen=_rng.philox(seed, _rng.STREAM_INIT, j + 1))
    return student


def inherit_network(net: Network, r: int, h: int, variant: str = "standard",
                    mode: str = "convex", gate_input: str = "code",
                    seed: int = 0, cap_rank: bool = False) -> Network:
    """Inherit every dense and conv layer of a teacher network.

    Layer ``i`` draws its ``no-svd`` factors from seed ``seed + i``. With
    ``cap_rank`` the per-layer rank is clamped to its maximum; otherwise an
    out-of-range rank raises. Every error names the offending layer.
    """
    layers: list[Layer] = []
    for i, layer in enumerate(net.layers):
        try:
            w = factor_matrix(layer)
            r_l = min(r, *w.shape) if cap_rank and w is not None else r
            layers.append(inherit_layer(layer, r_l, h, variant, mode, gate_input, seed + i))
        except RangeError as exc:
            raise RangeError(f"layer {i}: {exc}") from exc
    return Network(layers)
