"""Gated low-rank inheritance of trained layers.

Every gated layer computes one map, a mixture of H low-rank experts
``y = sum_h g_h(x) * (x @ D_h @ U_h + b_h)`` with per-sample gate
``g = softmax(gate_in @ gate_weight + gate_bias)`` (the factorised mixture
of sparsely-gated MoE layers and of low-rank adapters). D, U and b are
stacks whose leading axis is 1 (shared by every head) or H (one per head);
which side is per head is all that separates the kinds. A gated layer
stores the stacks as the blocks ``down``, ``up`` and ``bias``; the one kind
table :data:`KINDS` gives each kind's class and the array names its stacks
are saved and exposed under. ``inherit_dense`` shares D and gates on the
code ``x @ D`` or the input; ``inverse`` shares U and b; ``symmetric`` has
two (D, U) branches and a shared b; both gate on the input. ``inherit_conv``
is the conv twin of ``inherit_dense`` (a dense layer is its one-pixel
case): D is a spatial kernel of r filters, run through the teacher conv's
code :func:`~inhernet.nn.conv_lowered`, each U_h a 1x1 convolution, and
the gate reads the spatial mean of the code map.

A frozen gate (``no-gate``) is exactly uniform and has no parameters. Each
layer mixes its heads in the space that is cheaper for its shape, and no
step loops over heads in Python. A dense layer has one code per sample, so
it mixes codes, and its whole output stage is one GEMM. The gate-weighted
codes of all heads (summed over heads first when U is shared) and the
bias's gate columns (g itself for per-head biases, its row sum for a
shared one) fill one (B, H_up*r + H_bias) buffer. That buffer multiplies
the ``up`` and ``bias`` blocks read as one (H_up*r + H_bias, n) matrix
``[up; bias]``, a view of the flat parameter vector, where the blocks sit
side by side. The backward draws both blocks' gradients from
``buffer.T @ grad_out``, and the code gradient and the bias's share of the
gate scores from ``grad_out @ [up; bias].T``.

A convolution has one code per output pixel, so it mixes weights: each
sample's gate sums the heads into one matrix, as CondConv routes expert
kernels into one per-example kernel, and that matrix multiplies the
sample's code map. With a bias the code map gains a constant ones channel,
(B, r+1, OH*OW), built in the one copy out of the lowering's output, and
the head stage is one batched GEMM of ``[sum_h g_h U_h | sum_h g_h b_h]``
(N, r+1) against it: the conv twin of the dense ``[up; bias]``. The
backward draws the heads' rows, the bias column and the gate scores from
one product ``grad_out @ code^T``. Its output is NCHW without a transpose,
and no per-head copy of the code map exists on either pass.

:func:`inherit_layer` builds every student from one start factor pair,
the teacher's truncated SVD D = ``U_r sqrt(S_r)``, U = ``sqrt(S_r) V_r^T``
(a conv kernel, reshaped to (N, c*kh*kw), is the transpose of W) or Kaiming
draws for ``no-svd``, and tiles each stack as its kind holds it. In
``convex`` mode (default) every head holds the full factor, so any convex
gating of identical heads reproduces the rank-r teacher exactly; in
``paper`` mode the per-head factor (``up`` where it is per head, else
``down``) holds one H-th, so uniform gating reproduces only ``W_r / H``.
Gates start at zero, that is uniform; code gating has the ``H*(r+1)`` gate
parameters the compression accounting counts.

Only this module knows which teacher layers decompose: :func:`factor_matrix`
gives the matrix a teacher layer's SVD factors, :func:`inherit_layer` builds
its student.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import rng as _rng
from .errors import NumericalError, RangeError, ShapeError, require_index
from .linalg import softmax, sum_rows, truncated_svd
from .nn import (Conv2DLayer, DenseLayer, Layer, Network, ReluLayer, check_conv_geometry,
                 conv_lowered, conv_lowered_backward, kaiming_uniform)

COMBINER_MODES = ("convex", "paper")
GATE_INPUTS = ("code", "input")
VARIANTS = ("standard", "no-svd", "no-gate", "symmetric", "inverse")

STACKS = ("down", "up", "bias")


class GatedKind(NamedTuple):
    """A gated manifest kind: its class and the array names of its down, up
    and bias stacks, which format v1 fixes. A name with "{}" makes a stack
    per head (``head_{}`` gives ``head_0``, ``head_1``, ...)."""

    layer: type
    stacked: tuple[str, str, str]

    @property
    def per_head(self) -> tuple[str, ...]:
        """The stacks that hold one entry per head."""
        return tuple(block for block, name in zip(STACKS, self.stacked) if "{}" in name)


def _stack(arrays: dict[str, np.ndarray], name: str, h: int) -> np.ndarray:
    """The stack behind an array name of :data:`KINDS`: one array per head, or one."""
    if "{}" in name:
        return np.stack([arrays[name.format(i)] for i in range(h)])
    return arrays[name][None]


def _named(blocks: dict[str, np.ndarray], stacked: dict[str, str]) -> dict[str, np.ndarray]:
    """``blocks`` under their array names: a stack named in ``stacked`` as one
    view per entry, or as its one entry; the gate blocks under their own names."""
    out: dict[str, np.ndarray] = {}
    for block, a in blocks.items():
        name = stacked.get(block, block)
        if "{}" in name:
            out.update((name.format(i), entry) for i, entry in enumerate(a))
        else:
            out[name] = a[0] if block in stacked else a
    return out


def _gate_weighted(g: np.ndarray, a: np.ndarray, k: int, out: np.ndarray | None = None) -> np.ndarray:
    """``g_h * a_h`` for every head, from ``a`` (B, 1|H, r), summed over heads if ``k`` is 1.

    The (B, k, r) result goes to ``out`` when it is given.
    """
    if k == 1 and a.shape[1] > 1:
        return np.matmul(g[:, None, :], a, out=out)
    # bit-identical to g[:, :, None] * a, and faster on large batches, where
    # the broadcast product's inner loop is only r entries long
    return np.einsum("bh,bhr->bhr", g, a, out=out)


class GatedMixture(Layer):
    """Storage, persistence and softmax gate of the gated layers.

    A subclass stores its down, up and bias stacks through
    ``_store_stacks`` as the blocks ``down``, ``up`` and ``bias`` (absent
    without a bias); ``per_head`` names those of them that hold one entry
    per head, and the others hold one shared entry. ``params`` and
    ``grads`` expose the stacks under their kind's array names
    (:data:`KINDS`). It draws its per-sample gate (B, H) from ``_gate``
    and mixes its heads in the form its shape makes cheaper. Its backward
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
        self.kind, self.per_head = kind, KINDS[kind].per_head
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

    def _expose(self) -> None:
        stacked = dict(zip(STACKS, KINDS[self.kind].stacked))
        self.params, self.grads = _named(self.blocks, stacked), _named(self.grad_blocks, stacked)

    @classmethod
    def from_config(cls, config: dict, arrays: dict[str, np.ndarray]) -> "GatedMixture":
        fields = dict(config)
        if config["kind"] in ("inverse", "symmetric"):
            # format v1 wrote none of these for the ablation kinds
            for key, value in (("gate_input", "input"), ("gate_frozen", False),
                               ("has_head_bias", "bias" in arrays), ("n_heads", 2)):
                fields.setdefault(key, value)
        h = fields["n_heads"]
        down, up, bias = KINDS[fields["kind"]].stacked
        gate = {} if fields["gate_frozen"] else {
            "gate_weight": arrays["gate_weight"], "gate_bias": arrays["gate_bias"]}
        return cls(_stack(arrays, down, h), _stack(arrays, up, h),
                   _stack(arrays, bias, h) if fields["has_head_bias"] else None,
                   **gate, **{k: fields[k] for k in cls.settings})

    def config(self) -> dict:
        return {**super().config(), "n_heads": self.n_heads, "has_head_bias": self.has_head_bias,
                "gate_frozen": self.gate_frozen}

    def _gate(self, gate_in: np.ndarray) -> np.ndarray:
        """Per-sample gate weights (B, H); exactly uniform when the gate is frozen."""
        if self.gate_frozen:
            return np.full((gate_in.shape[0], self.n_heads), 1.0 / self.n_heads)
        logits = gate_in @ self.params["gate_weight"]
        logits += self.params["gate_bias"]
        return softmax(logits)

    def _gate_backward(self, g: np.ndarray, gate_in: np.ndarray, s: np.ndarray,
                       input_grad: bool = True) -> np.ndarray | None:
        """Backward of the softmax gate for the scores ``s = dL/dg`` (B, H).

        Adds the gate's gradients; returns dL/d ``gate_in``, zero for a
        frozen gate, or None when ``input_grad`` is false and nothing reads it.
        The logits' gradient is formed in place in ``s``.
        """
        if self.gate_frozen:
            return np.zeros_like(gate_in) if input_grad else None
        dlogits = s
        dlogits -= sum_rows(g * s)
        dlogits *= g
        self.grads["gate_weight"] += gate_in.T @ dlogits
        self.grads["gate_bias"] += dlogits.sum(axis=0)
        return dlogits @ self.params["gate_weight"].T if input_grad else None


class InherNetLayer(GatedMixture):
    """The dense gated mixture ``y = sum_h g_h(x) * (x @ D_h @ U_h + b_h)``.

    ``down`` (1|H, m, r), ``up`` (1|H, r, n) and ``bias`` (1|H, n) are
    stacks, and ``kind`` fixes which of them are per head. The gate reads
    the code ``x @ w_down`` (``gate_input="code"``, ``inherit_dense`` only)
    or the input ``x``. The heads mix in code space, and the output stage
    is one GEMM: the gate-weighted codes (B, (1|H)*r) and the bias's gate
    columns (B, 1|H) fill one buffer, which meets the ``up`` and ``bias``
    blocks read as one ((1|H)*r + (0|1|H), n) matrix. The two blocks sit
    next to each other in the flat vector, so that matrix is a view, built
    whenever the blocks move.
    """

    settings = ("kind", "gate_input")
    derived = GatedMixture.derived + ("_down", "_out", "_out_grad")

    def __init__(self, down: np.ndarray, up: np.ndarray, bias: np.ndarray | None = None,
                 gate_weight: np.ndarray | None = None, gate_bias: np.ndarray | None = None,
                 gate_input: str = "code", kind: str = "inherit_dense"):
        super().__init__()
        if kind not in KINDS or KINDS[kind].layer is not InherNetLayer:
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

    def _expose(self) -> None:
        super()._expose()
        down, up = self.blocks["down"], self.blocks["up"]
        # a shared down is the (m, r) matrix itself; a per-head one is copied per call
        self._down = down[0] if len(down) == 1 else None
        lo = down.size
        hi = lo + up.size + (self.blocks["bias"].size if "bias" in self.blocks else 0)
        self._out = self.flat[lo:hi].reshape(-1, up.shape[2])
        self._out_grad = self.grad_flat[lo:hi].reshape(-1, up.shape[2])

    def _down_matrix(self) -> np.ndarray:
        """The down stack as one (m, (1|H)*r) matrix."""
        if self._down is not None:
            return self._down
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
        hu, r = len(self.blocks["up"]), self.rank
        mix = np.empty((b, len(self._out)))       # [gate-weighted codes | bias gate columns]
        _gate_weighted(g, z.reshape(b, -1, r), hu, out=mix[:, :hu * r].reshape(b, hu, r))
        if self.has_head_bias:
            # a shared bias is weighted by the gate's sum, as sum_h g_h b
            mix[:, hu * r:] = g if "bias" in self.per_head else sum_rows(g)
        self.saved = (x, z, g, mix)
        return mix @ self._out

    def backward(self, grad_out):
        """Draws the ``up`` and ``bias`` gradients from one GEMM against the
        forward's mixing buffer, and dL/d(codes) and the bias's gate scores
        from one GEMM against the ``[up; bias]`` matrix."""
        x, z, g, mix = self._saved()
        b, hd, hu, r = len(x), len(self.blocks["down"]), len(self.blocks["up"]), self.rank
        self._out_grad += mix.T @ grad_out
        dmix = grad_out @ self._out.T
        dz_mix = dmix[:, :hu * r].reshape(b, hu, r)                 # grad_out @ up_h^T
        s = np.einsum("bhr,bhr->bh", z.reshape(b, hd, r), dz_mix)
        if self.has_head_bias:
            s += dmix[:, hu * r:]                                   # grad_out @ bias_h^T
        code = self.gate_input == "code"
        # a code gate's input gradient feeds dz; an input gate's only dL/dx
        dgate = self._gate_backward(g, z if code else x, s, code or self.input_grad)
        dz = _gate_weighted(g, dz_mix, hd).reshape(b, -1)
        if code:
            dz += dgate
        d_down = self.grad_blocks["down"]
        d_down += (x.T @ dz).reshape(x.shape[1], hd, r).transpose(1, 0, 2)
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
    heads ``[U_h | b_h]`` into one (N, r+1) matrix ``M``, which multiplies
    that sample's code map with a ones channel appended, (r+1, OH*OW), so
    the bias needs no pass of its own; without a bias both drop the extra
    column and channel. The backward draws the heads', the biases' and the
    gate's gradients from one per-sample product grad_out @ code^T. The
    shared stage runs through :func:`~inhernet.nn.conv_lowered`, like the
    teacher conv, and keeps only the buffer it hands back.
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

    @property
    def rank(self) -> int:
        return self.blocks["up"].shape[2]

    def _head_matrix(self) -> np.ndarray:
        """The heads as one (H, N*(r+1)) matrix, row h the flattened [U_h | b_h];
        (H, N*r) without a bias."""
        up = self.blocks["up"]
        if "bias" in self.blocks:
            up = np.concatenate((up, self.blocks["bias"][:, :, None]), axis=2)
        return up.reshape(len(up), -1)

    def forward(self, x):
        k = self.blocks["down"][0]
        self.saved = None    # drop the last batch's buffer first, so two are never alive
        code, kept = conv_lowered(x, k, self.stride, self.padding)   # (B, r, OH, OW)
        b, r, oh, ow = code.shape
        z = code.reshape(b, r, oh * ow)
        pooled = z.mean(axis=2)
        g = self._gate(pooled)
        if self.has_head_bias:
            # the code map plus a ones channel, which the bias column reads
            z = np.empty((b, r + 1, oh * ow))
            z[:, :r] = code.reshape(b, r, oh * ow)
            z[:, r] = 1.0
        heads = self._head_matrix()
        m = (g @ heads).reshape(b, -1, z.shape[1])                  # (B, N, r[+1])
        self.saved = (kept, x.shape, z, pooled, g, m, heads)
        return (m @ z).reshape(b, -1, oh, ow)

    def backward(self, grad_out):
        """Returns dL/dx, or None while ``input_grad`` is cleared."""
        kept, x_shape, z, pooled, g, m, heads = self._saved()
        b, ra, p = z.shape
        r = self.rank
        gy = grad_out.reshape(b, -1, p)                           # (B, N, OH*OW)
        c = (gy @ z.transpose(0, 2, 1)).reshape(b, -1)            # (B, N*(r[+1]))
        dheads = (g.T @ c).reshape(self.n_heads, -1, ra)
        self.grad_blocks["up"] += dheads[:, :, :r]
        if self.has_head_bias:
            self.grad_blocks["bias"] += dheads[:, :, r]
        s = c @ heads.T
        dz = m[:, :, :r].transpose(0, 2, 1) @ gy
        dz += self._gate_backward(g, pooled, s)[:, :, None] / p
        dk, dx = conv_lowered_backward(dz, kept, x_shape, self.blocks["down"][0],
                                       self.stride, self.padding, self.input_grad)
        self.grad_blocks["down"] += dk[None]
        return dx


# Manifest kind -> class and array names; one entry per gated kind.
KINDS = {
    "inherit_dense": GatedKind(InherNetLayer, ("w_down", "head_{}", "head_bias_{}")),
    "inverse": GatedKind(InherNetLayer, ("down_{}", "w_up", "bias")),
    "symmetric": GatedKind(InherNetLayer, ("down_{}", "up_{}", "bias")),
    "inherit_conv": GatedKind(InherConv2DLayer, ("shared_kernel", "head_{}", "head_bias_{}")),
}


def inherit_dense(w: np.ndarray, r: int, h: int, mode: str = "convex",
                  gate_input: str = "code",
                  bias: np.ndarray | None = None) -> InherNetLayer:
    """The ``standard`` student of the dense teacher ``x @ w + bias``:
    ``w_down`` is ``U_r sqrt(S_r)``, every head ``sqrt(S_r) V_r^T`` (one H-th
    of it in ``paper`` mode) and a copy of the bias, and the gate is uniform."""
    return inherit_layer(DenseLayer(w, bias), r, h, mode=mode, gate_input=gate_input)


def inherit_conv(k: np.ndarray, r: int, h: int, mode: str = "convex",
                 stride: int = 1, padding: int = 0,
                 bias: np.ndarray | None = None) -> InherConv2DLayer:
    """The ``standard`` student of a teacher convolution with kernel ``k``
    (N, c, kh, kw), factorized as (N, c*kh*kw): ``sqrt(S_r) V_r^T`` becomes the
    shared spatial kernel (r, c, kh, kw), ``U_r sqrt(S_r)`` the (N, r) 1x1 heads."""
    return inherit_layer(Conv2DLayer(k, stride, padding, bias), r, h, mode=mode)


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


def _build(kind: str, down: np.ndarray, up: np.ndarray, bias: np.ndarray | None, h: int,
           gate_width: int | None, **settings) -> GatedMixture:
    """A ``kind`` layer of ``h`` heads from the stacks ``down``, ``up`` and
    ``bias`` (None without a bias), each one-entry stack the kind holds per
    head tiled ``h`` times, and the class's other ``settings``. The gate
    reads ``gate_width`` values and starts at zero; it is frozen for None."""
    per_head = KINDS[kind].per_head
    down, up, bias = (np.repeat(a, h, axis=0) if a is not None and name in per_head
                      and len(a) != h else a for name, a in zip(STACKS, (down, up, bias)))
    gate = () if gate_width is None else (np.zeros((gate_width, h)), np.zeros(h))
    cls, fields = KINDS[kind].layer, {"kind": kind, **settings}
    return cls(down, up, bias, *gate, **{k: fields[k] for k in cls.settings})


def _symmetric_rank(m: int, n: int, budget: int, bias: np.ndarray | None) -> int:
    """The largest branch rank, at most min(m, n), whose two-branch
    ``symmetric`` layer has at most ``budget`` parameters; 1 when none has.
    The count grows with the rank, so halving the range finds it."""
    lo, hi = 1, min(m, n)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        sym = _build("symmetric", np.zeros((1, m, mid)), np.zeros((1, mid, n)), bias, 2, m,
                     gate_input="input")
        lo, hi = (mid, hi) if sym.param_count() <= budget else (lo, mid - 1)
    return lo


def inherit_layer(layer: Layer, r: int, h: int, variant: str = "standard",
                  mode: str = "convex", gate_input: str = "code", seed: int = 0) -> Layer:
    """The student of one teacher layer: a gated ``variant`` of a dense or conv
    layer, a new ReLU for a ReLU.

    Every variant starts from one factor pair of the teacher matrix
    (:func:`factor_matrix`), and each stack is tiled as often as its kind
    (:data:`KINDS`) holds entries. ``standard``, ``no-gate`` and ``no-svd``
    build ``inherit_dense`` or ``inherit_conv``: ``no-gate`` freezes the
    gate at uniform, and ``no-svd`` takes no SVD but draws the shared
    factor and every head Kaiming-uniform from the streams (seed, init, 0)
    and (seed, init, h + 1); it holds no factor for ``paper`` mode to
    scale, so it takes only ``mode="convex"``. The dense-only ``inverse``
    mirrors the projections (H gated downs, one shared up), and
    ``symmetric`` uses two (down, up) branches of the largest rank, at most
    min(m, n), whose layer fits the ``standard`` student's parameter count
    (rank 1 when none does); in ``paper`` mode each branch's up is halved.
    Both gate on the input. A conv layer gates on its pooled code, so it
    takes only ``gate_input="code"``. A NaN or Inf teacher weight, kernel or
    bias raises :class:`NumericalError` naming it.
    """
    w, bias = factor_matrix(layer), layer.params.get("bias")
    if w is None:
        return ReluLayer()
    for name, p in layer.params.items():
        if not np.isfinite(p).all():
            raise NumericalError(f"teacher {name} holds NaN or Inf")
    conv = layer.kind == "conv2d"
    if variant not in VARIANTS:
        raise RangeError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    if variant in ("symmetric", "inverse") and conv:
        raise RangeError(f"variant {variant!r} is dense-only")
    if gate_input != "code" and conv:
        raise RangeError(f"a conv layer gates on its pooled code: gate_input must be "
                         f"'code', got {gate_input!r}")
    if mode not in COMBINER_MODES:
        raise RangeError(f"unknown combiner mode {mode!r}; expected one of {COMBINER_MODES}")
    if variant == "no-svd" and mode == "paper":
        raise RangeError("variant 'no-svd' draws no factor for mode 'paper' to scale; "
                         "use mode 'convex'")
    if gate_input not in GATE_INPUTS:
        raise RangeError(f"gate_input must be one of {GATE_INPUTS}, got {gate_input!r}")
    require_index("rank", r)
    if require_index("head count", h) < 1:
        raise RangeError(f"head count must be >= 1, got {h}")
    m, n = w.shape
    if not 1 <= r <= min(m, n):
        raise RangeError(f"rank {r} out of range [1, {min(m, n)}] for shape {w.shape}")
    bias = None if bias is None else bias[None]
    if conv:
        kind, settings = "inherit_conv", {"stride": layer.stride, "padding": layer.padding}
    else:
        kind = variant if variant in ("symmetric", "inverse") else "inherit_dense"
        settings = {"gate_input": gate_input if kind == "inherit_dense" else "input"}
    if kind == "symmetric":
        budget = _build("inherit_dense", np.zeros((1, m, r)), np.zeros((1, r, n)), bias, h,
                        r if gate_input == "code" else m, gate_input=gate_input).param_count()
        r, h = _symmetric_rank(m, n, budget, bias), 2
    shapes = ((r, *layer.params["kernel"].shape[1:]), (m, r)) if conv else ((m, r), (r, n))
    if variant == "no-svd":
        gens = [_rng.philox(seed, _rng.STREAM_INIT, j) for j in range(h + 1)]
        down = kaiming_uniform(shapes[0], fan_in=n if conv else m, gen=gens[0])[None]
        up = np.stack([kaiming_uniform(shapes[1], fan_in=r, gen=gen) for gen in gens[1:]])
    else:
        f = truncated_svd(w, r)
        sq = np.sqrt(f.sigma)
        left, right = f.u * sq, sq[:, None] * f.v.T        # W_r = left @ right
        down, up = (a.reshape(shape)[None] for a, shape in
                    zip((right, left) if conv else (left, right), shapes))
        if mode == "paper":      # the per-head factor holds one H-th
            (up if "up" in KINDS[kind].per_head else down)[...] /= h
    gate_width = m if settings.get("gate_input") == "input" else r
    return _build(kind, down, up, bias, h, None if variant == "no-gate" else gate_width,
                  **settings)


def inherit_network(net: Network, r: int, h: int, variant: str = "standard",
                    mode: str = "convex", gate_input: str = "code",
                    seed: int = 0, cap_rank: bool = False) -> Network:
    """Inherit every dense and conv layer of a teacher network.

    Layer ``i`` draws its ``no-svd`` factors from seed ``seed + i``. With
    ``cap_rank`` the per-layer rank is clamped to its maximum; otherwise an
    out-of-range rank raises. A range or numerical error names the offending
    layer.
    """
    layers: list[Layer] = []
    for i, layer in enumerate(net.layers):
        try:
            w = factor_matrix(layer)
            r_l = min(r, *w.shape) if cap_rank and w is not None else r
            layers.append(inherit_layer(layer, r_l, h, variant, mode, gate_input, seed + i))
        except (RangeError, NumericalError) as exc:
            raise type(exc)(f"layer {i}: {exc}") from exc
    return Network(layers)
