"""Minimal feed-forward network core with exact reverse-mode gradients.

Layers operate on float64 batches with samples along the leading axis
(row-vector convention, ``y = x @ W + b``). Each forward saves what its
backward needs as one tuple, ``Layer.saved``, which copies and pickles
drop; gradients accumulate until ``zero_grads``. A :class:`Network` packs
every trainable array of its layers into one contiguous parameter vector
and one gradient vector: each layer's ``params`` and ``grads`` entries are
views of those two vectors, so zeroing, norming and stepping the whole
network are single vector operations. A central-difference oracle
(:func:`finite_difference_grad`) provides the independent check for every
analytic gradient in the package.

Image batches are C-contiguous NCHW arrays, (B, C, H, W), and every conv
layer returns one. Every convolution, a teacher :class:`Conv2DLayer` and
the shared stage of an inherited one alike, lowers to GEMMs through one
pair, :func:`conv_lowered` and :func:`conv_lowered_backward`, which picks
the lowering from the kernel's shape. A layer keeps only the buffer the
pair hands back and its input's shape, and clears its slot before it
lowers the next batch. kn2row's buffer is the unpadded input itself: its
padded copy lives only for the forward GEMM, and its backward works on the
unpadded pixels, so dL/dx comes out C-contiguous in the input's shape.
im2col runs one loop over blocks of as many images as
:data:`LOWER_BLOCK_BYTES` of patches hold (at least one). Its buffer is
the patch matrix when the batch is one block, and the input otherwise,
from which the backward rebuilds each block's patches, so no convolution
builds or keeps a whole-batch patch matrix larger than that.

Nothing reads the gradient with respect to a network's input, so
:meth:`Network.backward` clears its first layer's ``input_grad`` for the
call and that layer forms only its parameter gradients.

Inference over a whole split runs through :func:`forward_in_blocks`:
:data:`ROW_BLOCK` rows per call for a row split, or the caller's block
for an image split, so no activation grows with the split.
"""

from __future__ import annotations

import numpy as np

from . import rng as _rng
from .errors import NumericalError, RangeError, ShapeError, StateError
from .linalg import log_softmax


class Layer:
    """Base layer: trainable arrays live in ``params``, their gradients in ``grads``.

    The storage behind both is ``blocks`` and ``grad_blocks``: ordered
    dicts of arrays, in the order a :class:`Network` packs them. The blocks
    are always views of one flat parameter vector, ``flat``, and the
    gradient blocks views of one flat gradient vector, ``grad_flat``, laid
    out block after block in that order. A standalone layer allocates the
    two vectors itself; the one :class:`Network` that wraps it moves them
    into slices of its own, once. ``params`` and ``grads`` are the blocks
    themselves; ``_expose``, which runs whenever the blocks move, is where
    a subclass names them otherwise or builds a view that reads several
    adjacent blocks as one matrix.

    ``saved`` holds what the last ``forward`` kept for ``backward``, one
    tuple (None before the first forward); ``_saved()`` raises
    :class:`StateError` while it is None. Copies and pickles drop it.

    ``kind`` names the layer in checkpoint manifests. ``config()`` returns
    its manifest settings, the kind and the constructor arguments named in
    ``settings``, which with the arrays rebuild it through ``from_config``.
    """

    kind: str | None = None
    settings: tuple[str, ...] = ()
    # False while Network.backward runs this layer as its first: backward
    # then forms parameter gradients only and returns None.
    input_grad = True
    saved: tuple | None = None
    # Attributes tied to where the blocks live (views of the flat vectors and
    # the network vector holding them) or to the last forward; pickling and
    # deepcopy drop them, and the copy rebuilds the first from its blocks.
    derived: tuple[str, ...] = ("params", "grads", "flat", "grad_flat", "packed_in", "saved")

    def __init__(self):
        self.blocks: dict[str, np.ndarray] = {}
        self.grad_blocks: dict[str, np.ndarray] = {}
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self.flat = self.grad_flat = np.empty(0)
        # The vector of the one network holding ``flat``. A layer belongs to at
        # most one network; to use it in another, wrap a copy.
        self.packed_in: np.ndarray | None = None

    def _store(self, blocks: dict[str, np.ndarray]) -> None:
        """Adopt copies of ``blocks`` as this layer's trainable state, with zero gradients."""
        size = sum(np.size(b) for b in blocks.values())
        self._place(blocks, None, np.empty(size), np.zeros(size))

    def _place(self, blocks: dict[str, np.ndarray], grad_blocks: dict[str, np.ndarray] | None,
               flat: np.ndarray, grad_flat: np.ndarray) -> None:
        """Copy ``blocks`` (and ``grad_blocks``, if given) into ``flat`` (and
        ``grad_flat``) block after block, and make the slices the blocks."""
        self.blocks, self.grad_blocks = {}, {}
        offset = 0
        for name, block in blocks.items():
            shape = np.shape(block)
            end = offset + np.size(block)
            self.blocks[name] = flat[offset:end].reshape(shape)
            self.blocks[name][...] = block
            self.grad_blocks[name] = grad_flat[offset:end].reshape(shape)
            if grad_blocks is not None:
                self.grad_blocks[name][...] = grad_blocks[name]
            offset = end
        self.flat, self.grad_flat = flat, grad_flat
        self._expose()

    def _expose(self) -> None:
        self.params, self.grads = self.blocks, self.grad_blocks

    def bind(self, params: np.ndarray, grads: np.ndarray, offset: int) -> int:
        """Move the blocks into ``params``/``grads`` from ``offset`` on.

        Current values and accumulated gradients are copied, and every
        block becomes a view of the two vectors. Returns the offset just
        past this layer.
        """
        end = offset + self.flat.size
        self._place(self.blocks, self.grad_blocks, params[offset:end], grads[offset:end])
        self.packed_in = params
        return end

    def __getstate__(self):
        # Views do not survive pickling or deepcopy; rebuild them from the blocks.
        state = dict(self.__dict__)
        for derived in self.derived:
            state.pop(derived, None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        size = sum(b.size for b in self.blocks.values())
        self._place(self.blocks, self.grad_blocks, np.empty(size), np.empty(size))
        self.packed_in = None

    def config(self) -> dict:
        return {"kind": self.kind, **{k: getattr(self, k) for k in self.settings}}

    @classmethod
    def from_config(cls, config: dict, arrays: dict[str, np.ndarray]) -> "Layer":
        """Rebuild a layer whose settings and arrays are named like its constructor's arguments."""
        return cls(**arrays, **{k: config[k] for k in cls.settings})

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def zero_grads(self) -> None:
        self.grad_flat.fill(0.0)

    def param_count(self) -> int:
        return self.flat.size

    def _saved(self) -> tuple:
        """The tuple the last forward saved for the backward."""
        if self.saved is None:
            raise StateError(f"{type(self).__name__}.backward called before forward")
        return self.saved


class DenseLayer(Layer):
    """Affine map ``y = x @ weight + bias`` with weight of shape (m, n)."""

    kind = "dense"

    def __init__(self, weight: np.ndarray, bias: np.ndarray | None = None):
        super().__init__()
        weight = np.asarray(weight, dtype=np.float64)
        if weight.ndim != 2:
            raise ShapeError(f"dense weight must be 2-D, got {weight.shape}")
        blocks = {"weight": weight}
        if bias is not None:
            bias = np.asarray(bias, dtype=np.float64)
            if bias.shape != (weight.shape[1],):
                raise ShapeError(f"bias shape {bias.shape} does not match output "
                                 f"width {weight.shape[1]}")
            blocks["bias"] = bias
        self._store(blocks)

    @property
    def weight(self) -> np.ndarray:
        return self.params["weight"]

    @property
    def bias(self) -> np.ndarray | None:
        return self.params.get("bias")

    def forward(self, x):
        w = self.weight
        if x.ndim != 2 or x.shape[1] != w.shape[0]:
            raise ShapeError(f"dense layer expects input width {w.shape[0]}, "
                             f"got batch shape {x.shape}")
        self.saved = (x,)
        y = x @ w
        if "bias" in self.params:
            y = y + self.params["bias"]
        return y

    def backward(self, grad_out):
        (x,) = self._saved()
        self.grads["weight"] += x.T @ grad_out
        if "bias" in self.params:
            self.grads["bias"] += grad_out.sum(axis=0)
        return grad_out @ self.weight.T if self.input_grad else None


class ReluLayer(Layer):
    """Rectifier with subgradient 0 at the origin; NaN, -0.0 and negatives give +0.0."""

    kind = "relu"

    def forward(self, x):
        # fmax drops NaN; adding +0.0 turns the -0.0 its scalar loop can return into +0.0
        y = np.fmax(x, 0.0)
        y += 0.0
        self.saved = (y,)
        return y

    def backward(self, grad_out):
        # the mask as 0.0/1.0 floats, scaled in place: no mixed-type multiply
        (y,) = self._saved()
        grad = (y > 0.0).astype(np.float64)
        grad *= grad_out
        return grad


def check_conv_geometry(stride: int, padding: int) -> None:
    if stride < 1 or padding < 0:
        raise ShapeError(f"invalid stride={stride} padding={padding}")


def conv_output_size(size: int, k: int, stride: int, padding: int) -> int:
    out = (size + 2 * padding - k) // stride + 1
    if out <= 0 or (size + 2 * padding - k) % stride != 0:
        raise ShapeError(f"conv geometry invalid: size={size} kernel={k} "
                         f"stride={stride} padding={padding}")
    return out


def _pad(x: np.ndarray, padding: int) -> np.ndarray:
    """``x`` (B, C, H, W) with ``padding`` zero rows and columns on every side.

    A C-contiguous float64 array; ``x`` itself when it is one and ``padding`` is 0.
    """
    if not padding:
        return np.ascontiguousarray(x, dtype=np.float64)
    b, c, h, w = x.shape
    xp = np.zeros((b, c, h + 2 * padding, w + 2 * padding), dtype=np.float64)
    xp[:, :, padding:-padding, padding:-padding] = x
    return xp


def im2col(x: np.ndarray, kh: int, kw: int, stride: int, padding: int) -> np.ndarray:
    """Unfold (B, C, H, W) into patch columns (B, C*kh*kw, OH*OW).

    Row ``(c, i, j)`` of a sample is channel c of the padded image seen
    through kernel offset (i, j), one column per output pixel in row-major
    order. The array is the buffer the rows were written into, so each
    row is a contiguous (OH, OW) plane.
    """
    b, c, h, w = x.shape
    oh = conv_output_size(h, kh, stride, padding)
    ow = conv_output_size(w, kw, stride, padding)
    xp = _pad(x, padding)
    cols = np.empty((b, c, kh, kw, oh, ow), dtype=np.float64)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride]
    return cols.reshape(b, c * kh * kw, oh * ow)


def col2im(cols: np.ndarray, x_shape, kh: int, kw: int, stride: int,
           padding: int) -> np.ndarray:
    """Adjoint of :func:`im2col`: scatter-add (B, C*kh*kw, OH*OW) columns onto the image.

    Each of the kh*kw adds reads one contiguous (OH, OW) plane per channel.
    """
    b, c, h, w = x_shape
    oh = conv_output_size(h, kh, stride, padding)
    ow = conv_output_size(w, kw, stride, padding)
    planes = cols.reshape(b, c, kh, kw, oh, ow)
    xp = np.zeros((b, c, h + 2 * padding, w + 2 * padding), dtype=np.float64)
    for i in range(kh):
        for j in range(kw):
            xp[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride] += planes[:, :, i, j]
    if padding:
        return xp[:, :, padding:-padding, padding:-padding]
    return xp


def _kernel_stack(kernel: np.ndarray) -> np.ndarray:
    """A kernel (R, C, kh, kw) stacked per offset as (kh*kw*R, C): row (i, j, r) is k[r, :, i, j]."""
    r, c, kh, kw = kernel.shape
    return kernel.transpose(2, 3, 0, 1).reshape(kh * kw * r, c)


def kn2row(x: np.ndarray, kernel: np.ndarray, stride: int, padding: int):
    """Convolve (B, C, H, W) with ``kernel`` (R, C, kh, kw) by kernel-to-row lowering.

    One GEMM of the kernel stacked per offset, (kh*kw*R, C), against each
    padded image seen as (C, Hp*Wp) gives every offset's R-channel response
    at every padded pixel. The output (B, R, OH, OW) sums kh*kw shifted
    planes of it, reading every ``stride``-th pixel (Vasudevan, Anderson
    and Gregg 2017, arXiv:1704.04428). Returns the output and the input
    itself as the buffer :func:`kn2row_backward` reads, so the padded copy
    lives only for the GEMM; an input that is not a C-contiguous float64
    array is kept as such a copy.

    A stride s runs the GEMM at stride 1, s*s times the work the output
    needs. :func:`conv_lowered` says when this lowering is the cheaper one.
    """
    b, c, h, w = x.shape
    r, _, kh, kw = kernel.shape
    oh = conv_output_size(h, kh, stride, padding)
    ow = conv_output_size(w, kw, stride, padding)
    x = np.ascontiguousarray(x, dtype=np.float64)
    xp = _pad(x, padding)
    hp, wp = xp.shape[2:]
    planes = (_kernel_stack(kernel) @ xp.reshape(b, c, hp * wp)).reshape(b, kh, kw, r, hp, wp)
    del xp
    y = planes[:, 0, 0, :, :stride * oh:stride, :stride * ow:stride].copy()
    for i in range(kh):
        for j in range(kw):
            if i or j:
                y += planes[:, i, j, :, i:i + stride * oh:stride, j:j + stride * ow:stride]
    return y, x


def _taps(offset: int, stride: int, padding: int, n_out: int, size: int):
    """Where kernel offset ``offset`` reads the unpadded input along one axis.

    Output index o reads input index o*stride + offset - padding. Returns the
    input positions that fall inside [0, size) and the output indices that
    read them, as two slices, or None when every read lands in the padding.
    """
    lo = max(0, -((offset - padding) // stride))
    hi = min(n_out, (size - 1 + padding - offset) // stride + 1)
    if hi <= lo:
        return None
    start = lo * stride + offset - padding
    return slice(start, start + (hi - lo - 1) * stride + 1, stride), slice(lo, hi)


def kn2row_backward(grad_out: np.ndarray, x: np.ndarray, kernel: np.ndarray,
                    stride: int, padding: int, input_grad: bool = True):
    """Gradients of :func:`kn2row` for ``grad_out`` (B, R, OH, OW): (dL/dkernel, dL/dx).

    ``x`` is the buffer the forward returned, the unpadded input. Each
    offset writes ``grad_out`` into a zeroed (B, kh*kw*R, H*W) stack at the
    input pixels it read, the adjoint of the shifted sum restricted to the
    image; reads of the padding add nothing to either gradient. The stack's
    products with the input give the kernel gradient, and the stacked
    kernel's transpose times it gives dL/dx, C-contiguous in the input's
    shape. A layer that has no use for dL/dx (``input_grad`` false) gets
    None in its place, and the GEMM that forms it is skipped.
    """
    b, c, h, w = x.shape
    r, _, kh, kw = kernel.shape
    oh = conv_output_size(h, kh, stride, padding)
    ow = conv_output_size(w, kw, stride, padding)
    gy = grad_out.reshape(b, r, oh, ow)
    stack = np.zeros((b, kh, kw, r, h, w), dtype=np.float64)
    for i in range(kh):
        rows = _taps(i, stride, padding, oh, h)
        for j in range(kw):
            cols = _taps(j, stride, padding, ow, w)
            if rows is not None and cols is not None:
                stack[:, i, j, :, rows[0], cols[0]] = gy[:, :, rows[1], cols[1]]
    stack = stack.reshape(b, kh * kw * r, h * w)
    # one GEMM per sample, so neither operand is copied
    dk = np.matmul(stack, x.reshape(b, c, h * w).transpose(0, 2, 1)).sum(axis=0)
    dk = dk.reshape(kh, kw, r, c).transpose(2, 3, 0, 1)
    if not input_grad:
        return dk, None
    return dk, (_kernel_stack(kernel).T @ stack).reshape(b, c, h, w)


def _lowers_by_kn2row(kernel: np.ndarray) -> bool:
    """The rule of :func:`conv_lowered`: more input channels than filters."""
    return kernel.shape[1] > kernel.shape[0]


# Bytes of im2col patches built at once. A batch whose patch matrix is larger
# lowers in blocks of as many images as fit, each block's GEMM writing into
# the one output. On a 2-vCPU VM with one BLAS thread, a 64-image forward of
# a 16->16 3x3 conv on 16x16 images (295 KB of patches per image) took
# 8.9 ms as one 18.9 MB patch matrix, 4.9-5.5 ms in blocks of 4-8 images
# (5.4 ms at this budget's 7), and 6.3 and 8.2 ms in blocks of 16 and 32;
# its backward fell from 17.6 to 15.8 ms at 7.
LOWER_BLOCK_BYTES = 2 << 20


def _images_per_block(patch_values: int) -> int:
    """How many images im2col unfolds at once when each image's patches are
    ``patch_values`` float64 values: as many as :data:`LOWER_BLOCK_BYTES`
    hold, and at least one."""
    return max(1, LOWER_BLOCK_BYTES // (8 * patch_values))


def conv_lowered(x: np.ndarray, kernel: np.ndarray, stride: int, padding: int):
    """Convolve (B, C, H, W) with ``kernel`` (R, C, kh, kw), lowered by its shape.

    Returns the output (B, R, OH, OW), C-contiguous, and the buffer that
    :func:`conv_lowered_backward` reads; a caller keeps it without looking
    inside. With more input channels than filters (C > R), as in the
    r-filter shared stage of an inherited conv, it runs :func:`kn2row`
    and the buffer is the input itself, which the layer before holds
    anyway. Otherwise it runs :func:`im2col` and the GEMM
    ``kernel @ cols`` over consecutive blocks of as many images as
    :data:`LOWER_BLOCK_BYTES` of patches hold (at least one), each block's
    GEMM writing its rows of the output. The buffer is the patch matrix
    when the whole batch is one block (an empty batch is one empty block),
    and the input itself otherwise. Each image's GEMM is the same whatever
    the blocks, so the output is too, bit for bit.

    The rule follows the data each lowering moves. kn2row's shifted adds
    move kh*kw*R values per output pixel where im2col copies kh*kw*C, and
    it keeps no buffer of its own, so it wins when the output is narrower
    than the input. At R >= C its forward is slower than im2col's, and at
    R = C forward plus backward gains nothing.
    """
    r, c, kh, kw = kernel.shape
    if x.ndim != 4 or x.shape[1] != c:
        raise ShapeError(f"conv expects (B, {c}, H, W), got {x.shape}")
    if _lowers_by_kn2row(kernel):
        return kn2row(x, kernel, stride, padding)
    b, _, h, w = x.shape
    oh = conv_output_size(h, kh, stride, padding)
    ow = conv_output_size(w, kw, stride, padding)
    km = kernel.reshape(r, -1)
    n = _images_per_block(km.shape[1] * oh * ow)
    y = np.empty((b, r, oh * ow))
    for lo in range(0, max(b, 1), n):
        cols = None    # drop the last block's patches before the next block's are built
        cols = im2col(x[lo:lo + n], kh, kw, stride, padding)
        np.matmul(km, cols, out=y[lo:lo + n])
    return y.reshape(b, r, oh, ow), cols if b <= n else x


def conv_lowered_backward(grad_out: np.ndarray, kept: np.ndarray, x_shape,
                          kernel: np.ndarray, stride: int, padding: int, input_grad: bool):
    """Gradients of :func:`conv_lowered` for ``grad_out`` (B, R, OH, OW): (dL/dkernel, dL/dx).

    ``kept`` is the buffer the forward returned for an input of shape
    ``x_shape``. With ``input_grad`` false, dL/dx is None and is not formed.
    An im2col backward runs over the forward's blocks: it takes each
    block's patches from ``kept`` when that is the patch matrix and
    rebuilds them from the input otherwise, forms that block's per-image
    kernel-gradient products and its dL/dx through :func:`col2im`, and sums
    the products of the whole batch once, so every gradient is the
    one-block result bit for bit.
    """
    if _lowers_by_kn2row(kernel):
        return kn2row_backward(grad_out, kept, kernel, stride, padding, input_grad)
    r, _, kh, kw = kernel.shape
    b, _, h, w = x_shape
    p = conv_output_size(h, kh, stride, padding) * conv_output_size(w, kw, stride, padding)
    gy = grad_out.reshape(b, r, p)                             # (B, R, OH*OW)
    kt = kernel.reshape(r, -1).T
    n = _images_per_block(kt.shape[0] * p)
    products = np.empty((b, r, kt.shape[0]))
    dx = np.empty(x_shape) if input_grad else None
    for lo in range(0, b, n):
        block = slice(lo, lo + n)
        cols = kept if kept.ndim == 3 else im2col(kept[block], kh, kw, stride, padding)
        np.matmul(gy[block], cols.transpose(0, 2, 1), out=products[block])
        del cols       # a rebuilt block's patches go before its dL/dx is formed
        if input_grad:
            dx[block] = col2im(kt @ gy[block], dx[block].shape, kh, kw, stride, padding)
    return products.sum(axis=0).reshape(kernel.shape), dx


class Conv2DLayer(Layer):
    """2-D convolution, lowered through :func:`conv_lowered`.

    Kernel shape is (n_filters, in_channels, kh, kw); inputs are
    (batch, in_channels, height, width). Between forward and backward the
    layer's slot holds the input's shape and the buffer the lowering handed
    back: the input itself when it lowers by kn2row or by im2col in several
    blocks, else the batch's patch matrix, at most :data:`LOWER_BLOCK_BYTES`
    or one image's.
    """

    kind = "conv2d"
    settings = ("stride", "padding")

    def __init__(self, kernel: np.ndarray, stride: int = 1, padding: int = 0,
                 bias: np.ndarray | None = None):
        super().__init__()
        kernel = np.asarray(kernel, dtype=np.float64)
        if kernel.ndim != 4:
            raise ShapeError(f"conv kernel must be 4-D, got {kernel.shape}")
        check_conv_geometry(stride, padding)
        blocks = {"kernel": kernel}
        if bias is not None:
            bias = np.asarray(bias, dtype=np.float64)
            if bias.shape != (kernel.shape[0],):
                raise ShapeError(f"conv bias shape {bias.shape} does not match "
                                 f"{kernel.shape[0]} filters")
            blocks["bias"] = bias
        self._store(blocks)
        self.stride = stride
        self.padding = padding

    @property
    def kernel(self) -> np.ndarray:
        return self.params["kernel"]

    def forward(self, x):
        self.saved = None    # drop the last batch's buffer first, so two are never alive
        y, kept = conv_lowered(x, self.kernel, self.stride, self.padding)
        self.saved = (kept, x.shape)
        if "bias" in self.params:
            y += self.params["bias"][:, None, None]
        return y

    def backward(self, grad_out):
        kept, x_shape = self._saved()
        dk, dx = conv_lowered_backward(grad_out, kept, x_shape, self.kernel,
                                       self.stride, self.padding, self.input_grad)
        self.grads["kernel"] += dk
        if "bias" in self.params:
            self.grads["bias"] += grad_out.sum(axis=(0, 2, 3))
        return dx


def _require_finite_input(x: np.ndarray) -> None:
    if not np.isfinite(x).all():
        raise NumericalError(f"network input of shape {np.shape(x)} holds NaN or Inf")


class Network:
    """An ordered stack of layers with a shared forward/backward walk.

    The network owns one flat parameter vector and one flat gradient
    vector, packed layer by layer in ``param_items`` order; every layer's
    ``params`` and ``grads`` are views of them for the network's whole
    life. A layer belongs to at most one network, once: wrapping a layer
    that is already bound raises :class:`StateError`, and a layer needed in
    a second network goes there as a copy (``copy.deepcopy`` or pickle).
    """

    def __init__(self, layers: list[Layer]):
        self.layers = list(layers)
        for i, layer in enumerate(self.layers):
            if layer.packed_in is not None or layer in self.layers[:i]:
                raise StateError(f"layer {i} ({layer.kind}) already belongs to a network; "
                                 f"wrap a copy of it (copy.deepcopy)")
        size = self.param_count()
        self._params, self._grads = np.empty(size), np.empty(size)
        offset = 0
        for layer in self.layers:
            offset = layer.bind(self._params, self._grads, offset)

    def __getstate__(self):
        return {"layers": self.layers}

    def __setstate__(self, state):
        self.__init__(state["layers"])

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Run every layer on the batch ``x``, which must be finite: a ReLU maps NaN to 0."""
        _require_finite_input(x)
        for i, layer in enumerate(self.layers):
            try:
                x = layer.forward(x)
            except (ShapeError, NumericalError) as exc:
                raise type(exc)(f"layer {i}: {exc}") from exc
        return x

    def backward(self, grad_out: np.ndarray) -> None:
        """Add every layer's parameter gradients for ``grad_out``, dL/d(output).

        Each layer but the first hands dL/d(its input) to the layer before
        it. The first runs with ``input_grad`` cleared, so it skips forming
        a gradient that nothing reads; the flag is restored even if that
        layer raises, and a direct call of its ``backward`` still returns
        dL/dx.
        """
        if not self.layers:
            return
        first, *rest = self.layers
        for layer in reversed(rest):
            grad_out = layer.backward(grad_out)
        first.input_grad = False
        try:
            first.backward(grad_out)
        finally:
            del first.input_grad

    def param_vector(self) -> np.ndarray:
        """Every trainable scalar, in ``param_items`` order."""
        return self._params

    def grad_vector(self) -> np.ndarray:
        """The gradient of every trainable scalar, aligned with ``param_vector``."""
        return self._grads

    def zero_grads(self) -> None:
        self._grads.fill(0.0)

    def param_items(self) -> dict[str, np.ndarray]:
        """Every trainable array, keyed ``{layer_index}.{name}``: views of ``param_vector``."""
        return {f"{i}.{k}": p for i, layer in enumerate(self.layers)
                for k, p in layer.params.items()}

    def grad_items(self) -> dict[str, np.ndarray]:
        """Every gradient array, keyed like ``param_items``: views of ``grad_vector``."""
        return {f"{i}.{k}": g for i, layer in enumerate(self.layers)
                for k, g in layer.grads.items()}

    def param_count(self) -> int:
        return sum(layer.param_count() for layer in self.layers)


# Rows per forward when a whole row split runs in blocks. A block of a
# 512-wide MLP's activations is 2 MB, where a 5,120-row split built 21 MB
# arrays. On a 2-vCPU VM with one BLAS thread, a 4,000-row eval forward of
# insight 1's r=8 student took 4.7 ms at 512- or 1,024-row blocks, 6.1 ms
# at 256 and 10.3 ms in one call, which page-faults on every call.
ROW_BLOCK = 512


def forward_in_blocks(net: Network, x: np.ndarray, block: int = ROW_BLOCK) -> np.ndarray:
    """``net.forward(x)`` run over consecutive slices of ``block`` samples.

    The block outputs fill one array allocated after the first block, and
    the layers' slots hold the last block's activations only, so the peak
    memory follows the block rather than the split. A split that fits in
    one block runs as that single call, with no copy; an empty one does
    too, so a loss still rejects it. A larger split is checked for NaN and
    Inf once, before any block runs, so the error names the split's shape.

    Each output row depends on its own sample only, so the rows are a
    single forward's up to rounding in the last place. BLAS picks a GEMM
    kernel by the product's size: OpenBLAS 0.3.31 runs products of at most
    10**6 multiply-adds, and single rows, through kernels of their own,
    which can round differently, as they do for an input gate's three
    output columns. Insight 1's r=8 student evaluated on 4,000 rows gave a
    loss one ulp away from a single forward's on 2 of 5 seeds; the
    512-wide layers of finetune-wide kept every bit of labels and losses.

    The layers keep what their backward needs, so a first layer that keeps
    its input, as a :class:`DenseLayer` does, saves a view of ``x``: its
    last block, or all of it when it fits one block. That view keeps the
    whole of ``x`` alive after this returns, so a caller that drops ``x``
    still pays for it until the network's next forward.
    """
    if block < 1:
        raise RangeError(f"block must be >= 1, got {block}")
    n = len(x)
    if n <= block:
        return net.forward(x)
    _require_finite_input(x)
    first = net.forward(x[:block])
    out = np.empty((n, *first.shape[1:]), dtype=first.dtype)
    out[:block] = first
    for lo in range(block, n, block):
        out[lo:lo + block] = net.forward(x[lo:lo + block])
    return out


def require_finite_output(net: Network, out: np.ndarray, where: str) -> None:
    """Raise :class:`NumericalError` if ``out``, an output of ``net``, holds NaN or Inf.

    The message names ``net``'s last layer by index and kind, then ``where``.
    """
    if not np.isfinite(out).all():
        last = len(net.layers) - 1
        raise NumericalError(f"output of layer {last} ({net.layers[last].kind}) holds NaN "
                             f"or Inf {where}")


def _mse_parts(pred: np.ndarray, target: np.ndarray):
    """The mean squared error and the difference ``pred - target`` it was taken from."""
    if pred.shape != target.shape:
        raise ShapeError(f"mse shapes differ: {pred.shape} vs {target.shape}")
    if pred.size == 0:
        raise ShapeError(f"mean squared error of an empty batch (shape {pred.shape})")
    diff = np.subtract(pred, target, dtype=np.float64)
    flat = diff.reshape(-1)
    return float(flat @ flat / flat.size), diff


def mse_value(pred: np.ndarray, target: np.ndarray) -> float:
    """:func:`mse_loss`'s loss, bit for bit, without forming its gradient."""
    return _mse_parts(pred, target)[0]


def mse_loss(pred: np.ndarray, target: np.ndarray):
    """Mean squared error over every entry; returns (loss, grad wrt pred).

    The gradient is formed in place in the difference as ``diff / (size / 2)``.
    Halving ``size`` is exact, so its one rounding is that of
    ``2.0 * diff / size``, which it equals bit for bit wherever
    ``2.0 * diff`` does not overflow.
    """
    loss, diff = _mse_parts(pred, target)
    diff /= diff.size / 2.0
    return loss, diff


def _cross_entropy_parts(logits: np.ndarray, labels: np.ndarray):
    """The mean cross-entropy of integer ``labels`` and the log-probabilities it was taken from."""
    b, k = logits.shape
    if b == 0:
        raise ShapeError("cross-entropy of an empty batch (0 rows of logits)")
    if labels.shape != (b,):
        raise ShapeError(f"labels shape {labels.shape} does not match batch {b}")
    if labels.dtype.kind not in "iu":
        raise RangeError(f"labels must be integers, got dtype {labels.dtype}")
    if labels.min() < 0 or labels.max() >= k:
        raise RangeError(f"label out of range [0, {k}): "
                         f"min={labels.min()} max={labels.max()}")
    log_probs = log_softmax(logits)
    return -float(log_probs[np.arange(b), labels].sum()) / b, log_probs


def cross_entropy_value(logits: np.ndarray, labels: np.ndarray) -> float:
    """:func:`cross_entropy`'s loss, bit for bit, without forming its gradient."""
    return _cross_entropy_parts(logits, np.asarray(labels))[0]


def cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean negative log softmax probability of the true class.

    Returns (loss, grad wrt logits); the gradient is
    (softmax - one_hot) / batch, formed in place in the log-probabilities.
    """
    labels = np.asarray(labels)
    loss, log_probs = _cross_entropy_parts(logits, labels)
    b = len(labels)
    grad = np.exp(log_probs, out=log_probs)
    grad[np.arange(b), labels] -= 1.0
    grad /= b
    return loss, grad


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    return float(np.mean(np.argmax(logits, axis=1) == np.asarray(labels)))


def finite_difference_grad(net: Network, loss_fn, x: np.ndarray, y: np.ndarray,
                           step: float = 1e-5) -> dict[str, np.ndarray]:
    """Central-difference gradient estimate for every trainable scalar.

    ``loss_fn(pred, y)`` must return ``(loss, grad)``; only the loss value
    is used here, keeping this oracle independent of every analytic
    backward pass it checks.
    """
    if step <= 0:
        raise RangeError(f"finite-difference step must be positive, got {step}")
    out: dict[str, np.ndarray] = {}
    for key, p in net.param_items().items():
        g = np.zeros_like(p)
        # Index assignment (not a flattened view) so any memory layout works.
        for idx in np.ndindex(p.shape):
            orig = p[idx]
            p[idx] = orig + step
            lp = loss_fn(net.forward(x), y)[0]
            p[idx] = orig - step
            lm = loss_fn(net.forward(x), y)[0]
            p[idx] = orig
            g[idx] = (lp - lm) / (2.0 * step)
        out[key] = g
    return out


def kaiming_uniform(shape, fan_in: int, gen: np.random.Generator) -> np.ndarray:
    """He-style uniform init on (-sqrt(6/fan_in), +sqrt(6/fan_in))."""
    bound = np.sqrt(6.0 / fan_in)
    return gen.uniform(-bound, bound, size=shape)


def make_mlp(dims: list[int], seed: int) -> Network:
    """Fully connected ReLU network with the given layer widths.

    Weights draw from the Kaiming-uniform distribution on the counter-based
    stream (seed, STREAM_INIT, layer_index); biases start at zero.
    """
    if len(dims) < 2:
        raise ShapeError("an MLP needs at least an input and an output width")
    layers: list[Layer] = []
    for i, (m, n) in enumerate(zip(dims[:-1], dims[1:])):
        gen = _rng.philox(seed, _rng.STREAM_INIT, i)
        w = kaiming_uniform((m, n), fan_in=m, gen=gen)
        layers.append(DenseLayer(w, np.zeros(n)))
        if i < len(dims) - 2:
            layers.append(ReluLayer())
    return Network(layers)
