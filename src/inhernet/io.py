"""Deterministic persistence and data generation.

Checkpoint container layout (all integers little-endian):

    offset  size  contents
    0       8     magic ``INHERNET``
    8       4     format version (u32, currently 1)
    12      8     manifest byte count (u64)
    20      ...   manifest: UTF-8 JSON describing layer topology, shapes,
                  enums, and any extra metadata
    ...     ...   blob: concatenated little-endian float64 arrays in
                  manifest-declared order

The blob length must equal the sum of declared parameter counts times 8;
loading a saved network restores every parameter bit-exactly. Synthetic
tasks regenerate bit-identically from ``(kind, seed, sizes)`` because all
draws flow through the counter-based generator. Result tables (run logs,
experiment rows) are written as CSV by :func:`write_csv`; nothing here
reads CSV back.
"""

from __future__ import annotations

import json
import math
import os
import struct
import tempfile
from dataclasses import dataclass

import numpy as np

from . import rng as _rng
from .errors import CorruptionError, FormatError, RangeError, require_index
from .inherit import KINDS
from .nn import (ROW_BLOCK, Conv2DLayer, DenseLayer, Layer, Network, ReluLayer,
                 require_finite_output)

MAGIC = b"INHERNET"
VERSION = 1


@dataclass(frozen=True)
class Dataset:
    """A batch of inputs with regression targets or integer class labels."""

    x: np.ndarray
    y: np.ndarray
    kind: str  # "regression" | "classification"

    def __post_init__(self):
        if self.kind not in ("regression", "classification"):
            raise RangeError(f"unknown dataset kind {self.kind!r}")


@dataclass(frozen=True)
class SyntheticTask:
    """Generator settings for a desk-scale task; regeneration is bit-exact."""

    kind: str          # "blobs" | "piecewise" | "mimic"
    seed: int
    n: int
    dim: int
    classes: int = 2   # classes (blobs) or clusters (piecewise)
    out_dim: int = 1   # target width for piecewise tasks
    noise: float = 0.0
    separation: float = 3.0
    per_class: int = 1  # Gaussian blobs per class; labels repeat across blobs
    map_rank: int = 0   # rank of each piecewise cluster map (0 = full rank)

    def __post_init__(self):
        if self.kind not in ("blobs", "piecewise", "mimic"):
            raise RangeError(f"unknown task kind {self.kind!r}")
        for name in ("seed", "n", "dim", "classes", "out_dim", "per_class", "map_rank"):
            require_index(name, getattr(self, name))
        for name in ("noise", "separation"):
            if not math.isfinite(getattr(self, name)):
                raise RangeError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.n < 2 or self.dim < 1 or self.classes < 1 or self.per_class < 1:
            raise RangeError(f"task sizes must be positive, got {self}")
        for name, low in (("out_dim", 1), ("noise", 0), ("map_rank", 0)):
            if not getattr(self, name) >= low:
                raise RangeError(f"{name} must be >= {low}, got {getattr(self, name)!r}")


def gen_synthetic(task: SyntheticTask, teacher: Network | None = None):
    """Generate a task and split it 80/20 by a seeded permutation.

    The task is held once, in split order: the permutation is drawn first
    (from its own stream, so drawing it first changes no value), and drawn
    row ``i`` is written straight to row ``slot[i]`` of one array, where
    ``slot`` inverts the permutation. The eval split is that array's first
    ``n // 5`` rows (at least one), the training split the rest; both are
    views of it. Noise on the targets is drawn after the last input row.

    A mimic task draws its inputs in blocks of :data:`~inhernet.nn.ROW_BLOCK`
    rows and labels each block with one teacher forward, so the teacher's
    activations, and the input it saves, stay the size of a block. These
    are the blocks :func:`~inhernet.nn.forward_in_blocks` would run, so the
    labels equal its outputs bit for bit, which are a single forward's up
    to the last-place rounding it describes. A NaN or Inf among a block's
    labels raises :class:`~inhernet.errors.NumericalError` naming the
    teacher's last layer and the block's drawn rows.
    """
    perm = _rng.philox(task.seed, _rng.STREAM_SPLIT).permutation(task.n)
    gen = _rng.philox(task.seed, _rng.STREAM_DATA)
    if task.kind == "blobs":
        k = task.classes * task.per_class
        centers = gen.standard_normal((k, task.dim)) * task.separation
        cluster = gen.integers(0, k, size=task.n)
        x = centers[cluster] + gen.standard_normal((task.n, task.dim))
        blocks = [(x, (cluster % task.classes).astype(np.int64))]
        kind = "classification"
    elif task.kind == "piecewise":
        centers = gen.standard_normal((task.classes, task.dim)) * task.separation
        maps = gen.standard_normal((task.classes, task.dim, task.out_dim)) / np.sqrt(task.dim)
        if task.map_rank > 0:
            # project each cluster map onto its top singular directions
            for c in range(task.classes):
                u, s, vt = np.linalg.svd(maps[c], full_matrices=False)
                s[task.map_rank:] = 0.0
                maps[c] = (u * s) @ vt
        offsets = gen.standard_normal((task.classes, task.out_dim))
        assign = gen.integers(0, task.classes, size=task.n)
        x = centers[assign] + gen.standard_normal((task.n, task.dim))
        blocks = [(x, np.einsum("bd,bdo->bo", x, maps[assign]) + offsets[assign])]
        kind = "regression"
    else:
        if teacher is None:
            raise RangeError("mimic task requires a teacher network")
        blocks = _mimic_blocks(task, teacher, gen)
        kind = "regression"
    slot = np.empty_like(perm)
    slot[perm] = np.arange(task.n)
    lo = 0
    for xb, yb in blocks:
        if lo == 0:
            x = np.empty((task.n, *xb.shape[1:]), dtype=xb.dtype)
            y = np.empty((task.n, *yb.shape[1:]), dtype=yb.dtype)
        rows = slot[lo:lo + len(xb)]
        x[rows], y[rows] = xb, yb
        lo += len(xb)
    if task.noise > 0 and task.kind != "blobs":
        y += task.noise * gen.standard_normal(y.shape)[perm]
    n_eval = max(1, task.n // 5)
    return (Dataset(x=x[n_eval:], y=y[n_eval:], kind=kind),
            Dataset(x=x[:n_eval], y=y[:n_eval], kind=kind))


def _mimic_blocks(task: SyntheticTask, teacher: Network, gen: np.random.Generator):
    """Yield a mimic task's drawn inputs and the teacher's labels, block by block."""
    for lo in range(0, task.n, ROW_BLOCK):
        xb = gen.standard_normal((min(ROW_BLOCK, task.n - lo), task.dim))
        yb = teacher.forward(xb)
        require_finite_output(teacher, yb, f"in the teacher's labels of drawn rows "
                                           f"{lo}..{lo + len(xb) - 1}")
        yield xb, yb


# --- checkpoint serialization ------------------------------------------------

# Manifest kind -> layer class. A layer's ``config()`` plus its arrays rebuild
# it through the class's ``from_config``; the gated kinds come from
# ``inherit.KINDS``, which also fixes their array names.
LAYER_KINDS: dict[str, type[Layer]] = {
    "dense": DenseLayer,
    "relu": ReluLayer,
    "conv2d": Conv2DLayer,
    **{kind: gated.layer for kind, gated in KINDS.items()},
}


def _layer_manifest(layer: Layer) -> dict:
    config = layer.config()
    if LAYER_KINDS.get(config["kind"]) is not type(layer):
        raise FormatError(f"cannot serialize layer type {type(layer).__name__}")
    return {**config, "arrays": [{"name": k, "shape": list(v.shape)}
                                 for k, v in layer.params.items()]}


def _read_arrays(where: str, entry, blob: bytes, offset: int):
    """The arrays a manifest entry declares, read from ``blob`` at ``offset``."""
    specs = entry.get("arrays") if isinstance(entry, dict) else None
    if not isinstance(specs, list):
        raise CorruptionError(f"{where}: field 'arrays' is missing or not a list")
    arrays: dict[str, np.ndarray] = {}
    for spec in specs:
        name, shape = (spec.get("name"), spec.get("shape")) if isinstance(spec, dict) else (None, None)
        if not isinstance(name, str) or name in arrays:
            raise CorruptionError(f"{where}: array field 'name' {name!r} is missing or repeated")
        if not isinstance(shape, list) or not all(type(d) is int and d >= 0 for d in shape):
            raise CorruptionError(f"{where}: array {name!r} field 'shape' {shape!r} "
                                  f"is not a list of non-negative integers")
        need = 8 * math.prod(shape)
        if offset + need > len(blob):
            raise CorruptionError(
                f"{where} ({entry.get('kind')}) array {name!r} needs {need} bytes at "
                f"offset {offset}, only {len(blob) - offset} remain")
        arrays[name] = np.frombuffer(blob, dtype="<f8", count=need // 8,
                                     offset=offset).astype(np.float64).reshape(shape)
        offset += need
    return arrays, offset


def _build_layer(where: str, entry: dict, arrays: dict[str, np.ndarray]) -> Layer:
    kind = entry.get("kind")
    if not isinstance(kind, str):
        raise CorruptionError(f"{where}: field 'kind' is missing or not a string")
    if kind not in LAYER_KINDS:
        raise FormatError(f"{where}: unknown layer kind {kind!r} in manifest")
    try:
        layer = LAYER_KINDS[kind].from_config(entry, arrays)
    except KeyError as exc:
        raise CorruptionError(f"{where} ({kind}): field {exc.args[0]!r} is missing") from exc
    except (TypeError, ValueError) as exc:
        raise CorruptionError(f"{where} ({kind}): {exc}") from exc
    if set(layer.params) != set(arrays):
        raise CorruptionError(f"{where} ({kind}): arrays {sorted(arrays)} do not match "
                              f"its settings, which need {sorted(layer.params)}")
    return layer


def save_checkpoint(net: Network, path, extra: dict | None = None) -> None:
    """Write the network to ``path`` atomically (temp file then rename)."""
    manifest = {"layers": [_layer_manifest(l) for l in net.layers],
                "extra": extra or {}}
    payload = json.dumps(manifest, sort_keys=True).encode("utf-8")
    blob = b"".join(
        np.ascontiguousarray(v, dtype="<f8").tobytes()
        for layer in net.layers for v in layer.params.values())
    data = MAGIC + struct.pack("<I", VERSION) + struct.pack("<Q", len(payload))
    atomic_write(path, data + payload + blob)


def load_checkpoint(path) -> tuple[Network, dict]:
    """Read a network back; returns ``(network, extra_manifest)``.

    A file that is not a format-v1 checkpoint raises :class:`FormatError`;
    a damaged one raises :class:`CorruptionError` naming the layer and field.
    """
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 20 or raw[:8] != MAGIC:
        raise FormatError(f"{path}: bad magic {raw[:8]!r}, expected {MAGIC!r}")
    version = struct.unpack("<I", raw[8:12])[0]
    if version != VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    mlen = struct.unpack("<Q", raw[12:20])[0]
    if len(raw) < 20 + mlen:
        raise CorruptionError(f"{path}: manifest truncated "
                              f"(declared {mlen} bytes, {len(raw) - 20} present)")
    try:
        manifest = json.loads(raw[20:20 + mlen].decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CorruptionError(f"{path}: manifest is not valid JSON: {exc}") from exc
    entries = manifest.get("layers") if isinstance(manifest, dict) else None
    if not isinstance(entries, list):
        raise CorruptionError(f"{path}: manifest field 'layers' is missing or not a list")
    blob = raw[20 + mlen:]
    offset = 0
    layers = []
    for i, entry in enumerate(entries):
        arrays, offset = _read_arrays(f"{path}: layer {i}", entry, blob, offset)
        layers.append(_build_layer(f"{path}: layer {i}", entry, arrays))
    if offset != len(blob):
        raise CorruptionError(f"{path}: blob has {len(blob) - offset} trailing bytes "
                              f"beyond the declared {offset}")
    extra = manifest.get("extra", {})
    if not isinstance(extra, dict):
        raise CorruptionError(f"{path}: manifest field 'extra' is not a JSON object")
    return Network(layers), extra


def atomic_write(path, data: bytes) -> None:
    """Write bytes to ``path`` via a temp file in the same directory."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path, header, rows) -> None:
    """Write a headered CSV atomically, floats as ``repr`` so they read back exactly."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    atomic_write(path, ("\n".join(lines) + "\n").encode("utf-8"))
