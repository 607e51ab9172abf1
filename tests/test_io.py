import gc
import json
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inhernet.errors import CorruptionError, FormatError, NumericalError, RangeError
from inhernet.experiments import spectral_mlp
from inhernet.inherit import inherit_conv, inherit_dense, inherit_layer, inherit_network
from inhernet.io import (Dataset, SyntheticTask, gen_synthetic, load_checkpoint,
                         save_checkpoint)
from inhernet.nn import (ROW_BLOCK, Conv2DLayer, DenseLayer, Network, ReluLayer,
                         forward_in_blocks, make_mlp)
from inhernet.rng import STREAM_DATA, STREAM_SPLIT, philox
from inhernet.train import TrainConfig, train


class TestCheckpoint:
    def test_roundtrip_forward_bit_identical(self, tmp_path):
        net = make_mlp([6, 10, 4], seed=5)
        path = tmp_path / "net.ckpt"
        save_checkpoint(net, path, extra={"seed": 5})
        loaded, extra = load_checkpoint(path)
        assert extra == {"seed": 5}
        gen = philox(1, 0)
        for _ in range(100):
            x = gen.standard_normal((3, 6))
            assert np.array_equal(net.forward(x), loaded.forward(x))

    def test_roundtrip_every_variant_bit_exact(self, tmp_path):
        gen = philox(2, 0)
        w = gen.standard_normal((9, 6))
        bias = gen.standard_normal(6)
        nets = {
            "standard": Network([inherit_dense(w, 3, 2, bias=bias)]),
            "paper-input": Network([inherit_dense(w, 3, 3, mode="paper",
                                                  gate_input="input")]),
            "no-gate": Network([inherit_layer(DenseLayer(w, bias), 3, 2, "no-gate")]),
            "no-svd": Network([inherit_layer(DenseLayer(w), 3, 2, "no-svd", seed=4)]),
            "symmetric": Network([inherit_layer(DenseLayer(w, bias), 3, 2, "symmetric")]),
            "inverse": Network([inherit_layer(DenseLayer(w, bias), 3, 2, "inverse")]),
            "conv": Network([inherit_conv(gen.standard_normal((5, 2, 3, 3)),
                                          3, 2, stride=2, padding=1,
                                          bias=gen.standard_normal(5))]),
        }
        for name, net in nets.items():
            p1 = tmp_path / f"{name}.ckpt"
            p2 = tmp_path / f"{name}-2.ckpt"
            save_checkpoint(net, p1)
            loaded, _ = load_checkpoint(p1)
            for key, value in net.param_items().items():
                assert np.array_equal(value, loaded.param_items()[key]), (name, key)
            save_checkpoint(loaded, p2)
            assert p1.read_bytes() == p2.read_bytes(), name

    def test_flipped_magic_rejected(self, tmp_path):
        net = make_mlp([3, 2], seed=1)
        path = tmp_path / "net.ckpt"
        save_checkpoint(net, path)
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="magic"):
            load_checkpoint(bad)

    def test_unsupported_version_rejected(self, tmp_path):
        net = make_mlp([3, 2], seed=1)
        path = tmp_path / "net.ckpt"
        save_checkpoint(net, path)
        raw = bytearray(path.read_bytes())
        raw[8:12] = struct.pack("<I", 99)
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="version"):
            load_checkpoint(bad)

    def test_truncated_blob_names_layer_and_counts(self, tmp_path):
        net = make_mlp([4, 3, 2], seed=1)
        path = tmp_path / "net.ckpt"
        save_checkpoint(net, path)
        raw = path.read_bytes()
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(raw[:-40])
        with pytest.raises(CorruptionError, match=r"layer 2.*bytes"):
            load_checkpoint(bad)

    def test_trailing_bytes_rejected(self, tmp_path):
        net = make_mlp([3, 2], seed=1)
        path = tmp_path / "net.ckpt"
        save_checkpoint(net, path)
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(path.read_bytes() + b"\x00" * 16)
        with pytest.raises(CorruptionError, match="trailing"):
            load_checkpoint(bad)

    def test_no_partial_network_on_error(self, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"NOTMAGIC" + b"\x00" * 24)
        with pytest.raises(FormatError):
            load_checkpoint(bad)


def rewrite_manifest(raw: bytes, edit) -> bytes:
    """The checkpoint ``raw`` with its manifest passed through ``edit``."""
    mlen = struct.unpack("<Q", raw[12:20])[0]
    manifest = json.loads(raw[20:20 + mlen])
    edit(manifest)
    payload = json.dumps(manifest).encode("utf-8")
    return raw[:12] + struct.pack("<Q", len(payload)) + payload + raw[20 + mlen:]


def _set(layer_field, value):
    def edit(manifest):
        manifest["layers"][0][layer_field] = value
    return edit


def _drop(layer_field):
    def edit(manifest):
        del manifest["layers"][0][layer_field]
    return edit


def _shape(value):
    def edit(manifest):
        manifest["layers"][0]["arrays"][0]["shape"] = value
    return edit


class TestMalformedManifest:
    @pytest.mark.parametrize("edit,match", [
        (lambda m: m.pop("layers"), r"'layers'"),
        (lambda m: m.update(layers={"0": {}}), r"'layers'"),
        (_drop("kind"), r"layer 0: .*'kind'"),
        (_drop("n_heads"), r"layer 0 .*'n_heads'"),
        (_set("n_heads", 4), r"layer 0 .*'head_3'"),
        (_shape([-1, 3]), r"layer 0: .*'shape'"),
        (_shape([4.5, 2]), r"layer 0: .*'shape'"),
        (_set("gate_input", "zzz"), r"layer 0 .*gate_input"),
        (lambda m: m.update(extra=5), r"'extra'"),
        (lambda m: m.update(extra=["seed", 5]), r"'extra'"),
    ], ids=["no-layers", "layers-not-list", "no-kind", "no-n_heads", "n_heads-too-big",
            "negative-shape", "non-integer-shape", "bad-gate-input", "extra-a-number",
            "extra-a-list"])
    def test_raises_corruption_naming_layer_and_field(self, tmp_path, edit, match):
        gen = philox(3, 0)
        net = Network([inherit_dense(gen.standard_normal((6, 4)), 2, 3,
                                     bias=gen.standard_normal(4))])
        save_checkpoint(net, tmp_path / "good.ckpt")
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(rewrite_manifest((tmp_path / "good.ckpt").read_bytes(), edit))
        with pytest.raises(CorruptionError, match=match):
            load_checkpoint(bad)


@pytest.fixture(scope="module")
def every_kind_checkpoint(tmp_path_factory):
    """Bytes of a small checkpoint holding one layer of every kind, and a scratch path."""
    gen = philox(4, 0)
    w, b = gen.standard_normal((5, 4)), gen.standard_normal(4)
    k = gen.standard_normal((3, 2, 3, 3))
    net = Network([DenseLayer(w, b), ReluLayer(), Conv2DLayer(k, 1, 1, gen.standard_normal(3)),
                   inherit_dense(w, 2, 2, bias=b), inherit_layer(DenseLayer(w), 2, 2, "no-gate"),
                   inherit_layer(DenseLayer(w, b), 2, 3, "inverse"),
                   inherit_layer(DenseLayer(w, b), 2, 2, "symmetric"),
                   inherit_conv(k, 2, 2, padding=1, bias=gen.standard_normal(3))])
    path = tmp_path_factory.mktemp("fuzz") / "every.ckpt"
    save_checkpoint(net, path, extra={"fuzz": True})
    return path.read_bytes(), path


@st.composite
def damaged(draw, raw: bytes) -> bytes:
    """``raw`` cut to a prefix, or with one byte of its header or manifest overwritten."""
    if draw(st.booleans()):
        return raw[:draw(st.integers(0, len(raw) - 1))]
    at = draw(st.integers(0, 20 + struct.unpack("<Q", raw[12:20])[0] - 1))
    byte = draw(st.integers(0, 255).filter(lambda v: v != raw[at]))
    return raw[:at] + bytes([byte]) + raw[at + 1:]


class TestCheckpointFuzz:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_damage_loads_or_raises_a_checkpoint_error(self, every_kind_checkpoint, data):
        raw, path = every_kind_checkpoint
        path.write_bytes(data.draw(damaged(raw)))
        try:
            net, _ = load_checkpoint(path)
        except (FormatError, CorruptionError):
            return
        assert isinstance(net, Network)


DATA = Path(__file__).parent / "data"


class TestV1Fixture:
    """A format-v1 checkpoint written before the heads were stored as one block.

    It holds an inherited dense layer (3 heads) and an inherited conv layer
    (2 heads), both with head biases and non-zero gates; the .npz holds
    inputs and the outputs the writing code computed for them.
    """

    def test_loads_and_saves_back_to_the_same_bytes(self, tmp_path):
        raw = (DATA / "v1_inherited.ckpt").read_bytes()
        net, extra = load_checkpoint(DATA / "v1_inherited.ckpt")
        assert [l.n_heads for l in net.layers] == [3, 2]
        assert all(l.has_head_bias and not l.gate_frozen for l in net.layers)
        save_checkpoint(net, tmp_path / "again.ckpt", extra=extra)
        assert (tmp_path / "again.ckpt").read_bytes() == raw

    def test_forward_matches_the_writer(self, tmp_path):
        ref = np.load(DATA / "v1_inherited_outputs.npz")
        net, extra = load_checkpoint(DATA / "v1_inherited.ckpt")
        dense, conv = net.layers
        # The heads are now summed inside one GEMM, so outputs agree with
        # the writer's per-head sums to rounding, not bit for bit.
        for layer, x, y in ((dense, ref["x_dense"], ref["y_dense"]),
                            (conv, ref["x_conv"], ref["y_conv"])):
            out = layer.forward(x)
            assert np.max(np.abs(out - y)) <= 1e-13 * np.max(np.abs(y))
        # A reloaded copy computes bit-identical outputs.
        save_checkpoint(net, tmp_path / "again.ckpt", extra=extra)
        again, _ = load_checkpoint(tmp_path / "again.ckpt")
        assert np.array_equal(again.layers[0].forward(ref["x_dense"]),
                              dense.forward(ref["x_dense"]))
        assert np.array_equal(again.layers[1].forward(ref["x_conv"]),
                              conv.forward(ref["x_conv"]))


def layer_segments(raw: bytes) -> list[tuple[dict, bytes]]:
    """Split a checkpoint into (manifest entry, blob bytes) per layer."""
    mlen = struct.unpack("<Q", raw[12:20])[0]
    manifest = json.loads(raw[20:20 + mlen])
    offset = 20 + mlen
    out = []
    for entry in manifest["layers"]:
        size = 8 * sum(int(np.prod(a["shape"], dtype=np.int64)) for a in entry["arrays"])
        out.append((entry, raw[offset:offset + size]))
        offset += size
    return out


class TestV1VariantsFixture:
    """A format-v1 checkpoint of the ablation layers, written by the code
    that still had a separate class per variant.

    It holds a jittered ``inverse`` layer (3 heads, bias), a jittered
    ``symmetric`` layer (bias) and a jittered ``no-gate`` inherited dense
    layer; the .npz holds inputs and the outputs the writing code computed
    for them, plus every parameter its ``no-svd`` builders drew for one
    dense layer (``inherit_layer``, seed 11) and one two-conv network
    (``inherit_network``, seed 13).
    """

    def test_loads_and_matches_the_writer(self):
        ref = np.load(DATA / "v1_variants_outputs.npz")
        net, extra = load_checkpoint(DATA / "v1_variants.ckpt")
        assert extra == {"fixture": "v1_variants"}
        assert [sorted(l.params) for l in net.layers] == [
            ["bias", "down_0", "down_1", "down_2", "gate_bias", "gate_weight", "w_up"],
            ["bias", "down_0", "down_1", "gate_bias", "gate_weight", "up_0", "up_1"],
            ["head_0", "head_1", "head_2", "head_bias_0", "head_bias_1", "head_bias_2",
             "w_down"]]
        for layer, name in zip(net.layers, ("inverse", "symmetric", "no_gate")):
            y = ref[f"y_{name}"]
            out = layer.forward(ref[f"x_{name}"])
            assert np.max(np.abs(out - y)) <= 1e-13 * np.max(np.abs(y)), name

    def test_no_gate_entry_saves_back_to_the_same_bytes(self, tmp_path):
        raw = (DATA / "v1_variants.ckpt").read_bytes()
        net, extra = load_checkpoint(DATA / "v1_variants.ckpt")
        save_checkpoint(net, tmp_path / "again.ckpt", extra=extra)
        before = layer_segments(raw)
        after = layer_segments((tmp_path / "again.ckpt").read_bytes())
        assert before[2][0]["kind"] == "inherit_dense" and before[2][0]["gate_frozen"]
        assert after[2] == before[2]
        # inverse and symmetric keep their array names and values
        for (old, old_blob), (new, new_blob) in zip(before[:2], after[:2]):
            assert sorted(a["name"] for a in new["arrays"]) == \
                sorted(a["name"] for a in old["arrays"])
            assert len(new_blob) == len(old_blob)

    def test_no_svd_builders_draw_the_stored_parameters(self):
        ref = np.load(DATA / "v1_variants_outputs.npz")
        dense = inherit_layer(DenseLayer(ref["no_svd_teacher.w"], ref["no_svd_teacher.bias"]),
                              3, 2, "no-svd", seed=11)
        teacher = Network([
            Conv2DLayer(ref["no_svd_teacher.kernel_0"], 1, 1, ref["no_svd_teacher.conv_bias_0"]),
            ReluLayer(),
            Conv2DLayer(ref["no_svd_teacher.kernel_2"], 2, 1)])
        conv = inherit_network(teacher, 2, 3, variant="no-svd", seed=13)
        for prefix, params in (("no_svd_dense", dense.params),
                               ("no_svd_conv", conv.param_items())):
            assert sorted(f"{prefix}.{k}" for k in params) == \
                sorted(k for k in ref.files if k.startswith(prefix + "."))
            for key, p in params.items():
                assert np.array_equal(p, ref[f"{prefix}.{key}"]), (prefix, key)


def drawn_whole_then_gathered(task, teacher=None):
    """A task built the plain way: drawn whole in draw order, mimic labels from
    :func:`forward_in_blocks`, then each split gathered through the permutation."""
    gen = philox(task.seed, STREAM_DATA)
    if task.kind == "blobs":
        k = task.classes * task.per_class
        centers = gen.standard_normal((k, task.dim)) * task.separation
        cluster = gen.integers(0, k, size=task.n)
        x = centers[cluster] + gen.standard_normal((task.n, task.dim))
        y = (cluster % task.classes).astype(np.int64)
    elif task.kind == "piecewise":
        centers = gen.standard_normal((task.classes, task.dim)) * task.separation
        maps = gen.standard_normal((task.classes, task.dim, task.out_dim)) / np.sqrt(task.dim)
        if task.map_rank > 0:
            for c in range(task.classes):
                u, s, vt = np.linalg.svd(maps[c], full_matrices=False)
                s[task.map_rank:] = 0.0
                maps[c] = (u * s) @ vt
        offsets = gen.standard_normal((task.classes, task.out_dim))
        assign = gen.integers(0, task.classes, size=task.n)
        x = centers[assign] + gen.standard_normal((task.n, task.dim))
        y = np.einsum("bd,bdo->bo", x, maps[assign]) + offsets[assign]
    else:
        x = gen.standard_normal((task.n, task.dim))
        y = forward_in_blocks(teacher, x)
    if task.noise > 0 and task.kind != "blobs":
        y = y + task.noise * gen.standard_normal(y.shape)
    perm = philox(task.seed, STREAM_SPLIT).permutation(task.n)
    n_eval = max(1, task.n // 5)
    return (x[perm[n_eval:]], y[perm[n_eval:]]), (x[perm[:n_eval]], y[perm[:n_eval]])


class TestSyntheticTasks:
    def test_same_seed_identical(self):
        a = gen_synthetic(SyntheticTask(kind="blobs", seed=9, n=100, dim=5))
        b = gen_synthetic(SyntheticTask(kind="blobs", seed=9, n=100, dim=5))
        for da, db in zip(a, b):
            assert np.array_equal(da.x, db.x)
            assert np.array_equal(da.y, db.y)

    def test_single_cluster_is_globally_linear(self):
        task = SyntheticTask(kind="piecewise", seed=10, n=200, dim=6, classes=1,
                             out_dim=2)
        train_ds, _ = gen_synthetic(task)
        xb = np.hstack([train_ds.x, np.ones((train_ds.x.shape[0], 1))])
        coef, *_ = np.linalg.lstsq(xb, train_ds.y, rcond=None)
        assert np.max(np.abs(xb @ coef - train_ds.y)) < 1e-10

    def test_well_separated_blobs_teacher_above_99(self):
        task = SyntheticTask(kind="blobs", seed=11, n=1000, dim=8, classes=2,
                             separation=3.0)
        data = gen_synthetic(task)
        teacher = make_mlp([8, 16, 2], seed=3)
        cfg = TrainConfig(base_lr=0.1, epochs=30, batch_size=32, seed=3, loss="ce")
        log = train(teacher, data, cfg)
        assert log.eval_acc[-1] > 0.99

    def test_split_is_80_20(self):
        task = SyntheticTask(kind="blobs", seed=12, n=500, dim=4)
        train_ds, eval_ds = gen_synthetic(task)
        assert train_ds.x.shape[0] == 400
        assert eval_ds.x.shape[0] == 100

    def test_mimic_requires_teacher(self):
        with pytest.raises(RangeError):
            gen_synthetic(SyntheticTask(kind="mimic", seed=1, n=10, dim=3))

    @pytest.mark.parametrize("seed", [100, 101])
    def test_mimic_labels_equal_one_teacher_forward(self, seed):
        # 1,300 rows label in blocks of 512, 512 and 276
        teacher = spectral_mlp([16, 48, 48, 8], seed=seed)
        task = SyntheticTask(kind="mimic", seed=seed, n=1300, dim=16)
        train_ds, eval_ds = gen_synthetic(task, teacher=teacher)
        x = philox(seed, STREAM_DATA).standard_normal((task.n, task.dim))
        perm = philox(seed, STREAM_SPLIT).permutation(task.n)
        y = teacher.forward(x)[perm]
        assert np.concatenate([eval_ds.y, train_ds.y]).tobytes() == y.tobytes()

    @pytest.mark.parametrize("task, dims", [
        (SyntheticTask(kind="blobs", seed=21, n=1300, dim=5, classes=3, per_class=2,
                       noise=0.5), None),
        (SyntheticTask(kind="blobs", seed=22, n=2, dim=2), None),
        (SyntheticTask(kind="piecewise", seed=23, n=777, dim=6, classes=3, out_dim=4,
                       noise=0.3, map_rank=2), None),
        (SyntheticTask(kind="piecewise", seed=24, n=300, dim=3, classes=2), None),
        (SyntheticTask(kind="mimic", seed=25, n=2, dim=8, noise=0.1), [8, 16, 4]),
        (SyntheticTask(kind="mimic", seed=26, n=300, dim=16), [16, 48, 48, 8]),
        (SyntheticTask(kind="mimic", seed=27, n=1024, dim=16, noise=0.2), [16, 48, 48, 8]),
        (SyntheticTask(kind="mimic", seed=28, n=1300, dim=64, noise=0.05), [64, 64, 64, 8]),
    ], ids=["blobs-per_class-n1300", "blobs-n2", "piecewise-map_rank-noise-n777",
            "piecewise-n300", "mimic-noise-n2", "mimic-n300", "mimic-noise-n1024",
            "mimic-noise-n1300"])
    def test_split_order_matches_the_whole_draw_gathered_bit_for_bit(self, task, dims):
        teacher = None if dims is None else spectral_mlp(dims, seed=task.seed)
        data = gen_synthetic(task, teacher=teacher)
        for ds, (x, y) in zip(data, drawn_whole_then_gathered(task, teacher)):
            assert ds.x.dtype == x.dtype == np.float64
            assert ds.y.dtype == y.dtype == (np.int64 if task.kind == "blobs" else np.float64)
            assert ds.x.shape == x.shape and ds.y.shape == y.shape
            assert ds.x.tobytes() == x.tobytes() and ds.y.tobytes() == y.tobytes()

    def test_mimic_peak_memory_holds_the_task_once(self):
        teacher = spectral_mlp([256, 256, 16], seed=3)
        task = SyntheticTask(kind="mimic", seed=4, n=4096, dim=256)
        tracemalloc.start()
        try:
            data = gen_synthetic(task, teacher=teacher)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = sum(ds.x.nbytes + ds.y.nbytes for ds in data)
        # a whole draw gathered into two splits peaks at about 2.1 times the task's bytes
        assert peak < 1.85 * held, peak / held

    def test_mimic_teacher_keeps_no_reference_to_the_task(self):
        teacher = spectral_mlp([256, 256, 16], seed=3)
        task = SyntheticTask(kind="mimic", seed=4, n=4096, dim=256)
        tracemalloc.start()
        try:
            data = gen_synthetic(task, teacher=teacher)
            del data
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # the teacher's caches hold one block's activations, not the 8.4 MB draw
        assert retained < 3 * ROW_BLOCK * task.dim * 8, retained

    def test_nan_teacher_output_names_the_teacher_and_the_rows(self):
        teacher = spectral_mlp([8, 16, 4], seed=1)
        teacher.layers[2].params["weight"][0, 0] = np.nan
        with pytest.raises(NumericalError, match=r"^output of layer 2 \(dense\) holds NaN or "
                                                 r"Inf in the teacher's labels of drawn rows "
                                                 r"0\.\.9$"):
            gen_synthetic(SyntheticTask(kind="mimic", seed=1, n=10, dim=8), teacher=teacher)
        # only the rows of the block that went bad are named
        forward = teacher.forward
        teacher.layers[2].params["weight"][0, 0] = 0.0
        calls = []

        def bad_second_block(x):
            out = forward(x)
            calls.append(len(x))
            if len(calls) == 2:
                out[3, 1] = np.inf
            return out

        teacher.forward = bad_second_block
        with pytest.raises(NumericalError, match=r"drawn rows 512\.\.1023$"):
            gen_synthetic(SyntheticTask(kind="mimic", seed=1, n=1300, dim=8), teacher=teacher)
        assert calls == [512, 512]

    def test_paired_blobs_label_structure(self):
        task = SyntheticTask(kind="blobs", seed=13, n=600, dim=6, classes=3,
                             per_class=2)
        train_ds, eval_ds = gen_synthetic(task)
        labels = np.concatenate([train_ds.y, eval_ds.y])
        assert set(labels.tolist()) == {0, 1, 2}

    def test_invalid_kind(self):
        with pytest.raises(RangeError):
            SyntheticTask(kind="nope", seed=1, n=10, dim=2)

    @pytest.mark.parametrize("field, value", [
        ("out_dim", 0), ("noise", -1.0), ("map_rank", -1), ("seed", 1.5),
        ("n", 10.5), ("dim", 2.0), ("classes", 2.5), ("out_dim", 1.5), ("per_class", 1.5),
        ("map_rank", 0.5), ("separation", np.nan), ("separation", np.inf), ("noise", np.nan),
        ("noise", np.inf)])
    def test_out_of_range_field_is_named(self, field, value):
        with pytest.raises(RangeError, match=f"^{field} must"):
            SyntheticTask(**{"kind": "piecewise", "seed": 1, "n": 10, "dim": 2, field: value})

    def test_philox_refuses_a_non_integer_seed(self):
        with pytest.raises(RangeError, match=r"^seed must be an integer, got 1\.5$"):
            philox(1.5)
        draw = philox(2**64 + 7, 1, 2).standard_normal(3)
        assert np.array_equal(philox(np.int64(7), 1, 2).standard_normal(3), draw)

    def test_numpy_integer_sizes_generate_the_same_task(self):
        plain = gen_synthetic(SyntheticTask(kind="blobs", seed=3, n=20, dim=2))
        typed = gen_synthetic(SyntheticTask(kind="blobs", seed=3, n=np.int64(20),
                                            dim=np.int32(2)))
        for a, b in zip(plain, typed):
            assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)

