"""Checks on the package source and on the names profiling tools patch, run with the unit tests."""

import ast
import importlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from inhernet import nn
from inhernet.inherit import inherit_conv
from inhernet.io import SyntheticTask, gen_synthetic
from inhernet.rng import philox

# the package's ``train`` function shadows its module of the same name
trainmod = importlib.import_module("inhernet.train")
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "inhernet"


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that no expression in it reads."""
    tree = ast.parse(source)
    bound = {(alias.asname or alias.name).split(".")[0]
             for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def nested_imports(source: str) -> list[int]:
    """Line numbers of the import statements inside a function or method body."""
    return sorted({node.lineno for fn in ast.walk(ast.parse(source))
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))})


def package_modules_imported(source: str) -> set[str]:
    """The ``inhernet`` modules a module imports, by relative or absolute name."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "inhernet"
                                                 or node.module.startswith("inhernet.")):
            module = (node.module or "").removeprefix("inhernet").lstrip(".")
            if module:
                names.add(module.split(".")[0])
            else:
                names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("inhernet."))
    return names


def test_scan_finds_unused_names():
    source = "import os.path\nimport numpy as np\nfrom x import a, b as c\nprint(a, np)\n"
    assert unused_imports(source) == ["c", "os"]


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_module_imports_are_all_used(path):
    assert unused_imports(path.read_text()) == []


def test_import_scans_find_nested_and_package_imports():
    source = ("import os\nimport inhernet.nn\nfrom . import rng as r, io\n"
              "from inhernet import cli\nfrom inhernet.train import x\nfrom .errors import e\n"
              "class A:\n    def f(self):\n        from .verify import v\n"
              "def g():\n    def h():\n        import json\n")
    assert nested_imports(source) == [9, 12]
    assert package_modules_imported(source) == {"nn", "rng", "io", "cli", "train", "errors",
                                                "verify"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_import_inside_a_function_body(path):
    assert nested_imports(path.read_text()) == []


def test_package_reads_no_environment_variables():
    """What the package does follows from its arguments and from what it can
    observe, such as the CPUs it may run on; an environment variable would be
    an option that no caller passes and no test sets."""
    found = [(path.name, name) for path in sorted(SRC.glob("*.py"))
             for name in ("os.environ", "os.getenv", "os.putenv") if name in path.read_text()]
    assert found == []


@pytest.mark.parametrize("name", ["theory.py", "inherit.py"])
def test_closed_form_modules_import_no_harness(name):
    """The closed-form accounting and the inheritance builders sit below the
    training harness, the persistence layer and the command line."""
    harness = {"train", "experiments", "io", "verify", "cli"}
    assert package_modules_imported((SRC / name).read_text()) & harness == set()


# the functions behind nn.conv_lowered and nn.conv_lowered_backward
LOWERING_INTERNALS = {"im2col", "col2im", "kn2row", "kn2row_backward", "sum_of_products",
                      "conv_output_size"}


def names_imported_from(source: str, module: str) -> set[str]:
    """The names a module's ``from .<module> import ...`` statements bind."""
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == module
            for alias in node.names}


def test_convolutions_lower_only_through_the_nn_pair():
    """The lowering rule lives in nn: the inherited conv calls the same pair
    as the teacher conv, and no other module imports the functions behind it."""
    imported = {path.name: names_imported_from(path.read_text(), "nn")
                for path in sorted(SRC.glob("*.py")) if path.name != "nn.py"}
    assert {"conv_lowered", "conv_lowered_backward"} <= imported["inherit.py"]
    assert {name: names & LOWERING_INTERNALS for name, names in imported.items()
            if names & LOWERING_INTERNALS} == {}


def attributes_read(source: str) -> set[str]:
    """The attribute names a module reads off any object, as in ``layer.stacked``."""
    return {node.attr for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Attribute)}


def test_only_nn_and_inherit_read_the_stacked_view_names():
    """``stacked`` holds checkpoint format v1's array names, "{}" marking a
    per-head block; other modules ask a gated layer's ``per_head`` instead."""
    readers = sorted(path.name for path in SRC.glob("*.py")
                     if "stacked" in attributes_read(path.read_text()))
    assert readers == ["inherit.py", "nn.py"]


@pytest.mark.parametrize("build,lowering", [
    (lambda k: nn.Conv2DLayer(k, padding=1), (nn.im2col, nn.col2im)),
    (lambda k: nn.Conv2DLayer(k[:1], padding=1), (nn.kn2row, nn.kn2row_backward)),
    (lambda k: inherit_conv(k, 1, 2, padding=1), (nn.kn2row, nn.kn2row_backward)),
    (lambda k: inherit_conv(k, 2, 2, padding=1), (nn.im2col, nn.col2im))],
    ids=["conv2d", "conv2d_narrow_output", "inherit_conv", "inherit_conv_narrow_input"])
def test_conv_layers_reach_their_lowering_through_a_module_binding(monkeypatch, build, lowering):
    """A tracer times a lowering function by rebinding it in every inhernet
    module that holds it; a conv layer that reached it another way would make
    that timing read 0. Both conv layers lower by the kernel's shape: through
    kn2row/kn2row_backward when the 2 input channels outnumber the filters (a
    1-filter teacher conv, or an inherited conv's code at r = 1), and through
    im2col/col2im otherwise (4 teacher filters, or r = 2)."""
    calls = {}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for fn in lowering:
        for mod_name, mod in list(sys.modules.items()):
            if mod is not None and mod_name.startswith("inhernet."):
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        key = fn.__name__, mod_name, attr
                        calls[key] = 0
                        monkeypatch.setattr(mod, attr, counting(key, fn))
    assert {(fn.__name__, "inhernet.nn", fn.__name__) for fn in lowering} <= set(calls)
    gen = philox(17, 0)
    layer = build(gen.standard_normal((4, 2, 3, 3)))
    out = layer.forward(gen.standard_normal((2, 2, 5, 5)))
    layer.backward(np.ones_like(out))
    for fn in lowering:
        assert sum(n for (name, *_), n in calls.items() if name == fn.__name__), calls


def test_train_reaches_kd_loss_through_its_module_binding(monkeypatch):
    """A tracer times the distillation loss by rebinding ``train.kd_loss``;
    a step that reached the loss another way would make that timing read 0."""
    calls = []
    kd_loss = trainmod.kd_loss
    monkeypatch.setattr(trainmod, "kd_loss", lambda *a: calls.append(1) or kd_loss(*a))
    data = gen_synthetic(SyntheticTask(kind="blobs", seed=9, n=100, dim=4, classes=2))
    config = trainmod.TrainConfig(base_lr=0.1, epochs=2, batch_size=16, seed=0,
                                  loss="ce+kd")
    trainmod.train(nn.make_mlp([4, 2], seed=1), data, config, teacher=nn.make_mlp([4, 2], seed=3))
    assert len(calls) == 2 * -(-len(data[0].x) // 16)


def test_bench_records_name_benchmark_metrics():
    """Every committed benchmark record parses, and its summary speaks only
    of the workloads and metrics the benchmark declares."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in bench["workloads"]}
    metrics = {m["name"] for m in bench["end_to_end"] + bench["per_layer"]}
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records
    for path in records:
        summary = json.loads(path.read_text())["summary"]
        assert set(summary) <= workloads, path.name
        for workload, entry in summary.items():
            assert set(entry["metrics"]) <= metrics, (path.name, workload)
