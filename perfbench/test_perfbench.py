"""Tests of the benchmark harness itself, run at tiny size.

Run from the repository root: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import pipeline  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCH["workloads"]]


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.01", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=120)


@pytest.fixture(scope="module")
def runs():
    """``get(workload, seed, trace)`` -> (full record, result line), cached."""
    cache = {}

    def get(workload, seed, trace):
        if (workload, seed, trace) not in cache:
            p = bench(workload, seed, trace)
            assert p.returncode == 0, p.stderr
            lines = p.stdout.strip().splitlines()
            cache[workload, seed, trace] = (json.loads(lines[-2]), json.loads(lines[-1]))
        return cache[workload, seed, trace]
    return get


def test_benchmark_json_matches_the_harness():
    assert NAMES == list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == pipeline.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == pipeline.PER_LAYER
    assert [w["why"] for w in BENCH["workloads"]] == [w.why for w in workloads.WORKLOADS.values()]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_tiny_run_emits_every_metric(runs, workload, trace):
    record, result = runs(workload, 1, trace)
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert record["failed_frac"] == 0.0
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == set(expected)
    for name, m in result["metrics"].items():
        assert m["unit"] == expected[name]
        assert isinstance(m["value"], float) and math.isfinite(m["value"]), name
    for key in ("python", "numpy", "blas", "blas_threads_pinned", "nproc", "git_commit",
                "seed", "run_seconds"):
        assert key in record["provenance"]
    assert 1 <= int(record["provenance"]["blas_threads_pinned"]) <= record["provenance"]["nproc"]
    assert len(record["digest"]) == 64


def test_teacher_and_kd_counts_only_on_distill_desk(runs):
    for workload in NAMES:
        m = runs(workload, 1, 1)[1]["metrics"]
        counts = (m["train.teacher_forward_calls"]["value"], m["train.kd_loss_us"]["value"])
        if workload == "distill-desk":
            assert min(counts) > 0
        else:
            assert counts == (0.0, 0.0)
        assert m["train.steps"]["value"] > 0


@pytest.mark.parametrize("workload", NAMES)
def test_traced_and_untraced_runs_train_identically(runs, workload):
    plain, traced = runs(workload, 1, 0)[0], runs(workload, 1, 1)[0]
    assert traced["traced_passes"] >= 1
    assert traced["digest"] == plain["digest"]
    assert traced["eval_loss"] == plain["eval_loss"] == plain["metrics"]["eval_loss"]["value"]


def test_same_seed_repeats_digest_in_a_new_process(runs):
    first = runs("distill-desk", 1, 0)[0]
    p = bench("distill-desk", 1, 0)
    again = json.loads(p.stdout.strip().splitlines()[-2])
    assert again["digest"] == first["digest"] and again["eval_loss"] == first["eval_loss"]
    assert runs("distill-desk", 2, 0)[0]["digest"] != first["digest"]


@pytest.mark.parametrize("workload", NAMES)
def test_seed_changes_the_inputs(workload):
    def inputs(seed):
        job = workloads.WORKLOADS[workload].setup(seed, True, lambda name: nullcontext())
        return np.concatenate([job.data[0].x.ravel(), job.data[1].x.ravel()])
    assert np.array_equal(inputs(4), inputs(4))
    assert not np.array_equal(inputs(4), inputs(5))


def _attribute_snapshot():
    snap = {}
    for name, mod in sys.modules.items():
        if name == "inhernet" or name.startswith("inhernet."):
            snap[name] = dict(vars(mod))
            for key, value in vars(mod).items():
                if isinstance(value, type):
                    snap[f"{name}.{key}"] = dict(vars(value))
    return snap


def test_tracer_leaves_no_patched_attribute_behind(tmp_path):
    before = _attribute_snapshot()
    record = pipeline.run("distill-desk", 1, 0.01, trace=True, tiny=True, root=tmp_path)
    assert record["correct"] and record["traced_passes"] >= 1
    after = _attribute_snapshot()
    assert after.keys() == before.keys()
    for owner, attrs in before.items():
        assert after[owner].keys() == attrs.keys(), owner
        changed = [k for k, v in attrs.items() if after[owner][k] is not v]
        assert not changed, f"{owner}: {changed}"
    assert (tmp_path / ".bench_out" / "trace-distill-desk.jsonl").stat().st_size > 0


def test_tracer_restores_instance_and_class_attributes():
    class Thing:
        def f(self):
            return 1

    thing = Thing()
    with tracer.Tracer() as tr:
        tr.patch(Thing, "f", "Thing.f")
        tr.patch(thing, "f", "thing.f")
        assert thing.f() == 1
        assert [s[0] for s in tr.spans] == ["thing.f", "Thing.f"]
        assert tr.spans[1][3] == 0      # the class call ran inside the instance call
    assert "f" not in vars(thing) and Thing.f(thing) == 1 and thing.f() == 1
    assert not hasattr(Thing.f, "__wrapped__")


def test_self_time_subtracts_direct_children():
    tr = tracer.Tracer()
    tr.spans = [["phase.train", 0, 100, -1, 0], ["b", 10, 30, 0, 0],
                ["c", 40, 50, 0, 0], ["d", 12, 20, 1, 0], ["e", 200, 210, -1, 0]]
    assert tr.self_times() == [70, 12, 10, 8, 10]
    groups = tr.by_phase()
    assert dict(groups["train"]) == {"phase.train": [0], "b": [1], "c": [2], "d": [3]}
    assert dict(groups[""]) == {"e": [4]}


def test_failed_check_fails_the_run(monkeypatch, capsys):
    real_load = pipeline.io.load_checkpoint

    def corrupting_load(path):
        net, extra = real_load(path)
        next(iter(net.param_items().values())).flat[0] += 1.0
        return net, extra

    monkeypatch.setattr(pipeline.io, "load_checkpoint", corrupting_load)
    code = run.main(["--workload", "finetune-wide", "--seed", "1", "--seconds", "0.01",
                     "--scale", "tiny"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1 and result["correct"] is False and result["failed"] >= 1


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    p = bench("distill-desk", 1, 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert p.returncode != 0
    assert '"correct"' not in p.stdout
