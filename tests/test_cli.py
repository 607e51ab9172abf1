import argparse
import csv
import json
import time

import numpy as np
import pytest

from inhernet import cli, experiments
from inhernet.cli import build_parser, main
from inhernet.errors import (CorruptionError, DegenerateInputError, FormatError, NumericalError,
                             RangeError, ShapeError, StateError)
from inhernet.experiments import spectral_mlp
from inhernet.inherit import COMBINER_MODES, GATE_INPUTS
from inhernet.io import load_checkpoint, save_checkpoint
from inhernet.nn import Conv2DLayer, Network, ReluLayer
from inhernet.rng import philox
from inhernet.train import SCHEDULES
from inhernet.verify import SUITES


def run_cli(*argv):
    return main(list(argv))


def read_runlog(path):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    header, body = rows[0], rows[1:]
    return header, body


def columns_without_wall(header, body):
    drop = header.index("wall_ms")
    return [[v for i, v in enumerate(row) if i != drop] for row in body]


@pytest.fixture(scope="module")
def teacher_ckpt(tmp_path_factory):
    path = tmp_path_factory.mktemp("teachers") / "teacher.ckpt"
    code = run_cli("train-teacher", "--task", "blobs", "--task-seed", "21",
                   "--n", "600", "--dim", "8", "--classes", "3",
                   "--per-class", "1", "--separation", "2.0",
                   "--arch", "8,24,24,3", "--epochs", "15", "--lr", "0.1",
                   "--seed", "3", "--out", str(path))
    assert code == 0
    return path


class TestReproducibility:
    def test_checkpoints_byte_identical(self, tmp_path):
        args = ["train-teacher", "--task", "blobs", "--task-seed", "5",
                "--n", "300", "--dim", "6", "--classes", "2",
                "--per-class", "1", "--arch", "6,12,2", "--epochs", "5",
                "--seed", "11"]
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        assert run_cli(*args, "--out", str(a)) == 0
        assert run_cli(*args, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_runlogs_identical_excluding_wall_time(self, tmp_path, teacher_ckpt):
        student = tmp_path / "student.ckpt"
        assert run_cli("inherit", "--teacher", str(teacher_ckpt), "--rank", "3",
                       "--heads", "2", "--out", str(student)) == 0
        logs = []
        for name in ("l1.csv", "l2.csv"):
            log = tmp_path / name
            assert run_cli("train", "--net", str(student), "--task", "blobs",
                           "--task-seed", "21", "--n", "600", "--dim", "8",
                           "--classes", "3", "--per-class", "1",
                           "--separation", "2.0", "--epochs", "5",
                           "--seed", "9", "--log", str(log)) == 0
            logs.append(read_runlog(log))
        (h1, b1), (h2, b2) = logs
        assert h1 == h2
        assert columns_without_wall(h1, b1) == columns_without_wall(h2, b2)


class TestInheritCommand:
    def test_eval_within_five_percent_when_epsilon_small(self, tmp_path, capsys):
        # teacher constructed with fast spectral decay: every layer keeps
        # >= 99% energy at rank 3, so the inherited net evaluates alike
        teacher = spectral_mlp([8, 32, 32, 3], seed=31, decay=0.4)
        tpath = tmp_path / "spectral.ckpt"
        save_checkpoint(teacher, tpath)
        spath = tmp_path / "student.ckpt"
        assert run_cli("inherit", "--teacher", str(tpath), "--rank", "3",
                       "--heads", "3", "--out", str(spath)) == 0
        out = capsys.readouterr().out
        assert "compression ratio" in out

        def eval_loss(ckpt):
            code = run_cli("eval", "--net", str(ckpt), "--task", "blobs",
                           "--task-seed", "77", "--n", "500", "--dim", "8",
                           "--classes", "3", "--per-class", "1", "--loss", "ce")
            assert code == 0
            text = capsys.readouterr().out
            line = [l for l in text.splitlines() if l.startswith("eval loss")][0]
            return float(line.split()[-1])

        t_loss = eval_loss(tpath)
        s_loss = eval_loss(spath)
        assert abs(s_loss - t_loss) / t_loss < 0.05

    def test_single_head_no_gate_equals_plain_low_rank(self, tmp_path, teacher_ckpt):
        out = tmp_path / "nogate.ckpt"
        assert run_cli("inherit", "--teacher", str(teacher_ckpt), "--rank", "3",
                       "--heads", "1", "--variant", "no-gate",
                       "--out", str(out)) == 0
        teacher, _ = load_checkpoint(teacher_ckpt)
        student, _ = load_checkpoint(out)
        from inhernet.linalg import truncated_svd
        from inhernet.nn import DenseLayer, Network, ReluLayer
        layers = []
        for layer in teacher.layers:
            if isinstance(layer, DenseLayer):
                f = truncated_svd(layer.weight, 3)
                sq = np.sqrt(f.sigma)
                layers += [DenseLayer(f.u * sq),
                           DenseLayer(sq[:, None] * f.v.T, layer.bias)]
            else:
                layers.append(ReluLayer())
        plain = Network(layers)
        x = philox(8, 0).standard_normal((40, 8))
        assert np.max(np.abs(student.forward(x) - plain.forward(x))) < 1e-9

    def test_inverse_single_head_equals_standard(self, tmp_path, teacher_ckpt):
        std = tmp_path / "std.ckpt"
        inv = tmp_path / "inv.ckpt"
        for variant, path in (("standard", std), ("inverse", inv)):
            assert run_cli("inherit", "--teacher", str(teacher_ckpt),
                           "--rank", "3", "--heads", "1",
                           "--variant", variant, "--out", str(path)) == 0
        a, _ = load_checkpoint(std)
        b, _ = load_checkpoint(inv)
        x = philox(9, 0).standard_normal((30, 8))
        assert np.max(np.abs(a.forward(x) - b.forward(x))) < 1e-9

    def test_rank_error_exits_nonzero_naming_layer(self, teacher_ckpt, tmp_path,
                                                   capsys):
        code = run_cli("inherit", "--teacher", str(teacher_ckpt), "--rank", "9",
                       "--heads", "2", "--out", str(tmp_path / "x.ckpt"))
        assert code != 0
        assert "layer" in capsys.readouterr().err


class TestTrainCommand:
    def test_zero_batch_size_is_a_user_error(self, teacher_ckpt, capsys):
        code = run_cli("train", "--net", str(teacher_ckpt), "--n", "300", "--dim", "8",
                       "--classes", "3", "--epochs", "1", "--batch-size", "0")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "batch_size" in err
        assert "Traceback" not in err


class TestDistillCommand:
    def test_zero_kd_weight_matches_plain_training(self, tmp_path, teacher_ckpt):
        student = tmp_path / "student.ckpt"
        assert run_cli("inherit", "--teacher", str(teacher_ckpt), "--rank", "2",
                       "--heads", "2", "--out", str(student)) == 0
        task = ["--task", "blobs", "--task-seed", "21", "--n", "600",
                "--dim", "8", "--classes", "3", "--per-class", "1",
                "--separation", "2.0", "--epochs", "4", "--seed", "17"]
        log_a, log_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli("train", "--net", str(student), *task, "--loss", "ce",
                       "--log", str(log_a)) == 0
        assert run_cli("distill", "--teacher", str(teacher_ckpt),
                       "--student", str(student), *task, "--lambda-kd", "0.0",
                       "--log", str(log_b)) == 0
        (h1, b1), (h2, b2) = read_runlog(log_a), read_runlog(log_b)
        assert columns_without_wall(h1, b1) == columns_without_wall(h2, b2)

    def test_teacher_copy_starts_with_zero_kd_term(self, tmp_path, teacher_ckpt):
        teacher, _ = load_checkpoint(teacher_ckpt)
        from inhernet.io import SyntheticTask, gen_synthetic
        from inhernet.train import TrainConfig, kd_loss
        from inhernet.nn import cross_entropy
        from inhernet.linalg import log_softmax
        task = SyntheticTask(kind="blobs", seed=21, n=600, dim=8, classes=3,
                             separation=2.0)
        data = gen_synthetic(task)
        logits = teacher.forward(data[0].x[:32])
        cfg = TrainConfig(base_lr=0.01, epochs=1, batch_size=32, seed=0,
                          loss="ce+kd")
        total, _ = kd_loss(logits, log_softmax(logits / cfg.temperature), data[0].y[:32], cfg)
        ce, _ = cross_entropy(logits, data[0].y[:32])
        assert abs(total - cfg.lambda_ce * ce) < 1e-12


class TestVerifyCommand:
    def test_all_suites_green(self):
        assert run_cli("verify", "--suite", "all") == 0

    def test_theory_suite_under_60s(self):
        start = time.perf_counter()
        assert run_cli("verify", "--suite", "theory") == 0
        assert time.perf_counter() - start < 60.0

    def test_corrupt_checkpoint_fails_named_check(self, tmp_path, capsys):
        net = spectral_mlp([4, 6, 2], seed=1)
        good = tmp_path / "net.ckpt"
        save_checkpoint(net, good)
        raw = bytearray(good.read_bytes())
        raw[-8:] = b"\x00" * 8
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(raw[:-16]))
        code = run_cli("verify", "--suite", "svd", "--checkpoint", str(bad))
        out = capsys.readouterr().out
        assert code != 0
        assert "loads cleanly" in out and "FAIL" in out

    def test_unknown_suite_rejected(self):
        with pytest.raises(SystemExit):
            run_cli("verify", "--suite", "everything")


class TestAnalyzeCommand:
    def test_json_report_written(self, tmp_path, teacher_ckpt):
        out = tmp_path / "report.json"
        assert run_cli("analyze", "--teacher", str(teacher_ckpt), "--rank", "3",
                       "--heads", "2", "--out", str(out)) == 0
        import json
        payload = json.loads(out.read_text())
        assert "rho_paper" in payload and "per_layer_breakdown" in payload
        assert "empirical_output_cosine_diagnostic" in payload


@pytest.fixture(scope="module")
def conv_teacher_ckpt(tmp_path_factory):
    gen = philox(44, 0)
    net = Network([Conv2DLayer(gen.standard_normal((6, 2, 3, 3)), padding=1,
                               bias=gen.standard_normal(6)),
                   ReluLayer(),
                   Conv2DLayer(gen.standard_normal((4, 6, 3, 3)), padding=1)])
    path = tmp_path_factory.mktemp("teachers") / "conv.ckpt"
    save_checkpoint(net, path)
    return path


class TestConvTeacher:
    def test_inherit_writes_student_and_prints_report(self, tmp_path, conv_teacher_ckpt,
                                                      capsys):
        out = tmp_path / "student.ckpt"
        assert run_cli("inherit", "--teacher", str(conv_teacher_ckpt), "--rank", "3",
                       "--heads", "2", "--out", str(out)) == 0
        text = capsys.readouterr().out
        assert "compression ratio" in text and "layer 2: 4x54 r=3 H=2" in text
        student, _ = load_checkpoint(out)
        assert [l.kind for l in student.layers] == ["inherit_conv", "relu", "inherit_conv"]

    def test_analyze_reports_conv_layers_without_a_probe(self, tmp_path, conv_teacher_ckpt):
        out = tmp_path / "report.json"
        assert run_cli("analyze", "--teacher", str(conv_teacher_ckpt), "--rank", "3",
                       "--heads", "2", "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        assert payload["empirical_output_cosine_diagnostic"] is None
        assert [e["layer"] for e in payload["per_layer_breakdown"]] == [0, 2]

    @pytest.mark.parametrize("command", ["inherit", "analyze"])
    def test_input_gating_is_a_user_error(self, tmp_path, conv_teacher_ckpt, capsys, command):
        out = tmp_path / "out"
        assert run_cli(command, "--teacher", str(conv_teacher_ckpt), "--rank", "3",
                       "--heads", "2", "--gate", "input", "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: layer 0: a conv layer gates on its pooled code")
        assert "Traceback" not in err and not out.exists()


def _reject_constant(name):
    raise ValueError(f"bare {name} in JSON report")


class TestAnalyzeStudent:
    def test_inverse_student_report_is_strict_json(self, tmp_path, teacher_ckpt, capsys):
        student = tmp_path / "inverse.ckpt"
        assert run_cli("inherit", "--teacher", str(teacher_ckpt), "--rank", "3",
                       "--heads", "2", "--variant", "inverse", "--out", str(student)) == 0
        assert "kappa_down=n/a" in capsys.readouterr().out
        out = tmp_path / "report.json"
        assert run_cli("analyze", "--teacher", str(teacher_ckpt), "--student", str(student),
                       "--rank", "3", "--heads", "2", "--out", str(out)) == 0
        payload = json.loads(out.read_text(), parse_constant=_reject_constant)
        assert [e["kappa_down"] for e in payload["per_layer_breakdown"]] == [None] * 3

    def test_rank_and_heads_come_from_the_student(self, tmp_path):
        """``--rank`` and ``--heads`` shape a fresh inheritance only; a given
        student's layers report their own."""
        teacher = tmp_path / "teacher.ckpt"
        save_checkpoint(spectral_mlp([24, 32, 4], seed=5), teacher)
        student = tmp_path / "student.ckpt"
        assert run_cli("inherit", "--teacher", str(teacher), "--rank", "4", "--heads", "2",
                       "--out", str(student)) == 0
        reports = []
        for rank, heads in (("4", "2"), ("9", "5")):
            out = tmp_path / f"r{rank}h{heads}.json"
            assert run_cli("analyze", "--teacher", str(teacher), "--student", str(student),
                           "--rank", rank, "--heads", heads, "--out", str(out)) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]
        payload = json.loads(reports[1])
        assert [(e["r"], e["h"]) for e in payload["per_layer_breakdown"]] == [(4, 2), (4, 2)]
        assert payload["rho_paper"] == (24 * 32 + 32 * 4) / (2 * 4 * 56 + 2 * 5 + 2 * 4 * 36 + 2 * 5)


class TestInsightCommand:
    def test_insight3_writes_outputs(self, tmp_path, capsys):
        out = tmp_path / "i3"
        assert run_cli("insight", "--which", "3", "--seeds", "2",
                       "--out", str(out), "--plot") == 0
        assert (out / "insight3.csv").exists()
        assert (out / "insight3.svg").exists()
        text = capsys.readouterr().out
        assert "median epochs to threshold" in text

    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit):
            run_cli("insight", "--which", "3", "--frobnicate", "1")

    def test_step_schedule_is_not_offered(self, tmp_path, capsys):
        """The package has no step schedule, so the command line offers none."""
        with pytest.raises(SystemExit):
            run_cli("train-teacher", "--schedule", "step", "--out", str(tmp_path / "t.npz"))
        assert "invalid choice: 'step'" in capsys.readouterr().err

    def test_zero_seeds_is_an_error_without_traceback(self, capsys):
        assert run_cli("insight", "--which", "3", "--seeds", "0") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "seeds" in err and "Traceback" not in err


@pytest.mark.parametrize("command,flag,values", [
    ("train-teacher", "--schedule", SCHEDULES), ("train", "--schedule", SCHEDULES),
    ("distill", "--schedule", SCHEDULES), ("inherit", "--mode", COMBINER_MODES),
    ("inherit", "--gate", GATE_INPUTS), ("analyze", "--gate", GATE_INPUTS),
    ("verify", "--suite", SUITES + ("all",)), ("insight", "--which", tuple(experiments.INSIGHTS))])
def test_flag_choices_are_the_package_tuples(command, flag, values):
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    action = next(a for a in commands[command]._actions if flag in a.option_strings)
    assert tuple(action.choices) == values


@pytest.mark.parametrize("error", [ShapeError, RangeError, DegenerateInputError, FormatError,
                                   CorruptionError, NumericalError, FileNotFoundError])
def test_user_errors_exit_one_without_traceback(monkeypatch, capsys, error):
    def fail(args):
        raise error("bad input")
    monkeypatch.setattr(cli, "cmd_verify", fail)
    assert run_cli("verify", "--suite", "theory") == 1
    assert capsys.readouterr().err == "error: bad input\n"


def test_internal_errors_are_not_user_errors(monkeypatch):
    def fail(args):
        raise StateError("broken invariant")
    monkeypatch.setattr(cli, "cmd_verify", fail)
    with pytest.raises(StateError, match="broken invariant"):
        run_cli("verify", "--suite", "theory")
