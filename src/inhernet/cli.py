"""Command-line surface for batch experiments.

Subcommands: train-teacher, inherit, train, distill, eval, analyze,
verify, insight. Every command prints its resolved configuration before
running, writes output files atomically, and is bit-reproducible for a
fixed seed (wall-clock columns excepted). Seed sweeps use every CPU the
process may run on.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import experiments, rng, verify
from .errors import NumericalError, RangeError
from .inherit import COMBINER_MODES, GATE_INPUTS, VARIANTS, factor_matrix, inherit_network
from .io import SyntheticTask, atomic_write, gen_synthetic, load_checkpoint, \
    save_checkpoint
from .nn import make_mlp
from .theory import LayerInfluence, analyze_network, output_cosine_similarity
from .train import SCHEDULES, TrainConfig, evaluate, train

GATE_HELP = ("what a dense layer's gate reads; conv layers gate on the pooled code, "
             "so 'input' is an error for a conv teacher")
FRESH_HELP = "shapes a fresh inheritance; not read with --student, whose layers give their own"
USER_ERRORS = (ValueError, NumericalError, FileNotFoundError)


def _add_task_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--task", choices=("blobs", "piecewise", "mimic"),
                   default="blobs")
    p.add_argument("--task-seed", type=int, default=42)
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--dim", type=int, default=24)
    p.add_argument("--classes", type=int, default=4,
                   help="classes (blobs) or clusters (piecewise)")
    p.add_argument("--per-class", type=int, default=3,
                   help="Gaussian blobs per class")
    p.add_argument("--out-dim", type=int, default=1)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--separation", type=float, default=1.5)
    p.add_argument("--map-rank", type=int, default=0)
    p.add_argument("--mimic-teacher", default=None,
                   help="checkpoint providing labels for the mimic task")


def _add_train_flags(p: argparse.ArgumentParser, lr: float, epochs: int) -> None:
    p.add_argument("--lr", type=float, default=lr)
    p.add_argument("--epochs", type=int, default=epochs)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--schedule", choices=SCHEDULES, default="inverse_sqrt")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--log", default=None, help="write the run log CSV here")


def _task_from_args(args) -> SyntheticTask:
    return SyntheticTask(kind=args.task, seed=args.task_seed, n=args.n,
                         dim=args.dim, classes=args.classes,
                         out_dim=args.out_dim, noise=args.noise,
                         separation=args.separation, per_class=args.per_class,
                         map_rank=args.map_rank)


def _task_data(args):
    teacher = None
    if args.task == "mimic":
        if args.mimic_teacher is None:
            raise RangeError("the mimic task requires --mimic-teacher")
        teacher, _ = load_checkpoint(args.mimic_teacher)
    return gen_synthetic(_task_from_args(args), teacher=teacher)


def _print_config(args) -> None:
    print("resolved config:")
    for key, value in sorted(vars(args).items()):
        if key != "func":
            print(f"  {key} = {value}")


def _train_config(args, loss: str, **kd) -> TrainConfig:
    """The config of ``train-teacher``, ``train`` and ``distill`` from their shared flags."""
    return TrainConfig(base_lr=args.lr, epochs=args.epochs, batch_size=args.batch_size,
                       seed=args.seed, schedule=args.schedule, loss=loss,
                       threshold=args.threshold, **kd)


def _print_final(log) -> None:
    if log.eval_loss:
        print(f"final eval loss {log.eval_loss[-1]:.6f} acc {log.eval_acc[-1]:.4f}")


def _write_log(log, path) -> None:
    if path is not None:
        log.to_csv(path)
        print(f"run log written to {path}")


def cmd_train_teacher(args) -> int:
    data = _task_data(args)
    dims = [int(v) for v in args.arch.split(",")]
    net = make_mlp(dims, seed=args.seed)
    log = train(net, data, _train_config(args, args.loss))
    save_checkpoint(net, args.out, extra={"arch": dims, "seed": args.seed,
                                          "loss": args.loss})
    _print_final(log)
    print(f"teacher written to {args.out}")
    _write_log(log, args.log)
    return 0


def cmd_inherit(args) -> int:
    teacher, _ = load_checkpoint(args.teacher)
    net = inherit_network(teacher, r=args.rank, h=args.heads,
                          variant=args.variant, mode=args.mode,
                          gate_input=args.gate, seed=args.seed,
                          cap_rank=args.cap_rank)
    # the report first, so a command that fails writes nothing
    report = analyze_network(teacher, net)
    # each layer records its own rank, head count and gate input, which can
    # differ from the flags (--cap-rank, the symmetric variant's two branches)
    save_checkpoint(net, args.out, extra={
        "teacher": os.path.basename(str(args.teacher)), "mode": args.mode,
        "variant": args.variant})
    print(f"inherited network written to {args.out}")
    for line in report.summary_lines():
        print(line)
    return 0


def cmd_train(args) -> int:
    net, _ = load_checkpoint(args.net)
    log = train(net, _task_data(args), _train_config(args, args.loss))
    _print_final(log)
    if log.epochs_to_threshold is not None:
        print(f"reached threshold at epoch {log.epochs_to_threshold}")
    if args.out:
        save_checkpoint(net, args.out)
        print(f"trained network written to {args.out}")
    _write_log(log, args.log)
    return 0


def cmd_distill(args) -> int:
    teacher, _ = load_checkpoint(args.teacher)
    student, _ = load_checkpoint(args.student)
    data = _task_data(args)
    cfg = _train_config(args, "ce+kd", lambda_ce=args.lambda_ce, lambda_kd=args.lambda_kd,
                        temperature=args.tau)
    log = train(student, data, cfg, teacher=teacher)
    _print_final(log)
    if args.out:
        save_checkpoint(student, args.out)
        print(f"distilled network written to {args.out}")
    _write_log(log, args.log)
    return 0


def cmd_eval(args) -> int:
    net, _ = load_checkpoint(args.net)
    data = _task_data(args)
    cfg = TrainConfig(base_lr=1.0, epochs=0, batch_size=32, seed=0,
                      loss=args.loss)
    loss, acc = evaluate(net, data[1].x, data[1].y, cfg)
    print(f"eval loss {loss!r}")
    print(f"eval acc {acc!r}")
    return 0


def cmd_analyze(args) -> int:
    teacher, _ = load_checkpoint(args.teacher)
    if args.student:
        student, _ = load_checkpoint(args.student)
    else:
        student = inherit_network(teacher, r=args.rank, h=args.heads,
                                  gate_input=args.gate, cap_rank=args.cap_rank)
    influences = None
    if args.alphas:
        influences = LayerInfluence.normalized(
            [float(v) for v in args.alphas.split(",")])
    report = analyze_network(teacher, student, influences)
    payload = json.loads(report.to_json())
    gen = rng.philox(args.probe_seed)
    first = next(layer for layer in teacher.layers if factor_matrix(layer) is not None)
    probe = gen.standard_normal((256, len(factor_matrix(first)))) if first.kind == "dense" else None
    # labeled as a diagnostic: this is not the bounded similarity quantity; none for a
    # conv teacher, whose image size no checkpoint records
    payload["empirical_output_cosine_diagnostic"] = None if probe is None else \
        output_cosine_similarity(teacher, student, probe)
    text = json.dumps(payload, indent=2)
    if args.out:
        atomic_write(args.out, (text + "\n").encode("utf-8"))
        print(f"report written to {args.out}")
    else:
        print(text)
    return 0


def cmd_verify(args) -> int:
    results = verify.run_suites(args.suite, checkpoint=args.checkpoint)
    width = max(len(r.name) for r in results)
    failures = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.suite:9s} {r.name:{width}s}  {r.detail}")
        failures += not r.passed
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 1 if failures else 0


def cmd_insight(args) -> int:
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    result = experiments.run_insight(args.which, seeds=args.seeds,
                                     out_dir=args.out, plot=args.plot)
    print(result["summary"])
    if args.out:
        print(f"results written to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="inhernet",
        description="Compress trained networks by gated low-rank inheritance "
                    "and verify the compression numerically.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-teacher", help="train a dense teacher on a synthetic task")
    _add_task_flags(p)
    _add_train_flags(p, lr=0.1, epochs=40)
    p.add_argument("--arch", default="24,96,96,4",
                   help="comma-separated layer widths")
    p.add_argument("--loss", choices=("ce", "mse"), default="ce")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_teacher)

    p = sub.add_parser("inherit", help="inherit a teacher checkpoint")
    p.add_argument("--teacher", required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--heads", type=int, default=3)
    p.add_argument("--mode", choices=COMBINER_MODES, default="convex")
    p.add_argument("--gate", choices=GATE_INPUTS, default="code", help=GATE_HELP)
    p.add_argument("--variant", choices=VARIANTS, default="standard")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cap-rank", action="store_true",
                   help="clamp the rank per layer instead of failing")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_inherit)

    p = sub.add_parser("train", help="fine-tune a checkpoint on a synthetic task")
    p.add_argument("--net", required=True)
    _add_task_flags(p)
    _add_train_flags(p, lr=0.01, epochs=100)
    p.add_argument("--loss", choices=("ce", "mse"), default="ce")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("distill", help="train a student against teacher logits")
    p.add_argument("--teacher", required=True)
    p.add_argument("--student", required=True)
    _add_task_flags(p)
    _add_train_flags(p, lr=0.01, epochs=100)
    p.add_argument("--lambda-kd", type=float, default=9.0)
    p.add_argument("--lambda-ce", type=float, default=1.0)
    p.add_argument("--tau", type=float, default=2.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_distill)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a synthetic task")
    p.add_argument("--net", required=True)
    _add_task_flags(p)
    p.add_argument("--loss", choices=("ce", "mse"), default="ce")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("analyze", help="emit the compression/fidelity report")
    p.add_argument("--teacher", required=True)
    p.add_argument("--student", default=None,
                   help="analyze this checkpoint instead of a fresh inheritance")
    p.add_argument("--rank", type=int, default=None,
                   help="required without --student; " + FRESH_HELP)
    p.add_argument("--heads", type=int, default=3, help=FRESH_HELP)
    p.add_argument("--gate", choices=GATE_INPUTS, default="code", help=GATE_HELP)
    p.add_argument("--cap-rank", action="store_true")
    p.add_argument("--alphas", default=None,
                   help="comma-separated per-layer influence weights")
    p.add_argument("--probe-seed", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify", help="run the named property suite")
    p.add_argument("--suite", choices=(*verify.SUITES, "all"), default="all")
    p.add_argument("--checkpoint", default=None,
                   help="additionally validate this checkpoint file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("insight", help="reproduce one of the trend experiments")
    p.add_argument("--which", type=int, choices=tuple(experiments.INSIGHTS), required=True)
    p.add_argument("--seeds", type=int, default=5)
    p.add_argument("--out", default=None)
    p.add_argument("--plot", action="store_true", help="also write SVG charts")
    p.set_defaults(func=cmd_insight)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "analyze" and args.student is None and args.rank is None:
        parser.error("analyze: the following argument is required without --student: --rank")
    _print_config(args)
    try:
        return args.func(args)
    except USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
