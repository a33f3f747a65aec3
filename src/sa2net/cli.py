"""Command-line surface.

Subcommands: ``synth`` (generate a dataset), ``train``, ``eval``
(possibly ensembling several checkpoints), ``predict`` (one image to one
mask), ``gradcheck`` (the finite-difference suite).  Exit codes: 0 on
success, 1 on a usage error or any ValidationError, 2 on any other
SA2NetError or an OSError (see ``errors``).  The ``SA2NET_DTYPE`` env
var (f32|f64) selects precision; gradcheck requires f64.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from . import tensor as T
from .config import SYNTH_SECTIONS, TRAIN_SECTIONS, model_config_from, \
    parse_config_text, synth_spec_from, train_config_from
from .data import check_image, load_dataset, read_pgm, write_dataset, \
    write_pgm
from .errors import SA2NetError, ValidationError
from .gradcheck import DEFAULT_SEEDS, DEFAULT_TOL, run_suite
from .metrics import DEFAULT_THRESHOLD, check_threshold, threshold_mask
# Unused here; perfbench/spans.py wraps model_forward at this lookup site.
from .model import load_checkpoint, model_forward  # noqa: F401
from .training import evaluate, infer, train


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.format_usage()}{self.prog}: error: {message}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="sa2net", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset")
    p_synth.add_argument("--spec", required=True, help="synth.* config file")
    p_synth.add_argument("--out", required=True, help="output directory")
    p_synth.add_argument("--count", required=True, type=int)

    p_train = sub.add_parser("train", help="train a model")
    p_train.add_argument("--config", required=True,
                         help="model.*/lsa.*/train.* config file")
    p_train.add_argument("--data", required=True, help="dataset directory")
    p_train.add_argument("--out", required=True, help="checkpoint path")
    p_train.add_argument("--log", help="loss trace path (step<TAB>loss)")

    p_eval = sub.add_parser("eval", help="evaluate checkpoints on a dataset")
    p_eval.add_argument("--ckpt", required=True,
                        help="checkpoint path, or several comma-separated")
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--report", required=True,
                        help="machine-readable report path")
    p_eval.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)

    p_pred = sub.add_parser("predict", help="segment one image")
    p_pred.add_argument("--ckpt", required=True)
    p_pred.add_argument("--image", required=True,
                        help="tensor blob or PGM input image")
    p_pred.add_argument("--out", required=True, help="output mask PGM")
    p_pred.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)

    p_grad = sub.add_parser("gradcheck", help="run the finite-difference suite")
    p_grad.add_argument("--module", help="restrict to one module's checks")
    p_grad.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p_grad.add_argument("--seeds", type=int, default=DEFAULT_SEEDS)
    return parser


def _cmd_synth(args) -> int:
    spec = synth_spec_from(
        parse_config_text(T.read_text(args.spec), SYNTH_SECTIONS))
    lines = write_dataset(args.out, spec, args.count)
    print(f"wrote {len(lines)} samples to {args.out}")
    return 0


def _cmd_train(args) -> int:
    values = parse_config_text(T.read_text(args.config), TRAIN_SECTIONS)
    train_cfg = train_config_from(values)
    dataset = load_dataset(args.data)
    model_cfg = model_config_from(values, dataset[0].image.shape)
    result = train(model_cfg, train_cfg, dataset, out_path=args.out,
                   log_path=args.log)
    final = result.trace[-1][1] if result.trace else float("nan")
    print(f"trained {len(result.trace)} steps, final loss {final:.6g}, "
          f"checkpoint {args.out}")
    return 0


def _cmd_eval(args) -> int:
    paths = [p for p in args.ckpt.split(",") if p]
    dataset = load_dataset(args.data)
    report = evaluate(paths, dataset, threshold=args.threshold)
    with open(args.report, "w") as fp:
        fp.write(report.to_machine_lines())
    print(report.to_table(), end="")
    return 0


def _cmd_predict(args) -> int:
    check_threshold(args.threshold)
    store, cfg, _ = load_checkpoint(args.ckpt, with_adam=False)
    with open(args.image, "rb") as fp:
        magic = fp.read(4)
    reader = T.load_tensor if magic == T.TENSOR_MAGIC else read_pgm
    image = check_image(reader(args.image), args.image)
    mask = threshold_mask(infer([(store, cfg)], image.data[None]),
                          args.threshold)
    write_pgm(mask[0, 0], args.out)
    print(f"wrote mask to {args.out}")
    return 0


def _cmd_gradcheck(args) -> int:
    if os.environ.get("SA2NET_DTYPE", "f64") != "f64":
        raise ValidationError("gradcheck requires SA2NET_DTYPE=f64")
    rows = run_suite(seeds=args.seeds, tol=args.tol, module=args.module)
    if not rows:
        raise ValidationError(f"no gradchecks in module {args.module!r}")
    width = max(len(name) for name, _, _ in rows)
    failed = 0
    for name, err, limit in rows:
        status = "ok" if err < limit else "FAIL"
        if status == "FAIL":
            failed += 1
        print(f"{name:<{width}}  max_err {err:.3e}  limit {limit:.1e}  {status}")
    if failed:
        print(f"{failed} gradcheck(s) failed", file=sys.stderr)
        return 1
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "predict": _cmd_predict,
    "gradcheck": _cmd_gradcheck,
}


def cli(argv: Optional[list[str]] = None) -> int:
    """Run one CLI invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SA2NetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
