"""Batch command-line surface.

Commands: pretrain, finetune, sample, optimize, evaluate. Every run
writes its resolved configuration to ``config_echo.json`` in the output
directory (enough to re-run the command identically) plus a manifest of
produced files. Fixed --seed makes every command reproducible
end-to-end; JT_SEED in the environment is the seed fallback. Each
config field is a flag; a boolean one takes --flag or --flag BOOL.

Exit codes: 0 ok, 1 configuration error, 2 data error (a missing or
empty data file, a bad line), 3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import hashlib
import json
import math
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import MISSING, asdict, fields, replace
from pathlib import Path
from typing import get_args, get_type_hints

from . import evaluation as ev
from . import generation as gen
from . import model as mdl
from . import objectives as obj
from . import training as tr
from .numerics import NonFiniteError
from .smiles import TokenizeError, build_vocabulary, validate
from .training import Checkpoint, TrainConfig

EXIT_OK, EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC = 0, 1, 2, 3


class ConfigError(Exception):
    pass


class DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # unknown flags and bad values are configuration errors (exit 1)
    def error(self, message):
        raise ConfigError(message)


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=int, default=None, help="seed (fallback: JT_SEED env, then 0)")
    p.add_argument("--out-dir", default=None, help="output directory (default: runs/<timestamp>-<cmd>)")


def _count(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


def _bool(text: str) -> bool:
    words = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}
    if text.lower() not in words:
        raise argparse.ArgumentTypeError(f"expected true/false, 1/0 or yes/no, got {text!r}")
    return words[text.lower()]


_FLAG_ALIASES = {"dropout": ["--dropout-rate"]}
_FLAG_HELP = {"eval_interval": "checkpoint interval in iterations (0 = save only at the end)",
              "y_c": "acceptance threshold on predicted y"}


def _add_config_flags(parser, cls, defaults=None, skip=()):
    """One --field-name flag per field of the config dataclass ``cls``, except ``seed`` and ``skip``.

    The field's annotation gives the type (``int | None`` reads as int), ``defaults`` (an instance)
    or else the field gives the default, and a field with no default makes a required flag. A bool
    field takes ``--flag`` or ``--flag BOOL``, BOOL one of true/false, 1/0 or yes/no in any case.
    """
    hints = get_type_hints(cls)
    for f in fields(cls):
        if f.name == "seed" or f.name in skip:
            continue
        kind = next((t for t in get_args(hints[f.name]) if t is not type(None)), hints[f.name])
        default = f.default if defaults is None else getattr(defaults, f.name)
        opts = dict(type=kind)
        if kind is bool:
            opts = dict(type=_bool, nargs="?", const=True, metavar="BOOL")
        parser.add_argument("--" + f.name.replace("_", "-"), *_FLAG_ALIASES.get(f.name, []), default=default,
                            required=default is MISSING, help=_FLAG_HELP.get(f.name), **opts)


def _config(cls, args, **fixed):
    """``cls`` built from the parsed flags named after its fields (``seed`` included) and ``fixed``;
    a field with no flag keeps its default."""
    return cls(**{f.name: getattr(args, f.name) for f in fields(cls) if hasattr(args, f.name)} | fixed)


def _add_objective_flags(p: argparse.ArgumentParser, help_text: str):
    p.add_argument("--objective", help=help_text)
    p.add_argument("--objective-params", default="", help="key=value,... objective parameters")


def _objective(args) -> obj.ObjectiveSpec | None:
    if args.objective_params and not args.objective:
        raise ConfigError("--objective-params needs --objective")
    return obj.make_objective(args.objective, args.objective_params) if args.objective else None


def _start_run(args, resolved: dict) -> Path:
    """Create the output directory and write config_echo.json into it."""
    if args.out_dir:
        out = Path(args.out_dir)
    else:
        out = Path("runs") / f"{time.strftime('%Y%m%d-%H%M%S')}-{args.command}"
    out.mkdir(parents=True, exist_ok=True)
    doc = {"command": args.command, "seed": args.seed, **resolved}
    (out / "config_echo.json").write_text(json.dumps(doc, indent=1, sort_keys=True, default=str))
    return out


def _write_manifest(out_dir: Path, entries: list[str]) -> None:
    outputs = sorted(["config_echo.json", *entries])
    (out_dir / "manifest.json").write_text(json.dumps({"outputs": outputs}, indent=1))


@contextmanager
def _loss_log(out_dir: Path):
    """Open loss.log and yield the training loop's per-step log callback."""
    with (out_dir / "loss.log").open("w") as fh:
        fh.write("iter\ttask\tloss\n")
        yield lambda it, loss, task: fh.write(f"{it}\t{task.value}\t{loss:.6f}\n")


def _config_hash(doc: dict) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True, default=str).encode()).hexdigest()[:16]


def _require_path(path: str, kind: str) -> Path:
    p = Path(path)
    if not p.exists():
        raise DataError(f"{kind} path does not exist: {path}")
    return p


def _load_checkpoint(path: str) -> Checkpoint:
    _require_path(path, "checkpoint")
    try:
        return Checkpoint.load(path)
    except (OSError, ValueError, KeyError) as e:
        raise DataError(f"cannot load checkpoint {path}: {e}") from None


def _train_run(args, start: Checkpoint, dataset, resolved: dict, metrics) -> int:
    """Train ``start`` into a new run directory; ``metrics(state, ckpt_dir)`` is metrics.json's text."""
    out_dir = _start_run(args, resolved)
    ckpt_dir = out_dir / "checkpoint"
    with _loss_log(out_dir) as log_cb:
        state = tr.train(start, dataset, log_cb=log_cb, checkpoint_dir=ckpt_dir)
    (out_dir / "metrics.json").write_text(metrics(state, ckpt_dir))
    _write_manifest(out_dir, ["loss.log", "checkpoint", "metrics.json"])
    print(f"{args.command.rstrip('e')}ed {state.iteration} iterations -> {ckpt_dir}")
    return EXIT_OK


def _read_dataset(path: str, kind: str, max_len: int, vocab=None, labeled=False, objective=None):
    """(vocabulary, Dataset) from a file of one SMILES per line, or of SMILES<TAB>float lines when
    ``labeled``; ``objective`` labels plain SMILES, and with no ``vocab`` the file's tokens make one.
    DataError for a missing or empty file, an untokenizable line or a bad target."""
    path = _require_path(path, kind)
    try:
        lines, ys = tr.read_labeled_lines(path) if labeled else (tr.read_smiles_lines(path), None)
        if not lines:
            raise DataError(f"no usable lines in {path}")
        vocab = build_vocabulary(lines) if vocab is None else vocab
        dataset = tr.encode_corpus(lines, vocab, max_len, targets=ys)
        return vocab, dataset if objective is None else obj.label_dataset(dataset, objective, vocab)
    except (TokenizeError, ValueError) as e:
        raise DataError(str(e)) from None


def cmd_pretrain(args) -> int:
    # every flag is checked before the data is read; the data's vocabulary then sets vocab_size
    mcfg = _config(mdl.ModelConfig, args, vocab_size=1)
    tcfg = _config(TrainConfig, args)
    vocab, dataset = _read_dataset(args.data, "data", mcfg.max_len)
    mcfg = replace(mcfg, vocab_size=len(vocab))
    return _train_run(args, Checkpoint.start(vocab, mcfg, tcfg), dataset, {
        "data": str(Path(args.data)), "model": asdict(mcfg), "train": asdict(tcfg),
    }, lambda state, ckpt_dir: ev.MetricsReport(sample_count=0, metadata={
        "seed": args.seed, "checkpoint": str(ckpt_dir), "iterations": state.iteration,
        "config_hash": _config_hash(asdict(tcfg) | asdict(mcfg)),
    }).to_json())


def cmd_finetune(args) -> int:
    base = _load_checkpoint(args.checkpoint)
    _require_path(args.data, "data")  # a missing file is reported before a bad objective
    objective = _objective(args)
    tcfg = _config(TrainConfig, args)  # every flag is checked before the data is read
    _, dataset = _read_dataset(args.data, "data", base.model_config.max_len, base.vocab,
                               labeled=objective is None, objective=objective)
    metrics = json.dumps({"seed": args.seed, "config_hash": _config_hash(asdict(tcfg))}, indent=1, sort_keys=True)
    start = Checkpoint.start(base.vocab, base.model_config, tcfg,
                             weights={n: t.data for n, t in base.params.tensors.items()})
    return _train_run(args, start, dataset, {
        "checkpoint": args.checkpoint, "data": args.data,
        "objective": asdict(objective) if objective else None, "train": asdict(tcfg),
    }, lambda state, ckpt_dir: metrics)


def cmd_sample(args) -> int:
    state = _load_checkpoint(args.checkpoint)
    cfg = _config(gen.SamplerConfig, args)
    cfg.new_tokens(state.model_config.max_len)  # a bad max_new_tokens fails before the run starts
    out_dir = _start_run(args, {"checkpoint": args.checkpoint, "n": args.n, "sampler": asdict(cfg)})
    samples = gen.sample_batch(state.params, state.vocab, cfg, args.n)
    out_file = out_dir / "samples.tsv"
    with out_file.open("w") as fh:
        for s in samples:
            fh.write(f"{s.smiles}\t{s.y:.6f}\n")
    _write_manifest(out_dir, ["samples.tsv"])
    print(f"wrote {len(samples)} samples -> {out_file}")
    return EXIT_OK


def cmd_optimize(args) -> int:
    state = _load_checkpoint(args.checkpoint)
    objective = _objective(args)
    pcfg = _config(gen.PbboConfig, args)
    scfg = _config(gen.SamplerConfig, args)
    y_c = pcfg.y_c if math.isfinite(pcfg.y_c) else str(pcfg.y_c)  # strict JSON has no -Infinity
    budgets = asdict(pcfg) | {"y_c": y_c}
    out_dir = _start_run(args, {
        "checkpoint": args.checkpoint, **budgets,
        "objective": asdict(objective) if objective else None, "sampler": asdict(scfg),
    })
    fn = (lambda s: obj.evaluate(objective, s)) if objective else None
    result = gen.pbbo_optimize(state.params, state.vocab, pcfg, scfg, objective=fn)
    trace_file = out_dir / "trace.jsonl"
    with trace_file.open("w") as fh:
        for rec in result.trace:
            fh.write(json.dumps(vars(rec)) + "\n")
    summary = {
        "seed": args.seed,
        **budgets,
        "draws_used": result.draws_used,
        "accepted_count": result.accepted_count,
        "top1": result.top1(),
        "best_accepted": (vars(max(result.accepted, key=lambda r: r.oracle if r.oracle is not None else r.y_pred))
                          if result.accepted else None),
    }
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=1, sort_keys=True))
    _write_manifest(out_dir, ["trace.jsonl", "summary.json"])
    print(f"{result.accepted_count} accepted in {result.draws_used} draws; top1 = {result.top1()}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    if args.samples is None and args.checkpoint is None:
        raise ConfigError("evaluate needs --samples and/or --checkpoint")
    if args.objective is not None and args.n_samples == 0:
        raise ConfigError("evaluate --objective scores sampled draws: it needs --n-samples >= 1")
    if (args.test is not None or args.objective is not None) and args.checkpoint is None:
        raise ConfigError("evaluate --test and --objective need --checkpoint")
    if args.histograms and args.data is None:
        raise ConfigError("evaluate --histograms compares with reference SMILES: it needs --data")
    objective = _objective(args)
    # every input is read and checked before the run directory exists
    state = _load_checkpoint(args.checkpoint) if args.checkpoint else None
    if args.samples is not None:
        # the first tab field, so ``sample``'s "SMILES<TAB>y" lines read as their
        # SMILES and an empty draw ("<TAB>y") as an invalid sample; blank lines drop
        text = _require_path(args.samples, "samples").read_text()
        sample_lines = [ln.split("\t", 1)[0].strip() for ln in text.splitlines() if ln.strip()]
        if not sample_lines:
            raise DataError(f"no usable lines in {args.samples}")
    reference = ref_reports = None  # each string is validated once, here or below
    if args.data is not None:
        reference = tr.read_smiles_lines(_require_path(args.data, "data"))
        ref_reports = [validate(s) for s in reference]
        if not any(ref_reports):
            raise DataError(f"no valid SMILES in {args.data}")
    if args.test is not None:
        _, test_set = _read_dataset(args.test, "test data", state.model_config.max_len, state.vocab, labeled=True)
    resolved = {k: v for k, v in vars(args).items() if k != "func"}
    out_dir = _start_run(args, resolved)

    # one set of draws serves both the sample metrics and the sampled MAE
    draws = []
    if objective is not None or (args.samples is None and args.n_samples > 0):
        draws = gen.sample_batch(state.params, state.vocab, gen.SamplerConfig(seed=args.seed), args.n_samples)
    if args.samples is None:
        sample_lines = [s.smiles for s in draws]

    report = ev.MetricsReport(sample_count=len(sample_lines))
    report.metadata = {"seed": args.seed, "checkpoint": args.checkpoint,
                       "config_hash": _config_hash(resolved)}
    reports = [validate(s) for s in sample_lines]
    if sample_lines:
        report.validity = ev.validity(reports)
        report.uniqueness = ev.uniqueness(sample_lines)
    if reference is not None:
        if sample_lines:
            report.novelty = ev.novelty(sample_lines, reference)
        if report.validity:  # no valid sample: no feature distribution to compare
            report.feature_kl = ev.feature_kl(reports, ref_reports)
    if args.test is not None:
        report.mae = ev.mae(state.params, test_set)
    if objective is not None:
        draw_reports = reports if args.samples is None else [validate(s.smiles) for s in draws]
        report.mae_sampled, report.mae_sampled_retained = ev.mae_sampled(draws, draw_reports, objective)

    outputs = ["metrics.json"]
    if args.histograms and report.feature_kl is not None:
        rows = ev.feature_histograms(reports, ref_reports)
        with (out_dir / "histograms.csv").open("w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
        outputs.append("histograms.csv")

    (out_dir / "metrics.json").write_text(report.to_json())
    _write_manifest(out_dir, outputs)
    print(report.to_json())
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="moljoint", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pretrain", help="unsupervised training from a SMILES corpus")
    p.add_argument("--data", required=True, help="text file, one SMILES per line")
    _add_config_flags(p.add_argument_group("model"), mdl.ModelConfig, skip=("vocab_size",))
    _add_config_flags(p.add_argument_group("training"), TrainConfig)
    _add_common(p)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("finetune", help="supervised training from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True,
                   help="SMILES<TAB>float file, or plain SMILES with --objective")
    _add_objective_flags(p, "auto-label --data with this objective")
    _add_config_flags(p.add_argument_group("training"), TrainConfig, TrainConfig.finetune_defaults())
    _add_common(p)
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("sample", help="write n sampled (SMILES, y_pred) lines")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("-n", type=_count, default=100)
    _add_config_flags(p, gen.SamplerConfig)
    _add_common(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("optimize", help="budgeted draw-and-filter optimization")
    p.add_argument("--checkpoint", required=True)
    _add_config_flags(p, gen.PbboConfig)
    _add_objective_flags(p, "re-score accepted samples with this objective")
    _add_config_flags(p, gen.SamplerConfig, skip=("max_new_tokens", "sample_y"))
    _add_common(p)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("evaluate", help="metrics over a sample file or checkpoint")
    p.add_argument("--checkpoint")
    p.add_argument("--samples", help="sample file: one SMILES per line, or the samples.tsv "
                   "that `sample` writes (empty draws count as invalid); default: sample fresh")
    p.add_argument("--n-samples", type=_count, default=500)
    p.add_argument("--data", help="training corpus for novelty/feature-distribution metrics")
    p.add_argument("--test", help="held-out SMILES<TAB>float file for MAE")
    _add_objective_flags(p, "objective for MAE on sampled molecules")
    p.add_argument("--histograms", action="store_true", help="emit feature histogram CSV (needs --data)")
    _add_common(p)
    p.set_defaults(func=cmd_evaluate)
    return parser


# glibc mallopt parameters
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _keep_freed_memory() -> bool:
    """Keep freed numpy buffers in this process; returns whether it could.

    A training step's tape grows the heap by ~80 MB of temporaries. Under
    glibc's dynamic thresholds that memory goes back to the kernel during
    backward and the next forward pass faults all of it in again. Here
    arrays under 64 MiB come from the heap, and the heap keeps up to
    256 MiB of free memory at its top. Allocator settings are process-wide, so
    only the CLI, which owns its process, makes them. Without mallopt
    (macOS, other libcs) nothing changes.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # the mmap threshold goes first: a trim threshold set alone would switch
    # off the dynamic mmap threshold and pin it at its 128 KiB default
    if mallopt(_M_MMAP_THRESHOLD, 64 << 20) != 1:
        return False
    return mallopt(_M_TRIM_THRESHOLD, 256 << 20) == 1


def main(argv=None) -> int:
    _keep_freed_memory()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.seed is None:
            args.seed = int(os.environ.get("JT_SEED", "0"))
        if args.seed < 0:  # every config's seed has this bound; it is checked before any command starts
            raise ConfigError(f"seed must be >= 0, got {args.seed}")
        return args.func(args)
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except (NonFiniteError, RuntimeWarning) as e:  # numpy's overflow warnings raise under -W error
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ConfigError, ValueError) as e:  # a config dataclass rejects a bad value with ValueError
        print(f"configuration error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
