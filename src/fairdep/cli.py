"""Command-line surface: audit, validate, encode, synth.

Every run writes its full effective configuration (defaults and seeds
included) into its JSON output, so reruns are bit-reproducible. Exit
codes separate failure families: 2 for configuration problems
(SchemaError), 3 for data problems (DataError), 4 for numerical
failures (NumericsError), 5 for a worker process that ended without a
result (WorkerError: one of validate's fold workers, or a reader of
part of a large CSV; both are forked children, see `fairdep.workers`).
An exception raised in a worker counts as if raised in this process.
Any other exception is a bug and ends with a traceback (exit 1).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .data import Schema, encode, load_dataset, write_dataset_csv, write_encoded_csv, write_json
from .dependence import DependenceConfig
from .detector import DEFAULT_SEED, DEFAULT_SUBSAMPLE, audit_dataset
from .errors import DataError, NumericsError, SchemaError, WorkerError
from .forest import ForestConfig
from .kernels import KERNEL_KINDS, KernelSpec
from .synth import PlantedFeature, SynthSpec, generate
from .validation import validate as run_validation
from .validation import write_scatter_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4
EXIT_WORKER = 5


def _add_io_flags(p: argparse.ArgumentParser):
    p.add_argument("--data", required=True, help="CSV dataset path")
    p.add_argument("--schema", required=True, help="schema JSON path")
    p.add_argument("--out", default="out", help="output directory (created if absent)")


def _add_audit_flags(p: argparse.ArgumentParser):
    p.add_argument("--kernel", choices=list(KERNEL_KINDS), default="rbf")
    p.add_argument("--epsilon", type=float, default=1e-6)
    p.add_argument(
        "--threshold",
        default="median",
        help="'median' or a fixed numeric cut for the sensitive flag",
    )
    p.add_argument("--max-n", type=int, default=DEFAULT_SUBSAMPLE, help="subsample cap on rows")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--standardize", action="store_true", help="z-score numeric columns")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairdep",
        description="Detect sensitive features via kernel dependence with the label.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_audit = sub.add_parser("audit", help="score features and flag sensitive ones")
    _add_io_flags(p_audit)
    _add_audit_flags(p_audit)

    p_val = sub.add_parser("validate", help="audit plus cross-validated fairness check")
    _add_io_flags(p_val)
    _add_audit_flags(p_val)
    p_val.add_argument("--folds", type=int, default=10)
    p_val.add_argument("--trees", type=int, default=100)
    p_val.add_argument(
        "--exclude-sensitive-from-training",
        action="store_true",
        help="hide detected sensitive feature columns from the classifier",
    )

    p_enc = sub.add_parser("encode", help="write the one-hot extended matrix as CSV")
    _add_io_flags(p_enc)

    p_syn = sub.add_parser("synth", help="generate a planted-dependence dataset")
    p_syn.add_argument("--n", type=int, default=500)
    p_syn.add_argument(
        "--planted",
        default="0.0,0.1,0.25,0.5",
        help="comma list of corruption probabilities, each optionally p:fraction",
    )
    p_syn.add_argument("--noise-binary", type=int, default=1)
    p_syn.add_argument("--noise-numeric", type=int, default=2)
    p_syn.add_argument("--balance", type=float, default=0.5)
    p_syn.add_argument("--seed", type=int, default=0)
    p_syn.add_argument("--out", default="out")
    return parser


def _parse_threshold(raw: str):
    """'median' or a float; `detect` rejects a float that is not finite."""
    try:
        return raw if raw == "median" else float(raw)
    except ValueError:
        raise SchemaError(f"--threshold must be 'median' or a number, got {raw!r}") from None


def _parse_planted(raw: str) -> tuple[PlantedFeature, ...]:
    out = []
    for part in filter(None, map(str.strip, raw.split(","))):
        try:  # "p" or "p:fraction"
            out.append(PlantedFeature(*map(float, part.split(":", 1))))
        except ValueError as exc:
            raise SchemaError(f"bad --planted entry {part!r}: {exc}") from exc
    if not out:
        raise SchemaError("--planted lists no features")
    return tuple(out)


def _load(args):
    schema_path = Path(args.schema)
    if not schema_path.is_file():
        raise SchemaError(f"schema file not found: {schema_path}")
    data_path = Path(args.data)
    if not data_path.exists() or data_path.is_dir():  # a pipe, such as <(cmd), streams
        raise SchemaError(f"data file not found: {data_path}")
    return load_dataset(data_path, Schema.from_json(schema_path))


def _outdir(args) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise SchemaError(f"output path is not a directory: {out}") from None
    return out


def _run_audit_pipeline(args):
    config = DependenceConfig(KernelSpec(args.kernel), args.epsilon)
    encoded, report = audit_dataset(
        _load(args),
        config=config,
        threshold=_parse_threshold(args.threshold),
        max_n=args.max_n,
        seed=args.seed,
        standardize=args.standardize,
    )
    echo = dict(report.config)
    echo.update(
        {
            "data": str(args.data),
            "schema": str(args.schema),
            "command": args.command,
        }
    )
    return encoded, replace(report, config=echo)


def cmd_audit(args) -> int:
    out = _outdir(args)
    _, report = _run_audit_pipeline(args)
    report.to_json(out / "report.json")
    table = report.table()
    (out / "report.txt").write_text(table + "\n", encoding="utf-8")
    print(table)
    print(f"sensitive features: {', '.join(report.sensitive_features) or '(none)'}")
    print(f"wrote {out / 'report.json'}")
    return EXIT_OK


def cmd_validate(args) -> int:
    forest = ForestConfig(n_trees=args.trees, seed=args.seed)
    out = _outdir(args)
    encoded, report = _run_audit_pipeline(args)
    report.to_json(out / "report.json")
    vreport = run_validation(
        encoded,
        report,
        folds=args.folds,
        forest=forest,
        seed=args.seed,
        exclude_sensitive=args.exclude_sensitive_from_training,
    )
    vreport.to_json(out / "validation.json")
    write_scatter_csv(vreport, args.kernel, out / "scatter.csv")
    acc = float(np.mean(vreport.fold_accuracy))
    print(report.table())
    print(f"cv accuracy over {args.folds} folds: {acc:.4f}")
    print(f"spearman(nocco, fairness): {vreport.spearman}")
    print(f"wrote {out / 'validation.json'} and {out / 'scatter.csv'}")
    return EXIT_OK


def cmd_encode(args) -> int:
    out = _outdir(args)
    dataset = _load(args)
    encoded = encode(dataset)
    path = out / "encoded.csv"
    write_encoded_csv(encoded, path, negative=dataset.negative_display)
    print(f"wrote {path} ({encoded.n} rows x {encoded.width} columns)")
    return EXIT_OK


def cmd_synth(args) -> int:
    out = _outdir(args)
    spec = SynthSpec(
        n=args.n,
        planted=_parse_planted(args.planted),
        noise_binary=args.noise_binary,
        noise_numeric=args.noise_numeric,
        balance=args.balance,
        seed=args.seed,
    )
    dataset, truth = generate(spec)
    write_dataset_csv(dataset, out / "synth.csv", negative=dataset.negative_display)
    write_json(out / "synth.schema.json", dataset.schema.to_dict())
    write_json(out / "synth.truth.json", truth)
    print(f"wrote {out / 'synth.csv'}, {out / 'synth.schema.json'}, {out / 'synth.truth.json'}")
    return EXIT_OK


COMMANDS = {
    "audit": cmd_audit,
    "validate": cmd_validate,
    "encode": cmd_encode,
    "synth": cmd_synth,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # each failure family: its exit code, and the word its message names it by
    failures = {
        SchemaError: (EXIT_CONFIG, "config"),
        DataError: (EXIT_DATA, "data"),
        NumericsError: (EXIT_NUMERIC, "numerics"),
        WorkerError: (EXIT_WORKER, "workers"),
    }
    try:
        if getattr(args, "seed", 0) < 0:  # encode takes no seed
            raise SchemaError(f"--seed must be nonnegative, got {args.seed}")
        if getattr(args, "folds", 2) < 2:  # only validate takes folds
            raise SchemaError(f"need at least 2 folds, got {args.folds}")
        return COMMANDS[args.command](args)
    except tuple(failures) as exc:
        code, family = next(v for kind, v in failures.items() if isinstance(exc, kind))
        print(f"error ({family}): {exc}", file=sys.stderr)
        return code


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
