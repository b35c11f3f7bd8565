"""Command-line surface: audit, validate, encode, synth.

Every run writes its full effective configuration (defaults and seeds
included) into its JSON output, so reruns are bit-reproducible. Exit
codes separate failure families: 2 for configuration problems, 3 for
data problems, 4 for numerical failures, 5 for a validation worker
process that died.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .data import Schema, encode, load_dataset, write_dataset_csv, write_encoded_csv
from .dependence import DependenceConfig
from .detector import audit_dataset
from .errors import DataError, NumericsError, SchemaError
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
    p.add_argument("--max-n", type=int, default=2000, help="subsample cap on rows")
    p.add_argument("--seed", type=int, default=42)
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
    if raw == "median":
        return "median"
    try:
        t = float(raw)
        if math.isfinite(t):
            return t
    except ValueError:
        pass
    raise SchemaError(f"--threshold must be 'median' or a finite number, got {raw!r}")


def _parse_planted(raw: str) -> tuple[PlantedFeature, ...]:
    out = []
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            if ":" in part:
                p, f = part.split(":", 1)
                out.append(PlantedFeature(float(p), float(f)))
            else:
                out.append(PlantedFeature(float(part)))
        except ValueError as exc:
            raise SchemaError(f"bad --planted entry {part!r}: {exc}") from exc
    if not out:
        raise SchemaError("--planted lists no features")
    return tuple(out)


def _load(args) -> tuple:
    schema_path = Path(args.schema)
    if not schema_path.is_file():
        raise SchemaError(f"schema file not found: {schema_path}")
    data_path = Path(args.data)
    if not data_path.is_file():
        raise SchemaError(f"data file not found: {data_path}")
    schema = Schema.from_json(schema_path)
    dataset = load_dataset(data_path, schema)
    return schema, dataset


def _outdir(args) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise SchemaError(f"output path is not a directory: {out}") from None
    return out


def _run_audit_pipeline(args):
    from dataclasses import replace as dc_replace

    _, dataset = _load(args)
    config = DependenceConfig(KernelSpec(args.kernel), args.epsilon)
    encoded, y, report = audit_dataset(
        dataset,
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
    report = dc_replace(report, config=echo)
    return encoded, y, report


def cmd_audit(args) -> int:
    out = _outdir(args)
    _, _, report = _run_audit_pipeline(args)
    report.to_json(out / "report.json")
    table = report.table()
    (out / "report.txt").write_text(table + "\n", encoding="utf-8")
    print(table)
    print(f"sensitive features: {', '.join(report.sensitive_features) or '(none)'}")
    print(f"wrote {out / 'report.json'}")
    return EXIT_OK


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


@contextlib.contextmanager
def _fold_map(folds: int):
    """An order-keeping map that runs validation folds in parallel.

    min(folds, usable CPUs) spawned workers; each imports what unpickling
    `forest.fit_predict` needs, numpy and the forest, plus the caller's
    main module again. Under the `fairdep` script or `python -m fairdep`
    that main module is the small `fairdep.__main__`, and a worker holds
    about 41 MB, so a 2-vCPU run holds three processes. With one worker
    this is the builtin `map` and no process starts. The pool lives here
    and not in the library, because a script that called the library
    without an `if __name__ == "__main__":` guard would start it again in
    every worker. A fold that raises drops the folds not yet started.
    """
    workers = min(folds, _usable_cpus())
    if workers <= 1:
        yield map
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn"))
    try:
        yield functools.partial(_windowed_map, pool, workers + 1)
    finally:
        pool.shutdown(cancel_futures=True)


def _windowed_map(pool, window: int, fn, *iterables):
    """`pool.map`, submitting at most `window` calls ahead of the one it yields.

    `ProcessPoolExecutor.map` submits every call before it yields the
    first result, so it would hold every fold's training rows at once;
    here the next fold's rows are taken only when a result is read.
    """
    pending = collections.deque()
    for args in zip(*iterables):
        pending.append(pool.submit(fn, *args))
        if len(pending) == window:
            yield pending.popleft().result()
    while pending:
        yield pending.popleft().result()


def cmd_validate(args) -> int:
    out = _outdir(args)
    encoded, y, report = _run_audit_pipeline(args)
    report.to_json(out / "report.json")
    from concurrent.futures import BrokenExecutor

    try:
        with _fold_map(args.folds) as fold_map:
            vreport = run_validation(
                encoded,
                y,
                report,
                folds=args.folds,
                forest=ForestConfig(n_trees=args.trees, seed=args.seed),
                seed=args.seed,
                exclude_sensitive=args.exclude_sensitive_from_training,
                fold_map=fold_map,
            )
    except BrokenExecutor as exc:  # a worker died, for example killed for memory
        print(f"error (workers): {exc}", file=sys.stderr)
        return EXIT_WORKER
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
    _, dataset = _load(args)
    encoded = encode(dataset)
    path = out / "encoded.csv"
    write_encoded_csv(encoded, dataset.y, path, negative=dataset.negative_display)
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
    with open(out / "synth.schema.json", "w", encoding="utf-8") as fh:
        json.dump(dataset.schema.to_dict(), fh, indent=2)
        fh.write("\n")
    with open(out / "synth.truth.json", "w", encoding="utf-8") as fh:
        json.dump(truth, fh, indent=2)
        fh.write("\n")
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
    try:
        return COMMANDS[args.command](args)
    except (SchemaError, ValueError) as exc:
        print(f"error (config): {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"error (data): {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericsError as exc:
        print(f"error (numerics): {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
