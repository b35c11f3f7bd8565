"""Command-line surface: audit, validate, encode, synth.

Every run writes its full effective configuration (defaults and seeds
included) into its JSON output, so reruns are bit-reproducible. Exit
codes separate failure families: 2 for configuration problems
(SchemaError), 3 for data problems (DataError), 4 for numerical
failures (NumericsError), 5 for a validation worker process that died.
Any other exception is a bug and ends with a traceback (exit 1).
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import functools
import os
import sys
from concurrent.futures import BrokenExecutor
from pathlib import Path

import numpy as np

from .data import Schema, encode, load_dataset, write_dataset_csv, write_encoded_csv, write_json
from .dependence import DependenceConfig
from .detector import DEFAULT_SEED, DEFAULT_SUBSAMPLE, audit_dataset
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
    if not data_path.is_file():
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
    from dataclasses import replace as dc_replace

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
    return encoded, dc_replace(report, config=echo)


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


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


# macOS system frameworks are not fork-safe and Windows has no fork
FOLD_START_METHOD = "fork" if sys.platform.startswith("linux") else "spawn"


@contextlib.contextmanager
def _fold_map(folds: int):
    """An order-keeping map that runs validation folds in parallel.

    min(folds, usable CPUs) workers, started by `FOLD_START_METHOD`. With
    one worker this is the builtin `map` and no process starts. A fold
    that raises drops the folds not yet started.

    On Linux the workers are forked, so each has numpy and the forest
    loaded already and starts its first fold at once; a 2-vCPU run holds
    three processes and starts no resource tracker. The fork is safe:
    - with a fork context, `ProcessPoolExecutor` forks every worker at
      the first submit, before it starts its manager thread (CPython
      gh-90622);
    - the command's only other OS threads are the OpenBLAS pools of
      numpy and of scipy (whose LAPACK module `fairdep.dependence`
      loads), which OpenBLAS's own `pthread_atfork` handlers stop before
      the fork and restart on the next BLAS call;
    - a worker runs only `forest.fit_predict`, which calls no BLAS or
      LAPACK routine.
    Python 3.12 and later count the BLAS threads and emit a
    DeprecationWarning ("This process ... is multi-threaded, use of
    fork() may lead to deadlocks in the child"), which the default
    warning filters hide.

    Elsewhere the workers are spawned: each imports numpy and the forest
    to unpickle `fit_predict`, plus the caller's main module again, which
    the `fairdep` script and `python -m fairdep` keep small. The pool
    lives here and not in the library, because a script that called the
    library without an `if __name__ == "__main__":` guard would start it
    again in every spawned worker.
    """
    workers = min(folds, _usable_cpus())
    if workers <= 1:
        yield map
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    context = multiprocessing.get_context(FOLD_START_METHOD)
    pool = ProcessPoolExecutor(workers, mp_context=context)
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
    forest = ForestConfig(n_trees=args.trees, seed=args.seed)
    out = _outdir(args)
    encoded, report = _run_audit_pipeline(args)
    report.to_json(out / "report.json")
    try:
        with _fold_map(args.folds) as fold_map:
            vreport = run_validation(
                encoded,
                report,
                folds=args.folds,
                forest=forest,
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
    try:
        if getattr(args, "seed", 0) < 0:  # encode takes no seed
            raise SchemaError(f"--seed must be nonnegative, got {args.seed}")
        if getattr(args, "folds", 2) < 2:  # only validate takes folds
            raise SchemaError(f"need at least 2 folds, got {args.folds}")
        return COMMANDS[args.command](args)
    except SchemaError as exc:
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
