"""End-to-end and per-layer benchmark of the `fairdep` CLI.

Run one workload from the repository root:

    python3 perfbench/run.py --workload audit-adult --seed 1 --seconds 38 --trace 0

The benchmark generates the workload's input files from the seed, then
runs `fairdep.cli.main` with the argv a user would type, one job per
fresh interpreter, one job at a time, until the next job would end past
`--seconds`. Every job's outputs are checked. With `--trace 0` it
reports the end-to-end metrics; with `--trace 1` it alternates untraced
and traced jobs and reports the per-layer metrics. The last line of
standard output is one JSON object with the result; `--record FILE`
also appends the full record (every sample and the environment) to FILE
as one JSON line.

Compare two such record files, e.g. a parent and a change run in
alternation:

    python3 perfbench/run.py --compare parent.jsonl change.jsonl

See perfbench/README.md for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCHEMAS = ROOT / "data" / "schemas"
WORK = HERE / "_work"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402
from layers import METRICS  # noqa: E402

DEADLINE_S = 165.0  # a run ends well within the 180 s it is allowed
SETUP_PROBES = 2  # import-only interpreters per run, besides every job's own


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "audit-adult",
            "audit",
            "default audit of a 48,842-row Adult-shaped CSV: 28 mostly low-rank kernel columns",
        ),
        Workload(
            "audit-taiwan",
            "audit",
            "default audit of a 30,000-row Taiwan-credit-shaped CSV: many full-rank numeric columns",
        ),
        Workload(
            "validate-synth",
            "validate",
            "linear-kernel validate of the 4,000-row planted suite: forest and fairness layers",
        ),
    )
}


class SetupError(Exception):
    """The checkout cannot run the benchmark (program or schemas missing)."""


def make_inputs(workload: Workload, seed: int, work: Path) -> tuple[list[str], dict]:
    """Write the workload's inputs under `work`; return the CLI argv and truth."""
    if workload.name == "validate-synth":
        truth = gen.write_validation_suite(work, seed)
        data, schema = work / "synth.csv", Path(truth["schema_path"])
        flags = ["--kernel", "linear"]
    else:
        data = work / "input.csv"
        writer = gen.write_adult if workload.name == "audit-adult" else gen.write_taiwan
        truth = writer(data, seed)
        schema = SCHEMAS / truth["schema"]
        flags = []
    truth.update(data_path=str(data), schema_path=str(schema))
    return [workload.command, "--data", str(data), "--schema", str(schema), *flags], truth


def import_probe(env: dict, timeout: float) -> float:
    """Seconds a fresh interpreter takes to import `fairdep.cli`."""
    code = "import time; t = time.perf_counter(); import fairdep.cli; print(time.perf_counter() - t)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=timeout
    )
    if out.returncode != 0:
        raise SetupError(f"importing fairdep.cli failed: {out.stderr.strip()}")
    return float(out.stdout)


def run_job(argv: list[str], out: Path, trace: bool, env: dict, timeout: float) -> dict:
    """One CLI job in a fresh interpreter; returns the job's result record."""
    result_path = out.with_suffix(".result.json")
    cmd = [sys.executable, str(HERE / "job.py"), "--result", str(result_path)]
    cmd += ["--trace"] if trace else []
    cmd += ["--", *argv, "--out", str(out)]
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s", "process_s": time.perf_counter() - started}
    record = {"process_s": time.perf_counter() - started, "traced": trace}
    if proc.returncode != 0 or not result_path.exists():
        record["error"] = f"job exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        return record
    record.update(json.loads(result_path.read_text(encoding="utf-8")))
    if "error" not in record and record.get("rc") != 0:
        record["error"] = f"fairdep exited {record.get('rc')}: {proc.stderr.strip()[-2000:]}"
    return record


def check_job(job: dict, workload: Workload, truth: dict, reference: dict | None) -> list[str]:
    out = Path(job["out"])
    try:
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        problems = checks.check_report(report)
        if workload.command == "validate":
            validation = json.loads((out / "validation.json").read_text(encoding="utf-8"))
            problems += checks.check_validation(report, validation, truth)
        else:
            problems += checks.check_planted(report, truth["planted"])
            problems += checks.check_reference(report, reference) if reference else [
                "no dense reference to compare with"
            ]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
    return problems


def dense_reference(jobs: list[dict], truth: dict) -> dict:
    """Dense scores of the planted groups and one numeric column.

    Empty when no job left a readable report or the reference itself
    fails; every job's reference check then fails.
    """
    from fairdep.errors import FairdepError

    columns = sorted(truth["planted"].values()) + [truth["reference_numeric"]]
    for job in jobs:
        if "error" in job:
            continue
        try:
            report = json.loads((Path(job["out"]) / "report.json").read_text(encoding="utf-8"))
            return checks.reference_scores(truth["data_path"], truth["schema_path"], report, columns)
        except (FairdepError, OSError, ValueError, KeyError) as exc:
            print(f"dense reference failed: {type(exc).__name__}: {exc}")
            return {}
    return {}


def environment() -> dict:
    """Machine, library and source-tree facts recorded with every result."""
    import numpy
    import scipy

    env = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or None,
        "memory_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20,
        "memory_limit": None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": None,
        "blas_threads": {},
        "git_sha": None,
        "git_dirty": None,
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            env["cpu_model"] = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                env["cpu_model"],
            )
    except OSError:
        pass
    for limit_file in ("/sys/fs/cgroup/memory.max", "/sys/fs/cgroup/memory/memory.limit_in_bytes"):
        try:
            with open(limit_file, encoding="utf-8") as fh:
                env["memory_limit"] = fh.read().strip()
            break
        except OSError:
            continue
    try:
        env["blas"] = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"].get(
            "openblas configuration"
        )
    except (KeyError, TypeError, AttributeError):
        pass
    import scipy.linalg  # noqa: F401  loads scipy's BLAS for the thread query

    env["blas_threads"] = blas_threads()
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        if sha.returncode == 0:
            env["git_sha"] = sha.stdout.strip()
            status = subprocess.run(
                ["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True, timeout=10
            )
            env["git_dirty"] = bool(status.stdout.strip())
    except (OSError, subprocess.TimeoutExpired):
        pass
    return env


def blas_threads() -> dict:
    """Thread count of each OpenBLAS this process has loaded."""
    out = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return out
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                out[Path(path).name] = func()
                break
    return out


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def summarize(jobs: list[dict], setup_samples: list[float], trace: bool) -> dict:
    """The reported metrics: end-to-end, or per layer when traced."""
    ok = [j for j in jobs if not j.get("problems") and "error" not in j]
    plain = [j["wall_s"] for j in ok if not j["traced"]]
    if not trace:
        return {
            "wall_s": {"value": median(plain), "unit": "s"},
            "peak_rss_mb": {"value": median([j["peak_rss_mb"] for j in ok]), "unit": "MB"},
            "setup_s": {"value": median(setup_samples), "unit": "s"},
        }
    traced = [j for j in ok if j["traced"]]
    metrics = {}
    for name, unit in METRICS:
        if name == "trace.overhead_s":
            value = median([j["wall_s"] for j in traced]) - median(plain)
        else:
            value = median([j["layers"][name] for j in traced])
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def run(workload: Workload, seed: int, seconds: float, trace: bool, record_path: Path | None) -> int:
    start = time.perf_counter()
    if not (SRC / "fairdep" / "cli.py").is_file() or not SCHEMAS.is_dir():
        raise SetupError(f"no fairdep sources under {SRC} or no schemas under {SCHEMAS}")
    sys.path.insert(0, str(SRC))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    work = WORK / f"{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        t0 = time.perf_counter()
        argv, truth = make_inputs(workload, seed, work)
        generate_s = time.perf_counter() - t0
        setup_samples = [import_probe(env, DEADLINE_S) for _ in range(SETUP_PROBES)]

        jobs: list[dict] = []
        loop_start = time.perf_counter()
        while True:
            step = time.perf_counter()
            for traced in ((False, True) if trace else (False,)):
                out = work / f"job{len(jobs)}"
                remaining = DEADLINE_S - (time.perf_counter() - start)
                job = run_job(argv, out, traced, env, max(remaining, 5.0))
                job["out"] = str(out)
                jobs.append(job)
            now = time.perf_counter()
            last = now - step
            if now - loop_start + last > seconds or now - start + last > DEADLINE_S - 10:
                break

        reference = dense_reference(jobs, truth) if workload.command == "audit" else None
        for job in jobs:
            if "error" not in job:
                job["problems"] = check_job(job, workload, truth, reference)
                setup_samples.append(job["import_s"])
        failed = sum(1 for j in jobs if "error" in j or j["problems"])
        metrics = summarize(jobs, setup_samples, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env_record = environment()
    report_run(workload, seed, jobs, metrics, generate_s, setup_samples, failed, reference, env_record)
    result = {
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": metrics,
    }
    if record_path is not None:
        record = dict(
            result,
            workload=workload.name,
            seed=seed,
            seconds=seconds,
            trace=trace,
            generate_s=generate_s,
            setup_samples=setup_samples,
            jobs=jobs,
            environment=env_record,
        )
        with open(record_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


def report_run(workload, seed, jobs, metrics, generate_s, setup_samples, failed, reference, env):
    print(f"workload {workload.name} (seed {seed}): {workload.why}")
    print(f"environment: {json.dumps(env)}")
    print(f"inputs generated in {generate_s:.3f} s (not part of any metric)")
    for i, job in enumerate(jobs):
        kind = "traced" if job.get("traced") else "plain"
        if "error" in job:
            print(f"job {i} ({kind}): FAILED {job['error']}")
            continue
        status = "ok" if not job["problems"] else "FAILED " + "; ".join(job["problems"])
        print(
            f"job {i} ({kind}): wall {job['wall_s']:.3f} s, peak rss {job['peak_rss_mb']:.1f} MB, "
            f"import {job['import_s']:.3f} s: {status}"
        )
        if job.get("absent_spans"):
            print(f"  absent spans (function gone, counted 0): {', '.join(job['absent_spans'])}")
    if reference:
        print("dense reference scores: " + ", ".join(f"{k}={v:.6g}" for k, v in reference.items()))
    print(f"setup samples (s): {', '.join(f'{s:.3f}' for s in setup_samples)}")
    n_plain = sum(1 for j in jobs if "error" not in j and not j["problems"] and not j["traced"])
    print(f"error_rate: {failed}/{len(jobs)} = {failed / len(jobs):.3f}")
    for name, m in metrics.items():
        print(f"{name:<32} {m['value']:>16.6g} {m['unit']}")
    print(f"(timings are medians of {n_plain} untraced job(s); too few for a tail percentile)")


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(path_a: Path, path_b: Path) -> int:
    """Per workload and metric: medians, quartiles, ratio and verdict."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}

    def load(path):
        runs: dict = {}
        for line in Path(path).read_text(encoding="utf-8").splitlines():
            if line.strip():
                rec = json.loads(line)
                runs.setdefault(rec["workload"], []).append(rec)
        return runs

    runs_a, runs_b = load(path_a), load(path_b)
    for workload in sorted(set(runs_a) & set(runs_b)):
        print(f"== {workload}: {len(runs_a[workload])} base runs, {len(runs_b[workload])} change runs")
        names = [n for n in spec if any(n in r["metrics"] for r in runs_a[workload])]
        for name in names:
            a = [r["metrics"][name]["value"] for r in runs_a[workload] if name in r["metrics"]]
            b = [r["metrics"][name]["value"] for r in runs_b[workload] if name in r["metrics"]]
            if not a or not b:
                continue
            print("  " + verdict(name, spec[name], a, b))
    return 0


def verdict(name: str, spec: dict, a: list[float], b: list[float]) -> str:
    """One line: both sides' quartiles, the ratio with its base, the verdict.

    A change is better only if it wins at least 9/10 of the pairs (runs
    matched in order, ties counting for neither side) and the medians
    differ by more than the base's interquartile range.
    """
    lower = spec.get("better", "lower") == "lower"
    a1, am, a3 = quartiles(a)
    b1, bm, b3 = quartiles(b)
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if (y < x if lower else y > x))
    losses = sum(1 for x, y in pairs if (y > x if lower else y < x))
    iqr = a3 - a1
    bound = spec.get("bound")
    if pairs and wins >= 0.9 * len(pairs) and abs(bm - am) > iqr:
        word = "better"
    elif pairs and losses >= 0.9 * len(pairs) and abs(bm - am) > iqr:
        word = "worse"
    elif bound is None:
        word = "no clear change"
    elif am == 0 or (a3 - a1) / abs(am) > bound or (b3 - b1) / abs(bm or 1) > bound:
        all_better = all((y < x if lower else y > x) for x in a for y in b)
        word = "better (every run)" if all_better else "unresolved"
    elif (bm - am) / abs(am) > bound if lower else (am - bm) / abs(am) > bound:
        word = f"regression beyond bound {bound}"
    else:
        word = f"within bound {bound}"
    ratio = f"{bm / am:.4f}x of base {am:.6g}" if am else f"base {am:.6g}"
    unit = spec.get("unit", "")
    return (
        f"{name:<30} base {am:.6g} [{a1:.6g}, {a3:.6g}] change {bm:.6g} [{b1:.6g}, {b3:.6g}] "
        f"{unit}; {ratio}; wins {wins}/{len(pairs)}: {word}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fairdep end-to-end and per-layer benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, help="append the full record to this JSONL file")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("BASE", "CHANGE"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required unless --compare is given")
    try:
        return run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), args.record)
    except SetupError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
