"""Run one `fairdep` CLI job in this fresh interpreter and time it.

    python3 perfbench/job.py --result OUT.json [--trace] -- ARGV...

Imports `fairdep.cli` from the repository's `src/` (timing the import),
then calls `fairdep.cli.main(ARGV)` with the CLI's own output discarded. The result
file holds the exit code, the wall time of `main`, the import time, the
process's peak resident memory and, with `--trace`, the per-layer
metrics of the tracer. Any exception is caught and reported in the
result instead of a wall time.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def run(argv: list[str], trace: bool) -> dict:
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import fairdep.cli

    result: dict = {"import_s": time.perf_counter() - start}
    if Path(fairdep.cli.__file__).resolve().parent.parent != SRC:
        raise RuntimeError(f"imported fairdep from {fairdep.cli.__file__}, not from {SRC}")
    tracer = None
    if trace:
        sys.path.insert(0, str(HERE))
        from layers import TARGETS
        from tracer import Tracer

        tracer = Tracer(TARGETS)
    try:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            if tracer is None:
                start = time.perf_counter()
                result["rc"] = fairdep.cli.main(argv)
                result["wall_s"] = time.perf_counter() - start
            else:
                with tracer, tracer.span("cli.main"):
                    result["rc"] = fairdep.cli.main(argv)
                result["wall_s"] = tracer.busy("cli.main")
    except Exception:  # the job reports any failure of the program
        result["error"] = traceback.format_exc(limit=8)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None and "error" not in result:
        from layers import layer_metrics

        result["layers"] = layer_metrics(tracer)
        result["absent_spans"] = sorted(tracer.absent)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--result", required=True, type=Path)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    result = run(argv, args.trace)
    args.result.write_text(json.dumps(result) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
