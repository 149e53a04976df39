"""Benchmark of lidartrack: desk training, tracking at 128 and 1024 points,
and dataset I/O, with a separate traced run for per-layer metrics.

    python3 perfbench/run.py --workload track-128 --seed 1 --seconds 16 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 16

Run from the repository root; the package is imported from ``src/``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before
it records the run's context (machine, versions, checks, failures).  The
exit status is 0 only when every check passed.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NPROC = os.cpu_count() or 1
BLAS_THREADS = 1  # one BLAS thread: small matrices, and steadier on a shared machine
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

WORKLOADS = ("train", "track-128", "track-1024", "dataset")
SETUP_REPEATS = 3
RESULTS = HERE / "results"
WORK = HERE / ".work"


def _import_program():
    src = ROOT / "src"
    if not (src / "lidartrack" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program to measure: {src / 'lidartrack'} is missing")
    sys.path.insert(0, str(src))
    import lidartrack

    if Path(lidartrack.__file__).resolve().parent != (src / "lidartrack").resolve():
        sys.exit(f"perfbench: imported lidartrack from {lidartrack.__file__}, not from {src}")


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _context(args) -> dict:
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": NPROC,
        "blas_threads": BLAS_THREADS,
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "python": platform.python_version(),
        "git_sha": _git_sha(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return _run_all(args)
    _import_program()
    from bench import run_workload  # noqa: E402  (needs the program on sys.path)

    context = _context(args)
    result, details = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), WORK)
    context.update(details)
    RESULTS.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{tag}.json").write_text(json.dumps({"context": context, "result": result}, indent=1) + "\n")
    for failure in context["failures"]:
        print(f"failure: {failure['where']}: {failure['type']}: {failure['message']}", file=sys.stderr)
    for check in context["checks"]:
        if not check["ok"]:
            print(f"check failed: {check['check']}: {check['detail']}", file=sys.stderr)
    print(json.dumps({"context": context}, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _run_all(args) -> int:
    """Each workload in its own process, one after another."""
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print(f"{workload}: {lines[-1] if lines else 'no result'}")
        status = status or proc.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
