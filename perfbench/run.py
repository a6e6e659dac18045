"""Benchmark of the bijumble CLI, run from the root of a source checkout.

    python3 perfbench/run.py --workload inherit|census|exact --seed N \\
        --seconds S --trace 0|1

Each run starts fresh interpreters (BLAS pinned to one thread): a few that
only set up, to time set-up, and one that sets up, runs whole rounds of the
workload's CLI calls for S seconds, and checks every output.  The last line
of stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  Run files go to ``.perfbench_runs/`` in the
checkout and are removed afterwards.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 4  # set-up-only children; with the measuring child, 5 samples
CHILD_TIMEOUT_S = 150


def _child(root: Path, run_dir: Path, args, setup_only: bool) -> dict:
    """Start one child, wait for it, and return its result with ``setup_s``
    measured from just before the start to its first timed call."""
    cmd = [
        sys.executable, str(HERE / "child.py"), "--root", str(root), "--dir", str(run_dir),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(
        os.environ,
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        # every child compiles the sources, whether or not a cache exists
        PYTHONDONTWRITEBYTECODE="1",
    )
    started = time.perf_counter()
    proc = subprocess.run(
        cmd, cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child exited with {proc.returncode}:\n{proc.stderr}")
    result = json.loads((run_dir / "result.json").read_text(encoding="utf-8"))
    result["setup_s"] = result["ready"] - started
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "bijumble" / "cli.py").is_file():
        print(f"error: {root} is not a bijumble checkout (no src/bijumble/cli.py)", file=sys.stderr)
        return 2
    run_dir = root / ".perfbench_runs" / f"{args.workload}-{args.seed}-{os.getpid()}-{time.time_ns()}"
    try:
        setups = []
        if not args.trace:
            for i in range(SETUP_PROBES):
                setups.append(_child(root, run_dir / f"setup-{i}", args, True)["setup_s"])
        result = _child(root, run_dir / "run", args, False)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    metrics = result["metrics"]
    if not args.trace:
        setups.append(result["setup_s"])
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **metrics}
    for error in result["errors"]:
        print(f"incorrect: {error}", file=sys.stderr)
    walls = " ".join(f"{sum(times):.3f}" for times in result["call_times"])
    print(f"workload {args.workload} seed {args.seed}: {len(result['call_times'])} rounds of {walls} s")
    for name, metric in metrics.items():
        print(f"  {name:<36} {metric['value']:.6g} {metric['unit']}")
    print(f"  operations attempted {result['attempted']}, failed {result['failed']}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
