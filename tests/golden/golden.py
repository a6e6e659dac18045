"""Report goldens: run every call of ``manifest.json`` through the CLI and
digest what it printed and wrote.

    PYTHONPATH=src python tests/golden/golden.py

prints one JSON object, call name -> SHA-256 hex digest.  A call's digest
covers its exit code, its stdout and every file in its report directory
(sorted by name), with the value of ``wall_clock_s`` masked.  Reports are
hashed as written, so a changed digit, verdict or key order changes the
digest.

Manifest argv lists hold two placeholders: ``{inputs}``, the directory of
the regenerated inputs, and ``{out}``, a fresh report directory per call.
The inputs come from seeds: the benchmark workloads of ``perfbench/
workloads.py`` at ``WORKLOAD_SEEDS`` (their argv must equal the manifest's
entries of the same name), plus the small instances of ``write_small``.
The digests hold for any BLAS thread count.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
sys.path.insert(0, str(REPO / "perfbench"))  # workloads.py does `import oracles`

import workloads  # noqa: E402

MANIFEST = HERE / "manifest.json"
DIGESTS = HERE / "digests.json"
WORKLOAD_SEEDS = (4242, 977)
SMALL_SEED = 1606
WALL_CLOCK = re.compile(rb'("wall_clock_s": )[^,\n]*')


def load_manifest() -> list[dict]:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def workload_argv(root: Path) -> dict[str, list[str]]:
    """Write the benchmark inputs under ``root`` and return each op's argv,
    keyed ``<workload>-<seed>/<op>``, with ``root`` written as ``{inputs}``."""
    out = {}
    for name, build in workloads.WORKLOADS.items():
        for seed in WORKLOAD_SEEDS:
            group = f"{name}-{seed}"
            (root / group).mkdir()
            for op in build(seed, root / group).ops:
                out[f"{group}/{op.name}"] = [a.replace(str(root), "{inputs}") for a in op.argv]
    return out


def write_small(root: Path) -> None:
    """Small seeded instances that reach every audit path in both modes."""
    small = root / "small"
    small.mkdir()
    rng = np.random.default_rng(SMALL_SEED)
    for stem, shape, p in (
        ("pair", (40, 40), 0.3),
        ("dense", (24, 24), 0.7),
        ("sparse", (24, 24), 0.1),
        ("jumble", (8, 12), 0.4),
    ):
        workloads.write_pair(small / f"{stem}.el", rng.random(shape) < p)
    workloads.write_pattern(small / "k3.pat", 3, [(0, 1), (0, 2), (1, 2)])
    workloads.write_pattern(small / "k4.pat", 4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    workloads.write_pattern(small / "book3.pat", 7, workloads._book(3))
    workloads.write_pattern(small / "petersen.pat", 10, workloads.PETERSEN)
    workloads.write_partite(small, "tri", [20, 20, 20], 0.3, rng, "k3.pat")
    workloads.write_partite(small, "k4", [10, 10, 10, 10], 0.4, rng, "k4.pat")
    plans = {
        "one": "lemma = one_sided\nnx = 30\nny = 600\nnz = 600\np = 0.3\nd = 0.5\n"
        "eps_prime = 0.3\ntrials = 6\nseed = 11\n",
        "two": "lemma = two_sided\nnx = 20\nny = 700\nnz = 700\np = 0.3\nd = 0.5\n"
        "eps_prime = 0.3\neps = 0.2\ntrials = 5\nseed = 12\n",
        "exact": "lemma = one_sided\nnx = 8\nny = 10\nnz = 10\np = 0.5\nd = 0.5\n"
        "eps_prime = 0.4\nmethod = exact\nseed = 13\n",
        "d1": "lemma = one_sided\nnx = 20\nny = 80\nnz = 80\np = 0.3\nd = 1.0\n"
        "eps_prime = 0.3\ntrials = 4\nseed = 14\n",
    }
    for stem, text in plans.items():
        (small / f"{stem}.plan").write_text(text, encoding="utf-8")
    (small / "run.cfg").write_text("seed = 21\n", encoding="utf-8")


def digest(rc: int, stdout: str, out_dir: Path) -> str:
    h = hashlib.sha256()
    h.update(f"rc={rc}\n".encode())
    h.update(stdout.encode("utf-8"))
    for path in sorted(out_dir.glob("*")) if out_dir.exists() else ():
        h.update(f"\n--- {path.name}\n".encode())
        h.update(WALL_CLOCK.sub(rb'\1"*"', path.read_bytes()))
    return h.hexdigest()


def run_manifest(manifest: list[dict], root: Path) -> dict[str, str]:
    from bijumble.cli import run_cli

    expected = workload_argv(root)
    write_small(root)
    digests = {}
    for i, entry in enumerate(manifest):
        name, argv = entry["name"], entry["argv"]
        if name in expected and expected.pop(name) != argv:
            raise SystemExit(f"{name}: manifest argv differs from perfbench/workloads.py")
        out_dir = root / "out" / f"{i:03d}"
        argv = [a.replace("{inputs}", str(root)).replace("{out}", str(out_dir)) for a in argv]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            rc = run_cli(argv)
        digests[name] = digest(rc, buf.getvalue().replace(str(root), "{inputs}"), out_dir)
    if expected:
        raise SystemExit(f"benchmark ops missing from the manifest: {sorted(expected)}")
    return digests


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="bijumble-golden-") as tmp:
        digests = run_manifest(load_manifest(), Path(tmp))
    print(json.dumps(digests, indent=1))


if __name__ == "__main__":
    main()
