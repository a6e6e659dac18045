"""Rewrite ``digests.json`` from the current program.

    python tests/golden/regenerate.py

Runs ``golden.py`` in one child interpreter, prints every entry whose digest
changed, appeared or vanished, and writes the new digests.  A rewrite is
deliberate: CHANGES.md lists every changed entry and the reason for it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
DIGESTS = HERE / "digests.json"


def compute() -> dict[str, str]:
    """Digests of every manifest call, computed in a fresh interpreter."""
    env = {k: v for k, v in os.environ.items() if k != "BIJUMBLE_OUT_DIR"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(HERE / "golden.py")],
        cwd=REPO, env=env, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"golden.py exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main() -> None:
    new = compute()
    old = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
    for name in sorted(old.keys() | new.keys()):
        if old.get(name) != new.get(name):
            state = "new" if name not in old else "gone" if name not in new else "changed"
            print(f"{state:8} {name}")
    DIGESTS.write_text(json.dumps(new, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
