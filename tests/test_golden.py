"""Committed report goldens: every call of ``tests/golden/manifest.json``
must print and write what it did when ``digests.json`` was last
regenerated (``wall_clock_s`` masked).  See ``tests/golden/golden.py``."""

import importlib.util
import json
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"golden_{name}", GOLDEN / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reports_match_goldens():
    got = _load("regenerate").compute()
    want = json.loads((GOLDEN / "digests.json").read_text(encoding="utf-8"))
    assert sorted(got) == sorted(want)
    changed = sorted(name for name in want if got[name] != want[name])
    assert not changed, f"report digests changed: {changed}"
    # the same inheritance runs, once as flags and once as a plan file
    assert got["inherit/one_sided_flags"] == got["inherit/one_sided_plan"]
    assert got["inherit/d1_flags"] == got["inherit/d1_plan"]
