"""Audit records, run configuration, and persistent reports.

Every lemma audit produces one AuditReport tying the measured quantity and
the bound to the full hypothesis evidence.  In strict mode a report may say
pass or fail only when every hypothesis record is both satisfied and
certified (exact enumeration or a sound spectral bound); anything less is
reported as hypotheses-not-met.  Relaxed mode records the same evidence but
verdicts against user-supplied slack.

``make_report`` is the one place that compares an audit's measured value
with its bound, through ``_numeric`` and by ``bound_kind``: "lower" passes
when measured >= bound, "upper" when measured <= bound, "window" when
measured lies in [lo, hi], each up to the recorded tolerance, and "none"
always passes.  The margin is positive on the passing side: measured -
bound (lower), bound - measured (upper), the smaller distance to either end
of the window, and None for "none".

Reports serialise to one JSON document each (``to_record``'s key order,
UTF-8) plus a run-level index.csv row; re-serialising a parsed report is
byte-identical except for the wall-clock field.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from ._numeric import ABS_TOL, REL_TOL, within
from .errors import ParameterError


@dataclass(frozen=True)
class HypothesisRecord:
    """One checked precondition: its numeric outcome and evidence quality."""

    name: str
    satisfied: bool
    certified: bool
    detail: dict = field(default_factory=dict)

    def passes_strict(self) -> bool:
        return self.satisfied and self.certified

    def to_record(self) -> dict:
        return {
            "name": self.name,
            "satisfied": self.satisfied,
            "certified": self.certified,
            "detail": _jsonable(self.detail),
        }


@dataclass(frozen=True)
class AuditReport:
    lemma: str
    mode: str  # "strict" | "relaxed"
    verdict: str  # "pass" | "fail" | "hypotheses-not-met"
    measured: float | int | None
    bound: float | list | None
    bound_kind: str  # "upper" | "lower" | "window" | "none"
    hypotheses: tuple[HypothesisRecord, ...]
    parameters: dict
    seed: int
    margin: float | None = None
    wall_clock_s: float = 0.0
    toolkit_version: str = __version__
    tolerance_rel: float = REL_TOL
    tolerance_abs: float = ABS_TOL

    def to_record(self) -> dict:
        return {
            "lemma": self.lemma,
            "mode": self.mode,
            "verdict": self.verdict,
            "measured": self.measured,
            "bound": self.bound,
            "bound_kind": self.bound_kind,
            "margin": self.margin,
            "parameters": _jsonable(self.parameters),
            "hypotheses": [h.to_record() for h in self.hypotheses],
            "seed": self.seed,
            "tolerance_rel": self.tolerance_rel,
            "tolerance_abs": self.tolerance_abs,
            "toolkit_version": self.toolkit_version,
            "wall_clock_s": self.wall_clock_s,
        }


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "to_record"):
        return _jsonable(value.to_record())
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return str(value)


def verdict_for(mode: str, hypotheses, comparison_ok: bool) -> str:
    """Apply the strict/relaxed verdict rule.

    Strict mode never says pass or fail on uncertified or unsatisfied
    hypotheses; relaxed mode verdicts the comparison and leaves the evidence
    on record.
    """
    if mode not in ("strict", "relaxed"):
        raise ParameterError(f"unknown mode {mode!r}")
    if mode == "strict" and not all(h.passes_strict() for h in hypotheses):
        return "hypotheses-not-met"
    return "pass" if comparison_ok else "fail"


def _compare(measured, bound, bound_kind: str) -> tuple[bool, float | None]:
    """(passes, margin) of ``measured`` against ``bound`` of ``bound_kind``;
    a NaN bound is a ParameterError, since every comparison with it fails."""
    if bound_kind == "none":
        return True, None
    ends = {"lower": (bound, math.inf), "upper": (-math.inf, bound), "window": bound}
    if bound_kind not in ends:
        raise ParameterError(f"unknown bound kind {bound_kind!r}")
    lo, hi = ends[bound_kind]  # a one-sided bound is a window with one infinite end
    if math.isnan(lo) or math.isnan(hi):
        raise ParameterError(f"bound {bound!r} is not a number")
    return within(measured, lo, hi), min(measured - lo, hi - measured)


def make_report(
    lemma: str,
    mode: str,
    hypotheses,
    measured,
    bound,
    bound_kind: str,
    parameters: dict,
    seed: int,
    started: float | None = None,
) -> AuditReport:
    ok, margin = _compare(measured, bound, bound_kind)
    wall = time.perf_counter() - started if started is not None else 0.0
    return AuditReport(
        lemma=lemma,
        mode=mode,
        verdict=verdict_for(mode, hypotheses, ok),
        measured=measured,
        bound=bound,
        bound_kind=bound_kind,
        hypotheses=tuple(hypotheses),
        parameters=parameters,
        seed=seed,
        margin=margin,
        wall_clock_s=wall,
    )


def serialize_report(report: AuditReport) -> str:
    return json.dumps(report.to_record(), indent=2, ensure_ascii=False) + "\n"


def write_report(report: AuditReport, out_dir) -> Path:
    """Write one JSON document and append the run-level index.csv row.

    Filename: <lemma>-<seed>-<counter>.json with counter one past the highest
    already present for that lemma and seed, so a rerun of an identical plan
    reproduces everything but the counter and wall-clock.  The file is
    created exclusively: a writer that loses a race for a counter takes the
    next one, and no report is ever overwritten.
    """
    text = serialize_report(report)  # a report that cannot be serialized leaves no file
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    prefix = f"{report.lemma}-{report.seed}-"
    taken = (re.fullmatch(re.escape(prefix) + r"(\d+)\.json", name) for name in os.listdir(out))
    counter = max((int(m[1]) + 1 for m in taken if m), default=0)
    while True:
        path = out / f"{prefix}{counter:04d}.json"
        try:
            with path.open("x", encoding="utf-8") as fh:
                fh.write(text)
            break
        except FileExistsError:
            counter += 1
    # one whole header: the first writer to link a finished header file in
    # place wins; each row is then appended in one write
    index = out / "index.csv"
    if not index.exists():
        header = out / f".index-{os.getpid()}-{threading.get_ident()}.csv"
        header.write_text("lemma,mode,verdict,measured,bound,seed\r\n", encoding="utf-8", newline="")
        try:
            os.link(header, index)
        except FileExistsError:
            pass
        finally:
            header.unlink()
    with index.open("a", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(
            [report.lemma, report.mode, report.verdict, report.measured, report.bound, report.seed]
        )
    return path


def parse_key_values(text: str, field_types: dict, what: str) -> dict:
    """Parse flat ``key = value`` lines, skipping blanks and ``#`` comments.

    Each value goes through ``field_types[key]``; a line without ``=``, an
    unknown key or a value that fails to convert is a ParameterError naming
    the ``what`` line, the key and the value.
    """
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParameterError(f"{what} line {lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in field_types:
            raise ParameterError(f"{what} line {lineno}: unknown key {key!r}")
        convert = field_types[key]
        try:
            values[key] = convert(val)
        except ValueError:
            raise ParameterError(
                f"{what} line {lineno}: {key} = {val!r} is not a valid {convert.__name__}"
            ) from None
    return values


@dataclass
class RunConfig:
    """Global toolkit configuration; the seed is mandatory.

    Only the output directory may come from the environment
    (BIJUMBLE_OUT_DIR, which the CLI applies ahead of ``out_dir``); every
    other parameter flows through flags or the flat ``key = value`` config
    file.
    """

    seed: int
    workers: int = 1
    out_dir: str = "reports"

    def __post_init__(self):
        if self.seed < 0:
            raise ParameterError(f"seed {self.seed} must be non-negative")
        if self.workers < 1:
            raise ParameterError("workers must be >= 1")

    _FIELD_TYPES = {"seed": int, "workers": int, "out_dir": str}

    @classmethod
    def from_text(cls, text: str) -> "RunConfig":
        values = parse_key_values(text, cls._FIELD_TYPES, "config")
        if "seed" not in values:
            raise ParameterError("config must provide a seed")
        return cls(**values)
