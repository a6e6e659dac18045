"""Spans around the public functions of each bijumble module, recorded from
outside the program.

``install()`` replaces module attributes (for example
``regularity.sampled_regularity`` or ``cli.write_report``) with wrappers
that record one span per call: name, start, end, parent and work counts.
Counts are derived from each call's inputs and outputs, never from
counters inside the program.  ``uninstall()`` puts the originals back, so
untraced rounds run the unmodified program.

A module that did ``from .x import f`` holds its own binding of ``f``, so
every binding a caller looks up is wrapped, not just the defining module's.
"""

from __future__ import annotations

import importlib
import inspect
import math
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: "Span | None" = None
    counts: dict = field(default_factory=dict)


def _pairs(a, out):
    n = len(a["pair"].left)
    return {"pairs": n * (n - 1) // 2}


def _exact_regularity_subsets(a, out):
    pair = a["pair"]
    n = min(len(pair.left), len(pair.right))
    smin = max(1, math.ceil(a["epsilon"] * n - 1e-12))
    return {"subsets": sum(math.comb(n, s) for s in range(smin, n + 1))}


def _exact_jumble_subsets(a, out):
    pair = a["pair"]
    return {"subsets": (1 << min(len(pair.left), len(pair.right))) - 1}


# (module, attribute, span name, work counts from (bound arguments, result))
TARGETS = [
    ("cli", "load_graph", "graphs.load_graph", lambda a, out: {"edges": out.edge_count()}),
    ("jumbled", "bool_matrix", "graphs.bool_matrix", None),
    ("regularity", "bool_matrix", "graphs.bool_matrix", None),
    ("experiments", "bool_matrix", "graphs.bool_matrix", None),
    ("experiments", "gen_tripartite", "graphs.generate", None),
    ("experiments", "sparsify", "graphs.generate", None),
    ("experiments", "plant_irregular_block", "graphs.generate", None),
    ("regularity", "sampled_regularity", "regularity.sampled", lambda a, out: {"trials": a["trials"]}),
    ("quads", "sampled_regularity", "regularity.sampled", lambda a, out: {"trials": a["trials"]}),
    ("regularity", "exact_regularity", "regularity.exact", _exact_regularity_subsets),
    ("quads", "exact_regularity", "regularity.exact", _exact_regularity_subsets),
    ("jumbled", "spectral_jumble_bound", "jumbled.spectral", lambda a, out: {"iterations": out.iterations}),
    ("experiments", "spectral_jumble_bound", "jumbled.spectral", lambda a, out: {"iterations": out.iterations}),
    ("jumbled", "exact_jumble_gamma", "jumbled.exact", _exact_jumble_subsets),
    ("quads", "count_c4", "quads.count_c4", _pairs),
    ("quads", "classify_pairs", "quads.classify_pairs", _pairs),
    ("quads", "c4_partition_by_class", "quads.c4_partition", _pairs),
    ("experiments", "one_sided_experiment", "experiments.inheritance", lambda a, out: {"x": len(out.per_x)}),
    ("experiments", "two_sided_experiment", "experiments.inheritance", lambda a, out: {"x": len(out.per_x)}),
    ("experiments", "bad_pair_bounds_audit", "experiments.bad_pairs", None),
    ("embeddings", "count_partite_copies", "embeddings.count", lambda a, out: {"copies": out}),
    ("embeddings", "optialpha_check", "embeddings.optialpha", None),
    ("patterns", "optimize_order", "patterns.optimize_order", None),
    ("cli", "write_report", "reports.write_report", lambda a, out: {"written": 1}),
] + [
    ("cli", name, "cli", None)
    for name in (
        "_cmd_params", "_cmd_certify", "_cmd_regularity", "_cmd_census", "_cmd_count",
        "_cmd_suffix", "_cmd_optialpha", "_cmd_inherit", "_cmd_audit",
    )
]


class Recorder:
    """Collects spans in memory; parents follow the calling thread's stack.

    A span opened on a worker thread with nothing open on that thread takes
    as parent the span open on the thread that installed the recorder, which
    is the call waiting on the pool.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._main_ident = threading.get_ident()
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name, work):
        recorder = self
        signature = inspect.signature(fn) if work is not None else None

        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            parent = stack[-1] if stack else (recorder._main_stack[-1] if recorder._main_stack else None)
            span = Span(name, time.perf_counter(), parent=parent)
            stack.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                recorder.spans.append(span)
            if work is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts = work(bound.arguments, out)
            return out

        return wrapper

    def install(self):
        for mod_name, attr, name, work in TARGETS:
            module = importlib.import_module(f"bijumble.{mod_name}")
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, work))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_totals(spans: list[Span], calls: list[tuple[float, float]]) -> dict:
    """Per-layer sums over ``spans``: ``s`` is the wall time during which
    any span of the layer was open (spans on pool threads overlap), and
    ``self_s`` the spans' self time; plus calls, work counts and the part
    of the timed ``calls`` that no span covers."""
    children: dict[int, list[Span]] = {}
    intervals: dict[str, list] = {}
    for s in spans:
        intervals.setdefault(s.name, []).append((s.start, s.end))
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append(s)
    totals = {
        name: {"s": _covered(ivs, -math.inf, math.inf), "self_s": 0.0, "calls": 0}
        for name, ivs in intervals.items()
    }
    for s in spans:
        t = totals[s.name]
        kids = children.get(id(s), [])
        t["self_s"] += (s.end - s.start) - _covered([(k.start, k.end) for k in kids], s.start, s.end)
        t["calls"] += 1
        for key, val in s.counts.items():
            t[key] = t.get(key, 0) + val
    roots = [(s.start, s.end) for s in spans if s.parent is None]
    uncovered = sum((hi - lo) - _covered(roots, lo, hi) for lo, hi in calls)
    return {"layers": totals, "uncovered_s": uncovered}
