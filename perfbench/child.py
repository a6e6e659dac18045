"""One benchmark run inside a fresh interpreter; started by ``run.py``.

Imports the CLI from ``<root>/src``, writes the workload's seeded inputs
under ``--dir`` and records the moment it is ready for the first timed
call.  Unless ``--setup-only``, it then runs whole rounds of the workload's
CLI calls until ``--seconds`` have passed, checks every output against the
numpy references, and writes ``<dir>/result.json``.

With ``--trace 1`` rounds alternate between the unmodified program and the
program with spans installed; per-layer figures come from the traced
rounds and the tracing overhead from the difference of the two kinds.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import spans
import workloads


def _parse(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def run_round(cli, ops, round_dir: Path):
    """Run every op once; returns (calls by op name, [(start, end)])."""
    calls, times = {}, []
    for op in ops:
        out = round_dir / op.name
        argv = [str(out) if a == "{out}" else a for a in op.argv]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            start = time.perf_counter()
            rc = cli.run_cli(argv)
            end = time.perf_counter()
        calls[op.name] = workloads.Call(rc, buf.getvalue(), out)
        times.append((start, end))
    return calls, times


def check_rounds(ops, rounds, refs):
    """(attempted, failed, errors): a failed check is an error; a known
    fault only counts as failed."""
    attempted = failed = 0
    errors = []
    for _, calls, _ in rounds:
        for op in ops:
            attempted += 1
            call = calls[op.name]
            try:
                error = op.check(call, refs, calls)
                fault = op.fault(call, refs, calls) if error is None and op.fault else None
            except Exception as exc:  # unparsable output is a wrong output
                error, fault = f"check raised {exc!r} on output {call.stdout!r}", None
            if error:
                errors.append(f"{op.name}: {error}")
            if error or fault:
                failed += 1
    return attempted, failed, errors


def layer_metrics(totals: dict, rounds: int, overhead: float) -> dict:
    """Per-round figures of each layer from ``spans.layer_totals`` over the
    traced rounds."""
    layers = totals["layers"]

    def per_round(name, key="s"):
        return layers.get(name, {}).get(key, 0) / rounds

    def ratio(num, den, scale):
        return num / den * scale if den else 0.0

    quad_s = sum(per_round(f"quads.{k}") for k in ("count_c4", "classify_pairs", "c4_partition"))
    pairs = sum(per_round(f"quads.{k}", "pairs") for k in ("count_c4", "classify_pairs", "c4_partition"))
    m = {
        "graphs.load_graph.s": (per_round("graphs.load_graph"), "s"),
        "graphs.load_graph.edges": (per_round("graphs.load_graph", "edges"), "count"),
        "graphs.bool_matrix.s": (per_round("graphs.bool_matrix"), "s"),
        "graphs.generate.s": (per_round("graphs.generate"), "s"),
        "regularity.sampled.s": (per_round("regularity.sampled"), "s"),
        "regularity.sampled.calls": (per_round("regularity.sampled", "calls"), "count"),
        "regularity.sampled.trials": (per_round("regularity.sampled", "trials"), "count"),
        "regularity.sampled.us_per_trial": (
            ratio(per_round("regularity.sampled"), per_round("regularity.sampled", "trials"), 1e6), "us"),
        "regularity.exact.s": (per_round("regularity.exact"), "s"),
        "regularity.exact.subsets": (per_round("regularity.exact", "subsets"), "count"),
        "regularity.exact.ns_per_subset": (
            ratio(per_round("regularity.exact"), per_round("regularity.exact", "subsets"), 1e9), "ns"),
        "jumbled.spectral.s": (per_round("jumbled.spectral"), "s"),
        "jumbled.spectral.calls": (per_round("jumbled.spectral", "calls"), "count"),
        "jumbled.spectral.iterations": (per_round("jumbled.spectral", "iterations"), "count"),
        "jumbled.spectral.ms_per_iteration": (
            ratio(per_round("jumbled.spectral"), per_round("jumbled.spectral", "iterations"), 1e3), "ms"),
        "jumbled.exact.s": (per_round("jumbled.exact"), "s"),
        "jumbled.exact.subsets": (per_round("jumbled.exact", "subsets"), "count"),
        "jumbled.exact.ns_per_subset": (
            ratio(per_round("jumbled.exact"), per_round("jumbled.exact", "subsets"), 1e9), "ns"),
        "quads.count_c4.s": (per_round("quads.count_c4"), "s"),
        "quads.classify_pairs.s": (per_round("quads.classify_pairs"), "s"),
        "quads.c4_partition.s": (per_round("quads.c4_partition"), "s"),
        "quads.pairs_scanned": (pairs, "count"),
        "quads.ns_per_pair": (ratio(quad_s, pairs, 1e9), "ns"),
        "experiments.inheritance.self_s": (per_round("experiments.inheritance", "self_s"), "s"),
        "experiments.x_evaluated": (per_round("experiments.inheritance", "x"), "count"),
        "experiments.ms_per_x": (
            ratio(per_round("experiments.inheritance"), per_round("experiments.inheritance", "x"), 1e3), "ms"),
        "experiments.bad_pairs.self_s": (per_round("experiments.bad_pairs", "self_s"), "s"),
        "embeddings.count.s": (per_round("embeddings.count"), "s"),
        "embeddings.copies": (per_round("embeddings.count", "copies"), "count"),
        "embeddings.optialpha.s": (per_round("embeddings.optialpha"), "s"),
        "patterns.optimize_order.s": (per_round("patterns.optimize_order"), "s"),
        "reports.write_report.s": (per_round("reports.write_report"), "s"),
        "reports.written": (per_round("reports.write_report", "written"), "count"),
        "cli.self_s": (per_round("cli", "self_s"), "s"),
        "trace.uncovered_s": (totals["uncovered_s"] / rounds, "s"),
        "trace.overhead_s": (overhead, "s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path.insert(0, str(Path(args.root) / "src"))
    from bijumble import cli

    run_dir = Path(args.dir)
    inputs = run_dir / "inputs"
    inputs.mkdir(parents=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, inputs)
    ready = time.perf_counter()
    if args.setup_only:
        (run_dir / "result.json").write_text(json.dumps({"ready": ready}), encoding="utf-8")
        return 0

    recorder = spans.Recorder() if args.trace else None
    rounds = []  # (traced, calls, times)
    deadline = ready + args.seconds
    while True:
        traced = recorder is not None and len(rounds) % 2 == 1
        if traced:
            recorder.install()
        try:
            calls, times = run_round(cli, workload.ops, run_dir / f"round-{len(rounds)}")
        finally:
            if traced:
                recorder.uninstall()
        rounds.append((traced, calls, times))
        if len(rounds) == 1:
            # set-up plus one round: later rounds repeat the same work, and
            # how many fit in the run depends on the machine's speed
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if time.perf_counter() >= deadline and (recorder is None or len(rounds) >= 2):
            break

    attempted, failed, errors = check_rounds(workload.ops, rounds, workload.references())
    # Each call's median over rounds: a machine-wide slowdown during one
    # call then moves only that call's samples, not a whole round's sum.
    durations = {True: [], False: []}
    for traced, _, times in rounds:
        durations[traced].append([end - start for start, end in times])
    typical = {k: [statistics.median(col) for col in zip(*v)] for k, v in durations.items() if v}
    if recorder is None:
        metrics = {
            "wall_s": {"value": sum(typical[False]), "unit": "s"},
            "max_call_s": {"value": max(typical[False]), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        }
    else:
        traced_calls = [t for traced, _, times in rounds if traced for t in times]
        overhead = sum(typical[True]) - sum(typical[False])
        totals = spans.layer_totals(recorder.spans, traced_calls)
        metrics = layer_metrics(totals, len(durations[True]), overhead)
    result = {
        "ready": ready,
        "call_times": [[end - start for start, end in times] for _, _, times in rounds],
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "metrics": metrics,
    }
    (run_dir / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
