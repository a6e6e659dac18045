"""Command-line surface.

Subcommands: params | certify | regularity | census | count | suffix |
optialpha | inherit | audit.  Audit-like commands write one JSON report per
audit into the output directory (plus an index.csv row) and print a human
summary; exit codes are 0 = all pass, 1 = any fail, 2 = usage/parse error,
3 = capacity error, 4 = I/O failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from . import embeddings, experiments, jumbled, patterns, quads, regularity
from .errors import BijumbleError, CapacityError, ParameterError, ParseError
from .graphs import BipartitePairView, VertexSet, load_graph
from .reports import AuditReport, HypothesisRecord, RunConfig, make_report, write_report

ENV_OUT_DIR = "BIJUMBLE_OUT_DIR"


# -- argument types: argparse turns a ValueError here into a usage error --------

def parse_vertex_spec(spec: str) -> VertexSet:
    """Parse '0..5', '0,2,5' or combinations like '0..3,7' (ranges inclusive)."""
    out = []
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ".." in chunk:
            lo, _, hi = chunk.partition("..")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(chunk))
    if not out:
        raise ParameterError(f"empty vertex spec {spec!r}")
    return VertexSet.of(out)


def parse_w_set(spec: str) -> tuple[int, VertexSet]:
    """Parse 'vertex:spec', a pattern vertex and its window set."""
    head, _, payload = spec.partition(":")
    return int(head), parse_vertex_spec(payload)


def parse_plant(spec: str) -> tuple[float, float, int]:
    """Parse 'fraction:boost:seed'; ``make_system`` checks the ranges."""
    fraction, boost, seed = spec.split(":")
    return float(fraction), float(boost), int(seed)


def parse_float_list(spec: str) -> list[float]:
    return [float(tok) for tok in spec.split(",")]


def _pair_from_args(args) -> BipartitePairView:
    if None in (args.graph, args.left, args.right):
        raise ParameterError("this command needs --graph, --left and --right")
    return BipartitePairView(load_graph(args.graph), args.left, args.right)


def _load_pattern(path) -> patterns.Pattern:
    with open(path, "r", encoding="utf-8") as fh:
        return patterns.parse_pattern(fh.read())


def _load_instance(path) -> embeddings.PartiteInstance:
    """Instance file: 'pattern: <path>', 'host: <path>', one 'part i: v ...'
    line per pattern vertex; paths are relative to the instance file."""
    base = Path(path).parent
    pattern = host = None
    parts: dict[int, VertexSet] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("pattern:"):
                pattern = _load_pattern(base / line[len("pattern:"):].strip())
            elif line.startswith("host:"):
                host = load_graph(base / line[len("host:"):].strip())
            elif line.startswith("part"):
                head, _, payload = line.partition(":")
                try:
                    parts[int(head[len("part"):])] = VertexSet.of(int(tok) for tok in payload.split())
                except ValueError:
                    raise ParseError(f"malformed part line {line!r}", line=lineno) from None
            else:
                raise ParseError(f"unrecognised instance line {line!r}", line=lineno)
    if pattern is None or host is None:
        raise ParseError("instance file needs 'pattern:' and 'host:' lines")
    missing = sorted(set(range(pattern.graph.vertex_count)) - parts.keys())
    if missing:
        raise ParseError(f"instance file has no 'part' line for pattern vertices {missing}")
    ordered = tuple(parts[i] for i in range(pattern.graph.vertex_count))
    return embeddings.PartiteInstance(pattern, host, ordered)


def _print_exponent_table(tag: str, report: patterns.ExponentReport):
    print(f"[{tag}]")
    print(f"  order            {' '.join(str(v) for v in report.order)}")
    print(f"  k_reg            {report.k_reg}")
    print(f"  d_tilde          {report.d_tilde}")
    print(f"  one_sided        {report.one_sided_exponent}")
    print(f"  two_sided        {report.two_sided_exponent}")
    print(f"  max_degree       {report.delta}")
    print(f"  degeneracy       {report.degeneracy}")
    lg = report.line_graph_two_sided
    print(f"  line_graph_2s    {lg if lg is not None else 'n/a'}")


def _emit(report: AuditReport, out_dir) -> int:
    """Print the report's summary line, write it when ``out_dir`` is set,
    and return its exit code: 1 for a failed verdict, else 0."""
    line = (
        f"{report.lemma:<24} mode={report.mode:<7} verdict={report.verdict:<18} "
        f"measured={report.measured} bound={report.bound}"
    )
    print(line)
    if out_dir is not None:
        write_report(report, out_dir)
    return 1 if report.verdict == "fail" else 0


def _cmd_params(args) -> int:
    pattern = _load_pattern(args.pattern)
    _print_exponent_table("file order", patterns.exponent_report(pattern))
    if args.strategy:
        seq, report = patterns.optimize_order(pattern.graph, args.objective, args.strategy)
        _print_exponent_table(f"optimised ({args.objective}, {args.strategy})", report)
    return 0


def _cmd_certify(args) -> int:
    pair = _pair_from_args(args)
    if args.method == "exact":
        cert = jumbled.exact_jumble_gamma(pair, args.p)
    elif args.method == "spectral":
        cert = jumbled.spectral_jumble_bound(pair, args.p)
    else:
        found = jumbled.search_jumble_violation(pair, args.p, args.gamma, args.trials, args.seed)
        if found is None:
            print(f"search found no subset pair with discrepancy above gamma={args.gamma}")
            return 0
        cert = found
    print(f"method={cert.method} gamma={cert.gamma:.12g} sound_upper={cert.sound_upper}")
    if cert.witness:
        print(f"witness left  = {list(cert.witness[0].indices)}")
        print(f"witness right = {list(cert.witness[1].indices)}")
    if args.out:
        report = make_report(
            "jumble_certificate",
            "relaxed",
            [],
            measured=cert.gamma,
            bound=None,
            bound_kind="none",
            parameters=cert.to_record(),
            seed=args.seed,
        )
        return _emit(report, args.out)
    return 0


def _cmd_regularity(args) -> int:
    pair = _pair_from_args(args)
    verdict = regularity._verdict(pair, args.epsilon, args.p, args.method, args.trials, args.seed)
    if args.d is not None:
        verdict = regularity.apply_density_floor(verdict, args.d)
    print(
        f"method={verdict.method} regular={verdict.regular} deviation={verdict.deviation:.12g} "
        f"base_p_density={verdict.base_p_density:.12g}"
        + (f" reason={verdict.failure_reason}" if verdict.failure_reason else "")
    )
    if verdict.worst_witness:
        print(f"worst witness sizes: {len(verdict.worst_witness[0])} x {len(verdict.worst_witness[1])}")
    return 0


def _cmd_census(args) -> int:
    if args.q is None and (args.p is not None or args.c_prime is not None):
        raise ParameterError("--p and --c-prime need --q")
    if (args.p is None) != (args.c_prime is None):
        raise ParameterError("--p and --c-prime must be given together")
    pair = _pair_from_args(args)
    if args.q is None:
        if args.c4:
            print(quads.count_c4(pair))
    else:
        census, parts = quads.class_census(pair, args.q, args.delta, p=args.p, c_prime=args.c_prime)
        if args.c4:
            print(parts.total)
        print(f"typical={census.typical} bad={census.bad} heavy={census.heavy}")
        print(
            f"c4 total={parts.total} heavy={parts.through_heavy} bad={parts.through_bad} "
            f"typical={parts.through_typical}"
            + (f" heavy_bound={parts.heavy_bound:.6g}" if parts.heavy_bound is not None else "")
        )
    return 0


def _cmd_count(args) -> int:
    if args.gamma is not None and args.p is None:
        raise ParameterError("--gamma needs --p")
    instance = _load_instance(args.instance)
    count = embeddings.count_partite_copies(instance)
    print(f"count={count}")
    if args.p is not None:
        dh, pred = embeddings.predicted_count(instance, args.p)
        print(f"density_product={dh:.12g} prediction={pred:.12g}")
        if args.gamma is not None:
            report = embeddings.counting_window_audit(
                instance, args.p, args.gamma, side=args.side, seed=args.seed
            )
            return _emit(report, args.out)
    return 0


def _cmd_suffix(args) -> int:
    if (args.p is None) != (args.eps is None):
        raise ParameterError("--p and --eps must be given together")
    instance = _load_instance(args.instance)
    suffix = embeddings.SuffixInstance(instance, args.x, dict(args.w or []))
    print(f"suffix_count={embeddings.suffix_count(suffix)}")
    if args.p is not None:
        report = embeddings.suffix_bound_audit(suffix, args.p, args.eps, mode=args.mode, seed=args.seed)
        return _emit(report, args.out)
    return 0


def _cmd_optialpha(args) -> int:
    result = embeddings.optialpha_check(args.p, args.b)
    status = "PASS" if result.holds else "FAIL"
    print(
        f"sum={result.lhs_sum:.12g} bound={result.bound:.12g} {status} "
        f"(P={result.cap_p}, C={result.c_exponent}, p<=1/10: {result.p_hypothesis_met})"
    )
    return 0 if result.holds else 1


def _cmd_inherit(args) -> int:
    if args.plan:
        keys = [*experiments.ExperimentPlan._FIELD_TYPES, "plant", "config"]  # a config holds a seed
        if flags := ["--" + k.replace("_", "-") for k in keys if getattr(args, k) is not None]:
            raise ParameterError(f"{' '.join(flags)} cannot be combined with --plan; pass the plan as flags")
        with open(args.plan, "r", encoding="utf-8") as fh:
            plan = experiments.ExperimentPlan.from_text(fh.read())
    else:
        plan = experiments.ExperimentPlan.from_values(vars(args))
    if math.isnan(args.ceiling):  # make_report would refuse it only after the run
        raise ParameterError(f"ceiling {args.ceiling!r} is not a number")
    outcome = plan.run(args.workers, args.plant)
    print(
        f"{plan.lemma}: exceptional {outcome.exceptional_count}/{len(outcome.per_x)} "
        f"fraction={outcome.exceptional_fraction:.4f} (statement threshold eps'|X| = "
        f"{outcome.threshold_reference:.1f})"
    )
    report = make_report(
        f"{plan.lemma}_inheritance",
        args.mode,
        list(outcome.evidence),
        measured=outcome.exceptional_fraction,
        bound=args.ceiling,
        bound_kind="upper",
        parameters=outcome.parameters,
        seed=plan.seed,
    )
    return _emit(report, args.out)


def _cmd_audit(args) -> int:
    if args.lemma in ("many_bad_pairs", "few_bad_pairs"):
        system = experiments.make_system(
            args.nx, args.ny, args.nz, args.p, args.d, args.seed, args.plant
        )
        report = experiments.bad_pair_bounds_audit(
            system,
            args.d,
            args.eps_star,
            args.delta,
            args.eps,
            direction="many" if args.lemma == "many_bad_pairs" else "few",
            p=args.p,
            mode=args.mode,
            relaxed_coeff=args.coeff,
            seed=args.seed,
        )
    elif args.lemma == "c4_dense_irregular":
        pair = _pair_from_args(args)
        report = quads.c4_dense_irregular_audit(
            pair,
            args.eps,
            mode=args.mode,
            dense_slack=args.dense_slack,
            irregular_slack=args.irregular_slack,
            seed=args.seed,
        )
    elif args.lemma == "c4_regular_bijumbled":
        pair = _pair_from_args(args)
        report = quads.c4_regular_bijumbled_audit(
            pair, args.eps, args.d, args.p, c=args.c, mode=args.mode, seed=args.seed
        )
    else:  # cs_defect
        if not args.values or args.a is None or args.mu is None:
            raise ParameterError("cs_defect needs --values, --a, --mu (and --delta)")
        result = quads.cs_defect_check(args.values, args.a, args.delta, args.mu)
        report = make_report(
            "cs_defect",
            args.mode,
            [
                HypothesisRecord(
                    "defect_hypotheses", result.hypotheses_met, True, {"mean": result.mean}
                )
            ],
            measured=result.lhs,
            bound=result.rhs,
            bound_kind="lower",
            parameters={"a": args.a, "delta": args.delta, "mu": args.mu, "k": len(args.values)},
            seed=args.seed,
        )
    return _emit(report, args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bijumble",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "Vertex specs are '0..5' (inclusive), '0,2,5', or combinations.\n"
            f"The output directory may also come from ${ENV_OUT_DIR}."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(p, mode=True):
        p.add_argument("--out", default=None, help="report output directory")
        p.add_argument("--seed", type=int, default=None)
        if mode:
            p.add_argument("--mode", choices=("strict", "relaxed"), default="relaxed")
        p.add_argument(
            "--config",
            default=None,
            help="flat 'key = value' run config; recognised keys: "
            + ", ".join(RunConfig._FIELD_TYPES),
        )

    p = sub.add_parser("params", help="exponent table for a pattern file")
    p.add_argument("--pattern", required=True)
    p.add_argument("--objective", choices=("one_sided", "two_sided"), default="two_sided")
    p.add_argument("--strategy", choices=("exhaustive", "branch_and_bound", "heuristic"))
    p.set_defaults(func=_cmd_params)

    def add_pair(p, required=True):
        p.add_argument("--graph", required=required)
        p.add_argument("--left", type=parse_vertex_spec, required=required)
        p.add_argument("--right", type=parse_vertex_spec, required=required)

    p = sub.add_parser("certify", help="bijumbledness certificate for a pair")
    add_pair(p)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--method", choices=("exact", "spectral", "search"), default="spectral")
    p.add_argument("--gamma", type=float, default=0.0, help="threshold for the search method")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("regularity", help="regularity verdict for a pair")
    add_pair(p)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--d", type=float, default=None)
    p.add_argument("--method", choices=("exact", "sampled"), default="exact")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_regularity)

    p = sub.add_parser("census", help="C4 count and pair-class census")
    add_pair(p)
    p.add_argument("--c4", action="store_true")
    p.add_argument("--q", type=float, default=None)
    p.add_argument("--delta", type=float, default=0.5)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--c-prime", type=float, default=None)
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("count", help="exact partite embedding count")
    p.add_argument("--instance", required=True)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--side", choices=("lower", "two_sided"), default="two_sided")
    add_out(p, mode=False)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("suffix", help="suffix-pattern count and bound audit")
    p.add_argument("--instance", required=True)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--w", type=parse_w_set, action="append", help="'vertex:spec', repeatable")
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--eps", type=float, default=None)
    add_out(p)
    p.set_defaults(func=_cmd_suffix)

    p = sub.add_parser("optialpha", help="alpha-vector sum vs (50q)^q p^(1-C)")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--b", type=int, nargs="+", required=True)
    p.set_defaults(func=_cmd_optialpha)

    p = sub.add_parser("inherit", help="inheritance experiment on a seeded system")
    p.add_argument("--plan", help="flat 'key = value' plan file, used instead of the plan-key flags below")
    for key, kind in experiments.ExperimentPlan._FIELD_TYPES.items():
        if key != "seed":  # the plan's keys as flags; --seed comes from add_out
            p.add_argument("--" + key.replace("_", "-"), type=kind)
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="threads, capped at the core count; from 2, one computes the hypothesis "
        "evidence while the others run the per-x search",
    )
    p.add_argument("--ceiling", type=float, default=0.5, help="relaxed exceptional-fraction ceiling")
    p.add_argument("--plant", type=parse_plant, help="'fraction:boost:seed' negative control")
    add_out(p)
    p.set_defaults(func=_cmd_inherit)

    p = sub.add_parser("audit", help="one lemma audit")
    p.add_argument(
        "--lemma",
        required=True,
        choices=(
            "c4_dense_irregular",
            "c4_regular_bijumbled",
            "many_bad_pairs",
            "few_bad_pairs",
            "cs_defect",
        ),
    )
    add_pair(p, required=False)
    p.add_argument("--nx", type=int, default=60)
    p.add_argument("--ny", type=int, default=60)
    p.add_argument("--nz", type=int, default=60)
    p.add_argument("--p", type=float, default=0.3)
    p.add_argument("--d", type=float, default=0.5)
    p.add_argument("--eps", type=float, default=0.25)
    p.add_argument("--eps-star", type=float, default=0.25, dest="eps_star")
    p.add_argument("--delta", type=float, default=0.5)
    p.add_argument("--c", type=float, default=None)
    p.add_argument("--coeff", type=float, default=None)
    p.add_argument("--dense-slack", type=float, default=None, dest="dense_slack")
    p.add_argument("--irregular-slack", type=float, default=0.0, dest="irregular_slack")
    p.add_argument("--plant", type=parse_plant)
    p.add_argument("--values", type=parse_float_list)
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--mu", type=float, default=None)
    add_out(p)
    p.set_defaults(func=_cmd_audit)

    return parser


def _apply_config(args):
    cfg = None
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = RunConfig.from_text(fh.read())
    if getattr(args, "seed", "absent") is None and not getattr(args, "plan", None):
        args.seed = cfg.seed if cfg else 0  # with --plan the file alone holds the seed
    if (getattr(args, "seed", None) or 0) < 0:
        raise ParameterError(f"seed {args.seed} must be non-negative")
    if getattr(args, "out", "absent") is None:
        args.out = os.environ.get(ENV_OUT_DIR) or (cfg.out_dir if cfg else None)
    if getattr(args, "workers", "absent") is None:
        args.workers = cfg.workers if cfg else 1
    if getattr(args, "workers", 1) < 1:
        raise ParameterError(f"workers {args.workers} must be >= 1")
    return args


def run_cli(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(_apply_config(args))
    except SystemExit as exc:  # argparse usage errors / --help
        return 0 if exc.code in (0, None) else 2
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    except (BijumbleError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
