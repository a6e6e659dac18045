import json
import multiprocessing
import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from bijumble.cli import parse_vertex_spec, run_cli
from bijumble.errors import ParameterError
from bijumble.graphs import format_edge_list, triangle_book, complete_graph, Graph
from bijumble.patterns import Pattern, format_pattern
import bijumble
from bijumble import cli, embeddings
from bijumble._numeric import slack
from bijumble.reports import (
    AuditReport,
    HypothesisRecord,
    RunConfig,
    make_report,
    serialize_report,
    verdict_for,
    write_report,
)

WALL_RE = re.compile(r'"wall_clock_s": [0-9.e+-]+')


def _mask_wall(text: str) -> str:
    return WALL_RE.sub('"wall_clock_s": 0', text)


def sample_report(measured=3, mode="relaxed"):
    return make_report(
        "sample_lemma",
        mode,
        [HypothesisRecord("h1", True, True, {"x": 1})],
        measured=measured,
        bound=4.0,
        bound_kind="upper",
        parameters={"alpha": 0.5},
        seed=42,
    )


def test_serialise_round_trip_byte_identical():
    rep = sample_report()
    text = serialize_report(rep)
    parsed = json.loads(text)
    again = json.dumps(parsed, indent=2, ensure_ascii=False) + "\n"
    assert text == again
    assert parsed["seed"] == 42 and parsed["verdict"] == "pass"


def test_report_key_order_fixed():
    text = serialize_report(sample_report())
    keys = re.findall(r'^  "(\w+)":', text, flags=re.M)
    assert keys == [
        "lemma", "mode", "verdict", "measured", "bound", "bound_kind", "margin",
        "parameters", "hypotheses", "seed", "tolerance_rel", "tolerance_abs",
        "toolkit_version", "wall_clock_s",
    ]


B = 1000.0
S = slack(B, B)


@pytest.mark.parametrize(
    "kind, bound, measured, verdict, margin",
    [
        ("lower", B, B + 1, "pass", 1.0),
        ("lower", B, B - S / 2, "pass", -S / 2),
        ("lower", B, B - 2 * S, "fail", -2 * S),
        ("upper", B, B - 1, "pass", 1.0),
        ("upper", B, B + S / 2, "pass", -S / 2),
        ("upper", B, B + 2 * S, "fail", -2 * S),
        ("window", [B, 2 * B], 1.25 * B, "pass", 0.25 * B),
        ("window", [B, 2 * B], B - S / 2, "pass", -S / 2),
        ("window", [B, 2 * B], B - 2 * S, "fail", -2 * S),
        ("window", [B / 2, B], B + S / 2, "pass", -S / 2),
        ("window", [B / 2, B], B + 2 * S, "fail", -2 * S),
        ("none", None, -1.0, "pass", None),
    ],
)
def test_make_report_comparison_rule(kind, bound, measured, verdict, margin):
    rep = make_report(
        "lemma", "relaxed", [], measured=measured, bound=bound, bound_kind=kind,
        parameters={}, seed=0,
    )
    assert rep.verdict == verdict
    if margin is None:
        assert rep.margin is None
    else:
        assert rep.margin == pytest.approx(margin)
    with pytest.raises(ParameterError, match="unknown bound kind"):
        make_report("lemma", "relaxed", [], measured=measured, bound=bound,
                    bound_kind="between", parameters={}, seed=0)


def test_no_tolerance_literals_outside_numeric():
    """Comparisons against a bound take their tolerance from _numeric; the
    witness tie-replay constants of _subsets are the only other ones."""
    literal = re.compile(r"\b1(\.0*)?e-0*(9|12|15)\b", re.I)
    allowed = {("_subsets.py", "TIE = 1e-15"), ("_subsets.py", "MARGIN = 1e-9")}
    found = [
        (path.name, line.strip())
        for path in sorted(Path(bijumble.__file__).parent.glob("*.py"))
        if path.name != "_numeric.py"
        for line in path.read_text(encoding="utf-8").splitlines()
        if literal.search(line)
    ]
    assert [hit for hit in found if hit not in allowed] == []


def test_verdict_rule():
    good = [HypothesisRecord("a", True, True)]
    uncertified = [HypothesisRecord("a", True, False)]
    unsatisfied = [HypothesisRecord("a", False, True)]
    assert verdict_for("strict", good, True) == "pass"
    assert verdict_for("strict", good, False) == "fail"
    assert verdict_for("strict", uncertified, True) == "hypotheses-not-met"
    assert verdict_for("strict", unsatisfied, False) == "hypotheses-not-met"
    assert verdict_for("relaxed", unsatisfied, True) == "pass"
    with pytest.raises(ParameterError):
        verdict_for("loose", good, True)


def test_write_report_counter_and_index(tmp_path):
    p1 = write_report(sample_report(), tmp_path)
    p2 = write_report(sample_report(measured=5), tmp_path)
    assert p1.name == "sample_lemma-42-0000.json"
    assert p2.name == "sample_lemma-42-0001.json"
    rows = (tmp_path / "index.csv").read_text().strip().splitlines()
    assert rows[0] == "lemma,mode,verdict,measured,bound,seed"
    assert len(rows) == 3
    assert rows[1].startswith("sample_lemma,relaxed,pass,3,4.0,42")


def test_write_report_that_cannot_serialize_leaves_no_file(tmp_path, monkeypatch):
    from bijumble import reports

    def refuse(report):
        raise TypeError("not serializable")

    monkeypatch.setattr(reports, "serialize_report", refuse)
    with pytest.raises(TypeError):
        write_report(sample_report(), tmp_path / "out")
    assert not (tmp_path / "out").exists() or not list((tmp_path / "out").iterdir())


def test_cli_inherit_report_with_a_drawn_pair_witness_parses(tmp_path, capsys):
    # the drawn pair, not a prefix, wins the sampled Y x Z check here; its
    # verdict once carried a numpy bool that the report could not serialize
    argv = ["inherit", "--lemma", "one_sided", "--nx", "3", "--ny", "18", "--nz", "2", "--p", "0.5",
            "--d", "0.5", "--eps-prime", "0.846", "--seed", "813651", "--out", str(tmp_path)]
    assert run_cli(argv) == 0
    (path,) = tmp_path.glob("*.json")
    record = json.loads(path.read_text())
    assert [h["satisfied"] for h in record["hypotheses"]][0] is True
    assert len((tmp_path / "index.csv").read_text().splitlines()) == 2


def test_write_report_after_deletion_never_overwrites(tmp_path):
    paths = [write_report(sample_report(), tmp_path) for _ in range(3)]
    newest = paths[2].read_bytes()
    paths[0].unlink()
    again = write_report(sample_report(), tmp_path)
    assert again.name == "sample_lemma-42-0003.json"
    assert paths[2].read_bytes() == newest
    assert len(list(tmp_path.glob("*.json"))) == 3


def test_write_report_concurrent_writers_never_collide(tmp_path):
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            futures = [pool.submit(write_report, sample_report(), tmp_path) for _ in range(40)]
            paths = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert len(set(paths)) == 40 and len(list(tmp_path.glob("*.json"))) == 40
    assert all(json.loads(p.read_text())["seed"] == 42 for p in paths)


def _write_after_barrier(barrier, dirs):
    for out in dirs:
        barrier.wait(timeout=60)
        write_report(sample_report(), out)


def test_write_report_concurrent_processes_write_one_index_header(tmp_path):
    # 4 processes released together into each of 300 fresh directories: an
    # exists-then-append header check gives some directory two headers
    dirs = [tmp_path / f"round{i}" for i in range(300)]
    ctx = multiprocessing.get_context("spawn")
    barrier = ctx.Barrier(4)
    procs = [ctx.Process(target=_write_after_barrier, args=(barrier, dirs)) for _ in range(4)]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=120)
        if proc.is_alive():
            proc.kill()
    assert [proc.exitcode for proc in procs] == [0] * 4
    index = "lemma,mode,verdict,measured,bound,seed\r\n" + "sample_lemma,relaxed,pass,3,4.0,42\r\n" * 4
    for out in dirs:
        assert (out / "index.csv").read_bytes().decode("utf-8") == index
        assert sorted(path.name for path in out.iterdir()) == [
            "index.csv", *(f"sample_lemma-42-{i:04d}.json" for i in range(4))
        ]


def test_identical_reports_differ_only_in_counter_and_clock(tmp_path):
    a = write_report(sample_report(), tmp_path).read_text()
    b = write_report(sample_report(), tmp_path).read_text()
    assert _mask_wall(a) == _mask_wall(b)


def test_every_report_carries_a_seed(tmp_path):
    write_report(sample_report(), tmp_path)
    for path in tmp_path.glob("*.json"):
        assert isinstance(json.loads(path.read_text())["seed"], int)


def test_run_config_parsing_and_env(monkeypatch, tmp_path):
    # the CLI, not RunConfig, puts BIJUMBLE_OUT_DIR ahead of out_dir
    monkeypatch.setenv("BIJUMBLE_OUT_DIR", str(tmp_path / "env_reports"))
    cfg = RunConfig.from_text("seed = 7\nworkers= 3\nout_dir = runs\n")
    assert cfg.seed == 7 and cfg.workers == 3 and cfg.out_dir == "runs"
    with pytest.raises(ParameterError):
        RunConfig.from_text("workers = 2\n")  # seed mandatory
    for key in ("not_a_key", "spectral_tol"):
        with pytest.raises(ParameterError):
            RunConfig.from_text(f"seed = 1\n{key} = 2\n")


def test_parse_vertex_spec():
    assert parse_vertex_spec("0..3").indices == (0, 1, 2, 3)
    assert parse_vertex_spec("0,2,5").indices == (0, 2, 5)
    assert parse_vertex_spec("0..2,9").indices == (0, 1, 2, 9)
    with pytest.raises(ParameterError):
        parse_vertex_spec("")


@pytest.fixture
def book10_pat(tmp_path):
    path = tmp_path / "book10.pat"
    path.write_text(format_pattern(Pattern.identity(triangle_book(10))))
    return path


@pytest.fixture
def empty_el(tmp_path):
    path = tmp_path / "empty.el"
    path.write_text("n=12\n")
    return path


def test_cli_params_book10(book10_pat, capsys):
    code = run_cli(
        ["params", "--pattern", str(book10_pat), "--objective", "two_sided", "--strategy", "heuristic"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "10.500" in out and "12.000" in out and "3.000" in out


def test_cli_optialpha(capsys):
    code = run_cli(["optialpha", "--p", "0.25", "--b", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "sum=3" in out and "bound=200" in out and "PASS" in out


def test_cli_census_empty_graph(empty_el, capsys):
    code = run_cli(
        ["census", "--graph", str(empty_el), "--left", "0..5", "--right", "6..11", "--c4"]
    )
    out = capsys.readouterr().out.strip()
    assert code == 0 and out == "0"


def test_cli_certify_and_regularity(tmp_path, capsys):
    graph = tmp_path / "m3.el"
    graph.write_text("n=6\n0 3\n1 4\n2 5\n")
    code = run_cli(
        ["certify", "--graph", str(graph), "--left", "0..2", "--right", "3..5",
         "--p", "0.3333333333333333", "--method", "exact"]
    )
    out = capsys.readouterr().out
    assert code == 0 and "gamma=0.666666" in out
    code = run_cli(
        ["regularity", "--graph", str(graph), "--left", "0..2", "--right", "3..5",
         "--p", "0.5", "--epsilon", "0.5", "--method", "exact"]
    )
    out = capsys.readouterr().out
    assert code == 0 and "regular=" in out


def _complete_tri_instance(tmp_path):
    """A K3 instance in the complete tripartite graph on three parts of 3."""
    pat = tmp_path / "tri.pat"
    pat.write_text(format_pattern(Pattern.identity(complete_graph(3))))
    host = tmp_path / "host.el"
    edges = [(u, v) for u in range(3) for v in range(3, 6)] + [(u, v) for u in range(3, 6) for v in range(6, 9)] + [(u, v) for u in range(0, 3) for v in range(6, 9)]
    host.write_text(format_edge_list(Graph.from_edges(9, edges)))
    inst = tmp_path / "tri.inst"
    inst.write_text(
        "pattern: tri.pat\nhost: host.el\npart 0: 0 1 2\npart 1: 3 4 5\npart 2: 6 7 8\n"
    )
    return inst


def test_cli_count_instance(tmp_path, capsys):
    inst = _complete_tri_instance(tmp_path)
    code = run_cli(["count", "--instance", str(inst)])
    out = capsys.readouterr().out
    assert code == 0 and "count=27" in out
    code = run_cli(["suffix", "--instance", str(inst), "--x", "1", "--w", "1:3,4", "--w", "2:6..8"])
    out = capsys.readouterr().out
    assert code == 0 and "suffix_count=6" in out


def _refused_before_loading(monkeypatch, capsys, loader, runs):
    """Each argv of ``runs`` exits 2 naming its flags, with nothing printed
    and the ``cli`` attribute ``loader`` never called."""
    real, loaded = getattr(cli, loader), []
    monkeypatch.setattr(cli, loader, lambda path: loaded.append(path) or real(path))
    for argv, flags in runs:
        code = run_cli(argv)
        out, err = capsys.readouterr()
        assert (code, out, loaded) == (2, "", []), (argv, err)
        assert all(flag in err for flag in flags), (argv, err)


def test_cli_count_refuses_gamma_without_p(tmp_path, monkeypatch, capsys):
    argv = ["count", "--instance", str(_complete_tri_instance(tmp_path)), "--gamma", "0.5",
            "--out", str(tmp_path / "reports")]
    _refused_before_loading(monkeypatch, capsys, "_load_instance", [(argv, ["--gamma", "--p"])])
    assert not (tmp_path / "reports").exists()


def test_cli_suffix_refuses_p_or_eps_alone(tmp_path, monkeypatch, capsys):
    argv = ["suffix", "--instance", str(_complete_tri_instance(tmp_path)), "--x", "1",
            "--w", "1:3,4", "--w", "2:6..8"]
    _refused_before_loading(monkeypatch, capsys, "_load_instance", [
        (argv + ["--p", "0.05"], ["--p", "--eps"]),
        (argv + ["--eps", "0.5"], ["--p", "--eps"]),
    ])


def test_cli_census_refuses_hypothesis_flags_it_would_ignore(tmp_path, monkeypatch, capsys):
    graph = tmp_path / "m3.el"
    graph.write_text("n=6\n0 3\n1 4\n2 5\n")
    argv = ["census", "--graph", str(graph), "--left", "0..2", "--right", "3..5", "--c4"]
    _refused_before_loading(monkeypatch, capsys, "load_graph", [
        (argv + ["--p", "0.3"], ["--p", "--q"]),
        (argv + ["--c-prime", "2.0"], ["--c-prime", "--q"]),
        (argv + ["--q", "0.3", "--c-prime", "2.0"], ["--p", "--c-prime"]),
        (argv + ["--q", "0.3", "--p", "0.3"], ["--p", "--c-prime"]),
    ])


def test_count_and_suffix_audits_backtrack_once(tmp_path, monkeypatch, capsys):
    # the printed count and the audit's measured count are one backtracking run
    real, calls = embeddings.count_partite_copies, []
    monkeypatch.setattr(embeddings, "count_partite_copies", lambda instance: calls.append(1) or real(instance))
    inst = str(_complete_tri_instance(tmp_path))
    out = ["--out", str(tmp_path / "reports")]
    run_cli(["count", "--instance", inst, "--p", "0.5", "--gamma", "0.5", *out])
    assert len(calls) == 1 and "count=27" in capsys.readouterr().out
    run_cli(["suffix", "--instance", inst, "--x", "1", "--w", "1:3,4", "--w", "2:6..8",
             "--p", "0.05", "--eps", "0.5", *out])
    assert len(calls) == 2 and "suffix_count=6" in capsys.readouterr().out
    reports = [json.loads(path.read_text()) for path in sorted((tmp_path / "reports").glob("*.json"))]
    assert sorted(rep["measured"] for rep in reports) == [6, 27]


def test_count_and_suffix_audit_refusals_come_before_backtracking(tmp_path, monkeypatch, capsys):
    def refuse(instance):
        raise AssertionError("backtracked")

    monkeypatch.setattr(embeddings, "count_partite_copies", refuse)
    inst = str(_complete_tri_instance(tmp_path))
    assert run_cli(["count", "--instance", inst, "--p", "-1", "--gamma", "0.5"]) == 2
    assert run_cli(["suffix", "--instance", inst, "--x", "1", "--w", "1:3,4", "--w", "2:6..8",
                    "--p", "-1", "--eps", "0.5"]) == 2
    captured = capsys.readouterr()
    assert "count=" not in captured.out and captured.err.count("error: ") == 2


def test_cli_few_bad_pairs_refuses_coeff_before_generating(tmp_path, monkeypatch, capsys):
    from bijumble import experiments

    def refuse(*args):
        raise AssertionError("a system was generated")

    monkeypatch.setattr(experiments, "gen_tripartite", refuse)
    argv = ["audit", "--lemma", "few_bad_pairs", "--coeff", "1e9", "--out", str(tmp_path)]
    assert run_cli(argv) == 2
    assert "--coeff applies to many_bad_pairs only" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def _edge_count_argv(tmp_path):
    """``count`` on one pattern edge in a perfect matching: a passing audit."""
    pat = tmp_path / "edge.pat"
    pat.write_text(format_pattern(Pattern.identity(Graph.from_edges(2, [(0, 1)]))))
    host = tmp_path / "host.el"
    host.write_text(format_edge_list(Graph.from_edges(4, [(0, 2), (1, 3)])))
    inst = tmp_path / "edge.inst"
    inst.write_text("pattern: edge.pat\nhost: host.el\npart 0: 0 1\npart 1: 2 3\n")
    return ["count", "--instance", str(inst), "--p", "0.5", "--gamma", "0.5"]


def test_cli_out_dir_from_env_without_config(tmp_path, monkeypatch):
    env_dir, flag_dir = tmp_path / "env_reports", tmp_path / "flag_reports"
    monkeypatch.setenv("BIJUMBLE_OUT_DIR", str(env_dir))
    argv = _edge_count_argv(tmp_path)
    assert run_cli(argv) == 0
    assert [f.name for f in env_dir.glob("*.json")] == ["counting_window_two_sided-0-0000.json"]
    assert run_cli([*argv, "--out", str(flag_dir)]) == 0  # --out comes first
    assert len(list(flag_dir.glob("*.json"))) == 1 and len(list(env_dir.glob("*.json"))) == 1


def test_cli_out_dir_env_beats_config(tmp_path, monkeypatch):
    env_dir, cfg_dir, flag_dir = (tmp_path / name for name in ("env", "cfg", "flag"))
    config = tmp_path / "run.cfg"
    config.write_text(f"seed = 0\nout_dir = {cfg_dir}\n")
    argv = [*_edge_count_argv(tmp_path), "--config", str(config)]
    monkeypatch.delenv("BIJUMBLE_OUT_DIR", raising=False)
    assert run_cli(argv) == 0
    monkeypatch.setenv("BIJUMBLE_OUT_DIR", str(env_dir))
    assert run_cli(argv) == 0
    assert run_cli([*argv, "--out", str(flag_dir)]) == 0
    for directory in (cfg_dir, env_dir, flag_dir):
        assert len(list(directory.glob("*.json"))) == 1


def test_cli_exit_codes(tmp_path, book10_pat, capsys):
    assert run_cli(["no-such-command"]) == 2
    assert run_cli(["optialpha", "--p", "0.25"]) == 2  # missing --b
    assert run_cli(["optialpha", "--p", "0.25", "--b", "0", "1"]) == 2  # not nonincreasing
    assert run_cli(["params", "--pattern", str(tmp_path / "missing.pat")]) == 2
    # capacity: exhaustive order search over 21 vertices
    assert run_cli(["params", "--pattern", str(book10_pat), "--strategy", "exhaustive"]) == 3
    assert run_cli(["--help"]) == 0
    capsys.readouterr()


def test_cli_inherit_writes_reports_and_fails_on_ceiling(tmp_path, capsys):
    out_dir = tmp_path / "reports"
    args = ["inherit", "--lemma", "one_sided", "--nx", "20", "--ny", "20", "--nz", "20",
            "--p", "0.4", "--d", "0.8", "--eps-prime", "0.3", "--trials", "4",
            "--seed", "3", "--out", str(out_dir)]
    code = run_cli(args + ["--ceiling", "1.0"])
    capsys.readouterr()
    assert code == 0
    code = run_cli(args + ["--ceiling", "-0.1"])  # impossible ceiling: fail
    capsys.readouterr()
    assert code == 1
    files = sorted(out_dir.glob("*.json"))
    assert len(files) == 2
    assert (out_dir / "index.csv").read_text().count("one_sided_inheritance") == 2


def test_cli_audit_strict_matrix(tmp_path, capsys):
    graph = tmp_path / "g.el"
    from bijumble.experiments import gen_bipartite

    pr = gen_bipartite(80, 80, 0.3, seed=5)
    graph.write_text(format_edge_list(pr.graph))
    base = ["--graph", str(graph), "--left", "0..79", "--right", "80..159"]
    code = run_cli(["audit", "--lemma", "c4_dense_irregular", "--eps", "0.001", "--mode", "strict", *base])
    out = capsys.readouterr().out
    assert code == 0 and "hypotheses-not-met" in out
    code = run_cli(["audit", "--lemma", "many_bad_pairs", "--mode", "strict", "--p", "0.3",
                    "--d", "0.5", "--seed", "4"])
    out = capsys.readouterr().out
    assert code == 0 and "hypotheses-not-met" in out


def test_cli_inherit_plan_rejects_plant(tmp_path, capsys):
    plan = tmp_path / "one.plan"
    plan.write_text("lemma = one_sided\nnx = 6\nny = 6\nnz = 6\np = 0.4\nd = 0.9\neps_prime = 0.3\nseed = 1\n")
    code = run_cli(["inherit", "--plan", str(plan), "--plant", "0.6:0.9:12"])
    err = capsys.readouterr().err
    assert code == 2 and "--plan" in err and "--plant" in err


@pytest.mark.parametrize("flag", [["--trials", "1"], ["--lemma", "two_sided"], ["--nx", "5"], ["--seed", "5"]],
                         ids=lambda f: f[0])
def test_cli_inherit_plan_rejects_plan_key_flags(tmp_path, capsys, flag):
    missing = tmp_path / "missing.plan"  # the flags are refused before the file is read
    code = run_cli(["inherit", "--plan", str(missing), *flag, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2 and f"{flag[0]} cannot be combined with --plan" in err, err
    assert not list(tmp_path.glob("*"))


def test_cli_inherit_plan_rejects_a_config_and_its_seed(tmp_path, capsys):
    plan = tmp_path / "one.plan"
    plan.write_text("lemma = one_sided\nnx = 6\nny = 6\nnz = 6\np = 0.4\nd = 0.9\neps_prime = 0.3\nseed = 1\n")
    cfg = tmp_path / "cfg"
    cfg.write_text("seed = 99\n")
    out = tmp_path / "out"
    code = run_cli(["inherit", "--plan", str(plan), "--config", str(cfg), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2 and "--config cannot be combined with --plan" in err, err
    assert not out.exists()


def test_cli_two_sided_plan_report_is_the_same_with_two_workers(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # so that two workers start a helper thread
    plan = tmp_path / "two.plan"
    plan.write_text("lemma = two_sided\nnx = 30\nny = 120\nnz = 120\np = 0.4\nd = 0.6\n"
                    "eps_prime = 0.35\ntrials = 4\nseed = 3\n")
    reports = []
    for workers in ("1", "2"):
        out = tmp_path / f"out{workers}"
        run_cli(["inherit", "--plan", str(plan), "--ceiling", "1.0", "--workers", workers, "--out", str(out)])
        (path,) = out.glob("*.json")
        reports.append(_mask_wall(path.read_text()))
    assert capsys.readouterr().out.count("two_sided: exceptional") == 2
    assert reports[0] == reports[1] and "bijumbled_XZ" in reports[0]


def test_cli_malformed_config_value_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text("seed = 1\nworkers = two\n")
    code = run_cli(["inherit", "--lemma", "one_sided", "--nx", "6", "--ny", "6", "--nz", "6",
                    "--p", "0.4", "--d", "0.9", "--eps-prime", "0.3", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == 2 and "config line 2" in err and "'two'" in err


def test_cli_bad_plan_values_are_usage_errors(tmp_path, capsys):
    base = "lemma = one_sided\nnx = 6\nny = 6\nnz = 6\np = 0.4\nd = 0.9\neps_prime = 0.3\nseed = 1\n"
    plan = tmp_path / "bad.plan"
    for old, new, message in (
        ("nx = 6", "nx = ten", "plan line 2: nx = 'ten'"),
        ("lemma = one_sided", "lemma = three_sided", "unknown lemma 'three_sided'"),
        ("seed = 1", "seed = 1\nmethod = annealed", "unknown method 'annealed'"),
    ):
        plan.write_text(base.replace(old, new))
        code = run_cli(["inherit", "--plan", str(plan), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2 and message in err
    assert not list(tmp_path.glob("*.json"))


def test_cli_workers_below_one_is_a_usage_error(tmp_path, capsys):
    flags = ["inherit", "--lemma", "one_sided", "--nx", "6", "--ny", "6", "--nz", "6",
             "--p", "0.4", "--d", "0.9", "--eps-prime", "0.3", "--trials", "2", "--seed", "1",
             "--out", str(tmp_path)]
    for workers in ("0", "-3"):
        code = run_cli(flags + ["--workers", workers])
        err = capsys.readouterr().err
        assert code == 2 and f"workers {workers} must be >= 1" in err
    assert not list(tmp_path.glob("*.json"))


def test_python_m_cli_runs_the_command():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "bijumble.cli", *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )

    ok = run("optialpha", "--p", "0.25", "--b", "1")
    assert ok.returncode == 0 and ok.stdout.startswith("sum=")
    assert run("optialpha", "--no-such-flag").returncode == 2


@pytest.mark.parametrize("header", ["n=3000000000", "n=12345678901234567890"])
def test_cli_oversized_header_is_a_capacity_error(tmp_path, header):
    graph = tmp_path / "huge.el"
    graph.write_text(f"{header}\n0 1\n")
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-m", "bijumble.cli", "census", "--graph", str(graph),
         "--left", "0", "--right", "1", "--c4"],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 3 and done.stdout == ""
    assert "capacity error" in done.stderr and "Traceback" not in done.stderr


def test_cli_io_error_exit_code(tmp_path, capsys):
    target = tmp_path / "not_a_dir"
    target.write_text("occupied")
    code = run_cli(["inherit", "--lemma", "one_sided", "--nx", "6", "--ny", "6", "--nz", "6",
                    "--p", "0.4", "--d", "0.9", "--eps-prime", "0.3", "--trials", "2",
                    "--seed", "1", "--out", str(target / "sub")])
    capsys.readouterr()
    assert code == 4


def test_cli_negative_seed_is_a_usage_error(tmp_path, capsys):
    flags = ["inherit", "--lemma", "one_sided", "--nx", "6", "--ny", "6", "--nz", "6",
             "--p", "0.4", "--d", "0.9", "--eps-prime", "0.3", "--trials", "2", "--out", str(tmp_path)]
    graph = tmp_path / "m3.el"
    graph.write_text("n=6\n0 3\n1 4\n2 5\n")
    cfg = tmp_path / "cfg"
    cfg.write_text("seed = -3\n")
    plan = tmp_path / "one.plan"
    plan.write_text("lemma = one_sided\nnx = 6\nny = 6\nnz = 6\np = 0.4\nd = 0.9\neps_prime = 0.3\nseed = -2\n")
    for argv, seed in (
        (flags + ["--seed", "-1"], -1),
        (["regularity", "--graph", str(graph), "--left", "0..2", "--right", "3..5", "--p", "0.5",
          "--epsilon", "0.5", "--method", "sampled", "--seed", "-5"], -5),
        (flags + ["--config", str(cfg)], -3),
        (["inherit", "--plan", str(plan), "--out", str(tmp_path)], -2),
    ):
        code = run_cli(argv)
        err = capsys.readouterr().err
        assert code == 2 and f"seed {seed} must be non-negative" in err
    assert not list(tmp_path.glob("*.json"))


def _tri_instance(directory, part_line="part 2: 6 7 8"):
    """A K3 instance in a new ``directory``, its last part line replaceable."""
    directory.mkdir()
    pat = directory / "tri.pat"
    pat.write_text(format_pattern(Pattern.identity(complete_graph(3))))
    host = directory / "host.el"
    host.write_text(format_edge_list(Graph.from_edges(9, [(0, 3), (3, 6), (0, 6)])))
    inst = directory / "tri.inst"
    inst.write_text(f"pattern: tri.pat\nhost: host.el\npart 0: 0 1 2\npart 1: 3 4 5\n{part_line}\n")
    return inst


def test_cli_malformed_values_exit_2_without_traceback(tmp_path):
    """Each value is parsed once, by its argparse type or by the file
    parser, and a malformed one is a usage error, never a traceback."""
    graph = tmp_path / "m3.el"
    graph.write_text("n=6\n0 3\n1 4\n2 5\n")
    inst = _tri_instance(tmp_path / "tri")
    inherit = ["inherit", "--lemma", "one_sided", "--nx", "6", "--ny", "6", "--nz", "6",
               "--p", "0.4", "--d", "0.9", "--eps-prime", "0.3", "--trials", "2", "--out", str(tmp_path)]
    pair = ["--graph", str(graph), "--left", "0..2", "--right", "3..5"]
    cases = [
        (inherit + ["--plant", "0.5"], "--plant"),
        (inherit + ["--plant", "a:b:c"], "--plant"),
        (["audit", "--lemma", "many_bad_pairs", "--plant", "0.5:0.5"], "--plant"),
        (["audit", "--lemma", "cs_defect", "--values", "1,2,x", "--a", "1", "--mu", "0.5"], "--values"),
        (["audit", "--lemma", "c4_dense_irregular", "--eps", "0.25"], "--graph"),
        (["census", "--graph", str(graph), "--left", "a..b", "--right", "3..5", "--c4"], "--left"),
        (["suffix", "--instance", str(inst), "--x", "1", "--w", "x:2"], "--w"),
        (["suffix", "--instance", str(inst), "--x", "7", "--w", "1:3"], "x = 7"),
        (["count", "--instance", str(_tri_instance(tmp_path / "x", "part x: 0 1"))], "line 5"),
        (["count", "--instance", str(_tri_instance(tmp_path / "no2", "# no part 2"))], "vertices [2]"),
        (inherit + ["--ceiling", "nan"], "not a number"),
        (["census", *pair, "--q", "0.3", "--delta", "nan"], "delta must be positive"),
    ]
    src = Path(__file__).resolve().parents[1] / "src"
    for argv, message in cases:
        done = subprocess.run(
            [sys.executable, "-m", "bijumble.cli", *argv],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=120,
        )
        assert (done.returncode, "Traceback" in done.stderr) == (2, False), (argv, done.stderr)
        assert message in done.stderr, (argv, done.stderr)
    assert not list(tmp_path.glob("*.json"))


def _inherit_paths(tmp_path, **values):
    """argv of the same inheritance run as flags and as a plan file."""
    plan = dict(lemma="one_sided", nx=6, ny=12, nz=12, p=0.4, d=0.9, eps_prime=0.3, trials=2, seed=1)
    plan.update(values)
    path = tmp_path / "run.plan"
    path.write_text("".join(f"{key} = {value}\n" for key, value in plan.items()))
    flags = ["inherit"] + [
        item for key, value in plan.items() for item in (f"--{key.replace('_', '-')}", str(value))
    ]
    return flags, ["inherit", "--plan", str(path)]


@pytest.mark.parametrize(
    "values",
    [dict(trials=0), dict(eps=1.5), dict(eps_prime=1.5), dict(d=1.5), dict(p=1.5), dict(nx=0),
     dict(d="nan"), dict(method="annealed"), dict(lemma="three_sided"), dict(ceiling="nan")],
    ids=lambda values: ",".join(f"{k}={v}" for k, v in values.items()),
)
def test_cli_inherit_checks_values_before_generating(tmp_path, monkeypatch, capsys, values):
    from bijumble import experiments

    def refuse(*args):
        raise AssertionError("a system was generated")

    monkeypatch.setattr(experiments, "_bernoulli_parts", refuse)
    plan = {key: value for key, value in values.items() if key != "ceiling"}
    extra = ["--ceiling", values["ceiling"]] if "ceiling" in values else []  # not a plan key
    for argv in _inherit_paths(tmp_path, **plan):
        code = run_cli(argv + extra + ["--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error: "), (argv, err)
    assert not list(tmp_path.glob("*.json"))


def test_cli_inherit_refuses_an_exact_plan_over_budget_before_generating(tmp_path, monkeypatch, capsys):
    from bijumble import experiments

    def refuse(*args):
        raise AssertionError("a system was generated")

    monkeypatch.setattr(experiments, "gen_tripartite", refuse)
    for argv in _inherit_paths(tmp_path, nx=50, ny=800, nz=800, method="exact"):
        assert run_cli(argv + ["--out", str(tmp_path)]) == 3, argv
        err = capsys.readouterr().err
        assert "exact regularity would enumerate" in err and "800-vertex side" in err, err
    assert not list(tmp_path.glob("*.json"))


@pytest.mark.parametrize("plant", ["0.5", "a:b:c", "0:0.9:1", "1.5:0.9:1", "0.5:1.5:1", "0.5:nan:1"])
def test_cli_plant_checked_before_generating(tmp_path, monkeypatch, capsys, plant):
    from bijumble import experiments

    def refuse(*args):
        raise AssertionError("a system was generated")

    monkeypatch.setattr(experiments, "_bernoulli_parts", refuse)
    flags, plan = _inherit_paths(tmp_path)
    for argv in (flags, plan, ["audit", "--lemma", "few_bad_pairs"]):
        assert run_cli(argv + ["--plant", plant, "--out", str(tmp_path)]) == 2, argv
    capsys.readouterr()
    assert not list(tmp_path.glob("*.json"))


def test_cli_inherit_d_one_same_report_on_both_paths(tmp_path, capsys):
    reports = []
    for i, argv in enumerate(_inherit_paths(tmp_path, d=1.0)):
        out = tmp_path / f"out{i}"
        assert run_cli(argv + ["--ceiling", "1.0", "--out", str(out)]) == 0
        (path,) = out.glob("*.json")
        reports.append(_mask_wall(path.read_text()))
    assert capsys.readouterr().out.count("one_sided: exceptional") == 2
    assert reports[0] == reports[1] and '"d": 1.0' in reports[0]


def test_cli_params_pattern_above_capacity_is_rejected_first(tmp_path, monkeypatch, capsys):
    from bijumble import patterns

    def refuse(*args):
        raise AssertionError("the line graph was built")

    monkeypatch.setattr(patterns, "line_graph", refuse)
    n = 64  # K64 has 2016 edges, just above the cap
    big = tmp_path / "k64.pat"
    big.write_text(format_pattern(Pattern.identity(complete_graph(n))))
    assert n * (n - 1) // 2 > patterns.MAX_PATTERN_EDGES
    for extra in ([], ["--strategy", "heuristic"]):
        assert run_cli(["params", "--pattern", str(big), *extra]) == 3
        assert "limited to 2000 edges, got 2016" in capsys.readouterr().err
    # the paper's patterns sit far below the cap
    petersen_edges = 15
    assert max(complete_graph(4).edge_count(), triangle_book(10).edge_count(), petersen_edges) * 50 < (
        patterns.MAX_PATTERN_EDGES
    )


def test_make_report_rejects_nan_bound():
    for kind, bound in (("upper", float("nan")), ("lower", float("nan")), ("window", [0.0, float("nan")])):
        with pytest.raises(ParameterError, match="not a number"):
            make_report("lemma", "relaxed", [], measured=0.5, bound=bound, bound_kind=kind,
                        parameters={}, seed=0)
