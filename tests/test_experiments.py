import itertools
import math
import os
import random

import numpy as np
import pytest

import reference
from bijumble import experiments, graphs, regularity
from bijumble.errors import ParameterError
from bijumble.graphs import BipartitePairView, Graph, TripartiteSystem, VertexSet, bool_matrix
from bijumble.experiments import (
    ExperimentPlan,
    PerVertexVerdict,
    _child_seed,
    bad_pair_bounds_audit,
    gen_bipartite,
    gen_tripartite,
    make_system,
    one_sided_experiment,
    plant_irregular_block,
    sparsify,
    two_sided_experiment,
)
from bijumble.regularity import check_eps_d_p, exact_regularity, sampled_regularity


def build(n, p, d, seed):
    return sparsify(gen_tripartite(n, n, n, p, seed=seed), d, seed=seed + 1000)


def complete_tripartite(n):
    parts = [range(0, n), range(n, 2 * n), range(2 * n, 3 * n)]
    edges = [
        (u, v)
        for i in range(3)
        for j in range(i + 1, 3)
        for u in parts[i]
        for v in parts[j]
    ]
    g = Graph.from_edges(3 * n, edges)
    return TripartiteSystem(g, g, VertexSet.of(parts[0]), VertexSet.of(parts[1]), VertexSet.of(parts[2]))


def test_plan_validation():
    with pytest.raises(ParameterError):
        ExperimentPlan("one_sided", 0, 5, 5, 0.5, 0.5, 0.3, seed=1)
    with pytest.raises(ParameterError):
        ExperimentPlan("one_sided", 5, 5, 5, 1.5, 0.5, 0.3, seed=1)
    plan = ExperimentPlan("one_sided", 5, 5, 5, 0.5, 0.5, 0.3, seed=1)
    assert plan.trials == 12
    with pytest.raises(ParameterError, match="unknown lemma 'three_sided'"):
        ExperimentPlan("three_sided", 5, 5, 5, 0.5, 0.5, 0.3, seed=1)
    with pytest.raises(ParameterError, match="unknown method 'annealed'"):
        ExperimentPlan("two_sided", 5, 5, 5, 0.5, 0.5, 0.3, seed=1, method="annealed")
    with pytest.raises(ParameterError, match="trials must be >= 1"):
        ExperimentPlan("one_sided", 5, 5, 5, 0.5, 0.5, 0.3, seed=1, trials=0)
    with pytest.raises(ParameterError, match="eps must lie in"):
        ExperimentPlan("one_sided", 5, 5, 5, 0.5, 0.5, 0.3, seed=1, eps=1.5)


def test_inheritance_experiment_rejects_an_unknown_lemma(monkeypatch):
    def cut(*args):
        raise AssertionError("a block was cut before the lemma was checked")

    monkeypatch.setattr(experiments, "pair_block", cut)
    monkeypatch.setattr(experiments, "check_eps_d_p", cut)
    with pytest.raises(ParameterError, match="unknown lemma 'three_sided'"):
        experiments.inheritance_experiment(build(6, 0.4, 0.6, 31), 0.3, 0.5, 0.4, lemma="three_sided")


def test_plan_from_values_required_keys_and_d_range():
    values = dict(lemma="one_sided", nx=5, ny=5, nz=5, p=0.5, d=1.0, eps_prime=0.3, seed=1, eps=None)
    assert ExperimentPlan.from_values(values) == ExperimentPlan("one_sided", 5, 5, 5, 0.5, 1.0, 0.3, seed=1)
    with pytest.raises(ParameterError, match=r"missing keys: \['d', 'seed'\]"):
        ExperimentPlan.from_values({**values, "d": None, "seed": None})
    for d in (0.0, 1.5, math.nan):
        with pytest.raises(ParameterError, match=r"d must lie in \(0,1\]"):
            ExperimentPlan("one_sided", 5, 5, 5, 0.5, d, 0.3, seed=1)


def test_make_system_checks_every_value_before_generating(monkeypatch):
    import bijumble.experiments as experiments

    def refuse(*args):
        raise AssertionError("a system was generated")

    monkeypatch.setattr(experiments, "_bernoulli_parts", refuse)
    args = dict(nx=5, ny=8, nz=8, p=0.5, d=0.5, seed=3)
    for bad in (dict(d=1.5), dict(d=0.0), dict(p=1.5), dict(nx=0),
                dict(plant=(0.0, 0.5, 1)), dict(plant=(0.5, 1.5, 1)), dict(plant=(math.nan, 0.5, 1))):
        with pytest.raises(ParameterError):
            make_system(**{**args, **bad})


def test_make_system_applies_the_plant():
    base = make_system(5, 8, 8, 0.5, 0.5, 3)
    planted = make_system(5, 8, 8, 0.5, 0.5, 3, plant=(0.5, 1.0, 9))
    assert planted.sub.rows == plant_irregular_block(base, ("Y", "Z"), 0.5, 1.0, 9).sub.rows
    assert planted.sub.rows != base.sub.rows and planted.host.rows == base.host.rows
    whole = make_system(5, 8, 8, 0.5, 1.0, 3)
    assert whole.sub is whole.host


def test_plan_rejects_unused_keys():
    text = "lemma = one_sided\nnx = 5\nny = 5\nnz = 5\np = 0.5\nd = 0.5\neps_prime = 0.3\nseed = 1\n"
    assert ExperimentPlan.from_text(text) == ExperimentPlan("one_sided", 5, 5, 5, 0.5, 0.5, 0.3, seed=1)
    for extra in ("repetitions = 5", "delta = 0.2", "slack.c4 = 0.1"):
        with pytest.raises(ParameterError, match="unknown key"):
            ExperimentPlan.from_text(text + extra + "\n")


def test_plan_unconvertible_value_names_line_key_and_value():
    text = "lemma = one_sided\nnx = ten\nny = 5\nnz = 5\np = 0.5\nd = 0.5\neps_prime = 0.3\nseed = 1\n"
    with pytest.raises(ParameterError, match="plan line 2: nx = 'ten' is not a valid int"):
        ExperimentPlan.from_text(text)
    with pytest.raises(ParameterError, match="plan line 5: p = 'half' is not a valid float"):
        ExperimentPlan.from_text(text.replace("nx = ten", "nx = 5").replace("p = 0.5", "p = half"))


def test_gen_tripartite_golden_and_determinism():
    s = gen_tripartite(2, 2, 2, 0.5, seed=1)
    assert sorted(s.host.edges()) == [(0, 4), (0, 5), (1, 2), (1, 5), (2, 5)]
    assert gen_tripartite(2, 2, 2, 0.5, seed=1).host == s.host
    assert s.sub == s.host
    # no intra-part edges ever
    big = gen_tripartite(20, 20, 20, 0.4, seed=9)
    for part in (big.x, big.y, big.z):
        for u in part:
            assert big.host.rows[u] & part.mask == 0


def test_gen_tripartite_edge_concentration():
    n, p = 500, 0.3
    s = gen_tripartite(n, n, n, p, seed=123)
    for a, b in (("X", "Y"), ("X", "Z"), ("Y", "Z")):
        e = s.pair(a, b, "host").edge_count()
        mean = p * n * n
        sigma = math.sqrt(n * n * p * (1 - p))
        assert abs(e - mean) <= 5 * sigma


def test_sparsify_identity_and_golden():
    s = gen_tripartite(4, 4, 4, 0.5, seed=2)
    assert sparsify(s, 1.0, seed=77).sub == s.host
    h = Graph.from_edges(4, [(0, 2), (1, 3)])
    sys2 = TripartiteSystem(h, h, VertexSet.of([0]), VertexSet.of([1, 2]), VertexSet.of([3]))
    kept = sorted(sparsify(sys2, 0.5, seed=3).sub.edges())
    assert kept == [(0, 2), (1, 3)]  # frozen draw for seed 3
    with pytest.raises(ParameterError):
        sparsify(s, 0.0, seed=1)


def test_sparsify_edge_concentration():
    s = gen_tripartite(500, 500, 500, 0.2, seed=5)
    d = 0.5
    sp = sparsify(s, d, seed=6)
    e_host = s.host.edge_count()
    e_sub = sp.sub.edge_count()
    sigma = math.sqrt(e_host * d * (1 - d))
    assert abs(e_sub - d * e_host) <= 5 * sigma
    assert sp.sub.is_subgraph_of(sp.host)


def test_plant_block_noop_and_errors():
    s = build(20, 0.5, 0.5, 4)
    assert plant_irregular_block(s, ("Y", "Z"), 0.5, 0.0, seed=3).sub == s.sub
    with pytest.raises(ParameterError):
        plant_irregular_block(s, ("Y", "Z"), 0.5, 1.5, seed=3)
    with pytest.raises(ParameterError):
        plant_irregular_block(s, ("Y", "Z"), 0.0, 0.5, seed=3)
    for pair in (("Y", "Y"), ("z", "Z"), ("X", "x")):
        with pytest.raises(ParameterError, match="two distinct parts"):
            plant_irregular_block(s, pair, 0.5, 1.0, seed=3)


def random_system(rnd: random.Random) -> TripartiteSystem:
    """A generated system, or, one time in three, a hand-built host that also
    has edges inside its parts, with a generated or hand-built G."""
    nx, ny, nz = (rnd.randint(1, 14) for _ in range(3))
    p = rnd.uniform(0.05, 0.95)
    if rnd.randrange(3):
        return make_system(nx, ny, nz, p, rnd.choice((rnd.uniform(0.05, 1.0), 1.0)), rnd.randrange(10**6))
    n = nx + ny + nz
    host = Graph.from_edges(n, [e for e in itertools.combinations(range(n), 2) if rnd.random() < p])
    parts = VertexSet.range(0, nx), VertexSet.range(nx, nx + ny), VertexSet.range(nx + ny, n)
    system = TripartiteSystem(host, host, *parts)
    if rnd.randrange(2):
        return reference.sparsify(system, rnd.uniform(0.05, 1.0), rnd.randrange(10**6))
    sub = Graph.from_edges(n, [e for e in host.edges() if rnd.random() < 0.5])
    return TripartiteSystem(host, sub, *parts)


@pytest.mark.parametrize("batch", range(4))
def test_generators_equal_bit_row_reference(batch):
    rnd = random.Random(4200 + batch)
    pairs = list(itertools.permutations("XYZ", 2))
    for _ in range(80):
        system = random_system(rnd)
        d, seed = rnd.choice((rnd.uniform(0.01, 1.0), 1.0)), rnd.randrange(10**6)
        assert sparsify(system, d, seed).sub.rows == reference.sparsify(system, d, seed).sub.rows
        for pair in pairs:
            fraction = rnd.choice((rnd.uniform(0.01, 1.0), 1.0))
            boost = rnd.choice((0.0, 1.0, rnd.random()))
            got = plant_irregular_block(system, pair, fraction, boost, seed)
            assert got.sub.rows == reference.plant_irregular_block(system, pair, fraction, boost, seed).sub.rows


@pytest.mark.parametrize("plant", [None, (0.5, 0.7, 9)])
def test_generated_graphs_hand_over_a_read_only_matrix(monkeypatch, plant):
    def refuse(*args, **kwargs):
        raise AssertionError("bit rows were unpacked")

    monkeypatch.setattr(graphs.np, "unpackbits", refuse)
    system = make_system(6, 9, 7, 0.5, 0.6, 11, plant)
    mats = [bool_matrix(system.host), bool_matrix(system.sub)]
    monkeypatch.undo()
    for g, mat in zip((system.host, system.sub), mats):
        assert not mat.flags.writeable
        assert np.array_equal(mat, bool_matrix(Graph(g.vertex_count, g.rows)))
        with pytest.raises(ValueError):
            mat[0, 0] = True


def test_plant_block_flagged_by_sampled_and_confirmed_exact():
    # 200-scale: sampled regularity flags the planted pair, not the clean one
    s = build(200, 0.4, 0.5, 42)
    planted = plant_irregular_block(s, ("Y", "Z"), 0.5, 1.0, seed=43)
    flagged = sampled_regularity(planted.pair("Y", "Z"), 0.25, 0.4, trials=80, seed=5)
    clean = sampled_regularity(s.pair("Y", "Z"), 0.25, 0.4, trials=80, seed=5)
    assert not flagged.regular and clean.regular
    # 16-scale exact confirmation: the planted construction deviates more
    s16 = build(16, 0.5, 0.5, 7)
    p16 = plant_irregular_block(s16, ("Y", "Z"), 0.5, 1.0, seed=8)
    dev_planted = exact_regularity(p16.pair("Y", "Z"), 0.3, 0.5).deviation
    dev_clean = exact_regularity(s16.pair("Y", "Z"), 0.3, 0.5).deviation
    assert dev_planted > dev_clean


def test_complete_host_no_exceptions():
    s = complete_tripartite(12)
    for run in (one_sided_experiment, two_sided_experiment):
        out = run(s, 0.3, 1.0, 0.999, method="sampled", trials=4, seed=1)
        assert out.exceptional_fraction == 0.0
        assert out.threshold_reference == pytest.approx(0.3 * 12)


def test_emptied_yz_all_exceptional_via_density_floor():
    s = complete_tripartite(10)
    rows = list(s.sub.rows)
    for y in s.y:
        rows[y] &= ~s.z.mask
    for z in s.z:
        rows[z] &= ~s.y.mask
    emptied = TripartiteSystem(s.host, Graph(30, tuple(rows)), s.x, s.y, s.z)
    out = one_sided_experiment(emptied, 0.2, 0.9, 0.999, method="sampled", trials=4, seed=2)
    assert out.exceptional_fraction == 1.0
    assert all(v.reason == "density floor" for v in out.per_x)


def test_empty_neighborhood_counts_exceptional():
    # x = vertex 0 has no host neighbours in Y at all
    n = 6
    s = complete_tripartite(n)
    rows = list(s.host.rows)
    for y in s.y:
        rows[y] &= ~(1 << 0)
    rows[0] &= ~s.y.mask
    host = Graph(3 * n, tuple(rows))
    sub = host
    sys2 = TripartiteSystem(host, sub, s.x, s.y, s.z)
    out = one_sided_experiment(sys2, 0.3, 1.0, 0.999, method="sampled", trials=4, seed=3)
    reasons = {v.x: v.reason for v in out.per_x}
    assert reasons[0] == "empty neighborhood"
    assert out.exceptional_count == 1


def test_monotone_eps_prime_exact_method():
    s = build(14, 0.5, 0.9, 21)
    counts = []
    for eps_prime in (0.3, 0.45, 0.6, 0.75):
        out = one_sided_experiment(s, eps_prime, 0.9, 0.5, method="exact", seed=5)
        counts.append(out.exceptional_count)
    assert counts == sorted(counts, reverse=True)


def test_monotone_eps_prime_sampled_same_seeds():
    s = build(60, 0.4, 0.5, 31)
    counts = []
    for eps_prime in (0.2, 0.35, 0.5):
        out = one_sided_experiment(s, eps_prime, 0.5, 0.4, method="sampled", trials=10, seed=8)
        counts.append(out.exceptional_count)
    assert counts == sorted(counts, reverse=True)


def test_worker_count_independence():
    s = build(40, 0.4, 0.5, 11)
    out1 = two_sided_experiment(s, 0.4, 0.5, 0.4, method="sampled", trials=6, seed=13, workers=1)
    out4 = two_sided_experiment(s, 0.4, 0.5, 0.4, method="sampled", trials=6, seed=13, workers=4)
    assert out1 == out4


def test_outcome_embeds_hypothesis_evidence():
    s = build(30, 0.4, 0.5, 17)
    out = one_sided_experiment(s, 0.4, 0.5, 0.4, method="sampled", trials=4, seed=19)
    names = [h.name for h in out.evidence]
    assert "yz_regular_in_G" in names and "bijumbled_XY" in names and "bijumbled_YZ" in names
    out2 = two_sided_experiment(s, 0.4, 0.5, 0.4, method="sampled", trials=4, seed=19)
    assert "bijumbled_XZ" in [h.name for h in out2.evidence]


def test_negative_control_planted_fraction_higher():
    # n=500 keeps the clean baseline at ~0 while the plant saturates
    for seed in (11, 12, 13):
        base = build(500, 0.3, 0.5, seed)
        planted = plant_irregular_block(base, ("Y", "Z"), 0.6, 0.9, seed + 77)
        out_b = one_sided_experiment(base, 0.3, 0.5, 0.3, method="sampled", trials=10, seed=900 + seed)
        out_p = one_sided_experiment(planted, 0.3, 0.5, 0.3, method="sampled", trials=10, seed=900 + seed)
        assert out_p.exceptional_fraction > out_b.exceptional_fraction


def test_bad_pairs_complete_bipartite_none():
    # q=1 thresholds exceed the maximum codegree: zero bad pairs
    n = 12
    parts = [range(0, n), range(n, 2 * n), range(2 * n, 3 * n)]
    edges = [(u, v) for u in parts[1] for v in parts[2]]
    g = Graph.from_edges(3 * n, edges)
    s = TripartiteSystem(g, g, VertexSet.of(parts[0]), VertexSet.of(parts[1]), VertexSet.of(parts[2]))
    report = bad_pair_bounds_audit(
        s, 1.0, 0.25, 0.5, 0.25, direction="many", p=0.999, mode="relaxed", relaxed_coeff=0.0, seed=3
    )
    assert report.measured == 0


def test_bad_pairs_planted_exceeds_unplanted_baseline():
    planted_counts, clean_counts = [], []
    for seed in range(10):
        s = build(80, 0.4, 0.5, 500 + seed)
        planted = plant_irregular_block(s, ("Y", "Z"), 0.5, 1.0, seed=600 + seed)
        rep_p = bad_pair_bounds_audit(
            planted, 0.5, 0.25, 0.5, 0.25, direction="many", p=0.4, mode="relaxed",
            relaxed_coeff=1e-4, seed=seed,
        )
        rep_c = bad_pair_bounds_audit(
            s, 0.5, 0.25, 0.5, 0.25, direction="many", p=0.4, mode="relaxed",
            relaxed_coeff=1e-4, seed=seed,
        )
        planted_counts.append(rep_p.measured)
        clean_counts.append(rep_c.measured)
    assert min(planted_counts) > max(clean_counts)
    assert all(c > 0 for c in planted_counts)


def test_few_bad_pairs_relaxed_holds_on_regular_system():
    s = build(100, 0.35, 0.5, 71)
    report = bad_pair_bounds_audit(
        s, 0.5, 0.25, 0.6, 0.3, direction="few", p=0.35, mode="relaxed", seed=7
    )
    assert report.verdict == "pass"
    assert report.measured <= report.bound


def test_bad_pairs_strict_mode_honesty():
    s = build(60, 0.3, 0.5, 81)
    for direction in ("many", "few"):
        report = bad_pair_bounds_audit(
            s, 0.5, 0.25, 0.5, 0.25, direction=direction, p=0.3, mode="strict", seed=5
        )
        assert report.verdict == "hypotheses-not-met"


def per_x_view_loop(system, lemma, method, eps_prime, d, p, trials, seed):
    """The per-x verdicts as a plain loop of ``check_eps_d_p`` over pair
    views of each x's host neighbourhoods."""
    out = []
    for x in system.x:
        ny = VertexSet.from_mask(system.host.rows[x] & system.y.mask)
        nz = system.z if lemma == "one_sided" else VertexSet.from_mask(system.host.rows[x] & system.z.mask)
        deg_z = None if lemma == "one_sided" else len(nz)
        if not len(ny) or not len(nz):
            out.append(PerVertexVerdict(x, False, None, "empty neighborhood", len(ny), deg_z))
            continue
        v = check_eps_d_p(BipartitePairView(system.sub, ny, nz), eps_prime, d, p,
                          method=method, trials=trials, seed=_child_seed(seed, x))
        out.append(PerVertexVerdict(x, v.regular, v.deviation, v.failure_reason, len(ny), deg_z))
    return tuple(out)


def isolate_from(system, x, part):
    """``system`` with every host (and G) edge between x and ``part`` removed."""
    def cut(rows):
        rows = list(rows)
        rows[x] &= ~part.mask
        for v in part:
            rows[v] &= ~(1 << x)
        return Graph(len(rows), tuple(rows))

    return TripartiteSystem(cut(system.host.rows), cut(system.sub.rows), system.x, system.y, system.z)


@pytest.mark.parametrize(
    "seed,method",
    [pytest.param(seed, "sampled", id=str(seed)) for seed in range(6)]
    + [pytest.param(seed, "exact", id=f"exact-{seed}") for seed in range(6)],
)
def test_cut_path_equals_per_x_view_loop(seed, method):
    rnd = random.Random(seed)
    side = 30 if method == "sampled" else 12  # exact enumeration stays small
    nx, ny, nz = rnd.randint(4, 12), rnd.randint(5, side), rnd.randint(5, side)
    p = rnd.choice((0.3, 0.5, 0.7))
    system = sparsify(gen_tripartite(nx, ny, nz, p, seed=seed), rnd.choice((0.5, 0.8)), seed=seed + 1)
    system = isolate_from(system, 0, system.y)  # an empty N(x) in Y
    system = isolate_from(system, 1, system.z)  # an empty N(x) in Z (two-sided only)
    reasons = set()
    for lemma, run in (("one_sided", one_sided_experiment), ("two_sided", two_sided_experiment)):
        # d = 0.95 puts most derived pairs below the density floor
        for eps_prime, d in ((0.6, 0.3), (0.2, 0.95), (rnd.uniform(0.05, 0.6), rnd.random())):
            trials = rnd.choice((1, 3, 8))
            for workers in (1, 2):
                got = run(system, eps_prime, d, p, method=method, trials=trials, seed=seed,
                          workers=workers).per_x
                assert got == per_x_view_loop(system, lemma, method, eps_prime, d, p, trials, seed)
                reasons |= {v.reason for v in got}
    assert {"empty neighborhood", "density floor", None} <= reasons


@pytest.mark.parametrize("seed", range(3))
def test_cut_path_equals_per_x_view_loop_across_trial_blocks(monkeypatch, seed):
    # the view loop runs first, at the default block size, so only the cut path is split
    rnd = random.Random(100 + seed)
    system = sparsify(gen_tripartite(6, rnd.randint(20, 40), rnd.randint(20, 40), 0.5, seed=seed),
                      0.7, seed=seed + 1)
    cases = [(lemma, run, rnd.uniform(0.1, 0.5), rnd.choice((0.3, 0.8)), rnd.choice((5, 9)))
             for lemma, run in (("one_sided", one_sided_experiment), ("two_sided", two_sided_experiment))]
    wants = [per_x_view_loop(system, lemma, "sampled", eps_prime, d, 0.5, trials, seed)
             for lemma, _, eps_prime, d, trials in cases]
    for block_bytes in (1, 2 * 5 * 30):  # one trial per block; two at |U'| = 5, |W| = 30
        monkeypatch.setattr(regularity, "TRIAL_BLOCK_BYTES", block_bytes)
        for (_, run, eps_prime, d, trials), want in zip(cases, wants):
            got = run(system, eps_prime, d, 0.5, method="sampled", trials=trials, seed=seed).per_x
            assert got == want


def test_cut_path_equals_per_x_view_loop_on_a_larger_system():
    system = sparsify(gen_tripartite(8, 150, 150, 0.5, seed=77), 0.6, seed=78)
    for lemma, run in (("one_sided", one_sided_experiment), ("two_sided", two_sided_experiment)):
        got = run(system, 0.2, 0.5, 0.5, method="sampled", trials=40, seed=9).per_x
        assert got == per_x_view_loop(system, lemma, "sampled", 0.2, 0.5, 0.5, 40, 9)


def test_worker_pool_is_capped_at_the_core_count(monkeypatch):
    seen = []

    class RecordingPool:  # runs the ranges in order on the calling thread
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    system = build(12, 0.4, 0.6, 31)
    want = one_sided_experiment(system, 0.3, 0.5, 0.4, trials=4, seed=2, workers=1)
    monkeypatch.setattr(experiments, "ThreadPoolExecutor", RecordingPool)
    for cores, workers, pools in ((3, 5000, [3]), (3, 2, [2]), (None, 5000, [])):
        seen.clear()
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        assert one_sided_experiment(system, 0.3, 0.5, 0.4, trials=4, seed=2, workers=workers) == want
        assert seen == pools
