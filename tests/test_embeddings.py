import itertools
import math
import random

import pytest

from bijumble import embeddings
from bijumble.errors import CapacityError, ParameterError
from bijumble.graphs import Graph, VertexSet, complete_bipartite, complete_graph
from bijumble.patterns import Pattern
from bijumble.embeddings import (
    OPTIALPHA_CHUNK,
    PartiteInstance,
    SuffixInstance,
    count_partite_copies,
    counting_window_audit,
    optialpha_check,
    predicted_count,
    suffix_bound_audit,
    suffix_count,
)
from bijumble.experiments import gen_tripartite, sparsify
from reference import brute_force_partite_copies, optialpha_lhs_sum

K3 = complete_graph(3)


def blocks(sizes):
    out, start = [], 0
    for s in sizes:
        out.append(VertexSet.range(start, start + s))
        start += s
    return tuple(out)


def random_host(n, q, seed):
    rnd = random.Random(seed)
    return Graph.from_edges(
        n, [e for e in itertools.combinations(range(n), 2) if rnd.random() < q]
    )


def test_edge_into_complete_bipartite():
    host = complete_bipartite(3, 4).graph
    inst = PartiteInstance(Pattern.identity(Graph.from_edges(2, [(0, 1)])), host, blocks([3, 4]))
    assert count_partite_copies(inst) == 12


def test_triangle_into_empty_pair_is_zero():
    inst = PartiteInstance(Pattern.identity(K3), Graph.empty(9), blocks([3, 3, 3]))
    assert count_partite_copies(inst) == 0
    dh, pred = predicted_count(inst, 0.5)
    assert dh == 0 and pred == 0


def test_c4_into_complete_four_partite():
    host = Graph.from_edges(
        8, [(a, b) for a in range(8) for b in range(a + 1, 8) if a // 2 != b // 2]
    )
    pat = Pattern.identity(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))
    inst = PartiteInstance(pat, host, blocks([2, 2, 2, 2]))
    assert count_partite_copies(inst) == 16
    assert brute_force_partite_copies(inst) == 16


def test_adjacent_part_overlap_rejected():
    with pytest.raises(ParameterError):
        PartiteInstance(
            Pattern.identity(K3),
            Graph.empty(6),
            (VertexSet.of([0, 1]), VertexSet.of([1, 2]), VertexSet.of([4, 5])),
        )


def test_nonadjacent_parts_may_overlap_injectivity_enforced():
    # pattern: two disjoint edges 0-1 and 2-3; parts of 0 and 2 coincide
    pat = Pattern.identity(Graph.from_edges(4, [(0, 1), (2, 3)]))
    host = complete_bipartite(2, 4).graph  # left {0,1}, right {2..5}
    parts = (VertexSet.of([0, 1]), VertexSet.of([2, 3]), VertexSet.of([0, 1]), VertexSet.of([4, 5]))
    inst = PartiteInstance(pat, host, parts)
    assert count_partite_copies(inst) == brute_force_partite_copies(inst) == 8


def test_count_matches_brute_force_random(rnd):
    for _ in range(12):
        m = rnd.randint(2, 4)
        pat_edges = [e for e in itertools.combinations(range(m), 2) if rnd.random() < 0.7]
        pat = Pattern.identity(Graph.from_edges(m, pat_edges))
        sizes = [rnd.randint(1, 4) for _ in range(m)]
        host = random_host(sum(sizes), 0.5, rnd.randint(0, 999))
        inst = PartiteInstance(pat, host, blocks(sizes))
        assert count_partite_copies(inst) == brute_force_partite_copies(inst)


def test_flat_last_level_matches_brute_force():
    # random patterns, orders and parts on 1-4 vertices; parts of
    # non-adjacent vertices may overlap, so the last level must stay injective
    rnd = random.Random(19)
    seen = {"adjacent": 0, "overlapping": 0}
    for m in range(1, 5):
        for _ in range(100):
            edges = [e for e in itertools.combinations(range(m), 2) if rnd.random() < 0.6]
            order = tuple(rnd.sample(range(m), m))
            host = random_host(8, 0.6, rnd.randint(0, 999))
            parts = tuple(VertexSet.of(rnd.sample(range(8), rnd.randint(1, 4))) for _ in range(m))
            try:
                inst = PartiteInstance(Pattern(Graph.from_edges(m, edges), order), host, parts)
            except ParameterError:  # adjacent vertices with overlapping parts
                continue
            assert count_partite_copies(inst) == brute_force_partite_copies(inst), (edges, order, parts)
            if m > 1:
                u, v = order[-2:]
                if inst.pattern.graph.has_edge(u, v):
                    seen["adjacent"] += 1
                elif parts[u].mask & parts[v].mask:
                    seen["overlapping"] += 1
    assert min(seen.values()) >= 20, seen


def complete_multipartite(parts, n):
    """Host on n vertices with every edge between two different ``parts``."""
    rows = [0] * n
    every = sum(part.mask for part in parts)
    for part in parts:
        for v in part:
            rows[v] = every & ~part.mask
    return Graph._trusted(n, tuple(rows))


@pytest.fixture
def batch_sizes(monkeypatch):
    """Nodes per flushed batch of the last level, in flush order."""
    sizes = []
    flush = embeddings._LastEdge._flush

    def spy(edge):
        sizes.append(len(edge._cands))
        flush(edge)

    monkeypatch.setattr(embeddings._LastEdge, "_flush", spy)
    return sizes


@pytest.mark.parametrize("per_batch, expected", [(1, [1] * 5), (2, [2, 2, 1]), (3, [3, 2])])
def test_last_level_batches_flush_when_full_and_after_the_recursion(
    monkeypatch, batch_sizes, per_batch, expected
):
    # every second-level node of a triangle in a complete tripartite host has
    # the whole middle part as candidates, so each node adds the same load
    parts = blocks([5, 4, 6])
    host = complete_multipartite(parts, 15)
    probe = embeddings._LastEdge(host.rows, parts[1], parts[2])
    load = probe._node_bytes + len(parts[1]) * probe._pair_bytes
    monkeypatch.setattr(embeddings, "PARTITE_BATCH_BYTES", per_batch * load)
    assert count_partite_copies(PartiteInstance(Pattern.identity(K3), host, parts)) == 5 * 4 * 6
    assert batch_sizes == expected


@pytest.mark.parametrize("batch_bytes", [1, 600, 1 << 16])
def test_last_level_on_scattered_and_wide_parts_matches_brute_force(monkeypatch, batch_bytes):
    # parts interleave and skip vertices, several spans are far wider than
    # their parts, and the last part's span needs more than one 64-bit word
    monkeypatch.setattr(embeddings, "PARTITE_BATCH_BYTES", batch_bytes)
    rnd = random.Random(batch_bytes)
    host = random_host(300, 0.5, 23)
    part_sets = [
        (VertexSet.of(range(1, 30, 2)), VertexSet.of(range(0, 30, 4)), VertexSet.of([2, 6, 130, 299])),
        (VertexSet.of([2, 150, 298]), VertexSet.of(range(9, 290, 23)), VertexSet.of([0, 70, 71, 200])),
    ]
    c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    counted = 0
    for a, b, c in part_sets:
        fourth = VertexSet.of(rnd.sample(range(300), 6))
        while fourth.mask & (a.mask | c.mask):
            fourth = VertexSet.of(rnd.sample(range(300), 6))
        for pattern, parts in [
            (Pattern.identity(K3), (a, b, c)),
            (Pattern(K3, (2, 0, 1)), (a, b, c)),
            (Pattern.identity(c4), (a, b, c, fourth)),
            (Pattern(c4, (1, 2, 0, 3)), (a, b, c, fourth)),
        ]:
            inst = PartiteInstance(pattern, host, parts)
            assert count_partite_copies(inst) == brute_force_partite_copies(inst), (pattern, parts)
            counted += 1
    assert counted == 8


def test_last_level_batch_total_is_exact_beyond_2_pow_24(monkeypatch, batch_sizes):
    monkeypatch.setattr(embeddings, "PARTITE_BATCH_BYTES", 1 << 40)  # one batch
    parts = blocks([65, 512, 512])
    host = complete_multipartite(parts, 65 + 512 + 512)
    count = count_partite_copies(PartiteInstance(Pattern.identity(K3), host, parts))
    assert count == 65 * 512 * 512 > 2**24
    assert batch_sizes == [65]


def test_count_on_a_large_sparse_host_never_unpacks_it():
    # small parts far apart in a 20,000-vertex host: the count must work
    # on the parts' spans alone, never on the host's n x n matrix
    rnd = random.Random(20000)
    n = 20000
    parts = tuple(
        VertexSet.of(rnd.sample(range(5000 * i, 5000 * (i + 1)), 9)) for i in range(4)
    )
    edges = {
        (u, v)
        for i, j in itertools.combinations(range(4), 2)
        for u in parts[i]
        for v in parts[j]
        if rnd.random() < 0.6
    }
    edges |= {tuple(sorted(rnd.sample(range(n), 2))) for _ in range(3000)}
    host = Graph.from_edges(n, edges)
    for pattern in (Pattern.identity(complete_graph(4)), Pattern(complete_graph(4), (3, 1, 0, 2))):
        inst = PartiteInstance(pattern, host, parts)
        assert count_partite_copies(inst) == brute_force_partite_copies(inst)
    suffix = SuffixInstance(inst, 3, dict(enumerate(parts)))  # the whole pattern
    assert suffix_count(suffix) == count_partite_copies(inst)
    assert "_bool_cache" not in host.__dict__


def test_order_invariance(rnd):
    host = random_host(9, 0.5, 77)
    parts = blocks([3, 3, 3])
    counts = {
        count_partite_copies(PartiteInstance(Pattern(K3, seq), host, parts))
        for seq in itertools.permutations(range(3))
    }
    assert len(counts) == 1


def test_part_growth_monotonicity(rnd):
    host = random_host(12, 0.5, 5)
    small = PartiteInstance(Pattern.identity(K3), host, blocks([3, 4, 4]))
    grown = PartiteInstance(
        Pattern.identity(K3),
        host,
        (VertexSet.range(0, 3), VertexSet.range(3, 7), VertexSet.range(7, 12)),
    )
    assert count_partite_copies(grown) >= count_partite_copies(small)


def test_predicted_count_examples():
    host = complete_bipartite(3, 4).graph
    inst = PartiteInstance(Pattern.identity(Graph.from_edges(2, [(0, 1)])), host, blocks([3, 4]))
    dh, pred = predicted_count(inst, 1.0)
    assert dh == pytest.approx(1.0) and pred == pytest.approx(12.0)
    with pytest.raises(ParameterError):
        predicted_count(
            PartiteInstance(Pattern.identity(K3), Graph.empty(6), (VertexSet.of([0]), VertexSet.of([1]), VertexSet.of([]))),
            0.5,
        )


def test_counting_window_audit_trivial_equality():
    host = complete_bipartite(4, 4).graph
    inst = PartiteInstance(Pattern.identity(Graph.from_edges(2, [(0, 1)])), host, blocks([4, 4]))
    rep = counting_window_audit(inst, 1.0, 0.0, side="two_sided")
    assert rep.verdict == "pass" and rep.measured == 16


def test_counting_window_audit_emptied_pair_lower():
    inst = PartiteInstance(Pattern.identity(K3), Graph.empty(9), blocks([3, 3, 3]))
    rep = counting_window_audit(inst, 0.5, 0.1, side="lower")
    assert rep.verdict == "pass"  # density product 0 <= gamma


def test_counting_window_audit_seeded_triangles():
    sys3 = sparsify(gen_tripartite(200, 200, 200, 0.2, seed=3), 0.5, seed=4)
    inst = PartiteInstance(Pattern.identity(K3), sys3.sub, (sys3.x, sys3.y, sys3.z))
    dh, _ = predicted_count(inst, 0.2)
    rep = counting_window_audit(inst, 0.2, 0.1 * dh, side="two_sided", seed=5)
    assert rep.verdict == "pass"


def test_suffix_count_examples():
    host = random_host(9, 0.6, 8)
    inst = PartiteInstance(Pattern.identity(K3), host, blocks([3, 3, 3]))
    last = SuffixInstance(inst, 2, {2: VertexSet.of([6, 7])})
    assert suffix_count(last) == 2
    full = SuffixInstance(inst, 0, {i: inst.parts[i] for i in range(3)})
    assert suffix_count(full) == count_partite_copies(inst)
    # suffix = single edge: counts edges between the W-sets
    mid = SuffixInstance(inst, 1, {1: inst.parts[1], 2: inst.parts[2]})
    edge_inst = PartiteInstance(
        Pattern.identity(Graph.from_edges(2, [(0, 1)])), host, (inst.parts[1], inst.parts[2])
    )
    assert suffix_count(mid) == count_partite_copies(edge_inst)


def test_suffix_w_set_validation():
    inst = PartiteInstance(Pattern.identity(K3), Graph.empty(9), blocks([3, 3, 3]))
    with pytest.raises(ParameterError):
        SuffixInstance(inst, 1, {1: VertexSet.of([0]), 2: inst.parts[2]})  # outside part
    with pytest.raises(ParameterError):
        SuffixInstance(inst, 1, {1: inst.parts[1]})  # missing W-set


def test_suffix_bound_audit_single_vertex():
    inst = PartiteInstance(Pattern.identity(K3), Graph.empty(9), blocks([3, 3, 3]))
    si = SuffixInstance(inst, 2, {2: inst.parts[2]})
    rep = suffix_bound_audit(si, 0.05, 0.5, beta=0.0, mode="relaxed")
    assert rep.verdict == "pass" and rep.measured == 3 and rep.bound == pytest.approx(3)


def test_suffix_bound_audit_complete_host_hypothesis_gating():
    # a complete host is nowhere near bijumbled at p=0.05: the count exceeds
    # the bound but the report blames the hypotheses, not the statement
    host = complete_bipartite(6, 6).graph
    pat = Pattern.identity(Graph.from_edges(2, [(0, 1)]))
    inst = PartiteInstance(pat, host, blocks([6, 6]))
    si = SuffixInstance(inst, 0, {0: inst.parts[0], 1: inst.parts[1]})
    rep = suffix_bound_audit(si, 0.05, 0.5, mode="strict", seed=0)
    assert rep.verdict == "hypotheses-not-met"
    assert rep.measured == 36 and rep.measured > rep.bound
    beta_rec = next(h for h in rep.hypotheses if h.name == "beta_budget")
    assert not beta_rec.satisfied


def test_suffix_bound_audit_seeded_sparse_hosts():
    rnd = random.Random(0)
    for seed in range(20):
        sysk = gen_tripartite(50, 50, 50, 0.05, seed=seed)
        inst = PartiteInstance(Pattern.identity(K3), sysk.host, (sysk.x, sysk.y, sysk.z))
        w = {
            i: VertexSet.of(rnd.sample(list(inst.parts[i].indices), 25)) for i in range(3)
        }
        si = SuffixInstance(inst, 0, w)
        rep = suffix_bound_audit(si, 0.05, 0.5, mode="relaxed", seed=seed)
        assert rep.measured <= rep.bound


def test_optialpha_examples():
    r = optialpha_check(0.5, [0])
    assert r.lhs_sum == pytest.approx(0.5) and r.bound == pytest.approx(50) and r.holds
    assert r.cap_p == 1 and r.c_exponent == 1 and not r.p_hypothesis_met
    r2 = optialpha_check(0.25, [1])
    assert r2.lhs_sum == pytest.approx(3.0) and r2.bound == pytest.approx(200) and r2.holds
    assert optialpha_check(0.25, [1, 0]).holds


def test_optialpha_validation():
    with pytest.raises(ParameterError):
        optialpha_check(0.25, [])
    with pytest.raises(ParameterError):
        optialpha_check(0.25, [0, 1])  # not nonincreasing
    with pytest.raises(ParameterError):
        optialpha_check(0.25, [1, -1])
    with pytest.raises(CapacityError):
        optialpha_check(2.0 ** -40, [1, 1, 1, 1, 1, 1])


@pytest.mark.parametrize("q", range(1, 8))
def test_optialpha_sum_is_the_loops_sum_bit_for_bit(q):
    # non-dyadic p, so the terms round; p^b stays clear of underflow
    rnd = random.Random(q)
    for _ in range(4):
        cap_p = rnd.randint(1, min(150, round(20000 ** (1 / q)) - 1))
        p = 2.0 ** -(cap_p + rnd.uniform(0.05, 0.95))
        b = sorted((rnd.randint(0, 6) for _ in range(q)), reverse=True)
        assert optialpha_check(p, b).lhs_sum == optialpha_lhs_sum(p, b), (p, b)


OPTIALPHA_CHUNK_CASES = [
    (0.09, [5, 4, 2, 2, 1]),  # 4^5 vectors: below one chunk
    (0.1, [4, 3, 3, 1, 0, 0]),  # 4^6: exactly one chunk
    (0.006, [6, 5, 2, 1]),  # 8^4: exactly one chunk
    (0.11, [6, 4, 4, 3, 2, 1, 1]),  # 4^7: four chunks
    (0.003, [5, 3, 3, 0, 0]),  # 9^5: fifteen chunks, the last one partial
]


def test_optialpha_sum_around_one_chunk():
    sizes = [(int(math.log2(1 / p)) + 1) ** len(b) for p, b in OPTIALPHA_CHUNK_CASES]
    assert sizes == [1024, 4096, 4096, 16384, 59049] and OPTIALPHA_CHUNK == 4096
    for p, b in OPTIALPHA_CHUNK_CASES:
        assert optialpha_check(p, b).lhs_sum == optialpha_lhs_sum(p, b), (p, b)


def test_optialpha_rejects_p_whose_terms_leave_the_double_range():
    with pytest.raises(ParameterError):
        optialpha_check(2.0**-600, [1])  # 2^(2 alpha) overflows
    with pytest.raises(ParameterError):
        optialpha_check(2.0**-400, [3])  # p^3 underflows to 0


def test_optialpha_exhaustive_sweep_small():
    # q <= 2, entries <= 3, dyadic p <= 1/10: the statement is a theorem
    ps = [2.0 ** -k for k in (4, 5, 6)]
    bees = [[b1] for b1 in range(4)] + [
        [b1, b2] for b1 in range(4) for b2 in range(b1 + 1)
    ]
    for p in ps:
        for b in bees:
            assert optialpha_check(p, b).holds, (p, b)
