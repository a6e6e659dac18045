"""The codegree kernel and everything built on it against the bit-row loops it replaced."""

import dataclasses
import itertools
import random

import numpy as np
import pytest

from bijumble.experiments import bad_pair_bounds_audit, make_system, plant_irregular_block
from bijumble.graphs import (
    Graph,
    TripartiteSystem,
    VertexSet,
    codegree,
    complete_bipartite,
    empty_pair,
    pair_on,
)
from bijumble.quads import c4_partition_by_class, classify_pairs, codegrees, count_c4

import reference


def assert_same(got, want):
    assert got == want
    # same Python scalar types, so the serialised reports match byte for byte
    assert [type(v) for v in dataclasses.astuple(got)] == [type(v) for v in dataclasses.astuple(want)]


def assert_census_same(pr, q, delta, p=None, c_prime=None):
    got, want = count_c4(pr), reference.count_c4(pr)
    assert got == want and type(got) is int
    assert_same(classify_pairs(pr, q, delta), reference.classify_pairs(pr, q, delta))
    got = c4_partition_by_class(pr, q, delta, p, c_prime)
    assert_same(got, reference.c4_partition_by_class(pr, q, delta, p, c_prime))
    return got


def seeded_pair(seed, m=None, n=None):
    """Random pair with sides 0-12 x 0-16 (unless given), shuffled
    non-contiguous labels, extra vertices and edges outside the pair, and
    densities that include the complete and the empty pair."""
    rnd = random.Random(seed)
    m = rnd.randint(0, 12) if m is None else m
    n = rnd.randint(0, 16) if n is None else n
    q = [0.0, 1.0, 0.5, rnd.random()][seed % 4]
    labels = list(range(m + n + rnd.randint(0, 5)))
    rnd.shuffle(labels)
    left, right = labels[:m], labels[m:m + n]
    edges = [(u, w) for u in left for w in right if rnd.random() < q]
    edges += [(a, b) for a in labels for b in labels if a < b and rnd.random() < 0.2
              and not ({a, b} & set(left) and {a, b} & set(right))]
    return pair_on(Graph.from_edges(len(labels), edges), left, right), rnd


def test_codegrees_row_major():
    pr, _ = seeded_pair(3, 9, 14)
    got = codegrees(pr.graph, pr.left, pr.right)
    want = [codegree(u, v, pr.right, pr.graph) for u, v in itertools.combinations(pr.left.indices, 2)]
    assert got.dtype == np.int64 and got.tolist() == want


@pytest.mark.parametrize("seed", range(40))
def test_census_equals_loop_reference(seed):
    pr, rnd = seeded_pair(seed)
    for q, delta in ((0.5, 0.5), (rnd.uniform(0.05, 1.0), rnd.uniform(0.01, 2.0)), (1.0, 0.1)):
        assert_census_same(pr, q, delta)
        assert_census_same(pr, q, delta, p=rnd.uniform(0.05, 0.8), c_prime=rnd.uniform(0.0, 0.2))


def test_hypothesis_flags_take_both_values():
    seen = set()
    for seed in range(40):
        pr, rnd = seeded_pair(seed, 6, 10)
        for p, c_prime in ((0.2, 0.01), (0.6, 0.5), (rnd.uniform(0.05, 0.8), rnd.uniform(0.0, 0.2))):
            got = assert_census_same(pr, 0.5, 0.5, p, c_prime)
            seen.add((got.heavy_within_bound, got.degree_hypothesis_ok))
    assert {v for v, _ in seen} == {True, False}
    assert {v for _, v in seen} == {True, False}


@pytest.mark.parametrize("m,n", [(0, 5), (1, 5), (2, 5), (0, 0), (1, 0), (2, 0), (5, 0)])
def test_small_and_empty_sides(m, n):
    for pr in (complete_bipartite(m, n), empty_pair(m, n), seeded_pair(m * 17 + n, m, n)[0]):
        assert_census_same(pr, 0.5, 0.5)
        assert_census_same(pr, 0.3, 1.0, p=0.4, c_prime=0.1)
    assert count_c4(complete_bipartite(2, 5)) == 10


@pytest.mark.parametrize("m,n", [(1, 1), (4, 4), (7, 3), (3, 9)])
def test_complete_and_empty_pairs(m, n):
    for pr in (complete_bipartite(m, n), empty_pair(m, n)):
        for q, delta in ((1.0, 0.5), (0.5, 0.5), (0.2, 3.0)):
            assert_census_same(pr, q, delta, p=0.5, c_prime=0.05)


def test_thresholds_on_integer_codegrees():
    # q = 0.5, |V| = 8: heavy at 4 q^2 |V| = 8.0, bad at (1 + delta) q^2 |V|,
    # which is 3.0 for delta = 0.5 and 4.0 for delta = 1.0
    v = list(range(4, 12))
    rows = [v, v, v[:3], v[:2] + v[5:]]
    g = Graph.from_edges(12, [(u, w) for u, row in enumerate(rows) for w in row])
    pr = pair_on(g, range(4), v)
    assert codegrees(g, pr.left, pr.right).tolist() == [8, 3, 5, 3, 5, 2]
    census = classify_pairs(pr, 0.5, 0.5)
    assert (census.heavy, census.bad, census.typical) == (1, 4, 1)
    census = classify_pairs(pr, 0.5, 1.0)
    assert (census.heavy, census.bad, census.typical) == (1, 2, 3)
    for delta in (0.5, 1.0):
        got = assert_census_same(pr, 0.5, delta, p=0.5, c_prime=0.1)
        assert got.degree_hypothesis_ok  # degree 8 against 2 p |V| = 8.0
    assert assert_census_same(pr, 0.5, 0.5, p=0.499, c_prime=0.1).degree_hypothesis_ok is False


def relabelled(system, seed):
    """The same system on shuffled vertex labels with isolated extra vertices."""
    rnd = random.Random(seed)
    n = system.host.vertex_count
    labels = list(range(n + rnd.randint(0, 6)))
    rnd.shuffle(labels)

    def move(g):
        return Graph.from_edges(len(labels), ((labels[u], labels[v]) for u, v in g.edges()))

    def part(vs):
        return VertexSet.of(labels[v] for v in vs)

    return TripartiteSystem(
        move(system.host), move(system.sub), part(system.x), part(system.y), part(system.z)
    )


@pytest.mark.parametrize("seed", range(12))
def test_bad_pair_totals_equal_loop_reference(seed):
    rnd = random.Random(seed)
    nx, ny, nz = rnd.randint(1, 8), rnd.randint(2, 14), [16, rnd.randint(1, 16)][seed % 2]
    p = [0.5, rnd.uniform(0.2, 0.8)][seed % 2]
    d = [0.5, rnd.uniform(0.3, 0.9)][seed % 2]
    delta = [1.0, rnd.uniform(0.05, 1.5)][seed % 2]  # threshold exactly 2.0 on even seeds
    base = make_system(nx, ny, nz, p, d, seed)
    planted = plant_irregular_block(base, ("Y", "Z"), 0.5, 1.0, seed + 100)
    for system in (base, planted, relabelled(planted, seed)):
        many, few = reference.bad_pair_totals(system, d, p, delta)
        for direction, want in (("many", many), ("few", few)):
            report = bad_pair_bounds_audit(
                system, d, 0.25, delta, 0.25, direction=direction, p=p, mode="relaxed", seed=seed
            )
            assert report.measured == want and type(report.measured) is int


def test_planted_systems_have_bad_pairs():
    totals = []
    for seed in range(6):
        base = make_system(8, 14, 16, 0.5, 0.5, seed)
        planted = plant_irregular_block(base, ("Y", "Z"), 0.5, 1.0, seed + 100)
        totals.append(reference.bad_pair_totals(planted, 0.5, 0.5, 1.0))
        for direction, want in zip(("many", "few"), totals[-1]):
            report = bad_pair_bounds_audit(
                planted, 0.5, 0.25, 1.0, 0.25, direction=direction, p=0.5, mode="relaxed", seed=seed
            )
            assert report.measured == want
    assert all(many > 0 and few > 0 for many, few in totals)


def test_few_total_beyond_float32_range():
    # G = host, complete between Y and Z and between X and Z, random at 0.9
    # between X and Y, with |X|, |Y|, |Z| = 1200, 400, 2: every pair of Y is bad
    # (codegree 2 against a threshold of 0.25), so the few total is the sum of
    # C(deg(u; Y), 2) over X, beyond the integers float32 holds exactly
    rnd = random.Random(5)
    nx, ny, nz = 1200, 400, 2
    x, y, z = range(nx), range(nx, nx + ny), range(nx + ny, nx + ny + nz)
    xy = [(u, w) for u, w in itertools.product(x, y) if rnd.random() < 0.9]
    edges = xy + list(itertools.product(x, z)) + list(itertools.product(y, z))
    g = Graph.from_edges(nx + ny + nz, edges)
    system = TripartiteSystem(g, g, VertexSet.of(x), VertexSet.of(y), VertexSet.of(z))
    degrees = [g.degree(u, system.y.mask) for u in x]
    want = (ny * (ny - 1) // 2, sum(k * (k - 1) // 2 for k in degrees))
    assert want[1] > 1 << 24
    for direction, value in zip(("many", "few"), want):
        report = bad_pair_bounds_audit(
            system, 0.5, 0.25, 1.0, 0.25, direction=direction, p=0.5, mode="relaxed", trials=3
        )
        assert report.measured == value and type(report.measured) is int
