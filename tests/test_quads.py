import math
import random

import pytest

from bijumble.errors import ParameterError
from bijumble.graphs import Graph, complete_bipartite, pair_on, perfect_matching
from bijumble.quads import (
    c4_dense_irregular_audit,
    c4_partition_by_class,
    c4_regular_bijumbled_audit,
    classify_pairs,
    count_c4,
    cs_defect_check,
)
from bijumble.experiments import gen_bipartite, gen_tripartite, plant_irregular_block, sparsify
from conftest import bipartite_from_mask, random_pair
from reference import brute_force_c4


def test_count_c4_closed_forms():
    for m, n in ((3, 3), (4, 5), (2, 6)):
        assert count_c4(complete_bipartite(m, n)) == math.comb(m, 2) * math.comb(n, 2)
    assert count_c4(perfect_matching(5)) == 0


def test_count_c4_c8_has_none():
    # an 8-cycle laid out as a 4x4 pair contains no quadrilateral
    c8 = Graph.from_edges(8, [(0, 4), (4, 1), (1, 5), (5, 2), (2, 6), (6, 3), (3, 7), (7, 0)])
    pr = pair_on(c8, range(4), range(4, 8))
    assert brute_force_c4(pr) == 0
    assert count_c4(pr) == 0


def test_count_c4_matches_brute_force_exhaustive_2x3():
    for mask in range(1 << 6):
        pr = bipartite_from_mask(2, 3, mask)
        assert count_c4(pr) == brute_force_c4(pr)


def test_count_c4_matches_brute_force_random(rnd):
    for _ in range(20):
        pr = random_pair(rnd, rnd.randint(2, 8), rnd.randint(2, 8), rnd.random())
        assert count_c4(pr) == brute_force_c4(pr)


def test_classify_pairs_examples():
    census = classify_pairs(perfect_matching(3), 1 / 3, 0.5)
    assert (census.typical, census.bad, census.heavy) == (3, 0, 0)
    census = classify_pairs(complete_bipartite(3, 3), 1 / 3, 0.5)
    assert (census.typical, census.bad, census.heavy) == (0, 0, 3)
    census = classify_pairs(complete_bipartite(3, 3), 1.0, 0.5)
    assert (census.typical, census.bad, census.heavy) == (3, 0, 0)
    with pytest.raises(ParameterError):
        classify_pairs(perfect_matching(3), 0.0, 0.5)


def test_class_partition_exhaustive_and_exclusive(rnd):
    for _ in range(15):
        m = rnd.randint(2, 7)
        pr = random_pair(rnd, m, rnd.randint(2, 7), rnd.random())
        census = classify_pairs(pr, rnd.choice([0.2, 0.5, 0.9]), rnd.choice([0.3, 1.0]))
        assert census.total_pairs == math.comb(m, 2)


def test_threshold_monotonicity(rnd):
    for _ in range(10):
        pr = random_pair(rnd, 6, 6, 0.6)
        t_prev = -1
        for delta in (0.1, 0.5, 1.0, 2.0):
            t = classify_pairs(pr, 0.4, delta).typical
            assert t >= t_prev
            t_prev = t
        t_prev = -1
        for q in (0.2, 0.4, 0.6, 0.8):
            t = classify_pairs(pr, q, 0.5).typical
            assert t >= t_prev
            t_prev = t


def test_c4_partition_sums_to_total(rnd):
    for _ in range(10):
        pr = random_pair(rnd, rnd.randint(3, 8), rnd.randint(3, 8), 0.6)
        parts = c4_partition_by_class(pr, 0.4, 0.5)
        assert parts.through_heavy + parts.through_bad + parts.through_typical == parts.total
        assert parts.total == count_c4(pr)


def test_c4_partition_examples_and_heavy_bound():
    parts = c4_partition_by_class(perfect_matching(4), 0.3, 0.5)
    assert parts.total == 0
    parts = c4_partition_by_class(complete_bipartite(3, 3), 1 / 3, 0.5)
    assert parts.through_heavy == parts.total == 9
    # seeded sparse pair in a pseudorandom regime: heavy C4 mass under bound
    pr = gen_bipartite(300, 300, 0.1, seed=4)
    from bijumble.jumbled import spectral_jumble_bound

    cert = spectral_jumble_bound(pr, 0.1)
    c_prime = cert.c_prime(1.0, 300, 300)
    parts = c4_partition_by_class(pr, 0.1, 0.5, p=0.1, c_prime=c_prime)
    assert parts.heavy_within_bound
    assert parts.degree_hypothesis_ok is not None


def test_cs_defect_examples():
    r = cs_defect_check([1, 1, 3, 3], 2, 0.5, 0.5)
    assert r.lhs == pytest.approx(20) and r.rhs == pytest.approx(20)
    assert r.holds and r.hypotheses_met
    r2 = cs_defect_check([2.0] * 7, 2.0, 0.0, 0.0)
    assert r2.lhs == pytest.approx(r2.rhs) and r2.holds and r2.hypotheses_met
    with pytest.raises(ParameterError):
        cs_defect_check([], 1, 0.1, 0.5)
    with pytest.raises(ParameterError):
        cs_defect_check([1.0], 1, 0.1, 1.0)


def test_cs_defect_theorem_on_seeded_instances():
    rnd = random.Random(99)
    failures = 0
    for _ in range(2000):
        k = rnd.randint(2, 40)
        values = [rnd.random() * rnd.choice([1, 5, 20]) for _ in range(k)]
        mean = sum(values) / k
        a = mean * (1 - rnd.random() * 0.3)
        mu = rnd.random() * 0.9
        need = math.ceil(mu * k)
        if need:
            top = sum(sorted(values)[-need:]) / need
            delta = max(0.0, (top / a - 1)) * rnd.random() if a > 0 else 0.0
        else:
            delta = rnd.random()
        r = cs_defect_check(values, a, delta, mu)
        if r.hypotheses_met and not r.holds:
            failures += 1
    assert failures == 0


def test_dense_irregular_audit_strict_reports_hypotheses_not_met():
    pr = gen_bipartite(100, 100, 0.3, seed=1)
    report = c4_dense_irregular_audit(pr, 1e-3, mode="strict")
    assert report.verdict == "hypotheses-not-met"
    names = {h.name for h in report.hypotheses}
    assert "size_floor" in names and "density_floor" in names


def test_dense_irregular_audit_relaxed_trend():
    # eps large enough that the sampled search finds no witness: dense branch
    pr = gen_bipartite(500, 500, 0.3, seed=2)
    report = c4_dense_irregular_audit(pr, 0.35, mode="relaxed", dense_slack=0.1, seed=3)
    assert report.verdict == "pass"
    assert report.parameters["branch"] == "dense"
    assert report.parameters["ratio_to_base"] == pytest.approx(1.0, abs=0.1)


def test_dense_irregular_audit_planted_block_exceeds_base():
    # planted irregularity raises the codegree second moment: ratio > 1
    sys64 = sparsify(gen_tripartite(64, 64, 64, 0.5, seed=6), 0.5, seed=7)
    planted = plant_irregular_block(sys64, ("Y", "Z"), 0.5, 1.0, seed=8)
    pr = planted.pair("Y", "Z")
    report = c4_dense_irregular_audit(pr, 0.25, mode="relaxed", irregular_slack=0.0, seed=9)
    assert report.parameters["ratio_to_base"] > 1.0
    assert report.verdict == "pass"
    assert report.parameters["branch"] == "irregular"


def test_regular_bijumbled_audit_complete_pair():
    pr = complete_bipartite(30, 30)
    report = c4_regular_bijumbled_audit(pr, 0.01, 1.0, 1.0, mode="relaxed", seed=0)
    assert report.verdict == "pass"
    lo, hi = report.bound
    assert lo <= math.comb(30, 2) ** 2 <= hi


def test_regular_bijumbled_audit_empty_pair_zero_window():
    pr = pair_on(Graph.empty(20), range(10), range(10, 20))
    report = c4_regular_bijumbled_audit(pr, 0.1, 0.0, 0.5, c=0.0, mode="relaxed", seed=0)
    assert report.verdict == "pass"
    assert report.measured == 0


def test_regular_bijumbled_audit_seeded_subgraph():
    pr = gen_bipartite(400, 400, 0.2, seed=12)
    report = c4_regular_bijumbled_audit(pr, 0.25, 1.0, 0.2, mode="relaxed", trials=40, seed=13)
    assert report.verdict == "pass"
    strict = c4_regular_bijumbled_audit(pr, 0.25, 1.0, 0.2, mode="strict", trials=40, seed=13)
    assert strict.verdict == "hypotheses-not-met"  # sampled regularity is uncertified
