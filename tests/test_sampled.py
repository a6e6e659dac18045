"""The batched sampled regularity search against the per-trial loop it replaced,
and the subset draws the two share."""

import random
from collections import Counter

import pytest

from bijumble import regularity
from bijumble.errors import ParameterError
from bijumble.experiments import gen_bipartite
from bijumble.graphs import Graph, complete_bipartite, empty_pair, pair_on
from bijumble.regularity import draw_subsets, sampled_regularity

import reference


def assert_same(pr, epsilon, p, trials, seed):
    got = sampled_regularity(pr, epsilon, p, trials, seed)
    want = reference.sampled_regularity(pr, epsilon, p, trials, seed)
    assert got == want and got.to_record() == want.to_record()
    # same Python/numpy scalar types, so the serialised reports match byte for byte
    assert type(got.deviation) is type(want.deviation)
    assert type(got.regular) is type(want.regular)
    assert type(got.worst_witness[2]) is type(want.worst_witness[2])


def seeded_pair(seed):
    """Random pair with sides 1-30 x 1-60, shuffled non-contiguous labels,
    extra vertices and edges outside the pair; every fourth pair draws its
    edges from a few degree classes, so many columns share a degree."""
    rnd = random.Random(seed)
    m, n = rnd.randint(1, 30), rnd.randint(1, 60)
    labels = list(range(m + n + rnd.randint(0, 10)))
    rnd.shuffle(labels)
    left, right = labels[:m], labels[m:m + n]
    q = rnd.random()
    if seed % 4 == 0:
        rate = {w: rnd.choice((0.0, 0.5, 1.0)) for w in right}
        edges = [(u, w) for u in left for w in right if rnd.random() < rate[w]]
    else:
        edges = [(u, w) for u in left for w in right if rnd.random() < q]
    edges += [(a, b) for a in labels for b in labels if a < b and rnd.random() < 0.05
              and not ({a, b} & set(left) and {a, b} & set(right))]
    return pair_on(Graph.from_edges(len(labels), edges), left, right), rnd


@pytest.mark.parametrize("seed", range(60))
def test_batched_equals_loop_reference(seed):
    pr, rnd = seeded_pair(seed)
    eps = rnd.choice((0.1, 0.25, 0.5, rnd.uniform(0.01, 0.99)))
    p = rnd.choice((1.0, 0.5, 0.3))
    trials = rnd.choice((1, 2, 7, 12))
    assert_same(pr, eps, p, trials, seed)
    assert_same(pr.swapped(), eps, p, trials, seed)


def test_batched_edge_cases():
    pr, _ = seeded_pair(7)
    assert_same(pr, 0.999, 0.5, 5, 1)  # su = |U| and sw = |W|
    assert_same(pr, 0.001, 0.5, 5, 2)  # |U'| = |W'| = 1
    assert_same(pair_on(pr.graph, pr.left.indices[:1], pr.right.indices), 0.3, 0.5, 4, 3)
    assert_same(pair_on(pr.graph, pr.left.indices, pr.right.indices[:1]), 0.3, 0.5, 4, 3)
    for seed in range(5):
        assert_same(complete_bipartite(9, 14), 0.3, 1.0, 6, seed)
        assert_same(complete_bipartite(9, 14), 0.3, 0.4, 6, seed)
        assert_same(empty_pair(11, 5), 0.2, 0.5, 6, seed)


def test_batched_many_trials_across_blocks(monkeypatch):
    pr = gen_bipartite(80, 200, 0.3, seed=4)
    assert_same(pr, 0.25, 0.3, 200, 5)
    # several trials per block and one trial per block give the same answer
    monkeypatch.setattr(regularity, "TRIAL_BLOCK_BYTES", 3 * 20 * 200)  # |U'| = 20, |W| = 200
    assert_same(pr, 0.25, 0.3, 200, 5)
    monkeypatch.setattr(regularity, "TRIAL_BLOCK_BYTES", 1)
    assert_same(pr, 0.25, 0.3, 200, 5)


def test_draw_subsets_rows_are_seeded_uniform_subsets():
    for n_u, su, n_w, sw, trials in ((1, 1, 1, 1, 1), (7, 7, 30, 1, 5), (40, 13, 9, 4, 12)):
        us, ws = draw_subsets(n_u, su, n_w, sw, trials, seed=11)
        for rows, n, s in ((us, n_u, su), (ws, n_w, sw)):
            assert rows.shape == (trials, s)
            for row in rows.tolist():
                assert len(set(row)) == s and all(0 <= v < n for v in row)
        again = draw_subsets(n_u, su, n_w, sw, trials, seed=11)
        assert (again[0] == us).all() and (again[1] == ws).all()
    # U' rows come first on the stream: W' draws do not move them
    assert (draw_subsets(40, 13, 9, 4, 12, 5)[0] == draw_subsets(40, 13, 20, 4, 12, 5)[0]).all()
    # all 10 two-subsets of 5 positions, 4000 draws: each near 400 (sd 19)
    us, _ = draw_subsets(5, 2, 1, 1, 4000, seed=3)
    counts = Counter(tuple(sorted(row)) for row in us.tolist())
    assert len(counts) == 10 and all(300 < c < 500 for c in counts.values())
    with pytest.raises(ParameterError, match="seed -1"):
        draw_subsets(5, 2, 5, 2, 3, seed=-1)
    with pytest.raises(ParameterError, match="seed -5"):
        sampled_regularity(complete_bipartite(3, 3), 0.5, 1.0, 2, seed=-5)
