"""The shared exact-enumeration kernel against the loops it replaced."""

import random

import pytest

from bijumble import _subsets, jumbled, regularity
from bijumble.errors import CapacityError
from bijumble.graphs import Graph, complete_bipartite, pair_on
from bijumble.jumbled import exact_jumble_gamma
from bijumble.regularity import exact_regularity

import reference


def seeded_pair(seed):
    """Random pair with sides 1-8 x 1-13 (larger side left in every third case),
    shuffled labels, extra vertices and edges outside the pair, and densities
    that include the complete and the empty pair."""
    rnd = random.Random(seed)
    small, large = rnd.randint(1, 8), rnd.randint(1, 13)
    m, n = (max(small, large), min(small, large)) if seed % 3 == 0 else (small, large)
    q = [0.0, 1.0, 0.5, rnd.random()][seed % 4]
    labels = list(range(m + n + rnd.randint(0, 3)))
    rnd.shuffle(labels)
    left, right = labels[:m], labels[m:m + n]
    edges = [(u, w) for u in left for w in right if rnd.random() < q]
    edges += [(a, b) for a in labels for b in labels if a < b and rnd.random() < 0.1
              and not ({a, b} & set(left) and {a, b} & set(right))]
    return pair_on(Graph.from_edges(len(labels), edges), left, right), rnd


@pytest.mark.parametrize(
    "chunk,margin", [(_subsets.CHUNK, _subsets.MARGIN), (3, _subsets.MARGIN), (512, 0.0)]
)
@pytest.mark.parametrize("seed", range(40))
def test_kernel_equals_loop_reference(seed, chunk, margin, monkeypatch):
    monkeypatch.setattr(_subsets, "CHUNK", chunk)
    monkeypatch.setattr(_subsets, "MARGIN", margin)
    pr, rnd = seeded_pair(seed)
    k = min(len(pr.left), len(pr.right))
    epsilons = [0.5, 0.2, rnd.uniform(0.01, 0.99)] + ([rnd.randint(1, k - 1) / k] if k > 1 else [])
    for p in (0.5, 1.0, 0.3):
        got, want = exact_jumble_gamma(pr, p), reference.exact_jumble_gamma(pr, p)
        assert got == want and got.to_record() == want.to_record()
        for eps in epsilons:
            got, want = exact_regularity(pr, eps, p), reference.exact_regularity(pr, eps, p)
            assert got == want and got.to_record() == want.to_record()


def test_capacity_error_before_any_enumeration(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("enumeration started")

    for module in (_subsets, jumbled, regularity):
        monkeypatch.setattr(module, "scan", refuse)
    for module in (jumbled, regularity):
        monkeypatch.setattr(module, "pair_block", refuse)
    pr = complete_bipartite(30, 23)
    with pytest.raises(CapacityError):
        exact_jumble_gamma(pr, 0.5)
    with pytest.raises(CapacityError):
        exact_regularity(pr, 0.01, 0.5)


def test_within_cap_and_auto_method_agree_with_the_exact_sum():
    for n in range(1, 41):
        for smallest in range(1, n + 2):
            assert _subsets.within_cap(n, smallest) == (
                _subsets.subset_budget(n, smallest) <= _subsets.DEFAULT_ENUM_CAP
            ), (n, smallest)
        for eps in (0.05, 0.2, 0.35, 0.5, 0.8, 0.95):
            fits = _subsets.regularity_budget((n, 41), eps) <= _subsets.DEFAULT_ENUM_CAP
            assert regularity._auto_method(complete_bipartite(n, 41), eps) == ("exact" if fits else "sampled")


def test_budget_helpers():
    assert _subsets.subset_budget(4, 1) == 15
    assert _subsets.subset_budget(4, 3) == 5
    assert _subsets.min_size(0.2, 15) == 3  # 0.2 * 15 is 3.0000000000000004 in floats
    assert _subsets.regularity_budget((10, 4), 0.5) == 11
