import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bijumble import jumbled
from bijumble.cli import run_cli
from bijumble.errors import BijumbleError, CapacityError, ParameterError
from bijumble.graphs import (
    Graph,
    complete_bipartite,
    empty_pair,
    pair_block,
    pair_on,
    perfect_matching,
)
from bijumble.jumbled import (
    degree_outlier_census,
    exact_jumble_gamma,
    min_size_bound,
    search_jumble_violation,
    spectral_jumble_bound,
)
from conftest import bipartite_from_mask, random_pair
import reference
from reference import naive_jumble_gamma


def test_exact_matching_example():
    cert = exact_jumble_gamma(perfect_matching(3), 1 / 3)
    assert cert.gamma == pytest.approx(2 / 3)
    assert cert.method == "exact" and cert.sound_upper
    u, v = cert.witness
    assert len(u) == 1 and len(v) == 1
    assert v.indices[0] == u.indices[0] + 3  # the matched partner


def test_exact_complete_and_empty():
    assert exact_jumble_gamma(complete_bipartite(3, 3), 1.0).gamma == 0.0
    cert = exact_jumble_gamma(empty_pair(3, 3), 0.5)
    assert cert.gamma == pytest.approx(1.5)
    assert len(cert.witness[0]) == 3 and len(cert.witness[1]) == 3


def test_exact_witness_attains_gamma():
    rnd = random.Random(1)
    for _ in range(15):
        pr = random_pair(rnd, rnd.randint(2, 5), rnd.randint(2, 5), 0.5)
        p = rnd.choice([0.2, 0.5, 0.8])
        cert = exact_jumble_gamma(pr, p)
        u, v = cert.witness
        e = sum(
            1 for a in u for b in v if pr.graph.has_edge(a, b)
        )
        disc = abs(e - p * len(u) * len(v)) / math.sqrt(len(u) * len(v))
        assert disc == pytest.approx(cert.gamma)


def test_exact_equals_naive_oracle_exhaustive_3x3():
    # every 3x3 bipartite graph (512 of them)
    for mask in range(1 << 9):
        pr = bipartite_from_mask(3, 3, mask)
        for p in (0.3, 0.5):
            assert exact_jumble_gamma(pr, p).gamma == pytest.approx(
                naive_jumble_gamma(pr, p)[0]
            )


def test_exact_equals_naive_oracle_random_larger(rnd):
    for _ in range(10):
        pr = random_pair(rnd, rnd.randint(4, 5), rnd.randint(4, 5), rnd.random())
        p = rnd.choice([0.25, 0.5, 0.75])
        assert exact_jumble_gamma(pr, p).gamma == pytest.approx(naive_jumble_gamma(pr, p)[0])


def test_exact_capacity_error():
    with pytest.raises(CapacityError):
        exact_jumble_gamma(complete_bipartite(30, 30), 0.5)


def test_spectral_examples():
    assert spectral_jumble_bound(complete_bipartite(4, 6), 1.0).gamma < 1e-10
    assert spectral_jumble_bound(perfect_matching(3), 1 / 3).gamma == pytest.approx(1.0, abs=1e-8)
    assert spectral_jumble_bound(empty_pair(3, 3), 0.5).gamma == pytest.approx(1.5, abs=1e-8)


def test_spectral_matches_svd_oracle(rnd):
    for _ in range(10):
        m, n = rnd.randint(2, 6), rnd.randint(2, 6)
        pr = random_pair(rnd, m, n, 0.5)
        p = rnd.choice([0.3, 0.6])
        a = np.zeros((m, n))
        for i in range(m):
            for j in range(n):
                if pr.graph.has_edge(i, m + j):
                    a[i, j] = 1.0
        sigma = np.linalg.svd(a - p, compute_uv=False)[0]
        assert spectral_jumble_bound(pr, p).gamma == pytest.approx(sigma, abs=1e-7)


def test_spectral_label_permutation_invariance(rnd):
    pr = random_pair(rnd, 6, 7, 0.4)
    base = spectral_jumble_bound(pr, 0.4).gamma
    perm_left = rnd.sample(range(6), 6)
    perm_right = rnd.sample(range(7), 7)
    relabel = {old: new for new, old in enumerate(perm_left)}
    relabel.update({6 + old: 6 + new for new, old in enumerate(perm_right)})
    g2 = Graph.from_edges(13, [(relabel[u], relabel[v]) for u, v in pr.graph.edges()])
    pr2 = pair_on(g2, range(6), range(6, 13))
    assert spectral_jumble_bound(pr2, 0.4).gamma == pytest.approx(base, abs=1e-9)


def test_soundness_sandwich(rnd):
    for _ in range(12):
        pr = random_pair(rnd, rnd.randint(2, 5), rnd.randint(2, 5), 0.5)
        p = 0.4
        exact = exact_jumble_gamma(pr, p).gamma
        spectral = spectral_jumble_bound(pr, p).gamma
        assert exact <= spectral + 1e-9
        found = search_jumble_violation(pr, p, 0.0, trials=30, seed=9)
        if found is not None:
            assert found.gamma <= exact + 1e-9


def _pair_of(a):
    m, n = a.shape
    us, vs = np.nonzero(a)
    g = Graph.from_edges(m + n, zip(us.tolist(), (vs + m).tolist()))
    return pair_on(g, range(m), range(m, m + n))


def _assert_tight_upper(a, p):
    sigma = np.linalg.norm(a - p, 2)
    pr = _pair_of(a)
    cert = spectral_jumble_bound(pr, p)
    assert cert.sound_upper and cert.iterations == 1
    if a.shape[0] != a.shape[1]:  # both orientations take the Gram of the smaller side
        assert spectral_jumble_bound(pr.swapped(), p).gamma == cert.gamma
    assert cert.gamma >= sigma, (a.shape, p)
    assert cert.gamma - sigma <= 1e-9 * sigma + (1e-12 if sigma == 0 else 0.0), (a.shape, p)


def test_spectral_bound_is_sound_and_tight():
    # 1-p is inexact in binary for p = 0.01, 0.1, 0.3 and 1/3
    ps = (0.01, 0.1, 0.3, 1 / 3, 0.7, 1.0)
    shapes = ((1, 1), (1, 40), (40, 1), (37, 9), (8, 45), (30, 30))
    for seed in range(324):
        rng = np.random.default_rng(seed)
        p = ps[(seed // 6) % 6]
        m, n = shapes[seed % 6]  # every fixed shape meets every p, then random shapes
        if seed >= 36:
            m, n = (int(x) for x in rng.integers(1, 61, size=2))
        density = (0.0, 1.0, rng.random())[min(seed % 9, 2)]  # empty, complete, random
        _assert_tight_upper(rng.random((m, n)) < density, p)
    for m, n in shapes:  # the sweep never meets a complete pair at p = 1, where G~ = 0 exactly
        _assert_tight_upper(np.ones((m, n), dtype=bool), 1.0)


def test_spectral_bound_on_a_dense_1000_pair():
    _assert_tight_upper(np.random.default_rng(1000).random((1000, 1000)) < 0.3, 0.3)


BLAS_THREADS_CHILD = """
import numpy as np
from bijumble.graphs import Graph, pair_on
from bijumble.jumbled import spectral_jumble_bound
for m, n, p, seed in ((1000, 1000, 0.3, 1), (1000, 1000, 0.2, 3), (300, 800, 0.3, 4)):
    us, vs = np.nonzero(np.random.default_rng(seed).random((m, n)) < p)
    graph = Graph.from_edges(m + n, zip(us.tolist(), (vs + m).tolist()))
    print(repr(spectral_jumble_bound(pair_on(graph, range(m), range(m, m + n)), p).gamma))
"""


def test_spectral_bound_is_the_same_for_one_and_two_blas_threads():
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src}
        env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        done = subprocess.run([sys.executable, "-c", BLAS_THREADS_CHILD], env=env,
                              capture_output=True, text=True, timeout=300, check=True)
        outputs.append(done.stdout.split())
    assert len(outputs[0]) == 3 and outputs[0] == outputs[1], outputs


def test_cholesky_factors_definite_and_rejects_indefinite():
    x = np.random.default_rng(5).standard_normal((30, 40))
    b = x @ x.T
    r = b.copy()
    assert jumbled._cholesky(r)
    assert np.allclose(np.triu(r), np.linalg.cholesky(b).T, rtol=1e-10, atol=1e-12)
    assert np.array_equal(np.tril(r, -1), np.tril(b, -1))
    indefinite = b - 2 * np.linalg.eigvalsh(b)[0] * np.eye(30)
    assert not jumbled._cholesky(indefinite)


def test_blocked_cholesky_over_several_panels():
    # 300 rows: two full 128-row panels and a partial one
    x = np.random.default_rng(6).standard_normal((300, 320))
    b = x @ x.T
    r = b.copy()
    assert jumbled._cholesky(r)
    assert np.allclose(np.triu(r), np.linalg.cholesky(b).T, rtol=1e-9, atol=1e-10)
    assert np.array_equal(np.tril(r, -1), np.tril(b, -1))
    indefinite = b.copy()
    indefinite[270, 270] = -1.0  # the first pivot <= 0 is in the third panel
    assert not jumbled._cholesky(indefinite)


def test_spectral_retries_once_with_a_wider_shift(monkeypatch, rnd):
    real, calls = jumbled._cholesky, []

    def first_fails(b):
        calls.append(len(b))
        if len(calls) == 1:
            b[np.triu_indices(len(b))] = np.nan  # as a failed factorisation leaves it
            return False
        return real(b)

    monkeypatch.setattr(jumbled, "_cholesky", first_fails)
    pr = random_pair(rnd, 6, 9, 0.4)
    cert = spectral_jumble_bound(pr, 0.3)
    sigma = np.linalg.norm(pair_block(pr) - 0.3, 2)
    assert cert.iterations == 2 and len(calls) == 2
    assert sigma <= cert.gamma <= sigma * (1 + 1e-9)


def test_spectral_two_failed_choleskys_raise(monkeypatch, rnd):
    monkeypatch.setattr(jumbled, "_cholesky", lambda b: False)
    with pytest.raises(BijumbleError):
        spectral_jumble_bound(random_pair(rnd, 5, 5, 0.5), 0.5)


def test_search_examples_and_determinism():
    assert search_jumble_violation(complete_bipartite(4, 4), 1.0, 0.1, trials=20, seed=1) is None
    hit = search_jumble_violation(perfect_matching(3), 1 / 3, 0.5, trials=50, seed=1)
    assert hit is not None and hit.gamma >= 2 / 3 - 1e-12
    assert not hit.sound_upper
    again = search_jumble_violation(perfect_matching(3), 1 / 3, 0.5, trials=50, seed=1)
    assert again.gamma == hit.gamma and again.witness == hit.witness
    # discrepancy can never exceed max(p, 1-p) sqrt(|U||V|)
    pr = perfect_matching(4)
    cap = math.sqrt(16)
    assert search_jumble_violation(pr, 0.5, cap, trials=25, seed=2) is None


def _symmetric_pair(rnd, n, q):
    """Pair on left 0..n-1, right n..2n-1 with a symmetric biadjacency, so
    toggling u_i and w_i ties and the left-before-right order decides."""
    edges = {e for u in range(n) for w in range(u, n) if rnd.random() < q for e in ((u, n + w), (w, n + u))}
    return pair_on(Graph.from_edges(2 * n, sorted(edges)), range(n), range(n, 2 * n))


def test_search_matches_two_loop_reference(rnd):
    found = 0
    for i in range(64):
        q = rnd.choice((0.2, 0.5, 0.8))
        if i % 2:
            pr = _symmetric_pair(rnd, rnd.randint(2, 6), q)
        else:
            pr = random_pair(rnd, rnd.randint(1, 7), rnd.randint(1, 7), q)
        p = rnd.choice((0.25, 0.5, 0.7))
        gamma = rnd.choice((0.0, 0.4, 1.0, 5.0))
        trials = rnd.choice((1, 4, 12))
        got = search_jumble_violation(pr, p, gamma, trials, seed=i)
        assert got == reference.search_jumble_violation(pr, p, gamma, trials, seed=i)
        found += got is not None
    assert 10 < found < 64  # both outcomes are exercised
    # a float near-tie between toggles, where only the 1e-12 rule keeps the
    # earlier candidate
    near_tie = pair_on(Graph.from_edges(12, [(0, 11), (2, 9), (3, 8), (3, 10), (4, 9), (5, 6)]),
                       range(6), range(6, 12))
    got = search_jumble_violation(near_tie, 0.6, 0.0, 1, seed=2839)
    assert got == reference.search_jumble_violation(near_tie, 0.6, 0.0, 1, seed=2839)
    assert got.gamma == 2.5999999999999996 and got.witness[0].indices == (0, 1, 2, 3, 4, 5)


def test_degree_outlier_census():
    kb = complete_bipartite(5, 5)
    res = degree_outlier_census(kb, 1.0, 0.1, 1.0, 0.5)
    assert res.outliers == 0
    with pytest.raises(ParameterError):
        degree_outlier_census(kb, 0.5, 0.1, 1.0, 0.0)
    # left-regular pair of degree ceil(p|V|): inside the (1 +- 1/2) window
    g = Graph.from_edges(8, [(u, 4 + ((u + k) % 4)) for u in range(4) for k in range(2)])
    pr = pair_on(g, range(4), range(4, 8))
    res = degree_outlier_census(pr, 0.4, 0.1, 1.0, 0.5)  # ceil(0.4*4) = 2 <= 1.5*1.6
    assert res.outliers == 0


def test_degree_outlier_census_seeded_with_spectral_c():
    from bijumble.experiments import gen_bipartite

    pr = gen_bipartite(200, 200, 0.2, seed=20)
    cert = spectral_jumble_bound(pr, 0.2)
    c_prime = cert.c_prime(1.0, 200, 200)
    res = degree_outlier_census(pr, 0.2, c_prime, 1.0, 0.25)
    assert res.outliers <= res.bound + 1e-9


def test_degree_outlier_census_respects_certified_bound(rnd):
    # with c' taken from the exact certificate the lemma is a theorem
    for _ in range(10):
        m, n = rnd.randint(3, 6), rnd.randint(3, 6)
        pr = random_pair(rnd, m, n, 0.5)
        p, k = 0.5, 1.0
        cert = exact_jumble_gamma(pr, p)
        c_prime = cert.c_prime(k, m, n)
        if c_prime == 0:
            continue
        for gamma_dev in (0.25, 0.5, 1.0):
            res = degree_outlier_census(pr, p, c_prime, k, gamma_dev)
            assert res.outliers <= res.bound + 1e-9


def test_min_size_bound_values_and_errors():
    assert min_size_bound(0.25, 0.25, 1) == pytest.approx(8)
    assert min_size_bound(0.25, 0.25, 1.5) == pytest.approx(32)
    assert min_size_bound(0.01, 0.1, 2) == pytest.approx(1_250_000)
    with pytest.raises(ParameterError, match="c_prime"):
        min_size_bound(0.3, 0.2, 1)
    with pytest.raises(ParameterError, match="p"):
        min_size_bound(0.2, 0.3, 1)
    with pytest.raises(ParameterError, match="k"):
        min_size_bound(0.2, 0.2, 0.5)


def test_certificate_serialisation_round_trip():
    cert = exact_jumble_gamma(perfect_matching(3), 1 / 3)
    rec = cert.to_record()
    assert rec["method"] == "exact" and rec["sound_upper"] is True
    assert rec["witness_left"] and rec["witness_right"]


@pytest.mark.parametrize("p", [1.5, -0.5, math.nan])
def test_both_methods_reject_p_outside_unit_interval(p, tmp_path, capsys):
    for method in (exact_jumble_gamma, spectral_jumble_bound):
        with pytest.raises(ParameterError, match=r"p must lie in \(0,1\]"):
            method(perfect_matching(2), p)
    graph = tmp_path / "m2.el"
    graph.write_text("n=4\n0 2\n1 3\n")
    for method in ("exact", "spectral"):
        code = run_cli(["certify", "--graph", str(graph), "--left", "0..1", "--right", "2..3",
                        "--p", str(p), "--method", method])
        captured = capsys.readouterr()
        assert code == 2 and "p must lie in (0,1]" in captured.err and not captured.out


@pytest.mark.parametrize(
    "m,n,p",
    [(1, 50, 0.4), (30, 1, 0.3), (1, 1, 0.5), (20, 35, 1.0), (700, 1000, 0.3), (300, 1200, 0.2)],
)
def test_gram_equals_a_float64_reference(m, n, p):
    # 700 x 1000 and 300 x 1200 span several 2^18 / m-column chunks in both directions
    a = np.random.default_rng(m * 7919 + n).random((m, n)) < 0.5
    f = a.astype(np.float64)
    c = f @ f.T
    npd = -p * c.diagonal()
    want = ((c + npd[:, None]) + npd[None, :]) + n * (p * p)  # the rounding order of _gram
    g = jumbled._gram(a, p)
    upper = np.triu_indices(m)
    assert np.array_equal(g[upper], want[upper]) and np.array_equal(g, g.T), (m, n, p)


def _assert_lanczos_matches_eigvalsh(a, p):
    g = jumbled._gram(a if a.shape[0] <= a.shape[1] else a.T, p)
    assert np.array_equal(g, g.T)  # the lower triangle, which eigvalsh reads, mirrors the upper
    want = np.linalg.eigvalsh(g)[-1]
    assert abs(jumbled._lanczos_top(g) - want) <= 1e-13 * abs(want), (a.shape, p)
    assert spectral_jumble_bound(_pair_of(a), p).iterations == 1


def test_lanczos_estimate_matches_eigvalsh():
    rng = np.random.default_rng(17)
    # mostly equal rows: G~ has rank at most 3, so the Krylov space closes after a few steps
    mostly_equal = np.tile(rng.random(30) < 0.7, (30, 1))
    mostly_equal[[4, 19]] = rng.random((2, 30)) < 0.7
    _assert_lanczos_matches_eigvalsh(mostly_equal, 0.7)
    _assert_lanczos_matches_eigvalsh(np.ones((20, 35), dtype=bool), 1.0)  # G~ = 0
    _assert_lanczos_matches_eigvalsh(rng.random((1, 50)) < 0.4, 0.4)  # m = 1
    _assert_lanczos_matches_eigvalsh(rng.random((600, 700)) < 0.3, 0.3)  # 2^18 / m < m: chunked mirror


def test_spectral_bound_equals_the_eigvalsh_shift():
    for seed in range(200):
        rng = np.random.default_rng(5000 + seed)
        m, n = (int(x) for x in rng.integers(1, 301, size=2))
        p = float(rng.choice([0.01, 0.1, 0.3, 1 / 3, 0.7, 1.0, rng.random()]))
        a = rng.random((m, n)) < (0.0, 1.0, rng.random(), rng.random())[seed % 4]
        if seed % 3 == 0:  # repeated rows of the smaller side, or of the larger
            a = a[rng.integers(0, max(1, m // 8), size=m)]
        pr = _pair_of(a)
        got, want = spectral_jumble_bound(pr, p), reference.spectral_jumble_bound(pr, p)
        assert (got.gamma, got.iterations) == (want.gamma, 1), (seed, m, n, p)
