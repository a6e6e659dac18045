import itertools
import random
import warnings

import pytest

from bijumble.errors import CapacityError, ParameterError
from bijumble.graphs import Graph, complete_graph, cycle_graph, path_graph, triangle_book
from bijumble.patterns import (
    MilliValue,
    _heuristic_orders,
    Pattern,
    line_graph_two_sided_exponent,
    d_tilde,
    degeneracy,
    exponent_report,
    format_pattern,
    k_reg,
    line_graph,
    optimize_order,
    parse_pattern,
    two_sided_exponent,
)

import reference

K2 = Graph.from_edges(2, [(0, 1)])
K3 = complete_graph(3)
BOOK10 = triangle_book(10)


def all_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph.from_edges(n, (e for i, e in enumerate(pairs) if mask & (1 << i)))


def test_millivalue_formatting_and_order():
    assert str(MilliValue(2501)) == "2.501"
    assert str(MilliValue(0)) == "0.000"
    assert MilliValue(2001) < MilliValue(2501)
    assert float(MilliValue(10500)) == 10.5


def test_k_reg_hand_values():
    assert k_reg(Pattern.identity(K2)).mills == 1000
    for seq in itertools.permutations(range(3)):
        assert k_reg(Pattern(K3, seq)).mills == 3000
    assert k_reg(Pattern.identity(BOOK10)).mills == 3000


def test_k_reg_p3_orders():
    p3 = path_graph(3)
    centre_first = {seq for seq in itertools.permutations(range(3)) if seq[0] == 1}
    for seq in itertools.permutations(range(3)):
        expected = 1000 if seq in centre_first else 2001
        assert k_reg(Pattern(p3, seq)).mills == expected


def test_k_reg_edgeless_warns_zero():
    with pytest.warns(UserWarning):
        assert k_reg(Pattern.identity(Graph.empty(3))).mills == 0


def test_d_tilde_hand_values():
    assert d_tilde(Pattern.identity(K2)) == 1
    for seq in itertools.permutations(range(3)):
        assert d_tilde(Pattern(K3, seq)) == 3
    assert d_tilde(Pattern.identity(BOOK10)) == 20


def test_two_sided_exponent_values():
    assert two_sided_exponent(Pattern.identity(K2)).mills == 1000
    assert two_sided_exponent(Pattern.identity(K3)).mills == 3000
    assert two_sided_exponent(Pattern.identity(BOOK10)).mills == 10500


def test_degeneracy_examples():
    assert degeneracy(path_graph(5))[0] == 1
    assert degeneracy(complete_graph(4))[0] == 3
    assert degeneracy(cycle_graph(5))[0] == 2
    degen, order = degeneracy(BOOK10)
    assert degen == 2
    # witness property: each vertex has at most degen earlier neighbours
    pos = {v: i for i, v in enumerate(order)}
    for v in range(BOOK10.vertex_count):
        earlier = sum(1 for u, w in BOOK10.edges() for a, b in ((u, w), (w, u)) if a == v and pos[b] < pos[v])
        assert earlier <= degen


def test_line_graph_examples():
    lp3 = line_graph(path_graph(3))
    assert lp3.vertex_count == 2 and lp3.edge_count() == 1
    lk3 = line_graph(K3)
    assert lk3.vertex_count == 3 and lk3.edge_count() == 3
    matching = Graph.from_edges(4, [(0, 1), (2, 3)])
    lm = line_graph(matching)
    assert lm.vertex_count == 2 and lm.edge_count() == 0
    with pytest.raises(ParameterError):
        line_graph(Graph.empty(3))


def test_line_graph_exponent_values():
    assert line_graph_two_sided_exponent(K3).mills == 3000
    assert line_graph_two_sided_exponent(BOOK10).mills == 12000
    assert line_graph_two_sided_exponent(K2).mills == 2000


def test_two_sided_at_least_k_reg_exhaustive_small():
    for g in all_graphs(4):
        if g.edge_count() == 0:
            continue
        for seq in itertools.permutations(range(4)):
            pat = Pattern(g, seq)
            assert two_sided_exponent(pat).mills >= k_reg(pat).mills


def test_d_tilde_at_least_max_degree_small():
    # identity order over all labelled graphs == all orders over all graphs,
    # because relabelling the graph realises every order
    for n in (2, 3, 4, 5):
        for g in all_graphs(n):
            assert d_tilde(Pattern.identity(g)) >= g.max_degree()


def test_d_tilde_degeneracy_order_upper_bound():
    for n in (2, 3, 4, 5):
        for g in all_graphs(n):
            if g.edge_count() == 0:
                continue
            degen, order = degeneracy(g)
            assert d_tilde(Pattern(g, order)) <= g.max_degree() + degen - 1


def test_d_tilde_tie_break_invariance():
    rnd = random.Random(7)
    for _ in range(40):
        n = rnd.randint(3, 7)
        g = Graph.from_edges(
            n, [e for e in itertools.combinations(range(n), 2) if rnd.random() < 0.5]
        )
        pat = Pattern.identity(g)
        reference = d_tilde(pat)
        # recompute with randomised tie-breaking inside each forward ranking
        pos = {v: i for i, v in enumerate(pat.sequence)}
        best = 0
        for v in range(n):
            nbrs = [w for w in range(n) if g.has_edge(v, w)]
            back = sum(1 for w in nbrs if pos[w] < pos[v])
            fwd = [w for w in nbrs if pos[w] > pos[v]]
            inner = 0
            if fwd:
                keyed = [(sum(1 for u in nbrs_w if pos[u] < pos[v]), rnd.random(), w)
                         for w in fwd
                         for nbrs_w in [[u for u in range(n) if g.has_edge(w, u)]]]
                keyed.sort(key=lambda t: (-t[0], t[1]))
                inner = max(rank + bc for rank, (bc, _, _) in enumerate(keyed, start=1))
            best = max(best, back + inner)
        assert best == reference


def test_isomorphism_invariance_of_exponents():
    rnd = random.Random(3)
    for _ in range(30):
        n = rnd.randint(2, 7)
        g = Graph.from_edges(
            n, [e for e in itertools.combinations(range(n), 2) if rnd.random() < 0.5]
        )
        seq = tuple(rnd.sample(range(n), n))
        relabel = {v: i for i, v in enumerate(rnd.sample(range(n), n))}
        g2 = Graph.from_edges(n, [(relabel[u], relabel[v]) for u, v in g.edges()])
        seq2 = tuple(relabel[v] for v in seq)
        if g.edge_count():
            assert k_reg(Pattern(g, seq)).mills == k_reg(Pattern(g2, seq2)).mills
        assert d_tilde(Pattern(g, seq)) == d_tilde(Pattern(g2, seq2))


def test_optimize_exhaustive_matches_direct_enumeration():
    rnd = random.Random(12)
    for _ in range(10):
        n = rnd.randint(2, 6)
        g = Graph.from_edges(
            n, [e for e in itertools.combinations(range(n), 2) if rnd.random() < 0.6]
        )
        if g.edge_count() == 0:
            continue
        for objective, value in (("one_sided", None), ("two_sided", None)):
            _, report = optimize_order(g, objective, "exhaustive")
            got = (
                report.one_sided_exponent if objective == "one_sided" else report.two_sided_exponent
            ).mills
            best = min(
                (
                    k_reg(Pattern(g, seq)).mills
                    if objective == "one_sided"
                    else two_sided_exponent(Pattern(g, seq)).mills
                )
                for seq in itertools.permutations(range(n))
            )
            assert got == best


def test_branch_and_bound_matches_exhaustive():
    rnd = random.Random(5)
    for _ in range(8):
        n = rnd.randint(4, 7)
        g = Graph.from_edges(
            n, [e for e in itertools.combinations(range(n), 2) if rnd.random() < 0.5]
        )
        if g.edge_count() == 0:
            continue
        for objective in ("one_sided", "two_sided"):
            _, ex = optimize_order(g, objective, "exhaustive")
            _, bb = optimize_order(g, objective, "branch_and_bound")
            key = "one_sided_exponent" if objective == "one_sided" else "two_sided_exponent"
            assert getattr(bb, key).mills == getattr(ex, key).mills


def test_optimize_examples():
    seq, report = optimize_order(path_graph(3), "one_sided", "exhaustive")
    assert seq[0] == 1 and report.k_reg.mills == 1000
    _, report = optimize_order(K3, "two_sided", "exhaustive")
    assert report.two_sided_exponent.mills == 3000
    _, report = optimize_order(BOOK10, "two_sided", "heuristic")
    assert report.two_sided_exponent.mills == 10500


def test_optimize_capacity_errors():
    big = triangle_book(5)  # 11 vertices
    with pytest.raises(CapacityError):
        optimize_order(big, "one_sided", "exhaustive")
    with pytest.raises(CapacityError):
        optimize_order(triangle_book(6), "one_sided", "branch_and_bound")
    with pytest.raises(ParameterError):
        optimize_order(K3, "one_sided", "annealing")


def test_optimize_order_checks_the_edge_cap_before_searching(monkeypatch):
    from bijumble import patterns

    def refuse(*args):
        raise AssertionError("the order search ran")

    monkeypatch.setattr(patterns, "_search", refuse)
    big = complete_graph(64)  # 2016 edges, just above the cap
    for objective in ("one_sided", "two_sided"):
        with pytest.raises(CapacityError, match="patterns are limited to 2000 edges, got 2016"):
            optimize_order(big, objective, "heuristic")


def test_exponent_report_invariants():
    rep = exponent_report(Pattern.identity(BOOK10))
    assert rep.two_sided_exponent.mills >= rep.one_sided_exponent.mills
    assert rep.d_tilde >= rep.delta
    assert rep.order == tuple(range(21))


def test_pattern_file_round_trip():
    pat = Pattern(path_graph(3), (1, 0, 2))
    text = format_pattern(pat)
    back = parse_pattern(text)
    assert back.graph == pat.graph and back.sequence == pat.sequence
    ident = parse_pattern("n=3\n0 1\n1 2\n")
    assert ident.sequence == (0, 1, 2)
    with pytest.raises(ParameterError):
        Pattern(path_graph(3), (0, 1, 1))


# -- the per-vertex kernel and the one order search against the replaced code --

def _random_graph(rnd, n, q=0.5):
    return Graph.from_edges(n, [e for e in itertools.combinations(range(n), 2) if rnd.random() < q])


def _small_patterns():
    """Every order of every graph on up to 4 vertices, every graph on 5 in
    the identity order (relabelling realises each order), seeded random
    graphs on 6-8 vertices in random orders, and the 0-vertex pattern."""
    yield Pattern.identity(Graph.empty(0))
    for n in (1, 2, 3, 4):
        for g in all_graphs(n):
            for seq in itertools.permutations(range(n)):
                yield Pattern(g, seq)
    for g in all_graphs(5):
        yield Pattern.identity(g)
    rnd = random.Random(41)
    for _ in range(60):
        n = rnd.randint(6, 8)
        yield Pattern(_random_graph(rnd, n, rnd.choice((0.3, 0.5, 0.7))), tuple(rnd.sample(range(n), n)))


def test_exponents_match_reference():
    for pat in _small_patterns():
        padj = reference.position_adjacency(pat)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert k_reg(pat).mills == reference._kreg_mills(padj)
        assert d_tilde(pat) == reference._dtilde_value(padj)
        assert two_sided_exponent(pat).mills == max(
            reference._kreg_mills(padj), 500 + 500 * reference._dtilde_value(padj)
        )
        assert exponent_report(pat) == reference.exponent_report(pat)


def test_degeneracy_and_heuristic_orders_match_reference():
    graphs = [Graph.empty(0), *(g for n in range(1, 6) for g in all_graphs(n))]
    rnd = random.Random(42)
    graphs += [_random_graph(rnd, rnd.randint(6, 12)) for _ in range(40)]
    for g in graphs:
        assert degeneracy(g) == reference.degeneracy(g)
        assert _heuristic_orders(g) == reference._heuristic_orders(g)


def _reference_optimize(graph, objective, strategy):
    search = {
        "exhaustive": reference._optimize_exhaustive,
        "branch_and_bound": reference._optimize_branch_and_bound,
        "heuristic": reference._optimize_heuristic,
    }[strategy]
    _, seq = search(graph, objective)
    return seq, reference.exponent_report(Pattern(graph, seq))


@pytest.mark.parametrize("strategy", ["exhaustive", "branch_and_bound", "heuristic"])
def test_optimize_order_matches_reference(strategy):
    graphs = [Graph.empty(0), Graph.empty(4), *(g for n in range(1, 6) for g in all_graphs(n))]
    rnd = random.Random(43)
    graphs += [_random_graph(rnd, n, q) for n in (6, 7) for q in (0.3, 0.5, 0.7)]
    graphs += [_random_graph(rnd, 8, 0.5), cycle_graph(6), path_graph(5)]
    if strategy != "exhaustive":
        graphs += [_random_graph(rnd, n, 0.4) for n in (9, 10, 11)]
    for g in graphs:
        for objective in ("one_sided", "two_sided"):
            assert optimize_order(g, objective, strategy) == _reference_optimize(g, objective, strategy)


def test_optimize_order_capacity_messages():
    with pytest.raises(CapacityError, match="exhaustive strategy limited to 9 vertices, got 10"):
        optimize_order(Graph.empty(10), "two_sided", "exhaustive")
    with pytest.raises(CapacityError, match="branch_and_bound strategy limited to 12 vertices, got 13"):
        optimize_order(Graph.empty(13), "one_sided", "branch_and_bound")
    with pytest.raises(ParameterError, match="unknown objective"):
        optimize_order(Graph.empty(13), "three_sided", "exhaustive")
    seq, _ = optimize_order(triangle_book(6), "two_sided", "heuristic")  # no capacity
    assert seq == _reference_optimize(triangle_book(6), "two_sided", "heuristic")[0]
