from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bijumble.errors import ParameterError, ParseError, UndefinedDensityError
from bijumble.graphs import (
    BipartitePairView,
    Graph,
    VertexSet,
    codegree,
    complete_bipartite,
    density,
    empty_pair,
    format_edge_list,
    p_density,
    pair_on,
    parse_edge_list,
    perfect_matching,
)

edge_sets = st.integers(min_value=2, max_value=7).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] < e[1])
        ),
    )
)


def test_parse_basic_and_empty():
    g = parse_edge_list("n=3\n0 1\n1 2\n")
    assert g.vertex_count == 3 and g.edge_count() == 2
    assert g.has_edge(1, 0) and not g.has_edge(0, 2)
    g2 = parse_edge_list("n=2\n")
    assert g2.edge_count() == 0


def test_parse_comments_and_duplicates_collapse():
    g = parse_edge_list("# a comment\nn=4\n0 1\n1 0\n\n2 3\n")
    assert g.edge_count() == 2


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("n=2\n0 0\n", "self-loop"),
        ("n=2\n0 5\n", "out of range"),
        ("n=2\n0 x\n", "non-integer"),
        ("n=2\n0 1 2\n", "expected"),
        ("0 1\n", "header"),
    ],
)
def test_parse_errors_carry_line_numbers(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_edge_list(text)
    assert fragment in str(err.value)
    assert err.value.line is not None


@given(edge_sets)
def test_round_trip(ne):
    n, edges = ne
    g = Graph.from_edges(n, edges)
    assert parse_edge_list(format_edge_list(g)) == g


def test_graph_invariant_validation():
    with pytest.raises(ParameterError):
        Graph(2, (0b10, 0b00))  # asymmetric
    with pytest.raises(ParameterError):
        Graph(1, (0b1,))  # self-loop
    with pytest.raises(ParameterError):
        Graph.from_edges(2, [(0, 0)])


def test_from_edges_numpy_endpoints():
    mat = np.zeros((100, 100), dtype=bool)
    mat[0, 70] = mat[3, 99] = mat[5, 6] = True
    g = Graph.from_edges(100, zip(*np.nonzero(mat)))
    assert g == Graph.from_edges(100, [(0, 70), (3, 99), (5, 6)])
    assert g.edge_count() == 3 and all(type(r) is int for r in g.rows)
    assert Graph.from_edges(100, [(np.int64(0), np.int64(70))]).edge_count() == 1
    with pytest.raises(TypeError):
        Graph.from_edges(3, [(0.0, 1.0)])


def test_density_examples():
    assert density(complete_bipartite(3, 4)) == 1
    assert density(perfect_matching(3)) == Fraction(1, 3)
    assert density(empty_pair(2, 2)) == 0
    with pytest.raises(UndefinedDensityError):
        density(BipartitePairView(Graph.empty(2), VertexSet.of([]), VertexSet.of([0])))


def test_p_density_examples():
    assert p_density(complete_bipartite(3, 4), 0.5) == 2.0
    assert p_density(perfect_matching(3), 1 / 3) == pytest.approx(1.0)
    assert p_density(empty_pair(2, 2), 0.7) == 0.0
    with pytest.raises(ParameterError):
        p_density(complete_bipartite(2, 2), 0.0)


def test_codegree_examples():
    kb = complete_bipartite(2, 5)
    assert codegree(0, 1, kb.right, kb.graph) == 5
    m = perfect_matching(3)
    assert codegree(0, 1, m.right, m.graph) == 0
    c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert codegree(0, 2, VertexSet.of([1, 3]), c4) == 2
    with pytest.raises(ParameterError):
        codegree(1, 1, kb.right, kb.graph)


@given(edge_sets)
def test_degree_sum_and_codegree_bound(ne):
    n, edges = ne
    g = Graph.from_edges(n, edges)
    left = VertexSet.of(range(0, n, 2))
    right = VertexSet.of(range(1, n, 2))
    pair = BipartitePairView(g, left, right)
    e = pair.edge_count()
    assert e == sum(g.degree(w, left.mask) for w in right)
    for u in left:
        for v in left:
            if u < v:
                c = codegree(u, v, right, g)
                assert c <= min(g.degree(u, right.mask), g.degree(v, right.mask))


def test_pair_view_disjointness_enforced():
    g = Graph.empty(4)
    with pytest.raises(ParameterError):
        BipartitePairView(g, VertexSet.of([0, 1]), VertexSet.of([1, 2]))
    with pytest.raises(ParameterError):
        BipartitePairView(g, VertexSet.of([0]), VertexSet.of([9]))


def test_density_rational_exactness():
    pr = pair_on(Graph.from_edges(7, [(0, 3), (1, 4), (2, 5), (0, 4)]), range(3), range(3, 6))
    d = density(pr)
    assert d == Fraction(4, 9)
    assert p_density(pr, 0.5) == pytest.approx(float(d) / 0.5)
