import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bijumble import graphs
from bijumble.errors import CapacityError, ParameterError, ParseError, UndefinedDensityError
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
    pairs = [(0, 5), (5, 0), (2, 3), (0, 5), (3, 2), (4, 1), (6, 0), (1, 4)]
    text = "n=7\n" + "".join(f"{u} {v}\n" for u, v in pairs)
    g = parse_edge_list(text)
    assert g == Graph.from_edges(7, pairs)
    assert g.edge_count() == 4


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


def _nth(pattern, text, k):
    """The k-th (mod count) match of ``pattern`` in ``text``, or None."""
    found = list(re.finditer(pattern, text))
    return found[k % len(found)] if found else None


def _insert(pattern, piece, after=False):
    def mutate(text, k):
        found = _nth(pattern, text, k)
        if found is None:
            return text
        at = found.end() if after else found.start()
        return text[:at] + piece + text[at:]
    return mutate


def _replace_nth(pattern, piece):
    def mutate(text, k):
        found = _nth(pattern, text, k)
        if found is None:
            return text
        return text[: found.start()] + piece(found.group()) + text[found.end():]
    return mutate


def _append_edge(text, u, v):
    return text + ("" if text.endswith("\n") else "\n") + f"{u} {v}\n"


def _vertex_count(text):
    header = re.search(r"n=\D*(\d+)", text)
    return int(header.group(1)) if header else 0


MUTATIONS = {
    "crlf": lambda t, k: t.replace("\n", "\r\n"),
    "tab": _replace_nth(" ", lambda c: "\t"),
    "double_space": _insert(" ", " "),
    "leading_space": _insert(r"(?m)^(?=.)", " "),
    "trailing_space": _insert("\n", " "),
    "plus": _insert(r"\b\d", "+"),
    "unicode_digit": _replace_nth(r"\d", lambda c: chr(0x0660 + int(c))),
    "long_token": _insert(r"\b\d", "0" * 19),
    "leading_zero": _insert(r"\b\d", "0"),
    "header_space": lambda t, k: t.replace("n=", "n= ", 1),
    "header_zero": lambda t, k: t.replace("n=", "n=0", 1),
    "comment_first": lambda t, k: "# comment\n" + t,
    "no_final_newline": lambda t, k: t[:-1] if t.endswith("\n") else t,
    "blank_line": _insert("\n", "\n", after=True),
    "split_line": _replace_nth(" ", lambda c: "\n"),
    "join_lines": _replace_nth(r"(?<=\d)\n(?=\d+ )", lambda c: " "),
    "drop_token": _replace_nth(r"(?<= )\d+(?=\n)", lambda c: ""),
    "self_loop": lambda t, k: _append_edge(t, k % 7, k % 7),
    "out_of_range": lambda t, k: _append_edge(t, k % 3, _vertex_count(t) + k % 3),
    "duplicate": lambda t, k: t + t[t.index("\n") + 1:] if t.endswith("\n") else t,
    "n0": lambda t, k: re.sub(r"^n=\d+", "n=0", t),
    "oversized": lambda t, k: re.sub(r"^n=\d+", "n=3000000000", t),
}

canonical_texts = st.integers(0, 300).flatmap(
    lambda n: st.lists(
        st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0))).filter(
            lambda e: e[0] != e[1]
        ),
        max_size=0 if n < 2 else 60,
    ).map(lambda edges: f"n={n}\n" + "".join(f"{u} {v}\n" for u, v in edges))
)


def _outcome(parse, text):
    try:
        graph = parse(text)
    except (ParseError, CapacityError) as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    assert all(type(row) is int for row in graph.rows)
    return graph


@settings(max_examples=400)
@example("n=5\n0 1\n2 3\n", [("join_lines", 1)])
@example("n=5\n0 1\n2 3\n", [("split_line", 0)])
@example("n=5\n0 1\n2 3\n", [("drop_token", 0)])
@example("n=5\n0 1\n2 3\n", [("drop_token", 1), ("no_final_newline", 0)])
@example("n=5\n0 1\n2 3\n", [("blank_line", 1)])
@example("n=5\n0 1\n", [("oversized", 0)])
@given(
    canonical_texts,
    st.lists(st.tuples(st.sampled_from(sorted(MUTATIONS)), st.integers(0, 1000)), max_size=2),
)
def test_parse_paths_agree(text, mutations):
    for name, k in mutations:
        text = MUTATIONS[name](text, k)
    expected = _outcome(graphs._parse_lines, text)
    assert _outcome(parse_edge_list, text) == expected
    fast = graphs._parse_canonical(text)
    if fast is not None:
        assert fast == expected and all(type(row) is int for row in fast.rows)
    elif not mutations:
        pytest.fail(f"canonical text fell back to the line loop: {text[:40]!r}")


def _refuse(text):
    raise AssertionError("canonical text reached the line loop")


def test_canonical_text_takes_the_fast_path(monkeypatch):
    dense = Graph.from_edges(
        300, [(u, v) for u in range(300) for v in range(u + 1, 300) if (u * v + u) % 5 == 1]
    )
    monkeypatch.setattr(graphs, "_parse_lines", _refuse)
    for g in (Graph.empty(0), Graph.empty(9), perfect_matching(9).graph, dense):
        assert parse_edge_list(format_edge_list(g)) == g


def test_oversized_header_is_a_capacity_error():
    for n in (graphs.MAX_VERTICES + 1, 3_000_000_000, 12345678901234567890):
        with pytest.raises(CapacityError, match=f"vertex count {n} exceeds"):
            parse_edge_list(f"n={n}\n0 1\n")


def test_sparse_graph_at_the_cap_parses_in_little_memory():
    top = graphs.MAX_VERTICES - 1
    text = f"n={graphs.MAX_VERTICES}\n0 1\n5 {top}\n"
    tracemalloc.start()
    try:
        fast = graphs._parse_canonical(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fast == graphs._parse_lines(text) and fast.has_edge(top, 5)
    assert peak < 16 << 20  # packed rows for every vertex would take 512 MiB


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


def test_bool_matrix_is_read_only_and_cached():
    for g in (Graph.from_edges(9, [(0, 8), (2, 3)]), parse_edge_list("n=4\n0 1\n1 3\n"), Graph.empty(3)):
        mat = graphs.bool_matrix(g)
        assert graphs.bool_matrix(g) is mat and not mat.flags.writeable
        with pytest.raises(ValueError):
            mat[0, 1] = True
        with pytest.raises(ValueError):
            mat |= True


def test_pair_block_range_path_equals_fancy_index_path():
    rng = np.random.default_rng(5)
    upper = np.triu(rng.random((40, 40)) < 0.4, 1)
    g = Graph._of_matrix(upper | upper.T)
    mat = graphs.bool_matrix(g)
    for left, right in ((range(0, 10), range(10, 40)), (range(25, 40), range(3, 4)), (range(7, 8), range(0, 7))):
        view = BipartitePairView(g, VertexSet.of(left), VertexSet.of(right))
        block = graphs.pair_block(view)
        want = mat[np.array(left)].take(np.array(right), axis=1)
        assert np.array_equal(block, want) and block.flags.c_contiguous and block.flags.writeable
        assert not np.shares_memory(block, mat)
    # one side with a gap takes the fancy-index path
    view = BipartitePairView(g, VertexSet.of([0, 2, 3]), VertexSet.range(10, 20))
    assert np.array_equal(graphs.pair_block(view), mat[[0, 2, 3]][:, 10:20])


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
