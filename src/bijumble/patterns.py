"""Counting-lemma exponents of a small pattern graph under a vertex order.

A pattern is a graph together with an embedding order on its vertices.  Two
order-dependent exponents govern how much pseudorandomness a host must have
for one-sided (lower-bound) and two-sided (matching upper bound) counting:

* ``k_reg`` - the least value satisfying a family of inequalities indexed by
  ordered edges and cherries of the pattern, with case constants 1, 3/2, 2, 3
  and 2.001 / 2.501.  All constants are kept in exact integer thousandths;
  the 0.001 gaps are meaningful and must never be rounded away.
* ``d_tilde`` - a back-degree statistic built from rankings of the forward
  neighbourhoods; the two-sided exponent is max(k_reg, 1/2 + d_tilde/2).

Both are maxima of per-vertex terms, and one kernel, ``_terms``, computes the
terms a vertex owns from the set of vertices placed before it.  Every
exponent here is the largest term along an order.

``optimize_order`` searches the order space for the smallest exponent.  The
heuristic takes the best of a few degeneracy and degree orders.  Both exact
strategies share one depth-first search over prefixes in lexicographic
vertex order: exhaustive starts with no incumbent, branch-and-bound with the
heuristic's best.  A prefix's terms are final, so its largest term bounds
every completion and the search cuts a prefix whose bound is ``>= best``.
Such a prefix holds no strictly better order, so exhaustive returns the
first optimum in ``itertools.permutations`` order, and branch-and-bound
returns that first optimum or, when the heuristic's best is already
optimal, that incumbent: on the path 0-1-2 with the two-sided objective,
exhaustive gives (1, 0, 2) and branch-and-bound (1, 2, 0).

``line_graph_two_sided_exponent`` computes the earlier line-graph-based
exponent min((D(L)+4)/2, (degen(L)+6)/2) used for comparison tables.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from functools import total_ordering

from .errors import CapacityError, ParameterError, ParseError
from .graphs import Graph, format_edge_list, iter_bits, parse_edge_list

EXHAUSTIVE_LIMIT = 9
BRANCH_AND_BOUND_LIMIT = 12
MAX_PATTERN_EDGES = 2000
"""Edge cap of ``exponent_report`` and ``optimize_order``, checked before any
search.  The line graph tests all E^2/2 edge pairs in pure Python: 1,638 edges
took 1.1 s and 3,842 took 6.8 s on a 2-core machine, so 2,000 keeps ``params``
within seconds.  The paper's patterns (K4, book10, Petersen) have <= 30 edges."""


@total_ordering
@dataclass(frozen=True)
class MilliValue:
    """An exact value in integer thousandths (2501 means 2.501)."""

    mills: int

    def __float__(self) -> float:
        return self.mills / 1000.0

    def __str__(self) -> str:
        sign = "-" if self.mills < 0 else ""
        a, b = divmod(abs(self.mills), 1000)
        return f"{sign}{a}.{b:03d}"

    def __lt__(self, other: "MilliValue") -> bool:
        return self.mills < other.mills


@dataclass(frozen=True)
class Pattern:
    """A pattern graph and the order in which its vertices get embedded.

    ``sequence`` lists the vertices first-to-last; position of a vertex is
    its 1-based index in the sequence.
    """

    graph: Graph
    sequence: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.sequence) != list(range(self.graph.vertex_count)):
            raise ParameterError("sequence must be a permutation of the pattern's vertices")

    @classmethod
    def identity(cls, graph: Graph) -> "Pattern":
        return cls(graph, tuple(range(graph.vertex_count)))


@dataclass(frozen=True)
class ExponentReport:
    k_reg: MilliValue
    d_tilde: int
    one_sided_exponent: MilliValue
    two_sided_exponent: MilliValue
    delta: int
    degeneracy: int
    line_graph_two_sided: MilliValue | None
    order: tuple[int, ...]


def _terms(rows: list[int], v: int, before: int) -> tuple[int, int]:
    """(k_reg term in thousandths, d_tilde term) owned by vertex v.

    The vertices in the mask ``before`` precede v and every other vertex
    follows it, so the terms are final once v's predecessors are known.
    """
    later = ~before & ~(1 << v)
    row_v = rows[v]
    n_minus = (row_v & before).bit_count()
    kr = 0
    backs = []  # |N^{<v}(j)| for each forward neighbour j of v
    for j in iter_bits(row_v & later):
        bj = (rows[j] & before).bit_count()
        backs.append(bj)
        # first family: ordered edge (v, j)
        later_j = rows[j] & later
        case = 1000
        if later_j:
            case = 1500
            shared = later_j & row_v
            if shared:
                case = 2000
                if any((rows[k] & before).bit_count() <= bj for k in iter_bits(shared)):
                    case = 3000
        kr = max(kr, 500 * (n_minus + bj) + case)
        # second family: cherries v-j-j' with j, j' after v
        for jp in iter_bits(later_j):
            tail = 2501 if row_v >> jp & 1 else 2001
            kr = max(kr, 500 * (bj + (rows[jp] & before).bit_count()) + tail)
    # rank positions are 1-based; the max is tie-break independent
    backs.sort(reverse=True)
    inner = max((rank + b for rank, b in enumerate(backs, start=1)), default=0)
    return kr, n_minus + inner


def _exponents(pattern: Pattern) -> tuple[int, int]:
    """(k_reg in thousandths, d_tilde): the largest terms along the order."""
    rows = pattern.graph.rows
    kr = dt = before = 0
    for v in pattern.sequence:
        k, d = _terms(rows, v, before)
        kr, dt = max(kr, k), max(dt, d)
        before |= 1 << v
    return kr, dt


def _objective(kr: int, dt: int, objective: str) -> int:
    return kr if objective == "one_sided" else max(kr, 500 + 500 * dt)


def k_reg(pattern: Pattern) -> MilliValue:
    """Smallest value satisfying every ordered-edge and cherry inequality."""
    if pattern.graph.edge_count() == 0:
        warnings.warn("pattern has no edges; k_reg is 0", stacklevel=2)
    return MilliValue(_exponents(pattern)[0])


def d_tilde(pattern: Pattern) -> int:
    """Back-degree statistic from the ranked forward neighbourhoods.

    A vertex with empty forward neighbourhood contributes just its back
    degree (the inner maximum over the empty set is taken as 0).
    """
    return _exponents(pattern)[1]


def two_sided_exponent(pattern: Pattern) -> MilliValue:
    return MilliValue(_objective(*_exponents(pattern), "two_sided"))


def _min_degree_removal(graph: Graph, tiebreak) -> tuple[int, tuple[int, ...]]:
    """(largest degree at removal, reversed removal order) when the vertex of
    least ``(degree, tiebreak(vertex))`` is removed repeatedly."""
    n = graph.vertex_count
    alive = (1 << n) - 1
    deg = [graph.rows[v].bit_count() for v in range(n)]
    removal: list[int] = []
    degen = 0
    for _ in range(n):
        v = min(iter_bits(alive), key=lambda u: (deg[u], tiebreak(u)))
        degen = max(degen, deg[v])
        removal.append(v)
        alive ^= 1 << v
        for u in iter_bits(graph.rows[v] & alive):
            deg[u] -= 1
    return degen, tuple(reversed(removal))


def degeneracy(graph: Graph) -> tuple[int, tuple[int, ...]]:
    """(degeneracy, witness order) by repeated minimum-degree removal.

    In the returned order every vertex has at most ``degeneracy`` earlier
    neighbours.  Ties are broken by lowest vertex index, so the witness is
    deterministic.
    """
    return _min_degree_removal(graph, lambda u: u)


def line_graph(graph: Graph) -> Graph:
    """L(H): one vertex per edge of H, adjacent iff the edges share an endpoint."""
    edges = list(graph.edges())
    if not edges:
        raise ParameterError("line graph of an edgeless graph is undefined here")
    lg_edges = [
        (a, b)
        for a, b in itertools.combinations(range(len(edges)), 2)
        if set(edges[a]) & set(edges[b])
    ]
    return Graph.from_edges(len(edges), lg_edges)


def line_graph_two_sided_exponent(graph: Graph) -> MilliValue:
    """min((D(L(H))+4)/2, (degen(L(H))+6)/2) in exact thousandths."""
    lg = line_graph(graph)
    dmax = lg.max_degree()
    degen, _ = degeneracy(lg)
    return MilliValue(min((dmax + 4) * 500, (degen + 6) * 500))


def _check_edge_cap(graph: Graph) -> None:
    if graph.edge_count() > MAX_PATTERN_EDGES:
        raise CapacityError(f"patterns are limited to {MAX_PATTERN_EDGES} edges, got {graph.edge_count()}")


def exponent_report(pattern: Pattern) -> ExponentReport:
    g = pattern.graph
    _check_edge_cap(g)
    kr, dt = _exponents(pattern)
    degen, _ = degeneracy(g)
    lg_exponent = None if g.edge_count() == 0 else line_graph_two_sided_exponent(g)
    return ExponentReport(
        k_reg=MilliValue(kr),
        d_tilde=dt,
        one_sided_exponent=MilliValue(kr),
        two_sided_exponent=MilliValue(_objective(kr, dt, "two_sided")),
        delta=g.max_degree(),
        degeneracy=degen,
        line_graph_two_sided=lg_exponent,
        order=pattern.sequence,
    )


def _heuristic_orders(graph: Graph) -> list[tuple[int, ...]]:
    """Candidate orders: min-degree-removal degeneracy orders under several
    tie-breaks, descending-degree static orders, and the identity."""
    n = graph.vertex_count
    tiebreaks = [lambda u: u, lambda u: -u] + [
        lambda u, s=salt: (u * 2654435761 + s * 40503) % 104729 for salt in range(4)
    ]
    deg = [graph.rows[v].bit_count() for v in range(n)]
    orders = [
        tuple(range(n)),
        *(_min_degree_removal(graph, tiebreak)[1] for tiebreak in tiebreaks),
        tuple(sorted(range(n), key=lambda v: (-deg[v], v))),
        tuple(sorted(range(n), key=lambda v: (-deg[v], -v))),
    ]
    return list(dict.fromkeys(orders))


def _search(graph: Graph, objective: str, strategy: str) -> tuple[int, ...]:
    """The order chosen by ``strategy``; see ``optimize_order``.

    Both exact strategies run one depth-first search over prefixes in
    lexicographic vertex order.  A placed vertex's terms are final, so a
    prefix's largest term bounds every completion, and a prefix whose bound
    is ``>= best`` holds no strictly better order: the search returns the
    first optimum in ``itertools.permutations`` order, or the incumbent.
    A placed vertex's terms depend only on the vertex and the set placed
    before it, not on their order, so they are memoised on (v, placed set):
    the memo changes no value the search compares, only how often ``_terms``
    runs (Petersen: 1,760 distinct keys for 24,540 calls), and it holds at
    most n 2^(n-1) entries, 24,576 at ``BRANCH_AND_BOUND_LIMIT``.
    """
    n = graph.vertex_count
    rows = graph.rows
    best, best_seq = math.inf, None
    if strategy != "exhaustive":
        for seq in _heuristic_orders(graph):
            val = _objective(*_exponents(Pattern(graph, seq)), objective)
            if val < best:
                best, best_seq = val, seq
        if strategy == "heuristic":
            return best_seq
    # d_tilde >= max degree in every order, so the two-sided bound starts at
    # this floor and an incumbent already at the floor is cut at the root
    floor = 500 + 500 * graph.max_degree() if objective == "two_sided" else 0
    prefix: list[int] = []
    terms: dict[tuple[int, int], int] = {}  # (v, placed before v) -> objective term

    def dfs(placed_mask: int, bound_so_far: int):
        nonlocal best, best_seq
        if bound_so_far >= best:
            return
        if len(prefix) == n:
            best, best_seq = bound_so_far, tuple(prefix)
            return
        for v in range(n):
            bit = 1 << v
            if placed_mask & bit:
                continue
            term = terms.get((v, placed_mask))
            if term is None:
                term = terms[v, placed_mask] = _objective(*_terms(rows, v, placed_mask), objective)
            prefix.append(v)
            dfs(placed_mask | bit, max(bound_so_far, term))
            prefix.pop()

    dfs(0, floor)
    return best_seq


def optimize_order(graph: Graph, objective: str, strategy: str) -> tuple[tuple[int, ...], ExponentReport]:
    """Search vertex orders minimising the chosen exponent.

    ``exhaustive`` and ``branch_and_bound`` are exact within their capacity
    limits; ``heuristic`` evaluates degeneracy orders from min-degree removal
    plus descending-degree orders and returns the best found.
    """
    if objective not in ("one_sided", "two_sided"):
        raise ParameterError(f"unknown objective {objective!r}")
    limits = {"exhaustive": EXHAUSTIVE_LIMIT, "branch_and_bound": BRANCH_AND_BOUND_LIMIT, "heuristic": None}
    if strategy not in limits:
        raise ParameterError(f"unknown strategy {strategy!r}")
    n, limit = graph.vertex_count, limits[strategy]
    if limit is not None and n > limit:
        raise CapacityError(f"{strategy} strategy limited to {limit} vertices, got {n}")
    _check_edge_cap(graph)
    seq = _search(graph, objective, strategy)
    return seq, exponent_report(Pattern(graph, seq))


# -- pattern text format -----------------------------------------------------
#
# The edge-list format plus an optional "order: v1 v2 ... vm" line; without
# an order line the identity order is assumed.

def parse_pattern(text: str) -> Pattern:
    order_line = None
    graph_lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if raw.strip().startswith("order:"):
            if order_line is not None:
                raise ParseError("duplicate order line", line=lineno)
            order_line = (lineno, raw.strip()[len("order:"):])
        else:
            graph_lines.append(raw)
    graph = parse_edge_list("\n".join(graph_lines))
    if order_line is None:
        return Pattern.identity(graph)
    lineno, payload = order_line
    try:
        seq = tuple(int(tok) for tok in payload.split())
    except ValueError:
        raise ParseError("non-integer vertex in order line", line=lineno) from None
    return Pattern(graph, seq)


def format_pattern(pattern: Pattern) -> str:
    body = format_edge_list(pattern.graph)
    return body + "order: " + " ".join(str(v) for v in pattern.sequence) + "\n"
