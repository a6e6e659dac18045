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

``optimize_order`` searches the order space for the smallest exponent;
``line_graph_two_sided_exponent`` computes the earlier line-graph-based exponent
min((D(L)+4)/2, (degen(L)+6)/2) used for comparison tables.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from functools import total_ordering

from .errors import CapacityError, ParameterError
from .graphs import Graph, VertexSet, iter_bits

EXHAUSTIVE_LIMIT = 9
BRANCH_AND_BOUND_LIMIT = 12


@total_ordering
@dataclass(frozen=True)
class MilliValue:
    """An exact value in integer thousandths (2501 means 2.501)."""

    mills: int

    @classmethod
    def of(cls, units: int, mills: int = 0) -> "MilliValue":
        return cls(units * 1000 + mills)

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

    def position(self, v: int) -> int:
        return self.sequence.index(v) + 1

    def position_adjacency(self) -> list[list[int]]:
        """Adjacency relabelled to 0-based positions: padj[i] = positions adjacent to i."""
        pos = {v: i for i, v in enumerate(self.sequence)}
        padj: list[list[int]] = [[] for _ in self.sequence]
        for u, v in self.graph.edges():
            padj[pos[u]].append(pos[v])
            padj[pos[v]].append(pos[u])
        for nbrs in padj:
            nbrs.sort()
        return padj


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


def neighborhood_split(pattern: Pattern, v: int, u: int):
    """(N+(v), N-(v), N^{<u}(v)) with respect to the pattern's order."""
    pos = {w: i for i, w in enumerate(pattern.sequence)}
    pv, pu = pos[v], pos[u]
    nbrs = list(iter_bits(pattern.graph.rows[v]))
    forward = VertexSet.of(w for w in nbrs if pos[w] > pv)
    backward = VertexSet.of(w for w in nbrs if pos[w] < pv)
    before_u = VertexSet.of(w for w in nbrs if pos[w] < pu)
    return forward, backward, before_u


def _kreg_mills(padj: list[list[int]]) -> int:
    """k_reg over 0-based position adjacency, in thousandths."""
    m = len(padj)
    nbr_masks = [0] * m
    for i, nbrs in enumerate(padj):
        for j in nbrs:
            nbr_masks[i] |= 1 << j

    below = [(1 << i) - 1 for i in range(m + 1)]

    def back_count(i: int, v: int) -> int:
        # |N^{<i}(v)|: neighbours of v at positions < i
        return (nbr_masks[v] & below[i]).bit_count()

    best = 0
    for i in range(m):
        n_minus_i = back_count(i, i)
        above_i = ~below[i + 1]
        for j in padj[i]:
            if j < i:
                continue
            # first family: ordered edge (i, j)
            base = 500 * n_minus_i + 500 * back_count(i, j)
            later_j = nbr_masks[j] & above_i
            case = 1000
            if later_j:
                case = 1500
                shared = later_j & nbr_masks[i]
                if shared:
                    case = 2000
                    bc_j = back_count(i, j)
                    if any(back_count(i, k) <= bc_j for k in iter_bits(shared)):
                        case = 3000
            best = max(best, base + case)
            # second family: cherries i-j-j' with j, j' after i
            for jp in iter_bits(nbr_masks[j] & above_i):
                tail = 2501 if nbr_masks[i] & (1 << jp) else 2001
                val = 500 * back_count(i, j) + 500 * back_count(i, jp) + tail
                best = max(best, val)
    return best


def _dtilde_value(padj: list[list[int]]) -> int:
    m = len(padj)
    nbr_masks = [0] * m
    for i, nbrs in enumerate(padj):
        for j in nbrs:
            nbr_masks[i] |= 1 << j
    best = 0
    for v in range(m):
        below_v = (1 << v) - 1
        n_minus = (nbr_masks[v] & below_v).bit_count()
        forward = [w for w in padj[v] if w > v]
        inner = 0
        if forward:
            backs = sorted(
                ((nbr_masks[w] & below_v).bit_count() for w in forward), reverse=True
            )
            # rank positions are 1-based; the max is tie-break independent
            inner = max(rank + b for rank, b in enumerate(backs, start=1))
        best = max(best, n_minus + inner)
    return best


def k_reg(pattern: Pattern) -> MilliValue:
    """Smallest value satisfying every ordered-edge and cherry inequality."""
    if pattern.graph.edge_count() == 0:
        warnings.warn("pattern has no edges; k_reg is 0", stacklevel=2)
        return MilliValue(0)
    return MilliValue(_kreg_mills(pattern.position_adjacency()))


def d_tilde(pattern: Pattern) -> int:
    """Back-degree statistic from the ranked forward neighbourhoods.

    A vertex with empty forward neighbourhood contributes just its back
    degree (the inner maximum over the empty set is taken as 0).
    """
    return _dtilde_value(pattern.position_adjacency())


def two_sided_exponent(pattern: Pattern) -> MilliValue:
    kr = k_reg(pattern) if pattern.graph.edge_count() else MilliValue(0)
    return MilliValue(max(kr.mills, 500 + 500 * d_tilde(pattern)))


def degeneracy(graph: Graph) -> tuple[int, tuple[int, ...]]:
    """(degeneracy, witness order) by repeated minimum-degree removal.

    In the returned order every vertex has at most ``degeneracy`` earlier
    neighbours.  Ties are broken by lowest vertex index, so the witness is
    deterministic.
    """
    n = graph.vertex_count
    alive = (1 << n) - 1
    deg = [graph.rows[v].bit_count() for v in range(n)]
    removal: list[int] = []
    degen = 0
    for _ in range(n):
        v = min(iter_bits(alive), key=lambda u: (deg[u], u))
        degen = max(degen, deg[v])
        removal.append(v)
        alive ^= 1 << v
        for u in iter_bits(graph.rows[v] & alive):
            deg[u] -= 1
    return degen, tuple(reversed(removal))


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


def exponent_report(pattern: Pattern) -> ExponentReport:
    g = pattern.graph
    edgeless = g.edge_count() == 0
    kr = MilliValue(0) if edgeless else MilliValue(_kreg_mills(pattern.position_adjacency()))
    dt = d_tilde(pattern)
    two = MilliValue(max(kr.mills, 500 + 500 * dt))
    degen, _ = degeneracy(g)
    lg_exponent = None if edgeless else line_graph_two_sided_exponent(g)
    return ExponentReport(
        k_reg=kr,
        d_tilde=dt,
        one_sided_exponent=kr,
        two_sided_exponent=two,
        delta=g.max_degree(),
        degeneracy=degen,
        line_graph_two_sided=lg_exponent,
        order=pattern.sequence,
    )


def _objective_mills(padj: list[list[int]], objective: str) -> int:
    kr = _kreg_mills(padj)
    if objective == "one_sided":
        return kr
    return max(kr, 500 + 500 * _dtilde_value(padj))


def _padj_for_sequence(graph: Graph, sequence: tuple[int, ...]) -> list[list[int]]:
    pos = {v: i for i, v in enumerate(sequence)}
    padj: list[list[int]] = [[] for _ in sequence]
    for u, v in graph.edges():
        padj[pos[u]].append(pos[v])
        padj[pos[v]].append(pos[u])
    return padj


def _check_objective(objective: str):
    if objective not in ("one_sided", "two_sided"):
        raise ParameterError(f"unknown objective {objective!r}")


def _optimize_exhaustive(graph: Graph, objective: str) -> tuple[int, tuple[int, ...]]:
    best = None
    best_seq = None
    for seq in itertools.permutations(range(graph.vertex_count)):
        val = _objective_mills(_padj_for_sequence(graph, seq), objective)
        if best is None or val < best:
            best, best_seq = val, seq
    return best, best_seq


def _heuristic_orders(graph: Graph) -> list[tuple[int, ...]]:
    """Candidate orders: min-degree-removal degeneracy orders under several
    tie-breaks, descending-degree static orders, and the identity."""
    n = graph.vertex_count
    orders: list[tuple[int, ...]] = [tuple(range(n))]

    def degeneracy_order(tiebreak) -> tuple[int, ...]:
        alive = (1 << n) - 1
        deg = [graph.rows[v].bit_count() for v in range(n)]
        removal = []
        for _ in range(n):
            v = min(iter_bits(alive), key=lambda u: (deg[u], tiebreak(u)))
            removal.append(v)
            alive ^= 1 << v
            for u in iter_bits(graph.rows[v] & alive):
                deg[u] -= 1
        return tuple(reversed(removal))

    orders.append(degeneracy_order(lambda u: u))
    orders.append(degeneracy_order(lambda u: -u))
    for salt in range(4):
        orders.append(degeneracy_order(lambda u, s=salt: (u * 2654435761 + s * 40503) % 104729))
    deg = [graph.rows[v].bit_count() for v in range(n)]
    orders.append(tuple(sorted(range(n), key=lambda v: (-deg[v], v))))
    orders.append(tuple(sorted(range(n), key=lambda v: (-deg[v], -v))))
    seen = set()
    unique = []
    for seq in orders:
        if seq not in seen:
            seen.add(seq)
            unique.append(seq)
    return unique


def _optimize_heuristic(graph: Graph, objective: str) -> tuple[int, tuple[int, ...]]:
    best = None
    best_seq = None
    for seq in _heuristic_orders(graph):
        val = _objective_mills(_padj_for_sequence(graph, seq), objective)
        if best is None or val < best:
            best, best_seq = val, seq
    return best, best_seq


def _optimize_branch_and_bound(graph: Graph, objective: str) -> tuple[int, tuple[int, ...]]:
    """Exact search over orders, pruning partial prefixes.

    Once a vertex is placed, its entire contribution to k_reg and d_tilde is
    determined (all unplaced vertices necessarily come later), so a prefix
    yields an exact lower bound; d_tilde >= max degree supplies the floor for
    the still-unplaced vertices in the two-sided objective.
    """
    n = graph.vertex_count
    rows = graph.rows
    best, best_seq = _optimize_heuristic(graph, objective)
    floor = 500 + 500 * graph.max_degree() if objective == "two_sided" else 0
    if best <= floor and objective == "two_sided":
        return best, best_seq

    def contribution(v: int, before_v_mask: int) -> int:
        # exact objective terms owned by vertex v once it is placed; every
        # vertex not in before_v_mask sits after v in any completion

        def back(u: int, cut_mask: int) -> int:
            return (rows[u] & cut_mask).bit_count()

        later_mask = ~before_v_mask & ~(1 << v)
        n_minus = back(v, before_v_mask)
        term = 0
        # first-family and cherry terms with i = v
        for j in iter_bits(rows[v] & later_mask):
            base = 500 * n_minus + 500 * back(j, before_v_mask)
            later_j = rows[j] & later_mask & ~(1 << j)
            case = 1000
            if later_j:
                case = 1500
                shared = later_j & rows[v]
                if shared:
                    case = 2000
                    bc_j = back(j, before_v_mask)
                    if any(back(k, before_v_mask) <= bc_j for k in iter_bits(shared)):
                        case = 3000
            term = max(term, base + case)
            for jp in iter_bits(rows[j] & later_mask & ~(1 << v)):
                tail = 2501 if rows[v] & (1 << jp) else 2001
                term = max(term, 500 * back(j, before_v_mask) + 500 * back(jp, before_v_mask) + tail)
        if objective == "two_sided":
            forward = list(iter_bits(rows[v] & later_mask))
            inner = 0
            if forward:
                backs = sorted((back(w, before_v_mask) for w in forward), reverse=True)
                inner = max(rank + b for rank, b in enumerate(backs, start=1))
            term = max(term, 500 + 500 * (n_minus + inner))
        return term

    prefix: list[int] = []

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
            term = contribution(v, placed_mask)
            prefix.append(v)
            dfs(placed_mask | bit, max(bound_so_far, term))
            prefix.pop()

    dfs(0, floor)
    return best, best_seq


def optimize_order(graph: Graph, objective: str, strategy: str) -> tuple[tuple[int, ...], ExponentReport]:
    """Search vertex orders minimising the chosen exponent.

    ``exhaustive`` and ``branch_and_bound`` are exact within their capacity
    limits; ``heuristic`` evaluates degeneracy orders from min-degree removal
    plus descending-degree orders and returns the best found.
    """
    _check_objective(objective)
    n = graph.vertex_count
    if strategy == "exhaustive":
        if n > EXHAUSTIVE_LIMIT:
            raise CapacityError(f"exhaustive strategy limited to {EXHAUSTIVE_LIMIT} vertices, got {n}")
        _, seq = _optimize_exhaustive(graph, objective)
    elif strategy == "branch_and_bound":
        if n > BRANCH_AND_BOUND_LIMIT:
            raise CapacityError(
                f"branch_and_bound strategy limited to {BRANCH_AND_BOUND_LIMIT} vertices, got {n}"
            )
        _, seq = _optimize_branch_and_bound(graph, objective)
    elif strategy == "heuristic":
        _, seq = _optimize_heuristic(graph, objective)
    else:
        raise ParameterError(f"unknown strategy {strategy!r}")
    return seq, exponent_report(Pattern(graph, seq))


# -- pattern text format -----------------------------------------------------
#
# The edge-list format plus an optional "order: v1 v2 ... vm" line; without
# an order line the identity order is assumed.

def parse_pattern(text: str) -> Pattern:
    from .graphs import parse_edge_list

    order_line = None
    graph_lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if raw.strip().startswith("order:"):
            if order_line is not None:
                from .errors import ParseError

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
        from .errors import ParseError

        raise ParseError("non-integer vertex in order line", line=lineno) from None
    return Pattern(graph, seq)


def format_pattern(pattern: Pattern) -> str:
    from .graphs import format_edge_list

    body = format_edge_list(pattern.graph)
    return body + "order: " + " ".join(str(v) for v in pattern.sequence) + "\n"
