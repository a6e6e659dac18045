"""Graph substrate: bit-row adjacency, vertex sets, pair views, densities.

The representation is a tuple of Python integers used as adjacency bit sets
over the dense 0-based vertex indices: set algebra on neighbourhoods is
AND + popcount, which is what the embedding counts and small exact pairs
use.  The dense kernels (codegrees, sampled regularity, the spectral bound)
work on numpy 0/1 blocks instead, cut by ``pair_block`` from the cached
``bool_matrix``.  Graphs and vertex sets are immutable after construction
and safe to share across workers.

Edge lists in the canonical form that ``format_edge_list`` writes are read
in one vectorised numpy pass; every other accepted form, and every parse
error, goes through the line loop ``_parse_lines`` (see the comment block
above ``parse_edge_list``).
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np

from .errors import CapacityError, ParameterError, ParseError, UndefinedDensityError


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices ``0..vertex_count-1``.

    ``rows[v]`` is the neighbourhood of ``v`` as a bit set.  Invariants:
    symmetric (u in rows[v] iff v in rows[u]) and irreflexive.
    """

    vertex_count: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if self.vertex_count < 0:
            raise ParameterError("vertex_count must be nonnegative")
        if len(self.rows) != self.vertex_count:
            raise ParameterError("rows length must equal vertex_count")
        full = (1 << self.vertex_count) - 1
        for v, row in enumerate(self.rows):
            if row & (1 << v):
                raise ParameterError(f"self-loop at vertex {v}")
            if row & ~full:
                raise ParameterError(f"row {v} references vertices out of range")
        for v, row in enumerate(self.rows):
            for u in iter_bits(row):
                if not self.rows[u] & (1 << v):
                    raise ParameterError(f"asymmetric adjacency between {u} and {v}")

    @classmethod
    def _trusted(cls, vertex_count: int, rows: tuple[int, ...]) -> "Graph":
        # for internal constructors whose rows are symmetric and irreflexive
        # by construction; skips the O(E) invariant sweep
        g = object.__new__(cls)
        object.__setattr__(g, "vertex_count", vertex_count)
        object.__setattr__(g, "rows", rows)
        return g

    @classmethod
    def from_edges(cls, vertex_count: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        rows = [0] * vertex_count
        index = operator.index  # numpy integer endpoints would shift in 64 bits
        for u, v in edges:
            u, v = index(u), index(v)
            if u == v:
                raise ParameterError(f"self-loop ({u},{v}) rejected")
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ParameterError(f"edge ({u},{v}) out of range for n={vertex_count}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls._trusted(vertex_count, tuple(rows))

    @classmethod
    def empty(cls, vertex_count: int) -> "Graph":
        return cls._trusted(vertex_count, (0,) * vertex_count)

    def degree(self, v: int, within: int | None = None) -> int:
        row = self.rows[v]
        if within is not None:
            row &= within
        return row.bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] & (1 << v))

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.vertex_count):
            for v in iter_bits(self.rows[u] >> (u + 1)):
                yield (u, u + 1 + v)

    def max_degree(self) -> int:
        return max((r.bit_count() for r in self.rows), default=0)

    def is_subgraph_of(self, other: "Graph") -> bool:
        if self.vertex_count != other.vertex_count:
            return False
        return all(r & ~o == 0 for r, o in zip(self.rows, other.rows))


def bool_matrix(graph: Graph) -> np.ndarray:
    """Dense boolean adjacency of ``graph``, computed once and cached.

    Safe to cache because graphs are immutable; the cache is not a dataclass
    field, so equality and hashing are unaffected.
    """
    cached = graph.__dict__.get("_bool_cache")
    if cached is None:
        n = graph.vertex_count
        nbytes = max(1, (n + 7) // 8)
        raw = np.frombuffer(
            b"".join(r.to_bytes(nbytes, "little") for r in graph.rows), dtype=np.uint8
        ).reshape(n, nbytes) if n else np.zeros((0, 1), dtype=np.uint8)
        cached = np.unpackbits(raw, axis=1, bitorder="little", count=n).astype(bool)
        object.__setattr__(graph, "_bool_cache", cached)
    return cached


def rows_from_bool_matrix(mat: np.ndarray) -> tuple[int, ...]:
    return _rows_from_packed(np.packbits(mat, axis=1, bitorder="little"))


def _rows_from_packed(packed: np.ndarray) -> tuple[int, ...]:
    """Python ``int`` bit rows of a (rows, bytes) little-endian packed matrix."""
    data, width = packed.tobytes(), packed.shape[1]
    return tuple(int.from_bytes(data[i * width : (i + 1) * width], "little") for i in range(len(packed)))


@dataclass(frozen=True, order=True)
class VertexSet:
    """Immutable sorted set of vertex indices with a cached bit mask."""

    indices: tuple[int, ...]
    mask: int = field(compare=False)

    @classmethod
    def of(cls, indices: Iterable[int]) -> "VertexSet":
        idx = tuple(sorted(set(indices)))
        if idx and idx[0] < 0:
            raise ParameterError("vertex indices must be nonnegative")
        return cls(idx, mask_of(idx))

    @classmethod
    def from_mask(cls, mask: int) -> "VertexSet":
        return cls(tuple(iter_bits(mask)), mask)

    @classmethod
    def range(cls, start: int, stop: int) -> "VertexSet":
        return cls.of(range(start, stop))

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices)

    def __contains__(self, v: int) -> bool:
        return bool(self.mask & (1 << v))

    def issubset(self, other: "VertexSet") -> bool:
        return self.mask & ~other.mask == 0


@dataclass(frozen=True)
class BipartitePairView:
    """A graph together with two disjoint vertex sets (left, right)."""

    graph: Graph
    left: VertexSet
    right: VertexSet

    def __post_init__(self):
        if self.left.mask & self.right.mask:
            raise ParameterError("left and right sides must be disjoint")
        top = max(
            self.left.indices[-1] if self.left.indices else -1,
            self.right.indices[-1] if self.right.indices else -1,
        )
        if top >= self.graph.vertex_count:
            raise ParameterError("pair view references vertices out of range")

    def edge_count(self) -> int:
        rmask = self.right.mask
        return sum((self.graph.rows[u] & rmask).bit_count() for u in self.left)

    def swapped(self) -> "BipartitePairView":
        return BipartitePairView(self.graph, self.right, self.left)


@dataclass(frozen=True)
class TripartiteSystem:
    """Host graph, a spanning subgraph of it, and three disjoint parts."""

    host: Graph
    sub: Graph
    x: VertexSet
    y: VertexSet
    z: VertexSet

    def __post_init__(self):
        if self.host.vertex_count != self.sub.vertex_count:
            raise ParameterError("host and sub must share a vertex universe")
        if not self.sub.is_subgraph_of(self.host):
            raise ParameterError("sub must be a subgraph of host")
        if (self.x.mask & self.y.mask) or (self.x.mask & self.z.mask) or (self.y.mask & self.z.mask):
            raise ParameterError("parts X, Y, Z must be pairwise disjoint")

    def part(self, name: str) -> VertexSet:
        return {"X": self.x, "Y": self.y, "Z": self.z}[name.upper()]

    def pair(self, a: str, b: str, which: str = "sub") -> BipartitePairView:
        g = self.sub if which == "sub" else self.host
        return BipartitePairView(g, self.part(a), self.part(b))


def pair_block(view: BipartitePairView) -> np.ndarray:
    """The view's boolean biadjacency block: left rows, right columns.

    Rows are cut first and columns taken second: ``take`` keeps the block
    C-ordered, where ``[:, right]`` would give an F-ordered one, whose
    matrix products round differently in the last bits.
    """
    left = np.array(view.left.indices, dtype=np.int64)
    right = np.array(view.right.indices, dtype=np.int64)
    return bool_matrix(view.graph)[left].take(right, axis=1)


# -- densities and codegrees -------------------------------------------------

def density(pair: BipartitePairView) -> Fraction:
    """Plain density e(left,right)/(|left||right|) as an exact rational."""
    if not pair.left.indices or not pair.right.indices:
        raise UndefinedDensityError("density of a pair with an empty side is undefined")
    return Fraction(pair.edge_count(), len(pair.left) * len(pair.right))


def p_density(pair: BipartitePairView, p: float) -> float:
    """Rescaled density e/(p|left||right|)."""
    if p <= 0:
        raise ParameterError("p must be positive")
    return float(density(pair)) / p


def codegree(u: int, u_prime: int, target: VertexSet, graph: Graph) -> int:
    """Number of common neighbours of u and u' inside ``target``."""
    if u == u_prime:
        raise ParameterError("codegree requires two distinct vertices")
    return (graph.rows[u] & graph.rows[u_prime] & target.mask).bit_count()


# -- edge-list text format ---------------------------------------------------
#
# First line "n=<vertex_count>", then one edge "u v" per line, LF endings,
# '#'-prefixed comment lines (and blank lines) ignored.  The canonical form,
# which ``format_edge_list`` writes, is parsed in one numpy pass: an
# "n=<ascii digits>" first line, then only lines "<digits> <digits>\n" naming
# in-range, loop-free edges.  That pass accepts a strict subset of what the
# line loop accepts and raises nothing; any other text, and every error,
# goes through ``_parse_lines``, so messages and line numbers come from one
# place.  A header above ``MAX_VERTICES`` is a ``CapacityError`` before any
# row is allocated.

MAX_VERTICES = 1 << 16  # bit rows of n^2/8 bytes: 512 MiB at the cap

_SPACE, _NEWLINE = ord(" "), ord("\n")
_MAX_TOKEN_DIGITS = 18  # below 2^63, so int64 tokens cannot overflow


def parse_edge_list(text: str) -> Graph:
    graph = _parse_canonical(text)
    return graph if graph is not None else _parse_lines(text)


def _parse_canonical(text: str) -> Graph | None:
    """The graph of canonical ``text``, or None for any other text."""
    head, newline, body = text.partition("\n")
    count = head[2:]
    if not (newline and head.startswith("n=") and count.isascii() and count.isdigit()):
        return None
    n = int(count)
    if n > MAX_VERTICES or not body.isascii():
        return None
    encoded = body.encode("ascii")
    if not _canonical_body(np.frombuffer(encoded, dtype=np.uint8)):
        return None
    ends = np.fromstring(encoded, dtype=np.int64, sep=" ")
    u, v = ends[0::2], ends[1::2]
    if (u == v).any() or (len(ends) and ends.max() >= n):
        return None
    # packed rows only for vertices with an edge: a sparse graph on many
    # vertices must not cost n * ceil(n/8) bytes
    touched = np.bincount(ends, minlength=n) > 0
    slot = np.cumsum(touched) - 1
    nbytes = (n + 7) // 8
    packed = np.zeros((int(touched.sum()), nbytes), dtype=np.uint8)
    for a, b in ((u, v), (v, u)):
        np.bitwise_or.at(packed.reshape(-1), slot[a] * nbytes + (b >> 3), (1 << (b & 7)).astype(np.uint8))
    rows = [0] * n
    for vertex, row in zip(np.flatnonzero(touched).tolist(), _rows_from_packed(packed)):
        rows[vertex] = row
    return Graph._trusted(n, tuple(rows))


def _canonical_body(raw: np.ndarray) -> bool:
    """Whether the bytes ``raw`` are lines "<digits> <digits>\n", every token
    of 1 to ``_MAX_TOKEN_DIGITS`` digits."""
    if len(raw) == 0:
        return True
    # every non-digit byte is a separator: " " after u, "\n" after v
    seps = np.flatnonzero(raw - np.uint8(ord("0")) > 9)  # bytes below "0" wrap round
    widths = np.diff(seps, prepend=-1)  # token length + 1
    return bool(
        raw[-1] == _NEWLINE
        and (raw[seps[0::2]] == _SPACE).all()
        and (raw[seps[1::2]] == _NEWLINE).all()
        and widths.min() >= 2
        and widths.max() <= _MAX_TOKEN_DIGITS + 1
    )


def _parse_lines(text: str) -> Graph:
    vertex_count = None
    rows: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if vertex_count is None:
            if not line.startswith("n="):
                raise ParseError("expected header 'n=<vertex_count>'", line=lineno)
            try:
                vertex_count = int(line[2:])
            except ValueError:
                raise ParseError(f"bad vertex count {line[2:]!r}", line=lineno) from None
            if vertex_count < 0:
                raise ParseError("vertex count must be nonnegative", line=lineno)
            if vertex_count > MAX_VERTICES:
                raise CapacityError(
                    f"line {lineno}: vertex count {vertex_count} exceeds the limit of {MAX_VERTICES}"
                )
            rows = [0] * vertex_count
            continue
        parts = line.split(" ")
        if len(parts) != 2:
            raise ParseError(f"expected 'u v', got {line!r}", line=lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"non-integer endpoint in {line!r}", line=lineno) from None
        if u == v:
            raise ParseError(f"self-loop '{u} {v}' rejected", line=lineno)
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise ParseError(f"endpoint out of range in '{u} {v}' (n={vertex_count})", line=lineno)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    if vertex_count is None:
        raise ParseError("missing 'n=' header", line=1)
    return Graph._trusted(vertex_count, tuple(rows))


def format_edge_list(graph: Graph) -> str:
    lines = [f"n={graph.vertex_count}"]
    lines.extend(f"{u} {v}" for u, v in graph.edges())
    return "\n".join(lines) + "\n"


def load_graph(source) -> Graph:
    """Load a graph from a path or file-like object in edge-list format."""
    if hasattr(source, "read"):
        return parse_edge_list(source.read())
    with open(source, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


# -- stock constructions -----------------------------------------------------

def complete_bipartite(m: int, n: int) -> BipartitePairView:
    """K_{m,n} as a pair view: left = 0..m-1, right = m..m+n-1."""
    g = Graph.from_edges(m + n, ((u, m + w) for u in range(m) for w in range(n)))
    return BipartitePairView(g, VertexSet.range(0, m), VertexSet.range(m, m + n))


def empty_pair(m: int, n: int) -> BipartitePairView:
    return BipartitePairView(Graph.empty(m + n), VertexSet.range(0, m), VertexSet.range(m, m + n))


def perfect_matching(n: int) -> BipartitePairView:
    """n disjoint edges between left = 0..n-1 and right = n..2n-1."""
    g = Graph.from_edges(2 * n, ((i, n + i) for i in range(n)))
    return BipartitePairView(g, VertexSet.range(0, n), VertexSet.range(n, 2 * n))


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ParameterError("cycle needs at least 3 vertices")
    return Graph.from_edges(n, itertools.chain(((i, i + 1) for i in range(n - 1)), [(n - 1, 0)]))


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, itertools.combinations(range(n), 2))


def triangle_book(pages: int) -> Graph:
    """``pages`` triangles sharing one vertex: centre 0, page t uses 2t+1, 2t+2."""
    edges = []
    for t in range(pages):
        a, b = 2 * t + 1, 2 * t + 2
        edges += [(0, a), (0, b), (a, b)]
    return Graph.from_edges(2 * pages + 1, edges)


def pair_on(graph: Graph, left: Iterable[int], right: Iterable[int]) -> BipartitePairView:
    return BipartitePairView(graph, VertexSet.of(left), VertexSet.of(right))
