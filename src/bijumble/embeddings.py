"""Exact partite embedding counts and counting-window audits.

``count_partite_copies`` counts labelled copies of a pattern H in a host,
vertex i landing in its own part V_i: the map is globally injective and
sends every pattern edge to a host edge; host edges between images of
pattern non-edges are permitted, and parts of non-adjacent pattern vertices
may overlap (injectivity then does real work).  Counting backtracks in the
pattern's embedding order, intersecting host bit rows of already-embedded
neighbours; the order affects only speed, never the count.  The last level
is counted flat: at the second-to-last vertex's candidates w, the last
vertex has sum_w |N(w) & base| images if the two are adjacent, else
|base| |cand| - |cand & base| (an injective pair cannot share w), where
``base`` is its part minus the used vertices, cut by its other earlier
neighbours.  Instances are frozen, so ``count_partite_copies`` and
``suffix_count`` cache their count on the instance: the CLI's count and
its audit's count are one backtracking run.

``suffix_count`` restricts to the pattern vertices at positions >= x with
per-vertex window sets W_y, and ``suffix_bound_audit`` compares it against
(4p)^{e(H`>=x`)} prod |W_y| under the hypotheses p < 1/10, the W-set size
floors |W_y| >= eps p^{|N^{<x}(y)|} |V_y|, and a bijumbledness budget on
beta.  ``optialpha_check`` evaluates the exact sum behind that bound's
optimisation step against (50q)^q p^(1-C); the enumeration uses logarithms
base 2 (forced by the powers of 2 in the sum).  The alpha grid is built in
numpy chunks of ``OPTIALPHA_CHUNK`` vectors in ``itertools.product`` order,
each term with the float operations of a per-vector loop, and the chunks
are added with a sequential ``np.cumsum`` (``np.sum`` is pairwise), so the
sum is bit-identical to a ``+=`` loop over the product.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import jumbled
from ._numeric import REL_TOL, geq, leq
from .errors import CapacityError, ParameterError
from .graphs import BipartitePairView, Graph, VertexSet, iter_bits, p_density
from .patterns import Pattern, d_tilde
from .reports import AuditReport, HypothesisRecord, make_report

OPTIALPHA_CAP = 10**8
OPTIALPHA_CHUNK = 4096  # alpha vectors per numpy pass; larger chunks raise peak memory


@dataclass(frozen=True)
class PartiteInstance:
    """Pattern, host, and one part per pattern vertex (indexed by vertex)."""

    pattern: Pattern
    host: Graph
    parts: tuple[VertexSet, ...]

    def __post_init__(self):
        if len(self.parts) != self.pattern.graph.vertex_count:
            raise ParameterError("need exactly one part per pattern vertex")
        for part in self.parts:
            if part.indices and part.indices[-1] >= self.host.vertex_count:
                raise ParameterError("part references vertices outside the host")
        for u, v in self.pattern.graph.edges():
            if self.parts[u].mask & self.parts[v].mask:
                raise ParameterError(f"parts of adjacent pattern vertices {u},{v} overlap")


@dataclass(frozen=True)
class SuffixInstance:
    """A partite instance restricted to pattern positions >= pos(x).

    ``w_sets[y]`` must be a subset of the base part of y for every pattern
    vertex y at position >= pos(x).
    """

    base: PartiteInstance
    x: int
    w_sets: Mapping[int, VertexSet]

    def __post_init__(self):
        object.__setattr__(self, "w_sets", dict(self.w_sets))  # the count is cached: no aliasing
        if self.x not in self.base.pattern.sequence:
            raise ParameterError(f"x = {self.x} is not a pattern vertex")
        for y in self.suffix_vertices():
            if y not in self.w_sets:
                raise ParameterError(f"missing W-set for suffix vertex {y}")
            if not self.w_sets[y].issubset(self.base.parts[y]):
                raise ParameterError(f"W-set of vertex {y} is not inside its part")

    def suffix_vertices(self) -> tuple[int, ...]:
        seq = self.base.pattern.sequence
        start = seq.index(self.x)
        return seq[start:]


def count_partite_copies(instance: PartiteInstance) -> int:
    """Exact labelled partite copy count, counted once per instance."""
    return _cached_count(instance, _backtrack)


def _cached_count(instance, count) -> int:
    # instances are frozen, so the count cannot go stale; the cache is not a
    # dataclass field, so equality and hashing are unaffected
    cached = instance.__dict__.get("_count_cache")
    if cached is None:
        cached = count(instance)
        object.__setattr__(instance, "_count_cache", cached)
    return cached


def _backtrack(instance: PartiteInstance) -> int:
    """``count_partite_copies`` by ordered backtracking with a flat last level."""
    pattern, host = instance.pattern, instance.host
    seq = pattern.sequence
    m = len(seq)
    if m == 0:
        return 1
    if m == 1:
        return len(instance.parts[0])
    rows = host.rows
    prows = pattern.graph.rows
    part_masks = [instance.parts[v].mask for v in seq]
    earlier: list[list[int]] = []  # indices into images[] of already-embedded neighbours
    for i, v in enumerate(seq):
        earlier.append([j for j in range(i) if prows[v] & (1 << seq[j])])
    last = m - 1
    last_back = [j for j in earlier[last] if j != last - 1]
    adjacent = len(last_back) < len(earlier[last])  # last vertex ~ second-to-last

    images = [0] * m

    def rec(level: int, used: int) -> int:
        cand = part_masks[level] & ~used
        for j in earlier[level]:
            cand &= rows[images[j]]
            if not cand:
                return 0
        if level == last - 1:
            base = part_masks[last] & ~used
            for j in last_back:
                base &= rows[images[j]]
            if adjacent:  # no loops in the host, so w never lands in rows[w]
                return sum((rows[w] & base).bit_count() for w in iter_bits(cand))
            return base.bit_count() * cand.bit_count() - (cand & base).bit_count()
        total = 0
        for w in iter_bits(cand):
            images[level] = w
            total += rec(level + 1, used | (1 << w))
        return total

    return rec(0, 0)


def predicted_count(instance: PartiteInstance, p: float) -> tuple[float, float]:
    """(density product d(H;G), d(H;G) p^e(H) prod |V_i|)."""
    if p <= 0:
        raise ParameterError("p must be positive")
    if any(not part.indices for part in instance.parts):
        raise ParameterError("all parts must be nonempty")
    dh = 1.0
    for u, v in instance.pattern.graph.edges():
        dh *= p_density(BipartitePairView(instance.host, instance.parts[u], instance.parts[v]), p)
    e = instance.pattern.graph.edge_count()
    pred = dh * p**e * math.prod(len(part) for part in instance.parts)
    return dh, pred


def counting_window_audit(
    instance: PartiteInstance,
    p: float,
    gamma: float,
    side: str = "two_sided",
    seed: int = 0,
) -> AuditReport:
    """Compare the exact count against the counting-lemma floor or window,
    in relaxed mode and without hypothesis records."""
    started = time.perf_counter()
    if side not in ("lower", "two_sided"):
        raise ParameterError(f"unknown side {side!r}")
    dh, _ = predicted_count(instance, p)
    e = instance.pattern.graph.edge_count()
    scale = p**e * math.prod(len(part) for part in instance.parts)
    count = count_partite_copies(instance)
    lo = (dh - gamma) * scale
    if side == "lower":
        bound, kind = lo, "lower"
    else:
        bound, kind = [lo, (dh + gamma) * scale], "window"
    return make_report(
        "counting_window_" + ("one_sided" if side == "lower" else "two_sided"),
        "relaxed",
        [],
        measured=count,
        bound=bound,
        bound_kind=kind,
        parameters={"p": p, "gamma": gamma, "density_product": dh, "edge_count": e},
        seed=seed,
        started=started,
    )


def _suffix_pattern(instance: SuffixInstance) -> tuple[Pattern, tuple[VertexSet, ...]]:
    suffix = instance.suffix_vertices()
    relabel = {v: i for i, v in enumerate(suffix)}
    edges = [
        (relabel[u], relabel[v])
        for u, v in instance.base.pattern.graph.edges()
        if u in relabel and v in relabel
    ]
    graph = Graph.from_edges(len(suffix), edges)
    parts = tuple(instance.w_sets[v] for v in suffix)
    return Pattern.identity(graph), parts


def suffix_count(instance: SuffixInstance) -> int:
    """Copies of the induced suffix pattern with each y inside w_sets[y],
    counted once per instance."""
    return _cached_count(instance, _suffix_backtrack)


def _suffix_backtrack(instance: SuffixInstance) -> int:
    pattern, parts = _suffix_pattern(instance)
    return count_partite_copies(PartiteInstance(pattern, instance.base.host, parts))


def suffix_bound_audit(
    instance: SuffixInstance,
    p: float,
    eps: float,
    beta: float | None = None,
    mode: str = "strict",
    seed: int = 0,
) -> AuditReport:
    """Compare the suffix count against (4p)^(e(H>=x)) prod |W_y|.

    The beta hypothesis beta <= eps/2 (50 D)^-D p^(1/2 + d~/2) is checked
    against the supplied value or a spectral measurement over every pattern
    edge; the W-set floors and p < 1/10 are checked directly.
    """
    started = time.perf_counter()
    base = instance.base
    pattern = base.pattern
    suffix = instance.suffix_vertices()
    pos = {v: i for i, v in enumerate(pattern.sequence)}
    x_pos = pos[instance.x]

    hyp_p = HypothesisRecord("p_range", p < 0.1, True, {"p": p})

    floors_ok = True
    floor_detail = {}
    for y in suffix:
        back = sum(
            1 for w in iter_bits(pattern.graph.rows[y]) if pos[w] < x_pos
        )  # |N^{<x}(y)|
        required = eps * p**back * len(base.parts[y])
        floors_ok &= geq(len(instance.w_sets[y]), required)
        floor_detail[str(y)] = {"size": len(instance.w_sets[y]), "required": required}
    hyp_floors = HypothesisRecord("w_set_floors", floors_ok, True, floor_detail)

    beta_certified = beta is None  # spectrally measured = sound; supplied = assumed
    if beta is None:
        beta = 0.0
        for u, v in pattern.graph.edges():
            pr = BipartitePairView(base.host, base.parts[u], base.parts[v])
            cert = jumbled.spectral_jumble_bound(pr, p)
            beta = max(beta, cert.gamma / math.sqrt(len(base.parts[u]) * len(base.parts[v])))
    dmax = pattern.graph.max_degree()
    dt = d_tilde(pattern)
    budget = 0.5 * eps * (50.0 * dmax) ** -dmax * p ** (0.5 + 0.5 * dt) if dmax else 0.5 * eps
    hyp_beta = HypothesisRecord(
        "beta_budget", leq(beta, budget), beta_certified, {"beta": beta, "budget": budget}
    )

    count = suffix_count(instance)
    e_suffix = sum(
        1 for u, v in pattern.graph.edges() if pos[u] >= x_pos and pos[v] >= x_pos
    )
    bound = (4 * p) ** e_suffix * math.prod(len(instance.w_sets[y]) for y in suffix)
    return make_report(
        "suffix_count_bound",
        mode,
        [hyp_p, hyp_floors, hyp_beta],
        measured=count,
        bound=bound,
        bound_kind="upper",
        parameters={
            "p": p,
            "eps": eps,
            "x": instance.x,
            "suffix_edges": e_suffix,
            "d_tilde": dt,
            "max_degree": dmax,
        },
        seed=seed,
        started=started,
    )


@dataclass(frozen=True)
class OptialphaResult:
    lhs_sum: float
    bound: float
    holds: bool
    cap_p: int  # P = floor(log2(1/p))
    c_exponent: int  # C = max_i (b_i + i), 1-based i
    p_hypothesis_met: bool


def optialpha_check(p: float, b: Sequence[int]) -> OptialphaResult:
    """Exactly evaluate the alpha-vector sum and compare with (50q)^q p^(1-C).

    A = [0,P]^q minus the zero vector with P = floor(log2(1/p)); each term is
    2^(sum alpha) / max_{i: alpha_i != 0} 2^(2 alpha_i) p^(b_i).  The stated
    guarantee needs p <= 1/10 and b nonincreasing; larger p still gets
    evaluated, with the hypothesis flag cleared.
    """
    if not 0 < p < 1:
        raise ParameterError("p must lie in (0,1)")
    q = len(b)
    if q < 1:
        raise ParameterError("b must be nonempty")
    if any(bi < 0 or int(bi) != bi for bi in b):
        raise ParameterError("b entries must be nonnegative integers")
    if any(b[i] < b[i + 1] for i in range(q - 1)):
        raise ParameterError("b must be sorted nonincreasing")
    cap_p = int(math.floor(math.log2(1.0 / p) + REL_TOL))
    if (cap_p + 1) ** q > OPTIALPHA_CAP:
        raise CapacityError(
            f"optialpha enumeration ({(cap_p + 1) ** q} vectors) exceeds capacity {OPTIALPHA_CAP}"
        )
    c_exp = max(bi + i for i, bi in enumerate(b, start=1))
    pb = np.array([p**bi for bi in b])[:, None]
    if max(q, 2) * cap_p > 1023 or not pb.all():
        raise ParameterError(f"p = {p!r} is too small: the alpha sum leaves the double range")
    total, count = 0.0, (cap_p + 1) ** q
    for start in range(0, count, OPTIALPHA_CHUNK):
        flat = np.arange(start, min(start + OPTIALPHA_CHUNK, count))
        alpha = np.array(np.unravel_index(flat, (cap_p + 1,) * q))  # itertools.product order
        num = np.ldexp(1.0, alpha.sum(axis=0))
        den = np.where(alpha != 0, np.ldexp(1.0, 2 * alpha) * pb, 0.0).max(axis=0)
        terms = np.divide(num, den, out=np.zeros_like(num), where=den > 0)  # 0 for alpha = 0 only
        total = float(np.cumsum(np.concatenate(([total], terms)))[-1])  # sequential, as the += loop
    bound = (50.0 * q) ** q * p ** (1 - c_exp)
    return OptialphaResult(
        lhs_sum=total,
        bound=bound,
        holds=leq(total, bound),
        cap_p=cap_p,
        c_exponent=c_exp,
        p_hypothesis_met=leq(p, 0.1),
    )
