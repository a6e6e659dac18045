"""Bijumbledness of bipartite pair views.

A pair (U, V) is (p, gamma)-bijumbled if every subset pair (U', V') has
|e(U',V') - p|U'||V'|| <= gamma sqrt(|U'||V'|).  Three certificate routes:

* ``exact_jumble_gamma``   - the optimal gamma, by the exact subset
  enumeration of ``bijumble._subsets``.
* ``spectral_jumble_bound`` - a sound upper bound: the largest singular value
  of the p-centred biadjacency array bounds |1_U'^T (A - pJ) 1_V'| by
  sigma_max sqrt(|U'||V'|) for 0/1 indicator vectors.
* ``search_jumble_violation`` - seeded hill climbing that can only ever
  produce witnesses (lower bounds).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ._subsets import DEFAULT_ENUM_CAP, TIE, scan, subset_budget
from .errors import CapacityError, ConvergenceError, ParameterError
from .graphs import BipartitePairView, VertexSet, pair_block
from .graphs import bool_matrix  # noqa: F401  perfbench/spans.py wraps it by this name

SPECTRAL_TOL = 1e-9
SPECTRAL_MAX_ITER = 10000


@dataclass(frozen=True)
class JumbleCertificate:
    """Outcome of a bijumbledness measurement.

    ``sound_upper`` is True when gamma is a proven upper bound on the optimal
    gamma (exact and spectral methods); the search method only ever proves
    lower bounds via its witness.
    """

    method: str  # "exact" | "spectral" | "search"
    p: float
    gamma: float
    witness: Optional[tuple[VertexSet, VertexSet]]
    sound_upper: bool
    iterations: int | None = None
    hypothesis: dict = field(default_factory=dict)

    def c_prime(self, k: float, left_size: int, right_size: int) -> float:
        """gamma expressed as c' with gamma = c' p^k sqrt(|U||V|)."""
        return self.gamma / (self.p ** k * math.sqrt(left_size * right_size))

    def to_record(self) -> dict:
        rec = {
            "method": self.method,
            "p": self.p,
            "gamma": self.gamma,
            "sound_upper": self.sound_upper,
            "witness_left": list(self.witness[0].indices) if self.witness else None,
            "witness_right": list(self.witness[1].indices) if self.witness else None,
        }
        if self.iterations is not None:
            rec["iterations"] = self.iterations
        if self.hypothesis:
            rec["hypothesis"] = dict(sorted(self.hypothesis.items()))
        return rec


def _discrepancy(e: int, p: float, s: int, t: int) -> float:
    return abs(e - p * s * t) / math.sqrt(s * t)


def exact_jumble_gamma(
    pair: BipartitePairView, p: float, max_subsets: int = DEFAULT_ENUM_CAP
) -> JumbleCertificate:
    """Optimal gamma with an attaining witness.

    Enumerates every nonempty subset of the smaller side with the shared
    kernel of ``bijumble._subsets``.  Ties between witnesses are broken
    towards the lexicographically smallest one, so the result is independent
    of enumeration chunking.
    """
    if p <= 0 or p > 1:
        raise ParameterError("p must lie in (0,1]")
    if not pair.left.indices or not pair.right.indices:
        raise ParameterError("both sides must be nonempty")
    swap = len(pair.left) > len(pair.right)
    view = pair.swapped() if swap else pair
    n = len(view.left)
    if subset_budget(n, 1) > max_subsets:
        raise CapacityError(
            f"exact enumeration of a {n}-vertex side exceeds the {max_subsets}-subset capacity"
        )
    t = np.arange(1, len(view.right) + 1)

    def score(sizes, top, bot):
        pst = (p * sizes)[:, None] * t
        root = np.sqrt(sizes[:, None] * t)
        hi, lo = (top - pst) / root, (pst - bot) / root
        rows = np.arange(len(sizes))
        t_hi, t_lo = hi.argmax(axis=1), lo.argmax(axis=1)
        v_hi, v_lo = hi[rows, t_hi], lo[rows, t_lo]
        hi_first = v_hi >= v_lo  # then bottom too, if it is within TIE of top
        both = hi_first & (np.abs(v_lo - v_hi) <= TIE)
        value = np.stack((np.where(hi_first, v_hi, v_lo), np.where(both, v_lo, -np.inf)), axis=1)
        length = np.stack((np.where(hi_first, t_hi, t_lo), t_lo), axis=1) + 1
        return value, length, np.stack((hi_first, np.zeros_like(hi_first)), axis=1)

    gamma, combo, chosen, _ = scan(view, 1, score)
    witness = (VertexSet.of(combo), VertexSet.of(chosen))
    witness = witness[::-1] if swap else witness
    return JumbleCertificate(
        method="exact", p=p, gamma=max(gamma, 0.0), witness=witness, sound_upper=True
    )


def spectral_jumble_bound(
    pair: BipartitePairView,
    p: float,
    tol: float = SPECTRAL_TOL,
    max_iterations: int = SPECTRAL_MAX_ITER,
    seed: int = 0,
) -> JumbleCertificate:
    """Sound upper bound sigma_max(A - p J) by power iteration.

    Deterministic given (seed, tol); raises ConvergenceError carrying the
    last iterate if the cap is hit.
    """
    if not pair.left.indices or not pair.right.indices:
        raise ParameterError("both sides must be nonempty")
    m = pair_block(pair).astype(np.float64) - p

    rng = np.random.default_rng(seed)
    v = rng.standard_normal(m.shape[1])
    v /= np.linalg.norm(v)
    sigma = 0.0
    for it in range(1, max_iterations + 1):
        u = m @ v
        nu = np.linalg.norm(u)
        if nu == 0.0:
            return JumbleCertificate(
                method="spectral", p=p, gamma=0.0, witness=None, sound_upper=True, iterations=it
            )
        w = m.T @ (u / nu)
        new_sigma = np.linalg.norm(w)
        v = w / new_sigma if new_sigma > 0 else w
        if abs(new_sigma - sigma) <= tol * max(new_sigma, 1e-300):
            return JumbleCertificate(
                method="spectral",
                p=p,
                gamma=float(new_sigma),
                witness=None,
                sound_upper=True,
                iterations=it,
            )
        sigma = new_sigma
    raise ConvergenceError(
        f"power iteration did not reach tolerance {tol} in {max_iterations} iterations",
        last_estimate=float(sigma),
        iterations=max_iterations,
    )


def search_jumble_violation(
    pair: BipartitePairView,
    p: float,
    gamma: float,
    trials: int,
    seed: int,
) -> Optional[JumbleCertificate]:
    """Seeded hill climbing for a subset pair with discrepancy above gamma.

    Restarts draw initial sets of uniform random size; the neighbourhood is
    single-vertex toggles on either side (keeping both sides nonempty) with
    steepest ascent and lowest-index tie-break.  Returns a witness
    certificate iff some local optimum exceeds gamma.
    """
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    rows = pair.graph.rows
    left, right = pair.left.indices, pair.right.indices
    rng = random.Random(seed)
    best = (-1.0, None, None)

    def edge_count(umask: int, vlist: list[int]) -> int:
        return sum((rows[w] & umask).bit_count() for w in vlist)

    for _ in range(trials):
        su = rng.randint(1, len(left))
        sv = rng.randint(1, len(right))
        uset = set(rng.sample(left, su))
        vset = set(rng.sample(right, sv))
        umask = sum(1 << v for v in uset)
        vmask = sum(1 << v for v in vset)
        e = sum((rows[u] & vmask).bit_count() for u in uset)
        score = _discrepancy(e, p, len(uset), len(vset))
        improved = True
        while improved:
            improved = False
            cand = None  # (score, side, vertex, new_e)
            for u in left:
                inside = u in uset
                if inside and len(uset) == 1:
                    continue
                delta = (rows[u] & vmask).bit_count()
                ne = e - delta if inside else e + delta
                ns = len(uset) - 1 if inside else len(uset) + 1
                sc = _discrepancy(ne, p, ns, len(vset))
                if sc > score + 1e-12 and (cand is None or sc > cand[0] + 1e-12):
                    cand = (sc, "L", u, ne)
            for w in right:
                inside = w in vset
                if inside and len(vset) == 1:
                    continue
                delta = (rows[w] & umask).bit_count()
                ne = e - delta if inside else e + delta
                ns = len(vset) - 1 if inside else len(vset) + 1
                sc = _discrepancy(ne, p, len(uset), ns)
                if sc > score + 1e-12 and (cand is None or sc > cand[0] + 1e-12):
                    cand = (sc, "R", w, ne)
            if cand is not None:
                score, side, vtx, e = cand
                if side == "L":
                    uset.symmetric_difference_update({vtx})
                    umask ^= 1 << vtx
                else:
                    vset.symmetric_difference_update({vtx})
                    vmask ^= 1 << vtx
                improved = True
        if score > best[0]:
            best = (score, frozenset(uset), frozenset(vset))

    if best[0] > gamma:
        return JumbleCertificate(
            method="search",
            p=p,
            gamma=best[0],
            witness=(VertexSet.of(best[1]), VertexSet.of(best[2])),
            sound_upper=False,
        )
    return None


@dataclass(frozen=True)
class DegreeOutlierCensus:
    outliers: int
    bound: float
    gamma_dev: float
    expected_degree: float


def degree_outlier_census(
    pair: BipartitePairView, p: float, c_prime: float, k: float, gamma_dev: float
) -> DegreeOutlierCensus:
    """Count left vertices whose right-degree leaves (1 +- gamma_dev) p |V|.

    The caller claims (p, c' p^k sqrt(|U||V|))-bijumbledness; the returned
    bound 2 c'^2 p^(2k-2) gamma_dev^-2 |U| is what that hypothesis implies.
    """
    if gamma_dev <= 0:
        raise ParameterError("gamma_dev must be positive")
    target = p * len(pair.right)
    rmask = pair.right.mask
    outliers = sum(
        1
        for u in pair.left
        if abs((pair.graph.rows[u] & rmask).bit_count() - target) > gamma_dev * target
    )
    bound = 2.0 * c_prime**2 * p ** (2 * k - 2) * gamma_dev**-2 * len(pair.left)
    return DegreeOutlierCensus(outliers=outliers, bound=bound, gamma_dev=gamma_dev, expected_degree=target)


def min_size_bound(c_prime: float, p: float, k: float) -> float:
    """Minimum side size (1/8) c'^-2 p^(1-2k) forced by nontrivial bijumbledness.

    Valid for 0 < c' <= 1/4, 0 < p <= 1/4, k >= 1; used to warn when a
    planned experiment's part sizes make the hypothesis vacuous.
    """
    if not 0 < c_prime <= 0.25:
        raise ParameterError(f"c_prime must lie in (0, 1/4], got {c_prime}")
    if not 0 < p <= 0.25:
        raise ParameterError(f"p must lie in (0, 1/4], got {p}")
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    return 0.125 * c_prime**-2 * p ** (1 - 2 * k)
