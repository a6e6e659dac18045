"""Bijumbledness of bipartite pair views.

A pair (U, V) is (p, gamma)-bijumbled if every subset pair (U', V') has
|e(U',V') - p|U'||V'|| <= gamma sqrt(|U'||V'|).  Three certificate routes:

* ``exact_jumble_gamma``   - the optimal gamma, by the exact subset
  enumeration of ``bijumble._subsets``.
* ``spectral_jumble_bound`` - a proven upper bound on sigma_max(A - pJ), the
  same for every BLAS thread count (a shifted Cholesky of the Gram matrix),
  which bounds |1_U'^T (A - pJ) 1_V'| by sigma_max sqrt(|U'||V'|).
* ``search_jumble_violation`` - seeded hill climbing that can only ever
  produce witnesses (lower bounds).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from ._numeric import ABS_TOL
from ._subsets import DEFAULT_ENUM_CAP, TIE, scan, within_cap
from .errors import BijumbleError, CapacityError, ParameterError
from .graphs import BipartitePairView, VertexSet, pair_block
from .graphs import bool_matrix  # noqa: F401  perfbench/spans.py wraps it by this name


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
    iterations: int | None = None  # spectral: Cholesky attempts, 1 or 2

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
        return rec


def _discrepancy(e: int, p: float, s: int, t: int) -> float:
    return abs(e - p * s * t) / math.sqrt(s * t)


def exact_jumble_gamma(pair: BipartitePairView, p: float) -> JumbleCertificate:
    """Optimal gamma with an attaining witness.

    Enumerates every nonempty subset of the smaller side with the shared
    kernel of ``bijumble._subsets``.  Ties between witnesses are broken
    towards the lexicographically smallest one, so the result is independent
    of enumeration chunking.
    """
    if not 0 < p <= 1:
        raise ParameterError("p must lie in (0,1]")
    if not pair.left.indices or not pair.right.indices:
        raise ParameterError("both sides must be nonempty")
    swap = len(pair.left) > len(pair.right)
    view = pair.swapped() if swap else pair
    n = len(view.left)
    if not within_cap(n, 1):
        raise CapacityError(
            f"exact enumeration of a {n}-vertex side exceeds the {DEFAULT_ENUM_CAP}-subset capacity"
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

    gamma, combo, chosen, _ = scan(pair_block(view), view.left.indices, view.right.indices, 1, score)
    witness = (VertexSet.of(combo), VertexSet.of(chosen))
    witness = witness[::-1] if swap else witness
    return JumbleCertificate(
        method="exact", p=p, gamma=max(gamma, 0.0), witness=witness, sound_upper=True
    )


def _gram(block: np.ndarray, p: float) -> np.ndarray:
    """G~ (see ``spectral_jumble_bound``), computed in its upper triangle over
    1 MiB float32 chunks of the 0/1 block and mirrored into the lower one."""
    m, n = block.shape
    step = max(1, (1 << 18) // m)
    g = np.zeros((m, m))
    for c in range(0, n, step):
        f = block[:, c : c + step].astype(np.float32)
        for i in range(0, m, step):
            g[i : i + step, i:] += f[i : i + step] @ f[i:].T
    npd, npp = -p * g.diagonal(), n * (p * p)  # C's diagonal holds the row degrees
    for i in range(0, m, step):  # centre, in place, only the rows filled above, then mirror them
        for term in (npd[i : i + step, None], npd[i:], npp):
            g[i : i + step, i:] += term
        j = min(i + step, m)
        g[j:, i:j] = g[i:j, j:].T
        corner, lower = g[i:j, i:j], np.tril_indices(j - i, -1)
        corner[lower] = corner.T[lower]
    return g


def _lanczos_top(g: np.ndarray) -> float:
    """Lanczos estimate of the top eigenvalue of the symmetric g (Golub and
    Van Loan, Matrix Computations, ch. 10): a fixed-seed start vector, full
    reorthogonalisation (classical Gram-Schmidt, twice), and a stop at an
    invariant subspace (beta <= 2^-40 max|alpha|), when the top Ritz value
    agrees to 2^-50 between checks 10 steps apart, or after min(m, 120) steps."""
    m = len(g)
    q = np.empty((min(m, 120), m))  # the Lanczos vectors, one per row
    start = np.random.default_rng(0).standard_normal(m)
    q[0] = start / np.linalg.norm(start)
    alpha, beta, largest, checked = [], [], 0.0, None
    for k in range(len(q)):
        w = g @ q[k]
        alpha.append(float(q[k] @ w))
        largest = max(largest, abs(alpha[-1]))
        for _ in (1, 2):
            w -= (q[: k + 1] @ w) @ q[: k + 1]
        b = float(np.linalg.norm(w))
        done = b <= 2.0**-40 * largest or k + 1 == len(q)
        if done or (k + 1) % 10 == 0:
            top = float(np.linalg.eigvalsh(np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1))[-1])
            if done or (checked is not None and abs(top - checked) <= 2.0**-50 * abs(top)):
                return top
            checked = top
        beta.append(b)
        q[k + 1] = w / b


def _cholesky(b: np.ndarray) -> bool:
    """Blocked Cholesky b = R^T R into b's upper triangle, the strict lower
    one untouched; False at a pivot <= 0.  Each panel of ``nb`` rows is
    factored row by row, dividing by its pivot, and then subtracted from the
    trailing upper rows ``nb`` at a time, which needs no (m-e)^2 temporary.
    128 rows was the fastest of 64, 96, 128, 192 and 256 at m = 1000 and
    1500 (one BLAS thread)."""
    m, nb = len(b), 128
    for r in range(0, m, nb):
        e = min(r + nb, m)
        for j in range(r, e):
            row = b[j, j:]
            row -= b[r:j, j] @ b[r:j, j:]
            if not row[0] > 0:  # also catches NaN
                return False
            row[0] = x = math.sqrt(row[0])
            row[1:] /= x
        panel = b[r:e]
        for i in range(e, m, nb):
            b[i : i + nb, i:] -= np.triu(panel[:, i : i + nb].T @ panel[:, i:])
    return True


def _up(x: float) -> float:
    return math.nextafter(x, math.inf)


def spectral_jumble_bound(pair: BipartitePairView, p: float) -> JumbleCertificate:
    """Proven upper bound on sigma_max(A - pJ), hence on the optimal gamma.

    Proof.  Transpose so that A is m x n, m <= n, and M = A - pJ; d and c hold
    the row and column degrees of A.  Let u = 2^-53, g_k = ku/(1-ku).
    1. C = AA^T is an integer array, exact in float64 in any summation order
       (partial sums <= n < 2^53); ``_gram`` forms it from chunk products
       taken in float32, exact as well, as a chunk's at most 2^18 < 2^24
       columns bound every partial sum.  G~, symmetric with the upper
       triangle of fl(fl(fl(C - fl(p d_i)) - fl(p d_j)) + fl(n fl(pp))),
       rounds each term of MM^T = C - p(d_i + d_j) + np^2 at most four
       times, so |G~ - MM^T| <= g_5 (C + p d_i + p d_j + np^2).  Row i of C
       sums to sum_k A_ik c_k <= d_max c_max, so ||G~ - MM^T||_2, at most the
       largest row sum, is <= E = g_5 (d_max c_max + p(m d_max + sum d) +
       mnp^2); E = 0 at p = 1.
    2. B~ = sI - G~ is exact but for b~_ii = fl(s - g~_ii), off by <= u b~_ii.
    3. A completed floating-point Cholesky gives R~^T R~ = B~ + dB, |dB| <=
       g_{m+1} |R~^T||R~| (Higham, Accuracy and Stability of Numerical
       Algorithms, Thm 10.3).  ``_cholesky`` is blocked, which splits the sum
       in r~_jk = (b~_jk - sum_i r~_ij r~_ik) / r~_jj over panel updates and
       conventional (non-Strassen) matrix products.  Higham's Lemma 8.4, on
       which Thm 10.3 rests, holds in any order of evaluation of that sum
       (a fused multiply-add only drops a rounding), and the division by the
       pivot is kept.  LAPACK is not used: its triangular solves may multiply
       by a rounded reciprocal of the pivot.  By traces ||R~||_F^2 <=
       tr(B~)/(1 - g_{m+1}), so ||dB||_2 <= h tr(B~), h = g_{m+1}/(1 -
       g_{m+1}), and B~ + h tr(B~) I is positive semidefinite (Rump, BIT 46,
       2006).
    4. Weyl: sigma_max(M)^2 <= s + h tr(B~) + u max b~_ii + E.
    Underflowing products and quotients err by <= 2^-1075 each, far below
    the 2^-1000 added for any array that fits in memory.  The scalar tail is
    exact rational arithmetic, each rounding to float nudged upward.  s sits
    just above a Lanczos estimate of G~'s top eigenvalue (``_lanczos_top``;
    Golub and Van Loan, Matrix Computations, ch. 10) and at least 2^-100,
    clear of the subnormals, rounded up to a multiple of 2^(e-36), 2^(e-1) <=
    s < 2^e, which keeps the last-bit wobble of the estimate between BLAS
    thread counts (up to 1.2*10^-15 relative on 30 pairs) from gamma but
    about once in 2*10^4 calls.  Soundness rests on the Cholesky alone,
    whatever the estimate: a failed Cholesky widens s once, and a second
    failure raises BijumbleError.  ``iterations`` counts the attempts.
    """
    if not 0 < p <= 1:
        raise ParameterError("p must lie in (0,1]")
    if not pair.left.indices or not pair.right.indices:
        raise ParameterError("both sides must be nonempty")
    block = pair_block(pair if len(pair.left) <= len(pair.right) else pair.swapped())
    m, n = block.shape
    g = _gram(block, p)
    lam = max(_lanczos_top(g), 0.0)
    margin = max(lam * m * (m + 1) * 2.0**-53, 2.0**-100)  # about h tr(B~)
    g_diag = g.diagonal().copy()
    for attempt in (1, 2):
        if attempt == 2:  # the failed factorisation overwrote g
            g, margin = _gram(block, p), margin * 1024
        e = math.frexp(lam + margin)[1]  # the grid of 2^(e-36)
        s = math.ldexp(math.ceil(math.ldexp(lam + margin, 36 - e)), e - 36)
        b_diag = s - g_diag
        np.negative(g, out=g)  # exact
        np.fill_diagonal(g, b_diag)
        if _cholesky(g):
            break
    else:
        raise BijumbleError(f"Cholesky of the shifted {m}x{m} Gram matrix failed twice")
    g_m1 = Fraction(m + 1, 2**53 - (m + 1))
    h_trace = g_m1 / (1 - g_m1) * Fraction(_up(math.fsum(b_diag)))
    d, c, q = block.sum(axis=1), block.sum(axis=0), Fraction(p)
    rows = int(d.max()) * (int(c.max()) + m * q) + q * (int(d.sum()) + m * n * q)
    assembly = 0 if p == 1 else Fraction(5, 2**53 - 5) * rows  # E of step 1
    square = Fraction(s) + h_trace + Fraction(b_diag.max()) / 2**53 + assembly
    gamma = _up(math.sqrt(_up(float(square + Fraction(1, 2**1000)))))
    return JumbleCertificate(
        method="spectral", p=p, gamma=gamma, witness=None, sound_upper=True, iterations=attempt
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
    sides = (pair.left.indices, pair.right.indices)
    rng = random.Random(seed)
    best = (-1.0, None, None)

    for _ in range(trials):
        su = rng.randint(1, len(sides[0]))
        sv = rng.randint(1, len(sides[1]))
        chosen = [set(rng.sample(sides[0], su)), set(rng.sample(sides[1], sv))]
        masks = [sum(1 << v for v in part) for part in chosen]
        e = sum((rows[u] & masks[1]).bit_count() for u in chosen[0])
        score = _discrepancy(e, p, su, sv)
        while True:
            cand = None  # (score, side, vertex, new_e)
            for side, vertices in enumerate(sides):
                part, other_mask = chosen[side], masks[1 - side]
                for x in vertices:
                    inside = x in part
                    if inside and len(part) == 1:
                        continue
                    delta = (rows[x] & other_mask).bit_count()
                    ne = e - delta if inside else e + delta
                    sizes = [len(chosen[0]), len(chosen[1])]
                    sizes[side] += -1 if inside else 1
                    sc = _discrepancy(ne, p, *sizes)
                    if sc > score + ABS_TOL and (cand is None or sc > cand[0] + ABS_TOL):
                        cand = (sc, side, x, ne)
            if cand is None:
                break
            score, side, x, e = cand
            chosen[side] ^= {x}
            masks[side] ^= 1 << x
        if score > best[0]:
            best = (score, frozenset(chosen[0]), frozenset(chosen[1]))

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
    degrees = pair_block(pair).sum(axis=1)
    outliers = int(np.count_nonzero(np.abs(degrees - target) > gamma_dev * target))
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
