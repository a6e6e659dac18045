"""Reference computations that only the tests use.

``exact_jumble_gamma`` and ``exact_regularity`` are the pure-Python
enumeration loops that the shared numpy kernel in ``bijumble._subsets``
replaced, and ``sampled_regularity`` is the per-trial loop that the batched
``bijumble.regularity.sampled_regularity`` replaced, all kept verbatim (the
loop takes its subsets from the shared ``draw_subsets``): the replacements
must match them exactly, values, verdicts and witnesses, ties included.
The ``naive_*`` oracles enumerate all subset pairs of both sides,
``brute_force_c4`` all 4-tuples and ``brute_force_partite_copies`` all
assignments of pattern vertices to their parts.

``count_c4``, ``classify_pairs``, ``c4_partition_by_class``,
``bad_pair_masks`` and ``bad_pair_totals`` are the bit-row codegree loops
that the one ``bijumble.quads.codegrees`` kernel replaced, kept verbatim
(``classify_pairs`` without its removed ``include_labels`` option):
``bad_pair_totals`` holds the measured-value loops of both directions of
``bijumble.experiments.bad_pair_bounds_audit``.

``_kreg_mills``, ``_dtilde_value``, ``degeneracy``, ``_heuristic_orders``
and the three ``_optimize_*`` searches are the pattern-exponent code that
the one per-vertex kernel of ``bijumble.patterns`` replaced, and
``search_jumble_violation`` is the hill climb with its two hand-copied
toggle loops, all kept verbatim.

``spectral_jumble_bound`` is the spectral certificate as it was when its
shift sat just above ``numpy.linalg.eigvalsh``'s top eigenvalue of G~,
which the Lanczos estimate replaced.  It is kept verbatim but for its
parameter checks and docstring, and it takes ``_gram``, ``_cholesky`` and
``_up`` from ``bijumble.jumbled``.

``sparsify`` and ``plant_irregular_block`` are the seeded generators as
they were before they kept the 0/1 matrix they draw in: ``sparsify``
scatters the kept edges' index arrays into a fresh matrix, and the plant
walks the sub's bit rows in a Python loop.  Both are kept verbatim, apart
from ``_rows_of``, which packs the bit rows here, and the plant's parameter
check, which is left to the generator under test.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import Optional

import numpy as np

from bijumble._numeric import REL_TOL, leq
from bijumble._subsets import min_size
from bijumble._subsets import subset_budget as _subset_budget
from bijumble.embeddings import PartiteInstance
from bijumble.errors import BijumbleError, CapacityError, ParameterError
from bijumble.graphs import (
    BipartitePairView,
    Graph,
    TripartiteSystem,
    VertexSet,
    bool_matrix,
    iter_bits,
    p_density,
    pair_block,
)
from bijumble.jumbled import DEFAULT_ENUM_CAP, JumbleCertificate, _cholesky, _discrepancy, _gram, _up
from bijumble.patterns import ExponentReport, MilliValue, Pattern, line_graph
from bijumble.quads import C4Census, PairClassCensus
from bijumble.regularity import RegularityVerdict, _validate, draw_subsets


def exact_jumble_gamma(
    pair: BipartitePairView, p: float, max_subsets: int = DEFAULT_ENUM_CAP
) -> JumbleCertificate:
    """Optimal gamma with an attaining witness.

    Enumerates every nonempty subset of the smaller side; the other side is
    handled by degree-sorted prefix sums.  Ties between witnesses are broken
    towards the lexicographically smallest one, so the result is independent
    of enumeration chunking.
    """
    if p <= 0 or p > 1:
        raise ParameterError("p must lie in (0,1]")
    if not pair.left.indices or not pair.right.indices:
        raise ParameterError("both sides must be nonempty")
    swap = len(pair.left) > len(pair.right)
    view = pair.swapped() if swap else pair
    enum_side = view.left.indices
    other_side = view.right.indices
    n = len(enum_side)
    if _subset_budget(n, 1) > max_subsets:
        raise CapacityError(
            f"exact enumeration of a {n}-vertex side exceeds the {max_subsets}-subset capacity"
        )

    rows = view.graph.rows
    n_other = len(other_side)
    best_gamma = -1.0
    best_key = None
    best_witness = None

    def consider(disc: float, combo, chosen):
        nonlocal best_gamma, best_key, best_witness
        key = (combo, tuple(sorted(chosen)))
        if disc > best_gamma + 1e-15 or (abs(disc - best_gamma) <= 1e-15 and key < best_key):
            best_gamma = disc
            best_key = key
            wit = (VertexSet.of(combo), VertexSet.of(chosen))
            best_witness = (wit[1], wit[0]) if swap else wit

    for size in range(1, n + 1):
        for combo in itertools.combinations(enum_side, size):
            smask = 0
            for v in combo:
                smask |= 1 << v
            degs = sorted(
                (((rows[w] & smask).bit_count(), w) for w in other_side),
                key=lambda dw: (-dw[0], dw[1]),
            )
            desc = [d for d, _ in degs]
            top_sum = 0
            bot_sum = 0
            hi_best = lo_best = None  # (disc, t)
            for t in range(1, n_other + 1):
                top_sum += desc[t - 1]
                bot_sum += desc[n_other - t]
                root = math.sqrt(size * t)
                hi = (top_sum - p * size * t) / root
                lo = (p * size * t - bot_sum) / root
                if hi_best is None or hi > hi_best[0]:
                    hi_best = (hi, t)
                if lo_best is None or lo > lo_best[0]:
                    lo_best = (lo, t)
            if hi_best[0] >= lo_best[0]:
                t = hi_best[1]
                consider(hi_best[0], combo, [w for _, w in degs[:t]])
                if abs(lo_best[0] - hi_best[0]) <= 1e-15:
                    t = lo_best[1]
                    consider(lo_best[0], combo, [w for _, w in degs[n_other - t:]])
            else:
                t = lo_best[1]
                consider(lo_best[0], combo, [w for _, w in degs[n_other - t:]])

    return JumbleCertificate(
        method="exact", p=p, gamma=max(best_gamma, 0.0), witness=best_witness, sound_upper=True
    )


def exact_regularity(
    pair: BipartitePairView, epsilon: float, p: float, max_subsets: int = DEFAULT_ENUM_CAP
) -> RegularityVerdict:
    """Certified verdict with the maximum-deviation witness."""
    _validate(pair, epsilon, p)
    base = p_density(pair, p)
    swap = len(pair.left) > len(pair.right)
    view = pair.swapped() if swap else pair
    enum_side, other_side = view.left.indices, view.right.indices
    n, n_other = len(enum_side), len(other_side)
    smin = min_size(epsilon, n)
    tmin = min_size(epsilon, n_other)
    budget = sum(math.comb(n, s) for s in range(smin, n + 1))
    if budget > max_subsets:
        raise CapacityError(
            f"exact regularity would enumerate {budget} subsets of a {n}-vertex side "
            f"(capacity {max_subsets})"
        )

    rows = view.graph.rows
    worst = -1.0
    worst_key = None
    worst_witness = None

    def consider(dev: float, dens: float, combo, chosen):
        nonlocal worst, worst_key, worst_witness
        key = (combo, tuple(sorted(chosen)))
        if dev > worst + 1e-15 or (abs(dev - worst) <= 1e-15 and (worst_key is None or key < worst_key)):
            worst = dev
            worst_key = key
            uset, wset = VertexSet.of(combo), VertexSet.of(chosen)
            worst_witness = (wset, uset, dens) if swap else (uset, wset, dens)

    for size in range(smin, n + 1):
        for combo in itertools.combinations(enum_side, size):
            smask = 0
            for v in combo:
                smask |= 1 << v
            degs = sorted(
                (((rows[w] & smask).bit_count(), w) for w in other_side),
                key=lambda dw: (-dw[0], dw[1]),
            )
            desc = [d for d, _ in degs]
            top_sum = sum(desc[:tmin])
            bot_sum = sum(desc[n_other - tmin:])
            best_here = None  # (dev, dens, t, take_top)
            for t in range(tmin, n_other + 1):
                if t > tmin:
                    top_sum += desc[t - 1]
                    bot_sum += desc[n_other - t]
                scale = p * size * t
                d_top = top_sum / scale
                d_bot = bot_sum / scale
                for dens, take_top in ((d_top, True), (d_bot, False)):
                    dev = abs(dens - base)
                    if best_here is None or dev > best_here[0]:
                        best_here = (dev, dens, t, take_top)
            dev, dens, t, take_top = best_here
            consider(dev, dens, combo, [w for _, w in (degs[:t] if take_top else degs[n_other - t:])])

    regular = leq(worst, epsilon)
    return RegularityVerdict(
        regular=regular,
        epsilon=epsilon,
        p=p,
        base_p_density=base,
        deviation=max(worst, 0.0),
        method="exact",
        worst_witness=worst_witness,
        failure_reason=None if regular else "irregularity witness",
    )


def sampled_regularity(
    pair: BipartitePairView, epsilon: float, p: float, trials: int, seed: int
) -> RegularityVerdict:
    """Randomised violation search; deterministic given the seed."""
    _validate(pair, epsilon, p)
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    base = p_density(pair, p)
    left_idx = np.array(pair.left.indices, dtype=np.int64)
    right_idx = np.array(pair.right.indices, dtype=np.int64)
    sub = bool_matrix(pair.graph)[np.ix_(left_idx, right_idx)]
    n_u, n_w = len(left_idx), len(right_idx)
    su = min_size(epsilon, n_u)
    sw = min_size(epsilon, n_w)
    draws_u, draws_w = draw_subsets(n_u, su, n_w, sw, trials, seed)
    t_range = np.arange(sw, n_w + 1)
    positions = np.arange(n_w)

    worst = -1.0
    worst_witness = None

    def consider(dev: float, dens: float, upos, wpos):
        nonlocal worst, worst_witness
        if dev > worst:
            worst = dev
            worst_witness = (
                VertexSet.of(int(v) for v in left_idx[upos]),
                VertexSet.of(int(v) for v in right_idx[wpos]),
                dens,
            )

    for drawn_u, drawn_w in zip(draws_u.tolist(), draws_w.tolist()):
        upos = sorted(drawn_u)
        wpos = sorted(drawn_w)
        dens = sub[np.ix_(upos, wpos)].sum(dtype=np.int64) / (p * su * sw)
        consider(abs(dens - base), dens, upos, wpos)

        degs = sub[upos].sum(axis=0, dtype=np.int64)
        order_desc = np.lexsort((positions, -degs))
        order_asc = np.lexsort((positions, degs))
        dens_top = np.cumsum(degs[order_desc])[t_range - 1] / (p * su * t_range)
        dens_bot = np.cumsum(degs[order_asc])[t_range - 1] / (p * su * t_range)
        dev_top = np.abs(dens_top - base)
        dev_bot = np.abs(dens_bot - base)
        it = int(np.argmax(dev_top))
        ib = int(np.argmax(dev_bot))
        if dev_top[it] >= dev_bot[ib]:
            t = sw + it
            consider(float(dev_top[it]), float(dens_top[it]), upos, order_desc[:t])
        else:
            t = sw + ib
            consider(float(dev_bot[ib]), float(dens_bot[ib]), upos, order_asc[:t])

    regular = leq(worst, epsilon)
    return RegularityVerdict(
        regular=regular,
        epsilon=epsilon,
        p=p,
        base_p_density=base,
        deviation=max(worst, 0.0),
        method="sampled",
        worst_witness=worst_witness,
        failure_reason=None if regular else "irregularity witness",
    )


def spectral_jumble_bound(pair: BipartitePairView, p: float) -> JumbleCertificate:
    block = pair_block(pair if len(pair.left) <= len(pair.right) else pair.swapped())
    m, n = block.shape
    g = _gram(block, p)
    lam = max(float(np.linalg.eigvalsh(g, UPLO="U")[-1]), 0.0)
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


def naive_jumble_gamma(pair: BipartitePairView, p: float) -> tuple[float, tuple, tuple]:
    """All-subset-pairs reference; exponential, for cross-checks only."""
    rows = pair.graph.rows
    best = (-1.0, (), ())
    left, right = pair.left.indices, pair.right.indices
    for su in range(1, len(left) + 1):
        for cu in itertools.combinations(left, su):
            umask = sum(1 << v for v in cu)
            for sv in range(1, len(right) + 1):
                for cv in itertools.combinations(right, sv):
                    e = sum((rows[w] & umask).bit_count() for w in cv)
                    d = _discrepancy(e, p, su, sv)
                    if d > best[0]:
                        best = (d, cu, cv)
    return best


def naive_regularity_deviation(pair: BipartitePairView, epsilon: float, p: float) -> float:
    """All-subset-pairs reference maximum deviation; for cross-checks only."""
    base = p_density(pair, p)
    rows = pair.graph.rows
    left, right = pair.left.indices, pair.right.indices
    smin, tmin = min_size(epsilon, len(left)), min_size(epsilon, len(right))
    worst = 0.0
    for s in range(smin, len(left) + 1):
        for cu in itertools.combinations(left, s):
            umask = sum(1 << v for v in cu)
            for t in range(tmin, len(right) + 1):
                for cv in itertools.combinations(right, t):
                    e = sum((rows[w] & umask).bit_count() for w in cv)
                    worst = max(worst, abs(e / (p * s * t) - base))
    return worst


def brute_force_c4(pair: BipartitePairView) -> int:
    """4-tuple enumeration reference; for cross-checks on tiny pairs only."""
    g = pair.graph
    total = 0
    for u, up in itertools.combinations(pair.left.indices, 2):
        for w, wp in itertools.combinations(pair.right.indices, 2):
            if g.has_edge(u, w) and g.has_edge(u, wp) and g.has_edge(up, w) and g.has_edge(up, wp):
                total += 1
    return total


def brute_force_partite_copies(instance: PartiteInstance, cap: int = 10**6) -> int:
    """Product-enumeration reference; for cross-checks only."""
    sizes = [len(p) for p in instance.parts]
    space = math.prod(sizes)
    if space > cap:
        raise CapacityError(f"brute force space {space} exceeds {cap}")
    edges = list(instance.pattern.graph.edges())
    g = instance.host
    total = 0
    for assignment in itertools.product(*[p.indices for p in instance.parts]):
        if len(set(assignment)) != len(assignment):
            continue
        if all(g.has_edge(assignment[u], assignment[v]) for u, v in edges):
            total += 1
    return total


def optialpha_lhs_sum(p: float, b) -> float:
    """The alpha-vector sum of ``optialpha_check`` as a per-vector ``+=`` loop."""
    cap_p = int(math.floor(math.log2(1.0 / p) + REL_TOL))
    total = 0.0
    for alpha in itertools.product(range(cap_p + 1), repeat=len(b)):
        if not any(alpha):
            continue
        num = 2.0 ** sum(alpha)
        den = max(2.0 ** (2 * a) * p**bi for a, bi in zip(alpha, b) if a != 0)
        total += num / den
    return total


def count_c4(pair: BipartitePairView) -> int:
    """Exact number of unlabelled C4 with both left vertices in the left side."""
    rows = pair.graph.rows
    rmask = pair.right.mask
    left = pair.left.indices
    masked = [rows[u] & rmask for u in left]
    total = 0
    for i in range(len(left)):
        mi = masked[i]
        for j in range(i + 1, len(left)):
            c = (mi & masked[j]).bit_count()
            total += c * (c - 1) // 2
    return total


def _class_of(codeg: int, bad_thr: float, heavy_thr: float) -> str:
    if codeg >= heavy_thr:
        return "heavy"
    if codeg >= bad_thr:
        return "bad"
    return "typical"


def classify_pairs(pair: BipartitePairView, q: float, delta: float) -> PairClassCensus:
    """Label every left pair by its codegree into the right side."""
    if not 0 < q <= 1:
        raise ParameterError("q must lie in (0,1]")
    if delta <= 0:
        raise ParameterError("delta must be positive")
    nv = len(pair.right)
    bad_thr = (1 + delta) * q * q * nv
    heavy_thr = 4 * q * q * nv
    rows = pair.graph.rows
    rmask = pair.right.mask
    left = pair.left.indices
    masked = [rows[u] & rmask for u in left]
    counts = {"typical": 0, "bad": 0, "heavy": 0}
    for i in range(len(left)):
        mi = masked[i]
        for j in range(i + 1, len(left)):
            cls = _class_of((mi & masked[j]).bit_count(), bad_thr, heavy_thr)
            counts[cls] += 1
    return PairClassCensus(
        q=q,
        delta=delta,
        typical=counts["typical"],
        bad=counts["bad"],
        heavy=counts["heavy"],
    )


def c4_partition_by_class(
    pair: BipartitePairView,
    q: float,
    delta: float,
    p: float | None = None,
    c_prime: float | None = None,
) -> C4Census:
    """C4 totals split by the class of the left pair each copy uses."""
    if not 0 < q <= 1:
        raise ParameterError("q must lie in (0,1]")
    if delta <= 0:
        raise ParameterError("delta must be positive")
    nv = len(pair.right)
    bad_thr = (1 + delta) * q * q * nv
    heavy_thr = 4 * q * q * nv
    rows = pair.graph.rows
    rmask = pair.right.mask
    left = pair.left.indices
    masked = [rows[u] & rmask for u in left]
    parts = {"typical": 0, "bad": 0, "heavy": 0}
    for i in range(len(left)):
        mi = masked[i]
        for j in range(i + 1, len(left)):
            c = (mi & masked[j]).bit_count()
            parts[_class_of(c, bad_thr, heavy_thr)] += c * (c - 1) // 2
    total = parts["typical"] + parts["bad"] + parts["heavy"]
    heavy_bound = heavy_ok = degree_ok = None
    if p is not None and c_prime is not None:
        heavy_bound = 64.0 * c_prime**2 * p**4 * len(left) ** 2 * nv**2
        heavy_ok = parts["heavy"] <= heavy_bound * (1 + 1e-9) + 1e-12
        degree_ok = all(m.bit_count() <= 2 * p * nv + 1e-9 for m in masked)
    return C4Census(
        total=total,
        through_heavy=parts["heavy"],
        through_bad=parts["bad"],
        through_typical=parts["typical"],
        heavy_bound=heavy_bound,
        heavy_within_bound=heavy_ok,
        degree_hypothesis_ok=degree_ok,
    )


def bad_pair_masks(system: TripartiteSystem, threshold: float) -> dict[int, int]:
    """For each y in Y, the bit mask of y' forming a bad pair w.r.t. Z in G."""
    sub_rows = system.sub.rows
    zmask = system.z.mask
    ys = system.y.indices
    masked = [sub_rows[y] & zmask for y in ys]
    bad: dict[int, int] = {y: 0 for y in ys}
    for i in range(len(ys)):
        mi = masked[i]
        for j in range(i + 1, len(ys)):
            if (mi & masked[j]).bit_count() >= threshold:
                bad[ys[i]] |= 1 << ys[j]
                bad[ys[j]] |= 1 << ys[i]
    return bad


def bad_pair_totals(system: TripartiteSystem, d: float, p: float, delta: float) -> tuple[int, int]:
    """(many, few): the measured values of the two bad-pair audit directions."""
    ys, zs, xs_ = system.y, system.z, system.x
    q = d * p
    threshold = (1 + delta) * q * q * len(zs)
    host_rows = system.host.rows

    bad = 0
    sub_rows = system.sub.rows
    masked = [sub_rows[y] & zs.mask for y in ys]
    for i in range(len(ys)):
        mi = masked[i]
        for j in range(i + 1, len(ys)):
            if (mi & masked[j]).bit_count() >= threshold:
                bad += 1

    badmask = bad_pair_masks(system, threshold)
    total = 0
    ymask = ys.mask
    for u in xs_:
        nm = host_rows[u] & ymask
        if not nm:
            continue
        acc = 0
        for y in iter_bits(nm):
            acc += (badmask[y] & nm).bit_count()
        total += acc // 2
    return bad, total


# -- pattern exponents and order search ----------------------------------------
#
# The position-adjacency formulas for k_reg and d_tilde, the two copies of
# min-degree removal and the three order searches that the one per-vertex
# kernel ``bijumble.patterns._terms`` and its single depth-first search
# replaced, kept verbatim (``position_adjacency`` was a ``Pattern`` method and
# ``exponent_report`` called it as one).


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



def line_graph_two_sided_exponent(graph: Graph) -> MilliValue:
    """min((D(L(H))+4)/2, (degen(L(H))+6)/2) in exact thousandths."""
    lg = line_graph(graph)
    dmax = lg.max_degree()
    degen, _ = degeneracy(lg)
    return MilliValue(min((dmax + 4) * 500, (degen + 6) * 500))


def exponent_report(pattern: Pattern) -> ExponentReport:
    g = pattern.graph
    edgeless = g.edge_count() == 0
    kr = MilliValue(0) if edgeless else MilliValue(_kreg_mills(position_adjacency(pattern)))
    dt = _dtilde_value(position_adjacency(pattern))
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


# -- bijumbledness search -------------------------------------------------------
#
# The hill climb with its left-side and right-side toggle loops written out
# separately, kept verbatim; ``bijumble.jumbled.search_jumble_violation``
# runs one loop over both sides and must return the same certificate.


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


# -- seeded generators -----------------------------------------------------------

def _rows_of(mat: np.ndarray) -> tuple[int, ...]:
    return tuple(int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little") for row in mat)


def sparsify(system: TripartiteSystem, d: float, seed: int) -> TripartiteSystem:
    """Keep each host edge independently with probability d; G <= host by
    construction.  Edges are visited in sorted order, so the outcome is a
    pure function of (host, d, seed)."""
    if not 0 < d <= 1:
        raise ParameterError("d must lie in (0,1]")
    host_mat = bool_matrix(system.host)
    iu, iv = np.nonzero(np.triu(host_mat, 1))  # row-major = sorted edge order
    rng = np.random.default_rng(seed)
    keep = rng.random(len(iu)) < d
    n = system.host.vertex_count
    sub = np.zeros((n, n), dtype=bool)
    sub[iu[keep], iv[keep]] = True
    sub |= sub.T
    g = Graph._trusted(n, _rows_of(sub))
    return TripartiteSystem(system.host, g, system.x, system.y, system.z)


def plant_irregular_block(
    system: TripartiteSystem,
    pair: tuple[str, str],
    fraction: float,
    boost: float,
    seed: int,
) -> TripartiteSystem:
    """Negative control: inside a seeded fraction x fraction sub-block of the
    named pair, host edges currently missing from G are added to G with
    probability ``boost``."""
    a, b = system.part(pair[0]), system.part(pair[1])
    rng = random.Random(seed)
    rows_sel = sorted(rng.sample(list(a.indices), math.ceil(fraction * len(a))))
    cols_sel = sorted(rng.sample(list(b.indices), math.ceil(fraction * len(b))))
    col_mask = 0
    for c in cols_sel:
        col_mask |= 1 << c
    host_rows, sub_rows = system.host.rows, list(system.sub.rows)
    for u in rows_sel:
        addable = host_rows[u] & col_mask & ~sub_rows[u]
        for v in iter_bits(addable):
            if rng.random() < boost:
                sub_rows[u] |= 1 << v
                sub_rows[v] |= 1 << u
    n = system.host.vertex_count
    g = Graph._trusted(n, tuple(sub_rows))
    return TripartiteSystem(system.host, g, system.x, system.y, system.z)
