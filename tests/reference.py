"""Reference computations that only the tests use.

``exact_jumble_gamma`` and ``exact_regularity`` are the pure-Python
enumeration loops that the shared numpy kernel in ``bijumble._subsets``
replaced, and ``sampled_regularity`` is the per-trial loop that the batched
``bijumble.regularity.sampled_regularity`` replaced, all kept verbatim: the
replacements must match them exactly, values, verdicts and witnesses, ties
included.  The ``naive_*`` oracles enumerate all subset pairs of both sides,
``brute_force_c4`` all 4-tuples and ``brute_force_partite_copies`` all
assignments of pattern vertices to their parts.

``count_c4``, ``classify_pairs``, ``c4_partition_by_class``,
``bad_pair_masks`` and ``bad_pair_totals`` are the bit-row codegree loops
that the one ``bijumble.quads.codegrees`` kernel replaced, kept verbatim
(``classify_pairs`` without its removed ``include_labels`` option):
``bad_pair_totals`` holds the measured-value loops of both directions of
``bijumble.experiments.bad_pair_bounds_audit``.
"""

from __future__ import annotations

import itertools
import math
import random

import numpy as np

from bijumble._numeric import leq
from bijumble._subsets import min_size
from bijumble._subsets import subset_budget as _subset_budget
from bijumble.embeddings import PartiteInstance
from bijumble.errors import CapacityError, ParameterError
from bijumble.graphs import (
    BipartitePairView,
    TripartiteSystem,
    VertexSet,
    bool_matrix,
    iter_bits,
    p_density,
)
from bijumble.jumbled import DEFAULT_ENUM_CAP, JumbleCertificate, _discrepancy
from bijumble.quads import C4Census, PairClassCensus
from bijumble.regularity import RegularityVerdict, _validate


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
    rng = random.Random(seed)
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

    for _ in range(trials):
        upos = sorted(rng.sample(range(n_u), su))
        wpos = sorted(rng.sample(range(n_w), sw))
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
