"""(eps,p)- and (eps,d,p)-regularity of bipartite pair views.

A pair is (eps,p)-regular when every subset pair (U',W') with
|U'| >= eps|U| and |W'| >= eps|W| has p-density within eps of the base
pair's; the (eps,d,p) variant adds the floor d_p(U,W) >= d - eps.  Subset
size thresholds use ceil(eps * side), matching the ">=" in the definition.

The exact decision is the subset enumeration of ``bijumble._subsets``; no
shortcut assuming deviation monotonicity in |U'| is taken (it is not
monotone).  The sampled decision draws seeded uniform subsets plus, per
trial, the degree-sorted prefix refinement against the drawn U'; a sampled
"regular" verdict only means no violation was found, while a sampled
witness is a sound refutation.

The sampled trials run together: every (U', W') is drawn first from one
``random.Random(seed)`` stream, U' then W' per trial, and the pair's 0/1
block is cut once.  Blocks of trials then take the column degrees into each
U', the drawn pair's density from them, and the densest and sparsest
prefixes of W from one value sort with cumulative sums from both ends.
Candidates are compared in the order of a per-trial loop (drawn pair before
prefix, densest prefix on ties, the first maximum wins), and only the
winning trial's witness is built.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from ._numeric import leq
from ._subsets import DEFAULT_ENUM_CAP, min_size, regularity_budget, scan
from .errors import CapacityError, ParameterError
from .graphs import BipartitePairView, VertexSet, p_density, pair_block
from .graphs import bool_matrix  # noqa: F401  perfbench/spans.py wraps it by this name

TRIAL_BLOCK_BYTES = 1 << 20  # bound on the U' rows one block of trials gathers


@dataclass(frozen=True)
class RegularityVerdict:
    regular: bool
    epsilon: float
    p: float
    base_p_density: float
    deviation: float
    method: str  # "exact" | "sampled"
    worst_witness: Optional[tuple[VertexSet, VertexSet, float]]
    failure_reason: str | None = None  # "irregularity witness" | "density floor"
    d: float | None = None

    def to_record(self) -> dict:
        return {
            "regular": self.regular,
            "epsilon": self.epsilon,
            "p": self.p,
            "base_p_density": self.base_p_density,
            "deviation": self.deviation,
            "method": self.method,
            "witness_left": list(self.worst_witness[0].indices) if self.worst_witness else None,
            "witness_right": list(self.worst_witness[1].indices) if self.worst_witness else None,
            "witness_p_density": self.worst_witness[2] if self.worst_witness else None,
            "failure_reason": self.failure_reason,
            "d": self.d,
        }


def _validate(pair: BipartitePairView, epsilon: float, p: float):
    if not 0 < epsilon < 1:
        raise ParameterError("epsilon must lie in (0,1)")
    if p <= 0:
        raise ParameterError("p must be positive")
    if not pair.left.indices or not pair.right.indices:
        raise ParameterError("both sides must be nonempty")


def exact_regularity(
    pair: BipartitePairView, epsilon: float, p: float, max_subsets: int = DEFAULT_ENUM_CAP
) -> RegularityVerdict:
    """Certified verdict with the maximum-deviation witness."""
    _validate(pair, epsilon, p)
    base = p_density(pair, p)
    budget = regularity_budget(pair, epsilon)
    swap = len(pair.left) > len(pair.right)
    view = pair.swapped() if swap else pair
    if budget > max_subsets:
        raise CapacityError(
            f"exact regularity would enumerate {budget} subsets of a {len(view.left)}-vertex side "
            f"(capacity {max_subsets})"
        )
    tmin = min_size(epsilon, len(view.right))
    t = np.arange(tmin, len(view.right) + 1)

    def score(sizes, top, bot):
        scale = (p * sizes)[:, None] * t
        dens = np.stack((top[:, tmin - 1:] / scale, bot[:, tmin - 1:] / scale), axis=2)
        dev = np.abs(dens - base).reshape(len(sizes), -1)  # top before bottom at each |W'|
        first = dev.argmax(axis=1)
        value = dev[np.arange(len(sizes)), first]
        return value[:, None], (tmin + first // 2)[:, None], (first % 2 == 0)[:, None]

    worst, combo, chosen, edges = scan(view, min_size(epsilon, len(view.left)), score)
    dens = edges / (p * len(combo) * len(chosen))
    uset, wset = VertexSet.of(combo), VertexSet.of(chosen)
    regular = leq(worst, epsilon)
    return RegularityVerdict(
        regular=regular,
        epsilon=epsilon,
        p=p,
        base_p_density=base,
        deviation=max(worst, 0.0),
        method="exact",
        worst_witness=(wset, uset, dens) if swap else (uset, wset, dens),
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
    sub = pair_block(pair)
    n_u, n_w = sub.shape
    su = min_size(epsilon, n_u)
    sw = min_size(epsilon, n_w)
    rng = random.Random(seed)
    draws = [(rng.sample(range(n_u), su), rng.sample(range(n_w), sw)) for _ in range(trials)]
    us = np.array([u for u, _ in draws], dtype=np.intp)
    ws = np.array([w for _, w in draws], dtype=np.intp)

    # per trial: the drawn pair's density, then the better of the densest
    # and the sparsest degree-sorted prefix of W against the drawn U'
    scale = p * su * np.arange(sw, n_w + 1)
    rand_dens = np.empty(trials)
    ref_dev, ref_dens = np.empty(trials), np.empty(trials)
    ref_t, ref_top = np.empty(trials, dtype=np.int64), np.empty(trials, dtype=bool)
    acc = np.uint16 if su < 1 << 16 else np.int64  # degrees into U' are at most su
    block = max(1, TRIAL_BLOCK_BYTES // (su * n_w))
    for lo in range(0, trials, block):
        part = slice(lo, lo + block)
        degs = np.add.reduce(sub[us[part]], axis=1, dtype=acc)
        edges = np.take_along_axis(degs, ws[part], axis=1).sum(axis=1, dtype=np.int64)
        rand_dens[part] = edges / (p * su * sw)
        asc = np.sort(degs, axis=1)
        dens_bot = np.cumsum(asc, axis=1, dtype=np.int64)[:, sw - 1:] / scale
        dens_top = np.cumsum(asc[:, ::-1], axis=1, dtype=np.int64)[:, sw - 1:] / scale
        dev_top, dev_bot = np.abs(dens_top - base), np.abs(dens_bot - base)
        it, ib = dev_top.argmax(axis=1), dev_bot.argmax(axis=1)
        at = np.arange(len(it))
        top = dev_top[at, it] >= dev_bot[at, ib]
        ref_top[part] = top
        ref_t[part] = sw + np.where(top, it, ib)
        ref_dev[part] = np.where(top, dev_top[at, it], dev_bot[at, ib])
        ref_dens[part] = np.where(top, dens_top[at, it], dens_bot[at, ib])

    # candidates in trial order, drawn pair before prefix; a later one replaces
    # the current worst only if strictly larger, so the first maximum wins
    rand_dev = np.abs(rand_dens - base)
    j, refined = divmod(int(np.column_stack((rand_dev, ref_dev)).argmax()), 2)
    if refined:
        worst, dens = float(ref_dev[j]), float(ref_dens[j])
        degs = sub[us[j]].sum(axis=0, dtype=np.int64)
        positions = np.arange(n_w)
        order = np.lexsort((positions, -degs) if ref_top[j] else (positions, degs))
        wpos = order[: ref_t[j]]
    else:
        worst, dens, wpos = rand_dev[j], rand_dens[j], ws[j]
    worst_witness = (
        VertexSet.of(pair.left.indices[i] for i in us[j]),
        VertexSet.of(pair.right.indices[i] for i in wpos),
        dens,
    )

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


def check_eps_d_p(
    pair: BipartitePairView,
    epsilon: float,
    d: float,
    p: float,
    method: str = "exact",
    trials: int = 50,
    seed: int = 0,
    max_subsets: int = DEFAULT_ENUM_CAP,
) -> RegularityVerdict:
    """Regularity verdict plus the density floor d_p(U,W) >= d - eps."""
    if method == "exact":
        verdict = exact_regularity(pair, epsilon, p, max_subsets=max_subsets)
    elif method == "sampled":
        verdict = sampled_regularity(pair, epsilon, p, trials=trials, seed=seed)
    else:
        raise ParameterError(f"unknown method {method!r}")
    if verdict.base_p_density < d - epsilon - 1e-12:
        return replace(verdict, regular=False, failure_reason="density floor", d=d)
    return replace(verdict, d=d)


def slice_and_check(
    pair: BipartitePairView,
    u_slice: VertexSet,
    w_slice: VertexSet,
    epsilon: float,
    gamma: float,
    p: float,
    method: str = "exact",
    trials: int = 50,
    seed: int = 0,
    max_subsets: int = DEFAULT_ENUM_CAP,
) -> RegularityVerdict:
    """Audit the slicing conclusion on (u_slice, w_slice).

    Preconditions |U'| >= gamma|U|, |W'| >= gamma|W| and eps < gamma; the
    slice is then checked for (eps/gamma, p)-regularity and for p-density
    within eps of the base pair's.
    """
    if not 0 < epsilon < gamma:
        raise ParameterError("need 0 < epsilon < gamma")
    if not u_slice.issubset(pair.left) or not w_slice.issubset(pair.right):
        raise ParameterError("slices must be subsets of the pair's sides")
    if len(u_slice) < gamma * len(pair.left) - 1e-12 or len(w_slice) < gamma * len(pair.right) - 1e-12:
        raise ParameterError("slice sizes below the gamma fraction precondition")
    base = p_density(pair, p)
    slice_pair = BipartitePairView(pair.graph, u_slice, w_slice)
    if method == "exact":
        verdict = exact_regularity(slice_pair, epsilon / gamma, p, max_subsets=max_subsets)
    elif method == "sampled":
        verdict = sampled_regularity(slice_pair, epsilon / gamma, p, trials=trials, seed=seed)
    else:
        raise ParameterError(f"unknown method {method!r}")
    density_ok = abs(verdict.base_p_density - base) <= epsilon + 1e-12
    ok = verdict.regular and density_ok
    return replace(
        verdict,
        regular=ok,
        failure_reason=None if ok else ("irregularity witness" if not verdict.regular else "density drift"),
    )


@dataclass(frozen=True)
class ExtensionCheck:
    """Hypothesis checks and conclusion of the small-extension audit."""

    hypotheses_met: bool
    hypothesis_details: dict
    base_verdict: RegularityVerdict
    conclusion: RegularityVerdict

    @property
    def passed(self) -> bool:
        return self.conclusion.regular


def extend_and_check(
    base: BipartitePairView,
    extended: BipartitePairView,
    epsilon: float,
    d: float,
    p: float,
    c: float,
    jumble_gamma: float | None = None,
    method: str = "exact",
    trials: int = 50,
    seed: int = 0,
    max_subsets: int = DEFAULT_ENUM_CAP,
) -> ExtensionCheck:
    """Audit that growing each side by at most eps^3/10 keeps regularity.

    Checks the size-growth hypotheses (raising on violation), verifies the
    base pair (eps,d,p)-regular, compares the extended pair's bijumbledness
    parameter against c p sqrt(|U||V|) (measured spectrally when not
    supplied), then evaluates (2 eps, d, p)-regularity of the extended pair.
    """
    if not 0 < epsilon < 0.1:
        raise ParameterError("epsilon must lie in (0, 1/10)")
    if c > epsilon**3 / 10 + 1e-15:
        raise ParameterError("need c <= epsilon^3 / 10")
    if not base.left.issubset(extended.left) or not base.right.issubset(extended.right):
        raise ParameterError("base sides must be subsets of extended sides")
    growth = 1 + epsilon**3 / 10
    if len(extended.left) > growth * len(base.left) + 1e-9:
        raise ParameterError("hypothesis violated: |U'| <= (1 + eps^3/10)|U|")
    if len(extended.right) > growth * len(base.right) + 1e-9:
        raise ParameterError("hypothesis violated: |V'| <= (1 + eps^3/10)|V|")

    base_verdict = check_eps_d_p(
        base, epsilon, d, p, method=method, trials=trials, seed=seed, max_subsets=max_subsets
    )
    if jumble_gamma is None:
        from .jumbled import spectral_jumble_bound

        jumble_gamma = spectral_jumble_bound(extended, p, seed=seed).gamma
    gamma_budget = c * p * math.sqrt(len(base.left) * len(base.right))
    jumble_ok = jumble_gamma <= gamma_budget + 1e-12
    details = {
        "base_regular": base_verdict.regular,
        "jumble_gamma": jumble_gamma,
        "jumble_budget": gamma_budget,
        "jumble_ok": jumble_ok,
        "left_growth": len(extended.left) / len(base.left),
        "right_growth": len(extended.right) / len(base.right),
    }
    conclusion = check_eps_d_p(
        extended, 2 * epsilon, d, p, method=method, trials=trials, seed=seed, max_subsets=max_subsets
    )
    return ExtensionCheck(
        hypotheses_met=base_verdict.regular and jumble_ok,
        hypothesis_details=details,
        base_verdict=base_verdict,
        conclusion=conclusion,
    )
