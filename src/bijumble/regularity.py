"""(eps,p)- and (eps,d,p)-regularity of bipartite pair views.

A pair is (eps,p)-regular when every subset pair (U',W') with
|U'| >= eps|U| and |W'| >= eps|W| has p-density within eps of the base
pair's; the (eps,d,p) variant adds the floor d_p(U,W) >= d - eps.  Subset
size thresholds use ceil(eps * side), matching the ">=" in the definition.

The exact decision is the subset enumeration of ``bijumble._subsets``; no
shortcut assuming deviation monotonicity in |U'| is taken (it is not
monotone).  ``exact_regularity`` checks the subset budget, cuts the pair
view's 0/1 block and calls ``exact_block_regularity``, which runs the
enumeration on a block its caller has already cut.  The sampled decision
draws seeded uniform subsets plus, per trial, the degree-sorted prefix
refinement against the drawn U'; a sampled "regular" verdict only means no
violation was found, while a sampled witness is a sound refutation.

The sampled trials run together in one kernel, ``_sampled_trials``:
``draw_subsets`` draws every U', then every W', from one
``numpy.random.default_rng(seed)`` stream, and blocks of trials take the
column degrees into each U', the drawn pair's density from them, and the
densest and sparsest prefixes of W from one value sort with cumulative sums
from both ends.  ``sampled_regularity`` cuts the pair view's block once,
compares those candidates in the order of a per-trial loop (drawn pair
before prefix, densest prefix on ties, the first maximum wins) and builds
only the winning trial's witness.  ``sampled_block_deviation`` serves the
per-x search of ``bijumble.experiments``: on a block its caller has already
cut it takes the same largest deviation and builds no witness.

``_verdict`` dispatches to the exact or the sampled method, and
``_auto_method`` picks exact when the subset budget fits
``DEFAULT_ENUM_CAP`` and sampled otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import jumbled
from ._numeric import ABS_TOL, leq
from ._subsets import DEFAULT_ENUM_CAP, min_size, regularity_budget, scan, within_cap
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
    _validate_shape((len(pair.left), len(pair.right)), epsilon, p)


def _validate_shape(shape: tuple[int, int], epsilon: float, p: float):
    if not 0 < epsilon < 1:
        raise ParameterError("epsilon must lie in (0,1)")
    if p <= 0:
        raise ParameterError("p must be positive")
    if 0 in shape:
        raise ParameterError("both sides must be nonempty")


def _within_cap(shape: tuple[int, int], epsilon: float) -> bool:
    n = min(shape)
    return within_cap(n, min_size(epsilon, n))


def _require_budget(shape: tuple[int, int], epsilon: float):
    if not _within_cap(shape, epsilon):
        raise CapacityError(
            f"exact regularity would enumerate {regularity_budget(shape, epsilon)} subsets of a "
            f"{min(shape)}-vertex side (capacity {DEFAULT_ENUM_CAP})"
        )


def _searched_verdict(method: str, worst: float, witness, base: float, epsilon: float, p: float):
    """The verdict of a search whose largest deviation ``worst`` the witness attains."""
    regular = leq(worst, epsilon)
    return RegularityVerdict(
        regular=regular,
        epsilon=epsilon,
        p=p,
        base_p_density=base,
        deviation=max(worst, 0.0),
        method=method,
        worst_witness=witness,
        failure_reason=None if regular else "irregularity witness",
    )


def exact_block_regularity(
    sub: np.ndarray, base: float, left, right, epsilon: float, p: float
) -> RegularityVerdict:
    """``exact_regularity`` on a pair's 0/1 block, given its base
    p-density; ``left`` and ``right`` label the rows and columns for the
    witness."""
    _validate_shape(sub.shape, epsilon, p)
    _require_budget(sub.shape, epsilon)
    left, right = np.asarray(left).tolist(), np.asarray(right).tolist()
    swap = sub.shape[0] > sub.shape[1]
    if swap:
        sub, left, right = sub.T, right, left
    tmin = min_size(epsilon, len(right))
    t = np.arange(tmin, len(right) + 1)

    def score(sizes, top, bot):
        scale = (p * sizes)[:, None] * t
        dens = np.stack((top[:, tmin - 1:] / scale, bot[:, tmin - 1:] / scale), axis=2)
        dev = np.abs(dens - base).reshape(len(sizes), -1)  # top before bottom at each |W'|
        first = dev.argmax(axis=1)
        value = dev[np.arange(len(sizes)), first]
        return value[:, None], (tmin + first // 2)[:, None], (first % 2 == 0)[:, None]

    worst, combo, chosen, edges = scan(sub, left, right, min_size(epsilon, len(left)), score)
    dens = edges / (p * len(combo) * len(chosen))
    uset, wset = VertexSet.of(combo), VertexSet.of(chosen)
    witness = (wset, uset, dens) if swap else (uset, wset, dens)
    return _searched_verdict("exact", worst, witness, base, epsilon, p)


def exact_regularity(pair: BipartitePairView, epsilon: float, p: float) -> RegularityVerdict:
    """Certified verdict with the maximum-deviation witness."""
    _validate(pair, epsilon, p)
    _require_budget((len(pair.left), len(pair.right)), epsilon)  # before the block is cut
    return exact_block_regularity(
        pair_block(pair), p_density(pair, p), pair.left.indices, pair.right.indices, epsilon, p
    )


def draw_subsets(
    n_u: int, su: int, n_w: int, sw: int, trials: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Positions of ``trials`` uniform su-subsets of range(n_u), then of
    ``trials`` sw-subsets of range(n_w), from one ``default_rng(seed)``.

    Each row keeps the positions of its su (sw) smallest uniform keys, found
    by ``argpartition``; rows are unsorted, all U' rows are drawn before
    all W' rows, and every subset of the size is equally likely.
    """
    if seed < 0:
        raise ParameterError(f"seed {seed} must be non-negative")
    rng = np.random.default_rng(seed)
    us = np.argpartition(rng.random((trials, n_u)), su - 1, axis=1)[:, :su]
    ws = np.argpartition(rng.random((trials, n_w)), sw - 1, axis=1)[:, :sw]
    return us, ws


def _sampled_trials(sub: np.ndarray, base: float, epsilon: float, p: float, trials: int, seed: int):
    """The checked trial search on the block: the draws (``draw_subsets``),
    each trial's p-densities of the drawn pair (column 0) and of the better
    of the densest and sparsest degree-sorted prefix of W against the drawn
    U' (column 1), that prefix's length and whether it is the densest."""
    _validate_shape(sub.shape, epsilon, p)
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    n_u, n_w = sub.shape
    su, sw = min_size(epsilon, n_u), min_size(epsilon, n_w)
    us, ws = draw_subsets(n_u, su, n_w, sw, trials, seed)
    scale = p * su * np.arange(sw, n_w + 1)
    dens = np.empty((trials, 2))
    ref_t, ref_top = np.empty(trials, dtype=np.int64), np.empty(trials, dtype=bool)
    acc = np.uint16 if su < 1 << 16 else np.int64  # degrees into U' are at most su
    block = max(1, TRIAL_BLOCK_BYTES // (su * n_w))
    for lo in range(0, trials, block):
        part = slice(lo, lo + block)
        degs = np.add.reduce(sub[us[part]], axis=1, dtype=acc)
        edges = np.take_along_axis(degs, ws[part], axis=1).sum(axis=1, dtype=np.int64)
        dens[part, 0] = edges / (p * su * sw)
        asc = np.sort(degs, axis=1)
        dens_bot = np.cumsum(asc, axis=1, dtype=np.int64)[:, sw - 1:] / scale
        dens_top = np.cumsum(asc[:, ::-1], axis=1, dtype=np.int64)[:, sw - 1:] / scale
        dev_top, dev_bot = np.abs(dens_top - base), np.abs(dens_bot - base)
        it, ib = dev_top.argmax(axis=1), dev_bot.argmax(axis=1)
        at = np.arange(len(it))
        ref_top[part] = top = dev_top[at, it] >= dev_bot[at, ib]
        ref_t[part] = sw + np.where(top, it, ib)
        dens[part, 1] = np.where(top, dens_top[at, it], dens_bot[at, ib])
    return us, ws, dens, ref_t, ref_top


def sampled_block_deviation(
    sub: np.ndarray, base: float, epsilon: float, p: float, trials: int, seed: int
) -> float:
    """The deviation of ``sampled_regularity`` on a pair's 0/1 block, given
    its base p-density, with no witness built."""
    dens = _sampled_trials(sub, base, epsilon, p, trials, seed)[2]
    return max(float(np.abs(dens - base).max()), 0.0)


def sampled_regularity(
    pair: BipartitePairView, epsilon: float, p: float, trials: int, seed: int
) -> RegularityVerdict:
    """Randomised violation search; deterministic given the seed."""
    _validate(pair, epsilon, p)
    sub, base = pair_block(pair), p_density(pair, p)
    us, ws, dens, ref_t, ref_top = _sampled_trials(sub, base, epsilon, p, trials, seed)
    # candidates in trial order, drawn pair before prefix; a later one replaces
    # the current worst only if strictly larger, so the first maximum wins
    dev = np.abs(dens - base)
    j, refined = divmod(int(dev.argmax()), 2)
    worst, density = dev[j, refined], dens[j, refined]
    if refined:  # reported as Python floats, the drawn pair's as numpy scalars
        worst, density = float(worst), float(density)
        degs = sub[us[j]].sum(axis=0, dtype=np.int64)
        positions = np.arange(sub.shape[1])
        order = np.lexsort((positions, -degs) if ref_top[j] else (positions, degs))
        wpos = order[: ref_t[j]]
    else:
        wpos = ws[j]
    witness = (
        VertexSet.of(np.asarray(pair.left.indices)[us[j]].tolist()),
        VertexSet.of(np.asarray(pair.right.indices)[wpos].tolist()),
        density,
    )
    return _searched_verdict("sampled", worst, witness, base, epsilon, p)


def below_density_floor(base: float, epsilon: float, d: float) -> bool:
    """Whether the base p-density misses the floor d_p(U,W) >= d - eps."""
    return base < d - epsilon - ABS_TOL


def apply_density_floor(verdict: RegularityVerdict, d: float) -> RegularityVerdict:
    """``verdict`` with d recorded and the floor d_p(U,W) >= d - eps applied."""
    if below_density_floor(verdict.base_p_density, verdict.epsilon, d):
        return replace(verdict, regular=False, failure_reason="density floor", d=d)
    return replace(verdict, d=d)


def _auto_method(pair: BipartitePairView, epsilon: float) -> str:
    """"exact" when the pair's subset budget fits ``DEFAULT_ENUM_CAP``,
    "sampled" otherwise."""
    return "exact" if _within_cap((len(pair.left), len(pair.right)), epsilon) else "sampled"


def _verdict(
    pair: BipartitePairView, epsilon: float, p: float, method: str, trials: int, seed: int
) -> RegularityVerdict:
    """The regularity verdict by ``method``, "exact" or "sampled"."""
    if method == "exact":
        return exact_regularity(pair, epsilon, p)
    if method == "sampled":
        return sampled_regularity(pair, epsilon, p, trials=trials, seed=seed)
    raise ParameterError(f"unknown method {method!r}")


def check_eps_d_p(
    pair: BipartitePairView,
    epsilon: float,
    d: float,
    p: float,
    method: str = "exact",
    trials: int = 50,
    seed: int = 0,
) -> RegularityVerdict:
    """Regularity verdict plus the density floor d_p(U,W) >= d - eps."""
    return apply_density_floor(_verdict(pair, epsilon, p, method, trials, seed), d)


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
    if len(u_slice) < gamma * len(pair.left) - ABS_TOL or len(w_slice) < gamma * len(pair.right) - ABS_TOL:
        raise ParameterError("slice sizes below the gamma fraction precondition")
    base = p_density(pair, p)
    slice_pair = BipartitePairView(pair.graph, u_slice, w_slice)
    verdict = _verdict(slice_pair, epsilon / gamma, p, method, trials, seed)
    density_ok = abs(verdict.base_p_density - base) <= epsilon + ABS_TOL
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


def extend_and_check(
    base: BipartitePairView,
    extended: BipartitePairView,
    epsilon: float,
    d: float,
    p: float,
    c: float,
    method: str = "exact",
    trials: int = 50,
    seed: int = 0,
) -> ExtensionCheck:
    """Audit that growing each side by at most eps^3/10 keeps regularity.

    Checks the size-growth hypotheses (raising on violation), verifies the
    base pair (eps,d,p)-regular, compares the extended pair's spectrally
    measured bijumbledness parameter against c p sqrt(|U||V|), then
    evaluates (2 eps, d, p)-regularity of the extended pair.
    """
    if not 0 < epsilon < 0.1:
        raise ParameterError("epsilon must lie in (0, 1/10)")
    if not leq(c, epsilon**3 / 10):
        raise ParameterError("need c <= epsilon^3 / 10")
    if not base.left.issubset(extended.left) or not base.right.issubset(extended.right):
        raise ParameterError("base sides must be subsets of extended sides")
    growth = 1 + epsilon**3 / 10
    if not leq(len(extended.left), growth * len(base.left)):
        raise ParameterError("hypothesis violated: |U'| <= (1 + eps^3/10)|U|")
    if not leq(len(extended.right), growth * len(base.right)):
        raise ParameterError("hypothesis violated: |V'| <= (1 + eps^3/10)|V|")

    base_verdict = check_eps_d_p(base, epsilon, d, p, method=method, trials=trials, seed=seed)
    jumble_gamma = jumbled.spectral_jumble_bound(extended, p).gamma
    gamma_budget = c * p * math.sqrt(len(base.left) * len(base.right))
    jumble_ok = leq(jumble_gamma, gamma_budget)
    details = {
        "base_regular": base_verdict.regular,
        "jumble_gamma": jumble_gamma,
        "jumble_budget": gamma_budget,
        "jumble_ok": jumble_ok,
        "left_growth": len(extended.left) / len(base.left),
        "right_growth": len(extended.right) / len(base.right),
    }
    conclusion = check_eps_d_p(extended, 2 * epsilon, d, p, method=method, trials=trials, seed=seed)
    return ExtensionCheck(
        hypotheses_met=base_verdict.regular and jumble_ok,
        hypothesis_details=details,
        base_verdict=base_verdict,
        conclusion=conclusion,
    )
