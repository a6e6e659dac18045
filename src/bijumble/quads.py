"""C4 and codegree statistics of bipartite pair views.

The quadrilateral count of a pair is C4 = sum over left pairs {u,u'} of
C(codeg(u,u'), 2).  One kernel, ``codegrees``, reads every left pair's
codegree off the upper triangle of A A^T for the pair's 0/1 block A; the C4
count, the class censuses below and the bad-pair audits in ``experiments``
are all derived from it.  Left pairs are classified against codegree
thresholds: heavy when codeg >= 4 q^2 |V| (atypical even for the
pseudorandom host), bad when (1+delta) q^2 |V| <= codeg (atypical for the
pair), typical otherwise.  Reporting uses disjoint classes with heavy
taking precedence.

The audits compare measured C4 statistics against the lower bound
(1 - eps^8) q^4 m^2 n^2 / 4 for any dense pair (raised by a factor
(1 + eps^13) for irregular pairs) and against the two-sided window
(d^4 +- 100 (c + eps)^(1/2)) p^4 |U|^2 |V|^2 / 4 for regular pairs in
bijumbled hosts.  The statement-scale constants (sizes >= 2 eps^-9, density
>= eps^-10 n^(-1/2)) are unreachable at desk scale; strict mode reports
that honestly as hypotheses-not-met, relaxed mode substitutes caller slack.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._numeric import ABS_TOL, geq, leq
from .errors import ParameterError
from .graphs import BipartitePairView, Graph, VertexSet, density, pair_block
from .regularity import _auto_method, _verdict, apply_density_floor
from .regularity import exact_regularity, sampled_regularity  # noqa: F401  perfbench/spans.py wraps these
from .reports import AuditReport, HypothesisRecord, make_report


@dataclass(frozen=True)
class PairClassCensus:
    q: float
    delta: float
    typical: int
    bad: int
    heavy: int

    @property
    def total_pairs(self) -> int:
        return self.typical + self.bad + self.heavy


@dataclass(frozen=True)
class C4Census:
    total: int
    through_heavy: int
    through_bad: int
    through_typical: int
    heavy_bound: float | None = None
    heavy_within_bound: bool | None = None
    degree_hypothesis_ok: bool | None = None


def codegrees(graph: Graph, left: VertexSet, right: VertexSet) -> np.ndarray:
    """Codegrees into ``right`` of the left pairs i < j, in row-major order.

    They are the upper triangle of A A^T for the pair's 0/1 block A.  The
    product is taken in float32, which is exact while |right| < 2^24: every
    partial sum is an integer of at most |right|.
    """
    block = pair_block(BipartitePairView(graph, left, right)).astype(np.float32)
    gram = block @ block.T
    return gram[np.triu_indices(len(left), 1)].astype(np.int64)


def count_c4(pair: BipartitePairView) -> int:
    """Exact number of unlabelled C4 with both left vertices in the left side.

    The int64 sum is exact while |U|^2 |V|^2 / 4 < 2^63, that is for sides
    below about 78,000 vertices, far past what ``bool_matrix`` can hold.
    """
    c = codegrees(pair.graph, pair.left, pair.right)
    return int((c * (c - 1) // 2).sum())


def _pair_classes(pair: BipartitePairView, q: float, delta: float):
    """Codegrees of the left pairs and their class ids: 2 heavy when
    codeg >= 4 q^2 |V|, else 1 bad when codeg >= (1+delta) q^2 |V|, else 0 typical."""
    if not 0 < q <= 1:
        raise ParameterError("q must lie in (0,1]")
    if not delta > 0:
        raise ParameterError("delta must be positive")
    nv = len(pair.right)
    c = codegrees(pair.graph, pair.left, pair.right)
    return c, np.where(c >= 4 * q * q * nv, 2, c >= (1 + delta) * q * q * nv)


def classify_pairs(pair: BipartitePairView, q: float, delta: float) -> PairClassCensus:
    """Label every left pair by its codegree into the right side."""
    return class_census(pair, q, delta)[0]


def c4_partition_by_class(
    pair: BipartitePairView,
    q: float,
    delta: float,
    p: float | None = None,
    c_prime: float | None = None,
) -> C4Census:
    """C4 totals split by the class of the left pair each copy uses.

    When (p, c_prime) hypothesis parameters are supplied, the heavy part is
    compared against 64 c'^2 p^4 |U|^2 |V|^2 and the degree condition
    deg(u; V) <= 2 p |V| is checked alongside.
    """
    return class_census(pair, q, delta, p, c_prime)[1]


def class_census(
    pair: BipartitePairView,
    q: float,
    delta: float,
    p: float | None = None,
    c_prime: float | None = None,
) -> tuple[PairClassCensus, C4Census]:
    """``classify_pairs`` and ``c4_partition_by_class`` from one codegree pass."""
    c, classes = _pair_classes(pair, q, delta)
    typical, bad, heavy = np.bincount(classes, minlength=3).tolist()
    census = PairClassCensus(q=q, delta=delta, typical=typical, bad=bad, heavy=heavy)
    quads = c * (c - 1) // 2
    typical, bad, heavy = (int(quads[classes == k].sum()) for k in range(3))
    nv = len(pair.right)
    heavy_bound = heavy_ok = degree_ok = None
    if p is not None and c_prime is not None:
        heavy_bound = 64.0 * c_prime**2 * p**4 * len(pair.left) ** 2 * nv**2
        heavy_ok = leq(heavy, heavy_bound)
        degree_ok = all(leq(deg, 2 * p * nv) for deg in pair_block(pair).sum(axis=1).tolist())
    return census, C4Census(
        total=typical + bad + heavy,
        through_heavy=heavy,
        through_bad=bad,
        through_typical=typical,
        heavy_bound=heavy_bound,
        heavy_within_bound=heavy_ok,
        degree_hypothesis_ok=degree_ok,
    )


@dataclass(frozen=True)
class CsDefectResult:
    lhs: float
    rhs: float
    holds: bool
    hypotheses_met: bool
    mean: float


def cs_defect_check(values: Sequence[float], a: float, delta: float, mu: float) -> CsDefectResult:
    """Defect Cauchy-Schwarz on a concrete list.

    Hypotheses (checked, not assumed): the k values average at least ``a``
    (taken nonnegative) and some ceil(mu k) of them average at least
    (1+delta) a or at most (1-delta) a; the best such subset is a top or
    bottom slice, so those are what get tested.  Conclusion:
    sum of squares >= k a^2 (1 + mu delta^2 / (1 - mu)).
    """
    if not values:
        raise ParameterError("values must be nonempty")
    if not 0 <= mu < 1:
        raise ParameterError("mu must lie in [0,1)")
    if delta < 0:
        raise ParameterError("delta must be nonnegative")
    k = len(values)
    mean = sum(values) / k
    lhs = sum(v * v for v in values)
    rhs = k * a * a * (1 + mu * delta * delta / (1 - mu))
    need = math.ceil(mu * k - ABS_TOL)
    hyp = a >= 0 and geq(mean, a)
    if hyp and need > 0:
        ordered = sorted(values)
        top = sum(ordered[-need:]) / need
        bottom = sum(ordered[:need]) / need
        if not (geq(top, (1 + delta) * a) or geq((1 - delta) * a, bottom)):
            hyp = False
    return CsDefectResult(lhs=lhs, rhs=rhs, holds=geq(lhs, rhs), hypotheses_met=hyp, mean=mean)


def _regularity_refutation(pair, eps, p, trials, seed):
    """(refuted, certified, verdict): a found witness refutes soundly even
    when sampled; only a 'regular' answer needs the exact method to certify."""
    verdict = _verdict(pair, eps, p, _auto_method(pair, eps), trials, seed)
    refuted = not verdict.regular
    return refuted, refuted or verdict.method == "exact", verdict


def c4_dense_irregular_audit(
    pair: BipartitePairView,
    eps: float,
    mode: str = "strict",
    dense_slack: float | None = None,
    irregular_slack: float = 0.0,
    trials: int = 200,
    seed: int = 0,
) -> AuditReport:
    """Audit the C4 lower bounds for dense pairs and for irregular pairs.

    Strict mode uses the stated constants eps <= 1e-3, m >= n >= 2 eps^-9 and
    q >= eps^-10 n^(-1/2) (unreachable at desk scale, reported honestly);
    relaxed mode replaces the eps-power terms by ``dense_slack`` /
    ``irregular_slack``.  Both raw ratios are always reported.  Regularity
    here is the (eps)-regular reading: (eps,p)-regular with p set to the
    pair's measured density, flagged in the parameters.
    """
    started = time.perf_counter()
    if eps <= 0:
        raise ParameterError("eps must be positive")
    m = max(len(pair.left), len(pair.right))
    n = min(len(pair.left), len(pair.right))
    q = float(density(pair))
    base = q**4 * m * m * n * n / 4.0
    c4 = count_c4(pair)
    ratio = c4 / base if base > 0 else math.inf

    hyps = [
        HypothesisRecord("eps_range", eps <= 1e-3, True, {"eps": eps}),
        HypothesisRecord(
            "size_floor", n >= 2 * eps**-9, True, {"n": n, "required": 2 * eps**-9}
        ),
        HypothesisRecord(
            "density_floor",
            q >= eps**-10 * n**-0.5 if n else False,
            True,
            {"q": q, "required": eps**-10 * n**-0.5 if n else None},
        ),
    ]

    refuted = certified = False
    reg_verdict = None
    if q > 0:
        refuted, certified, reg_verdict = _regularity_refutation(pair, eps, q, trials, seed)

    if mode == "strict":
        slack_a = eps**8
        slack_b = eps**13
    else:
        slack_a = eps**8 if dense_slack is None else dense_slack
        slack_b = irregular_slack
    if refuted:
        bound = (1 + slack_b) * base
        branch = "irregular"
    else:
        bound = (1 - slack_a) * base
        branch = "dense"
        if mode == "strict":
            hyps.append(
                HypothesisRecord(
                    "irregularity_refuted",
                    False,
                    certified,
                    {"note": "bound (b) needs a refutation of (eps)-regularity"},
                )
            )
    params = {
        "eps": eps,
        "q": q,
        "m": m,
        "n": n,
        "ratio_to_base": ratio,
        "branch": branch,
        "dense_slack": slack_a,
        "irregular_slack": slack_b,
        "regularity_reading": "eps-regular = (eps,p)-regular at p := measured density",
        "irregularity_refuted": refuted,
        "refutation_certified": certified,
        "regularity_method": reg_verdict.method if reg_verdict else None,
    }
    return make_report(
        "c4_dense_irregular",
        mode,
        hyps,
        measured=c4,
        bound=bound,
        bound_kind="lower",
        parameters=params,
        seed=seed,
        started=started,
    )


def c4_regular_bijumbled_audit(
    pair: BipartitePairView,
    eps: float,
    d: float,
    p: float,
    c: float | None = None,
    trials: int = 200,
    seed: int = 0,
    mode: str = "strict",
) -> AuditReport:
    """Audit C4(G) against (d^4 +- 100 (c+eps)^(1/2)) p^4 |U|^2 |V|^2 / 4.

    The regularity hypothesis is verified exactly when the pair is small
    enough, otherwise sampled (non-certifying: strict mode then reports
    hypotheses-not-met).  The bijumbledness constant c is measured
    spectrally when not supplied.
    """
    started = time.perf_counter()
    nu, nv = len(pair.left), len(pair.right)

    c_certified = c is not None
    if c is None:
        # looked up per call, so perfbench/spans.py's wrapper of jumbled's binding sees it
        from .jumbled import spectral_jumble_bound

        cert = spectral_jumble_bound(pair, p)
        c = cert.c_prime(2.0, nu, nv)
        c_certified = True  # sound upper bound on the optimal gamma
    hyp_jumble = HypothesisRecord(
        "bijumbled_cp2", True, c_certified, {"c": c, "exponent": 2.0}
    )

    verdict = apply_density_floor(_verdict(pair, eps, p, _auto_method(pair, eps), trials, seed), d)
    hyp_reg = HypothesisRecord(
        "eps_d_p_regular",
        verdict.regular,
        verdict.method == "exact",
        {"method": verdict.method, "deviation": verdict.deviation, "d": d, "eps": eps},
    )

    width = 100.0 * math.sqrt(c + eps)
    scale = p**4 * nu * nu * nv * nv / 4.0
    lo = (d**4 - width) * scale
    hi = (d**4 + width) * scale
    return make_report(
        "c4_regular_bijumbled",
        mode,
        [hyp_reg, hyp_jumble],
        measured=count_c4(pair),
        bound=[lo, hi],
        bound_kind="window",
        parameters={"eps": eps, "d": d, "p": p, "c": c, "width": width},
        seed=seed,
        started=started,
    )
