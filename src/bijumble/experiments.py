"""Seeded tripartite generators and regularity-inheritance experiments.

The inheritance statements say: given a host pair structure that is
bijumbled enough and a subgraph pair (Y,Z) that is (eps,d,p)-regular, for
all but at most eps'|X| vertices x the derived pair - (N(x) in Y, Z) for
one-sided, (N(x) in Y, N(x) in Z) for two-sided, neighbourhoods taken in
the host - is (eps',d,p)-regular in the subgraph.  The statement-scale
constants behind those statements are far below anything measurable on a
desk-scale instance, so experiments run in relaxed mode with declared
pilot-calibrated parameters, and strict mode exists to document the
vacuity honestly.

``inheritance_experiment`` runs either statement, named by its ``lemma``
keyword.  ``one_sided_experiment`` and ``two_sided_experiment`` are that
one entry point with the lemma bound (``functools.partial``); the names
stay because ``ExperimentPlan.run``, the demos, the tests and the spans of
``perfbench/spans.py`` call them.

An experiment cuts three 0/1 blocks once: the host's X x Y and X x Z and
G's Y x Z.  Each x then reads its neighbour positions from its host rows,
takes those rows of the Y x Z block (and, two-sided, those columns), and
applies ``leq`` and the density floor to the deviation that
``exact_block_regularity`` or the witness-free ``sampled_block_deviation``
finds there; the per-x verdicts equal the ``regular``, ``deviation`` and
``failure_reason`` of ``check_eps_d_p`` on the per-x pair views.

Everything is seeded; rerunning a plan with the same seed and any worker
count reproduces outcomes exactly (per-x work is partitioned over disjoint
index ranges and merged in vertex order).
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from ._numeric import geq, leq
from .errors import ParameterError
from .graphs import (
    BipartitePairView,
    Graph,
    TripartiteSystem,
    VertexSet,
    bool_matrix,
    pair_block,
)
from .jumbled import min_size_bound, spectral_jumble_bound
from .quads import _regularity_refutation, codegrees
from .regularity import (
    below_density_floor,
    check_eps_d_p,
    exact_block_regularity,
    sampled_block_deviation,
)
from .reports import AuditReport, HypothesisRecord, make_report, parse_key_values


@dataclass(frozen=True)
class ExperimentPlan:
    """A reproducible inheritance experiment: generator + audit parameters.
    Plan files and ``inherit`` flags both build it through ``from_values``;
    every value is checked here, before ``run`` generates anything."""

    lemma: str  # "one_sided" | "two_sided"
    nx: int
    ny: int
    nz: int
    p: float
    d: float
    eps_prime: float
    seed: int
    eps: float | None = None
    method: str = "sampled"
    trials: int = 12

    def __post_init__(self):
        if self.lemma not in ("one_sided", "two_sided"):
            raise ParameterError(f"unknown lemma {self.lemma!r}")
        if self.method not in ("exact", "sampled"):
            raise ParameterError(f"unknown method {self.method!r}")
        if min(self.nx, self.ny, self.nz) < 1:
            raise ParameterError("part sizes must be positive")
        for name, prob in (("p", self.p), ("eps_prime", self.eps_prime), ("eps", self.eps)):
            if prob is not None and not 0 < prob < 1:
                raise ParameterError(f"{name} must lie in (0,1)")
        if not 0 < self.d <= 1:
            raise ParameterError("d must lie in (0,1]")
        if self.trials < 1:
            raise ParameterError("trials must be >= 1")
        if self.seed < 0:
            raise ParameterError(f"seed {self.seed} must be non-negative")

    _FIELD_TYPES = {
        "lemma": str,
        "nx": int,
        "ny": int,
        "nz": int,
        "p": float,
        "d": float,
        "eps_prime": float,
        "eps": float,
        "seed": int,
        "method": str,
        "trials": int,
    }

    _REQUIRED = ("lemma", "nx", "ny", "nz", "p", "d", "eps_prime", "seed")

    @classmethod
    def from_values(cls, values: dict) -> "ExperimentPlan":
        """Build a plan from the plan keys of ``values``; a key given as None
        is absent, and every key of ``_REQUIRED``, the seed included, must be
        given.  Other keys are ignored, so parsed CLI flags pass as they are."""
        given = {key: values[key] for key in cls._FIELD_TYPES if values.get(key) is not None}
        missing = [key for key in cls._REQUIRED if key not in given]
        if missing:
            raise ParameterError(f"plan is missing keys: {missing}")
        return cls(**given)

    @classmethod
    def from_text(cls, text: str) -> "ExperimentPlan":
        """Parse a flat ``key = value`` plan file (same syntax as the run
        config); an unknown key or an unconvertible value is an error."""
        return cls.from_values(parse_key_values(text, cls._FIELD_TYPES, "plan"))

    def run(self, workers: int = 1, plant: tuple | None = None) -> "InheritanceOutcome":
        """Generate the system (``make_system``, with the optional plant)
        and run the plan's lemma on it."""
        system = make_system(self.nx, self.ny, self.nz, self.p, self.d, self.seed, plant)
        # by name, so that a wrapper of either module attribute sees CLI runs
        runner = one_sided_experiment if self.lemma == "one_sided" else two_sided_experiment
        return runner(
            system,
            self.eps_prime,
            self.d,
            self.p,
            method=self.method,
            trials=self.trials,
            seed=self.seed,
            eps=self.eps,
            workers=workers,
        )


@dataclass(frozen=True)
class PerVertexVerdict:
    x: int
    regular: bool
    deviation: float | None
    reason: str | None
    degree_y: int
    degree_z: int | None = None


@dataclass(frozen=True)
class InheritanceOutcome:
    per_x: tuple[PerVertexVerdict, ...]
    exceptional_count: int
    exceptional_fraction: float
    threshold_reference: float  # eps' |X| from the statement, for comparison
    evidence: tuple[HypothesisRecord, ...]
    parameters: dict


# -- generators ---------------------------------------------------------------

def _bernoulli_parts(sizes: tuple[int, ...], p: float, seed: int) -> Graph:
    """Graph on consecutive parts of the given sizes, each pair of parts an
    independent Bernoulli(p) bipartite block, no edges inside a part.  The
    blocks are drawn from one ``default_rng(seed)`` in pair order (0,1),
    (0,2), ..., (1,2), ..."""
    starts = [0, *itertools.accumulate(sizes)]
    n = starts[-1]
    rng = np.random.default_rng(seed)
    mat = np.zeros((n, n), dtype=bool)
    for a, b in itertools.combinations(range(len(sizes)), 2):
        rows, cols = slice(starts[a], starts[a + 1]), slice(starts[b], starts[b + 1])
        block = rng.random((sizes[a], sizes[b])) < p
        mat[rows, cols] = block
        mat[cols, rows] = block.T
    return Graph._of_matrix(mat)


def gen_bipartite(m: int, n: int, p: float, seed: int) -> BipartitePairView:
    """Seeded Bernoulli(p) bipartite pair: left = 0..m-1, right = m..m+n-1."""
    if min(m, n) < 1:
        raise ParameterError("side sizes must be positive")
    if not 0 < p < 1:
        raise ParameterError("p must lie in (0,1)")
    g = _bernoulli_parts((m, n), p, seed)
    return BipartitePairView(g, VertexSet.range(0, m), VertexSet.range(m, m + n))


def gen_tripartite(nx: int, ny: int, nz: int, p: float, seed: int) -> TripartiteSystem:
    """Host with each cross-part pair an independent Bernoulli(p) bipartite
    graph, no intra-part edges; G starts equal to the host."""
    if min(nx, ny, nz) < 1:
        raise ParameterError("part sizes must be positive")
    if not 0 < p < 1:
        raise ParameterError("p must lie in (0,1)")
    n = nx + ny + nz
    host = _bernoulli_parts((nx, ny, nz), p, seed)
    return TripartiteSystem(
        host=host,
        sub=host,
        x=VertexSet.range(0, nx),
        y=VertexSet.range(nx, nx + ny),
        z=VertexSet.range(nx + ny, n),
    )


def make_system(
    nx: int, ny: int, nz: int, p: float, d: float, seed: int, plant: tuple | None = None
) -> TripartiteSystem:
    """Host from ``gen_tripartite`` at ``seed``, G its ``sparsify`` at
    ``seed + 1`` when d < 1 and the host itself otherwise, then, given a
    ``plant`` triple (fraction, boost, seed), ``plant_irregular_block`` on
    (Y, Z).  Every value is checked before anything is generated."""
    if not 0 < d <= 1:
        raise ParameterError("d must lie in (0,1]")
    if plant is not None:
        _check_plant(*plant[:2])
    system = gen_tripartite(nx, ny, nz, p, seed)
    system = sparsify(system, d, seed + 1) if d < 1 else system
    return system if plant is None else plant_irregular_block(system, ("Y", "Z"), *plant)


def sparsify(system: TripartiteSystem, d: float, seed: int) -> TripartiteSystem:
    """Keep each host edge independently with probability d; G <= host by
    construction.  One ``default_rng(seed)`` draw per host edge u < v, in
    row-major (sorted) edge order, so the outcome is a pure function of
    (host, d, seed)."""
    if not 0 < d <= 1:
        raise ParameterError("d must lie in (0,1]")
    upper = np.triu(bool_matrix(system.host), 1)
    upper[upper] = np.random.default_rng(seed).random(np.count_nonzero(upper)) < d
    return replace(system, sub=Graph._of_matrix(upper | upper.T))


def _check_plant(fraction: float, boost: float) -> None:
    if not 0 < fraction <= 1:
        raise ParameterError("fraction must lie in (0,1]")
    if not 0 <= boost <= 1:
        raise ParameterError(f"boost {boost} causes a probability overflow")


def plant_irregular_block(
    system: TripartiteSystem,
    pair: tuple[str, str],
    fraction: float,
    boost: float,
    seed: int,
) -> TripartiteSystem:
    """Negative control: inside a seeded fraction x fraction sub-block of the
    named pair, host edges currently missing from G are added to G with
    probability ``boost``.  The pair must name two distinct parts.  One
    ``random.Random(seed)`` samples the block's rows, then its columns, then
    draws once per addable entry of the block in row-major order."""
    _check_plant(fraction, boost)
    if pair[0].upper() == pair[1].upper():
        raise ParameterError(f"plant pair {pair} must name two distinct parts")
    a, b = system.part(pair[0]), system.part(pair[1])
    rng = random.Random(seed)
    rows_sel = sorted(rng.sample(list(a.indices), math.ceil(fraction * len(a))))
    cols_sel = sorted(rng.sample(list(b.indices), math.ceil(fraction * len(b))))
    cut = np.ix_(rows_sel, cols_sel)
    sub = bool_matrix(system.sub).copy()
    added = bool_matrix(system.host)[cut] & ~sub[cut]
    added[added] = np.array([rng.random() for _ in range(np.count_nonzero(added))]) < boost
    sub[cut] |= added
    sub[np.ix_(cols_sel, rows_sel)] |= added.T
    return replace(system, sub=Graph._of_matrix(sub))


# -- inheritance experiments ---------------------------------------------------

def _child_seed(seed: int, x: int) -> int:
    return (seed * 1_000_003 + x * 7_919 + 12_345) % (1 << 62)


def _chunk_ranges(n: int, workers: int) -> list[range]:
    if workers <= 1 or n <= 1:
        return [range(n)]
    step = math.ceil(n / workers)
    return [range(i, min(i + step, n)) for i in range(0, n, step)]


def _jumble_evidence(system, name_a, name_b, p, exponent, log_factor):
    a, b = system.part(name_a), system.part(name_b)
    cert = spectral_jumble_bound(system.pair(name_a, name_b, "host"), p)
    scale = p**exponent * math.sqrt(len(a) * len(b))
    if log_factor:
        scale *= math.log2(1.0 / p) ** -0.5
    c_meas = cert.gamma / scale
    detail = {"gamma": cert.gamma, "c_prime": c_meas, "exponent": exponent, "log_factor": log_factor}
    try:
        bound = min_size_bound(c_meas, p, exponent)
        detail["min_size_bound"] = bound
        detail["min_size_ok"] = min(len(a), len(b)) >= bound
    except ParameterError as exc:
        # measured c' or p outside the minimum-size statement's range: the
        # hypothesis is vacuous at this scale, which the record documents
        detail["min_size_warning"] = str(exc)
    return HypothesisRecord(f"bijumbled_{name_a}{name_b}", True, True, detail)


def inheritance_experiment(
    system: TripartiteSystem,
    eps_prime: float,
    d: float,
    p: float,
    method: str = "sampled",
    trials: int = 12,
    seed: int = 0,
    eps: float | None = None,
    workers: int = 1,
    *,
    lemma: str,
) -> InheritanceOutcome:
    """For every x in X test the derived pair of x for (eps',d,p)-regularity
    in G: (N_host(x) in Y, Z) when ``lemma`` is "one_sided", (N_host(x) in Y,
    N_host(x) in Z) when it is "two_sided".  ``eps`` (eps' when None) is the
    epsilon of the (Y,Z) regularity hypothesis recorded as evidence."""
    if lemma not in ("one_sided", "two_sided"):
        raise ParameterError(f"unknown lemma {lemma!r}")
    eps_hyp = eps if eps is not None else eps_prime
    one_sided = lemma == "one_sided"
    x_part, y_part, z_part = system.x, system.y, system.z

    yz_verdict = check_eps_d_p(
        system.pair("Y", "Z"), eps_hyp, d, p, method=method, trials=trials, seed=seed
    )
    evidence = [
        HypothesisRecord(
            "yz_regular_in_G",
            yz_verdict.regular,
            yz_verdict.method == "exact",
            {
                "eps": eps_hyp,
                "d": d,
                "method": yz_verdict.method,
                "deviation": yz_verdict.deviation,
            },
        ),
        _jumble_evidence(system, "X", "Y", p, 1.5 if one_sided else 2.0, False),
        _jumble_evidence(system, "Y", "Z", p, 2.0 if one_sided else 2.5, True),
    ]
    if not one_sided:
        evidence.append(_jumble_evidence(system, "X", "Z", p, 3.0, False))

    xs = x_part.indices
    host_xy = pair_block(system.pair("X", "Y", "host"))
    host_xz = None if one_sided else pair_block(system.pair("X", "Z", "host"))
    yz = pair_block(system.pair("Y", "Z"))
    yz_degrees = yz.sum(axis=1, dtype=np.int64)

    def verdict_at(i: int) -> PerVertexVerdict:
        """The (eps',d,p) verdict of the i-th x's derived pair in G."""
        x, ypos = xs[i], np.flatnonzero(host_xy[i])
        zpos = None if one_sided else np.flatnonzero(host_xz[i])
        deg_y, deg_z = len(ypos), None if one_sided else len(zpos)
        if deg_y == 0 or deg_z == 0:
            return PerVertexVerdict(x, False, None, "empty neighborhood", deg_y, deg_z)
        block = yz[ypos] if one_sided else yz[ypos].take(zpos, axis=1)
        edges = int(yz_degrees[ypos].sum()) if one_sided else int(np.count_nonzero(block))
        base = float(Fraction(edges, block.size)) / p  # as graphs.p_density
        if method == "exact":  # the witness is dropped, so positions label it
            dev = exact_block_regularity(block, base, *map(range, block.shape), eps_prime, p).deviation
        else:
            dev = sampled_block_deviation(block, base, eps_prime, p, trials, _child_seed(seed, x))
        if below_density_floor(base, eps_prime, d):
            return PerVertexVerdict(x, False, dev, "density floor", deg_y, deg_z)
        regular = leq(dev, eps_prime)
        return PerVertexVerdict(x, regular, dev, None if regular else "irregularity witness", deg_y, deg_z)

    workers = min(workers, os.cpu_count() or 1)  # more threads than cores gain nothing
    ranges = _chunk_ranges(len(xs), workers)
    if len(ranges) == 1:
        per_x = tuple(map(verdict_at, ranges[0]))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            chunks = pool.map(lambda r: [verdict_at(i) for i in r], ranges)
            per_x = tuple(v for chunk in chunks for v in chunk)
    exceptional = sum(1 for v in per_x if not v.regular)
    return InheritanceOutcome(
        per_x=per_x,
        exceptional_count=exceptional,
        exceptional_fraction=exceptional / len(per_x) if per_x else 0.0,
        threshold_reference=eps_prime * len(per_x),
        evidence=tuple(evidence),
        parameters={
            "eps_prime": eps_prime,
            "eps": eps_hyp,
            "d": d,
            "p": p,
            "method": method,
            "trials": trials,
            "sizes": [len(x_part), len(y_part), len(z_part)],
        },
    )


one_sided_experiment = functools.partial(inheritance_experiment, lemma="one_sided")
two_sided_experiment = functools.partial(inheritance_experiment, lemma="two_sided")


# -- bad-pair bounds -----------------------------------------------------------

def bad_pair_bounds_audit(
    system: TripartiteSystem,
    d: float,
    eps_star: float,
    delta: float,
    eps: float,
    direction: str,
    p: float,
    mode: str = "strict",
    relaxed_coeff: float | None = None,
    trials: int = 200,
    seed: int = 0,
) -> AuditReport:
    """Audit the many-bad-pairs lower bound or the few-bad-pairs upper bound.

    direction="many": the (Y,Z) pair of the system, when dense or irregular
    enough, must contain at least (eps*)^10 d^4 |Y|^2 pairs whose codegree
    into Z reaches (1+delta)(dp)^2|Z|.  direction="few": summed over u in X,
    pairs inside N_host(u;Y) that are bad w.r.t. Z number at most
    delta p^2 |X||Y|^2.  Strict mode checks the lemma-scale constants and
    certified evidence; relaxed mode verdicts against ``relaxed_coeff``.
    """
    started = time.perf_counter()
    if direction not in ("many", "few"):
        raise ParameterError(f"unknown direction {direction!r}")
    ys, zs, xs_ = system.y, system.z, system.x
    q = d * p
    threshold = (1 + delta) * q * q * len(zs)
    yz_g = system.pair("Y", "Z")
    is_bad = codegrees(system.sub, ys, zs) >= threshold  # the left pairs of (Y, Z) in G

    if direction == "many":
        host_yz = pair_block(system.pair("Y", "Z", "host"))
        degree_ok = all(leq(deg, 2 * p * len(zs)) for deg in host_yz.sum(axis=1).tolist())
        dens = yz_g.edge_count() / (len(ys) * len(zs))
        refuted, certified, reg_verdict = _regularity_refutation(yz_g, eps_star, p, trials, seed)
        cond_irregular = geq(dens, (d - eps) * p) and refuted
        cond_dense = geq(dens, (d + eps_star) * p)
        cert_yz = spectral_jumble_bound(system.pair("Y", "Z", "host"), p)
        c_meas = cert_yz.gamma * math.sqrt(math.log2(1.0 / p)) / (p**1.5 * math.sqrt(len(ys) * len(zs)))
        hyps = [
            HypothesisRecord("eps_star_range", eps_star <= 1e-3, True, {"eps_star": eps_star}),
            HypothesisRecord("delta_budget", delta <= eps_star**9 / 10, True, {"delta": delta}),
            HypothesisRecord("eps_budget", eps <= eps_star**9 * d / 100, True, {"eps": eps}),
            HypothesisRecord(
                "c_prime_budget",
                c_meas <= d**2 * eps**10 / 100,
                True,
                {"c_prime": c_meas, "budget": d**2 * eps**10 / 100},
            ),
            HypothesisRecord("host_degree_cap", degree_ok, True, {"cap": 2 * p * len(zs)}),
            HypothesisRecord(
                "dense_or_irregular",
                cond_irregular or cond_dense,
                certified or cond_dense,
                {
                    "density": dens,
                    "irregular_refuted": refuted,
                    "regularity_method": reg_verdict.method if reg_verdict else None,
                },
            ),
        ]
        bad = int(np.count_nonzero(is_bad))
        coeff = eps_star**10 if mode == "strict" or relaxed_coeff is None else relaxed_coeff
        bound = coeff * d**4 * len(ys) ** 2
        return make_report(
            "many_bad_pairs",
            mode,
            hyps,
            measured=bad,
            bound=bound,
            bound_kind="lower",
            parameters={
                "d": d,
                "p": p,
                "delta": delta,
                "eps": eps,
                "eps_star": eps_star,
                "coeff": coeff,
                "bad_threshold": threshold,
            },
            seed=seed,
            started=started,
        )

    # few-direction: with H the host X x Y block and B the symmetric 0/1
    # matrix of bad pairs of Y, sum((H @ B) * H) counts each bad pair inside
    # a neighbourhood N_host(u; Y) twice; float32 is exact, all entries <= |Y|
    bad_pairs = np.zeros((len(ys), len(ys)), dtype=np.float32)
    bad_pairs[np.triu_indices(len(ys), 1)] = is_bad
    bad_pairs += bad_pairs.T
    h = pair_block(system.pair("X", "Y", "host"))
    total = int((h.astype(np.float32) @ bad_pairs)[h].sum(dtype=np.float64)) // 2
    bound = delta * p * p * len(xs_) * len(ys) ** 2

    c_xy = spectral_jumble_bound(system.pair("X", "Y", "host"), p).c_prime(1.5, len(xs_), len(ys))
    c_yz = spectral_jumble_bound(system.pair("Y", "Z", "host"), p).c_prime(2.0, len(ys), len(zs))
    ydeg_ok = all(
        leq(abs(deg - p * len(xs_)), eps * p * len(xs_)) for deg in h.sum(axis=0).tolist()
    )
    reg = check_eps_d_p(yz_g, eps, d, p, method="sampled", trials=trials, seed=seed)
    hyps = [
        HypothesisRecord(
            "constants_budget",
            max(c_xy, c_yz) <= eps <= 1e-10 * delta**6 * d**8,
            True,
            {"c_xy": c_xy, "c_yz": c_yz, "eps": eps, "budget": 1e-10 * delta**6 * d**8},
        ),
        HypothesisRecord("y_degree_window", ydeg_ok, True, {"eps": eps}),
        HypothesisRecord(
            "yz_regular_in_G",
            reg.regular,
            reg.method == "exact",
            {"deviation": reg.deviation, "method": reg.method},
        ),
    ]
    return make_report(
        "few_bad_pairs",
        mode,
        hyps,
        measured=total,
        bound=bound,
        bound_kind="upper",
        parameters={
            "d": d,
            "p": p,
            "delta": delta,
            "eps": eps,
            "bad_threshold": threshold,
        },
        seed=seed,
        started=started,
    )
