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

Everything is seeded; rerunning a plan with the same seed and any worker
count reproduces outcomes exactly (per-x work is partitioned over disjoint
index ranges and merged in vertex order).
"""

from __future__ import annotations

import math
import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .graphs import (
    BipartitePairView,
    Graph,
    TripartiteSystem,
    VertexSet,
    bool_matrix,
    iter_bits,
    pair_block,
    rows_from_bool_matrix,
)
from .jumbled import min_size_bound, spectral_jumble_bound
from .quads import _regularity_refutation, codegrees
from .regularity import DEFAULT_ENUM_CAP, check_eps_d_p
from .reports import AuditReport, HypothesisRecord, make_report


@dataclass(frozen=True)
class ExperimentPlan:
    """A reproducible inheritance experiment: generator + audit parameters."""

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
        if min(self.nx, self.ny, self.nz) < 1:
            raise ParameterError("part sizes must be positive")
        for name, prob in (("p", self.p), ("d", self.d), ("eps_prime", self.eps_prime)):
            if not 0 < prob < 1:
                raise ParameterError(f"{name} must lie in (0,1)")
        if self.seed is None:
            raise ParameterError("a seed is mandatory")

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

    @classmethod
    def from_text(cls, text: str, **overrides) -> "ExperimentPlan":
        """Parse a flat ``key = value`` plan file (same syntax as the run
        config); an unknown key is an error."""
        values: dict = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ParameterError(f"plan line {lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key not in cls._FIELD_TYPES:
                raise ParameterError(f"plan line {lineno}: unknown key {key!r}")
            values[key] = cls._FIELD_TYPES[key](val)
        values.update(overrides)
        missing = {"lemma", "nx", "ny", "nz", "p", "d", "eps_prime", "seed"} - values.keys()
        if missing:
            raise ParameterError(f"plan is missing keys: {sorted(missing)}")
        return cls(**values)

    def run(self, workers: int = 1) -> "InheritanceOutcome":
        system = make_system(self.nx, self.ny, self.nz, self.p, self.d, self.seed)
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
    lemma: str
    per_x: tuple[PerVertexVerdict, ...]
    exceptional_count: int
    exceptional_fraction: float
    threshold_reference: float  # eps' |X| from the statement, for comparison
    evidence: tuple[HypothesisRecord, ...]
    parameters: dict
    seed: int

    def to_record(self) -> dict:
        return {
            "lemma": self.lemma,
            "exceptional_count": self.exceptional_count,
            "exceptional_fraction": self.exceptional_fraction,
            "threshold_reference": self.threshold_reference,
            "parameters": dict(sorted(self.parameters.items())),
            "evidence": [h.to_record() for h in self.evidence],
            "seed": self.seed,
            "per_x": [
                {
                    "x": v.x,
                    "regular": v.regular,
                    "deviation": v.deviation,
                    "reason": v.reason,
                    "degree_y": v.degree_y,
                    "degree_z": v.degree_z,
                }
                for v in self.per_x
            ],
        }


# -- generators ---------------------------------------------------------------

def gen_bipartite(m: int, n: int, p: float, seed: int) -> BipartitePairView:
    """Seeded Bernoulli(p) bipartite pair: left = 0..m-1, right = m..m+n-1."""
    if min(m, n) < 1:
        raise ParameterError("side sizes must be positive")
    if not 0 < p < 1:
        raise ParameterError("p must lie in (0,1)")
    rng = np.random.default_rng(seed)
    mat = np.zeros((m + n, m + n), dtype=bool)
    block = rng.random((m, n)) < p
    mat[:m, m:] = block
    mat[m:, :m] = block.T
    g = Graph._trusted(m + n, rows_from_bool_matrix(mat))
    return BipartitePairView(g, VertexSet.range(0, m), VertexSet.range(m, m + n))


def gen_tripartite(nx: int, ny: int, nz: int, p: float, seed: int) -> TripartiteSystem:
    """Host with each cross-part pair an independent Bernoulli(p) bipartite
    graph, no intra-part edges; G starts equal to the host."""
    if min(nx, ny, nz) < 1:
        raise ParameterError("part sizes must be positive")
    if not 0 < p < 1:
        raise ParameterError("p must lie in (0,1)")
    n = nx + ny + nz
    rng = np.random.default_rng(seed)
    mat = np.zeros((n, n), dtype=bool)
    offsets = [(0, nx), (nx, ny), (nx + ny, nz)]
    for ai in range(3):
        for bi in range(ai + 1, 3):
            (ao, an), (bo, bn) = offsets[ai], offsets[bi]
            block = rng.random((an, bn)) < p
            mat[ao : ao + an, bo : bo + bn] = block
            mat[bo : bo + bn, ao : ao + an] = block.T
    host = Graph._trusted(n, rows_from_bool_matrix(mat))
    return TripartiteSystem(
        host=host,
        sub=host,
        x=VertexSet.range(0, nx),
        y=VertexSet.range(nx, nx + ny),
        z=VertexSet.range(nx + ny, n),
    )


def make_system(nx: int, ny: int, nz: int, p: float, d: float, seed: int) -> TripartiteSystem:
    """Host from ``gen_tripartite`` at ``seed``, G its ``sparsify`` at
    ``seed + 1`` when d < 1 and the host itself otherwise."""
    system = gen_tripartite(nx, ny, nz, p, seed)
    return sparsify(system, d, seed + 1) if d < 1 else system


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
    g = Graph._trusted(n, rows_from_bool_matrix(sub))
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
    if not 0 < fraction <= 1:
        raise ParameterError("fraction must lie in (0,1]")
    if not 0 <= boost <= 1:
        raise ParameterError(f"boost {boost} causes a probability overflow")
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


# -- inheritance experiments ---------------------------------------------------

def _child_seed(seed: int, x: int) -> int:
    return (seed * 1_000_003 + x * 7_919 + 12_345) % (1 << 62)


def _chunk_ranges(n: int, workers: int) -> list[range]:
    if workers <= 1 or n <= 1:
        return [range(n)]
    step = math.ceil(n / workers)
    return [range(i, min(i + step, n)) for i in range(0, n, step)]


def _jumble_evidence(system, name_a, name_b, p, exponent, log_factor, seed, spectral_tol):
    a, b = system.part(name_a), system.part(name_b)
    pairg = BipartitePairView(system.host, a, b)
    cert = spectral_jumble_bound(pairg, p, tol=spectral_tol, seed=seed)
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


def _run_inheritance(
    system: TripartiteSystem,
    lemma: str,
    eps_prime: float,
    d: float,
    p: float,
    method: str,
    trials: int,
    seed: int,
    eps: float | None,
    workers: int,
    spectral_tol: float,
    max_subsets: int,
) -> InheritanceOutcome:
    if method not in ("exact", "sampled"):
        raise ParameterError(f"unknown method {method!r}")
    eps_hyp = eps if eps is not None else eps_prime
    x_part, y_part, z_part = system.x, system.y, system.z
    sub_rows, host_rows = system.sub.rows, system.host.rows

    yz_verdict = check_eps_d_p(
        system.pair("Y", "Z"),
        eps_hyp,
        d,
        p,
        method=method,
        trials=trials,
        seed=seed,
        max_subsets=max_subsets,
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
        _jumble_evidence(system, "X", "Y", p, 1.5 if lemma == "one_sided" else 2.0, False, seed, spectral_tol),
        _jumble_evidence(
            system, "Y", "Z", p, 2.0 if lemma == "one_sided" else 2.5, True, seed, spectral_tol
        ),
    ]
    if lemma == "two_sided":
        evidence.append(_jumble_evidence(system, "X", "Z", p, 3.0, False, seed, spectral_tol))

    xs = x_part.indices
    ymask, zmask = y_part.mask, z_part.mask

    def eval_range(rng_: range) -> list[PerVertexVerdict]:
        out = []
        for i in rng_:
            x = xs[i]
            ny_mask = host_rows[x] & ymask
            deg_y = ny_mask.bit_count()
            if lemma == "one_sided":
                right = z_part
                deg_z = None
            else:
                nz_mask = host_rows[x] & zmask
                deg_z = nz_mask.bit_count()
                right = VertexSet.from_mask(nz_mask)
            if deg_y == 0 or (lemma == "two_sided" and deg_z == 0):
                out.append(PerVertexVerdict(x, False, None, "empty neighborhood", deg_y, deg_z))
                continue
            derived = BipartitePairView(system.sub, VertexSet.from_mask(ny_mask), right)
            verdict = check_eps_d_p(
                derived,
                eps_prime,
                d,
                p,
                method=method,
                trials=trials,
                seed=_child_seed(seed, x),
                max_subsets=max_subsets,
            )
            out.append(
                PerVertexVerdict(
                    x, verdict.regular, verdict.deviation, verdict.failure_reason, deg_y, deg_z
                )
            )
        return out

    ranges = _chunk_ranges(len(xs), workers)
    if len(ranges) == 1:
        chunks = [eval_range(ranges[0])]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(eval_range, ranges))
    per_x = tuple(v for chunk in chunks for v in chunk)
    exceptional = sum(1 for v in per_x if not v.regular)
    return InheritanceOutcome(
        lemma=lemma,
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
        seed=seed,
    )


def one_sided_experiment(
    system: TripartiteSystem,
    eps_prime: float,
    d: float,
    p: float,
    method: str = "sampled",
    trials: int = 12,
    seed: int = 0,
    eps: float | None = None,
    workers: int = 1,
    spectral_tol: float = 1e-6,
    max_subsets: int = DEFAULT_ENUM_CAP,
) -> InheritanceOutcome:
    """For every x in X test (N_host(x) in Y, Z) for (eps',d,p)-regularity in G."""
    return _run_inheritance(
        system, "one_sided", eps_prime, d, p, method, trials, seed, eps, workers, spectral_tol, max_subsets
    )


def two_sided_experiment(
    system: TripartiteSystem,
    eps_prime: float,
    d: float,
    p: float,
    method: str = "sampled",
    trials: int = 12,
    seed: int = 0,
    eps: float | None = None,
    workers: int = 1,
    spectral_tol: float = 1e-6,
    max_subsets: int = DEFAULT_ENUM_CAP,
) -> InheritanceOutcome:
    """As one-sided, with derived pair (N_host(x) in Y, N_host(x) in Z)."""
    return _run_inheritance(
        system, "two_sided", eps_prime, d, p, method, trials, seed, eps, workers, spectral_tol, max_subsets
    )


# -- bad-pair bounds -----------------------------------------------------------

def bad_pair_bounds_audit(
    system: TripartiteSystem,
    d: float,
    eps_star: float,
    delta: float,
    eps: float,
    direction: str,
    p: float,
    c_prime: float | None = None,
    mode: str = "strict",
    relaxed_coeff: float | None = None,
    trials: int = 200,
    seed: int = 0,
    spectral_tol: float = 1e-6,
    max_subsets: int = DEFAULT_ENUM_CAP,
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
    host_rows = system.host.rows

    if direction == "many":
        degree_ok = all(
            (host_rows[y] & zs.mask).bit_count() <= 2 * p * len(zs) + 1e-9 for y in ys
        )
        dens = yz_g.edge_count() / (len(ys) * len(zs))
        refuted, certified, reg_verdict = _regularity_refutation(
            yz_g, eps_star, p, trials, seed, max_subsets
        )
        cond_irregular = dens >= (d - eps) * p - 1e-12 and refuted
        cond_dense = dens >= (d + eps_star) * p - 1e-12
        cert_yz = spectral_jumble_bound(system.pair("Y", "Z", "host"), p, tol=spectral_tol, seed=seed)
        c_meas = (
            c_prime
            if c_prime is not None
            else cert_yz.gamma
            * math.sqrt(math.log2(1.0 / p))
            / (p**1.5 * math.sqrt(len(ys) * len(zs)))
        )
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
        ok = bad >= bound - 1e-9
        return make_report(
            "many_bad_pairs",
            mode,
            hyps,
            ok,
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
            margin=bad - bound,
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

    cert_xy = spectral_jumble_bound(system.pair("X", "Y", "host"), p, tol=spectral_tol, seed=seed)
    c_xy = cert_xy.gamma / (p**1.5 * math.sqrt(len(xs_) * len(ys)))
    cert_yz = spectral_jumble_bound(system.pair("Y", "Z", "host"), p, tol=spectral_tol, seed=seed)
    c_yz = cert_yz.gamma / (p**2 * math.sqrt(len(ys) * len(zs)))
    ydeg_ok = all(
        abs((host_rows[y] & xs_.mask).bit_count() - p * len(xs_)) <= eps * p * len(xs_) + 1e-9
        for y in ys
    )
    reg = check_eps_d_p(
        yz_g, eps, d, p, method="sampled", trials=trials, seed=seed, max_subsets=max_subsets
    )
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
    ok = total <= bound + 1e-9
    return make_report(
        "few_bad_pairs",
        mode,
        hyps,
        ok,
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
        margin=bound - total,
        started=started,
    )
