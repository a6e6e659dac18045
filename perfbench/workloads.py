"""The three workloads: seeded inputs, the CLI calls of one round, and the
check of every call's output against ``oracles``.

``WORKLOADS[name](seed, root)`` writes the workload's input files under
``root`` and returns a ``Workload``.  Every round runs the same calls on the same
inputs; a call's check returns None when the output is right, else a
message.  References are computed once, after the timed phase.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles

# Seed of the one input that does not depend on --seed: the pair whose
# spectral certificate is checked for soundness (see SPECTRAL_* below).
SPECTRAL_SEED = 1606_01168


@dataclass
class Call:
    rc: int
    stdout: str
    out_dir: Path

    def report(self) -> dict:
        (path,) = self.out_dir.glob("*.json")
        return json.loads(path.read_text(encoding="utf-8"))

    def field(self, pattern: str) -> str:
        match = re.search(pattern, self.stdout)
        if match is None:
            raise ValueError(f"{pattern!r} not in output {self.stdout!r}")
        return match.group(1)


@dataclass
class Op:
    """One CLI call and the check of its output.

    ``argv`` may hold ``{out}``, replaced by a fresh report directory.
    ``check`` and ``fault`` take (call, references, this round's calls by
    op name) and return None or a message.  A ``check`` message means the
    output is wrong.  ``fault`` tests one known program fault: its message
    counts the call as failed, not as incorrect.
    """

    name: str
    argv: list
    check: Callable
    fault: Callable | None = None


@dataclass
class Workload:
    ops: list
    references: Callable  # () -> dict, computed after the timed phase


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def _first_error(*conditions) -> str | None:
    for ok, message in conditions:
        if not ok:
            return message
    return None


# -- input files -----------------------------------------------------------

def write_edge_list(path: Path, n_vertices: int, us, vs) -> None:
    body = "\n".join(f"{u} {v}" for u, v in zip(us.tolist(), vs.tolist()))
    path.write_text(f"n={n_vertices}\n{body}\n", encoding="utf-8")


def write_pair(path: Path, a: np.ndarray) -> tuple[str, str]:
    """Edge list of a bipartite pair: rows are 0..m-1, columns m..m+n-1."""
    m, n = a.shape
    us, vs = np.nonzero(a)
    write_edge_list(path, m + n, us, vs + m)
    return f"0..{m - 1}", f"{m}..{m + n - 1}"


def write_pattern(path: Path, n: int, edges) -> None:
    lines = [f"n={n}"] + [f"{u} {v}" for u, v in edges]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_partite(root: Path, stem: str, sizes, p: float, rng, pattern: str) -> dict:
    """Host with an independent Bernoulli(p) block between every two parts,
    and the instance file naming pattern, host and parts."""
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    k = len(sizes)
    blocks, us, vs = {}, [], []
    for i in range(k):
        for j in range(i + 1, k):
            block = rng.random((sizes[i], sizes[j])) < p
            blocks[(i, j)] = block
            bu, bv = np.nonzero(block)
            us.append(bu + offsets[i])
            vs.append(bv + offsets[j])
    write_edge_list(root / f"{stem}.el", int(offsets[-1]), np.concatenate(us), np.concatenate(vs))
    parts = [list(range(offsets[i], offsets[i + 1])) for i in range(k)]
    lines = [f"pattern: {pattern}", f"host: {stem}.el"]
    lines += [f"part {i}: " + " ".join(map(str, part)) for i, part in enumerate(parts)]
    (root / f"{stem}.inst").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return {"blocks": blocks, "parts": parts}


def _seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(1, 2**31 - 1, size=count)]


# -- inherit ---------------------------------------------------------------
#
# Part sizes: X is smaller than Y and Z to bound the per-x loop; Y and Z are
# large enough that the criterion-8 ceilings hold with room (one-sided
# 0.10, two-sided 0.15; the exceptional fraction jumps from ~0.4 at 600 to
# 0 at 800 one-sided, and two-sided from 0.36 at 800 to ~0.005 at 1000).

ONE_SIDED = dict(lemma="one_sided", nx=300, ny=800, nz=800, p=0.3, d=0.5, eps_prime=0.25, trials=12)
TWO_SIDED = dict(lemma="two_sided", nx=400, ny=1000, nz=1000, p=0.2, d=0.5, eps_prime=0.3, trials=12)
CEILING = {"one_sided": 0.10, "two_sided": 0.15}
CONTROL = dict(nx=200, n=500, p=0.3, d=0.5, eps_prime=0.3, trials=10, fraction=0.6, boost=0.9)
CONTROL_CEILING = 0.5


def _inherit_outcome(call: Call, lemma: str, nx: int):
    match = re.search(rf"{lemma}: exceptional (\d+)/(\d+)", call.stdout)
    count, total = int(match.group(1)), int(match.group(2))
    rep = call.report()
    frac = rep["measured"]
    error = _first_error(
        (total == nx, f"{total} vertices x evaluated, expected {nx}"),
        (rep["lemma"] == f"{lemma}_inheritance", f"report lemma {rep['lemma']}"),
        (frac == count / total, f"report fraction {frac} != {count}/{total}"),
    )
    return frac, rep, error


def _check_plan(lemma: str, nx: int):
    def check(call, refs, calls):
        frac, rep, error = _inherit_outcome(call, lemma, nx)
        return error or _first_error(
            (frac <= CEILING[lemma], f"{lemma} fraction {frac} above ceiling {CEILING[lemma]}"),
            (call.rc == 0 and rep["verdict"] == "pass", f"rc {call.rc}, verdict {rep['verdict']}"),
        )

    return check


def _check_control(planted: bool):
    def check(call, refs, calls):
        frac, rep, error = _inherit_outcome(call, "one_sided", CONTROL["nx"])
        if error:
            return error
        if not planted:
            return _first_error(
                (call.rc == 0 and rep["verdict"] == "pass", f"baseline rc {call.rc}, fraction {frac}"),
            )
        base, _, _ = _inherit_outcome(calls["control_base"], "one_sided", CONTROL["nx"])
        return _first_error(
            (frac > base, f"planted fraction {frac} not above baseline {base}"),
            (call.rc == 1 and rep["verdict"] == "fail", f"planted rc {call.rc}, fraction {frac}"),
        )

    return check


def inherit(seed: int, root: Path) -> Workload:
    s_one, s_two, s_ctl, s_plant = _seeds(seed, 4)
    for name, plan, s in (("one", ONE_SIDED, s_one), ("two", TWO_SIDED, s_two)):
        text = "".join(f"{k} = {v}\n" for k, v in plan.items()) + f"seed = {s}\n"
        (root / f"{name}.plan").write_text(text, encoding="utf-8")
    c = CONTROL
    control = [
        "inherit", "--lemma", "one_sided", "--nx", str(c["nx"]), "--ny", str(c["n"]),
        "--nz", str(c["n"]), "--p", str(c["p"]), "--d", str(c["d"]),
        "--eps-prime", str(c["eps_prime"]), "--trials", str(c["trials"]), "--seed", str(s_ctl),
        "--ceiling", str(CONTROL_CEILING), "--out", "{out}",
    ]
    ops = [
        Op("one_sided_plan",
           ["inherit", "--plan", str(root / "one.plan"), "--ceiling", str(CEILING["one_sided"]), "--out", "{out}"],
           _check_plan("one_sided", ONE_SIDED["nx"])),
        Op("two_sided_plan",
           ["inherit", "--plan", str(root / "two.plan"), "--ceiling", str(CEILING["two_sided"]),
            "--workers", "2", "--out", "{out}"],
           _check_plan("two_sided", TWO_SIDED["nx"])),
        Op("control_base", control, _check_control(False)),
        Op("control_planted", control + ["--plant", f"{c['fraction']}:{c['boost']}:{s_plant}"],
           _check_control(True)),
    ]
    return Workload(ops, lambda: {})


# -- census ----------------------------------------------------------------
#
# A dense seeded 1000 x 1000 pair at p = 0.3 for the C4 census and the
# dense-or-irregular audit, a seeded 800^3 tripartite system for the two
# bad-pair audits, and one fixed 1000 x 1000 pair for the spectral
# certificate.  The spectral call is the known fault: power iteration
# returns an estimate that never exceeds sigma_max and labels it
# sound_upper=True, so its soundness check fails on every input.

CENSUS_N, CENSUS_P, CENSUS_DELTA = 1000, 0.3, 0.1
DENSE_EPS, DENSE_SLACK = 0.25, 0.01
BAD = dict(n=800, p=0.3, d=0.5, delta=0.2)
SPECTRAL_N, SPECTRAL_P = 1000, 0.3


def _check_census(call, refs, calls):
    r = refs["census"]
    classes = re.search(r"^typical=(\d+) bad=(\d+) heavy=(\d+)$", call.stdout, re.M)
    split = re.search(r"^c4 total=(\d+) heavy=(\d+) bad=(\d+) typical=(\d+)", call.stdout, re.M)
    first = int(call.stdout.split("\n", 1)[0])
    got = (first, *map(int, classes.groups()), *map(int, split.groups()))
    want = (r["c4"], r["typical"], r["bad"], r["heavy"], r["c4"], r["c4_heavy"], r["c4_bad"], r["c4_typical"])
    return _first_error((call.rc == 0, f"rc {call.rc}"), (got == want, f"census {got} != reference {want}"))


def _check_dense(call, refs, calls):
    r = refs["census"]
    rep = call.report()
    m = n = CENSUS_N
    q = refs["census_edges"] / (m * n)
    bound = (1 - DENSE_SLACK) * q**4 * m * m * n * n / 4.0
    return _first_error(
        (rep["measured"] == r["c4"], f"audit C4 {rep['measured']} != reference {r['c4']}"),
        (_close(rep["bound"], bound), f"audit bound {rep['bound']} != {bound}"),
        (rep["parameters"]["branch"] == "dense", f"branch {rep['parameters']['branch']}"),
        (r["c4"] >= bound, f"C4 {r['c4']} below the dense bound {bound}"),
        (call.rc == 0 and rep["verdict"] == "pass", f"rc {call.rc}, verdict {rep['verdict']}"),
    )


def _check_bad(direction: str):
    def check(call, refs, calls):
        rep = call.report()
        want = refs["bad_pairs"][direction]
        n, p = BAD["n"], BAD["p"]
        error = _first_error(
            (rep["measured"] == want, f"{direction} bad pairs {rep['measured']} != reference {want}"),
            (call.rc == 0 and rep["verdict"] == "pass", f"rc {call.rc}, verdict {rep['verdict']}"),
        )
        if error or direction == "many":
            return error
        bound = BAD["delta"] * p * p * n * n * n
        return _first_error((want <= bound, f"few bad pairs {want} above {bound}"))

    return check


def _check_spectral(call, refs, calls):
    rep = call.report()
    return _first_error(
        (call.rc == 0, f"rc {call.rc}"),
        (rep["measured"] == rep["parameters"]["gamma"] > 0, f"gamma {rep['measured']}"),
    )


def _spectral_unsound(call, refs, calls):
    """A gamma labelled sound_upper must be at least sigma_max(A - pJ), up
    to the rounding of the reference SVD."""
    rep = call.report()["parameters"]
    sigma = refs["sigma_max"]
    if rep["sound_upper"] and rep["gamma"] < sigma * (1 - 1e-12):
        return f"sound_upper gamma {rep['gamma']!r} below sigma_max {sigma!r}"
    return None


def census(seed: int, root: Path) -> Workload:
    rng = np.random.default_rng(seed)
    a = rng.random((CENSUS_N, CENSUS_N)) < CENSUS_P
    left, right = write_pair(root / "census.el", a)
    s_dense, s_bad = _seeds(seed, 2)
    spectral = np.random.default_rng(SPECTRAL_SEED).random((SPECTRAL_N, SPECTRAL_N)) < SPECTRAL_P
    s_left, s_right = write_pair(root / "spectral.el", spectral)
    pair = ["--graph", str(root / "census.el"), "--left", left, "--right", right]
    bad = [
        "--nx", str(BAD["n"]), "--ny", str(BAD["n"]), "--nz", str(BAD["n"]), "--p", str(BAD["p"]),
        "--d", str(BAD["d"]), "--delta", str(BAD["delta"]), "--seed", str(s_bad), "--out", "{out}",
    ]
    ops = [
        Op("census", ["census", *pair, "--c4", "--q", str(CENSUS_P), "--delta", str(CENSUS_DELTA)],
           _check_census),
        Op("c4_dense_irregular",
           ["audit", "--lemma", "c4_dense_irregular", *pair, "--eps", str(DENSE_EPS),
            "--dense-slack", str(DENSE_SLACK), "--seed", str(s_dense), "--out", "{out}"],
           _check_dense),
        Op("many_bad_pairs", ["audit", "--lemma", "many_bad_pairs", *bad], _check_bad("many")),
        Op("few_bad_pairs", ["audit", "--lemma", "few_bad_pairs", *bad], _check_bad("few")),
        Op("spectral_certify",
           ["certify", "--graph", str(root / "spectral.el"), "--left", s_left, "--right", s_right,
            "--p", str(SPECTRAL_P), "--method", "spectral", "--out", "{out}"],
           _check_spectral, fault=_spectral_unsound),
    ]

    def references():
        from bijumble import experiments

        system = experiments.gen_tripartite(BAD["n"], BAD["n"], BAD["n"], BAD["p"], s_bad)
        system = experiments.sparsify(system, BAD["d"], s_bad + 1)
        nv = system.host.vertex_count
        host = oracles.rows_to_matrix(system.host.rows, nv)
        sub = oracles.rows_to_matrix(system.sub.rows, nv)
        x, y, z = (np.array(part.indices) for part in (system.x, system.y, system.z))
        q = BAD["d"] * BAD["p"]
        threshold = (1 + BAD["delta"]) * q * q * len(z)
        many, few = oracles.bad_pair_counts(sub[np.ix_(y, z)], host[np.ix_(x, y)], threshold)
        return {
            "census": oracles.c4_census(a, CENSUS_P, CENSUS_DELTA),
            "census_edges": int(a.sum()),
            "bad_pairs": {"many": many, "few": few},
            "sigma_max": oracles.sigma_max(spectral, SPECTRAL_P),
        }

    return Workload(ops, references)


# -- exact -----------------------------------------------------------------
#
# Two 15 x 40 pairs for subset enumeration (certificate and regularity),
# a K4 partite instance (4 parts of 150, p = 0.3) for backtracking counts,
# a triangle instance (3 parts of 200, p = 0.1) for the suffix count, the
# ten-triangle book and the triangle for the paper's exponents, the
# Petersen graph for a branch-and-bound search that does real pruning, and
# the alpha-vector sum with q = 6 at p = 2^-6.

EXACT_SIDES, EXACT_P = (15, 40), 0.3
REG_EPS, REG_D = 0.2, 0.5
K4_PART, K4_P, K4_GAMMA = 150, 0.3, 0.2
TRI_PART, TRI_P, SUFFIX_W, SUFFIX_P, SUFFIX_EPS = 200, 0.1, 100, 0.09, 0.5
OPTIALPHA_P, OPTIALPHA_Q = 2.0**-6, 6
PETERSEN = [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)] + [
    (5 + i, 5 + (i + 2) % 5) for i in range(5)
]


def _book(pages: int):
    return [e for t in range(pages) for e in ((0, 2 * t + 1), (0, 2 * t + 2), (2 * t + 1, 2 * t + 2))]


def _exponents(stdout: str, tag: str) -> dict:
    block = stdout.split(f"[{tag}]", 1)[1]
    return {
        "order": [int(v) for v in re.search(r"order\s+([\d ]+)", block).group(1).split()],
        "one_sided": re.search(r"one_sided\s+(\S+)", block).group(1),
        "two_sided": re.search(r"two_sided\s+(\S+)", block).group(1),
    }


def _check_params(objective: str, strategy: str, expect: dict):
    tag = f"optimised ({objective}, {strategy})"

    def check(call, refs, calls):
        got = _exponents(call.stdout, tag)
        wrong = {k: got[k] for k, v in expect.items() if got[k] != v}
        return _first_error((call.rc == 0, f"rc {call.rc}"), (not wrong, f"{tag}: {wrong} != {expect}"))

    return check


def _check_petersen(call, refs, calls):
    """Branch and bound is exact, so its optimum can be no worse than the
    file order or any sampled order, and d~ >= max degree gives the floor
    1/2 + 3/2 for the 3-regular Petersen graph."""
    best = _exponents(call.stdout, "optimised (two_sided, branch_and_bound)")
    file_order = _exponents(call.stdout, "file order")
    value = float(best["two_sided"])
    return _first_error(
        (call.rc == 0, f"rc {call.rc}"),
        (sorted(best["order"]) == list(range(10)), f"order {best['order']} is not a permutation"),
        (best["two_sided"] == refs["petersen_at_order"](best["order"]),
         f"exponent {best['two_sided']} differs from its order's evaluation"),
        (value <= float(file_order["two_sided"]), f"{value} worse than the file order"),
        (value <= refs["petersen_sampled"], f"{value} worse than a sampled order {refs['petersen_sampled']}"),
        (value >= 2.0, f"{value} below 1/2 + max degree / 2"),
    )


def _check_certify_exact(call, refs, calls):
    rep = call.report()["parameters"]
    a = refs["jumble_matrix"]
    m = a.shape[0]
    rows = rep["witness_left"]
    cols = [v - m for v in rep["witness_right"]]
    reached = oracles.discrepancy(a, rows, cols, EXACT_P)
    return _first_error(
        (call.rc == 0 and rep["sound_upper"], f"rc {call.rc}, sound_upper {rep['sound_upper']}"),
        (_close(rep["gamma"], refs["gamma"]), f"gamma {rep['gamma']!r} != reference {refs['gamma']!r}"),
        (_close(reached, rep["gamma"]), f"witness reaches {reached!r}, not gamma {rep['gamma']!r}"),
    )


def _check_regularity(call, refs, calls):
    base, dev = refs["regularity"]
    regular = dev <= REG_EPS and base >= REG_D - REG_EPS
    return _first_error(
        (call.rc == 0, f"rc {call.rc}"),
        (call.field(r"method=(\w+)") == "exact", "method is not exact"),
        (_close(float(call.field(r"deviation=(\S+)")), dev), f"deviation != reference {dev!r}"),
        (_close(float(call.field(r"base_p_density=(\S+)")), base), f"base density != reference {base!r}"),
        (call.field(r"regular=(\w+)") == str(regular), f"verdict regular != {regular}"),
    )


def _check_count(call, refs, calls):
    count, dh = refs["k4"], refs["k4_density_product"]
    scale = K4_P**6 * K4_PART**4
    rep = call.report()
    lo, hi = (dh - K4_GAMMA) * scale, (dh + K4_GAMMA) * scale
    return _first_error(
        (int(call.field(r"count=(\d+)")) == count, f"count != reference {count}"),
        (_close(float(call.field(r"density_product=(\S+)")), dh), f"density product != {dh!r}"),
        (rep["measured"] == count, f"audit measured {rep['measured']} != {count}"),
        (lo <= count <= hi, f"count {count} outside the window [{lo}, {hi}]"),
        (call.rc == 0 and rep["verdict"] == "pass", f"rc {call.rc}, verdict {rep['verdict']}"),
    )


def _check_suffix(call, refs, calls):
    count = refs["suffix"]
    bound = 4 * SUFFIX_P * SUFFIX_W * SUFFIX_W
    rep = call.report()
    return _first_error(
        (int(call.field(r"suffix_count=(\d+)")) == count, f"suffix count != reference {count}"),
        (count <= bound, f"suffix count {count} above (4p)^e prod |W| = {bound}"),
        (call.rc == 0 and rep["verdict"] == "pass", f"rc {call.rc}, verdict {rep['verdict']}"),
    )


def _check_optialpha(call, refs, calls):
    total, bound = refs["optialpha"]
    return _first_error(
        (call.rc == 0 and "PASS" in call.stdout, f"rc {call.rc}"),
        (_close(float(call.field(r"sum=(\S+)")), total), f"sum != reference {total!r}"),
        (_close(float(call.field(r"bound=(\S+)")), bound), f"bound != reference {bound!r}"),
        (total <= bound, f"sum {total} above (50q)^q p^(1-C) = {bound}"),
    )


def exact(seed: int, root: Path) -> Workload:
    rng = np.random.default_rng(seed)
    jumble = rng.random(EXACT_SIDES) < EXACT_P
    reg = rng.random(EXACT_SIDES) < EXACT_P
    j_left, j_right = write_pair(root / "jumble.el", jumble)
    r_left, r_right = write_pair(root / "reg.el", reg)
    write_pattern(root / "k4.pat", 4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    write_pattern(root / "k3.pat", 3, [(0, 1), (0, 2), (1, 2)])
    write_pattern(root / "book10.pat", 21, _book(10))
    write_pattern(root / "petersen.pat", 10, PETERSEN)
    k4 = write_partite(root, "k4", [K4_PART] * 4, K4_P, rng, "k4.pat")
    tri = write_partite(root, "tri", [TRI_PART] * 3, TRI_P, rng, "k3.pat")
    w1 = sorted(rng.choice(tri["parts"][1], SUFFIX_W, replace=False).tolist())
    w2 = sorted(rng.choice(tri["parts"][2], SUFFIX_W, replace=False).tolist())
    b = sorted(rng.integers(0, 7, size=OPTIALPHA_Q).tolist(), reverse=True)
    s_count, s_suffix = _seeds(seed, 2)

    def params(pattern, objective, strategy):
        return ["params", "--pattern", str(root / pattern), "--objective", objective, "--strategy", strategy]

    ops = [
        Op("certify_exact",
           ["certify", "--graph", str(root / "jumble.el"), "--left", j_left, "--right", j_right,
            "--p", str(EXACT_P), "--method", "exact", "--out", "{out}"],
           _check_certify_exact),
        Op("regularity_exact",
           ["regularity", "--graph", str(root / "reg.el"), "--left", r_left, "--right", r_right,
            "--p", str(EXACT_P), "--epsilon", str(REG_EPS), "--d", str(REG_D), "--method", "exact"],
           _check_regularity),
        Op("count_k4",
           ["count", "--instance", str(root / "k4.inst"), "--p", str(K4_P), "--gamma", str(K4_GAMMA),
            "--seed", str(s_count), "--out", "{out}"],
           _check_count),
        Op("suffix",
           ["suffix", "--instance", str(root / "tri.inst"), "--x", "1",
            "--w", "1:" + ",".join(map(str, w1)), "--w", "2:" + ",".join(map(str, w2)),
            "--p", str(SUFFIX_P), "--eps", str(SUFFIX_EPS), "--seed", str(s_suffix), "--out", "{out}"],
           _check_suffix),
        Op("book10_two_sided", params("book10.pat", "two_sided", "heuristic"),
           _check_params("two_sided", "heuristic", {"two_sided": "10.500"})),
        Op("book10_one_sided", params("book10.pat", "one_sided", "heuristic"),
           _check_params("one_sided", "heuristic", {"one_sided": "3.000"})),
        Op("triangle_branch_and_bound", params("k3.pat", "two_sided", "branch_and_bound"),
           _check_params("two_sided", "branch_and_bound", {"one_sided": "3.000", "two_sided": "3.000"})),
        Op("petersen_branch_and_bound", params("petersen.pat", "two_sided", "branch_and_bound"),
           _check_petersen),
        Op("optialpha", ["optialpha", "--p", repr(OPTIALPHA_P), "--b", *map(str, b)], _check_optialpha),
    ]

    def references():
        from bijumble import graphs, patterns

        blocks = k4["blocks"]
        dh = 1.0
        for block in blocks.values():
            dh *= float(block.mean()) / K4_P
        petersen = graphs.Graph.from_edges(10, PETERSEN)

        def at_order(order):
            return str(patterns.exponent_report(patterns.Pattern(petersen, tuple(order))).two_sided_exponent)

        order_rng = np.random.default_rng(seed)
        sampled = min(float(at_order(order_rng.permutation(10).tolist())) for _ in range(200))
        t1 = np.array(tri["parts"][1])
        t2 = np.array(tri["parts"][2])
        return {
            "jumble_matrix": jumble,
            "gamma": oracles.exact_gamma(jumble, EXACT_P),
            "regularity": oracles.exact_deviation(reg, EXACT_P, REG_EPS),
            "k4": oracles.partite_k4(blocks),
            "k4_density_product": dh,
            "suffix": int(tri["blocks"][(1, 2)][np.ix_(np.searchsorted(t1, w1), np.searchsorted(t2, w2))].sum()),
            "optialpha": oracles.optialpha(OPTIALPHA_P, b),
            "petersen_at_order": at_order,
            "petersen_sampled": sampled,
        }

    return Workload(ops, references)


WORKLOADS = {"inherit": inherit, "census": census, "exact": exact}
