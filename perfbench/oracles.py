"""Reference values computed with numpy from the inputs the benchmark wrote.

Nothing here calls into bijumble: each function restates the quantity from
its definition, so a check compares two independent computations.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np


def rows_to_matrix(rows, n: int) -> np.ndarray:
    """Dense 0/1 matrix of a graph given as per-vertex integer bit rows."""
    nbytes = max(1, (n + 7) // 8)
    raw = np.frombuffer(b"".join(r.to_bytes(nbytes, "little") for r in rows), dtype=np.uint8)
    return np.unpackbits(raw.reshape(n, nbytes), axis=1, bitorder="little", count=n).astype(bool)


def codegrees(a: np.ndarray) -> np.ndarray:
    """Codegrees of all unordered row pairs i < j of a 0/1 matrix (A A^T)."""
    f = a.astype(np.float64)
    c = f @ f.T
    return c[np.triu_indices(a.shape[0], 1)].astype(np.int64)


def c4_census(a: np.ndarray, q: float, delta: float) -> dict:
    """C4 total and pair classes of a pair whose left side indexes the rows."""
    c = codegrees(a)
    nv = a.shape[1]
    heavy = c >= 4 * q * q * nv
    bad = (c >= (1 + delta) * q * q * nv) & ~heavy
    typical = ~heavy & ~bad
    quads = c * (c - 1) // 2
    return {
        "c4": int(quads.sum()),
        "typical": int(typical.sum()),
        "bad": int(bad.sum()),
        "heavy": int(heavy.sum()),
        "c4_typical": int(quads[typical].sum()),
        "c4_bad": int(quads[bad].sum()),
        "c4_heavy": int(quads[heavy].sum()),
    }


def bad_pair_counts(sub_yz: np.ndarray, host_xy: np.ndarray, threshold: float) -> tuple[int, int]:
    """(pairs y < y' with codegree into Z >= threshold, the same pairs summed
    over u in X inside the host neighbourhood of u in Y)."""
    f = sub_yz.astype(np.float64)
    bad = (f @ f.T) >= threshold
    np.fill_diagonal(bad, False)
    many = int(np.triu(bad, 1).sum())
    h = host_xy.astype(np.float64)
    few = int(round(((h @ bad.astype(np.float64)) * h).sum())) // 2
    return many, few


def _min_size(eps: float, n: int) -> int:
    """Least size >= eps*n, with eps taken as the decimal it prints as, so
    that 0.2 * 15 is 3 and not 3.0000000000000004."""
    return max(1, math.ceil(Fraction(repr(eps)) * n))


def _subset_prefix_sums(a: np.ndarray, min_size: int):
    """For every subset S of the rows with |S| >= min_size: |S| and the
    prefix sums of the column degrees into S, descending and ascending."""
    s = a.shape[0]
    masks = np.arange(1, 1 << s, dtype=np.int64)
    member = (masks[:, None] >> np.arange(s)) & 1
    sizes = member.sum(axis=1)
    keep = sizes >= min_size
    member, sizes = member[keep], sizes[keep]
    degs = np.sort(member @ a.astype(np.int64), axis=1)
    return sizes, np.cumsum(degs[:, ::-1], axis=1), np.cumsum(degs, axis=1)


def exact_gamma(a: np.ndarray, p: float) -> float:
    """max over nonempty U', W' of |e(U',W') - p|U'||W'|| / sqrt(|U'||W'|);
    the rows side is enumerated, the extremal W' of each size is a prefix
    of the columns sorted by degree into U'."""
    sizes, top, bot = _subset_prefix_sums(a, 1)
    st = sizes[:, None] * np.arange(1, a.shape[1] + 1)
    root = np.sqrt(st)
    return float(max(((top - p * st) / root).max(), ((p * st - bot) / root).max()))


def exact_deviation(a: np.ndarray, p: float, eps: float) -> tuple[float, float]:
    """(base p-density, max |d_p(U',W') - d_p(U,W)| over |U'| >= eps|U|,
    |W'| >= eps|W|)."""
    m, n = a.shape
    base = int(a.sum()) / (m * n) / p
    tmin = _min_size(eps, n)
    sizes, top, bot = _subset_prefix_sums(a, _min_size(eps, m))
    t = np.arange(tmin, n + 1)
    scale = p * sizes[:, None] * t
    dev = max(
        np.abs(top[:, tmin - 1:] / scale - base).max(),
        np.abs(bot[:, tmin - 1:] / scale - base).max(),
    )
    return base, float(dev)


def discrepancy(a: np.ndarray, rows, cols, p: float) -> float:
    """|e(U',W') - p|U'||W'|| / sqrt(|U'||W'|) for row and column positions."""
    e = int(a[np.ix_(rows, cols)].sum())
    st = len(rows) * len(cols)
    return abs(e - p * st) / math.sqrt(st)


def partite_k4(blocks: dict) -> int:
    """Labelled copies of K4 with vertex i in part i; ``blocks[(i, j)]`` is
    the 0/1 matrix between parts i < j.  Disjoint parts make every such
    map injective."""
    f = {key: val.astype(np.float64) for key, val in blocks.items()}
    total = 0.0
    for a in range(f[(0, 1)].shape[0]):
        c = f[(1, 2)] * f[(0, 2)][a]  # b~c and a~c
        d = f[(1, 3)] * f[(0, 3)][a]  # b~d and a~d
        per_b = ((c @ f[(2, 3)]) * d).sum(axis=1)
        total += per_b @ f[(0, 1)][a]
    return int(round(total))


def optialpha(p: float, b) -> tuple[float, float]:
    """(sum over alpha in [0,P]^q minus 0 of 2^(sum alpha) /
    max_{alpha_i != 0} 2^(2 alpha_i) p^(b_i), the bound (50q)^q p^(1-C))
    with P = floor(log2(1/p)) and C = max_i (b_i + i)."""
    cap = 0
    while 2.0 ** (cap + 1) * p <= 1.0:
        cap += 1
    q = len(b)
    grid = np.array(list(itertools.product(range(cap + 1), repeat=q))[1:], dtype=np.float64)
    weights = np.where(grid > 0, 2.0 ** (2 * grid) * p ** np.asarray(b, dtype=np.float64), 0.0)
    total = float((2.0 ** grid.sum(axis=1) / weights.max(axis=1)).sum())
    c_exp = max(bi + i for i, bi in enumerate(b, start=1))
    return total, (50.0 * q) ** q * p ** (1 - c_exp)


def sigma_max(a: np.ndarray, p: float) -> float:
    """Largest singular value of A - pJ by LAPACK's SVD."""
    return float(np.linalg.norm(a.astype(np.float64) - p, 2))
