"""Exact subset enumeration behind ``exact_jumble_gamma`` and ``exact_regularity``.

Both enumerate the subsets S of the smaller side and, for each S, only the
top and bottom prefixes T of the other side sorted by degree into S: at a
fixed |T| those maximise and minimise e(S,T), and both discrepancies are
monotone in e(S,T) at fixed sizes.  ``scan`` does this for many S at once
on a 0/1 block whose rows are the enumerated side, as the callers cut it
with ``graphs.pair_block``, with labels for the rows and columns:

* Meet in the middle: S's degree vector is the sum of a row of a table over
  the subsets of the low half of the side and a row of one over the high half.
* Chunks: one high-half subset with at most ``CHUNK`` low-half subsets at a
  time, so memory is set by ``CHUNK`` and 2^(n/2)-row tables, not by 2^n.
* Prefixes: each degree vector is sorted; cumulative sums of the descending and
  ascending orders give the top and bottom prefix sums at every |T|, which the
  caller's ``score`` turns into candidates with the float expressions, in the
  order, of a per-subset loop.
* Tie replay: a candidate replaces the current one if it is larger by more
  than ``TIE``, or within ``TIE`` and smaller in the key (S, sorted T), in the
  order size first, then lexicographic S.  Only candidates within ``MARGIN`` of
  the running maximum are kept and the rule is replayed over them.  This is
  exact when every kept value exceeds every discarded one by more than ``TIE``:
  the current value is then always a kept one, which no discarded candidate
  can beat or tie.  Should that gap be missing, the scan is repeated keeping
  every candidate.
"""

from __future__ import annotations

import math

import numpy as np

from ._numeric import ABS_TOL

DEFAULT_ENUM_CAP = 1 << 22  # subsets; the classic "side <= 22" resource limit
TIE = 1e-15
MARGIN = 1e-9
CHUNK = 512


def min_size(epsilon: float, n: int) -> int:
    """Smallest subset size ceil(epsilon * n) that the regularity definition admits."""
    return max(1, math.ceil(epsilon * n - ABS_TOL))


def subset_budget(n: int, smallest: int) -> int:
    """Number of subsets of an n-set with at least ``smallest`` elements."""
    return sum(math.comb(n, s) for s in range(smallest, n + 1))


def regularity_budget(shape: tuple[int, int], epsilon: float) -> int:
    """Subsets that exact regularity enumerates on a pair of ``shape`` at ``epsilon``."""
    n = min(shape)
    return subset_budget(n, min_size(epsilon, n))


def within_cap(n: int, smallest: int) -> bool:
    """``subset_budget(n, smallest) <= DEFAULT_ENUM_CAP``, summing from the
    largest sizes and stopping once the cap is passed (a side of 800 would
    otherwise sum 240-digit binomials)."""
    total = 0
    for s in range(n, smallest - 1, -1):
        total += math.comb(n, s)
        if total > DEFAULT_ENUM_CAP:
            return False
    return True


def _table(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Degree vector and size of every subset of ``rows``, indexed by bit mask."""
    degrees = np.zeros((1 << len(rows), rows.shape[1]), np.int16)
    sizes = np.zeros(1 << len(rows), np.int64)
    for i, row in enumerate(rows):
        degrees[1 << i: 2 << i] = degrees[: 1 << i] + row
        sizes[1 << i: 2 << i] = sizes[: 1 << i] + 1
    return degrees, sizes


def scan(block: np.ndarray, left, right, smallest: int, score, keep_all: bool = False):
    """Replay the tie rule over the candidates of every row subset S of at
    least ``smallest`` rows of ``block``; returns (value, S, T, e(S,T)) of
    the winner, S and T labelled by ``left`` and ``right``.

    ``score(sizes, top, bot)`` gets one chunk's subset sizes and float top
    and bottom prefix sums (column t-1 for |T| = t) and returns (value, |T|,
    take_top), each with a row per subset and a column per candidate slot in
    replay order; an unused slot has value -inf.
    """
    margin = math.inf if keep_all else MARGIN
    low_bits = (len(left) + 1) // 2
    low, low_size = _table(block[:low_bits])
    high, high_size = _table(block[low_bits:])
    running, discarded, kept = -math.inf, -math.inf, []
    for h in range(len(high)):
        for start in range(0, len(low), CHUNK):
            sizes = low_size[start: start + CHUNK] + high_size[h]
            rows = np.flatnonzero(sizes >= smallest)
            if not len(rows):
                continue
            asc = np.sort(low[start + rows] + high[h], axis=1)
            top, bot = (np.cumsum(a, axis=1, dtype=np.float64) for a in (asc[:, ::-1], asc))
            value, length, take_top = score(sizes[rows], top, bot)
            running = max(running, float(value.max()))
            near = value >= running - margin
            discarded = max(discarded, float(value[~near].max(initial=-math.inf)))
            r, slot = np.nonzero(near & (value > -math.inf))
            mask = (start + rows[r]) | (h << low_bits)
            kept.append((value[r, slot], mask, slot, length[r, slot], take_top[r, slot]))
    value, *rest = (np.concatenate(column) for column in zip(*kept))
    near = value >= running - margin
    discarded = max(discarded, float(value[~near].max(initial=-math.inf)))
    if value[near].min() - discarded <= TIE:
        return scan(block, left, right, smallest, score, keep_all=True)

    candidates = []
    for v, mask, slot, t, take in zip(*(column[near].tolist() for column in (value, *rest))):
        positions = tuple(i for i in range(len(left)) if mask >> i & 1)
        candidates.append((len(positions), positions, slot, v, t, take, mask))
    best = best_key = None
    for _, positions, _, v, t, take, mask in sorted(candidates):
        deg = (low[mask & ((1 << low_bits) - 1)] + high[mask >> low_bits]).tolist()
        order = sorted(range(len(right)), key=lambda j: (-deg[j], j))
        chosen = order[:t] if take else order[len(right) - t:]
        key = (tuple(left[i] for i in positions), tuple(sorted(right[j] for j in chosen)))
        if best is None or v > best + TIE or (abs(v - best) <= TIE and key < best_key):
            best, best_key, edges = v, key, sum(deg[j] for j in chosen)
    return best, best_key[0], best_key[1], edges
