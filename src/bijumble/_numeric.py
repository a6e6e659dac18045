"""Float comparison discipline for bound checks.

Audits compare exact integer counts against bounds with irrational factors,
so every such comparison goes through these helpers: relative tolerance
1e-9 with an absolute floor of 1e-12, recorded in every report.  ``geq``,
``leq`` and ``within`` accept a value that misses its bound by at most
``slack``; ``reports.make_report`` applies them to every audit (lower bound:
geq, upper bound: leq, window: within) and records the margin with the sign
that is positive on the passing side.  Rounding guards (a ceiling or floor
taken just inside an exact integer) use the same constants.
"""

from __future__ import annotations

REL_TOL = 1e-9
ABS_TOL = 1e-12


def slack(a: float, b: float) -> float:
    return max(ABS_TOL, REL_TOL * max(abs(a), abs(b)))


def geq(a: float, b: float) -> bool:
    """a >= b up to tolerance."""
    return a >= b - slack(a, b)


def leq(a: float, b: float) -> bool:
    """a <= b up to tolerance."""
    return a <= b + slack(a, b)


def within(x: float, lo: float, hi: float) -> bool:
    return geq(x, lo) and leq(x, hi)
