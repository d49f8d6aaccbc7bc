"""Legendre-Fenchel conjugation: rate functions, symmetry checks, CLT variance.

The conjugate I(s) = sup_alpha (-alpha*s - e(alpha)) of a log-potential e is
read from its closed-form slope and curvature: inside the range of -e' the
supremum sits at the root of e'(alpha) = -s, found by Newton steps kept
inside a bracket; outside it I continues linearly from a domain endpoint
where e' stays finite (a stated endpoint with no atom on it), which is the
exact structure of the conjugate of a convex function that is finite on an
open interval.
"""

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import DomainError
from ._linalg import AccuracyError

CONVEXITY_TOL = -1e-9       # allowed dip of e'' relative to max(1, sum_k |w_k| q_k^2/(1 - alpha q_k)^2)
DEGENERATE_SUP = 1e-12      # |c| + sum |w q| below this: flat functional
NEWTON_STEPS = 100          # cap on bracketed Newton steps for one I(s)


@dataclass(frozen=True)
class RateFunction:
    """Convex conjugate with recorded linear tails and minimizer.

    evaluator is total on the real line: inside inner_interval the value
    comes from an interior critical point, outside it continues linearly
    with slopes tail_slopes (the negated domain endpoints of the input
    functional) and intercepts tail_intercepts.  An endpoint where an atom
    sits has no linear piece: its side of inner_interval is infinite.
    """

    inner_interval: tuple
    tail_slopes: tuple
    tail_intercepts: tuple
    minimizer: float
    evaluator: Callable[[float], float]
    kind: str = "reference"

    def __call__(self, s):
        return self.evaluator(s)


def _endpoint(efn, a, side):
    """One-sided limits (e(a), e'(a)) at the domain endpoint a.

    e' is finite only where no atom sits at a, that is strictly inside the
    atoms nearest 0; at an atom e' tends to side*inf (side = -1 at the lower
    end) and e to +inf.  An infinite a only reaches here for e == 0.
    """
    if not math.isfinite(a):
        return 0.0, 0.0
    atoms = dataclasses.replace(efn, domain=None)
    if not atoms.domain.lower < a < atoms.domain.upper:
        return math.inf, side * math.inf
    return atoms(a), atoms.slope(a)


def _check_convex(efn):
    """Reject a functional whose e'' is negative beyond the roundoff of its sum.

    The grid is uniform inside the domain and graded geometrically toward
    each end, where an atom of negative mass drives e'' to -inf.
    """
    lo, hi = efn.domain.lower, efn.domain.upper
    gaps = (hi - lo) * np.logspace(-12.0, -2.0, 21)
    grid = np.concatenate([np.linspace(lo, hi, 103)[1:-1], lo + gaps, hi - gaps])
    magnitude = dataclasses.replace(efn, w=np.abs(efn.w))
    for a in grid:
        curv = efn.curvature(a)
        if curv < CONVEXITY_TOL * max(1.0, magnitude.curvature(a)):
            raise DomainError(f"input functional is not convex near alpha = {a:.6g} (e'' = {curv:.3e})")


def _slope_root(efn, target):
    """alpha with e'(alpha) = target, by Newton steps kept inside a shrinking bracket."""
    lo, hi = efn.domain.lower, efn.domain.upper
    a = 0.0
    for _ in range(NEWTON_STEPS):
        f = efn.slope(a) - target
        if f == 0.0:
            return a
        if f > 0.0:
            hi = a
        else:
            lo = a
        curv = efn.curvature(a)
        step = a - f / curv if curv > 0.0 else math.nan
        if not lo < step < hi:
            step = 0.5 * (lo + hi)
        # converged, or the bracket has shrunk to adjacent floats
        if abs(step - a) <= 4.0 * math.ulp(a) or not lo < step < hi:
            return a
        a = step
    return a


def rate_function(efn, kind):
    """Conjugate I(s) = sup_alpha (-alpha*s - efn(alpha)) of a log-potential.

    Requires alpha = 0 inside the domain (so e(0) = 0 and I >= 0) and a
    convex functional on a bounded open interval; over an unbounded domain
    only the flat functional e == 0 is conjugated.  Rejects a functional
    whose curvature is negative, naming where.
    """
    if kind not in ("reference", "ness"):
        raise ValueError("kind must be 'reference' or 'ness'")
    lo, hi = efn.domain.lower, efn.domain.upper
    if not lo < 0.0 < hi:
        raise DomainError(f"the domain ({lo}, {hi}) does not contain alpha = 0")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        if abs(efn.c) + float(np.sum(np.abs(efn.w * efn.q))) >= DEGENERATE_SUP:
            raise DomainError("conjugation over an unbounded domain is only supported for e == 0")
        efn = dataclasses.replace(efn, c=0.0, q=np.empty(0), w=0.0)
    else:
        _check_convex(efn)

    e_lo, d_lo = _endpoint(efn, lo, -1.0)
    e_hi, d_hi = _endpoint(efn, hi, 1.0)

    def conjugate(s):
        s = float(s)
        if s > -d_lo:  # the supremum is approached at alpha -> lower
            return -lo * s - e_lo
        if s < -d_hi:  # ... and at alpha -> upper
            return -hi * s - e_hi
        a = _slope_root(efn, -s)
        # alpha = 0 is in the domain and e(0) = 0, so I(s) >= 0
        return max(-a * s - efn(a), 0.0)

    return RateFunction(
        inner_interval=(-d_hi, -d_lo),
        tail_slopes=(-hi, -lo),
        tail_intercepts=(-e_hi, -e_lo),
        minimizer=-efn.slope(0.0),
        evaluator=conjugate,
        kind=kind,
    )


def es_symmetry_defect(rate, grid):
    """max over the grid of |I(-s) - I(s) - s| (exact for reference kind)."""
    return max(abs(rate(-s) - rate(s) - s) for s in grid)


def clt_variance(efn, at):
    """e''(at), the CLT variance of the functional; DomainError outside its open domain."""
    value = efn.curvature(at)
    if value < -1e-8:
        raise AccuracyError(f"second derivative {value:.3e} is negative beyond tolerance")
    return value


RATE_SCAN_COLUMNS = ("s", "I", "I_of_minus_s", "es_defect")


def rate_scan(rate, s_grid):
    rows = []
    for s in s_grid:
        i_s = rate(float(s))
        i_ms = rate(-float(s))
        rows.append((float(s), i_s, i_ms, abs(i_ms - i_s - float(s))))
    return rows


def write_rate_csv(path, rows):
    with open(path, "w") as fh:
        fh.write(",".join(RATE_SCAN_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join("%.17g" % v for v in row) + "\n")
