"""Finite-time entropic functionals e_t and their exact positivity domains.

e_t(alpha) = alpha*l_t - 0.5*sum_i log1p(alpha*lambda_i), with l_t =
0.5*logdet(I + D T_t) and lambda_i the eigenvalues of K_t = D^{1/2} T_t D^{1/2};
e_{t+} is the same with alpha -> -alpha and K+_t = D+^{1/2} T_t D+^{1/2}.  Each
spectrum is computed once per flow point and reference state, and the domain
(the open interval where every 1 + alpha*lambda_i > 0) and the value at every
alpha are read from it.  Outside that interval the value is IEEE +inf.
"""

import hashlib
import math
import threading
import warnings
import weakref
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._linalg import AccuracyError, spd_sqrt, symmetrize
from .flow import flow_point

LOGDET_G4_TOL = 1e-8        # |0.5 logdet(I + D T_t)| cap under time reversal
SYMMETRY_RTOL = 1e-6        # relative agreement of delta_t from both spectrum ends
ZERO_PENCIL_FLOOR = 1e-12   # pencils this small are roundoff of T_t = 0


@dataclass(frozen=True)
class DomainInterval:
    """Open interval on which an entropic functional is finite.

    kind 'reference' intervals are symmetric about 1/2 under time reversal,
    with delta_t = -lower; 'ness' intervals carry no symmetry.
    """

    lower: float
    upper: float
    kind: str
    delta_t: float = math.inf

    def contains(self, alpha, margin=0.0):
        width = self.upper - self.lower
        pad = margin * width if math.isfinite(width) else 0.0
        return self.lower + pad < alpha < self.upper - pad


@dataclass(frozen=True)
class EntropicFunctional:
    """Scalar functional of alpha, finite on an open interval, +inf outside."""

    domain: DomainInterval
    evaluator: Callable[[float], float]
    meta: str

    def __call__(self, alpha):
        return self.evaluator(alpha)


@dataclass(frozen=True)
class _Spectrum:
    """sign*alpha*l - 0.5*sum log1p(sign*alpha*lam), finite on (lower, upper).

    lam holds the ascending eigenvalues of K; it is empty (and l is 0) when
    K is roundoff of zero, so that the functional vanishes on the whole line.
    """

    l: float
    lam: np.ndarray
    sign: float
    lower: float
    upper: float

    def value(self, alpha):
        if not self.lower < alpha < self.upper:
            return math.inf
        # inside, even one float from an endpoint, every rounded a*lam_i > -1
        a = self.sign * alpha
        return a * self.l - 0.5 * float(np.sum(np.log1p(a * self.lam)))


def _spectrum(l, k, sign):
    if float(np.abs(k).max()) <= ZERO_PENCIL_FLOOR:
        # flow-invariant measure: omega_t = omega, the functional vanishes
        return _Spectrum(0.0, np.empty(0), sign, -math.inf, math.inf)
    lam = np.linalg.eigvalsh(k)  # {a : I + a*K > 0} for a = sign*alpha is (lo, hi)
    lo = -1.0 / lam[-1] if lam[-1] > 0.0 else -math.inf
    hi = -1.0 / lam[0] if lam[0] < 0.0 else math.inf
    lower, upper = (lo, hi) if sign > 0 else (-hi, -lo)
    return _Spectrum(l, lam, sign, float(lower), float(upper))


# Spectra held weakly per flow point, then per reference state: "reference"
# (the model's D) or the shape and SHA-256 of D+'s bytes.  An entry holds n
# eigenvalues, never an n x n matrix; builds run under the lock, so one key
# is factorized once even by concurrent callers.
_spectra: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_spectra_lock = threading.Lock()
_spectra_counts = {"hits": 0, "misses": 0}


def _cached_spectrum(fp, key, build):
    with _spectra_lock:
        per_point = _spectra.setdefault(fp, {})
        spec = per_point.get(key)
        if spec is None:
            spec = per_point[key] = build()
            _spectra_counts["misses"] += 1
        else:
            _spectra_counts["hits"] += 1
        return spec


def _reference_spectrum(fp):
    return _cached_spectrum(fp, "reference", lambda: _spectrum(fp.logdet_term, fp.whitened_T, 1.0))


def _ness_spectrum(fp, d_plus):
    d_plus = np.ascontiguousarray(d_plus, dtype=float)

    def build():
        if np.array_equal(d_plus, np.eye(d_plus.shape[0])):
            k = fp.relative_T
        else:
            dpsq = spd_sqrt(d_plus)
            k = symmetrize(dpsq @ fp.relative_T @ dpsq)
        return _spectrum(fp.logdet_term, k, -1.0)

    return _cached_spectrum(fp, (d_plus.shape, hashlib.sha256(d_plus).hexdigest()), build)


def spectral_cache_info():
    """Hits and misses since import, and the live entries and their bytes."""
    with _spectra_lock:
        specs = [s for per_point in _spectra.values() for s in per_point.values()]
        return {**_spectra_counts, "entries": len(specs), "bytes": sum(s.lam.nbytes for s in specs)}


def domain_interval(model, t):
    """Interval J_t = (-delta_t, 1+delta_t) of finiteness of e_t.

    delta_t = 1/lambda_max(K_t); under time reversal the other endpoint
    satisfies 1 + delta_t = -1/lambda_min(K_t), which is cross-checked.
    Without time reversal the asymmetric interval is returned with a warning.
    """
    spec = _reference_spectrum(flow_point(model, t))
    lower, upper = spec.lower, spec.upper
    if not math.isfinite(lower) and not math.isfinite(upper):
        return DomainInterval(lower=-math.inf, upper=math.inf, kind="reference", delta_t=math.inf)
    delta_t = -lower
    symmetric = (
        math.isfinite(lower)
        and math.isfinite(upper)
        and abs(upper - (1.0 + delta_t)) <= SYMMETRY_RTOL * max(1.0, abs(upper))
    )
    if not symmetric:
        warnings.warn(
            f"J_t endpoints ({lower:.6g}, {upper:.6g}) are not symmetric about 1/2; "
            "time-reversal symmetry appears to fail",
            stacklevel=2,
        )
    return DomainInterval(lower=lower, upper=upper, kind="reference", delta_t=delta_t)


def domain_interval_ness(model, t, d_plus):
    """Interval {alpha : I - alpha * D+^{1/2} T_t D+^{1/2} > 0}; not symmetric."""
    spec = _ness_spectrum(flow_point(model, t), d_plus)
    return DomainInterval(lower=spec.lower, upper=spec.upper, kind="ness", delta_t=math.inf)


def _check_logdet_term(model, fp):
    if model.time_reversal is not None and abs(fp.logdet_term) > LOGDET_G4_TOL:
        raise AccuracyError(
            f"0.5*logdet(I + D T_t) = {fp.logdet_term:.3e} at t={fp.time}; "
            "should vanish under time reversal (matrix exponential inaccurate)"
        )


def renyi_entropy(model, t, alpha):
    """e_t(alpha) = (alpha/2)*logdet(I + D T_t) - 0.5*logdet(I + alpha K_t).

    Returns +inf outside the positivity domain; that is a value, not an
    error.  The first term is a free accuracy diagnostic: under time
    reversal it must vanish and is checked against LOGDET_G4_TOL.
    """
    fp = flow_point(model, t)
    _check_logdet_term(model, fp)
    return _reference_spectrum(fp).value(float(alpha))


def renyi_entropy_ness(model, t, alpha, d_plus):
    """NESS functional e_{t+}(alpha) for a stationary covariance d_plus.

    Evaluates -(alpha/2)*logdet(I + D T_t) - 0.5*logdet(I - alpha K+_t) with
    K+_t = D+^{1/2} T_t D+^{1/2}.  The first term uses the reference
    covariance and vanishes under time reversal.
    """
    fp = flow_point(model, t)
    _check_logdet_term(model, fp)
    return _ness_spectrum(fp, d_plus).value(float(alpha))


def reference_functional(model, t):
    """e_t packaged with its domain as an EntropicFunctional."""
    dom = domain_interval(model, t)
    return EntropicFunctional(
        domain=dom,
        evaluator=lambda a: renyi_entropy(model, t, a),
        meta="finite-time-reference",
    )


def ness_functional(model, t, d_plus):
    """e_{t+} packaged with its domain as an EntropicFunctional."""
    d_plus = np.asarray(d_plus, dtype=float)
    dom = domain_interval_ness(model, t, d_plus)
    return EntropicFunctional(
        domain=dom,
        evaluator=lambda a: renyi_entropy_ness(model, t, a, d_plus),
        meta="finite-time-ness",
    )


ALPHA_SCAN_COLUMNS = ("alpha", "e_t", "in_domain")


def alpha_scan(functional, alphas):
    """Rows (alpha, value, in_domain) for a grid of alpha."""
    rows = []
    for a in alphas:
        v = functional(float(a))
        rows.append((float(a), v, int(math.isfinite(v))))
    return rows


def write_alpha_csv(path, rows):
    with open(path, "w") as fh:
        fh.write(",".join(ALPHA_SCAN_COLUMNS) + "\n")
        for a, v, ind in rows:
            fh.write("%.17g,%.17g,%d\n" % (a, v, ind))
