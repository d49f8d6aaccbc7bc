"""Finite-time entropic functionals e_t and their exact positivity domains.

e_t(alpha) = alpha*l_t - 0.5*sum_i log1p(alpha*lambda_i), with l_t =
0.5*logdet(I + D T_t) and lambda_i the eigenvalues of K_t = D^{1/2} T_t D^{1/2};
e_{t+} is the same with alpha -> -alpha and K+_t = D+^{1/2} T_t D+^{1/2}.  Each
is an EntropicFunctional, the log-potential alpha*c - sum_k w_k log(1 - alpha*q_k)
with c = +-l_t, atoms q = -+lambda and w = 1/2, built from one spectrum: e_t
from the spectrum of K_t that the flow point keeps, e_{t+} from a spectrum of
K+_t computed once per flow point and D+.  K+_t is read in the mode frame as
E'T^_tE with E = B^-1 C+, C+ the Cholesky factor of D+ (C+ C+' = D+), built
once per model frame and D+, and T^_t the flow point's T_t in modes:
E'T^_tE = C+'T_tC+ has the spectrum of T_t D+, so any factor of D+ gives that
of D+^{1/2} T_t D+^{1/2}, and one Cholesky replaces an eigendecomposition.
When D+ = I and the frame is orthogonal, E is orthogonal and the spectrum is
that of T^_t itself, with no n x n product.  A new root holds numpy's copy
of D+ and C+ beside E while it is made; a new spectrum holds T^_t, E'T^_t and
E'T^_tE with its symmetrization: beside E, at most four n x n arrays at once.
The domain (the open interval where every 1 - alpha*q_k > 0), the value, e'
and e'' at every alpha are read from it.  Outside that interval the value is
IEEE +inf.
"""

import itertools
import math
import threading
import warnings
import weakref
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ._linalg import AccuracyError, _content_key, frame_map, is_identity, symmetrize
from .flow import flow_point
from .model import DomainError, SingularCovarianceError, StructuralError

LOGDET_G4_TOL = 1e-8        # |0.5 logdet(I + D T_t)| cap under time reversal
SYMMETRY_RTOL = 1e-6        # relative agreement of delta_t from both spectrum ends
ZERO_PENCIL_FLOOR = 1e-12   # pencil spectra this small are roundoff of T_t = 0


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


def _atom_domain(q, kind):
    """Open interval between the atoms r = 1/q nearest 0, +-inf where a side has none."""
    lower = 1.0 / q.min() if q.size and q.min() < 0.0 else -math.inf
    upper = 1.0 / q.max() if q.size and q.max() > 0.0 else math.inf
    delta_t = -float(lower) if kind == "reference" else math.inf
    return DomainInterval(lower=float(lower), upper=float(upper), kind=kind, delta_t=delta_t)


@dataclass(frozen=True, eq=False)
class EntropicFunctional:
    """Log-potential e(alpha) = alpha*c - sum_k w_k log(1 - alpha*q_k).

    The atoms sit at r_k = 1/q_k with masses w_k (an array, or one scalar for
    every atom).  e is finite on the open domain, +inf outside; by default the
    domain is the interval between the atoms nearest 0, and a caller may pass
    a narrower one.  slope and curvature are e' and e'' in closed form and
    raise DomainError outside the open domain.
    """

    c: float
    q: np.ndarray
    w: object
    domain: DomainInterval = None
    meta: str = ""

    def __post_init__(self):
        object.__setattr__(self, "q", np.asarray(self.q, dtype=float))
        if self.domain is None:
            object.__setattr__(self, "domain", _atom_domain(self.q, "reference"))

    def __call__(self, alpha):
        alpha = float(alpha)
        if not self.domain.lower < alpha < self.domain.upper:
            if math.isnan(alpha):
                raise DomainError("alpha is NaN")
            return math.inf
        # inside, even one float from an atom, every rounded alpha*q_k < 1
        return alpha * self.c - float(np.sum(self.w * np.log1p(-alpha * self.q)))

    def _poles(self, alpha):
        alpha = float(alpha)
        if not self.domain.lower < alpha < self.domain.upper:
            raise DomainError(f"alpha = {alpha} is outside the domain "
                              f"({self.domain.lower}, {self.domain.upper})")
        return self.q / (1.0 - alpha * self.q)

    def slope(self, alpha):
        """e'(alpha) = c + sum_k w_k q_k / (1 - alpha*q_k)."""
        return self.c + float(np.sum(self.w * self._poles(alpha)))

    def curvature(self, alpha):
        """e''(alpha) = sum_k w_k q_k^2 / (1 - alpha*q_k)^2."""
        return float(np.sum(self.w * self._poles(alpha) ** 2))


def _functional(l, lam, sign, meta):
    """sign*alpha*l - 0.5*sum log1p(sign*alpha*lam) with lam the eigenvalues of a pencil K.

    The atoms are q = -sign*lam; there are none (and l is 0) when the
    spectral norm max|lam| of K is roundoff of zero, so that the functional
    vanishes on the whole line.
    """
    if float(np.abs(lam).max()) <= ZERO_PENCIL_FLOOR:
        # flow-invariant measure: omega_t = omega, the functional vanishes
        l, q = 0.0, np.empty(0)
    else:
        q = -sign * lam
    kind = "reference" if sign > 0 else "ness"
    return EntropicFunctional(c=sign * l, q=q, w=0.5, domain=_atom_domain(q, kind), meta=meta)


def _reference_functional(fp):
    return _functional(fp.logdet_term, fp.spectrum, 1.0, "finite-time-reference")


# NESS functionals per key of D+: each key holds its functionals weakly per
# flow point and its roots E = B^-1 C+ weakly per mode frame, so C+ is
# factored once per model and D+, not once per time; the Cholesky factorization
# is also the check that D+ is positive definite.  D+ = I (is_identity) has
# the key IDENTITY, needs no root, and nothing evicts it.  Any other D+ is keyed
# by content like the generator (_linalg._content_key), with no copy kept;
# -0.0 and 0.0 make two keys for the same values.  At most D_PLUS_ENTRIES such
# keys, least recently used out; a functional holds n atoms, and builds run
# under the lock, so one key is factorized once even by concurrent callers.
D_PLUS_ENTRIES = 4
IDENTITY = "identity"
_spectra_lock = threading.Lock()
_spectra_counts = {"hits": 0, "misses": 0}
_identity = (weakref.WeakKeyDictionary(), {})   # (flow point -> functional, frame -> E)
_stores = OrderedDict()   # content key of a D+ that is not I -> (functionals, roots) as above


def _ness_functional(fp, d_plus):
    d_plus = np.ascontiguousarray(d_plus, dtype=float)
    n = fp.spectrum.size
    if d_plus.shape != (n, n):
        raise StructuralError(f"D+ must be {n}x{n} like the model, got {d_plus.shape}")
    # is_identity before the hash: it reads I (the toy's D+) in O(n^2) compares, not SHA-256
    key = IDENTITY if is_identity(d_plus) else _content_key(d_plus)
    with _spectra_lock:
        if key == IDENTITY:
            points, roots = _identity
        elif key in _stores:
            _stores.move_to_end(key)
            points, roots = _stores[key]
        elif not np.isfinite(d_plus).all():
            raise StructuralError("D+ contains non-finite entries")   # so a stored key is finite
        else:
            points, roots = weakref.WeakKeyDictionary(), weakref.WeakKeyDictionary()
        efn = points.get(fp)
        if efn is not None:
            _spectra_counts["hits"] += 1
            return efn
        frame = fp.frame
        k = frame.change(-fp.time)   # T_t = B^-T k B^-1, so K+_t = E'kE
        if key != IDENTITY:
            e = roots.get(frame)
            if e is None:
                try:
                    e = roots[frame] = frame_map(frame.blocks, np.linalg.cholesky(d_plus), inverse=True)
                except np.linalg.LinAlgError as err:
                    raise SingularCovarianceError(f"D+: {err}") from None
            k = symmetrize(e.T @ k @ e)
        elif not frame.orthogonal:
            k = frame.home(k)   # E = B^-1; when it is orthogonal, k has the spectrum of K+_t
        efn = points[fp] = _functional(fp.logdet_term, np.linalg.eigvalsh(k), -1.0, "finite-time-ness")
        _spectra_counts["misses"] += 1
        if key != IDENTITY and key not in _stores:   # a new key is stored once it has built
            _stores[key] = points, roots
            if len(_stores) > D_PLUS_ENTRIES:
                _stores.popitem(last=False)
        return efn


def spectral_cache_info():
    """Hits and misses of the NESS spectra since import; live entries, and bytes with the roots E."""
    with _spectra_lock:
        stores = (_identity, *_stores.values())
        efns = [f for points, _ in stores for f in points.values()]
        roots = [e for _, per_frame in stores for e in per_frame.values()]
        nbytes = sum(a.nbytes for a in itertools.chain((f.q for f in efns), roots))
        return {**_spectra_counts, "entries": len(efns), "bytes": nbytes}


def domain_interval(model, t):
    """Interval J_t = (-delta_t, 1+delta_t) of finiteness of e_t.

    delta_t = 1/lambda_max(K_t); under time reversal the other endpoint
    satisfies 1 + delta_t = -1/lambda_min(K_t), which is cross-checked.
    Without time reversal the asymmetric interval is returned with a warning.
    """
    dom = _reference_functional(flow_point(model, t)).domain
    lower, upper = dom.lower, dom.upper
    if not math.isfinite(lower) and not math.isfinite(upper):
        return dom
    symmetric = (
        math.isfinite(lower)
        and math.isfinite(upper)
        and abs(upper - (1.0 + dom.delta_t)) <= SYMMETRY_RTOL * max(1.0, abs(upper))
    )
    if not symmetric:
        warnings.warn(
            f"J_t endpoints ({lower:.6g}, {upper:.6g}) are not symmetric about 1/2; "
            "time-reversal symmetry appears to fail",
            stacklevel=2,
        )
    return dom


def domain_interval_ness(model, t, d_plus):
    """Interval {alpha : I - alpha * D+^{1/2} T_t D+^{1/2} > 0}; not symmetric."""
    return _ness_functional(flow_point(model, t), d_plus).domain


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
    return _reference_functional(fp)(alpha)


def renyi_entropy_ness(model, t, alpha, d_plus):
    """NESS functional e_{t+}(alpha) for a stationary covariance d_plus.

    Evaluates -(alpha/2)*logdet(I + D T_t) - 0.5*logdet(I - alpha K+_t) with
    K+_t = D+^{1/2} T_t D+^{1/2}.  The first term uses the reference
    covariance and vanishes under time reversal.
    """
    return ness_functional(model, t, d_plus)(alpha)


def reference_functional(model, t):
    """e_t with its domain J_t, built from the spectrum the flow point keeps."""
    domain_interval(model, t)  # warns when J_t is not symmetric about 1/2
    fp = flow_point(model, t)
    _check_logdet_term(model, fp)
    return _reference_functional(fp)


def ness_functional(model, t, d_plus):
    """e_{t+} with its domain: the cached EntropicFunctional of (t, D+)."""
    fp = flow_point(model, t)
    _check_logdet_term(model, fp)
    return _ness_functional(fp, d_plus)


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
