"""Finite-time entropic functionals e_t and their exact positivity domains.

e_t(alpha) = alpha*l_t - 0.5*sum_i log1p(alpha*lambda_i), with l_t =
0.5*logdet(I + D T_t) and lambda_i the eigenvalues of K_t = D^{1/2} T_t D^{1/2};
e_{t+} is the same with alpha -> -alpha and K+_t = D+^{1/2} T_t D+^{1/2}.  Each
is an EntropicFunctional, the log-potential alpha*c - sum_k w_k log(1 - alpha*q_k)
with c = +-l_t, atoms q = -+lambda and w = 1/2, built from one spectrum: e_t
from the spectrum of K_t that the flow point keeps, e_{t+} from a spectrum of
K+_t computed once per flow point and D+.  K+_t is read in the mode frame as
E'T^_tE with E = B^-1 D+^{1/2}, built once per model frame and D+, and T^_t
the flow point's T_t in modes; when D+ = I and the frame is orthogonal, E is
orthogonal and the spectrum is that of T^_t itself, with no n x n product.
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

from ._linalg import AccuracyError, frame_map, is_identity, spd_sqrt, symmetrize
from .flow import flow_point
from .model import DomainError

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


# NESS functionals held weakly per flow point, then per D+.  A D+ equal to the
# identity (is_identity, the np.array_equal test against I) has the fixed
# token IDENTITY, which no copy keys and no eviction drops: its functionals
# go with their flow points.  Any other D+ is told apart by exact comparison
# (np.array_equal) with private read-only copies of the distinct D+ seen, at
# most D_PLUS_ENTRIES of them (least recently used out, with their
# functionals); one copy serves every flow point.  Beside the copies,
# E = B^-1 D+^{1/2} is kept weakly per mode frame and D+ (evicted with its
# D+), so D+^{1/2} is taken once per model and D+, not once per time.  A
# functional holds n atoms, never an n x n matrix; builds run under the lock,
# so one key is factorized once even by concurrent callers.
D_PLUS_ENTRIES = 4
IDENTITY = "identity"
_spectra: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_spectra_lock = threading.Lock()
_spectra_counts = {"hits": 0, "misses": 0}
_d_plus_copies = OrderedDict()   # token -> read-only copy of a D+
_d_plus_tokens = itertools.count()
_ness_roots: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()   # frame -> {token: E}


def _d_plus_token(d_plus):
    """The token of D+'s content, storing a copy if it is new and not I; call under _spectra_lock."""
    if is_identity(d_plus):
        return IDENTITY
    for token, copy in reversed(_d_plus_copies.items()):
        if np.array_equal(copy, d_plus):
            _d_plus_copies.move_to_end(token)
            return token
    token = next(_d_plus_tokens)
    copy = np.array(d_plus, dtype=float)
    copy.flags.writeable = False
    _d_plus_copies[token] = copy
    while len(_d_plus_copies) > D_PLUS_ENTRIES:
        old, _ = _d_plus_copies.popitem(last=False)
        for per_key in itertools.chain(_spectra.values(), _ness_roots.values()):
            per_key.pop(old, None)
    return token


def _ness_root(token, frame):
    """E = B^-1 D+^{1/2} for the D+ (not I) of a token in a mode frame, built once; call under _spectra_lock."""
    per_frame = _ness_roots.setdefault(frame, {})
    e = per_frame.get(token)
    if e is None:
        e = per_frame[token] = frame_map(frame.blocks, spd_sqrt(_d_plus_copies[token]), inverse=True)
    return e


def _ness_functional(fp, d_plus):
    d_plus = np.asarray(d_plus, dtype=float)
    with _spectra_lock:
        key = _d_plus_token(d_plus)
        per_point = _spectra.setdefault(fp, {})
        efn = per_point.get(key)
        if efn is not None:
            _spectra_counts["hits"] += 1
            return efn
        frame = fp.frame
        k = frame.change(-fp.time)   # T_t = B^-T k B^-1, so K+_t = E'kE
        if key != IDENTITY:
            e = _ness_root(key, frame)
            k = symmetrize(e.T @ k @ e)
        elif not frame.orthogonal:
            k = frame.home(k)   # E = B^-1; when it is orthogonal, k has the spectrum of K+_t
        efn = per_point[key] = _functional(fp.logdet_term, np.linalg.eigvalsh(k), -1.0,
                                           "finite-time-ness")
        _spectra_counts["misses"] += 1
        return efn


def spectral_cache_info():
    """Hits and misses of the NESS spectra since import; live entries, and bytes with the D+
    copies and their frame roots E."""
    with _spectra_lock:
        efns = [f for per_point in _spectra.values() for f in per_point.values()]
        roots = [e for per_frame in _ness_roots.values() for token, e in per_frame.items()
                 if token in _d_plus_copies]
        nbytes = sum(a.nbytes for a in itertools.chain((f.q for f in efns), _d_plus_copies.values(), roots))
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
