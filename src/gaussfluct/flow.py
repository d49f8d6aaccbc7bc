"""Covariance flow, Radon-Nikodym log-density and Gaussian relative entropy.

The central objects are the flow points (t, e^{tL}, D_t, T_t) with
D_t = e^{tL} D e^{tL'} and T_t = D_t^-1 - D^-1, and the time integral
B_t = int_0^t e^{sL'} sigma e^{sL} ds of the entropy production.  Since
sigma = 1/2 (L'D^-1 + D^-1 L) is the derivative of 1/2 e^{sL'} D^-1 e^{sL}
at s = 0, B_t = 1/2 (e^{tL'} D^-1 e^{tL} - D^-1) = 1/2 T_{-t}: no quadrature
and no Gramian.  The same identity read at -t gives T_t = e^{-tL'} D^-1 e^{-tL}
- D^-1, so neither D_t nor any Cholesky factor is inverted for T_t either.

Everything is read in the model's mode frame (model.mode_frame):
e^{tL} = B R_t B^-1, with R_t real cos/sin turns on the mode pairs of the
rotation blocks, and p = D^{-1/2} B, q = B^-1 D^{1/2} and h = B'D^-1 B
multiplied once per model.  The whitened propagator is
M = D^{-1/2} e^{tL} D^{1/2} = p R_t q, one product per flow point, and
S_t = M M' = D^{-1/2} D_t D^{-1/2} is the inverse of I + K_t = D^{1/2} D_t^-1
D^{1/2}, K_t = D^{1/2} T_t D^{1/2}.  So one eigvalsh of S_t gives mu, the
spectrum of K_t is lambda = 1/mu - 1 (1 + lambda = 1/mu) and
0.5*logdet(I + K_t) = -0.5*sum log(mu); no inverse of D_t is formed.  In
modes T_t = B^-T T^_t B^-1 with T^_t = R'hR - h for R = R_{-t}, summed as
F'hF + hF + F'h with F = R - I from the increment -2 sin^2: O(n^2) on
rotation blocks.  That spectrum and the log-determinant are eager; e^{tL},
D_t and T_t are computed on first access and then kept.  S_t is positive by
construction, so a nonpositive mu raises: it means an inaccurate matrix
exponential.  No domain is decided here; renyi reads the finite-time
domains from the same spectrum.
"""

import math
import weakref
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._linalg import AccuracyError, propagator, spd_inverse, spd_sqrt, symmetrize
from .model import DomainError, Model, ModeFrame, mode_frame, sigma_matrix


@dataclass(frozen=True, eq=False)
class FlowPoint:
    """Pencil spectrum and log-determinant at one time; e^{tL}, D_t and T_t on demand.

    spectrum holds the ascending eigenvalues lambda_i of K_t = D^{1/2} T_t D^{1/2},
    which encode the finite-time positivity domain, read as 1/mu_i - 1 from the
    spectrum mu of S_t = D^{-1/2} D_t D^{-1/2}.  logdet_term is
    0.5*logdet(I + D T_t) = -0.5*sum log(mu_i), which vanishes identically for
    time-reversal invariant models (det D_t = det D).  propagator (e^{tL}),
    covariance_t (D_t) and relative_T (T_t) are built on first access and
    kept.  They read the model's mode frame, never the model, so a flow point
    does not keep its model alive in the weak caches.
    """

    time: float
    spectrum: np.ndarray
    logdet_term: float
    frame: ModeFrame = field(repr=False)

    @cached_property
    def propagator(self):
        """e^{tL}."""
        return propagator(self.frame.generator, self.time)

    @cached_property
    def covariance_t(self):
        """D_t = e^{tL} D e^{tL'} = Y Y' with Y = B R_t q."""
        y = self.frame.flowed_root(self.time)
        return symmetrize(y @ y.T)

    @cached_property
    def relative_T(self):
        """T_t = D_t^-1 - D^-1 = e^{-tL'} D^-1 e^{-tL} - D^-1 = B^-T T^_t B^-1, T^_t from the increment at -t."""
        return self.frame.home(self.frame.change(-self.time))


@dataclass(frozen=True)
class GaussianPair:
    """Two SPD covariances d1 and d2."""

    d1: np.ndarray
    d2: np.ndarray

    @property
    def rel_T(self):
        """The relative operator T = d2^-1 - d1^-1."""
        t = spd_inverse(np.asarray(self.d2, float)) - spd_inverse(np.asarray(self.d1, float))
        return symmetrize(t)


# FlowPoint cache: per model, keyed by exact-bit time.  Values are immutable
# once inserted and dict updates are atomic, so concurrent readers are fine.
_flow_cache: "weakref.WeakKeyDictionary[Model, dict]" = weakref.WeakKeyDictionary()


def flow_point(model, t):
    """Compute (or fetch) the flow point of a model at time t."""
    t = float(t)
    per_model = _flow_cache.get(model)
    if per_model is None:
        per_model = {}
        _flow_cache[model] = per_model
    if t in per_model:
        return per_model[t]
    if math.isnan(t):
        raise DomainError("t is NaN")

    frame = mode_frame(model)
    m = frame.p @ frame.turn(t, frame.q)
    s_t = m @ m.T
    del m   # eigvalsh works on a copy of S_t; M is not read again
    mu = np.linalg.eigvalsh(s_t)
    if not mu[0] > 0.0:
        # impossible for a genuine flow pair: S_t = D^{-1/2} D_t D^{-1/2} > 0
        raise AccuracyError(
            f"D^(-1/2) D_t D^(-1/2) is not positive definite at t={t}; "
            "matrix exponential inaccurate"
        )
    fp = FlowPoint(
        time=t,
        spectrum=1.0 / mu[::-1] - 1.0,
        logdet_term=-0.5 * float(np.sum(np.log(mu))),
        frame=frame,
    )
    per_model[t] = fp
    return fp


def cocycle_defect(model, s, t):
    """Max-abs entry of T_{t+s} - T_t - e^{-tL'} T_s e^{-tL}.

    An exact identity of the flow; the returned defect measures matrix
    exponential accuracy.
    """
    fp_ts = flow_point(model, s + t)
    fp_t = flow_point(model, t)
    fp_s = flow_point(model, s)
    e_minus_t = propagator(model.generator, -t)
    pulled = e_minus_t.T @ fp_s.relative_T @ e_minus_t
    return float(np.abs(fp_ts.relative_T - fp_t.relative_T - pulled).max())


def log_density(model, t, x):
    """Log-density ell(x) = 0.5*logdet(I + D T_t) - 0.5*(x, T_t x)."""
    fp = flow_point(model, t)
    x = np.asarray(x, dtype=float)
    return fp.logdet_term - 0.5 * float(x @ (fp.relative_T @ x))


def mean_entropy_production(model, t):
    """Mean entropy production tr(sigma (D_t - D)) at time t, as a vdot: sigma is symmetric."""
    sig = sigma_matrix(model).matrix
    fp = flow_point(model, t)
    return float(np.vdot(sig, fp.covariance_t - model.covariance))


def relative_entropy(pair):
    """Relative entropy of the d2-Gaussian w.r.t. the d1-Gaussian.

    Equals 0.5*tr(D1 T (I + D1 T)^-1) - 0.5*logdet(I + D1 T); always <= 0,
    zero iff d1 = d2.  Evaluated from the eigenvalues lambda of the symmetric
    pencil K = D1^{1/2} T D1^{1/2} as 0.5*sum(lambda/(1 + lambda) - log1p(lambda)).
    """
    d1sq = spd_sqrt(np.asarray(pair.d1, dtype=float))
    lam = np.linalg.eigvalsh(symmetrize(d1sq @ pair.rel_T @ d1sq))
    if not lam[0] > -1.0:
        raise np.linalg.LinAlgError("I + D1^(1/2) T D1^(1/2) is not positive definite")
    return _relative_entropy(lam)


def _relative_entropy(lam):
    """0.5*sum(lambda/(1 + lambda) - log1p(lambda)) over the spectrum of K."""
    return 0.5 * float(np.sum(lam / (1.0 + lam) - np.log1p(lam)))


@dataclass(frozen=True)
class SigmaIntegral:
    """B_t = int_0^t e^{sL'} sigma e^{sL} ds and the offset t * tr(D sigma) = t * tr L."""

    time: float
    matrix: np.ndarray
    offset: float                 # zero under time reversal


def sigma_integral_matrix(model, t):
    """B_t = 1/2 (e^{tL'} D^-1 e^{tL} - D^-1) = 1/2 T_{-t}; for t < 0 the oriented integral.

    Read in the mode frame as 1/2 B^-T (R_t'hR_t - h) B^-1, summed from the
    increment F = R_t - I as 1/2 B^-T (F'h + hF + F'hF) B^-1, which keeps its
    digits at small |t|.
    """
    t = float(t)
    frame = mode_frame(model)
    b = frame.home(frame.change(t))
    b *= 0.5
    return SigmaIntegral(time=t, matrix=b, offset=t * float(np.trace(model.generator)))


def entropy_balance_defect(model, t):
    """|Ent(D_t | D) + int_0^t tr(sigma (D_s - D)) ds|, an exact identity of the flow.

    The integral is tr(D B_t) - t tr(D sigma), since tr(sigma D_s) equals
    tr(e^{sL'} sigma e^{sL} D); as B_t = 1/2 T_{-t}, the identity links the
    flow points at t and -t, and the defect is roundoff.
    """
    b = sigma_integral_matrix(model, t)
    ent = _relative_entropy(flow_point(model, t).spectrum)  # Ent(D_t | D) from the spectrum of K_t
    return abs(ent + float(np.sum(model.covariance * b.matrix)) - b.offset)


FLOW_SCAN_COLUMNS = ("t", "trace_Dt", "lambda_min_Dt", "lambda_max_Dt", "mean_sigma", "ent_balance_defect")


def flow_scan(model, times):
    """Rows of flow diagnostics over a list of times (see FLOW_SCAN_COLUMNS).

    Each row reads the flow point at t and its D_t; its balance defect adds
    B_t, one more change of the mode frame.
    """
    rows = []
    for t in times:
        t = float(t)
        cov_t = flow_point(model, t).covariance_t
        w = np.linalg.eigvalsh(cov_t)
        rows.append(
            (
                t,
                float(np.trace(cov_t)),
                float(w[0]),
                float(w[-1]),
                mean_entropy_production(model, t),
                entropy_balance_defect(model, t),
            )
        )
    return rows


def write_flow_csv(path, rows):
    with open(path, "w") as fh:
        fh.write(",".join(FLOW_SCAN_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join("%.17g" % v for v in row) + "\n")
