"""Covariance flow, Radon-Nikodym log-density and Gaussian relative entropy.

The central objects are the flow points (t, e^{tL}, D_t, T_t) with
T_t = D_t^-1 - D^-1.  Log-determinants go through Cholesky factorizations
of symmetric positive definite pencils, and a failed Cholesky raises: for a
flow point, whose pencil I + K_t is positive by construction, it means an
inaccurate matrix exponential.  No domain is decided here; renyi reads the
finite-time domains from the spectrum of whitened_T.
"""

import weakref
from dataclasses import dataclass

import numpy as np

from ._linalg import (
    AccuracyError,
    propagator,
    simpson_weights,
    spd_inverse,
    symmetrize,
    try_chol_logdet,
)
from .model import Model, covariance_inverse, covariance_sqrt, sigma_matrix


@dataclass(frozen=True, eq=False)
class FlowPoint:
    """Propagator, flowed covariance and relative operator at one time.

    whitened_T is D^{1/2} T_t D^{1/2}; its spectrum encodes the finite-time
    positivity domain.  logdet_term is 0.5*logdet(I + D T_t), which vanishes
    identically for time-reversal invariant models (det D_t = det D).
    """

    time: float
    propagator: np.ndarray
    covariance_t: np.ndarray
    relative_T: np.ndarray
    whitened_T: np.ndarray
    logdet_term: float


@dataclass(frozen=True)
class GaussianPair:
    """Two SPD covariances and their relative operator T = d2^-1 - d1^-1."""

    d1: np.ndarray
    d2: np.ndarray
    rel_T: np.ndarray = None

    def __post_init__(self):
        t = spd_inverse(np.asarray(self.d2, float)) - spd_inverse(np.asarray(self.d1, float))
        object.__setattr__(self, "rel_T", symmetrize(t))


# FlowPoint cache: per model, keyed by exact-bit time.  Values are immutable
# once inserted and dict updates are atomic, so concurrent readers are fine.
_flow_cache: "weakref.WeakKeyDictionary[Model, dict]" = weakref.WeakKeyDictionary()


def flow_point(model, t, cache=True):
    """Compute (or fetch) the flow point of a model at time t."""
    t = float(t)
    per_model = _flow_cache.get(model)
    if per_model is None:
        per_model = {}
        _flow_cache[model] = per_model
    if cache and t in per_model:
        return per_model[t]

    e = propagator(model.generator, t)
    cov_t = symmetrize(e @ model.covariance @ e.T)
    rel = symmetrize(spd_inverse(cov_t) - covariance_inverse(model))
    dsq = covariance_sqrt(model)
    k = symmetrize(dsq @ rel @ dsq)
    ok, logdet = try_chol_logdet(np.eye(model.dim) + k)
    if not ok:
        # impossible for a genuine flow pair: I + K_t = D^{1/2} D_t^-1 D^{1/2} > 0
        raise AccuracyError(
            f"I + D^(1/2) T_t D^(1/2) failed Cholesky at t={t}; matrix exponential inaccurate"
        )
    fp = FlowPoint(
        time=t,
        propagator=e,
        covariance_t=cov_t,
        relative_T=rel,
        whitened_T=k,
        logdet_term=0.5 * logdet,
    )
    if cache:
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
    e_minus_t = flow_point(model, -t).propagator
    pulled = e_minus_t.T @ fp_s.relative_T @ e_minus_t
    return float(np.abs(fp_ts.relative_T - fp_t.relative_T - pulled).max())


def log_density(model, t, x):
    """Log-density ell(x) = 0.5*logdet(I + D T_t) - 0.5*(x, T_t x)."""
    fp = flow_point(model, t)
    x = np.asarray(x, dtype=float)
    return fp.logdet_term - 0.5 * float(x @ (fp.relative_T @ x))


def mean_entropy_production(model, t):
    """Mean entropy production tr(sigma (D_t - D)) at time t."""
    sig = sigma_matrix(model).matrix
    fp = flow_point(model, t)
    return float(np.trace(sig @ (fp.covariance_t - model.covariance)))


def relative_entropy(pair):
    """Relative entropy of the d2-Gaussian w.r.t. the d1-Gaussian.

    Equals 0.5*tr(D1 T (I + D1 T)^-1) - 0.5*logdet(I + D1 T); always <= 0,
    zero iff d1 = d2.  Evaluated through the symmetric pencil
    I + K = D1^{1/2} d2^-1 D1^{1/2} for stability.
    """
    d1 = np.asarray(pair.d1, dtype=float)
    d1sq = _pair_sqrt(d1)
    k = symmetrize(d1sq @ pair.rel_T @ d1sq)
    eye = np.eye(d1.shape[0])
    ok, logdet = try_chol_logdet(eye + k)
    if not ok:
        raise np.linalg.LinAlgError("I + D1^(1/2) T D1^(1/2) is not positive definite")
    trace_term = float(np.trace(np.linalg.solve(eye + k, k)))
    return 0.5 * trace_term - 0.5 * logdet


def _pair_sqrt(d1):
    w, v = np.linalg.eigh(d1)
    return symmetrize((v * np.sqrt(np.clip(w, 0.0, None))) @ v.T)


def entropy_balance_defect(model, t, quad_steps):
    """|Ent(D_t | D) + integral_0^t tr(sigma (D_s - D)) ds| with Simpson quadrature.

    Exact identity of the flow; the defect isolates quadrature error.
    """
    if quad_steps < 8 or quad_steps % 2 != 0:
        raise ValueError("quad_steps must be an even integer >= 8")
    fp = flow_point(model, t)
    ent = relative_entropy(GaussianPair(d1=model.covariance, d2=fp.covariance_t))
    sig = sigma_matrix(model).matrix
    h = t / quad_steps
    w = simpson_weights(quad_steps)
    step = propagator(model.generator, h)
    d_s = model.covariance.copy()
    total = 0.0
    for k in range(quad_steps + 1):
        total += w[k] * float(np.trace(sig @ (d_s - model.covariance)))
        if k < quad_steps:
            d_s = step @ d_s @ step.T
    integral = h * total
    return abs(ent + integral)


FLOW_SCAN_COLUMNS = ("t", "trace_Dt", "lambda_min_Dt", "lambda_max_Dt", "mean_sigma", "ent_balance_defect")


def flow_scan(model, times, quad_steps=64):
    """Rows of flow diagnostics over a list of times (see FLOW_SCAN_COLUMNS)."""
    rows = []
    for t in times:
        fp = flow_point(model, float(t))
        w = np.linalg.eigvalsh(fp.covariance_t)
        rows.append(
            (
                float(t),
                float(np.trace(fp.covariance_t)),
                float(w[0]),
                float(w[-1]),
                mean_entropy_production(model, float(t)),
                entropy_balance_defect(model, float(t), quad_steps) if t != 0 else 0.0,
            )
        )
    return rows


def write_flow_csv(path, rows):
    with open(path, "w") as fh:
        fh.write(",".join(FLOW_SCAN_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join("%.17g" % v for v in row) + "\n")
