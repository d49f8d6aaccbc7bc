"""Limiting covariances, steady entropy production, Q operator and atom measure.

Finite truncations never converge strongly, so the stationary covariances
are estimated by Cesaro averaging of D_t over the second half of a horizon,
with a plateau residual as the quality diagnostic.  The limiting functional
e(alpha) is assembled from the spectral data of
Q = D-^{1/2} (D-^{-1} - D+^{-1}) D-^{1/2} weighted by the entropy production
matrix, and is represented as the logarithmic potential of a finite signed
atom measure.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from ._linalg import AccuracyError, propagator, spd_inverse, spd_sqrt, symmetrize
from .renyi import EntropicFunctional


class PlateauError(RuntimeError):
    """Cesaro average did not settle within the requested tolerance."""

    def __init__(self, residual, tol):
        super().__init__(
            f"plateau residual {residual:.3e} exceeds tolerance {tol:.3e}; "
            "the model may violate the strong-limit hypothesis at this truncation"
        )
        self.residual = residual


@dataclass(frozen=True)
class LimitCovariances:
    """Estimated stationary covariances and their quality diagnostics."""

    d_plus: np.ndarray
    d_minus: np.ndarray
    window: tuple                 # (T1, T2) averaging window
    plateau_residual: float       # max-abs drift of the Cesaro average, last half-window
    stationarity_defect: float    # max-abs of L D+ + D+ L'


@dataclass(frozen=True)
class QOperator:
    """Q = D-^{1/2}(D-^{-1} - D+^{-1})D-^{1/2} with its eigendecomposition."""

    matrix: np.ndarray
    spectrum: np.ndarray          # ascending eigenvalues
    weights_root: np.ndarray      # D-^{1/2}
    eigenvectors: np.ndarray


@dataclass(frozen=True)
class AtomMeasure:
    """Finite signed measure: atoms (location, weight) plus discarded mass."""

    atoms: list
    dropped_mass: float
    notes: list = field(default_factory=list)


def estimate_limit_covariance(model, horizon, tol=math.inf, grid_points=64, minus_mode="auto"):
    """Cesaro-average D_t over [horizon/2, horizon] on a uniform grid.

    minus_mode selects how the negative-time limit is produced: 'theta'
    conjugates the positive-time estimate by the time reversal, 'estimate'
    averages over negative times, 'auto' uses theta when available.  The
    result is symmetrized and eigenvalue-floored at half the smallest D_t
    eigenvalue seen on the grid.  Raises PlateauError when the averaged
    matrix still drifts by more than tol over the last half-window.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if grid_points < 64:
        raise ValueError("use at least 64 grid points for the Cesaro average")
    mode = minus_mode
    if mode == "auto":
        mode = "theta" if model.time_reversal is not None else "estimate"
    if mode == "theta" and model.time_reversal is None:
        raise ValueError("minus_mode='theta' needs a model with a time reversal")

    d_plus, residual, m_est = _cesaro(model, horizon, grid_points)
    if residual > tol:
        raise PlateauError(residual, tol)
    d_plus = _floor_spd(d_plus, m_est / 2.0)

    if mode == "theta":
        th = model.time_reversal
        d_minus = symmetrize(th @ d_plus @ th)
    else:
        d_minus, res_m, m_est_m = _cesaro(model, -horizon, grid_points)
        if res_m > tol:
            raise PlateauError(res_m, tol)
        d_minus = _floor_spd(d_minus, m_est_m / 2.0)
        residual = max(residual, res_m)

    gen = model.generator
    stationarity = float(np.abs(gen @ d_plus + d_plus @ gen.T).max())
    return LimitCovariances(
        d_plus=d_plus,
        d_minus=d_minus,
        window=(horizon / 2.0, horizon),
        plateau_residual=residual,
        stationarity_defect=stationarity,
    )


def _cesaro(model, horizon, grid_points, checkpoints=8):
    """Running Cesaro average of D_t on a uniform grid over [h/2, h].

    The plateau residual is the max-abs distance between the final average
    and the running average sampled at `checkpoints` positions in the last
    half of the window.
    """
    step = (horizon / 2.0) / grid_points
    e_step = propagator(model.generator, step)
    e_half = propagator(model.generator, horizon / 2.0)
    d_k = e_half @ model.covariance @ e_half.T
    acc = np.zeros_like(model.covariance)
    snap_at = {grid_points // 2 + k * max(1, grid_points // (2 * checkpoints)) for k in range(checkpoints)}
    snapshots = []
    m_est = math.inf
    for k in range(grid_points):
        acc += d_k
        if k == 0 or (k + 1) in snap_at:
            # spectral floor estimate sampled sparsely; it only guards the
            # final SPD projection and need not be tight
            m_est = min(m_est, float(np.linalg.eigvalsh(symmetrize(d_k))[0]))
        if (k + 1) in snap_at:
            snapshots.append(acc / (k + 1))
        if k + 1 < grid_points:
            d_k = e_step @ d_k @ e_step.T
    final = acc / grid_points
    residual = max((float(np.abs(s - final).max()) for s in snapshots), default=0.0)
    return symmetrize(final), residual, m_est


def _floor_spd(mat, floor):
    w, v = np.linalg.eigh(mat)
    if w[0] >= floor:
        return mat
    w = np.clip(w, floor, None)
    return symmetrize((v * w) @ v.T)


def steady_entropy_production(sigma, d_ref, d_plus, d_minus=None, antisym_rtol=1e-6):
    """Steady entropy production tr(sigma (D+ - D)).

    When d_minus is supplied, the negative-time value tr(sigma (D- - D)) is
    computed as well and the antisymmetry omega+ = -omega- is asserted to
    antisym_rtol (relative); time-reversal invariant models satisfy it
    exactly when D- is the theta conjugate of D+.
    """
    s = sigma.matrix
    omega_plus = float(np.trace(s @ (d_plus - d_ref)))
    if d_minus is not None:
        omega_minus = float(np.trace(s @ (d_minus - d_ref)))
        scale = max(abs(omega_plus), abs(omega_minus), 1e-300)
        if abs(omega_plus + omega_minus) > antisym_rtol * scale:
            raise AccuracyError(
                f"omega+ = {omega_plus:.6e} and omega- = {omega_minus:.6e} "
                "are not antisymmetric to tolerance"
            )
    return omega_plus


def q_operator(lims):
    """Assemble Q from the limit covariances, with a full eigendecomposition."""
    d_minus_sqrt = spd_sqrt(lims.d_minus)
    q = d_minus_sqrt @ (spd_inverse(lims.d_minus) - spd_inverse(lims.d_plus)) @ d_minus_sqrt
    q = symmetrize(q)
    spectrum, vectors = np.linalg.eigh(q)
    return QOperator(matrix=q, spectrum=spectrum, weights_root=d_minus_sqrt, eigenvectors=vectors)


def q_bounds_defect(q, delta_bar):
    """How far spec(Q) leaves [-1/delta_bar, 1/(1+delta_bar)]; 0 when inside.

    delta_bar should be the largest delta_t sampled at late times (the
    finite surrogate of the limsup).
    """
    lo = -1.0 / delta_bar if delta_bar > 0 else -math.inf
    hi = 1.0 / (1.0 + delta_bar)
    return max(0.0, lo - float(q.spectrum[0]), float(q.spectrum[-1]) - hi)


def _mode_weights(q, sigma):
    """Diagonal of V' (D-^{1/2} sigma D-^{1/2}) V in the eigenbasis of Q."""
    w = q.weights_root @ sigma.matrix @ q.weights_root
    return np.einsum("ij,ij->j", q.eigenvectors, w @ q.eigenvectors)


def limit_functional(q, sigma):
    """e(alpha) = -alpha tr(g(alpha Q) D-^{1/2} sigma D-^{1/2}), g(z) = log(1-z)/z.

    In the eigenbasis of Q this is the log-potential with atoms q_k = spec(Q)
    and masses w_k = m_k/q_k, m the mode weights; modes with q_k == 0
    contribute alpha*m_k and are folded into c.  Meta 'asymptotic'.
    """
    m = _mode_weights(q, sigma)
    zero = q.spectrum == 0.0
    atoms = q.spectrum[~zero]
    return EntropicFunctional(c=float(m[zero].sum()), q=atoms, w=m[~zero] / atoms, meta="asymptotic")


def e_limit_identity_defect(q, sigma, d_ref, d_minus, alpha):
    """|e(alpha) - alpha tr((alpha D^-1 + (1-alpha) D-^-1)^-1 sigma)|.

    An exact identity when the limit covariances are exact; with estimated
    limits it degrades to the estimation accuracy.
    """
    blend = symmetrize(alpha * spd_inverse(d_ref) + (1.0 - alpha) * spd_inverse(d_minus))
    w = np.linalg.eigvalsh(blend)
    if w[0] <= 0.0:
        return math.inf
    rhs = alpha * float(np.trace(spd_inverse(blend) @ sigma.matrix))
    return abs(limit_functional(q, sigma)(alpha) - rhs)


def spectral_measure_nu(q, sigma, q_floor=1e-8, cluster_tol=1e-6):
    """Signed atom measure representing e(alpha) = -sum w_k log(1 - alpha/r_k).

    The atoms of limit_functional with |q_k| >= q_floor are kept at
    r_k = 1/q_k with weight w_k; the others contribute |m_k| = |w_k q_k|
    (and the folded q_k == 0 term |c|) to the dropped mass: their atoms sit at
    r ~ +-inf and contribute O(alpha * mass * q_floor) to the potential.
    Runs of kept q_k of one sign within cluster_tol are merged with summed
    weights, so every atom has |r| <= 1/q_floor.
    """
    if q_floor <= 0.0:
        raise ValueError("q_floor must be positive")
    efn = limit_functional(q, sigma)
    m = efn.w * efn.q
    keep = np.abs(efn.q) >= q_floor
    dropped = float(np.abs(m[~keep]).sum()) + abs(efn.c)

    atoms = []
    qs = efn.q[keep]
    ms = m[keep]
    ws = efn.w[keep]
    if qs.size:
        start = 0
        for k in range(1, qs.size + 1):
            if k == qs.size or qs[k] - qs[k - 1] > cluster_tol or (qs[k] > 0.0) != (qs[k - 1] > 0.0):
                q_cluster = qs[start:k]
                abs_m = np.abs(ms[start:k])
                q_bar = float((q_cluster * abs_m).sum() / abs_m.sum()) if abs_m.sum() > 0 else float(q_cluster.mean())
                atoms.append((1.0 / q_bar, float(ws[start:k].sum())))
                start = k
    atoms.sort(key=lambda rw: rw[0])

    notes = []
    sig_eigs = np.linalg.eigvalsh(sigma.matrix)
    trace_norm = float(np.abs(sig_eigs).sum())
    if dropped > 1e-6 * trace_norm:
        notes.append(
            f"dropped mass {dropped:.3e} exceeds 1e-6 * trace-norm(sigma) = {1e-6 * trace_norm:.3e}"
        )
    return AtomMeasure(atoms=atoms, dropped_mass=dropped, notes=notes)


def delta_series(model, times):
    """Sampled (t, delta_t) series; running extremes are the caller's business."""
    from .renyi import domain_interval

    return [(float(t), domain_interval(model, float(t)).delta_t) for t in times]
