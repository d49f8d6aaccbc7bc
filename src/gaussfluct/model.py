"""Model triple (generator, covariance, time reversal) and its structure checks.

The covariance flow D_t = e^{tL} D e^{tL'} preserves Gaussian measures; all
entropic functionals of the toolkit are computed from the triple defined
here.  Structural defects (shape mismatches, non-SPD covariances) raise;
failures of the dynamical hypotheses (spectral bounds, time-reversal
relations) are reported as data by ``validate_model``, never raised, since
exploring models that violate them is legitimate use.
"""

import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from ._linalg import frame_map, frame_maps, frozen, spd_inverse, symmetrize, turner

SYMMETRY_RTOL = 1e-12       # relative max-abs symmetry defect allowed for D
THETA_ATOL = 1e-10          # max-abs tolerance on the time-reversal relations


class StructuralError(ValueError):
    """Shapes or values structurally inconsistent with a model triple."""


class SingularCovarianceError(StructuralError):
    """Covariance not positive definite."""


class DomainError(ValueError):
    """An operation was asked for outside its mathematical domain."""


def checked_square(a, dim, name):
    """a as a float array, after refusing a shape other than dim x dim or a non-finite entry."""
    m = np.asarray(a, dtype=float)
    if m.shape != (dim, dim):
        raise StructuralError(f"{name} must be {dim}x{dim}, got {m.shape}")
    if not np.isfinite(m).all():
        raise StructuralError(f"{name} contains non-finite entries")
    return m


@dataclass(frozen=True, eq=False)
class Model:
    """Immutable model triple on an n-dimensional state space.

    generator drives the linear flow, covariance is the reference Gaussian
    covariance, time_reversal is an optional orthogonal involution.  The
    time-reversal relations are hypotheses, not construction invariants;
    see ``validate_model``.
    """

    dim: int
    generator: np.ndarray
    covariance: np.ndarray
    time_reversal: np.ndarray | None = None
    label: str = ""

    def __post_init__(self):
        if self.dim <= 0:
            raise StructuralError(f"dim must be positive, got {self.dim}")
        object.__setattr__(self, "generator",
                           frozen(checked_square(self.generator, self.dim, "generator")))
        cov = frozen(checked_square(self.covariance, self.dim, "covariance"))
        scale = max(np.abs(cov).max(), 1e-300)
        if np.abs(cov - cov.T).max() > SYMMETRY_RTOL * scale:
            raise StructuralError("covariance is not symmetric to 1e-12 relative")
        try:
            np.linalg.cholesky(np.asarray(cov))
        except np.linalg.LinAlgError:
            raise SingularCovarianceError("covariance has a non-positive Cholesky pivot")
        object.__setattr__(self, "covariance", cov)
        if self.time_reversal is not None:
            object.__setattr__(
                self, "time_reversal",
                frozen(checked_square(self.time_reversal, self.dim, "time_reversal"))
            )


# Derived per-model data, computed once and shared.  Models are immutable,
# so caching by object identity is safe; WeakKeyDictionary keeps the cache
# from pinning dead models.
_derived: "weakref.WeakKeyDictionary[Model, dict]" = weakref.WeakKeyDictionary()


def _cache(model):
    d = _derived.get(model)
    if d is None:
        d = {}
        _derived[model] = d
    return d


def covariance_inverse(model):
    d = _cache(model)
    if "Dinv" not in d:
        d["Dinv"] = spd_inverse(model.covariance)
    return d["Dinv"]


def covariance_roots(model):
    """(D^{1/2}, D^{-1/2}), both from one eigendecomposition D = V diag(w) V'.

    Each is U U' with U = V diag(w^{+-1/4}); numpy forms a product with its
    own transpose by syrk, so both come out exactly symmetric.  Not cached:
    mode_frame keeps what it reads of them.
    """
    w, v = np.linalg.eigh(model.covariance)
    if w[0] <= 0.0:
        raise SingularCovarianceError(f"covariance has lambda_min = {w[0]:.3e}")
    quarter = w ** 0.25
    return tuple(u @ u.T for u in (v * quarter, v / quarter))


@dataclass(frozen=True, eq=False)
class ModeFrame:
    """A model's flow in the mode frame of its generator: e^{tL} = B R_t B^-1.

    B = O S^-1 is read through _linalg.frame_map from the blocks of frame_maps,
    which alias the cached bases (none: B = I), and R_t turns the rows of a
    matrix in O(n) per column on rotation blocks (_linalg.turner).  The
    constant ends are multiplied once: p = D^{-1/2} B = (B'D^{-1/2})',
    q = B^-1 D^{1/2} and h = p'p, so D^{-1/2} e^{tL} D^{1/2} = p R_t q; these
    three are the frame's only n x n arrays.  It holds the model's generator
    array, not the model.
    """

    generator: np.ndarray
    blocks: list
    p: np.ndarray
    q: np.ndarray
    h: np.ndarray

    @property
    def orthogonal(self):
        """B^-1 = B': no block has a scale."""
        return all(s is None for _, _, s in self.blocks)

    def turn(self, t, z, increment=False):
        """R_t z (R_t - I with increment) for the rows z of the frame."""
        return turner(self.generator, t, increment)(z)

    def flowed_root(self, t):
        """Y = e^{tL} D^{1/2} = B R_t q, so that D_t = Y Y'."""
        return frame_map(self.blocks, self.turn(t, self.q))

    def change(self, t):
        """R_t' h R_t - h = F'hF + hF + F'h with F = R_t - I, summed as (K + h)F + K for K = F'h.

        B^-T of it B^-1 is e^{tL'} D^-1 e^{tL} - D^-1 = T_{-t} = 2 B_t.  On
        rotation blocks it costs O(n^2), with -2 sin^2 in F so that it keeps
        its digits at small |t|.  It is symmetric up to roundoff: eigvalsh
        reads one triangle, and home symmetrizes.
        """
        turn = turner(self.generator, t, increment=True)
        k = turn(self.h, transpose=True)
        out = turn((k + self.h).T, transpose=True).T
        out += k
        return out

    def home(self, x):
        """B^-T x B^-1 = (B^-T (B^-T x)')', symmetrized: a form on mode coordinates, read in the model's."""
        y = frame_map(self.blocks, x, inverse=True, transpose=True)
        return symmetrize(frame_map(self.blocks, y.T, inverse=True, transpose=True).T)


def mode_frame(model):
    """The model's ModeFrame, built on first use from covariance_roots and frame_maps, then kept."""
    d = _cache(model)
    if "frame" not in d:
        dsq, whitener = covariance_roots(model)
        blocks = frame_maps(model.generator)
        # p = (B'D^{-1/2})' in C order: p R_t q, a GEMM per flow point, is slower with a transposed p
        p = np.ascontiguousarray(frame_map(blocks, whitener, transpose=True).T)
        q = frame_map(blocks, dsq, inverse=True)
        d["frame"] = ModeFrame(generator=model.generator, blocks=blocks, p=p, q=q, h=p.T @ p)
    return d["frame"]


def theta_defects(model):
    """Max-abs defects of the four time-reversal relations, or None."""
    th = model.time_reversal
    if th is None:
        return None
    eye = np.eye(model.dim)
    return {
        "theta_squared": float(np.abs(th @ th - eye).max()),
        "theta_orthogonal": float(np.abs(th.T @ th - eye).max()),
        "anticommutes_generator": float(np.abs(th @ model.generator + model.generator @ th).max()),
        "commutes_covariance": float(np.abs(th @ model.covariance - model.covariance @ th).max()),
    }


@dataclass(frozen=True)
class HypothesisReport:
    """Outcome of the structural-hypothesis checks on a sampled time grid."""

    g4_ok: bool
    bounds: tuple      # (m_est, M_est), spectral bounds of D_t over the grid
    delta: float       # m_est / (M_est - m_est); inf when degenerate
    notes: list = field(default_factory=list)


@dataclass(frozen=True)
class SigmaMatrix:
    """Entropy production matrix 0.5*(L' D^-1 + D^-1 L) and tr(D sigma) = tr L."""

    matrix: np.ndarray
    trace_D_sigma: float


def validate_model(model, time_grid):
    """Check spectral bounds of D_t over time_grid and the theta relations.

    Hypothesis failures are reported in the result, never raised.  The grid
    must be nonempty and include t = 0.  spec(D_t) is read as the squared
    singular values of Y = e^{tL} D^{1/2} from the mode frame, eigvalsh(Y Y').
    """
    grid = [float(t) for t in time_grid]
    if not grid or not any(t == 0.0 for t in grid):
        raise ValueError("time_grid must be nonempty and include 0")
    notes = []
    m_est = math.inf
    M_est = -math.inf
    frame = mode_frame(model)
    for t in grid:
        y = frame.flowed_root(t)
        w = np.linalg.eigvalsh(y @ y.T)
        m_est = min(m_est, float(w[0]))
        M_est = max(M_est, float(w[-1]))
    if m_est <= 0.0:
        notes.append(f"lambda_min(D_t) = {m_est:.3e} is not positive on the grid")
    if M_est - m_est > 1e-12 * max(abs(M_est), 1.0):
        delta = m_est / (M_est - m_est)
    else:
        delta = math.inf
        notes.append("M_est = m_est on the grid; delta is undefined (reported as inf)")

    g4_ok = False
    defects = theta_defects(model)
    if defects is None:
        notes.append("no time_reversal supplied; time-reversal checks skipped")
    else:
        bad = {k: v for k, v in defects.items() if v > THETA_ATOL}
        g4_ok = not bad
        for k, v in bad.items():
            notes.append(f"time-reversal relation {k} fails: max-abs defect {v:.3e}")
        tr_l = abs(float(np.trace(model.generator)))
        if tr_l > THETA_ATOL:
            g4_ok = False
            notes.append(f"generator not traceless: |tr L| = {tr_l:.3e}")
    return HypothesisReport(g4_ok=g4_ok, bounds=(m_est, M_est), delta=delta, notes=notes)


def sigma_matrix(model):
    """Entropy production matrix 0.5*(L' D^-1 + D^-1 L), symmetrized."""
    d = _cache(model)
    if "sigma" not in d:
        dinv = covariance_inverse(model)
        s = 0.5 * (model.generator.T @ dinv + dinv @ model.generator)
        s = symmetrize(s)
        # tr(D sigma) = 1/2 tr(D L' D^-1 + L) = tr L exactly
        d["sigma"] = SigmaMatrix(matrix=s, trace_D_sigma=float(np.trace(model.generator)))
    return d["sigma"]


def perturb_reference(model, perturbation):
    """Replace the reference covariance D by (D^-1 + P)^-1.

    P must be symmetric and D^-1 + P positive definite; the generator and
    time reversal are untouched.  The perturbed sigma matrix then equals
    sigma + 0.5*(L'P + PL).
    """
    p = np.asarray(perturbation, dtype=float)
    if p.shape != (model.dim, model.dim):
        raise StructuralError(f"perturbation must be {model.dim}x{model.dim}, got {p.shape}")
    if np.abs(p - p.T).max() > 1e-10 * max(np.abs(p).max(), 1.0):
        raise StructuralError("perturbation must be symmetric")
    a = symmetrize(covariance_inverse(model) + p)
    w = np.linalg.eigvalsh(a)
    if w[0] <= 0.0:
        raise DomainError(
            f"D^-1 + P is not positive definite; most negative eigenvalue {w[0]:.6e}"
        )
    new_cov = spd_inverse(a)
    return Model(
        dim=model.dim,
        generator=model.generator,
        covariance=new_cov,
        time_reversal=model.time_reversal,
        label=(model.label + "+P") if model.label else "perturbed",
    )
