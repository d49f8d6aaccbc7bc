"""Shared dense linear algebra helpers.

Everything here operates on plain float64 numpy arrays and returns new
arrays; inputs are never modified.
"""

import math

import numpy as np
import scipy.linalg as sla

# Refuse propagators past this value of |t| * ||L||; the scaling-and-squaring
# error bound degrades and downstream group-law checks become meaningless.
EXPM_HORIZON_LIMIT = 1.0e4


class AccuracyError(RuntimeError):
    """A numerical accuracy contract cannot be met (e.g. horizon too long)."""


def generator_norm_bound(generator):
    """Cheap upper bound for the spectral norm: sqrt(||A||_1 * ||A||_inf)."""
    a = np.abs(generator)
    return float(np.sqrt(a.sum(axis=0).max() * a.sum(axis=1).max()))


def _connected_components(generator):
    """Index groups of the sparsity graph of generator + generator'."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    adj = csr_matrix((np.abs(generator) + np.abs(generator.T)) > 0.0)
    count, labels = connected_components(adj, directed=False)
    if count == 1:
        return None
    return [np.flatnonzero(labels == c) for c in range(count)]


def propagator(generator, t):
    """exp(t * generator) by scaling-and-squaring with diagonal Pade order 13.

    scipy.linalg.expm implements exactly this scheme; accuracy is close to
    machine precision for the horizons admitted here.  Generators whose
    sparsity graph splits into several connected components are exponentiated
    per block (an exact identity that avoids cubing the full dimension).
    """
    if abs(t) * generator_norm_bound(generator) > EXPM_HORIZON_LIMIT:
        raise AccuracyError(
            f"|t|*||L|| = {abs(t) * generator_norm_bound(generator):.3g} exceeds "
            f"{EXPM_HORIZON_LIMIT:.0e}; use a smaller horizon"
        )
    if t == 0.0:
        return np.eye(generator.shape[0])
    groups = _connected_components(generator) if generator.shape[0] >= 256 else None
    if groups is None:
        return sla.expm(t * generator)
    out = np.zeros_like(generator)
    for idx in groups:
        if idx.size == 1:
            out[idx[0], idx[0]] = np.exp(t * generator[idx[0], idx[0]])
        else:
            out[np.ix_(idx, idx)] = sla.expm(t * generator[np.ix_(idx, idx)])
    return out


def symmetrize(a):
    return 0.5 * (a + a.T)


def spd_cholesky(mat):
    """Lower Cholesky factor; LinAlgError if mat is not positive definite."""
    return np.linalg.cholesky(mat)


def spd_inverse(mat):
    """Inverse of an SPD matrix through its Cholesky factorization."""
    c, low = sla.cho_factor(mat, lower=True, check_finite=False)
    inv = sla.cho_solve((c, low), np.eye(mat.shape[0]), check_finite=False)
    return symmetrize(inv)


def spd_sqrt(mat):
    """Symmetric square root of an SPD matrix via eigendecomposition."""
    n = mat.shape[0]
    if np.array_equal(mat, np.eye(n)):
        return np.eye(n)
    w, v = np.linalg.eigh(mat)
    if w[0] <= 0.0:
        raise np.linalg.LinAlgError(
            f"matrix not positive definite (lambda_min = {w[0]:.3e})"
        )
    return symmetrize((v * np.sqrt(w)) @ v.T)


def try_chol_logdet(mat, pivot_floor_rel=1e-13):
    """Attempt a Cholesky factorization; return (ok, logdet).

    ok is False when the factorization fails or any squared pivot falls below
    pivot_floor_rel times the max-abs entry of mat.  logdet is None in that
    case.  The pivot floor keeps barely-positive pencils from being counted
    as interior points of a positivity domain.
    """
    try:
        c = sla.cholesky(mat, lower=True, check_finite=False)
    except np.linalg.LinAlgError:
        return False, None
    except sla.LinAlgError:
        return False, None
    piv = np.diagonal(c)
    floor = pivot_floor_rel * max(np.abs(mat).max(), 1e-300)
    if (piv * piv).min() < floor:
        return False, None
    return True, 2.0 * float(np.sum(np.log(piv)))


# The modal route carries Q into the eigenbasis and back through V and V^-1,
# which costs about kappa(V)^2 * eps of relative accuracy: below 1e-9 here.
# The shipped toys and chains measure 27 to 585 (1-norm product, dim <= 1024).
MODAL_KAPPA_LIMIT = 1.0e3


def finite_gramian(generator, q, times):
    """G(t) = int_0^t e^{sA'} Q e^{sA} ds for each t in times (oriented for t < 0).

    With A = V Lambda V^-1, G(t) = V^-T [(V' Q V) o K_t] V^-1 where
    K_jk = expm1(z_jk t)/z_jk, z_jk = lambda_j + lambda_k (K_jk = t at z = 0):
    one eigendecomposition serves every time.  A defective or badly
    conditioned eigenbasis falls back to Van Loan's block exponential
    (IEEE TAC 23(3), 1978, Thm 1), once per time.
    """
    times = [float(t) for t in times]
    reach = max((abs(t) for t in times), default=0.0) * generator_norm_bound(generator)
    if reach > EXPM_HORIZON_LIMIT:
        raise AccuracyError(
            f"|t|*||L|| = {reach:.3g} exceeds {EXPM_HORIZON_LIMIT:.0e}; use a smaller horizon"
        )
    basis = _eigenbasis(generator)
    if basis is None:
        return [_van_loan_gramian(generator, q, t) for t in times]
    lam, v, v_inv = basis
    m = v.T @ q @ v
    z = lam[:, None] + lam[None, :]
    zero = z == 0.0
    z_safe = np.where(zero, 1.0, z)
    out = []
    for t in times:
        k = np.expm1(z * t) / z_safe
        k[zero] = t
        k *= m
        out.append(symmetrize((v_inv.T @ k @ v_inv).real))
    return out


def _eigenbasis(generator):
    """(Lambda, V, V^-1) of the generator, or None when kappa(V) exceeds the gate."""
    try:
        lam, v = np.linalg.eig(generator)
        v_inv = np.linalg.inv(v)
    except np.linalg.LinAlgError:
        return None
    kappa = np.abs(v).sum(axis=0).max() * np.abs(v_inv).sum(axis=0).max()
    if not kappa <= MODAL_KAPPA_LIMIT:
        return None
    return lam, v, v_inv


def _van_loan_gramian(generator, q, t):
    """G(t) by Van Loan at tau = t/2^k, where |tau|*||A|| < 1, then k doublings.

    At tau, F = expm([[-A', Q], [0, A]] tau) gives G(tau) = F22' F12 and
    e^{tau A} = F22; each doubling is G(2s) = G(s) + e^{sA'} G(s) e^{sA}.
    One expm at t itself loses the digits that e^{-tA'} gains: on the
    Jordan block [[-1, 1], [0, -1]] its Lyapunov residual is 3e-7 at t = 10
    and exceeds G itself at t = 40, while the doublings stay at roundoff.
    """
    n = generator.shape[0]
    k = max(0, math.frexp(abs(t) * generator_norm_bound(generator))[1])
    block = np.zeros((2 * n, 2 * n))
    block[:n, :n] = -generator.T
    block[:n, n:] = q
    block[n:, n:] = generator
    f = sla.expm(math.ldexp(t, -k) * block)
    e = f[n:, n:]
    g = symmetrize(e.T @ f[:n, n:])
    for _ in range(k):
        g = symmetrize(g + e.T @ g @ e)
        e = e @ e
    return g


def parse_grid(text):
    """Parse a 'lo:hi:n' grid specification into a strictly increasing array."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must look like lo:hi:n, got {text!r}")
    lo, hi, num = float(parts[0]), float(parts[1]), int(parts[2])
    if num < 1 or (num > 1 and hi <= lo):
        raise ValueError(f"grid {text!r} is empty or not strictly increasing")
    return np.linspace(lo, hi, num)
