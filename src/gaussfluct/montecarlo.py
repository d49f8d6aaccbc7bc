"""Sampling of the Gaussian measures and empirical checks of the functionals.

Time-integrated entropy production is evaluated as a single quadratic form
(x, B_t x) per draw against the operator B_t = int_0^t e^{sL'} sigma e^{sL} ds
= 1/2 (e^{tL'} D^-1 e^{tL} - D^-1), read once per call from the mode frame
(flow.sigma_integral_matrix, no propagator), so a draw costs O(n^2).  Each
form W = C'MC (C the Cholesky factor of the sampling covariance) is folded
once into an upper triangle T with z'Tz = z'Wz, and T is cut into row panels
of PANEL rows.  A block Z of drawn rows then takes, per panel [p0, p1), one
product Z[:, p0:] T[p0:p1, p0:]' for all forms of a group at once and a row
dot with Z[:, p0:p1]: n^2/2 (1 + PANEL/n) multiply-adds per draw and form,
about half the work of a general product, all of it in numpy's BLAS.  A
single trajectory reads (x, B_t x) = 1/2 ((e^{tL} x)' D^-1 e^{tL} x -
x' D^-1 x), with e^{tL} x from the cached basis of each generator block
(propagator_apply), also O(n^2) per time and without building a flow point.

Reproducibility contract: draw i is generated from a counter-based stream
keyed by (seed, i) alone, chunks have a fixed size, and reductions combine
fixed-order per-chunk partials, so results are bit-identical for any worker
count.

Working set of one call, in floats, beside its inputs and outputs:
quad_form_samples with k forms keeps the Cholesky factor and the panels of
the k folds, n^2 + k n^2/2 (1 + PANEL/n), and per worker one block of
BLOCK_ROWS draws with its product, 2 BLOCK_ROWS n; while folding it holds
one M and its fold more, and trace_identity_report makes each M only when it
is folded.  propagated_sample_cov_defect keeps one n x n partial per chunk,
and per worker one block of BLOCK_ROWS draws with its image and their n x n
product.

The stream is Philox (Salmon et al., SC'11): one bit generator per call of
_draw_rows, keyed by the seed, whose counter is reset to i * 2**64 with an
empty buffer before row i is drawn. Row i therefore has exactly the bits of
a fresh Philox(key=seed, counter=i * 2**64) without the cost of building one.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._linalg import propagator, propagator_apply, symmetrize
from .model import DomainError, checked_square, covariance_inverse
from .flow import flow_point, sigma_integral_matrix
from .renyi import domain_interval

CHUNK = 4096                    # fixed chunk size; part of the determinism contract
BLOCK_ROWS = 1024               # draws per block: the block and its product stay in cache
PANEL = 64                      # rows of the upper triangle per product of the quadratic forms

MGF_DOMAIN_MARGIN = 0.05        # required relative distance of alpha from the J_t boundary


def _draw_rows(seed, start, stop, dim):
    """Standard normal rows for draws [start, stop); row i depends only on (seed, i)."""
    bg = np.random.Philox(key=int(seed) & ((1 << 128) - 1))
    gen = np.random.Generator(bg)
    state = bg.state
    state.update(buffer_pos=4, has_uint32=0)    # empty buffer, no cached uint32
    counter = state["state"]["counter"]         # 4 uint64 words, least significant first
    out = np.empty((stop - start, dim))
    for i in range(start, stop):
        counter[1] = i                          # counter = i * 2**64
        bg.state = state
        gen.standard_normal(out=out[i - start])
    return out


def _check_count(count, least):
    if count < least:
        raise ValueError(f"count = {count} is below the minimum of {least} draws")


def _sampling_cov(model, measure, d_plus):
    """The covariance a trajectory is drawn from: the model's, or d_plus checked against the model."""
    if measure not in ("reference", "ness"):
        raise ValueError("measure must be 'reference' or 'ness'")
    if measure == "reference":
        return model.covariance
    if d_plus is None:
        raise ValueError("measure='ness' needs the stationary covariance d_plus")
    return checked_square(d_plus, model.dim, "D+")


def _cov_factor(cov):
    """Lower Cholesky factor of a sampling covariance; DomainError unless it is SPD."""
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise DomainError("covariance is not positive definite") from None


def _chunks(count):
    return [(a, min(a + CHUNK, count)) for a in range(0, count, CHUNK)]


def _run_chunks(fn, count, workers):
    """Apply fn(start, stop, slot) over fixed chunks, possibly in parallel."""
    chunks = _chunks(count)
    if workers <= 1 or len(chunks) == 1:
        for slot, (a, b) in enumerate(chunks):
            fn(a, b, slot)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(fn, a, b, slot) for slot, (a, b) in enumerate(chunks)]
            for f in futures:
                f.result()
    return len(chunks)


def _triangular_fold(w):
    """S = W + W' with diag(S) = diag(W): either triangle T of S has z'Tz = z'Wz for any W."""
    s = w + w.T
    np.fill_diagonal(s, np.diagonal(w))
    return s


def _form_panels(chol, mats):
    """Panel edges and, per group of forms (j0, j1), the stacked panels G_p of the group.

    Each form W = C'MC is folded into S (_triangular_fold); its upper triangle
    T is cut into row panels [p0, p1) of PANEL rows, and panel p keeps
    T[p0:p1, p0:]' = tril(S[p0:, p0:p1]) (S is symmetric).  G_p holds these
    blocks of forms j0, ..., j1 - 1 side by side, in that order.  A group
    takes at most dim // PANEL forms, so that one product writes at most
    BLOCK_ROWS x dim floats.  Each M and each fold is released once cut.
    """
    dim = chol.shape[0]
    edges = [(p0, min(p0 + PANEL, dim)) for p0 in range(0, dim, PANEL)]
    pieces = [[] for _ in edges]    # pieces[p][j]: panel p of form j
    for m in mats:
        s = _triangular_fold(chol.T @ np.asarray(m, float) @ chol)
        del m    # so that the next M is made with this one freed
        for col, (p0, p1) in zip(pieces, edges):
            col.append(np.tril(s[p0:, p0:p1]))
        del s
    k, size = len(pieces[0]), max(1, dim // PANEL)
    groups = []
    for j0 in range(0, k, size):
        j1 = min(j0 + size, k)
        stacked = []
        for col in pieces:
            stacked.append(np.hstack(col[j0:j1]))
            col[j0:j1] = [None] * (j1 - j0)    # each piece is freed once stacked
        groups.append((j0, j1, stacked))
    return edges, groups


def _panel_forms(z, edges, groups, out, buf):
    """out[:, j] += z'T_j z for the rows z of one block, by one product per panel and group.

    buf is a flat work array of at least len(z) * dim floats for the products.
    """
    rows = len(z)
    for j0, j1, stacked in groups:
        for (p0, p1), g in zip(edges, stacked):
            y = np.matmul(z[:, p0:], g, out=buf[:rows * g.shape[1]].reshape(rows, -1))
            out[:, j0:j1] += np.einsum("rkw,rw->rk", y.reshape(rows, j1 - j0, p1 - p0),
                                       z[:, p0:p1])


def quad_form_samples(cov, mats, seed, count, workers=1):
    """Per-draw quadratic forms (x, M x) for x ~ N(0, cov), one column per M.

    Covariance factorization: x = C z with C the lower Cholesky factor, so
    (x, M x) = (z, C'MC z).  Each conjugated form W = C'MC is folded once
    into the triangle T_ij = W_ij + W_ji (i < j), T_ii = W_ii, so that
    z'Tz = z'Wz for any M, symmetric or not.  mats may be any iterable; each
    M is released once folded, and each fold once it is cut into panels of
    PANEL rows (_form_panels).  The draws of a chunk are made BLOCK_ROWS rows
    at a time; for each panel [p0, p1) and group of forms, a block Z takes
    one product Z[:, p0:] G_p in numpy's BLAS and a row dot with
    Z[:, p0:p1], n^2/2 (1 + PANEL/n) multiply-adds per draw and form.

    Working set, in floats, beside the inputs and the count x k output: the
    Cholesky factor and the panels, n^2 + k n^2/2 (1 + PANEL/n), and per
    worker one block of draws and its product, 2 BLOCK_ROWS n; while folding,
    one M, its fold and their product temporaries more.
    """
    _check_count(count, 1)
    cov = np.asarray(cov, dtype=float)
    chol = _cov_factor(cov)
    dim = cov.shape[0]
    edges, groups = _form_panels(chol, mats)
    if not groups:
        return np.zeros((count, 0))
    out = np.zeros((count, groups[-1][1]))

    def work(a, b, _slot):
        buf = np.empty(min(BLOCK_ROWS, b - a) * dim)
        for r in range(a, b, BLOCK_ROWS):
            z = _draw_rows(seed, r, min(r + BLOCK_ROWS, b), dim)
            _panel_forms(z, edges, groups, out[r:r + len(z)], buf)
            del z    # so that the next block is drawn with this one freed

    _run_chunks(work, count, workers)
    return out


@dataclass(frozen=True)
class SampleBatch:
    """Draws (optional) plus deterministic running statistics."""

    count: int
    seed: int
    draws: np.ndarray | None
    mean: np.ndarray
    variance: np.ndarray


def sample_gaussian(cov, seed, count, workers=1, keep_draws=True):
    """Draw `count` vectors from N(0, cov) with per-draw counter streams.

    Statistics are combined from fixed-order per-chunk partials with
    compensated summation, so they are bit-identical for any worker count.
    """
    _check_count(count, 1)
    cov = np.asarray(cov, dtype=float)
    chol = _cov_factor(cov)
    dim = cov.shape[0]
    draws = np.empty((count, dim)) if keep_draws else None
    nchunks = len(_chunks(count))
    part_sum = np.zeros((nchunks, dim))
    part_sumsq = np.zeros((nchunks, dim))

    def work(a, b, slot):
        x = _draw_rows(seed, a, b, dim) @ chol.T
        if draws is not None:
            draws[a:b] = x
        part_sum[slot] = x.sum(axis=0)
        part_sumsq[slot] = (x * x).sum(axis=0)

    _run_chunks(work, count, workers)
    total = _kahan_rows(part_sum)
    total_sq = _kahan_rows(part_sumsq)
    mean = total / count
    variance = np.maximum(total_sq / count - mean * mean, 0.0)
    return SampleBatch(count=count, seed=int(seed), draws=draws, mean=mean, variance=variance)


def _kahan_rows(rows):
    """Compensated fixed-order sum of the rows of a 2-D array."""
    total = np.zeros(rows.shape[1])
    comp = np.zeros(rows.shape[1])
    for row in rows:
        y = row - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


# ---------------------------------------------------------------------------
# time-integrated entropy production
# ---------------------------------------------------------------------------

def empirical_mgf(model, t, alpha, seed, count, workers=1, enforce_domain=True):
    """Monte Carlo estimate of log E_omega[exp(-alpha * int_0^t sigma_s ds)].

    Returns (estimate, std_error); the estimate should match e_t(alpha).
    alpha must sit strictly inside J_t with a 5% relative margin, since the
    integrand stops being integrable at the boundary; enforce_domain=False
    bypasses the check for deliberate boundary probes (the estimator then
    diverges with the sample count by design).  Exponents are max-shifted
    before exponentiation.
    """
    _check_count(count, 2)
    if enforce_domain:
        dom = domain_interval(model, t)
        if not dom.contains(alpha, margin=MGF_DOMAIN_MARGIN):
            raise DomainError(
                f"alpha = {alpha} is not inside J_t = ({dom.lower:.6g}, {dom.upper:.6g}) "
                f"with a {MGF_DOMAIN_MARGIN:.0%} margin"
            )
    b = sigma_integral_matrix(model, t)
    vals = quad_form_samples(model.covariance, [b.matrix], seed, count, workers)[:, 0]
    exponents = -alpha * (vals - b.offset)
    shift = exponents.max()
    scaled = np.exp(exponents - shift)
    mean = float(scaled.mean())
    estimate = shift + math.log(mean)
    std_error = float(scaled.std()) / (mean * math.sqrt(count))
    return estimate, std_error


# ---------------------------------------------------------------------------
# trajectory statistics
# ---------------------------------------------------------------------------

def slln_trajectory(model, measure, horizon, seed, d_plus=None, n_points=24):
    """Time-average entropy production along one draw, on a log-spaced grid.

    Returns a list of (t, Sigma_t) with Sigma_t = (x, B_t x)/t - tr(D sigma)
    for a single x drawn from the reference measure or from the stationary
    covariance d_plus, at n_points times from min(horizon/16, 1/2) to horizon.
    (x, B_t x) = 1/2 ((e^{tL} x)' D^-1 e^{tL} x - x' D^-1 x) reads e^{tL} x
    from the cached eigenbasis of each generator block, O(n^2) per time
    (_linalg.propagator_apply), and tr(D sigma) = tr L.
    """
    cov = _sampling_cov(model, measure, d_plus)
    if not horizon > 0:
        raise ValueError("horizon must be positive")
    x = (_draw_rows(seed, 0, 1, model.dim) @ _cov_factor(cov).T)[0]
    dinv = covariance_inverse(model)
    start = float(x @ (dinv @ x))
    tr_term = float(np.trace(model.generator))
    times = np.geomspace(min(horizon / 16.0, 0.5), horizon, n_points).tolist()
    series = []
    for t, e_x in zip(times, propagator_apply(model.generator, times, x)):
        series.append((t, 0.5 * (float(e_x @ (dinv @ e_x)) - start) / t - tr_term))
    return series


@dataclass(frozen=True)
class CltReport:
    """KS distance against the predicted normal, with the sample histogram."""

    ks_distance: float
    bin_edges: np.ndarray
    counts: np.ndarray
    skipped: bool = False
    note: str = ""


def clt_sample(model, measure, t, seed, count, variance, omega_bar, d_plus=None,
               workers=1, bins=61):
    """Sample u = t^{-1/2} (int_0^t sigma_s ds - t*omega_bar) and test normality.

    variance is the predicted CLT variance (second derivative of the
    limiting functional); when it vanishes the check is skipped with a
    report, as the limit law is degenerate.
    """
    cov = _sampling_cov(model, measure, d_plus)
    if variance < 0.0:
        raise ValueError("variance must be nonnegative")
    if variance <= 1e-12:
        return CltReport(
            ks_distance=math.nan,
            bin_edges=np.array([]),
            counts=np.array([]),
            skipped=True,
            note="predicted variance is zero; degenerate limit law, check skipped",
        )
    b = sigma_integral_matrix(model, t)
    vals = quad_form_samples(cov, [b.matrix], seed, count, workers)[:, 0]
    u = (vals - b.offset - t * omega_bar) / math.sqrt(t)
    from scipy.stats import kstest, norm

    ks = float(kstest(u, norm(loc=0.0, scale=math.sqrt(variance)).cdf).statistic)
    counts, edges = np.histogram(u, bins=bins)
    return CltReport(ks_distance=ks, bin_edges=edges, counts=counts)


def write_histogram_csv(path, report):
    with open(path, "w") as fh:
        fh.write("bin_lo,bin_hi,count\n")
        for lo, hi, c in zip(report.bin_edges[:-1], report.bin_edges[1:], report.counts):
            fh.write("%.17g,%.17g,%d\n" % (lo, hi, c))


# ---------------------------------------------------------------------------
# identity checks
# ---------------------------------------------------------------------------

def trace_identity_report(cov, seed, count, n_mats=10, workers=1):
    """z-scores of mean (x, A x) against tr(cov A) for seeded random symmetric A."""
    _check_count(count, 2)
    cov = np.asarray(cov, dtype=float)
    dim = cov.shape[0]
    rng = np.random.default_rng(int(seed) ^ 0x5EED)
    oracles = []

    def seeded(_):
        a = symmetrize(rng.standard_normal((dim, dim)))
        oracles.append(float(np.vdot(cov, a)))    # tr(cov A) for symmetric cov and A
        return a

    # each A is made when quad_form_samples folds it and dropped after its fold
    vals = quad_form_samples(cov, map(seeded, range(n_mats)), seed, count, workers)
    rows = []
    for j, oracle in enumerate(oracles):
        est = float(vals[:, j].mean())
        se = float(vals[:, j].std()) / math.sqrt(count)
        rows.append({"estimate": est, "oracle": oracle, "std_error": se,
                     "z_score": (est - oracle) / se if se > 0 else 0.0})
    return rows


def change_of_measure_report(model, t, seed, count, workers=1):
    """Normalization E_omega[exp(ell_t(x))] = 1 as a z-scored estimate."""
    _check_count(count, 2)
    fp = flow_point(model, t)
    vals = quad_form_samples(model.covariance, [fp.relative_T], seed, count, workers)[:, 0]
    w = np.exp(fp.logdet_term - 0.5 * vals)
    est = float(w.mean())
    se = float(w.std()) / math.sqrt(count)
    return {"estimate": est, "oracle": 1.0, "std_error": se,
            "z_score": (est - 1.0) / se if se > 0 else 0.0}


def propagated_sample_cov_defect(model, cov, t, seed, count, workers=1):
    """Max-abs difference between the sample covariance of e^{tL} x and cov.

    For cov close to the stationary covariance this quantifies empirical
    invariance of the flow.
    """
    _check_count(count, 1)
    cov = checked_square(cov, model.dim, "cov")
    if math.isnan(t):
        raise DomainError("t is NaN")
    chol = _cov_factor(cov)
    # rows z of the draws map to rows y = z C' e^{tL'} by one right-multiplication
    factor = chol.T @ propagator(model.generator, t).T
    dim = cov.shape[0]
    nchunks = len(_chunks(count))
    partials = np.zeros((nchunks, dim, dim))

    def work(a, b, slot):
        for r in range(a, b, BLOCK_ROWS):
            y = _draw_rows(seed, r, min(r + BLOCK_ROWS, b), dim) @ factor
            partials[slot] += y.T @ y
            del y    # so that the next block is drawn with this one freed

    _run_chunks(work, count, workers)
    total = np.zeros((dim, dim))
    for p in partials:
        total += p
    return float(np.abs(total / count - cov).max())
