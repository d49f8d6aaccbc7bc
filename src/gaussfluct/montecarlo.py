"""Sampling of the Gaussian measures and empirical checks of the functionals.

Time-integrated entropy production is evaluated as a single quadratic form
(x, B_t x) per draw against the operator B_t = int_0^t e^{sL'} sigma e^{sL} ds
= 1/2 (e^{tL'} D^-1 e^{tL} - D^-1) (flow.sigma_integral_matrix), so a draw
costs O(n^2) after one propagator increment per call.  Each form W = C'MC
(C the Cholesky factor of the sampling covariance) is folded once into an
upper triangle T with z'Tz = z'Wz, so a chunk of draws takes one in-place
triangular product (BLAS dtrmm, n^2 flops per draw) and a row dot per form,
half the work of a general product.  A single trajectory reads
(x, B_t x) = 1/2 (|D^{-1/2} e^{tL} x|^2 - |D^{-1/2} x|^2), with e^{tL} x
applied from the cached eigenbasis of each generator block, also O(n^2) per
time and without building a flow point.

Reproducibility contract: draw i is generated from a counter-based stream
keyed by (seed, i) alone, chunks have a fixed size, and reductions combine
fixed-order per-chunk partials, so results are bit-identical for any worker
count.

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
from .model import DomainError, covariance_roots
from .flow import flow_point, sigma_integral_matrix
from .renyi import domain_interval

CHUNK = 4096                    # fixed chunk size; part of the determinism contract
TRMM_ROWS = 1024                # draws per triangular product: the work copy stays in cache

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
        out[i - start] = gen.standard_normal(dim)
    return out


def _check_count(count, least):
    if count < least:
        raise ValueError(f"count = {count} is below the minimum of {least} draws")


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


def quad_form_samples(cov, mats, seed, count, workers=1):
    """Per-draw quadratic forms (x, M x) for x ~ N(0, cov), one column per M.

    Covariance factorization: x = C z with C the lower Cholesky factor, so
    (x, M x) = (z, C'MC z).  Each conjugated form W = C'MC is folded once
    into the triangle T_ij = W_ij + W_ji (i < j), T_ii = W_ii, so that
    z'Tz = z'Wz for any M, symmetric or not.  Each form then takes one
    in-place dtrmm per TRMM_ROWS draws of a chunk, on a reused copy of
    those draws (n^2 flops per draw against 2n^2 for a general product),
    and a row dot.  It is one of the three places that load scipy, here for
    its BLAS dtrmm, which numpy does not expose.
    """
    from scipy.linalg.blas import dtrmm

    _check_count(count, 1)
    cov = np.asarray(cov, dtype=float)
    chol = _cov_factor(cov)
    dim = cov.shape[0]
    folds = [_triangular_fold(chol.T @ np.asarray(m, float) @ chol) for m in mats]
    out = np.empty((count, len(folds)))

    def work(a, b, _slot):
        z = _draw_rows(seed, a, b, dim)
        buf = np.empty((min(TRMM_ROWS, b - a), dim))
        for r in range(0, b - a, TRMM_ROWS):
            rows = z[r:r + TRMM_ROWS]
            y = buf[:len(rows)]
            for j, s in enumerate(folds):
                np.copyto(y, rows)
                # y.T is the F-order z'; the lower triangle of s.T is the upper one of s
                tz = dtrmm(1.0, s.T, y.T, lower=1, overwrite_b=1).T
                out[a + r:a + r + len(rows), j] = np.einsum("ij,ij->i", tz, rows)

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
    (x, B_t x) = 1/2 (|D^{-1/2} e^{tL} x|^2 - |D^{-1/2} x|^2) reads e^{tL} x
    from the cached eigenbasis of each generator block, O(n^2) per time
    (_linalg.propagator_apply), and tr(D sigma) = tr L.
    """
    if measure not in ("reference", "ness"):
        raise ValueError("measure must be 'reference' or 'ness'")
    if measure == "ness" and d_plus is None:
        raise ValueError("measure='ness' needs the stationary covariance d_plus")
    cov = model.covariance if measure == "reference" else np.asarray(d_plus, float)
    x = (_draw_rows(seed, 0, 1, model.dim) @ _cov_factor(cov).T)[0]
    whitener = covariance_roots(model)[1]
    v = whitener @ x
    start = float(v @ v)
    tr_term = float(np.trace(model.generator))
    times = np.geomspace(min(horizon / 16.0, 0.5), horizon, n_points).tolist()
    series = []
    for t, e_x in zip(times, propagator_apply(model.generator, times, x)):
        y = whitener @ e_x
        series.append((t, 0.5 * (float(y @ y) - start) / t - tr_term))
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
    if measure not in ("reference", "ness"):
        raise ValueError("measure must be 'reference' or 'ness'")
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
    if measure == "ness" and d_plus is None:
        raise ValueError("measure='ness' needs the stationary covariance d_plus")
    b = sigma_integral_matrix(model, t)
    cov = model.covariance if measure == "reference" else np.asarray(d_plus, float)
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
    mats = [symmetrize(rng.standard_normal((dim, dim))) for _ in range(n_mats)]
    vals = quad_form_samples(cov, mats, seed, count, workers)
    rows = []
    for j, a in enumerate(mats):
        oracle = float(np.vdot(cov, a))           # tr(cov A) for symmetric cov and A
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
    cov = np.asarray(cov, dtype=float)
    chol = _cov_factor(cov)
    # rows z of the draws map to rows y = z C' e^{tL'} by one right-multiplication
    factor = chol.T @ propagator(model.generator, t).T
    dim = cov.shape[0]
    nchunks = len(_chunks(count))
    partials = np.zeros((nchunks, dim, dim))

    def work(a, b, slot):
        y = _draw_rows(seed, a, b, dim) @ factor
        partials[slot] = y.T @ y

    _run_chunks(work, count, workers)
    total = np.zeros((dim, dim))
    for p in partials:
        total += p
    return float(np.abs(total / count - cov).max())
