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

One draw pass per (cov, seed, count): a check is a list of forms plus a
reducer over their columns (Check).  run_checks folds the forms of every
check it is given, releases the Cholesky factor, draws each BLOCK_ROWS block
once, evaluates every form on it and hands each check the columns of its
forms.  The reducers keep fixed-size partials per block: count, mean and M2
(the sum of squared deviations) per column for the trace identity and, of
the weights exp(logdet - v/2), for the change of measure; for the MGF the
block maximum of the exponents with the moments of the exponentials shifted
by it, rescaled to the overall maximum when combined.  Only the collecting
reducer of quad_form_samples and clt_sample keeps a per-draw array.

Reproducibility contract: the draws are cut into tiles of BLOCK_ROWS rows,
and tile j is the C-order fill of BLOCK_ROWS x dim standard normals from its
own stream, keyed by (seed, j) alone, so row i depends only on
(seed, i, dim).  Chunks have a fixed size, a multiple of BLOCK_ROWS, and
reductions combine fixed-order per-block partials, so results are
bit-identical for any worker count.  CHUNK and BLOCK_ROWS are both part of
the contract: a new value of either changes every seeded result.

Working set of one pass with k forms, in floats, beside its inputs and
outputs: while folding, the Cholesky factor, the panels of the forms folded
so far and one M with its fold and their product temporaries; while drawing,
the panels, k n^2/2 (1 + PANEL/n), and per worker one block of BLOCK_ROWS
draws, its k values and a product buffer of half a block,
BLOCK_ROWS (3n/2 + k); the reducers' partials are a few floats per block and
column, and a collecting reducer adds its count x k columns.  The trace
check makes each M only when it is folded.  propagated_sample_cov_defect
keeps one n x n partial per chunk, and per worker one block of BLOCK_ROWS
draws with its image and their n x n product; sample_gaussian keeps 2n
floats per chunk, and per worker one block with its image.

The stream of tile j is SFC64 (numpy's Small Fast Chaotic generator) seeded
by SeedSequence(key, spawn_key=(j,)), key = seed mod 2**128: the j-th child
of SeedSequence(key).spawn, numpy's documented way to make independent
streams, whose hash of (seed, j) keeps tile j of one seed apart from tile j'
of another.  A block of draws is one bulk fill of its tile, and the fill
releases the interpreter lock, so workers draw in parallel.  A range that
starts inside a tile fills the tile's prefix and drops it; a fill is
sequential, so a range that stops inside a tile gets exactly its first
rows.
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
BLOCK_ROWS = 1024               # draws per block and stream tile, a divisor of CHUNK; part of the contract
STREAM = f"sfc64-spawn-tile{BLOCK_ROWS}"    # names the draw stream in a pass's record
PANEL = 64                      # rows of the upper triangle per product of the quadratic forms

MGF_DOMAIN_MARGIN = 0.05        # required relative distance of alpha from the J_t boundary


def _draw_rows(seed, start, stop, dim):
    """Standard normal rows for draws [start, stop), one bulk fill per tile of BLOCK_ROWS rows.

    Rows [j BLOCK_ROWS, (j + 1) BLOCK_ROWS) are tile j: the C-order
    standard_normal fill of Generator(SFC64(SeedSequence(key, spawn_key=(j,)))),
    key = seed mod 2**128.  Row i thus depends only on (seed, i, dim).
    """
    key = int(seed) & ((1 << 128) - 1)
    out = np.empty((stop - start, dim))
    for j in range(start // BLOCK_ROWS, -(-stop // BLOCK_ROWS)):
        t0 = j * BLOCK_ROWS
        a, b = max(start, t0), min(stop, t0 + BLOCK_ROWS)
        gen = np.random.Generator(np.random.SFC64(np.random.SeedSequence(key, spawn_key=(j,))))
        if a > t0:
            gen.standard_normal((a - t0) * dim)     # the tile's rows before the range
        gen.standard_normal(out=out[a - start:b - start])
    return out


def _check_count(count, least):
    if count < least:
        raise ValueError(f"count = {count} is below the minimum of {least} draws")


def _check_finite(name, value):
    if not math.isfinite(value):
        raise DomainError(f"{name} = {value} is not finite")


def _check_time(t):
    if math.isnan(t):
        raise DomainError("t is NaN")


def _sampling_cov(model, measure, d_plus):
    """The covariance a trajectory is drawn from: the model's, or d_plus checked against the model."""
    if measure not in ("reference", "ness"):
        raise ValueError("measure must be 'reference' or 'ness'")
    if measure == "reference":
        return model.covariance
    if d_plus is None:
        raise ValueError("measure='ness' needs the stationary covariance d_plus")
    return checked_square(d_plus, model.dim, "D+")


def _checked_cov(cov):
    """cov as a float array; StructuralError unless it is a finite square matrix."""
    cov = np.asarray(cov, dtype=float)
    return checked_square(cov, cov.shape[0] if cov.ndim else 0, "covariance")


def _cov_factor(cov):
    """Lower Cholesky factor of a sampling covariance; DomainError unless it is SPD."""
    try:
        return np.linalg.cholesky(_checked_cov(cov))
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
    rows x dim floats, and the forms are split into as few groups as that
    allows, of equal width (10 forms at dim 514: 5 + 5, not 8 + 2).  Each M and each fold is released once cut; an M that
    is not a finite dim x dim matrix raises StructuralError.
    """
    dim = chol.shape[0]
    edges = [(p0, min(p0 + PANEL, dim)) for p0 in range(0, dim, PANEL)]
    pieces = [[] for _ in edges]    # pieces[p][j]: panel p of form j
    for m in mats:
        s = _triangular_fold(chol.T @ checked_square(m, dim, "form") @ chol)
        del m    # so that the next M is made with this one freed
        for col, (p0, p1) in zip(pieces, edges):
            col.append(np.tril(s[p0:, p0:p1]))
        del s
    k, most = len(pieces[0]), max(1, dim // PANEL)
    size = -(-k // -(-k // most)) if k else most    # the fewest groups, of widths within one
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
    """out[:, j] += z'T_j z for the rows z of one block, by one product per panel, group and half block.

    buf is a flat work array of at least ceil(len(z) / 2) * dim floats: each
    product is made for one half of the rows at a time.
    """
    rows = len(z)
    half = -(-rows // 2)
    for j0, j1, stacked in groups:
        for (p0, p1), g in zip(edges, stacked):
            for h0 in range(0, rows, half):
                h1 = min(h0 + half, rows)
                y = np.matmul(z[h0:h1, p0:], g, out=buf[:(h1 - h0) * g.shape[1]].reshape(h1 - h0, -1))
                out[h0:h1, j0:j1] += np.einsum("rkw,rw->rk", y.reshape(h1 - h0, j1 - j0, p1 - p0),
                                               z[h0:h1, p0:p1])


# ---------------------------------------------------------------------------
# one draw pass: checks as forms plus reducers over their columns
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Check:
    """A Monte Carlo check: its forms M, folded in order, a reducer over their columns (x, M x),
    and report(count), which reads the check's result from the reducer after the pass.

    forms may be a one-shot iterable, so a check runs in one pass only.
    """

    forms: object
    reducer: object
    report: object


class _Collect:
    """Every value of the columns, count x k: for a caller that needs each draw's form."""

    def begin(self, count, k):
        self.values = np.empty((count, k))

    def add(self, start, cols):
        self.values[start:start + len(cols)] = cols


class _Moments:
    """Count, mean and M2 (sum of squared deviations) per column of f(cols), f the identity if None.

    Each block of draws keeps its own partial at index start // BLOCK_ROWS;
    result() combines them in block order (Chan, Golub and LeVeque 1979), so
    the statistics do not depend on which worker added a block, or when.
    """

    def __init__(self, f=None):
        self.f = f

    def begin(self, count, k):
        self.parts = np.zeros((-(-count // BLOCK_ROWS), 3, k))    # rows, mean, M2 per block

    def _store(self, start, y):
        mean = y.sum(axis=0) / len(y)
        dev = y - mean
        part = self.parts[start // BLOCK_ROWS]
        part[0], part[1], part[2] = len(y), mean, np.einsum("ij,ij->j", dev, dev)

    def add(self, start, cols):
        self._store(start, cols if self.f is None else self.f(cols))

    def result(self):
        """(mean, M2) per column over all draws."""
        return _combined(self.parts)


class _ShiftedMoments(_Moments):
    """The moments of exp(f(cols) - shift) per column, shift the largest f(cols) over all draws.

    A block keeps its own maximum m_b with the moments of exp(f - m_b); they
    are rescaled by exp(m_b - shift) and exp(2 (m_b - shift)) when combined,
    so no exponential is taken of a value above the overall maximum.
    """

    def begin(self, count, k):
        super().begin(count, k)
        self.tops = np.zeros((len(self.parts), k))

    def add(self, start, cols):
        e = self.f(cols)
        top = e.max(axis=0)
        self.tops[start // BLOCK_ROWS] = top
        self._store(start, np.exp(e - top))

    def result(self):
        """(shift, mean, M2) per column over all draws."""
        shift = self.tops.max(axis=0)
        scale = np.exp(self.tops - shift)
        parts = self.parts.copy()
        parts[:, 1] *= scale
        parts[:, 2] *= scale * scale
        return (shift, *_combined(parts))


def _combined(parts):
    """(mean, M2) per column of the union of blocks with (rows, mean, M2) partials, in block order."""
    count, mean, m2 = parts[0]
    for rows, b_mean, b_m2 in parts[1:]:
        total = count + rows
        delta = b_mean - mean
        mean = mean + delta * (rows / total)
        m2 = m2 + b_m2 + delta * delta * (count * rows / total)
        count = total
    return mean, m2


def run_checks(cov, checks, seed, count, workers=1):
    """Evaluate every check's forms on one pass of `count` seeded draws from N(0, cov).

    The forms of all checks are folded into panels in order (_form_panels)
    and the Cholesky factor is released; each BLOCK_ROWS block is drawn once,
    takes every form, and hands each check's reducer the columns of that
    check's forms.  Returns the checks' reports, in order, and the record of
    the pass: the rows drawn (none when there is no form) and the forms.
    """
    _check_count(count, 1)
    chol = _cov_factor(cov)
    dim = chol.shape[0]
    spans, k = [], 0

    def chained():
        nonlocal k
        for check in checks:
            j0 = k
            for m in check.forms:
                k += 1
                yield m
                del m    # so that the next M is made with this one freed
            spans.append((j0, k))

    edges, groups = _form_panels(chol, chained())
    del chol    # the draws need only the panels
    for check, (j0, j1) in zip(checks, spans):
        check.reducer.begin(count, j1 - j0)

    def work(a, b, _slot):
        buf = np.empty(-(-min(BLOCK_ROWS, b - a) // 2) * dim)
        for r in range(a, b, BLOCK_ROWS):
            z = _draw_rows(seed, r, min(r + BLOCK_ROWS, b), dim)
            vals = np.zeros((len(z), k))
            _panel_forms(z, edges, groups, vals, buf)
            del z    # so that the next block is drawn with this one freed
            for check, (j0, j1) in zip(checks, spans):
                check.reducer.add(r, vals[:, j0:j1])

    if k:
        _run_chunks(work, count, workers)
    reports = [check.report(count) for check in checks]
    return reports, {"rows": count if k else 0, "forms": k}


def z_score(diff, std_error):
    """diff / std_error: 0.0 only for a zero diff without spread, and NaN, never 0.0, for a NaN."""
    if std_error == 0.0:
        return 0.0 if diff == 0.0 else diff * math.inf
    return diff / std_error


def quad_form_samples(cov, mats, seed, count, workers=1):
    """Per-draw quadratic forms (x, M x) for x ~ N(0, cov), one column per M.

    Covariance factorization: x = C z with C the lower Cholesky factor, so
    (x, M x) = (z, C'MC z).  Each conjugated form W = C'MC is folded once
    into the triangle T_ij = W_ij + W_ji (i < j), T_ii = W_ii, so that
    z'Tz = z'Wz for any M, symmetric or not.  mats may be any iterable; each
    M is released once folded, and each fold once it is cut into panels of
    PANEL rows (_form_panels).  The draws of a chunk are made BLOCK_ROWS rows
    at a time; for each panel [p0, p1) and group of forms, a block Z takes
    one product Z[:, p0:] G_p in numpy's BLAS per half block and a row dot
    with Z[:, p0:p1], n^2/2 (1 + PANEL/n) multiply-adds per draw and form.
    This is run_checks with one collecting check, so beside the pass's
    working set it keeps the count x k output.
    """
    collect = _Collect()
    run_checks(cov, [Check(mats, collect, lambda count: None)], seed, count, workers)
    return collect.values


@dataclass(frozen=True)
class SampleBatch:
    """Draws (optional) plus deterministic running statistics."""

    count: int
    seed: int
    draws: np.ndarray | None
    mean: np.ndarray
    variance: np.ndarray


def sample_gaussian(cov, seed, count, workers=1, keep_draws=True):
    """Draw `count` vectors from N(0, cov), one BLOCK_ROWS tile and its image at a time.

    Each chunk adds its tiles' sums to its own partials in tile order, and the
    partials are combined in chunk order with compensated summation, so the
    statistics are bit-identical for any worker count.
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
        for r in range(a, b, BLOCK_ROWS):
            s = min(r + BLOCK_ROWS, b)
            x = np.matmul(_draw_rows(seed, r, s, dim), chol.T,
                          out=None if draws is None else draws[r:s])
            part_sum[slot] += x.sum(axis=0)
            part_sumsq[slot] += np.einsum("ij,ij->j", x, x)
            del x    # so that the next tile is drawn with this image freed

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

def mgf_check(model, t, alpha, enforce_domain=True):
    """The check of empirical_mgf: one form B_t, a max-shifted reducer, report (estimate, std_error).

    The domain of alpha is checked here, before any draw.
    """
    _check_time(t)
    _check_finite("alpha", alpha)
    if enforce_domain:
        dom = domain_interval(model, t)
        if not dom.contains(alpha, margin=MGF_DOMAIN_MARGIN):
            raise DomainError(
                f"alpha = {alpha} is not inside J_t = ({dom.lower:.6g}, {dom.upper:.6g}) "
                f"with a {MGF_DOMAIN_MARGIN:.0%} margin"
            )
    b = sigma_integral_matrix(model, t)
    offset = b.offset
    moments = _ShiftedMoments(lambda v: -alpha * (v - offset))

    def report(count):
        shift, mean, m2 = (float(x[0]) for x in moments.result())
        return shift + math.log(mean), math.sqrt(m2 / count) / (mean * math.sqrt(count))

    return Check(iter([b.matrix]), moments, report)    # B is released once folded


def empirical_mgf(model, t, alpha, seed, count, workers=1, enforce_domain=True):
    """Monte Carlo estimate of log E_omega[exp(-alpha * int_0^t sigma_s ds)].

    Returns (estimate, std_error); the estimate should match e_t(alpha).
    alpha must sit strictly inside J_t with a 5% relative margin, since the
    integrand stops being integrable at the boundary; enforce_domain=False
    bypasses the check for deliberate boundary probes (the estimator then
    diverges with the sample count by design).  Exponents are max-shifted
    before exponentiation, per block and then to the largest over all draws.
    """
    _check_count(count, 2)
    (report,), _ = run_checks(model.covariance, [mgf_check(model, t, alpha, enforce_domain)],
                              seed, count, workers)
    return report


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
    _check_time(t)
    _check_finite("variance", variance)
    _check_finite("omega_bar", omega_bar)
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

def trace_check(cov, seed, n_mats=10):
    """The check of trace_identity_report: n_mats seeded random symmetric A, each made when it
    is folded, with the moments of their columns; report is one row per A."""
    cov = _checked_cov(cov)
    rng = np.random.default_rng(int(seed) ^ 0x5EED)
    oracles = []
    moments = _Moments()

    def seeded(_):
        a = symmetrize(rng.standard_normal(cov.shape))
        oracles.append(float(np.vdot(cov, a)))    # tr(cov A) for symmetric cov and A
        return a

    def report(count):
        mean, m2 = moments.result()
        rows = []
        for oracle, est, dev in zip(oracles, mean.tolist(), m2.tolist()):
            se = math.sqrt(dev / count) / math.sqrt(count)
            rows.append({"estimate": est, "oracle": oracle, "std_error": se,
                         "z_score": z_score(est - oracle, se)})
        return rows

    return Check(map(seeded, range(n_mats)), moments, report)


def trace_identity_report(cov, seed, count, n_mats=10, workers=1):
    """z-scores of mean (x, A x) against tr(cov A) for seeded random symmetric A."""
    _check_count(count, 2)
    (rows,), _ = run_checks(cov, [trace_check(cov, seed, n_mats)], seed, count, workers)
    return rows


def change_of_measure_check(model, t):
    """The check of change_of_measure_report: one form T_t and the moments of the weights
    exp(logdet - (x, T_t x)/2)."""
    fp = flow_point(model, t)
    logdet = fp.logdet_term
    moments = _Moments(lambda v: np.exp(logdet - 0.5 * v))

    def report(count):
        mean, m2 = (float(x[0]) for x in moments.result())
        se = math.sqrt(m2 / count) / math.sqrt(count)
        return {"estimate": mean, "oracle": 1.0, "std_error": se, "z_score": z_score(mean - 1.0, se)}

    return Check([fp.relative_T], moments, report)


def change_of_measure_report(model, t, seed, count, workers=1):
    """Normalization E_omega[exp(ell_t(x))] = 1 as a z-scored estimate."""
    _check_count(count, 2)
    (report,), _ = run_checks(model.covariance, [change_of_measure_check(model, t)], seed, count,
                              workers)
    return report


def propagated_sample_cov_defect(model, cov, t, seed, count, workers=1):
    """Max-abs difference between the sample covariance of e^{tL} x and cov.

    For cov close to the stationary covariance this quantifies empirical
    invariance of the flow.
    """
    _check_count(count, 1)
    cov = checked_square(cov, model.dim, "cov")
    _check_time(t)
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
