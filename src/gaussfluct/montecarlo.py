"""Gaussian draws and Monte Carlo checks of the entropic functionals.

A check is a list of quadratic forms (x, M x) of draws x ~ N(0, cov) and a
reducer over their columns (Check); run_checks evaluates the forms of several
checks on one draw pass.  Time-integrated entropy production over [0, t] is
the form B_t (flow.sigma_integral_matrix), so a draw costs O(n^2).

Reproducibility contract: the draws are cut into tiles of BLOCK_ROWS rows,
row i depends only on (seed, i, dim) (_tile_rng), each tile is one unit of
work, and the reducers keep one partial per tile and combine them in tile
order.  Results are thus bit-identical for any worker count at a fixed BLAS
thread count.  BLOCK_ROWS is part of the contract: a new value changes every
seeded result.

Threads: while a pass runs its tiles and its certificate, OpenBLAS runs one
thread (_one_blas_thread) and the tiles run on max(workers, b) threads, b
the BLAS thread count found, so the cores go to parallel draws and row dots
rather than to threads inside each product.  Without OpenBLAS (MKL,
Accelerate) BLAS is left as it is and the tiles run on `workers` threads.

Precision: the draws, the fold C'MC, the output columns and the reducers are
float64; the panels, the products and the rows of each tile, filled through a
float64 staging buffer (_fill), are float32, each form scaled by a power of
two, and each pass checks its float32 values against float64 on CERT_ROWS
probe rows (_certificate).

A pass with k forms keeps their panels, k n^2/2 (1 + PANEL/n) float32 values,
and per tile thread one workspace (_workspace): float32 rows and a float32
product buffer of half a tile each, STAGE_ROWS float64 staging rows and the
tile's k values.
"""

import collections
import ctypes
import functools
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from ._linalg import propagator_apply, symmetrize
from .model import DomainError, checked_square, covariance_inverse
from .flow import flow_point, sigma_integral_matrix
from .renyi import domain_interval

BLOCK_ROWS = 1024               # draws per stream tile and unit of work; part of the contract
STREAM = f"sfc64-spawn-tile{BLOCK_ROWS}"    # names the draw stream in a pass's record
PANEL = 64                      # rows of the upper triangle per product of the quadratic forms
CERT_ROWS = 128                 # probe rows on which a pass's forms are checked against float64
STAGE_ROWS = 64                 # float64 rows per step of a tile's fill into float32

MGF_DOMAIN_MARGIN = 0.05        # required relative distance of alpha from the J_t boundary


def _tile_rng(seed, j):
    """The generator of tile j, rows [j BLOCK_ROWS, (j + 1) BLOCK_ROWS): its C-order
    standard_normal fill is the tile.

    Generator(SFC64(SeedSequence(key, spawn_key=(j,)))), key = seed mod 2**128:
    the j-th child of SeedSequence(key).spawn, numpy's way to make independent
    streams.  Row i thus depends only on (seed, i, dim).
    """
    key = int(seed) & ((1 << 128) - 1)
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(key, spawn_key=(j,))))


def _draw_rows(seed, start, stop, dim):
    """Standard normal rows for draws [start, stop), one bulk fill per tile of BLOCK_ROWS rows
    (_tile_rng)."""
    out = np.empty((stop - start, dim))
    for j in range(start // BLOCK_ROWS, -(-stop // BLOCK_ROWS)):
        t0 = j * BLOCK_ROWS
        a, b = max(start, t0), min(stop, t0 + BLOCK_ROWS)
        gen = _tile_rng(seed, j)
        if a > t0:
            gen.standard_normal((a - t0) * dim)     # the tile's rows before the range
        gen.standard_normal(out=out[a - start:b - start])
    return out


def _fill(gen, rows, stage):
    """rows[...] = the next len(rows) x dim values of gen's standard_normal stream, cast to float32.

    They are made len(stage) rows at a time in the float64 stage and cast from
    it; the stream keeps no state between fills, so the values are those of
    one whole fill cast after it, with no float64 copy of rows.  The fill
    releases the interpreter lock, so tile threads draw in parallel.
    """
    for a in range(0, len(rows), len(stage)):
        part = stage[:len(rows) - a]
        gen.standard_normal(out=part)
        rows[a:a + len(part)] = part


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


def _form_panels(chol, mats, seen=None):
    """Panel edges and, per group of forms (j0, j1), their powers of two and stacked float32 panels.

    Each form W = C'MC is made in float64 and handed to seen(W) if given.  Its
    fold S = W + W' with diag(S) = diag(W) has z'Tz = z'Wz for either triangle
    T of S; the upper one is cut into row panels [p0, p1) of PANEL rows, and
    panel p keeps T[p0:p1, p0:]' = tril(W[p0:, p0:p1] + W[p0:p1, p0:]'), cut
    straight from W.  Before the cut W is scaled by the power of two 2^-e that
    brings its largest entry into [0.5, 1), so that the float32 cast neither
    overflows nor sinks the form into subnormals, whatever its scale; each
    piece is cast to float32 as it is cut, and 2^e is kept for the form's
    output column.  G_p holds the pieces of forms j0, ..., j1 - 1 side by
    side, in that order.  A group takes at most dim // PANEL forms, so that
    one product writes at most rows x dim values, and the forms are split
    into as few groups as that allows, of equal width (10 forms at dim 514:
    5 + 5, not 8 + 2).  Each M and each W is released once cut; an M that is
    not a finite dim x dim matrix raises StructuralError.
    """
    dim = chol.shape[0]
    edges = [(p0, min(p0 + PANEL, dim)) for p0 in range(0, dim, PANEL)]
    pieces = [[] for _ in edges]    # pieces[p][j]: panel p of form j
    powers = []
    for m in mats:
        w = chol.T @ checked_square(m, dim, "form") @ chol
        del m    # so that the next M is made with this one freed
        if seen is not None:
            seen(w)
        e = int(np.frexp(max(w.max(), -w.min()))[1])
        w *= math.ldexp(1.0, -e)    # exact
        powers.append(math.ldexp(1.0, e))
        for col, (p0, p1) in zip(pieces, edges):
            piece = w[p0:, p0:p1] + w[p0:p1, p0:].T
            np.fill_diagonal(piece, np.diagonal(w)[p0:p1])
            col.append(np.tril(piece).astype(np.float32))
        del w
    k, most = len(powers), max(1, dim // PANEL)
    size = -(-k // -(-k // most)) if k else most    # the fewest groups, of widths within one
    groups = []
    for j0 in range(0, k, size):
        j1 = min(j0 + size, k)
        stacked = []
        for col in pieces:
            stacked.append(np.hstack(col[j0:j1]))
            col[j0:j1] = [None] * (j1 - j0)    # each piece is freed once stacked
        groups.append((j0, j1, (np.array(powers[j0:j1]), stacked)))
    return edges, groups


def _panel_forms(z, edges, groups, out, buf):
    """out[:, j] = z'T_j z for the rows z, by one float32 product per panel, group and run of
    rows that buf holds.

    That is n^2/2 (1 + PANEL/n) multiply-adds per row and form, all in BLAS.
    z is cast to float32 once (float32 rows are used as they are); each
    panel's float32 row dots are added into the float64 out, and a group's
    columns are multiplied by their powers of two 2^e at the end, which is
    exact.  buf is a flat float32 work array of at least dim values: each
    product is made for len(buf) // dim rows at a time.
    """
    z = z.astype(np.float32, copy=False)
    rows, dim = z.shape
    step = len(buf) // dim
    for j0, j1, (powers, stacked) in groups:
        cols = out[:, j0:j1]
        cols[...] = 0.0
        for (p0, p1), g in zip(edges, stacked):
            for h0 in range(0, rows, step):
                h1 = min(h0 + step, rows)
                y = np.matmul(z[h0:h1, p0:], g, out=buf[:(h1 - h0) * g.shape[1]].reshape(h1 - h0, -1))
                cols[h0:h1] += np.einsum("rkw,rw->rk", y.reshape(h1 - h0, j1 - j0, p1 - p0),
                                         z[h0:h1, p0:p1])
        cols *= powers


def _probe(dim):
    """The certificate's CERT_ROWS x dim standard normal rows: the C-order fill of
    Generator(SFC64(0)), a fixed stream apart from the draws, distributed as each row z of a pass.

    Being no draw of the pass, it is made before the forms are folded, so a
    malformed form is still refused before any draw.
    """
    return np.random.Generator(np.random.SFC64(0)).standard_normal((CERT_ROWS, dim))


def _certificate(probe, refs, edges, groups, count):
    """The float64 check of a pass's float32 forms on the probe rows.

    refs[j] holds z'W_j z for the probe rows z, made densely in float64 while
    the pass held the form W_j = C'MC, with no panel algebra.  Per form: the
    largest deviation of the kernel's value (_panel_forms) from it, that
    deviation over the column's standard deviation on the probe, and that
    ratio times sqrt(count), the shift of a mean over `count` draws, in
    standard errors, were every draw off by that much.  A pass calls it with
    BLAS set as for its tiles, so it certifies the kernel the tiles run.
    """
    ref = np.stack(refs, axis=1)
    vals = np.empty_like(ref)
    _panel_forms(probe, edges, groups, vals, np.empty(probe.size, dtype=np.float32))
    deviation = np.abs(vals - ref).max(axis=0).tolist()
    ratio = [z_score(d, s) for d, s in zip(deviation, ref.std(axis=0).tolist())]
    return {"rows": len(ref), "max_deviation": deviation, "deviation_over_std": ratio,
            "mean_shift_se": [r * math.sqrt(count) for r in ratio]}


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


@functools.cache
def _blas():
    """OpenBLAS's (get, set) thread-count functions, looked up through numpy's own extension
    module at the first call; None when numpy's BLAS is not OpenBLAS (MKL, Accelerate)."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    except (AttributeError, OSError):
        return None
    for name in ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
                 "openblas_{}_num_threads"):
        try:
            get, put = getattr(lib, name.format("get")), getattr(lib, name.format("set"))
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put
    return None


_BLAS_LOCK = threading.Lock()
_blas_held = {"depth": 0, "saved": None}    # passes inside _one_blas_thread, the count they saved


@contextmanager
def _one_blas_thread():
    """Holds OpenBLAS at one thread inside the block; yields the thread count it had before any
    pass took it, or None, leaving BLAS untouched, when there is no OpenBLAS.

    The count is process-wide, and passes may nest or run at once from several
    Python threads: the first to enter saves the count and sets one thread,
    the last to leave restores the saved count, so it is restored exactly
    once, to the caller's value, however each pass ends.
    """
    fns = _blas()
    if fns is None:
        yield None
        return
    get, put = fns
    with _BLAS_LOCK:
        if _blas_held["depth"] == 0:
            _blas_held["saved"] = get()
            put(1)
        _blas_held["depth"] += 1
        saved = _blas_held["saved"]
    try:
        yield saved
    finally:
        with _BLAS_LOCK:
            _blas_held["depth"] -= 1
            if _blas_held["depth"] == 0:
                put(saved)


def _workspace(dim, k):
    """One tile thread's buffers, views of one float64 block: float32 rows for half a tile,
    STAGE_ROWS float64 staging rows, the float32 product buffer of half a tile and the tile's
    BLOCK_ROWS x k values."""
    half = BLOCK_ROWS // 2 * dim    # floats of half a tile
    block = np.empty(half + STAGE_ROWS * dim + BLOCK_ROWS * k)
    return (block[:half // 2].view(np.float32).reshape(-1, dim),
            block[half:half + STAGE_ROWS * dim].reshape(STAGE_ROWS, dim),
            block[half // 2:half].view(np.float32),
            block[half + STAGE_ROWS * dim:].reshape(BLOCK_ROWS, k))


def _tile_forms(seed, start, stop, edges, groups, work):
    """The values of every form on the draws [start, stop) of the tile that starts at `start`,
    made in the workspace `work`: half a tile at a time, the rows are filled (_fill) and take
    every form (_panel_forms)."""
    rows, stage, buf, vals = work
    gen = _tile_rng(seed, start // BLOCK_ROWS)
    for h0 in range(0, stop - start, len(rows)):
        z = rows[:stop - start - h0]
        _fill(gen, z, stage)
        _panel_forms(z, edges, groups, vals[h0:h0 + len(z)], buf)
    return vals[:stop - start]


def run_checks(cov, checks, seed, count, workers=1):
    """Evaluate every check's forms on one pass of `count` seeded draws from N(0, cov).

    The forms of all checks are folded into panels in order (_form_panels)
    and the Cholesky factor is released.  Then, with OpenBLAS at one thread
    (_one_blas_thread, which finds its count b), the certificate of the
    forms' float32 rounding is made (_certificate) and the tiles of
    BLOCK_ROWS draws run on T = max(workers, b) threads, the calling thread
    one of them, each with its own workspace; without OpenBLAS, T = workers.
    Each tile is drawn once, takes every form, and hands each check's reducer
    the columns of that check's forms.  Returns the checks' reports, in
    order, and the record of the pass: the rows drawn (none when there is no
    form), the forms and, when there is a form, `threads` (T, at most one
    per tile), `blas_threads` (b, None without OpenBLAS) and the certificate.
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

    probe, refs = _probe(dim), []
    edges, groups = _form_panels(chol, chained(),
                                 lambda w: refs.append(np.einsum("ij,ij->i", probe @ w, probe)))
    del chol    # the draws need only the panels
    for check, (j0, j1) in zip(checks, spans):
        check.reducer.begin(count, j1 - j0)
    record = {"rows": count if k else 0, "forms": k}
    if k:
        with _one_blas_thread() as blas:
            starts = range(0, count, BLOCK_ROWS)
            threads = min(max(workers, blas or 1), len(starts))
            record.update(threads=threads, blas_threads=blas,
                          certificate=_certificate(probe, refs, edges, groups, count))
            del probe
            # made by the calling thread: buffers made in a tile thread would come from that
            # thread's own malloc arena and raise the resident peak
            works = [_workspace(dim, k) for _ in range(threads)]
            todo = iter(starts)    # shared: each next() is one call under the interpreter lock

            def drain(work):
                try:
                    for r in todo:
                        vals = _tile_forms(seed, r, min(r + BLOCK_ROWS, count), edges, groups, work)
                        for check, (j0, j1) in zip(checks, spans):
                            check.reducer.add(r, vals[:, j0:j1])
                except BaseException:
                    collections.deque(todo, maxlen=0)    # the other threads take no further tile
                    raise

            with ThreadPoolExecutor(max_workers=threads) as pool:
                futures = [pool.submit(drain, work) for work in works[1:]]
                drain(works[0])    # the calling thread is one of the tile threads
            for future in futures:
                future.result()    # reads every result, so a tile thread's error is raised
    reports = [check.report(count) for check in checks]
    return reports, record


def z_score(diff, std_error):
    """diff / std_error: 0.0 only for a zero diff without spread, and NaN, never 0.0, for a NaN."""
    if std_error == 0.0:
        return 0.0 if diff == 0.0 else diff * math.inf
    return diff / std_error


def quad_form_samples(cov, mats, seed, count, workers=1):
    """Per-draw quadratic forms (x, M x) for x ~ N(0, cov), one column per M, symmetric or not.

    mats may be any iterable.  This is run_checks with one check that keeps
    every value, so beside the pass it holds the count x k output.
    """
    collect = _Collect()
    run_checks(cov, [Check(mats, collect, lambda count: None)], seed, count, workers)
    return collect.values


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
    """KS distance against the predicted normal, with the sample histogram and the record of
    its draw pass (run_checks), None when skipped."""

    ks_distance: float
    bin_edges: np.ndarray
    counts: np.ndarray
    skipped: bool = False
    note: str = ""
    draw_pass: dict = None


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
    collect = _Collect()
    (vals,), record = run_checks(cov, [Check([b.matrix], collect, lambda _: collect.values[:, 0])],
                                 seed, count, workers)
    u = (vals - b.offset - t * omega_bar) / math.sqrt(t)
    from scipy.stats import kstest, norm

    ks = float(kstest(u, norm(loc=0.0, scale=math.sqrt(variance)).cdf).statistic)
    counts, edges = np.histogram(u, bins=bins)
    return CltReport(ks_distance=ks, bin_edges=edges, counts=counts, draw_pass=record)


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
