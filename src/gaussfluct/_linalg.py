"""Shared dense linear algebra helpers, on numpy's own LAPACK.

Everything here takes float64 numpy arrays and returns new arrays.  The
propagator e^{tL}, its action e^{tL} x, the mode frame and the window average
of D_t are read from one cache entry per generator content: the index groups
of its blocks, one basis per block and the norm bound that guards the
horizon.  A block's route is read from its content.  A skew block and a block
[[0, -J], [I, 0]] with J symmetric positive definite (the harmonic chains)
are rotations, e^{tA} = B R_t B^-1 with B = O S^-1 (RotationBasis,
frame_map).  Any other block takes a folded eig basis and walks the grid for
its window average; one that fails the conditioning gate takes scipy's expm,
imported inside _expm alone.
"""

import hashlib
import math
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

# Refuse propagators past this value of |t| * ||L||; the scaling-and-squaring
# error bound degrades and downstream group-law checks become meaningless.
EXPM_HORIZON_LIMIT = 1.0e4


class AccuracyError(RuntimeError):
    """A numerical accuracy contract cannot be met (e.g. horizon too long)."""


def generator_norm_bound(generator):
    """Cheap upper bound for the spectral norm: sqrt(||A||_1 * ||A||_inf)."""
    a = np.abs(generator)
    return float(np.sqrt(a.sum(axis=0).max() * a.sum(axis=1).max()))


def _expm(generator, idx, t):
    """scipy's scaling and squaring (diagonal Pade order 13) of t A, for the block A = generator[idx, idx] past the gate."""
    from scipy.linalg import expm

    return expm(t * generator[np.ix_(idx, idx)])


def _connected_components(generator):
    """Index groups of the sparsity graph of |generator| + |generator'|, or None for one group.

    A breadth-first search from the smallest index not yet reached; each
    level reads the adjacency rows of its whole frontier at once, so every
    row is read once.  Groups hold ascending indices and come in the order
    of their smallest index.
    """
    adj = generator != 0.0
    adj |= adj.T
    n = adj.shape[0]
    unseen = np.ones(n, dtype=bool)
    groups = []
    start = 0
    while unseen[start]:
        unseen[start] = False
        level = np.array([start])
        found = [level]
        while level.size:
            reach = np.logical_or.reduce(adj.take(level, axis=0), axis=0)
            reach &= unseen
            level = reach.nonzero()[0]
            unseen[level] = False
            found.append(level)
        groups.append(np.sort(np.concatenate(found)))
        start = int(unseen.argmax())
    return None if len(groups) == 1 else groups


def propagator(generator, t):
    """exp(t * generator), one connected component of the sparsity graph at a time.

    A rotation block is B R_t B^-1 from its frame and turn, an eig block
    Re(V e^{t Lambda} V^-1) (Moler and Van Loan, SIAM Rev. 45 (2003), method
    14), and a block past the kappa gate scipy's expm.  Components are split
    from dimension 256 on, an exact identity that avoids cubing the full
    dimension.  The result is real, C-contiguous and owned.
    """
    if t == 0.0:
        return np.eye(generator.shape[0])
    parts = _parts(generator, t)
    if len(parts) == 1:
        return _block_flow(generator, *parts[0], t)
    out = np.zeros_like(generator)
    for idx, basis in parts:
        out[np.ix_(idx, idx)] = _block_flow(generator, idx, basis, t)
    return out


def propagator_apply(generator, times, x):
    """e^{tL} x for a vector x at each t in times, one row per time.

    Blocks as in propagator: a rotation block maps x into its frame and home once
    for all times, an eig block sums its fold (O(n^2) per time, no n x n
    propagator), one past the gate multiplies x by its expm.  One hash, one horizon check.
    """
    times = [float(t) for t in times]
    x = np.asarray(x, dtype=float)
    out = np.empty((len(times), x.shape[0]))
    for idx, basis in _parts(generator, max(map(abs, times), default=0.0)):
        if isinstance(basis, RotationBasis):
            z = np.repeat(frame_map(basis.blocks, x[idx, None], inverse=True), len(times), axis=1)
            out[:, idx] = frame_map(basis.blocks, basis.turn(np.array(times), z)).T
        else:
            for row, t in zip(out, times):
                row[idx] = basis.apply(t, x[idx]) if basis is not None else _expm(generator, idx, t) @ x[idx]
    return out


def _block_flow(generator, idx, basis, t, increment=False):
    """e^{tA} (e^{tA} - I with increment) of A = generator[idx, idx]: B R_t B^-1 from a rotation basis, else fold or expm."""
    if isinstance(basis, RotationBasis):
        return frame_map(basis.blocks, basis.turn(t, basis.inverse(idx.size), increment))
    if basis is not None:
        return basis.propagator(t, increment)
    e = _expm(generator, idx, t)
    return e - np.eye(idx.size) if increment else e


def symmetrize(a):
    return 0.5 * (a + a.T)


def is_identity(a):
    """np.array_equal(a, np.eye(n)) for an n x n array a, without forming the identity.

    The diagonal is checked first, in O(n).  In C order the n^2 - 1 entries
    after a[0, 0] fall into n - 1 rows of n + 1 that each end on the next
    diagonal entry, so the first n of each row are the off-diagonal entries.
    """
    n = a.shape[0]
    if a.shape != (n, n) or not (np.diagonal(a) == 1.0).all():
        return False
    return not a.reshape(-1)[1:].reshape(n - 1, n + 1)[:, :n].any()


def frozen(a):
    """A C-contiguous float64 copy of a whose data live in a bytes object, so that no one can make
    it writable again: _content_key keeps the key of such an array while it lives."""
    a = np.ascontiguousarray(a, dtype=float)
    return np.frombuffer(a.tobytes(), dtype=float).reshape(a.shape)


def spd_inverse(mat):
    """Inverse of an SPD matrix as C^-T C^-1 from its Cholesky factor C (numpy's cholesky).

    Raises LinAlgError when mat is not positive definite.
    """
    c_inv = np.linalg.inv(np.linalg.cholesky(mat))
    return symmetrize(c_inv.T @ c_inv)


def spd_sqrt(mat):
    """Symmetric square root of an SPD matrix via eigendecomposition."""
    n = mat.shape[0]
    if is_identity(mat):
        return np.eye(n)
    w, v = np.linalg.eigh(mat)
    if w[0] <= 0.0:
        raise np.linalg.LinAlgError(
            f"matrix not positive definite (lambda_min = {w[0]:.3e})"
        )
    return symmetrize((v * np.sqrt(w)) @ v.T)


# A basis carries Q into its modes and back at about kappa^2 * eps of relative
# accuracy: below 1e-9 here.  The power-iteration 2-norm kappa of an eig basis
# reads about 1e16 on the Jordan block [[-1, 1], [0, -1]] and 2.194 to 2.209
# on the 16 to 256+1+256 chains in (q, p) order (1-norm: 77 to 1165).  Skew
# blocks read 1 and oscillator blocks sqrt(cond G) exactly (128+1+128: 2.2360).
MODAL_KAPPA_LIMIT = 1.0e3


@dataclass(frozen=True, eq=False)
class ModalBasis:
    """Folded eig basis of a real block: e^{tA} = Re sum_j c_j v_j e^{lambda_j t} w_j'.

    One member of each conjugate pair is kept (c_j = 2) beside the real
    eigenvalues (c_j = 1); v_j are columns of V and w_j rows of V^-1, stored
    as real and imaginary parts.  kappa is the gate's estimate.
    """

    lam: np.ndarray
    weight: np.ndarray
    v_re: np.ndarray
    v_im: np.ndarray
    w_re: np.ndarray
    w_im: np.ndarray
    kappa: float
    route = "eig"

    def propagator(self, t, increment=False):
        """Re sum_j c_j v_j e^{t lambda_j} w_j' = e^{tA}; with increment, expm1 in place of exp gives e^{tA} - I."""
        e = self.weight * (np.expm1 if increment else np.exp)(t * self.lam)
        p_re = self.v_re * e.real - self.v_im * e.imag
        p_im = self.v_re * e.imag + self.v_im * e.real
        return p_re @ self.w_re - p_im @ self.w_im

    def apply(self, t, x):
        """e^{tA} x = Re sum_j c_j v_j e^{t lambda_j} (w_j' x), O(n^2) for a vector x."""
        c = self.weight * np.exp(t * self.lam) * (self.w_re @ x + 1j * (self.w_im @ x))
        return self.v_re @ c.real - self.v_im @ c.imag


@dataclass(frozen=True, eq=False)
class RotationBasis:
    """A block whose modes turn in real pairs: e^{tA} = B R_t B^-1 with B = O S^-1 the frame of blocks.

    blocks are (rows, O_k, s_k) for frame_map: [X N Y] for a skew block, and
    (Q, None), (Q, w) on the halves of an oscillator block.  The frame rows
    z = [a, b] hold the m = freq.size modes and the partners of the first
    n - m; the columns of B = [X Y] satisfy A x_k = w_k y_k, A y_k = -w_k x_k,
    and the last 2m - n modes are flat (w = 0, no partner).
    """

    freq: np.ndarray
    blocks: tuple
    kappa: float
    route: str

    def turn(self, t, z, increment=False):
        """R_t z for the rows z = [a, b] of the frame (R_t - I with increment), O(n) per column.

        The flat modes stay put.  The increment takes -2 sin^2(tw/2) = cos tw - 1
        in place of cos tw.  t may be an array, one time per column of z.  The
        result has the memory layout of z, so a transposed view costs no copy.
        """
        tw = t * self.freq[:, None]
        c, s = -2.0 * np.sin(0.5 * tw) ** 2 if increment else np.cos(tw), np.sin(tw)
        m = c.shape[0]
        p = z.shape[0] - m
        a, b = z[:m], z[m:]
        out = np.empty_like(z)
        np.multiply(c, a, out=out[:m])
        out[:p] -= s[:p] * b
        np.multiply(s[:p], a[:p], out=out[m:])
        out[m:] += c[:p] * b
        return out

    def inverse(self, n):
        """B^-1 as an n x n array: the view O' of a single unscaled block, else its blocks S O' scattered."""
        if len(self.blocks) == 1 and self.blocks[0][2] is None:
            return self.blocks[0][1].T
        out = np.zeros((n, n))
        for rows, o, s in self.blocks:
            out[rows, rows] = (o if s is None else o * s).T
        return out

    def twin(self):
        """The basis of -A for a skew block: x_k and y_k trade places, [X N Y] becomes [Y N X]."""
        (rows, o, _), = self.blocks
        m, p = self.freq.size, o.shape[0] - self.freq.size
        o = np.concatenate([o[:, m:], o[:, p:m], o[:, :p]], axis=1)
        return RotationBasis(freq=self.freq, blocks=((rows, o, None),), kappa=1.0, route="unitary")


def frame_map(blocks, z, inverse=False, transpose=False):
    """B z for the frame B = O_k S_k^-1 on the rows of each of blocks (rows, O_k, s_k), S_k = diag(s_k).

    With inverse B^-1 z = S O'z, with transpose B'z = S^-1 O'z, with both B^-T z = O S z; s_k None
    means S_k = I, and B = I outside the blocks.  z has two axes; each product is written straight
    into its output rows of a new C-contiguous array.
    """
    covered = sum(r.stop - r.start if isinstance(r, slice) else r.size for r, _, _ in blocks)
    out = np.empty(z.shape) if covered == z.shape[0] else z.copy()
    first = inverse == transpose   # O acts after the scale (B, B^-T), else O' before it
    for rows, o, s in blocks:
        scale = None if s is None else (s if inverse else 1.0 / s)[:, None]
        x = z[rows] * scale if first and scale is not None else z[rows]
        view = isinstance(rows, slice)
        y = np.matmul(o if first else o.T, x, out=out[rows] if view else None)
        if scale is not None and not first:
            y *= scale
        if not view:
            out[rows] = y
    return out


def _norm2_estimate(a, iterations=20):
    """||a||_2 of a real matrix from below, by power iteration on a'a from a fixed start vector."""
    x = np.random.default_rng(0).standard_normal(a.shape[1])
    x /= np.linalg.norm(x)
    sigma = 0.0
    for _ in range(iterations):
        y = a @ x
        sigma = float(np.linalg.norm(y))
        x = y @ a
        size = np.linalg.norm(x)
        if size == 0.0:
            break
        x /= size
    return sigma


def _oscillator_basis(block):
    """The rotation basis of a block that is exactly [[0, -J], [I, 0]] with J symmetric positive definite, else None.

    Its pairs a = Q'p, b = W Q'q give B = diag(Q, Q W^-1), with singular values 1 and 1/w_k, so kappa
    is exactly max(1, w_max)/min(1, w_min): sqrt(cond G) for the energy form G = diag(I, J) that A keeps.
    """
    n = block.shape[0]
    h = n // 2
    if (n % 2 or block[:h, :h].any() or block[h:, h:].any() or not is_identity(block[h:, :h])
            or not np.array_equal(block[:h, h:], block[:h, h:].T)):
        return None
    w2, q = np.linalg.eigh(-block[:h, h:])
    if not w2[0] > 0.0:
        return None
    w = np.sqrt(w2)
    return RotationBasis(freq=w, blocks=((slice(0, h), q, None), (slice(h, n), q, w)),
                         kappa=max(1.0, float(w[-1])) / min(1.0, float(w[0])), route="oscillator")


def _skew_basis(block):
    """The rotation basis of a skew block, or None when eigh(iA) does not pair its frequencies.

    Frequencies within n eps max|w| of zero are roundoff, whatever their
    sign: their eigenvectors U0 span a subspace closed under conjugation, and
    the leading left singular vectors of [Re U0, Im U0] give the flat modes.
    x_k = sqrt(2) Re u_k and y_k = sqrt(2) Im u_k for w_k > 0 complete the real
    normal form (Horn and Johnson, Matrix Analysis, 2nd ed., 2.5): [X N Y] is orthogonal.
    """
    w, u = np.linalg.eigh(1j * block)
    tol = block.shape[0] * np.finfo(float).eps * max(-w[0], w[-1])
    pos, null = w > tol, np.abs(w) <= tol
    if np.count_nonzero(w < -tol) != np.count_nonzero(pos):
        return None
    x = math.sqrt(2.0) * u[:, pos]
    u0 = u[:, null]
    flat = np.linalg.svd(np.concatenate([u0.real, u0.imag], axis=1), full_matrices=False)[0][:, :u0.shape[1]]
    o = np.concatenate([x.real, flat, x.imag], axis=1)
    return RotationBasis(freq=np.concatenate([w[pos], np.zeros(flat.shape[1])]),
                         blocks=((slice(0, block.shape[0]), o, None),), kappa=1.0, route="unitary")


def _decompose(block):
    """(basis or None, kappa): a RotationBasis for a skew block or an oscillator block
    within the gate, else a ModalBasis, or None past the gate.

    LAPACK returns a conjugate pair as adjacent eigenvalues, positive imaginary
    part first, with v_j = x_j + i x_{j+1} for two real columns of X.  X is V
    times a block-diagonal unitary scaled by 1 or 1/sqrt(2), so kappa(X) is
    within sqrt(2) of kappa(V); the gate reads kappa(X), and solves stay real.
    """
    basis = _skew_basis(block) if np.array_equal(block.T, -block) else _oscillator_basis(block)
    if basis is not None and basis.kappa <= MODAL_KAPPA_LIMIT:
        return basis, basis.kappa
    try:
        lam, v = np.linalg.eig(block)
        lam = lam.astype(complex)
        second = lam.imag < 0.0
        x = np.where(second, -v.imag, v.real)
        del v
        x_inv = np.linalg.inv(x)
    except np.linalg.LinAlgError:
        return None, math.inf
    kappa = _norm2_estimate(x) * _norm2_estimate(x_inv)
    if not kappa <= MODAL_KAPPA_LIMIT:
        return None, kappa
    keep = np.flatnonzero(~second)
    pair = lam[keep].imag > 0.0
    partner = keep[pair] + 1
    v_im = np.zeros((x.shape[0], keep.size))
    v_im[:, pair] = x[:, partner]
    w_re = x_inv[keep]
    w_re[pair] *= 0.5
    w_im = np.zeros((keep.size, x.shape[0]))
    w_im[pair] = -0.5 * x_inv[partner]
    basis = ModalBasis(lam=lam[keep], weight=np.where(pair, 2.0, 1.0), v_re=x[:, keep],
                       v_im=v_im, w_re=w_re, w_im=w_im, kappa=kappa)
    return basis, kappa


# One entry per generator, keyed by its shape and the SHA-256 of its bytes, so
# routing depends on content only and an array changed in place gets a fresh
# entry.  An entry holds the index groups of the generator's blocks with each
# block's basis (None past the gate) and gate kappa, and generator_norm_bound.
# At most MODAL_CACHE_ENTRIES entries live (least recently used first out);
# builds run under the lock, so concurrent callers decompose a generator once.
# The key of an array whose data no one can change (frozen: a Model's arrays,
# the D+ and D- of estimate_limit_covariance) is kept by identity while the
# array lives, so such a generator is hashed once.  Any other array is hashed
# on every lookup: one that is read-only but owns its data, or is a view of
# one, can be made writable again and changed.
MODAL_CACHE_ENTRIES = 8
_cache = OrderedDict()
_lock = threading.Lock()
_counts = {"hits": 0, "misses": 0, "fallbacks": 0}
_keys = {}   # id of an immutable array -> (weak reference to it, its key)


def _immutable(a):
    """The root of a's base chain is a bytes object, so a's data can never be written."""
    while isinstance(a, np.ndarray):
        a = a.base
    return isinstance(a, bytes)


def _content_key(generator):
    """(shape, SHA-256 hex digest) of a C-contiguous float64 array.

    Single dict reads and writes suffice: two threads that miss the memo at
    once hash the same content and store the same key.
    """
    if not _immutable(generator):
        return generator.shape, hashlib.sha256(generator).hexdigest()
    ident = id(generator)
    known = _keys.get(ident)
    if known is not None and known[0]() is generator:
        return known[1]
    key = generator.shape, hashlib.sha256(generator).hexdigest()
    _keys[ident] = (weakref.ref(generator, lambda _, ident=ident: _keys.pop(ident, None)), key)
    return key


def _decompose_blocks(generator, groups):
    """[(basis, kappa)] per index group.  A skew block A' = -A of an earlier
    skew block A (the doubling L + L') takes the twin of A's basis, no eigh."""
    built, skew = [], {}   # SHA-256 of a decomposed skew block -> its basis
    for idx in groups:
        block = generator if len(groups) == 1 else generator[np.ix_(idx, idx)]
        twin = skew.get(_digest(block.T)) if np.array_equal(block.T, -block) else None
        basis, kappa = (twin.twin(), twin.kappa) if twin is not None else _decompose(block)
        if basis is not None and basis.route == "unitary":
            skew[_digest(block)] = basis
        built.append((basis, kappa))
    return built


def _digest(a):
    return hashlib.sha256(np.ascontiguousarray(a)).digest()


def _parts(generator, t):
    """[(idx, basis)] for the blocks of a generator, after refusing |t| * generator_norm_bound past the horizon limit.

    The blocks are the connected components from dimension 256 on, else the
    whole generator; basis is a block's RotationBasis or ModalBasis, or None
    when it fails the gate.
    """
    generator = np.ascontiguousarray(generator, dtype=float)
    key = _content_key(generator)
    with _lock:
        entry = _cache.get(key)
        if entry is None:
            n = generator.shape[0]
            groups = (_connected_components(generator) if n >= 256 else None) or [np.arange(n)]
            built = _decompose_blocks(generator, groups)
            parts = [(idx, basis) for idx, (basis, _) in zip(groups, built)]
            entry = _cache[key] = (parts, [kappa for _, kappa in built], generator_norm_bound(generator))
            _counts["misses"] += 1
            _counts["fallbacks"] += sum(basis is None for _, basis in parts)
            while len(_cache) > MODAL_CACHE_ENTRIES:
                _cache.popitem(last=False)
        else:
            _counts["hits"] += 1
            _cache.move_to_end(key)
    parts, _, bound = entry
    reach = abs(t) * bound
    if reach > EXPM_HORIZON_LIMIT:
        raise AccuracyError(
            f"|t|*||L|| = {reach:.3g} exceeds {EXPM_HORIZON_LIMIT:.0e}; use a smaller horizon"
        )
    return parts


def _rows(idx):
    """A slice for ascending indices without gaps, else the index array itself."""
    return slice(idx[0], idx[-1] + 1) if idx[-1] - idx[0] + 1 == idx.size else idx


def frame_maps(generator):
    """The blocks of frame_map's B with e^{tL} = B R_t B^-1 for the R_t of turner: the rotation
    bases' blocks in the generator's rows, B = I on eig and expm blocks ([] for B = I)."""
    return [(_rows(idx[rows]), o, s) for idx, basis in _parts(generator, 0.0)
            if isinstance(basis, RotationBasis) for rows, o, s in basis.blocks]


def turner(generator, t, increment=False):
    """The map (z, transpose) -> R_t z, or R_t' z with transpose, on the rows z of the mode frame.

    R_t is e^{tL} in the coordinates of frame_maps: a rotation block turns
    its mode pairs by real cos/sin (R_t' = R_{-t} there), an eig or expm block
    multiplies by its propagator, built at most once per turner.  With
    increment, R_t - I in place of R_t, from -2 sin^2 and the block increment.
    A product from the right is a transposed view: z R_t = (R_t' z')'.  The
    horizon is checked here, through _parts.
    """
    if t == 0.0:
        return lambda z, transpose=False: np.zeros_like(z) if increment else z.copy()
    parts = _parts(generator, t)
    flows = {}

    def block(k, idx, basis, z, transpose):
        if isinstance(basis, RotationBasis):
            return basis.turn(-t if transpose else t, z, increment)
        if k not in flows:
            flows[k] = _block_flow(generator, idx, basis, t, increment)
        return (flows[k].T if transpose else flows[k]) @ z

    def turn(z, transpose=False):
        if len(parts) == 1:
            return block(0, *parts[0], z, transpose)
        out = np.empty_like(z)
        for k, (idx, basis) in enumerate(parts):
            rows = _rows(idx)
            out[rows] = block(k, idx, basis, z[rows], transpose)
        return out
    return turn


def modal_basis_info():
    """Generator lookups that hit and missed and blocks past the gate ('fallbacks') since import;
    live generator entries, and the bytes, kappa and route of each block of them.

    kappa lists the gate's estimate per block (exact for the rotation bases),
    inf where eig or inv failed; routes names each block's route: 'unitary'
    (skew), 'oscillator', 'eig', or 'expm' for a gate failure.
    """
    with _lock:
        entries = list(_cache.values())
        bases = [basis for parts, _, _ in entries for _, basis in parts]
        return {
            **_counts,
            "entries": len(entries),
            "bytes": sum(a.nbytes for basis in bases if basis is not None for a in _arrays(basis)),
            "kappa": [kappa for _, kappas, _ in entries for kappa in kappas],
            "routes": [basis.route if basis is not None else "expm" for basis in bases],
        }


def _arrays(basis):
    """The distinct arrays a basis holds: its fields and the factors of its rotation blocks."""
    held = [*vars(basis).values(), *(a for _, o, s in getattr(basis, "blocks", ()) for a in (o, s))]
    return {id(a): a for a in held if isinstance(a, np.ndarray)}.values()


# np.expm1(1j * x) gives the same bits but is about 25% slower on a 257 x 257 angle array
def _expm1i(x):
    """expm1(i x) = -2 sin^2(x/2) + i sin(x) for real x, from real sines."""
    return -2.0 * np.sin(0.5 * x) ** 2 + 1j * np.sin(x)


def _kernel(theta, t0, step):
    """m -> (1/m) sum_{i<m} e^{z t_i} = e^{z t0} expm1(z m step)/(m expm1(z step)) for z = i theta
    (1 where expm1(z step) == 0), with e^{z t0}/expm1(z step) built once for all m."""
    den = _expm1i(theta * step)
    flat = den == 0.0
    den[flat] = 1.0
    factor = (_expm1i(theta * t0) + 1.0) / den

    def at(m):
        k = factor * _expm1i(theta * (m * step)) / m
        k[flat] = 1.0
        return k
    return at


def flow_averages(generator, x, t0, step, counts):
    """A_m = (1/m) sum_{i<m} e^{t_i A} X e^{t_i A'} on t_i = t0 + i*step for each m in counts,
    as an iterator that yields them in the order of counts.

    The horizon is checked when it is called; each average is made when it
    is asked for and the iterator keeps no reference to one it has yielded,
    so a caller that drops each average before asking for the next holds one
    n x n average at a time.  When every block is a rotation basis, each pair
    of blocks (a block with itself included) is averaged in mode coordinates
    by _rotation_averages: with c = a + i b, X has the mode moments
    H = E[c c^*], turning as e^{i(w_j - w_k)t}, and S = E[c c^T], turning as
    e^{i(w_j + w_k)t}, so each average multiplies them by the kernels of
    _kernel and maps the averaged moments of (a, b) home by real products: no
    complex n x n array.  A generator with an eig block, or one past the gate,
    walks the grid once and then yields (_walked_averages).
    """
    counts = [int(m) for m in counts]
    parts = _parts(generator, t0)
    if not all(isinstance(basis, RotationBasis) for _, basis in parts):
        return _walked_averages(generator, x, t0, step, counts)
    if len(parts) == 1:
        return _rotation_averages(parts[0][1], parts[0][1], x, t0, step, counts)
    return _assembled_averages(parts, x, t0, step, counts)


def _assembled_averages(parts, x, t0, step, counts):
    """flow_averages over several rotation blocks: one _rotation_averages per pair of blocks,
    and per count one array assembled from the next average of each pair."""
    pairs = [(np.ix_(ia, ib), _rotation_averages(left, right, x[np.ix_(ia, ib)], t0, step, counts))
             for ia, left in parts for ib, right in parts]
    for _ in counts:
        out = np.empty(x.shape)
        for ix, averages in pairs:
            out[ix] = next(averages)
        yield out
        del out   # so that the caller's drop frees it before the next count


def _rotation_averages(left, right, x, t0, step, counts):
    """flow_averages of e^{t_i A} X e^{t_i B'} for blocks A and B with rotation bases left and right.

    It keeps the moments H' and S' of X (m_b x m_a complex, m the mode
    counts) and, per count, makes the kernel products, their sum and
    difference and the two half-way maps home inside average(m), so that
    all of them are freed before the average is yielded.
    """
    def pairs(basis, y):   # (a, b) = B^-1 y, b with a zero row per flat mode (it has no partner)
        z, m = frame_map(basis.blocks, y, inverse=True), basis.freq.size
        return z[:m], np.pad(z[m:], ((0, 2 * m - len(z)), (0, 0))) if 2 * m > len(z) else z[m:]

    def home(basis, a, b, n):
        return frame_map(basis.blocks, np.concatenate([a, b[:n - basis.freq.size]]))

    # the mode moments, transposed: aa = (F_a X F_a')', ab = (F_a X F_b')' and so on
    rows, cols = x.shape
    pa, pb = pairs(left, x)
    del x   # a block of the multi-block route is a copy: not kept for the counts
    aa, ab = pairs(right, pa.T)
    ba, bb = pairs(right, pb.T)
    del pa, pb
    h = (aa + bb) + 1j * (ba - ab)   # H'
    s = (aa - bb) + 1j * (ab + ba)   # S'
    del aa, ab, ba, bb
    w_left, w_right = left.freq, right.freq[:, None]
    diff, total = _kernel(w_left - w_right, t0, step), _kernel(w_left + w_right, t0, step)

    def average(m):
        hk, sk = h * diff(m), s * total(m)
        p, q = hk + sk, sk - hk
        del hk, sk
        # the averaged moments: (p.real, q.imag) / 2 on the a side, (p.imag, -q.real) / 2 on the b side
        u = home(right, 0.5 * p.real, 0.5 * q.imag, cols)
        v = home(right, 0.5 * p.imag, -0.5 * q.real, cols)
        del p, q
        return home(left, u.T, v.T, rows)

    for m in counts:
        yield average(m)


def _walked_averages(generator, x, t0, step, counts):
    """flow_averages by walking the grid with two propagators: any generator, defective too.
    The walk comes first, so every average of counts is kept until it is yielded."""
    e_step = propagator(generator, step)
    e_0 = propagator(generator, t0)
    d = e_0 @ x @ e_0.T
    acc = np.zeros_like(x)
    last = max(counts)
    sums = {}
    for i in range(1, last + 1):
        acc += d
        if i in counts:
            sums[i] = acc / i
        if i < last:
            d = e_step @ d @ e_step.T
    del d, acc
    for k, m in enumerate(counts):
        yield sums[m] if m in counts[k + 1:] else sums.pop(m)


def parse_grid(text):
    """Parse a 'lo:hi:n' grid specification into a strictly increasing array."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must look like lo:hi:n, got {text!r}")
    lo, hi, num = float(parts[0]), float(parts[1]), int(parts[2])
    if num < 1 or (num > 1 and hi <= lo):
        raise ValueError(f"grid {text!r} is empty or not strictly increasing")
    return np.linspace(lo, hi, num)
