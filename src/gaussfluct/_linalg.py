"""Shared dense linear algebra helpers, on numpy's own LAPACK.

Everything here operates on plain float64 numpy arrays and returns new
arrays; inputs are never modified.  Every question about the linear flow
(the propagator e^{tL}, its increment e^{tL} - I, its action e^{tL} x on a
vector and the window average of D_t) is answered from one cached eigenbasis
per block of the generator.  The route is read from the block's content:
a unitary basis from the Hermitian eigh(iA) for a skew block A; a real
oscillator basis from eigh(J) for a second-order block [[0, -J], [I, 0]]
with J symmetric positive definite (the harmonic chains); a folded eig basis
otherwise.  Scaling-and-squaring (and a walk of the grid for the window
average) is the fallback for a block whose eig basis fails the conditioning
gate; it is the only helper here that imports scipy, inside _expm, so the
module and every block that passes the gate load numpy alone.
"""

import hashlib
import math
import threading
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


def _checked_blocks(generator, t):
    """_blocks(generator) after refusing |t| * generator_norm_bound(generator) past the horizon limit."""
    blocks, bound = _blocks(generator)
    reach = abs(t) * bound
    if reach > EXPM_HORIZON_LIMIT:
        raise AccuracyError(
            f"|t|*||L|| = {reach:.3g} exceeds {EXPM_HORIZON_LIMIT:.0e}; use a smaller horizon"
        )
    return blocks


def _expm(a):
    """scipy's scaling and squaring with diagonal Pade order 13, for a block that fails the gate."""
    from scipy.linalg import expm

    return expm(a)


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


def _blocks(generator):
    """(blocks, bound): blocks lists (idx, key), the index groups handled separately with
    the content key of each block, and bound is generator_norm_bound(generator).

    The groups are the connected components from dimension 256 on.  Both are
    computed once per generator content and cached beside the eigenbases,
    under the same bound and lock.
    """
    key = _content_key(generator)
    with _bases_lock:
        entry = _partitions.get(key)
        if entry is None:
            n = generator.shape[0]
            groups = _connected_components(generator) if n >= 256 else None
            if groups is None:
                blocks = [(np.arange(n), key)]
            else:
                blocks = [(idx, _content_key(generator[np.ix_(idx, idx)])) for idx in groups]
            entry = _partitions[key] = (blocks, generator_norm_bound(generator))
            while len(_partitions) > MODAL_CACHE_ENTRIES:
                _partitions.popitem(last=False)
        else:
            _partitions.move_to_end(key)
        return entry


def propagator(generator, t):
    """exp(t * generator), one connected component of the sparsity graph at a time.

    A block with a cached eigenbasis is exponentiated as
    Re(V e^{t Lambda} V^-1) from it, V^-1 = U^H for the unitary basis U of a
    skew block (Moler and Van Loan, SIAM Rev. 45 (2003), method 14), or in
    real cos/sin blocks for an oscillator block; a block
    whose eig basis fails the kappa gate by scipy's scaling and squaring
    with diagonal Pade order 13.  Components are split from dimension 256
    on, an exact identity that avoids cubing the full dimension.  The result
    is a real C-contiguous array that owns its data.
    """
    return _by_blocks(generator, t, increment=False)


def propagator_increment(generator, t):
    """exp(t * generator) - I without the cancellation of that difference at small |t|.

    A modal block sums expm1(t lambda_j) in place of e^{t lambda_j}, since
    V V^-1 (folded, or U U^H) is I, and an oscillator block takes
    -2 sin^2(tw/2) in place of cos(tw); any other block takes expm(tA) - I.  The
    block loop and the result's contract are those of propagator.
    """
    return _by_blocks(generator, t, increment=True)


def propagator_apply(generator, times, x):
    """e^{tL} x for a vector x at each t in times, one row per time.

    Blocks as in propagator; a block with a cached eigenbasis costs O(n^2)
    per time (its basis's apply) and forms no n x n propagator, a block that
    fails the gate multiplies x by its expm.  The generator is hashed and
    its horizon checked once for all times.
    """
    times = [float(t) for t in times]
    x = np.asarray(x, dtype=float)
    out = np.empty((len(times), x.shape[0]))
    blocks = _checked_blocks(generator, max(map(abs, times), default=0.0))
    for idx, key in blocks:
        block = generator if len(blocks) == 1 else generator[np.ix_(idx, idx)]
        basis = _eigenbasis(block, key)
        for row, t in zip(out, times):
            row[idx] = basis.apply(t, x[idx]) if basis is not None else _expm(t * block) @ x[idx]
    return out


def _by_blocks(generator, t, increment):
    """e^{tL}, or e^{tL} - I when increment is set, assembled block by block."""
    n = generator.shape[0]
    if t == 0.0:
        return np.zeros((n, n)) if increment else np.eye(n)
    blocks = _checked_blocks(generator, t)
    if len(blocks) == 1:
        return _block_flow(generator, blocks[0][1], t, increment)
    out = np.zeros_like(generator)
    for idx, key in blocks:
        out[np.ix_(idx, idx)] = _block_flow(generator[np.ix_(idx, idx)], key, t, increment)
    return out


def _block_flow(block, key, t, increment):
    basis = _eigenbasis(block, key)
    if basis is not None:
        return basis.propagator(t, increment)
    e = _expm(t * block)
    return e - np.eye(block.shape[0]) if increment else e


def symmetrize(a):
    return 0.5 * (a + a.T)


def is_identity(a):
    """np.array_equal(a, np.eye(n)) for an n x n array a, without forming the identity."""
    n = a.shape[0]
    return a.shape == (n, n) and np.count_nonzero(a) == n and bool((np.diagonal(a) == 1.0).all())


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


# The modal route carries Q into the eigenbasis and back through V and V^-1,
# which costs about kappa(V)^2 * eps of relative accuracy: below 1e-9 here.
# For an eig basis, kappa is the 2-norm ||X||_2 ||X^-1||_2 of the real
# eigenvector matrix X, within sqrt(2) of kappa(V) (see _decompose),
# estimated from below by power iteration (_norm2_estimate): about 1e16 on
# the Jordan block [[-1, 1], [0, -1]], and 2.194 to 2.209 on the 16 to
# 256+1+256 chains when they take this route.  The 1-norm product grows like
# the dimension for delocalized eigenvectors (77 to 1165 on the same chains),
# so it is not used.  Skew blocks (the toys) need no gate: their basis is
# unitary, kappa exactly 1.  The chains take the oscillator basis, whose
# kappa is exact, sqrt(cond G) for the conserved energy form G = diag(I, J):
# 2.2360 on the 128+1+128 chain.
MODAL_KAPPA_LIMIT = 1.0e3


@dataclass(frozen=True, eq=False)
class ModalBasis:
    """Folded eig basis of a real block: e^{tA} = Re sum_j c_j v_j e^{lambda_j t} w_j'.

    One member of each conjugate pair is kept (c_j = 2) beside the real
    eigenvalues (c_j = 1); v_j are columns of V and w_j rows of V^-1,
    stored as real and imaginary parts so that the propagator runs in real
    arithmetic.  kappa is the gate's estimate (see MODAL_KAPPA_LIMIT).  A
    skew block takes a UnitaryBasis instead, an oscillator block an
    OscillatorBasis.
    """

    lam: np.ndarray
    weight: np.ndarray
    v_re: np.ndarray
    v_im: np.ndarray
    w_re: np.ndarray
    w_im: np.ndarray
    kappa: float
    route = "eig"

    @property
    def nbytes(self):
        return sum(a.nbytes for a in (self.lam, self.weight, self.v_re, self.v_im, self.w_re, self.w_im))

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

    def unfolded(self):
        """(Lambda, V, V^-1) over every eigenvalue, the dropped partners rebuilt as conjugates."""
        pair = self.weight == 2.0
        v = self.v_re + 1j * self.v_im
        w = self.w_re + 1j * self.w_im
        return (
            np.concatenate([self.lam, self.lam[pair].conj()]),
            np.concatenate([v, v[:, pair].conj()], axis=1),
            np.concatenate([w, w[pair].conj()], axis=0),
        )


@dataclass(frozen=True, eq=False)
class UnitaryBasis:
    """Eigenbasis of a real skew block A from the Hermitian eigh(iA) = U diag(w) U^H.

    A = U diag(-i w) U^H with U unitary, so V^-1 = U^H is read from U and
    never stored, and kappa(U) is exactly 1.  Every eigenvalue is kept with
    weight 1; U is stored as real and imaginary parts and w as real
    frequencies, which is no more than the eig fold of a block of the same
    size holds.
    """

    freq: np.ndarray
    u_re: np.ndarray
    u_im: np.ndarray
    kappa = 1.0
    route = "unitary"

    @property
    def nbytes(self):
        return self.freq.nbytes + self.u_re.nbytes + self.u_im.nbytes

    def propagator(self, t, increment=False):
        """Re U e^{-i t w} U^H = e^{tA}; with increment, expm1 in place of exp gives e^{tA} - I."""
        e = (np.expm1 if increment else np.exp)(-1j * t * self.freq)
        p_re = self.u_re * e.real - self.u_im * e.imag
        p_im = self.u_re * e.imag + self.u_im * e.real
        return p_re @ self.u_re.T + p_im @ self.u_im.T

    def apply(self, t, x):
        """e^{tA} x = Re U e^{-i t w} U^H x, O(n^2) for a vector x."""
        c = np.exp(-1j * t * self.freq) * (x @ self.u_re - 1j * (x @ self.u_im))
        return self.u_re @ c.real - self.u_im @ c.imag

    def unfolded(self):
        """(Lambda, U, U^H) over every eigenvalue."""
        u = self.u_re + 1j * self.u_im
        return -1j * self.freq, u, u.conj().T


@dataclass(frozen=True, eq=False)
class OscillatorBasis:
    """Real eigenbasis of a second-order block A = [[0, -J], [I, 0]] from eigh(J) = Q diag(w^2) Q'.

    A conserves G = diag(I, J), and its modes are +-i w_k.  With C = cos tW,
    S = sin tW and W = diag(w), e^{tA} = [[Q C Q', -Q W S Q'], [Q W^-1 S Q', Q C Q']]
    is real, three products of size h^3 for h = n/2; only w and Q are stored.
    The unfolded V = [[iQW, -iQW], [Q, Q]] has singular values sqrt(2) w_k and
    sqrt(2), so its 2-norm kappa is exactly max(1, w_max)/min(1, w_min),
    which is sqrt(cond G).
    """

    freq: np.ndarray
    q: np.ndarray
    route = "oscillator"

    @property
    def kappa(self):
        return max(1.0, float(self.freq[-1])) / min(1.0, float(self.freq[0]))

    @property
    def nbytes(self):
        return self.freq.nbytes + self.q.nbytes

    def propagator(self, t, increment=False):
        """e^{tA} in real cos/sin blocks; with increment, C - I = -2 sin^2(tW/2) gives e^{tA} - I."""
        tw = t * self.freq
        s = np.sin(tw)
        c = -2.0 * np.sin(0.5 * tw) ** 2 if increment else np.cos(tw)
        q, h = self.q, self.freq.size
        out = np.empty((2 * h, 2 * h))
        out[:h, :h] = out[h:, h:] = (q * c) @ q.T
        out[:h, h:] = (q * (-self.freq * s)) @ q.T
        out[h:, :h] = (q * (s / self.freq)) @ q.T
        return out

    def apply(self, t, x):
        """e^{tA} x through Q' x, O(n^2) for a vector x."""
        tw = t * self.freq
        c, s = np.cos(tw), np.sin(tw)
        h = self.freq.size
        a, b = x[:h] @ self.q, x[h:] @ self.q
        return np.concatenate([self.q @ (c * a - self.freq * s * b), self.q @ (s / self.freq * a + c * b)])

    def unfolded(self):
        """(Lambda, V, V^-1) with Lambda = (i w, -i w), V = [[iQW, -iQW], [Q, Q]] and its analytic inverse."""
        q, qt = self.q, self.q.T
        qw = q * (1j * self.freq)
        wq = qt * (-0.5j / self.freq)[:, None]
        return (
            np.concatenate([1j * self.freq, -1j * self.freq]),
            np.block([[qw, -qw], [q, q]]),
            np.block([[wq, 0.5 * qt], [-wq, 0.5 * qt]]),
        )


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
    """The OscillatorBasis of a block that is exactly [[0, -J], [I, 0]] with J symmetric positive definite, else None."""
    n = block.shape[0]
    h = n // 2
    if n % 2 or block[:h, :h].any() or block[h:, h:].any() or not is_identity(block[h:, :h]):
        return None
    j = -block[:h, h:]
    if not np.array_equal(j, j.T):
        return None
    w2, q = np.linalg.eigh(j)
    if not w2[0] > 0.0:
        return None
    return OscillatorBasis(freq=np.sqrt(w2), q=q)


def _decompose(block):
    """(basis or None, kappa): a UnitaryBasis for a skew block, an OscillatorBasis for an
    oscillator block within the gate, else a ModalBasis or None.

    None when eig fails or kappa exceeds the gate.  For the eig route, LAPACK
    returns a conjugate pair as adjacent eigenvalues, the one with positive
    imaginary part first, with v_j = x_j + i x_{j+1} for two real columns of
    a real matrix X.  X is V times a block-diagonal unitary scaled
    by 1 (real eigenvalues) or 1/sqrt(2) (pairs), so kappa(X) is within
    sqrt(2) of kappa(V), and equal when the eigenvalues are all pairs or all
    real.  The gate reads kappa(X), and every solve stays real.
    """
    if np.array_equal(block.T, -block):
        freq, u = np.linalg.eigh(1j * block)
        return UnitaryBasis(freq=freq, u_re=u.real.copy(), u_im=u.imag.copy()), UnitaryBasis.kappa
    basis = _oscillator_basis(block)
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


# Eigenbases and generator partitions keyed by the shape and SHA-256 of an
# array's bytes, so routing depends on content only and an array changed in
# place gets a fresh entry.  At most MODAL_CACHE_ENTRIES entries of each kind
# live (least recently used first out); builds run under the lock, so
# concurrent callers decompose a block or partition a generator once.
MODAL_CACHE_ENTRIES = 8
_bases = OrderedDict()
_partitions = OrderedDict()
_bases_lock = threading.Lock()
_bases_counts = {"hits": 0, "misses": 0, "fallbacks": 0}


def _content_key(a):
    a = np.ascontiguousarray(a, dtype=float)
    return (a.shape, hashlib.sha256(a).hexdigest())


def _eigenbasis(block, key=None):
    """The cached UnitaryBasis, OscillatorBasis or ModalBasis of a generator block, or None when it fails the gate.

    key is the block's _content_key, when the caller already has it.
    """
    block = np.ascontiguousarray(block, dtype=float)
    if block.shape == (1, 1):
        one = np.ones((1, 1))
        return ModalBasis(lam=block[0].astype(complex), weight=np.ones(1), v_re=one,
                          v_im=0.0 * one, w_re=one, w_im=0.0 * one, kappa=1.0)
    if key is None:
        key = _content_key(block)
    with _bases_lock:
        entry = _bases.get(key)
        if entry is None:
            entry = _bases[key] = _decompose(block)
            _bases_counts["misses"] += 1
            _bases_counts["fallbacks"] += entry[0] is None
            while len(_bases) > MODAL_CACHE_ENTRIES:
                _bases.popitem(last=False)
        else:
            _bases_counts["hits"] += 1
            _bases.move_to_end(key)
        return entry[0]


def modal_basis_info():
    """Hits, misses and gate failures ('fallbacks') since import; live entries, bytes, kappa and routes.

    kappa lists the gate's estimate per live entry (exact for the unitary and
    oscillator bases), inf where eig or inv failed.  routes names each live
    entry's route: 'unitary', 'oscillator', 'eig', or 'expm' for a gate failure.
    """
    with _bases_lock:
        entries = list(_bases.values())
        return {
            **_bases_counts,
            "entries": len(entries),
            "bytes": sum(b.nbytes for b, _ in entries if b is not None),
            "kappa": [k for _, k in entries],
            "routes": [b.route if b is not None else "expm" for b, _ in entries],
        }


def _modal_parts(generator, blocks):
    """[(idx, Lambda, V, V^-1)] unfolded per block of _blocks, or None when any block fails the gate."""
    parts = []
    for idx, key in blocks:
        basis = _eigenbasis(generator[np.ix_(idx, idx)], key)
        if basis is None:
            return None
        parts.append((idx, *basis.unfolded()))
    return parts


def _real_product(a, b):
    """Re(a @ b) in two real products; the copies give BLAS contiguous operands."""
    return a.real.copy() @ b.real.copy() - a.imag.copy() @ b.imag.copy()


def flow_averages(generator, x, t0, step, counts):
    """A_m = (1/m) sum_{i<m} e^{t_i A} X e^{t_i A'} on t_i = t0 + i*step, for each m in counts.

    Each average is one Hadamard product in the eigenbasis,
    A_m = V [(V^-1 X V^-T) o S_m] V' with the geometric sum
    S_m,jk = e^{z t0} expm1(z m step)/expm1(z step)/m, z = lambda_j + lambda_k
    (S_m,jk = 1 where expm1(z step) == 0), taken per pair of generator blocks.
    When a block fails the kappa gate the grid is walked instead,
    D_{i+1} = E D_i E' with E = e^{step A}.
    """
    counts = [int(m) for m in counts]
    parts = _modal_parts(generator, _checked_blocks(generator, t0))
    if parts is None:
        return _walked_averages(generator, x, t0, step, counts)
    n = x.shape[0]
    outs = [np.empty((n, n)) for _ in counts]
    for ia, lam_a, v_a, w_a in parts:
        for ib, lam_b, v_b, w_b in parts:
            core = w_a @ x[np.ix_(ia, ib)] @ w_b.T
            z = lam_a[:, None] + lam_b[None, :]
            den = np.expm1(z * step)
            flat = den == 0.0
            den[flat] = 1.0
            e_0 = np.exp(z * t0)
            for out, m in zip(outs, counts):
                # np.multiply keeps the operand order; the operator may swap the
                # operands to reuse the temporary and round differently.
                s = np.multiply(e_0, np.expm1(z * (m * step))) / den
                s[flat] = m
                out[np.ix_(ia, ib)] = _real_product(v_a @ (core * (s / m)), v_b.T)
    return outs


def _walked_averages(generator, x, t0, step, counts):
    """flow_averages by walking the grid with two propagators: any generator, defective too."""
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
    return [sums[m] for m in counts]


def parse_grid(text):
    """Parse a 'lo:hi:n' grid specification into a strictly increasing array."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must look like lo:hi:n, got {text!r}")
    lo, hi, num = float(parts[0]), float(parts[1]), int(parts[2])
    if num < 1 or (num > 1 and hi <= lo):
        raise ValueError(f"grid {text!r} is empty or not strictly increasing")
    return np.linspace(lo, hi, num)
