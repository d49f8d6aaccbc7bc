"""Builders and analytic oracles: rank-one toy model and harmonic chains.

The toy model has a skew lattice-shift generator and covariance
I + lam * P_phi; its entropic functionals admit closed forms that stay exact
at finite dimension once the overlap (phi, e^{tL} phi) is measured from the
same finite matrix.  The chain couples left/right thermal blocks through a
single central oscillator; its asymptotic functionals have closed forms with
kappa = (sqrt(5)-1)/(2*pi).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from ._linalg import propagator_apply
from .model import DomainError, Model, StructuralError
from .renyi import DomainInterval, EntropicFunctional

KAPPA = (math.sqrt(5.0) - 1.0) / (2.0 * math.pi)


# ---------------------------------------------------------------------------
# toy model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ToySpec:
    """Rank-one toy model: size n, weight lam > -1, optional state doubling.

    Doubling replaces the state space K by K + K, the generator by
    L + L^T and phi by (phi, phi)/sqrt(2); the swap of the two copies then
    provides a time-reversal involution.
    """

    n: int
    lam: float
    doubled: bool = True
    phi_index: int | None = None

    def __post_init__(self):
        if self.n < 16:
            raise StructuralError("toy model needs n >= 16")
        if self.lam <= -1.0:
            raise StructuralError("toy model needs lam > -1")
        idx = self.n // 2 if self.phi_index is None else self.phi_index
        if not 0 <= idx < self.n:
            raise StructuralError(f"phi_index {idx} out of range for n={self.n}")
        object.__setattr__(self, "phi_index", idx)


def _shift_generator(n):
    """Skew tridiagonal lattice shift: +1 on the super-, -1 on the subdiagonal."""
    gen = np.zeros((n, n))
    i = np.arange(n - 1)
    gen[i, i + 1] = 1.0
    gen[i + 1, i] = -1.0
    return gen


@dataclass(frozen=True)
class ToyOracle:
    """Closed forms of the toy functionals, exact at finite n.

    All formulas are driven by the measured overlap c(t) = (phi, e^{tL} phi)
    taken from the same finite flow the generic code uses (the generator's
    cached basis, through propagator_apply), so the oracle and the generic
    route must agree to rounding.  Each overlap is computed once per time.
    """

    model: Model
    lam: float
    phi: np.ndarray
    _overlaps: dict = field(default_factory=dict, repr=False, compare=False)

    def overlap(self, t):
        t = float(t)
        if t not in self._overlaps:
            e_phi = propagator_apply(self.model.generator, [t], self.phi)[0]
            self._overlaps[t] = float(self.phi @ e_phi)
        return self._overlaps[t]

    @property
    def delta(self):
        if self.lam == 0.0:
            return math.inf
        return abs(0.5 + 1.0 / self.lam) - 0.5

    @property
    def delta_plus(self):
        if self.lam == 0.0:
            return math.inf
        return (1.0 + self.lam) / abs(self.lam)

    @property
    def bounds(self):
        lam_plus = max(self.lam, 0.0)
        lam_minus = max(-self.lam, 0.0)
        return (1.0 - lam_minus, 1.0 + lam_plus)

    def d_plus(self):
        return np.eye(self.model.dim)

    def delta_t(self, t):
        if self.lam == 0.0:
            return math.inf
        c2 = min(self.overlap(t) ** 2, 1.0)
        if c2 >= 1.0:
            return math.inf
        return math.sqrt(0.25 + (1.0 + self.lam) / (self.lam**2 * (1.0 - c2))) - 0.5

    def j_plus_radius(self, t):
        if self.lam == 0.0:
            return math.inf
        c2 = min(self.overlap(t) ** 2, 1.0)
        if c2 >= 1.0:
            return math.inf
        return (1.0 + self.lam) / (abs(self.lam) * math.sqrt(1.0 - c2))

    def e_t(self, t, alpha):
        c2 = min(self.overlap(t) ** 2, 1.0)
        arg = 1.0 + (self.lam**2 / (1.0 + self.lam)) * alpha * (1.0 - alpha) * (1.0 - c2)
        return -0.5 * math.log(arg) if arg > 0.0 else math.inf

    def e_t_plus(self, t, alpha):
        c2 = min(self.overlap(t) ** 2, 1.0)
        arg = 1.0 - (self.lam**2 / (1.0 + self.lam) ** 2) * alpha**2 * (1.0 - c2)
        return -0.5 * math.log(arg) if arg > 0.0 else math.inf

    def rate(self, s):
        """Reference rate function (1/2 + delta)|s| - s/2."""
        return (0.5 + self.delta) * abs(s) - 0.5 * s

    def rate_plus(self, s):
        """Stationary-state rate function delta_plus * |s|."""
        return self.delta_plus * abs(s)

    def limit_functional(self):
        """Limiting reference functional: 0 on (-delta, 1+delta), +inf outside."""
        d = self.delta
        dom = DomainInterval(lower=-d, upper=1.0 + d, kind="reference", delta_t=d)
        return EntropicFunctional(c=0.0, q=np.empty(0), w=0.0, domain=dom, meta="asymptotic")

    def limit_functional_ness(self):
        """Limiting stationary functional: 0 on (-delta_plus, delta_plus)."""
        d = self.delta_plus
        dom = DomainInterval(lower=-d, upper=d, kind="ness")
        return EntropicFunctional(c=0.0, q=np.empty(0), w=0.0, domain=dom, meta="asymptotic")


def build_toy(spec):
    """Build the toy Model and its oracle."""
    base = _shift_generator(spec.n)
    phi0 = np.zeros(spec.n)
    phi0[spec.phi_index] = 1.0
    if spec.doubled:
        n = 2 * spec.n
        gen = np.zeros((n, n))
        gen[: spec.n, : spec.n] = base
        gen[spec.n :, spec.n :] = base.T
        phi = np.concatenate([phi0, phi0]) / math.sqrt(2.0)
        theta = np.zeros((n, n))
        theta[: spec.n, spec.n :] = np.eye(spec.n)
        theta[spec.n :, : spec.n] = np.eye(spec.n)
    else:
        n = spec.n
        gen = base
        phi = phi0
        theta = None
    cov = np.eye(n) + spec.lam * np.outer(phi, phi)
    model = Model(
        dim=n,
        generator=gen,
        covariance=cov,
        time_reversal=theta,
        label=f"toy(n={spec.n}, lam={spec.lam}, doubled={spec.doubled})",
    )
    return model, ToyOracle(model=model, lam=spec.lam, phi=phi)


# ---------------------------------------------------------------------------
# harmonic chain
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChainSpec:
    """Finite chain with n_left + 1 + n_right sites at temperatures temps.

    The optional inhomogeneous couplings are (omega, kappa): omega has one
    pinning frequency per site, kappa has n_sites+1 spring constants, the
    k-th one coupling sites k-1 and k (boundary entries act against the
    Dirichlet zeros outside).
    """

    n_left: int
    n_right: int
    temps: tuple = (2.0, 1.0, 1.0)
    inhomogeneous: tuple | None = None

    def __post_init__(self):
        if self.n_left < 1 or self.n_right < 1:
            raise StructuralError("chain needs n_left >= 1 and n_right >= 1")
        if len(self.temps) != 3 or any(t <= 0 for t in self.temps):
            raise StructuralError("temps must be three positive numbers (T_left, T_center, T_right)")
        if self.inhomogeneous is not None:
            omega, kappa = self.inhomogeneous
            omega = np.asarray(omega, dtype=float)
            kappa = np.asarray(kappa, dtype=float)
            if omega.shape != (self.n_sites,) or kappa.shape != (self.n_sites + 1,):
                raise StructuralError(
                    f"inhomogeneous sequences must have shapes ({self.n_sites},) and ({self.n_sites + 1},)"
                )
            if (omega <= 0).any() or (kappa <= 0).any():
                raise StructuralError("inhomogeneous couplings must be positive")
            object.__setattr__(self, "inhomogeneous", (omega, kappa))

    @property
    def n_sites(self):
        return self.n_left + 1 + self.n_right

    @property
    def center(self):
        return self.n_left

    def coupling_arrays(self):
        if self.inhomogeneous is not None:
            return self.inhomogeneous
        return np.ones(self.n_sites), np.ones(self.n_sites + 1)


def _jacobi(omega, kappa):
    """Dirichlet Jacobi matrix diag(omega_k + kappa_k + kappa_{k+1}), off -kappa."""
    m = len(omega)
    j = np.diag(omega + kappa[:-1] + kappa[1:])
    i = np.arange(m - 1)
    j[i, i + 1] = -kappa[1:m]
    j[i + 1, i] = -kappa[1:m]
    return j


def _chain_site_temps(spec):
    tl, tc, tr = spec.temps
    return np.concatenate([np.full(spec.n_left, tl), [tc], np.full(spec.n_right, tr)])


def chain_jacobi(spec):
    """Full Dirichlet Jacobi matrix of the chain (3 on the diagonal when homogeneous)."""
    omega, kappa = spec.coupling_arrays()
    return _jacobi(omega, kappa)


def chain_energy_form(spec):
    """Quadratic form matrix of twice the Hamiltonian: identity on p, Jacobi on q."""
    ns = spec.n_sites
    h = np.zeros((2 * ns, 2 * ns))
    h[:ns, :ns] = np.eye(ns)
    h[ns:, ns:] = chain_jacobi(spec)
    return h


def chain_energy_form_left_neumann(spec):
    """Energy form of the left+center segment with a Neumann cut at the center.

    The p-part is the identity on sites <= center; the q-part is the Jacobi
    matrix on those sites with the coupling across the cut removed from the
    center diagonal (Neumann) and the usual Dirichlet condition kept at the
    truncated far-left edge.
    """
    ns = spec.n_sites
    nl = spec.n_left
    omega, kappa = spec.coupling_arrays()
    seg = nl + 1
    j_n = _jacobi(omega[:seg], kappa[: seg + 1])
    j_n[seg - 1, seg - 1] -= kappa[seg]  # drop the cross-cut spring from the diagonal
    h = np.zeros((2 * ns, 2 * ns))
    h[:seg, :seg] = np.eye(seg)
    h[ns : ns + seg, ns : ns + seg] = j_n
    return h


@dataclass(frozen=True)
class ChainOracle:
    """Closed-form asymptotics of the homogeneous chain.

    e(alpha) = -kappa * log(1 + ratio * alpha * (1-alpha)) on the interval
    (-delta_o, 1+delta_o) with ratio = (T_l - T_r)^2 / (T_l T_r), and the
    spectral measure consists of two atoms of mass kappa at the endpoints.
    """

    temps: tuple
    kappa: float = KAPPA
    echo_free_horizon: float = math.inf

    @property
    def ratio(self):
        tl, _, tr = self.temps
        return (tl - tr) ** 2 / (tl * tr)

    @property
    def omega_plus_sigma(self):
        return self.kappa * self.ratio

    @property
    def delta_o(self):
        tl, _, tr = self.temps
        if tl == tr:
            return math.inf
        return min(tl, tr) / abs(tl - tr)

    @property
    def nu_atoms(self):
        if not math.isfinite(self.delta_o):
            return []
        return [(-self.delta_o, self.kappa), (1.0 + self.delta_o, self.kappa)]

    def e_of_alpha(self, alpha):
        arg = 1.0 + self.ratio * alpha * (1.0 - alpha)
        return -self.kappa * math.log(arg) if arg > 0.0 else math.inf

    def e_second(self, alpha):
        """Second derivative of e, differentiated symbolically."""
        u = alpha * (1.0 - alpha)
        up = 1.0 - 2.0 * alpha
        denom = 1.0 + self.ratio * u
        return self.kappa * (2.0 * self.ratio * denom + (self.ratio * up) ** 2) / denom**2

    @property
    def clt_variance(self):
        return self.e_second(1.0)  # kappa * ratio * (2 + ratio)

    def limit_functional(self):
        """e(alpha) as the log-potential of nu_atoms: mass kappa at -delta_o and 1+delta_o."""
        q = [1.0 / r for r, _ in self.nu_atoms]
        return EntropicFunctional(c=0.0, q=q, w=self.kappa, meta="asymptotic")


def build_chain(spec):
    """Build the chain Model; homogeneous chains also get a ChainOracle.

    State ordering is (p, q).  The generator is [[0, -j], [I, 0]], the
    reference covariance is block diagonal with T_s on the momenta and
    T_s * j_s^{-1} on the positions of each decoupled segment, and the time
    reversal flips momenta.
    """
    ns = spec.n_sites
    nl, nr = spec.n_left, spec.n_right
    j = chain_jacobi(spec)
    if spec.inhomogeneous is None:
        ev = np.linalg.eigvalsh(j)
        if ev[0] < 1.0 - 1e-9 or ev[-1] > 5.0 + 1e-9:
            raise StructuralError(
                f"homogeneous Dirichlet Jacobi spectrum [{ev[0]:.6f}, {ev[-1]:.6f}] leaves [1, 5]"
            )
    omega, kappa = spec.coupling_arrays()
    j_left = _jacobi(omega[:nl], kappa[: nl + 1])
    j_center = _jacobi(omega[nl : nl + 1], kappa[nl : nl + 2])
    j_right = _jacobi(omega[nl + 1 :], kappa[nl + 1 :])

    n = 2 * ns
    gen = np.zeros((n, n))
    gen[:ns, ns:] = -j
    gen[ns:, :ns] = np.eye(ns)

    tl, tc, tr = spec.temps
    site_t = _chain_site_temps(spec)
    cov = np.zeros((n, n))
    cov[:ns, :ns] = np.diag(site_t)
    at = ns
    for temp, jac in ((tl, j_left), (tc, j_center), (tr, j_right)):
        k = jac.shape[0]
        cov[at : at + k, at : at + k] = temp * np.linalg.inv(jac)
        at += k
    cov = 0.5 * (cov + cov.T)
    theta = np.diag(np.concatenate([-np.ones(ns), np.ones(ns)]))

    label = f"chain(n_left={nl}, n_right={nr}, temps={spec.temps}"
    label += ", inhomogeneous)" if spec.inhomogeneous is not None else ")"
    model = Model(dim=n, generator=gen, covariance=cov, time_reversal=theta, label=label)

    oracle = None
    if spec.inhomogeneous is None:
        # group speed of the dispersion sqrt(3 - 2 cos k) stays below 0.65,
        # so wavefronts from the center need > 1.5*min(nl, nr) to reach the
        # boundary; min(nl, nr) is a safe horizon for every shipped check.
        oracle = ChainOracle(temps=tuple(spec.temps), echo_free_horizon=float(min(nl, nr)))
    return model, oracle


def build_chain_perturbation(spec):
    """Reference perturbation P that turns the chain covariance into a Gibbs-like state.

    Requires a homogeneous chain with beta_r > beta_l.  The blocks are
    (beta_l - beta_c) on the central momentum, (beta_r + 2 beta_l - 3 beta_c)
    times the Neumann central Jacobi (the bare pinning) on the central
    position, and the two rank-two coupling forms weighted by beta_l and
    beta_r.  By construction D^-1 + P = beta_r h - X h_left_neumann with
    X = beta_r - beta_l, which callers can verify against
    chain_energy_form / chain_energy_form_left_neumann.
    """
    if spec.inhomogeneous is not None:
        raise StructuralError("the reference perturbation is defined for homogeneous chains")
    tl, tc, tr = spec.temps
    bl, bc, br = 1.0 / tl, 1.0 / tc, 1.0 / tr
    if br < bl:
        raise DomainError("the reference perturbation needs beta_r >= beta_l (right side not hotter)")
    ns = spec.n_sites
    c = spec.center
    p = np.zeros((2 * ns, 2 * ns))
    p[c, c] = bl - bc
    qc = ns + c
    p[qc, qc] = (br + 2.0 * bl - 3.0 * bc) * 1.0  # Neumann central Jacobi is the bare pinning
    p[qc, qc - 1] = p[qc - 1, qc] = -bl           # beta_l * coupling form to the left
    p[qc, qc + 1] = p[qc + 1, qc] = -br           # beta_r * coupling form to the right
    return p
