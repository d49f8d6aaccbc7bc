"""The benchmark workloads, driven through gaussfluct's public API.

Each workload has ``setup(gf)``, which builds the fixed reference models, and
``run(gf, ctx, seed, out)``, which makes the library calls, records every
returned number in ``out`` and returns its output checks.  Library functions
are looked up on their modules at call time, so a traced run sees every call.
Tolerances are the ones pinned in tests/test_acceptance.py.
"""

import hashlib
import math
from dataclasses import dataclass

import numpy as np

TOY_TIMES = (1.0, 5.0, 20.0, 100.0)
MC_DRAWS = 100_000


@dataclass(frozen=True)
class Check:
    """One output check: passes when value <= limit."""

    name: str
    value: float
    limit: float
    detail: str = ""

    @property
    def passed(self):
        return self.value <= self.limit


class Outputs:
    """Counts the library calls of one pass and hashes the numbers they return."""

    def __init__(self):
        self.calls = 0
        self._hash = hashlib.sha256()

    def record(self, value):
        self.calls += 1
        self._hash.update(np.asarray(value, dtype=np.float64).tobytes())
        return value

    @property
    def digest(self):
        return self._hash.hexdigest()[:16]


def _rel(value, target):
    return abs(value - target) / abs(target)


# ---------------------------------------------------------------------------
# toy_finite_time: criterion 1 plus the toy identities of criterion 4
# ---------------------------------------------------------------------------

def toy_setup(gf):
    model, oracle = gf.build_toy(gf.ToySpec(n=512, lam=1.0))
    return {"model": model, "oracle": oracle}


def toy_finite_time(gf, ctx, seed, out):
    model, oracle = ctx["model"], ctx["oracle"]
    d_plus = oracle.d_plus()
    err_ref = err_ness = logdet = es = 0.0
    for t in TOY_TIMES:
        fp = gf.flow_point(model, t)
        out.record(fp.logdet_term)
        dom = gf.domain_interval(model, t)
        out.record((dom.lower, dom.upper))
        delta = oracle.delta_t(t)
        alphas = np.linspace(-0.95 * delta, 1.0 + 0.95 * delta, 21)
        ref = [out.record(gf.renyi_entropy(model, t, a)) for a in alphas]
        radius = oracle.j_plus_radius(t)
        alphas_ness = np.linspace(-0.95 * radius, 0.95 * radius, 21)
        ness = [out.record(gf.renyi_entropy_ness(model, t, a, d_plus)) for a in alphas_ness]
        err_ref = max(err_ref, max(abs(v - oracle.e_t(t, a)) for a, v in zip(alphas, ref)))
        err_ness = max(err_ness, max(abs(v - oracle.e_t_plus(t, a)) for a, v in zip(alphas_ness, ness)))
        logdet = max(logdet, abs(fp.logdet_term))
        # the grid is symmetric about 1/2, so ref[::-1] holds e_t(1 - alpha)
        es = max(es, max(abs(v - w) for v, w in zip(ref, ref[::-1])))
    return [
        Check("1_e_t_oracle", err_ref, 1e-8),
        Check("1_e_t_plus_oracle", err_ness, 1e-8),
        Check("4_logdet_term", logdet, 1e-8),
        Check("4_evans_searles", es, 1e-9),
    ]


# ---------------------------------------------------------------------------
# chain_limits: criteria 2, 3 and 6 on the chain, plus the `rate` CLI pipeline
# ---------------------------------------------------------------------------

def chain_setup(gf):
    model, oracle = gf.build_chain(gf.ChainSpec(n_left=128, n_right=128, temps=(2.0, 1.0, 1.0)))
    return {"model": model, "oracle": oracle}


def chain_limits(gf, ctx, seed, out):
    from gaussfluct import asymptotics, cli

    model, oracle = ctx["model"], ctx["oracle"]
    report = gf.validate_model(model, np.linspace(0.0, 10.0, 11))
    out.record((report.bounds[0], report.bounds[1], report.delta))
    sig = gf.sigma_matrix(model)
    out.record(sig.matrix)
    lims = gf.estimate_limit_covariance(model, horizon=60.0, grid_points=64)
    out.record((lims.d_plus, lims.d_minus))
    omega = out.record(gf.steady_entropy_production(sig, model.covariance, lims.d_plus,
                                                    d_minus=lims.d_minus))
    q = gf.q_operator(lims)
    out.record(q.spectrum)
    nu = gf.spectral_measure_nu(q, sig)
    out.record(nu.atoms)

    deltas = asymptotics.delta_series(model, np.linspace(30.0, 60.0, 16))
    out.record(deltas)
    out.record(asymptotics.q_bounds_defect(q, max(d for _, d in deltas)))

    efn = gf.limit_functional(q, sig)
    out.record([efn(a) for a in np.linspace(-0.95, 1.95, 101)])

    # the reference/NESS rate pair that `gaussfluct rate` builds
    rate = gf.rate_function(efn, kind="reference")
    rate_plus = gf.rate_function(cli._ness_limit_functional(model, lims, efn), kind="ness")
    s_grid = np.linspace(-0.5, 0.5, 51)
    out.record([(rate(s), rate_plus(s), rate(-s)) for s in s_grid])

    w = oracle.omega_plus_sigma
    oracle_rate = gf.rate_function(oracle.limit_functional(), kind="reference")
    es = out.record(gf.es_symmetry_defect(oracle_rate, np.linspace(-(3 * w + 1), 3 * w + 1, 41)))

    out.record(gf.clt_variance(efn, 1.0))
    e50 = out.record(gf.renyi_entropy(model, 50.0, 0.5)) / 50.0

    atom_errs = []
    for target in (-1.0, 2.0):
        members = [(r, wt) for r, wt in nu.atoms if abs(r - target) <= 0.25 * abs(target)]
        loc = sum(r * abs(wt) for r, wt in members) / sum(abs(wt) for _, wt in members)
        weight = sum(wt for _, wt in members)
        atom_errs.append((target, _rel(loc, target), _rel(weight, gf.KAPPA)))
    worst = max(max(le / 0.02, we / 0.05) for _, le, we in atom_errs)
    atom_detail = "; ".join(f"r={t:g}: loc err {le:.3%} (tol 2%), weight err {we:.3%} (tol 5%)"
                            for t, le, we in atom_errs)
    return [
        Check("2b_omega_plus", _rel(omega, gf.KAPPA / 2.0), 0.03, "rel err vs kappa/2"),
        Check("3_atoms", worst, 1.0, "worst error / tolerance; " + atom_detail),
        Check("6_chain_es_defect", es, 1e-6),
        Check("2a_e50_half", _rel(e50, -gf.KAPPA * math.log(9.0 / 8.0)), 0.05,
              "rel err of e_50(1/2)/50 vs -kappa log(9/8)"),
    ]


# ---------------------------------------------------------------------------
# chain_monte_carlo: criteria 5a and 5b, seeded by the workload seed
# ---------------------------------------------------------------------------

def chain_monte_carlo(gf, ctx, seed, out):
    from gaussfluct import montecarlo

    model = ctx["model"]
    rows = montecarlo.trace_identity_report(model.covariance, seed=seed, count=MC_DRAWS,
                                            n_mats=10, workers=1)
    out.record([(r["estimate"], r["oracle"], r["std_error"]) for r in rows])
    com = montecarlo.change_of_measure_report(model, 1.0, seed=seed, count=MC_DRAWS, workers=1)
    out.record((com["estimate"], com["std_error"]))
    est, se = out.record(gf.empirical_mgf(model, 10.0, 0.25, seed=seed, count=MC_DRAWS, workers=1))
    e10 = out.record(gf.renyi_entropy(model, 10.0, 0.25))
    z_trace = max(abs(r["z_score"]) for r in rows)
    z_5a = max(z_trace, abs(com["z_score"]))
    return [
        Check("5a_trace_and_normalization", z_5a, 4.0,
              f"max trace |z| {z_trace:.2f}, change-of-measure |z| {abs(com['z_score']):.2f}"),
        Check("5b_mgf", abs(est - e10) / se, 3.0, f"estimate {est:.5f} vs e_10(0.25) {e10:.5f}"),
    ]


@dataclass(frozen=True)
class Workload:
    setup: object
    run: object
    seeded: bool        # whether the outputs depend on the workload seed


WORKLOADS = {
    "toy_finite_time": Workload(toy_setup, toy_finite_time, seeded=False),
    "chain_limits": Workload(chain_setup, chain_limits, seeded=False),
    "chain_monte_carlo": Workload(chain_setup, chain_monte_carlo, seeded=True),
}

# Checks that fail at the pinned tolerances on the current program (ROADMAP,
# "knowingly red").  They are run, reported and counted in failed_share, but
# only a failure of any other check marks the run incorrect.
KNOWN_RED = frozenset({"2a_e50_half"})
