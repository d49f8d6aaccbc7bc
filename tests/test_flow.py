import math

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.integrate import quad
from scipy.stats import norm

import gaussfluct as gf
from gaussfluct import _linalg, flow
from gaussfluct.flow import GaussianPair, flow_scan, write_flow_csv
from gaussfluct._linalg import AccuracyError, spd_inverse, spd_sqrt, symmetrize


class TestFlowPoint:
    def test_time_zero(self, chain_model):
        fp = gf.flow_point(chain_model, 0.0)
        eye = np.eye(chain_model.dim)
        assert np.abs(fp.propagator - eye).max() < 1e-14
        assert np.abs(fp.covariance_t - chain_model.covariance).max() < 1e-14
        assert np.abs(fp.relative_T).max() < 1e-12

    def test_toy_covariance_closed_form(self, toy_model, toy_oracle):
        # D_t = I + lam * P_{phi_t} with phi_t = e^{tL} phi
        t = 3.0
        fp = gf.flow_point(toy_model, t)
        phi_t = fp.propagator @ toy_oracle.phi
        expected = np.eye(toy_model.dim) + toy_oracle.lam * np.outer(phi_t, phi_t)
        assert np.abs(fp.covariance_t - expected).max() < 1e-12

    def test_group_law(self, chain_model):
        for s, t in [(1.0, 2.0), (-5.0, 3.0), (4.0, 4.0), (60.0, 40.0), (-50.0, 50.0)]:
            lhs = gf.flow_point(chain_model, s + t).propagator
            rhs = gf.flow_point(chain_model, s).propagator @ gf.flow_point(chain_model, t).propagator
            assert np.abs(lhs - rhs).max() < 1e-10

    def test_covariance_consistency(self, chain_model):
        fp = gf.flow_point(chain_model, 7.0)
        rebuilt = fp.propagator @ chain_model.covariance @ fp.propagator.T
        scale = np.abs(fp.covariance_t).max()
        assert np.abs(fp.covariance_t - rebuilt).max() < 1e-10 * scale

    def test_logdet_term_vanishes_under_g4(self, toy_model, chain_model):
        for model, ts in ((toy_model, (1.0, 5.0, 15.0)), (chain_model, (1.0, 5.0, 12.0))):
            for t in ts:
                assert abs(gf.flow_point(model, t).logdet_term) <= 1e-8

    def test_horizon_refusal(self, chain_model):
        with pytest.raises(AccuracyError):
            gf.flow_point(chain_model, 1e5)


def _old_flow_point(model, e):
    """D_t, T_t, the spectrum of K_t and 0.5*logdet(I + K_t), built as before the whitened route.

    D_t is inverted by Cholesky against the identity, K_t = D^{1/2} T_t D^{1/2}
    is formed by two products, and the log-determinant is the Cholesky one of
    I + K_t = D^{1/2} D_t^-1 D^{1/2}, free of the cancellation in log1p(lambda).
    """
    cov_t = symmetrize(e @ model.covariance @ e.T)
    cov_t_inv = spd_inverse(cov_t)
    rel = symmetrize(cov_t_inv - spd_inverse(model.covariance))
    dsq = spd_sqrt(model.covariance)
    lam = np.linalg.eigvalsh(symmetrize(dsq @ rel @ dsq))
    chol = np.linalg.cholesky(symmetrize(dsq @ cov_t_inv @ dsq))
    return cov_t, rel, lam, float(np.sum(np.log(np.diag(chol))))


def fresh_chain():
    # a model of its own, so that its derived data and flow points start cold
    return gf.build_chain(gf.ChainSpec(n_left=8, n_right=8, temps=(2.0, 1.0, 1.0)))[0]


class TestLeanFlowPoint:
    @pytest.mark.parametrize("t", [-6.0, 2.0, 10.0, 60.0])
    def test_spectrum_and_logdet_match_old_construction(self, chain_model, toy_model,
                                                        nonnormal_model, t):
        for model in (chain_model, toy_model, nonnormal_model):
            fp = gf.flow_point(model, t)
            _, _, lam, logdet = _old_flow_point(model, fp.propagator)
            # 1 + lambda are the eigenvalues of (D^{-1/2} D_t D^{-1/2})^-1; both
            # routes lose about eps * cond of that matrix, which is below 300
            # everywhere here except for the non-normal model at t = 60 (1e13)
            cond = (1.0 + lam[-1]) / (1.0 + lam[0])
            tol = max(1e-12, 16 * np.finfo(float).eps * cond)
            assert np.all(np.diff(fp.spectrum) >= 0.0)
            assert np.abs(fp.spectrum - lam).max() <= tol * np.abs(lam).max()
            assert abs(fp.logdet_term - logdet) <= tol * max(1.0, abs(logdet))

    def test_built_on_demand_once_and_match_old_formulas(self, monkeypatch):
        from gaussfluct import model as model_module

        model = fresh_chain()
        fp = gf.flow_point(model, 3.0)
        assert set(vars(fp)) == {"time", "spectrum", "logdet_term", "frame"}
        calls = {"turner": 0, "spd_inverse": 0}

        def counted(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(model_module, "turner", counted("turner", model_module.turner))
        monkeypatch.setattr(flow, "spd_inverse", counted("spd_inverse", flow.spd_inverse))
        e, cov_t, rel = fp.propagator, fp.covariance_t, fp.relative_T
        assert fp.propagator is e and fp.covariance_t is cov_t and fp.relative_T is rel
        # D_t takes one turn of the frame and T_t one turner at -t: no D_t is inverted
        assert calls == {"turner": 2, "spd_inverse": 0}
        assert np.abs(e - sla.expm(3.0 * model.generator)).max() <= 1e-12 * np.abs(e).max()
        old_cov_t, old_rel, _, _ = _old_flow_point(model, e)
        assert np.abs(cov_t - old_cov_t).max() <= 1e-12 * np.abs(old_cov_t).max()
        assert np.abs(rel - old_rel).max() <= 1e-12 * np.abs(old_rel).max()

    def test_domain_and_values_invert_nothing(self, monkeypatch):
        import scipy.linalg

        from gaussfluct import _linalg, asymptotics, model as model_module

        model = fresh_chain()
        calls = []

        def refuse(name):
            def wrapped(*args, **kwargs):
                calls.append(name)
                raise AssertionError(f"{name} called")
            return wrapped

        for module in (flow, model_module, _linalg, asymptotics):
            monkeypatch.setattr(module, "spd_inverse", refuse("spd_inverse"))
        monkeypatch.setattr(scipy.linalg, "cho_factor", refuse("cho_factor"))
        monkeypatch.setattr(scipy.linalg, "cholesky", refuse("scipy cholesky"))
        monkeypatch.setattr(np.linalg, "cholesky", refuse("np cholesky"))
        # a cold model: its D^{1/2} and D^{-1/2} come from one eigh
        gf.flow_point(model, 1.0)
        gf.domain_interval(model, 2.0)
        asymptotics.delta_series(model, np.linspace(3.0, 6.0, 4))
        for a in np.linspace(-0.5, 1.5, 9):
            gf.renyi_entropy(model, 7.0, a)
        gf.reference_functional(model, 8.0)
        # the NESS path with D+ = I reads T_t itself, and so does the log-density
        eye = np.eye(model.dim)
        gf.domain_interval_ness(model, 2.0, eye)
        for a in np.linspace(-0.5, 0.5, 5):
            gf.renyi_entropy_ness(model, 7.0, a, eye)
        gf.log_density(model, 9.0, np.ones(model.dim))
        assert calls == []

    def test_flow_cache_entry_released_with_model(self):
        import gc
        import weakref

        model = fresh_chain()
        fp = gf.flow_point(model, 2.0)
        fp.covariance_t, fp.relative_T
        gf.renyi_entropy_ness(model, 2.0, 0.1, np.eye(model.dim))
        ref = weakref.ref(model)
        gc.collect()
        live = len(flow._flow_cache)
        del model
        gc.collect()
        assert ref() is None
        assert len(flow._flow_cache) == live - 1

    def test_nonpositive_whitened_spectrum_raises(self, monkeypatch):
        model = fresh_chain()
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: eigvalsh(a) - eigvalsh(a)[0])
        with pytest.raises(AccuracyError, match="not positive definite"):
            gf.flow_point(model, 2.0)


# Frames of the four kinds, each read against the dense formulas of
# _old_flow_point from the same propagator.  FRAME_RTOL is pinned before
# measuring, relative to the largest magnitude compared: the dense formulas
# lose eps * cond(S_t) on the spectra (below 1e3 at these times) and the frame
# carries the roundoff of B and B^-1 (kappa at most 2.3 here), so 1e-12 leaves
# a margin of ten over eps * cond.
FRAME_RTOL = 1e-12
FRAME_TIMES = (-2.0, 0.7, 5.0)


def _frame_models(name):
    rng = np.random.default_rng(21)
    n = 12
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    return {
        "doubled_toy": lambda: gf.build_toy(gf.ToySpec(n=128, lam=1.0))[0],
        "chain": fresh_chain,
        "odd_toy": lambda: gf.build_toy(gf.ToySpec(n=17, lam=0.7, doubled=False))[0],
        "nonnormal": lambda: gf.Model(dim=n, generator=a - a.T - 0.8 * np.eye(n) - 0.2 * (a @ a.T) / n,
                                      covariance=b @ b.T + n * np.eye(n)),
    }[name]()


FRAME_ROUTES = {"doubled_toy": ["unitary", "unitary"], "chain": ["oscillator"],
                "odd_toy": ["unitary"], "nonnormal": ["eig"]}


def _close(got, want, what):
    scale = np.abs(want).max()
    assert np.abs(got - want).max() <= FRAME_RTOL * scale, (what, np.abs(got - want).max(), scale)


class TestModeFrame:
    @pytest.mark.parametrize("name", sorted(FRAME_ROUTES))
    def test_frame_matches_dense_formulas(self, name):
        model = _frame_models(name)
        parts = _linalg._parts(model.generator, 0.0)
        assert [basis.route for _, basis in parts] == FRAME_ROUTES[name]
        frame = gf.model.mode_frame(model)
        assert frame.orthogonal == (name != "chain")
        assert (frame.back is None) == (name == "nonnormal")
        if name == "odd_toy":
            assert np.count_nonzero(parts[0][1].freq == 0.0) == 1  # the flat mode
        d_plus = gf.estimate_limit_covariance(model, horizon=10.0, grid_points=64).d_plus \
            if name == "chain" else symmetrize(np.eye(model.dim) + 0.3 * np.diag(np.arange(model.dim) % 3))
        for t in FRAME_TIMES:
            fp = gf.flow_point(model, t)
            e = _linalg.propagator(model.generator, t)
            cov_t, rel, lam, logdet = _old_flow_point(model, e)
            _close(fp.spectrum, lam, ("spectrum", t))
            assert abs(fp.logdet_term - logdet) <= FRAME_RTOL * max(1.0, abs(logdet)), ("logdet", t)
            _close(fp.relative_T, rel, ("T_t", t))
            _close(fp.covariance_t, cov_t, ("D_t", t))
            # B_t = 1/2 T_{-t}, from the dense formulas at -t
            _, rel_minus, _, _ = _old_flow_point(model, _linalg.propagator(model.generator, -t))
            _close(gf.sigma_integral_matrix(model, t).matrix, 0.5 * rel_minus, ("B_t", t))
            # K+_t = D+^{1/2} T_t D+^{1/2}, for D+ = I and for a D+ that is not
            for dp in (np.eye(model.dim), d_plus):
                dpsq = spd_sqrt(dp)
                want = np.linalg.eigvalsh(symmetrize(dpsq @ rel @ dpsq))
                _close(np.sort(gf.ness_functional(model, t, dp).q), want, ("K+_t", t))

    def test_ness_identity_on_an_orthogonal_frame_takes_no_propagator(self, monkeypatch):
        model = _frame_models("doubled_toy")
        gf.flow_point(model, 2.0)  # the frame and the spectrum of K_t

        def refuse(*args, **kwargs):
            raise AssertionError("propagator built")

        for name in ("propagator", "propagator_increment", "_by_blocks", "_block_flow"):
            monkeypatch.setattr(_linalg, name, refuse)
        eye = np.eye(model.dim)
        assert math.isfinite(gf.renyi_entropy_ness(model, 2.0, 0.1, eye))
        gf.domain_interval_ness(model, 5.0, eye)

    def test_delta_series_flow_points_hold_no_propagator(self):
        from gaussfluct import asymptotics

        model = fresh_chain()
        times = np.linspace(3.0, 6.0, 4)
        asymptotics.delta_series(model, times)
        for t in times:
            fp = flow._flow_cache[model][float(t)]
            assert not {"propagator", "covariance_t", "relative_T"} & set(vars(fp))

    def test_horizon_refusal_through_the_frame(self):
        model = fresh_chain()
        gf.flow_point(model, 1.0)  # the frame is built and cached
        for call in (lambda: gf.flow_point(model, 1e5), lambda: gf.sigma_integral_matrix(model, 1e5),
                     lambda: gf.validate_model(model, [0.0, 1e5])):
            with pytest.raises(AccuracyError):
                call()


class TestCocycle:
    def test_degenerate_times(self, chain_model):
        assert gf.cocycle_defect(chain_model, 0.0, 3.0) <= 1e-13
        assert gf.cocycle_defect(chain_model, 3.0, 0.0) <= 1e-13

    @pytest.mark.parametrize("s,t", [(5.0, 5.0), (1.0, -5.0), (-5.0, 20.0)])
    def test_chain_defect_small(self, chain_model, s, t):
        assert gf.cocycle_defect(chain_model, s, t) <= 1e-10

    def test_toy_defect_small(self, toy_model):
        assert gf.cocycle_defect(toy_model, 5.0, 5.0) <= 1e-10

    @pytest.mark.parametrize("s,t", [(30.0, 30.0), (10.0, 50.0), (59.0, 1.0)])
    def test_nonnormal_defect_relative_at_long_time(self, nonnormal_model, s, t):
        # |T_60| is about 2e55 here; inverting D_t by Cholesky left a relative
        # defect of 6.5e-5, the increment at -t leaves roundoff
        scale = np.abs(gf.flow_point(nonnormal_model, s + t).relative_T).max()
        assert gf.cocycle_defect(nonnormal_model, s, t) <= 1e-12 * scale


class TestLogDensity:
    def test_time_zero_is_zero(self, chain_model):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(chain_model.dim)
        assert gf.log_density(chain_model, 0.0, x) == pytest.approx(0.0, abs=1e-12)

    def test_origin_gives_logdet_term(self, chain_model):
        t = 4.0
        fp = gf.flow_point(chain_model, t)
        x = np.zeros(chain_model.dim)
        assert gf.log_density(chain_model, t, x) == pytest.approx(fp.logdet_term, abs=1e-15)

    def test_matches_reversed_time_integral(self, chain_model):
        # ell_t(x) = -(x, B_{-t} x) - t*tr(D sigma) via the sigma integral
        t = 6.0
        b = gf.sigma_integral_matrix(chain_model, -t)
        rng = np.random.default_rng(1)
        for _ in range(5):
            x = rng.standard_normal(chain_model.dim)
            lhs = gf.log_density(chain_model, t, x)
            rhs = -float(x @ (b.matrix @ x)) - t * gf.sigma_matrix(chain_model).trace_D_sigma
            assert lhs == pytest.approx(rhs, abs=1e-6)


class TestMeanEntropyProduction:
    def test_time_zero(self, chain_model):
        assert gf.mean_entropy_production(chain_model, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_equilibrium_vanishes(self, equilibrium_chain):
        for t in (1.0, 5.0, 9.0):
            assert abs(gf.mean_entropy_production(equilibrium_chain, t)) < 1e-10

    def test_chain_approaches_oracle(self, chain_mid):
        # omega_t(sigma) oscillates toward omega_+ with a slowly decaying envelope
        model, oracle = chain_mid
        devs = [abs(gf.mean_entropy_production(model, t) - oracle.omega_plus_sigma)
                for t in (20.0, 40.0)]
        assert devs[1] < devs[0]
        assert devs[1] <= 0.10 * oracle.omega_plus_sigma


class TestRelativeEntropy:
    def test_equal_covariances(self):
        d = np.diag([1.0, 2.0, 3.0])
        assert gf.relative_entropy(GaussianPair(d1=d, d2=d)) == pytest.approx(0.0, abs=1e-14)

    def test_scalar_case_against_quadrature(self):
        # Ent(N(0,2) | N(0,1)) by direct integration of -E_nu[log dnu/domega]
        val = gf.relative_entropy(GaussianPair(d1=np.eye(1), d2=2.0 * np.eye(1)))

        def integrand(x):
            ell = norm.logpdf(x, scale=math.sqrt(2.0)) - norm.logpdf(x, scale=1.0)
            return -ell * norm.pdf(x, scale=math.sqrt(2.0))

        oracle, _ = quad(integrand, -20, 20)
        assert val == pytest.approx(oracle, abs=1e-9)
        assert val == pytest.approx(-0.5 + 0.5 * math.log(2.0), abs=1e-12)

    def test_pair_computes_its_relative_operator(self):
        d1, d2 = np.diag([1.0, 2.0]), np.diag([4.0, 0.5])
        assert np.allclose(GaussianPair(d1=d1, d2=d2).rel_T, np.diag([-0.75, 1.5]), atol=1e-15)
        with pytest.raises(TypeError):
            GaussianPair(d1=d1, d2=d2, rel_T=np.zeros((2, 2)))

    def test_nonpositive_for_random_pairs(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            n = int(rng.integers(1, 6))
            a = rng.standard_normal((n, n))
            b = rng.standard_normal((n, n))
            d1 = a @ a.T + 0.1 * np.eye(n)
            d2 = b @ b.T + 0.1 * np.eye(n)
            val = gf.relative_entropy(GaussianPair(d1=d1, d2=d2))
            assert val <= 1e-10
            if np.abs(d1 - d2).max() > 1e-12:
                assert val < 0.0


class TestEntropyBalance:
    def test_time_zero(self, chain_model):
        assert gf.entropy_balance_defect(chain_model, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_equilibrium(self, equilibrium_chain):
        assert gf.entropy_balance_defect(equilibrium_chain, 5.0) < 1e-10

    def test_chain_small_defect(self, chain_model):
        assert gf.entropy_balance_defect(chain_model, 10.0) <= 1e-6

    def test_chain_defect_at_roundoff(self, chain_model, nonnormal_model):
        # B_t in closed form leaves no quadrature error in the balance;
        # nonnormal_model is the one fixture with tr L != 0, so it checks the offset
        # (left out at t = -6, where two terms of 1.3e6 cancel)
        cases = [(chain_model, t) for t in (-6.0, 2.0, 10.0)]
        cases += [(nonnormal_model, t) for t in (-1.0, 2.0, 10.0)]
        for model, t in cases:
            assert gf.entropy_balance_defect(model, t) <= 1e-12


def test_logdet_term_derivative_matches_trace(nonnormal_model):
    # d/dt [0.5 logdet(I + D T_t)] at t=0 equals -tr(D sigma); visible only
    # away from time reversal, where the term is not identically zero
    model = nonnormal_model
    tr_d_sigma = gf.sigma_matrix(model).trace_D_sigma
    assert abs(tr_d_sigma) > 1e-3
    h = 1e-5
    deriv = (gf.flow_point(model, h).logdet_term - gf.flow_point(model, -h).logdet_term) / (2 * h)
    assert deriv == pytest.approx(-tr_d_sigma, rel=1e-6)


def test_logdet_term_is_liouville(nonnormal_model):
    # det D_t = e^{2t tr L} det D, so 0.5 logdet(I + D T_t) = -t tr L exactly
    model = nonnormal_model
    tr_l = float(np.trace(model.generator))
    for t in (-2.0, 0.5, 3.0):
        term = gf.flow_point(model, t).logdet_term
        assert abs(term + t * tr_l) <= 1e-10 * max(1.0, abs(t * tr_l))


def test_flow_scan_csv(tmp_path, chain_model):
    rows = flow_scan(chain_model, [0.0, 1.0, 2.0])
    path = tmp_path / "scan.csv"
    write_flow_csv(path, rows)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,trace_Dt,lambda_min_Dt,lambda_max_Dt,mean_sigma,ent_balance_defect"
    assert len(lines) == 4
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == 0.0
    assert first[1] == pytest.approx(np.trace(chain_model.covariance))
    assert all(float(line.split(",")[-1]) <= 1e-12 for line in lines[1:])
