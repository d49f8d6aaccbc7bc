import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg as sla

import gaussfluct as gf
from gaussfluct import _linalg
from gaussfluct import asymptotics as ga
from gaussfluct._linalg import AccuracyError, _parts, symmetrize
from gaussfluct.renyi import domain_interval


def analytic_toy_limits(dim):
    ident = np.eye(dim)
    return ga.LimitCovariances(d_plus=ident, d_minus=ident, window=(0.0, 0.0),
                               plateau_residual=0.0, stationarity_defect=0.0)


class TestEstimateLimitCovariance:
    def test_equilibrium_is_fixed_point(self, equilibrium_chain):
        lims = gf.estimate_limit_covariance(equilibrium_chain, horizon=10.0, grid_points=64)
        assert np.abs(lims.d_plus - equilibrium_chain.covariance).max() < 1e-10
        assert lims.plateau_residual < 1e-10
        assert lims.stationarity_defect < 1e-10

    def test_toy_limits_are_identity(self):
        # the rank-one deviation of D_t from I is transported ballistically and
        # its window average decays like 1/horizon; within the echo-free window
        # (first reflections return near t = n/2) the max-abs floor at n = 1024
        # sits near 2e-3, so that is the sharpest honest tolerance here
        model, _ = gf.build_toy(gf.ToySpec(n=1024, lam=1.0, doubled=False))
        eye = np.eye(model.dim)
        assert model.time_reversal is None  # D- is averaged over negative times
        lims_short = gf.estimate_limit_covariance(model, horizon=60.0, grid_points=64)
        lims = gf.estimate_limit_covariance(model, horizon=200.0, grid_points=64)
        dev = np.abs(lims.d_plus - eye).max()
        assert dev < 2.5e-3
        assert np.abs(lims.d_minus - eye).max() < 2.5e-3
        assert dev < 0.5 * np.abs(lims_short.d_plus - eye).max()

    def test_theta_conjugacy(self, chain_mid, chain_mid_limits):
        model, _ = chain_mid
        th = model.time_reversal
        lims = chain_mid_limits
        assert np.abs(lims.d_minus - th @ lims.d_plus @ th).max() <= 10 * lims.plateau_residual

    def test_minus_estimation_matches_theta(self, chain_model):
        lims_t = gf.estimate_limit_covariance(chain_model, horizon=12.0, grid_points=64)
        bare = dataclasses.replace(chain_model, time_reversal=None)
        lims_e = gf.estimate_limit_covariance(bare, horizon=12.0, grid_points=64)
        assert np.array_equal(lims_e.d_plus, lims_t.d_plus)
        assert np.abs(lims_t.d_minus - lims_e.d_minus).max() <= 10 * lims_t.plateau_residual

    def test_bounds_contain_limits(self, chain_mid, chain_mid_limits):
        model, _ = chain_mid
        report = gf.validate_model(model, [0.0, 5.0, 10.0, 20.0, 40.0])
        w = np.linalg.eigvalsh(chain_mid_limits.d_plus)
        assert w[0] >= report.bounds[0] - 10 * chain_mid_limits.plateau_residual
        assert w[-1] <= report.bounds[1] + 10 * chain_mid_limits.plateau_residual

    def test_stationarity_tracks_plateau(self, chain_mid_limits):
        assert chain_mid_limits.stationarity_defect <= 10 * chain_mid_limits.plateau_residual

    def test_plateau_error_raised(self, chain_model):
        with pytest.raises(gf.PlateauError) as err:
            gf.estimate_limit_covariance(chain_model, horizon=10.0, grid_points=64, tol=1e-6)
        assert err.value.residual > 1e-6

    def test_modal_route_takes_no_propagator_or_eigensolver(self, monkeypatch, chain_model):
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(_linalg, "_block_flow", counted("propagator", _linalg._block_flow))
        for name in ("eigvalsh", "eigh"):
            monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
        assert all(basis is not None for _, basis in _parts(chain_model.generator, 0.0))
        bare = dataclasses.replace(chain_model, time_reversal=None)
        for model in (chain_model, bare):
            gf.estimate_limit_covariance(model, horizon=12.0, grid_points=64)
        assert calls == []

    def test_indefinite_average_raises(self, monkeypatch, chain_model):
        def indefinite(generator, x, t0, step, counts):
            # the final average comes first
            out = [np.array(x) for _ in counts]
            out[0][0, 0] = -1.0
            return iter(out)

        monkeypatch.setattr(ga, "flow_averages", indefinite)
        with pytest.raises(AccuracyError, match="horizon 12"):
            gf.estimate_limit_covariance(chain_model, horizon=12.0, grid_points=64)


def _riemann_reference(model, horizon, grid_points=64, checkpoints=8):
    """The window average point by point: one scipy expm per left-Riemann grid point."""
    t0 = horizon / 2.0
    step = t0 / grid_points
    marks = {grid_points // 2 + k * max(1, grid_points // (2 * checkpoints)) for k in range(checkpoints)}
    acc = np.zeros_like(model.covariance)
    running = []
    for k in range(grid_points):
        e = sla.expm((t0 + k * step) * model.generator)
        acc += e @ model.covariance @ e.T
        if k + 1 in marks:
            running.append(acc / (k + 1))
    final = acc / grid_points
    return symmetrize(final), max(float(np.abs(s - final).max()) for s in running)


def _jordan_model():
    return gf.Model(dim=2, generator=np.array([[-1.0, 1.0], [0.0, -1.0]]), covariance=np.eye(2))


class TestWindowAverage:
    @pytest.mark.parametrize("horizon", [12.0, -12.0])
    @pytest.mark.parametrize("name", ["nonnormal_model", "chain_model", "jordan"])
    def test_matches_riemann_reference(self, request, name, horizon):
        model = _jordan_model() if name == "jordan" else request.getfixturevalue(name)
        assert (_parts(model.generator, 0.0)[0][1] is None) == (name == "jordan")
        d_plus, residual = ga._window_average(model, horizon, 64, math.inf)
        ref_d, ref_residual = _riemann_reference(model, horizon)
        assert np.abs(d_plus - ref_d).max() <= 1e-12 * np.abs(ref_d).max()
        assert abs(residual - ref_residual) <= 1e-12 * abs(ref_residual)


class TestSteadyEntropyProduction:
    def test_equilibrium_vanishes(self, equilibrium_chain):
        lims = gf.estimate_limit_covariance(equilibrium_chain, horizon=8.0, grid_points=64)
        sig = gf.sigma_matrix(equilibrium_chain)
        val = gf.steady_entropy_production(sig, equilibrium_chain.covariance, lims.d_plus)
        assert abs(val) < 1e-10

    def test_toy_vanishes_with_exact_limits(self, toy_model):
        sig = gf.sigma_matrix(toy_model)
        val = gf.steady_entropy_production(sig, toy_model.covariance, np.eye(toy_model.dim))
        assert abs(val) < 1e-12

    def test_chain_value_and_antisymmetry(self, chain_mid, chain_mid_limits):
        model, oracle = chain_mid
        sig = gf.sigma_matrix(model)
        val = gf.steady_entropy_production(sig, model.covariance, chain_mid_limits.d_plus,
                                           d_minus=chain_mid_limits.d_minus)
        assert val == pytest.approx(oracle.omega_plus_sigma, rel=0.05)
        assert val >= -1e-8

    def test_antisymmetry_violation_raises(self, chain_mid, chain_mid_limits):
        model, _ = chain_mid
        sig = gf.sigma_matrix(model)
        bad_minus = chain_mid_limits.d_plus  # omega- = +omega+ instead of -omega+
        with pytest.raises(Exception, match="antisymmetric"):
            gf.steady_entropy_production(sig, model.covariance, chain_mid_limits.d_plus,
                                         d_minus=bad_minus)


class TestQOperator:
    def test_equal_limits_give_zero(self, chain_model):
        d = chain_model.covariance
        lims = ga.LimitCovariances(d_plus=d, d_minus=d, window=(0, 0),
                                   plateau_residual=0.0, stationarity_defect=0.0)
        q = gf.q_operator(lims)
        assert np.abs(q.matrix).max() < 1e-12

    def test_toy_q_vanishes(self, toy_model):
        q = gf.q_operator(analytic_toy_limits(toy_model.dim))
        assert np.abs(q.matrix).max() < 1e-12

    def test_chain_spectrum_bounds(self, chain_mid, chain_mid_limits):
        model, _ = chain_mid
        q = gf.q_operator(chain_mid_limits)
        # delta_bar as the largest delta_t over the averaging window (late times)
        window_ts = np.linspace(*chain_mid_limits.window, 5)
        delta_bar = max(domain_interval(model, t).delta_t for t in window_ts)
        defect = ga.q_bounds_defect(q, delta_bar)
        assert defect <= 0.05


class TestELimit:
    def test_endpoints(self, chain_mid, chain_mid_limits):
        model, _ = chain_mid
        sig = gf.sigma_matrix(model)
        efn = ga.limit_functional(gf.q_operator(chain_mid_limits), sig)
        assert efn.meta == "asymptotic"
        assert efn(0.0) == 0.0
        assert abs(efn(1.0)) <= 1e-8

    def test_es_symmetry(self, chain_mid, chain_mid_limits):
        model, _ = chain_mid
        sig = gf.sigma_matrix(model)
        efn = ga.limit_functional(gf.q_operator(chain_mid_limits), sig)
        for a in np.linspace(0.1, 0.45, 8):
            assert abs(efn(a) - efn(1.0 - a)) <= 1e-8

    def test_chain_value_against_oracle(self, chain_mid, chain_mid_limits):
        model, oracle = chain_mid
        sig = gf.sigma_matrix(model)
        efn = ga.limit_functional(gf.q_operator(chain_mid_limits), sig)
        assert efn(0.5) == pytest.approx(oracle.e_of_alpha(0.5), rel=0.05)

    def test_infinite_outside_spectral_domain(self, chain_mid, chain_mid_limits):
        model, _ = chain_mid
        sig = gf.sigma_matrix(model)
        efn = ga.limit_functional(gf.q_operator(chain_mid_limits), sig)
        assert efn(efn.domain.upper + 0.1) == math.inf

    def test_identity_exact_for_exact_limits(self, toy_model, equilibrium_chain):
        # e(alpha) = alpha * tr((alpha D^-1 + (1-alpha) D-^-1)^-1 sigma) holds
        # to rounding when the limit covariances are exact
        sig = gf.sigma_matrix(toy_model)
        q = gf.q_operator(analytic_toy_limits(toy_model.dim))
        for a in (0.25, 0.5, 0.75):
            assert ga.e_limit_identity_defect(q, sig, toy_model.covariance,
                                              np.eye(toy_model.dim), a) <= 1e-8
        lims = gf.estimate_limit_covariance(equilibrium_chain, horizon=8.0, grid_points=64)
        sig_eq = gf.sigma_matrix(equilibrium_chain)
        q_eq = gf.q_operator(lims)
        for a in (0.25, 0.75):
            assert ga.e_limit_identity_defect(q_eq, sig_eq, equilibrium_chain.covariance,
                                              lims.d_minus, a) <= 1e-8

    def test_identity_within_estimation_error_on_chain(self, chain_mid, chain_mid_limits):
        model, _ = chain_mid
        sig = gf.sigma_matrix(model)
        q = gf.q_operator(chain_mid_limits)
        defect = ga.e_limit_identity_defect(q, sig, model.covariance, chain_mid_limits.d_minus, 0.5)
        assert defect <= 1e-2


class TestSpectralMeasure:
    def test_flat_sigma_gives_empty_measure(self, toy_flat):
        model, _ = toy_flat
        sig = gf.sigma_matrix(model)
        q = gf.q_operator(analytic_toy_limits(model.dim))
        nu = gf.spectral_measure_nu(q, sig)
        assert nu.atoms == []
        assert nu.dropped_mass == pytest.approx(0.0, abs=1e-14)

    def test_reconstruction_matches_e_limit(self, chain_mid, chain_mid_limits):
        model, _ = chain_mid
        sig = gf.sigma_matrix(model)
        q = gf.q_operator(chain_mid_limits)
        nu = gf.spectral_measure_nu(q, sig)
        efn = ga.limit_functional(q, sig)
        from_atoms = gf.EntropicFunctional(c=0.0, q=[1.0 / r for r, _ in nu.atoms],
                                           w=np.array([w for _, w in nu.atoms]), meta="asymptotic")
        dom = efn.domain
        for a in np.linspace(dom.lower + 0.1, dom.upper - 0.1, 11):
            assert from_atoms(a) == pytest.approx(efn(a), abs=1e-6)

    def test_atoms_outside_inner_interval(self, chain_mid, chain_mid_limits):
        model, _ = chain_mid
        sig = gf.sigma_matrix(model)
        q = gf.q_operator(chain_mid_limits)
        nu = gf.spectral_measure_nu(q, sig)
        dom = ga.limit_functional(q, sig).domain
        for r, _ in nu.atoms:
            assert r <= dom.lower + 1e-9 or r >= dom.upper - 1e-9

    def test_clusters_keep_one_sign(self, chain_mid, chain_mid_limits):
        # a cluster that reached across the dropped band |q| < q_floor merged
        # q of both signs into one atom far beyond 1/q_floor
        model, _ = chain_mid
        sig = gf.sigma_matrix(model)
        q = gf.q_operator(chain_mid_limits)
        q_floor = 1e-8
        nu = gf.spectral_measure_nu(q, sig, q_floor=q_floor)
        assert all(abs(r) <= 1.0 / q_floor for r, _ in nu.atoms)
        efn = ga.limit_functional(q, sig)
        kept = np.abs(efn.q) >= q_floor
        scale = np.abs(efn.w[kept]).sum()
        for side in (1.0, -1.0):
            members = efn.w[kept & (side * efn.q > 0.0)].sum()
            atoms = sum(w for r, w in nu.atoms if side * r > 0.0)
            assert atoms == pytest.approx(members, abs=1e-12 * scale)

    def test_q_floor_validation(self, chain_mid, chain_mid_limits):
        model, _ = chain_mid
        sig = gf.sigma_matrix(model)
        q = gf.q_operator(chain_mid_limits)
        with pytest.raises(ValueError):
            gf.spectral_measure_nu(q, sig, q_floor=0.0)


def test_delta_series(chain_model):
    series = ga.delta_series(chain_model, [1.0, 5.0, 10.0])
    assert len(series) == 3
    assert all(d > 0 for _, d in series)
    assert series[0][1] > series[-1][1]  # shrinking toward the limit
