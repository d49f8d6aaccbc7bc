import numpy as np
import pytest

import gaussfluct as gf
from gaussfluct.model import (DomainError, SingularCovarianceError, StructuralError, covariance_inverse,
                              covariance_roots)


def skew_identity_model(n=16):
    gen = np.zeros((n, n))
    i = np.arange(n - 1)
    gen[i, i + 1] = 1.0
    gen[i + 1, i] = -1.0
    # parity about the center is an orthogonal involution anticommuting with gen
    theta = np.eye(n)[::-1].copy()
    return gf.Model(dim=n, generator=gen, covariance=np.eye(n), time_reversal=theta)


class TestModelConstruction:
    def test_dimension_mismatch(self):
        with pytest.raises(StructuralError):
            gf.Model(dim=3, generator=np.zeros((2, 2)), covariance=np.eye(3))

    def test_asymmetric_covariance(self):
        cov = np.eye(3)
        cov[0, 1] = 1e-6
        with pytest.raises(StructuralError):
            gf.Model(dim=3, generator=np.zeros((3, 3)), covariance=cov)

    def test_non_spd_covariance(self):
        cov = np.diag([1.0, -0.5, 2.0])
        with pytest.raises(SingularCovarianceError):
            gf.Model(dim=3, generator=np.zeros((3, 3)), covariance=cov)

    def test_arrays_are_frozen(self, toy_model):
        with pytest.raises(ValueError):
            toy_model.generator[0, 0] = 1.0


class TestValidateModel:
    def test_isometric_flow_preserves_identity(self):
        model = skew_identity_model()
        report = gf.validate_model(model, [0.0, 1.0, 2.5])
        assert report.g4_ok
        m_est, M_est = report.bounds
        assert m_est == pytest.approx(1.0, abs=1e-10)
        assert M_est == pytest.approx(1.0, abs=1e-10)
        assert report.delta == np.inf
        assert any("delta is undefined" in n for n in report.notes)

    def test_chain_builder_passes(self, chain_model):
        report = gf.validate_model(chain_model, [0.0, 1.0, 5.0])
        assert report.g4_ok
        assert report.bounds[0] > 0

    def test_identity_theta_fails_anticommutation(self):
        n = 16
        base = skew_identity_model(n)
        model = gf.Model(dim=n, generator=base.generator, covariance=np.eye(n),
                         time_reversal=np.eye(n))
        report = gf.validate_model(model, [0.0, 1.0])
        assert not report.g4_ok
        assert any("anticommutes_generator" in n_ for n_ in report.notes)

    def test_grid_must_include_zero(self, toy_model):
        with pytest.raises(ValueError):
            gf.validate_model(toy_model, [1.0, 2.0])

    def test_builders_all_pass(self, toy_model, chain_model):
        for model in (toy_model, chain_model):
            assert gf.validate_model(model, [0.0, 0.5, 2.0]).g4_ok


class TestCovarianceRoots:
    def test_roots_are_exactly_symmetric(self, toy_model, chain_model):
        for model in (toy_model, chain_model):
            root, whitener = covariance_roots(model)
            d = model.covariance
            for a in (root, whitener):
                assert np.array_equal(a, a.T)
            assert np.abs(root @ root - d).max() <= 1e-13 * np.abs(d).max()
            assert np.abs(whitener @ root - np.eye(model.dim)).max() <= 1e-13


class TestSigmaMatrix:
    def test_skew_identity_gives_zero(self):
        model = skew_identity_model()
        sig = gf.sigma_matrix(model)
        assert np.abs(sig.matrix).max() < 1e-14
        assert sig.trace_D_sigma == pytest.approx(0.0, abs=1e-14)

    def test_toy_commutator_form(self):
        # closed form: sigma = (c/2)(L P_phi - P_phi L), c = lam/(1+lam)
        model, oracle = gf.build_toy(gf.ToySpec(n=32, lam=0.7, doubled=False))
        c = 0.7 / 1.7
        p_phi = np.outer(oracle.phi, oracle.phi)
        expected = 0.5 * c * (model.generator @ p_phi - p_phi @ model.generator)
        assert np.abs(gf.sigma_matrix(model).matrix - expected).max() < 1e-14

    def test_trace_d_sigma_vanishes_under_g4(self, toy_model, chain_model):
        for model in (toy_model, chain_model):
            sig = gf.sigma_matrix(model)
            scale = np.abs(model.covariance).max() * max(np.abs(sig.matrix).max(), 1.0)
            assert abs(sig.trace_D_sigma) <= 1e-10 * max(scale, 1.0)

    def test_theta_anticommutes_with_sigma(self, toy_model, chain_model):
        for model in (toy_model, chain_model):
            sig = gf.sigma_matrix(model).matrix
            th = model.time_reversal
            assert np.abs(th @ sig @ th + sig).max() <= 1e-10


class TestPerturbReference:
    def test_zero_perturbation_is_identity(self, chain_model):
        pert = gf.perturb_reference(chain_model, np.zeros((chain_model.dim,) * 2))
        assert np.abs(pert.covariance - chain_model.covariance).max() < 1e-12

    def test_commuting_perturbation_preserves_sigma(self):
        # P = f(h) commutes with the flow: L'P + PL = 0, so sigma is unchanged
        from gaussfluct.models import chain_energy_form

        spec = gf.ChainSpec(n_left=8, n_right=8, temps=(2.0, 1.0, 1.0))
        model, _ = gf.build_chain(spec)
        p = 0.3 * chain_energy_form(spec)
        lt_p = model.generator.T @ p + p @ model.generator
        assert np.abs(lt_p).max() < 1e-12
        pert = gf.perturb_reference(model, p)
        assert np.abs(gf.sigma_matrix(pert).matrix - gf.sigma_matrix(model).matrix).max() < 1e-12

    def test_sigma_shift_formula(self, chain_model):
        rng = np.random.default_rng(3)
        p = rng.standard_normal((chain_model.dim,) * 2)
        p = 0.01 * (p + p.T)
        pert = gf.perturb_reference(chain_model, p)
        gen = chain_model.generator
        expected = gf.sigma_matrix(chain_model).matrix + 0.5 * (gen.T @ p + p @ gen)
        assert np.abs(gf.sigma_matrix(pert).matrix - expected).max() < 1e-10

    def test_remark3_covariance_identity(self):
        from gaussfluct.models import chain_energy_form, chain_energy_form_left_neumann

        spec = gf.ChainSpec(n_left=10, n_right=10, temps=(2.0, 1.0, 1.0))
        model, _ = gf.build_chain(spec)
        p = gf.build_chain_perturbation(spec)
        beta_l, beta_r = 0.5, 1.0
        x = beta_r - beta_l
        rhs = beta_r * chain_energy_form(spec) - x * chain_energy_form_left_neumann(spec)
        assert np.abs((covariance_inverse(model) + p) - rhs).max() < 1e-10

    def test_non_spd_perturbation_reports_eigenvalue(self, chain_model):
        p = -10.0 * np.eye(chain_model.dim)
        with pytest.raises(DomainError, match="most negative eigenvalue"):
            gf.perturb_reference(chain_model, p)

    def test_round_trip_perturbation(self, chain_model):
        rng = np.random.default_rng(11)
        p = rng.standard_normal((chain_model.dim,) * 2)
        p = 0.01 * (p + p.T)
        back = gf.perturb_reference(gf.perturb_reference(chain_model, p), -p)
        assert np.abs(back.covariance - chain_model.covariance).max() < 1e-10
