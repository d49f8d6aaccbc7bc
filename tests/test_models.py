import math

import numpy as np
import pytest

import gaussfluct as gf
from gaussfluct.model import StructuralError, covariance_inverse
from gaussfluct.models import chain_energy_form, chain_energy_form_left_neumann, chain_jacobi


class TestToySpec:
    def test_invalid_lambda(self):
        with pytest.raises(StructuralError):
            gf.ToySpec(n=32, lam=-1.0)

    def test_too_small(self):
        with pytest.raises(StructuralError):
            gf.ToySpec(n=8, lam=1.0)

    def test_flat_model(self, toy_flat):
        model, oracle = toy_flat
        assert np.abs(gf.sigma_matrix(model).matrix).max() < 1e-14
        assert gf.renyi_entropy(model, 5.0, 0.7) == pytest.approx(0.0, abs=1e-12)
        assert gf.domain_interval(model, 5.0).upper == math.inf

    def test_lambda_one_deltas(self, toy_oracle):
        assert toy_oracle.delta == pytest.approx(1.0, abs=1e-15)
        assert toy_oracle.delta_plus == pytest.approx(2.0, abs=1e-15)

    def test_doubled_theta_swaps(self, toy_model):
        th = toy_model.time_reversal
        n = toy_model.dim // 2
        assert np.abs(th[:n, n:] - np.eye(n)).max() == 0.0

    def test_undoubled_has_no_theta(self):
        model, _ = gf.build_toy(gf.ToySpec(n=32, lam=0.5, doubled=False))
        assert model.time_reversal is None


class TestToyOracleExactness:
    def test_e_t_matches_oracle(self):
        # exactness holds at any n; t up to n/8 stays well inside the echo
        model, oracle = gf.build_toy(gf.ToySpec(n=256, lam=1.0))
        for t in (1.0, 5.0, 20.0, 32.0):
            delta_t = oracle.delta_t(t)
            grid = np.linspace(-delta_t * 0.95, (1.0 + delta_t) * 0.95, 21)
            for a in grid:
                assert gf.renyi_entropy(model, t, a) == pytest.approx(oracle.e_t(t, a), abs=1e-8)

    def test_overlap_is_even_in_time(self, toy_oracle):
        assert toy_oracle.overlap(3.0) == pytest.approx(toy_oracle.overlap(-3.0), abs=1e-12)

    def test_negative_lambda(self):
        model, oracle = gf.build_toy(gf.ToySpec(n=64, lam=-0.5))
        t = 4.0
        dom = gf.domain_interval(model, t)
        assert dom.delta_t == pytest.approx(oracle.delta_t(t), abs=1e-8)
        for a in np.linspace(dom.lower * 0.9, dom.upper * 0.9, 11):
            assert gf.renyi_entropy(model, t, a) == pytest.approx(oracle.e_t(t, a), abs=1e-8)
        assert oracle.delta_plus == pytest.approx(1.0, abs=1e-15)  # (1+lam)/|lam| = 1


class TestChainBuilder:
    def test_jacobi_spectrum_in_1_5(self, chain_model):
        spec = gf.ChainSpec(n_left=16, n_right=16)
        ev = np.linalg.eigvalsh(chain_jacobi(spec))
        assert ev[0] >= 1.0 - 1e-12
        assert ev[-1] <= 5.0 + 1e-12

    def test_oracle_delta_for_2_1(self, chain_oracle):
        assert chain_oracle.delta_o == pytest.approx(1.0, abs=1e-15)
        assert chain_oracle.omega_plus_sigma == pytest.approx(gf.KAPPA / 2.0, rel=1e-15)

    def test_oracle_values(self, chain_oracle):
        assert chain_oracle.e_of_alpha(0.0) == 0.0
        assert chain_oracle.e_of_alpha(1.0) == pytest.approx(0.0, abs=1e-15)
        assert chain_oracle.e_of_alpha(0.5) == pytest.approx(-gf.KAPPA * math.log(9.0 / 8.0), rel=1e-12)
        assert chain_oracle.e_of_alpha(2.5) == math.inf
        assert chain_oracle.nu_atoms == [(-1.0, gf.KAPPA), (2.0, gf.KAPPA)]

    def test_limit_functional_is_two_atoms(self, chain_oracle):
        efn = chain_oracle.limit_functional()
        d = chain_oracle.delta_o
        assert (efn.domain.lower, efn.domain.upper) == (-d, 1.0 + d)
        # 1% in from each end: nearer, e_of_alpha loses digits to the
        # cancellation in 1 + ratio*alpha*(1 - alpha)
        for a in np.linspace(efn.domain.lower, efn.domain.upper, 101)[1:-1]:
            assert abs(efn(a) - chain_oracle.e_of_alpha(a)) <= 1e-15
        assert efn.curvature(1.0) == chain_oracle.e_second(1.0)
        assert efn.slope(0.0) == -chain_oracle.omega_plus_sigma

    def test_equal_temperature_oracle_degenerates(self):
        _, oracle = gf.build_chain(gf.ChainSpec(n_left=8, n_right=8, temps=(1.0, 1.0, 1.0)))
        assert oracle.delta_o == math.inf
        assert oracle.e_of_alpha(7.0) == 0.0
        assert oracle.nu_atoms == []
        assert oracle.limit_functional()(7.0) == 0.0

    def test_inhomogeneous_passes_validator(self):
        rng = np.random.default_rng(5)
        spec0 = gf.ChainSpec(n_left=10, n_right=12)
        omega = rng.uniform(0.5, 2.0, spec0.n_sites)
        kappa = rng.uniform(0.5, 2.0, spec0.n_sites + 1)
        spec = gf.ChainSpec(n_left=10, n_right=12, inhomogeneous=(omega, kappa))
        model, oracle = gf.build_chain(spec)
        assert oracle is None
        assert gf.validate_model(model, [0.0, 1.0, 4.0]).g4_ok

    def test_convergence_to_oracle_limit(self, chain_mid):
        model, oracle = chain_mid
        for alpha in (0.25, 0.5):
            errs = [
                abs(gf.renyi_entropy(model, t, alpha) / t - oracle.e_of_alpha(alpha))
                for t in (20.0, 30.0, 40.0)
            ]
            assert errs[0] > errs[1] > errs[2]

    def test_convergence_at_long_times(self):
        # distance of (1/t) e_t to the limit keeps shrinking through t = 80
        model, oracle = gf.build_chain(gf.ChainSpec(n_left=96, n_right=96, temps=(2.0, 1.0, 1.0)))
        for alpha in (0.25, 0.5, 0.75):
            errs = [
                abs(gf.renyi_entropy(model, t, alpha) / t - oracle.e_of_alpha(alpha))
                for t in (40.0, 60.0, 80.0)
            ]
            assert errs[0] > errs[1] > errs[2]


class TestChainPerturbation:
    def test_identity_with_energy_forms(self):
        spec = gf.ChainSpec(n_left=12, n_right=9, temps=(4.0, 1.7, 1.0))
        model, _ = gf.build_chain(spec)
        p = gf.build_chain_perturbation(spec)
        bl, bc, br = (1.0 / t for t in spec.temps)
        rhs = br * chain_energy_form(spec) - (br - bl) * chain_energy_form_left_neumann(spec)
        assert np.abs(covariance_inverse(model) + p - rhs).max() < 1e-10

    def test_equal_temperature_perturbation_kills_sigma(self):
        # at uniform temperature the perturbed reference is the Gibbs state
        # of the coupled Hamiltonian, which the flow leaves invariant
        spec = gf.ChainSpec(n_left=8, n_right=8, temps=(1.0, 1.0, 1.0))
        base, _ = gf.build_chain(spec)
        pert = gf.perturb_reference(base, gf.build_chain_perturbation(spec))
        assert np.abs(pert.covariance - np.linalg.inv(chain_energy_form(spec))).max() < 1e-12
        assert np.abs(gf.sigma_matrix(pert).matrix).max() < 1e-12

    def test_perturbed_interval_contains_oracle_interval(self, chain):
        model, oracle = chain
        spec = gf.ChainSpec(n_left=16, n_right=16, temps=(2.0, 1.0, 1.0))
        pert = gf.perturb_reference(model, gf.build_chain_perturbation(spec))
        deltas = []
        for t in (5.0, 10.0, 20.0):
            dom = gf.domain_interval(pert, t)
            assert dom.lower < -oracle.delta_o + 1e-9
            assert dom.upper > 1.0 + oracle.delta_o - 1e-9
            deltas.append(dom.delta_t)
        assert deltas[0] > deltas[1] > deltas[2] > oracle.delta_o - 1e-9

    def test_rejects_hotter_right_side(self):
        spec = gf.ChainSpec(n_left=8, n_right=8, temps=(1.0, 1.0, 2.0))
        with pytest.raises(gf.DomainError):
            gf.build_chain_perturbation(spec)


class TestChainSpecValidation:
    def test_bad_temps(self):
        with pytest.raises(StructuralError):
            gf.ChainSpec(n_left=4, n_right=4, temps=(1.0, -1.0, 1.0))

    def test_bad_inhomogeneous_shapes(self):
        with pytest.raises(StructuralError):
            gf.ChainSpec(n_left=4, n_right=4, inhomogeneous=(np.ones(3), np.ones(4)))
