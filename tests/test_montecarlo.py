import hashlib
import math

import numpy as np
import pytest
import scipy.linalg as sla

import gaussfluct as gf
from gaussfluct import montecarlo as mc
from gaussfluct._linalg import AccuracyError, _eigenbasis, generator_norm_bound, propagator, symmetrize
from gaussfluct.model import DomainError, covariance_roots


def _reference_rows(seed, start, stop, dim):
    """The stream by definition: a fresh Philox(key=seed, counter=i * 2**64) for row i."""
    key = int(seed) & ((1 << 128) - 1)
    rows = [np.random.Generator(np.random.Philox(key=key, counter=i << 64)).standard_normal(dim)
            for i in range(start, stop)]
    return np.array(rows)


class TestDrawStream:
    @pytest.mark.parametrize("seed", [0, 42, -3, 2**127 + 5])
    @pytest.mark.parametrize("start", [0, 10, mc.CHUNK])
    @pytest.mark.parametrize("dim", [1, 514])
    def test_rows_match_per_row_construction(self, seed, start, dim):
        rows = mc._draw_rows(seed, start, start + 37, dim)
        assert rows.shape == (37, dim)
        assert rows.tobytes() == _reference_rows(seed, start, start + 37, dim).tobytes()

    def test_one_philox_per_call(self, monkeypatch):
        made = []
        real = np.random.Philox

        def counting(*args, **kwargs):
            made.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counting)
        mc._draw_rows(42, 0, mc.CHUNK, 8)
        assert len(made) == 1
        mc._draw_rows(42, mc.CHUNK, mc.CHUNK + 5, 8)
        assert len(made) == 2


class TestSampling:
    def test_identity_covariance_statistics(self):
        batch = gf.sample_gaussian(np.eye(32), seed=42, count=100_000, workers=2)
        sample_cov = (batch.draws.T @ batch.draws) / batch.count
        assert np.abs(sample_cov - np.eye(32)).max() < 4.0 / math.sqrt(batch.count)
        assert np.abs(batch.mean).max() < 4.0 / math.sqrt(batch.count)

    def test_determinism_across_runs_and_workers(self):
        cov = np.diag([1.0, 2.0, 0.5, 3.0])
        digests = set()
        for workers in (1, 3, 7):
            batch = gf.sample_gaussian(cov, seed=42, count=1000, workers=workers)
            digests.add(hashlib.sha256(batch.draws.tobytes()).hexdigest())
            assert batch.mean.tobytes() == gf.sample_gaussian(cov, seed=42, count=1000,
                                                              workers=workers).mean.tobytes()
        assert len(digests) == 1

    def test_quad_forms_deterministic(self, chain_model):
        sig = gf.sigma_matrix(chain_model).matrix
        a = mc.quad_form_samples(chain_model.covariance, [sig], seed=7, count=500, workers=1)
        b = mc.quad_form_samples(chain_model.covariance, [sig], seed=7, count=500, workers=4)
        assert a.tobytes() == b.tobytes()

    def test_multi_chunk_deterministic_across_workers(self, chain_model, chain_mid, chain_mid_limits):
        # three chunks, the last one short: every worker count runs them in its own order
        count = 2 * mc.CHUNK + 17
        sig = gf.sigma_matrix(chain_model).matrix
        model, _ = chain_mid
        results = []
        for workers in (1, 2, 3, 4):
            quad = mc.quad_form_samples(chain_model.covariance, [sig], seed=7, count=count,
                                        workers=workers)
            batch = gf.sample_gaussian(model.covariance, seed=7, count=count, workers=workers)
            defect = mc.propagated_sample_cov_defect(model, chain_mid_limits.d_plus, 10.0, seed=7,
                                                     count=count, workers=workers)
            results.append((quad.tobytes(), batch.draws.tobytes(), batch.mean.tobytes(),
                            batch.variance.tobytes(), defect))
        assert results[0] == results[1] == results[2] == results[3]

    def test_trace_identity(self, chain_model):
        rows = mc.trace_identity_report(chain_model.covariance, seed=11, count=20_000, n_mats=10)
        assert all(abs(r["z_score"]) <= 4.0 for r in rows)

    def test_non_spd_rejected(self):
        with pytest.raises(DomainError):
            gf.sample_gaussian(np.diag([1.0, -1.0]), seed=0, count=10)

    @pytest.mark.parametrize("entry", ["quad_form_samples", "clt_sample", "slln_trajectory",
                                       "propagated_sample_cov_defect"])
    def test_non_spd_rejected_by_every_sampler(self, entry):
        bad = np.diag([1.0, -1.0])
        model = _jordan_model()
        calls = {
            "quad_form_samples": lambda: mc.quad_form_samples(bad, [np.eye(2)], seed=0, count=10),
            "clt_sample": lambda: gf.clt_sample(model, "ness", 1.0, seed=0, count=10, variance=1.0,
                                                omega_bar=0.0, d_plus=bad),
            "slln_trajectory": lambda: gf.slln_trajectory(model, "ness", horizon=2.0, seed=0,
                                                          d_plus=bad),
            "propagated_sample_cov_defect": lambda: mc.propagated_sample_cov_defect(
                model, bad, 1.0, seed=0, count=10),
        }
        with pytest.raises(DomainError, match="not positive definite"):
            calls[entry]()

    @pytest.mark.parametrize("count", [0, -1])
    def test_empty_sample_rejected(self, count):
        samplers = [
            lambda: gf.sample_gaussian(np.eye(2), seed=0, count=count),
            lambda: mc.quad_form_samples(np.eye(2), [np.eye(2)], seed=0, count=count),
            lambda: mc.propagated_sample_cov_defect(_jordan_model(), np.eye(2), 1.0, seed=0,
                                                    count=count),
        ]
        for sampler in samplers:
            with pytest.raises(ValueError, match=f"count = {count} "):
                sampler()

    @pytest.mark.parametrize("count", [0, 1])
    def test_standard_error_needs_two_draws(self, chain_model, count):
        estimators = [
            lambda: mc.trace_identity_report(chain_model.covariance, seed=0, count=count),
            lambda: mc.change_of_measure_report(chain_model, 1.0, seed=0, count=count),
            lambda: gf.empirical_mgf(chain_model, 3.0, 0.1, seed=0, count=count),
        ]
        for estimator in estimators:
            with pytest.raises(ValueError, match=f"count = {count} "):
                estimator()


def _dense_quad_forms(cov, mats, seed, count):
    """(x, M x) by the general product: einsum(z @ W, z) with W = C'MC, all rows at once."""
    chol = np.linalg.cholesky(cov)
    z = mc._draw_rows(seed, 0, count, cov.shape[0])
    return np.stack([np.einsum("ij,ij->i", z @ (chol.T @ m @ chol), z) for m in mats], axis=1)


class TestTriangularQuadForms:
    @pytest.mark.parametrize("dim,count", [(1, 50), (66, 2 * mc.CHUNK + 17)])
    def test_matches_dense_product(self, dim, count):
        # a non-symmetric M: the fold W_ij + W_ji keeps its form exactly
        rng = np.random.default_rng(dim)
        a = rng.standard_normal((dim, dim))
        cov = a @ a.T + dim * np.eye(dim)
        mats = [rng.standard_normal((dim, dim)), symmetrize(rng.standard_normal((dim, dim)))]
        got = mc.quad_form_samples(cov, mats, seed=9, count=count, workers=2)
        ref = _dense_quad_forms(cov, mats, 9, count)
        assert got.shape == (count, 2)
        for j in range(2):
            assert np.abs(got[:, j] - ref[:, j]).max() <= 1e-13 * np.abs(ref[:, j]).max()

    def test_inputs_unmodified(self, chain_model):
        cov = chain_model.covariance.copy()
        mats = [gf.sigma_matrix(chain_model).matrix.copy(), np.triu(np.ones_like(cov))]
        saved = [cov.copy()] + [m.copy() for m in mats]
        mc.quad_form_samples(cov, mats, seed=1, count=300)
        for before, after in zip(saved, [cov] + mats):
            assert after.tobytes() == before.tobytes()

    def test_propagated_defect_matches_two_products(self, chain_mid):
        # the once-formed factor C' e^{tL'} against (z C') e^{tL'}
        model, _ = chain_mid
        cov, count = model.covariance, mc.CHUNK + 5
        x = mc._draw_rows(2, 0, count, model.dim) @ np.linalg.cholesky(cov).T
        y = x @ propagator(model.generator, 3.0).T
        ref = float(np.abs(y.T @ y / count - cov).max())
        got = mc.propagated_sample_cov_defect(model, cov, 3.0, seed=2, count=count)
        assert abs(got - ref) <= 1e-12 * np.abs(cov).max()


def _jordan_model():
    """2x2 Jordan block: eig returns two nearly parallel eigenvectors, kappa(V) ~ 9e15."""
    return gf.Model(dim=2, generator=np.array([[-1.0, 1.0], [0.0, -1.0]]), covariance=np.eye(2))


def _van_loan_gramian(generator, q, t):
    """G(t) = int_0^t e^{sA'} Q e^{sA} ds by Van Loan at tau = t/2^k, where |tau|*||A|| < 1, then k doublings.

    At tau, F = expm([[-A', Q], [0, A]] tau) gives G(tau) = F22' F12 and
    e^{tau A} = F22 (Van Loan, IEEE TAC 23(3), 1978, Thm 1); each doubling
    is G(2s) = G(s) + e^{sA'} G(s) e^{sA}.  One expm at t itself loses the
    digits that e^{-tA'} gains: on the Jordan block [[-1, 1], [0, -1]] its
    Lyapunov residual is 3e-7 at t = 10 and exceeds G itself at t = 40,
    while the doublings stay at roundoff.
    """
    n = generator.shape[0]
    k = max(0, math.frexp(abs(t) * generator_norm_bound(generator))[1])
    block = np.zeros((2 * n, 2 * n))
    block[:n, :n] = -generator.T
    block[:n, n:] = q
    block[n:, n:] = generator
    f = sla.expm(math.ldexp(t, -k) * block)
    e = f[n:, n:]
    g = symmetrize(e.T @ f[:n, n:])
    for _ in range(k):
        g = symmetrize(g + e.T @ g @ e)
        e = e @ e
    return g


def _lyapunov_residual(model, t):
    """|L'B_t + B_t L - (e^{tL'} sigma e^{tL} - sigma)|_max over its largest term."""
    gen = model.generator
    sig = gf.sigma_matrix(model).matrix
    b = gf.sigma_integral_matrix(model, t).matrix
    e = propagator(gen, t)
    pushed = e.T @ sig @ e
    resid = np.abs(gen.T @ b + b @ gen - pushed + sig).max()
    return resid / max(np.abs(pushed).max(), np.abs(sig).max())


class TestSigmaIntegral:
    def test_time_zero(self, chain_model):
        b = gf.sigma_integral_matrix(chain_model, 0.0)
        assert np.abs(b.matrix).max() == 0.0
        assert b.offset == 0.0

    def test_derivative_at_zero_is_sigma(self, chain_model):
        h = 1e-4
        bp = gf.sigma_integral_matrix(chain_model, h)
        bm = gf.sigma_integral_matrix(chain_model, -h)
        deriv = (bp.matrix - bm.matrix) / (2 * h)
        assert np.abs(deriv - gf.sigma_matrix(chain_model).matrix).max() < 1e-7

    @pytest.mark.parametrize("t", [-6.0, 2.0, 10.0])
    def test_lyapunov_identity(self, chain_model, toy_model, t):
        # the integral of d/ds e^{sL'} sigma e^{sL} over [0, t]: exact for every t
        for model in (chain_model, toy_model):
            assert _lyapunov_residual(model, t) <= 1e-12

    @pytest.mark.parametrize("s,t", [(3.0, 4.0), (-2.0, 5.0)])
    def test_additivity(self, chain_model, toy_model, s, t):
        for model in (chain_model, toy_model):
            e = propagator(model.generator, s)
            b_s, b_t, b_st = (gf.sigma_integral_matrix(model, x).matrix for x in (s, t, s + t))
            assert np.abs(b_st - b_s - e.T @ b_t @ e).max() <= 1e-12 * np.abs(b_st).max()

    @pytest.mark.parametrize("t", [-6.0, 2.0, 10.0])
    def test_modal_matches_van_loan(self, nonnormal_model, t):
        model = nonnormal_model
        assert _eigenbasis(model.generator) is not None
        b = gf.sigma_integral_matrix(model, t).matrix
        ref = _van_loan_gramian(model.generator, gf.sigma_matrix(model).matrix, t)
        assert np.abs(b - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("t", [1e-6, 1e-3])
    def test_small_times_match_van_loan(self, chain_model, t):
        # the plain difference e^{tL'} D^-1 e^{tL} - D^-1 misses by 2.7e-9 at t = 1e-6;
        # at these t the reference is one expm, with no doubling
        b = gf.sigma_integral_matrix(chain_model, t).matrix
        ref = _van_loan_gramian(chain_model.generator, gf.sigma_matrix(chain_model).matrix, t)
        assert np.abs(b - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("t", [1e-6, 1e-3])
    def test_relative_T_is_twice_b_at_minus_t(self, chain_model, nonnormal_model, t):
        # T_t = 2 B_{-t}; inverting D_t by Cholesky missed by 3.1e-9 (relative) at t = 1e-6
        for model in (chain_model, nonnormal_model):
            rel = gf.flow_point(model, t).relative_T
            ref = 2.0 * _van_loan_gramian(model.generator, gf.sigma_matrix(model).matrix, -t)
            assert np.abs(rel - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("t", [-6.0, 2.0, 10.0])
    def test_law_weights_are_flow_point_at_minus_t(self, chain_model, nonnormal_model, t):
        # under N(0, D), (x, B_t x) is a weighted chi-square with weights
        # spec(C' B_t C); as B_t = 1/2 T_{-t}, they are 1/2 spec(K_{-t})
        for model in (chain_model, nonnormal_model):
            chol = np.linalg.cholesky(model.covariance)
            b = gf.sigma_integral_matrix(model, t).matrix
            weights = np.linalg.eigvalsh(symmetrize(chol.T @ b @ chol))
            ref = np.sort(0.5 * gf.flow_point(model, -t).spectrum)
            assert np.abs(weights - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("t", [-6.0, 2.0, 10.0, 40.0])
    def test_defective_generator_takes_expm(self, t):
        # B_t of a block that fails the gate reads the increment expm(tA) - I
        model = _jordan_model()
        assert _eigenbasis(model.generator) is None
        assert _lyapunov_residual(model, t) <= 1e-12

    def test_horizon_refusal(self, chain_model):
        with pytest.raises(AccuracyError):
            gf.sigma_integral_matrix(chain_model, 1e5)
        with pytest.raises(AccuracyError):
            gf.sigma_integral_matrix(_jordan_model(), 1e5)


class TestEmpiricalMgf:
    def test_alpha_zero_is_exact(self, chain_model):
        est, se = gf.empirical_mgf(chain_model, 3.0, 0.0, seed=1, count=100)
        assert est == 0.0

    def test_matches_renyi_oracle(self, chain_model):
        t, alpha = 5.0, 0.25
        est, se = gf.empirical_mgf(chain_model, t, alpha, seed=5, count=20_000, workers=2)
        oracle = gf.renyi_entropy(chain_model, t, alpha)
        assert abs(est - oracle) <= 4.0 * se

    def test_domain_margin_enforced(self, chain_model):
        dom = gf.domain_interval(chain_model, 5.0)
        with pytest.raises(DomainError):
            gf.empirical_mgf(chain_model, 5.0, dom.upper - 1e-6, seed=1, count=100)

    def test_boundary_probe_grows_with_count(self, chain_model):
        # just outside J_t the true MGF is infinite: finite-sample estimates climb
        dom = gf.domain_interval(chain_model, 5.0)
        alpha = dom.upper + 0.05
        small, _ = gf.empirical_mgf(chain_model, 5.0, alpha, seed=3, count=2_000,
                                    enforce_domain=False)
        large, _ = gf.empirical_mgf(chain_model, 5.0, alpha, seed=3, count=50_000,
                                    enforce_domain=False)
        assert large > small


class TestSllnTrajectory:
    def test_equilibrium_time_average_vanishes(self, equilibrium_chain):
        series = gf.slln_trajectory(equilibrium_chain, "reference", horizon=20.0, seed=4)
        assert abs(series[-1][1]) < 1e-10

    def test_toy_time_average_decays(self):
        model, _ = gf.build_toy(gf.ToySpec(n=64, lam=1.0))
        series = gf.slln_trajectory(model, "reference", horizon=30.0, seed=8)
        times = [t for t, _ in series]
        assert times == sorted(times)
        assert abs(series[-1][1]) < 0.15

    def test_chain_mean_over_seeds_near_omega_plus(self, chain_mid, chain_mid_limits):
        model, oracle = chain_mid
        finals = [gf.slln_trajectory(model, "reference", horizon=40.0, seed=s)[-1][1]
                  for s in range(30)]
        mean = float(np.mean(finals))
        se = float(np.std(finals)) / math.sqrt(len(finals))
        # the time average is unbiased for the finite-t mean, which sits within
        # ~10% of omega+ at this horizon
        assert abs(mean - oracle.omega_plus_sigma) <= 5 * se + 0.1 * oracle.omega_plus_sigma

    @pytest.mark.parametrize("measure", ["reference", "ness"])
    def test_matches_flow_point_formula(self, chain_mid, chain_mid_limits, measure):
        # Sigma_t = 1/2 (|D^{-1/2} e^{tL} x|^2 - |D^{-1/2} x|^2)/t - tr L with e^{tL} from the flow point
        model, _ = chain_mid
        d_plus = chain_mid_limits.d_plus
        cov = model.covariance if measure == "reference" else d_plus
        series = gf.slln_trajectory(model, measure, horizon=40.0, seed=5, d_plus=d_plus)
        x = (mc._draw_rows(5, 0, 1, model.dim) @ np.linalg.cholesky(cov).T)[0]
        whitener = covariance_roots(model)[1]
        start = float((whitener @ x) @ (whitener @ x))
        tr_term = float(np.trace(model.generator))
        for t, value in series:
            y = whitener @ (gf.flow_point(model, t).propagator @ x)
            ref = 0.5 * (float(y @ y) - start) / t - tr_term
            assert abs(value - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_ness_measure_needs_d_plus(self, chain_model):
        with pytest.raises(ValueError):
            gf.slln_trajectory(chain_model, "ness", horizon=10.0, seed=0)

    def test_ness_draws_use_stationary_covariance(self, chain_mid, chain_mid_limits):
        model, _ = chain_mid
        series = gf.slln_trajectory(model, "ness", horizon=20.0, seed=1,
                                    d_plus=chain_mid_limits.d_plus)
        assert len(series) > 5


class TestCltSample:
    def test_degenerate_variance_skipped(self, toy_model):
        report = gf.clt_sample(toy_model, "reference", 10.0, seed=1, count=100,
                               variance=0.0, omega_bar=0.0)
        assert report.skipped
        assert "degenerate" in report.note

    def test_chain_ks_loose(self, chain_mid, chain_mid_limits):
        model, oracle = chain_mid
        report = gf.clt_sample(model, "ness", 20.0, seed=2, count=4000,
                               variance=oracle.clt_variance,
                               omega_bar=oracle.omega_plus_sigma,
                               d_plus=chain_mid_limits.d_plus, workers=2)
        assert not report.skipped
        assert report.ks_distance < 0.1
        assert report.counts.sum() == 4000

    def test_histogram_csv(self, tmp_path, chain_model):
        report = gf.clt_sample(chain_model, "reference", 5.0, seed=3, count=500,
                               variance=0.2, omega_bar=0.1)
        path = tmp_path / "hist.csv"
        mc.write_histogram_csv(path, report)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "bin_lo,bin_hi,count"
        assert sum(int(l.split(",")[2]) for l in lines[1:]) == 500


class TestChangeOfMeasure:
    def test_normalization(self, chain_model):
        report = mc.change_of_measure_report(chain_model, 1.0, seed=6, count=50_000, workers=2)
        assert abs(report["z_score"]) <= 4.0

    def test_ness_invariance_surrogate(self, chain_mid, chain_mid_limits):
        model, _ = chain_mid
        count = 20_000
        defect = mc.propagated_sample_cov_defect(model, chain_mid_limits.d_plus, 10.0,
                                                 seed=9, count=count, workers=2)
        bound = chain_mid_limits.plateau_residual + 4.0 / math.sqrt(count) * float(
            np.abs(chain_mid_limits.d_plus).max()
        )
        assert defect <= bound + 0.05
