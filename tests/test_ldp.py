import dataclasses
import math

import numpy as np
import pytest

import gaussfluct as gf
from gaussfluct.model import DomainError
from gaussfluct.renyi import DomainInterval, EntropicFunctional


@pytest.fixture(scope="module")
def chain_efn():
    _, oracle = gf.build_chain(gf.ChainSpec(n_left=8, n_right=8, temps=(2.0, 1.0, 1.0)))
    return oracle.limit_functional(), oracle


class TestToyRates:
    def test_reference_rate_closed_form(self, toy_oracle):
        rate = gf.rate_function(toy_oracle.limit_functional(), kind="reference")
        for s in np.linspace(-3.0, 3.0, 25):
            assert rate(s) == pytest.approx(1.5 * abs(s) - 0.5 * s, abs=1e-8)
        assert rate.minimizer == pytest.approx(0.0, abs=1e-10)

    def test_ness_rate_closed_form(self, toy_oracle):
        rate = gf.rate_function(toy_oracle.limit_functional_ness(), kind="ness")
        for s in np.linspace(-3.0, 3.0, 25):
            assert rate(s) == pytest.approx(2.0 * abs(s), abs=1e-8)

    def test_reference_rate_satisfies_es(self, toy_oracle):
        rate = gf.rate_function(toy_oracle.limit_functional(), kind="reference")
        assert gf.es_symmetry_defect(rate, np.linspace(-2.0, 2.0, 21)) <= 1e-9

    def test_ness_rate_breaks_gallavotti_cohen(self, toy_oracle):
        # I+(-s) - I+(s) - s = -s: the defect grows like |s|
        rate = gf.rate_function(toy_oracle.limit_functional_ness(), kind="ness")
        for s in (0.5, 1.0, 2.0):
            defect = abs(rate(-s) - rate(s) - s)
            assert defect == pytest.approx(s, abs=1e-10)
            assert defect > 0.1


class TestChainRate:
    def test_vanishes_only_at_omega_plus(self, chain_efn):
        efn, oracle = chain_efn
        rate = gf.rate_function(efn, kind="reference")
        w = oracle.omega_plus_sigma
        assert rate(w) <= 1e-9
        assert rate.minimizer == pytest.approx(w, rel=1e-6)
        for s in (-w, 0.0, 0.5 * w, 2.0 * w, 5.0 * w):
            assert rate(s) > 1e-7

    def test_es_symmetry(self, chain_efn):
        efn, oracle = chain_efn
        rate = gf.rate_function(efn, kind="reference")
        grid = np.linspace(-(3 * oracle.omega_plus_sigma + 1), 3 * oracle.omega_plus_sigma + 1, 41)
        assert gf.es_symmetry_defect(rate, grid) <= 1e-6

    def test_convexity(self, chain_efn):
        efn, _ = chain_efn
        rate = gf.rate_function(efn, kind="reference")
        grid = np.linspace(-1.0, 1.5, 101)
        vals = np.array([rate(s) for s in grid])
        second = vals[2:] - 2 * vals[1:-1] + vals[:-2]
        assert second.min() >= -1e-9

    def test_nonnegative(self, chain_efn):
        efn, _ = chain_efn
        rate = gf.rate_function(efn, kind="reference")
        assert min(rate(s) for s in np.linspace(-2, 2, 101)) >= 0.0

    def test_fenchel_young(self, chain_efn):
        efn, _ = chain_efn
        rate = gf.rate_function(efn, kind="reference")
        rng = np.random.default_rng(9)
        etilde = lambda b: efn(-b)
        for _ in range(100):
            beta = rng.uniform(-1.9, 0.9)
            s = rng.uniform(-1.0, 1.0)
            assert etilde(beta) - (beta * s - rate(s)) >= -1e-9

    def test_biconjugacy_against_grid_sup(self, chain_efn):
        efn, _ = chain_efn
        rate = gf.rate_function(efn, kind="reference")
        betas = np.linspace(-1.999, 0.999, 4001)
        evals = np.array([efn(-b) for b in betas])
        for s in (-0.4, 0.05, 0.0983, 0.7):
            grid_sup = np.max(betas * s - evals)
            assert rate(s) >= grid_sup - 1e-9
            assert rate(s) <= grid_sup + 1e-4  # grid sup is itself 2nd-order accurate

    def test_reference_and_ness_rates_agree_near_minimum(self, chain_efn):
        # the stationary-state functional coincides with the reference one on
        # the overlap of domains, so the conjugates match near omega+
        efn, oracle = chain_efn
        # a stand-in stationary-state domain strictly inside the reference one
        ness_dom = DomainInterval(lower=-0.8, upper=1.2, kind="ness")
        efn_ness = dataclasses.replace(efn, domain=ness_dom)
        rate_ref = gf.rate_function(efn, kind="reference")
        rate_ness = gf.rate_function(efn_ness, kind="ness")
        w = oracle.omega_plus_sigma
        for s in np.linspace(w - 0.1 * w, w + 0.1 * w, 9):
            assert rate_ness(s) == pytest.approx(rate_ref(s), abs=1e-8)


    def test_tails_start_at_a_stated_endpoint(self, chain_efn):
        # e' is finite at a stated endpoint, so past -e'(end) I is the line
        # -end*s - e(end) through the endpoint itself
        efn, _ = chain_efn
        efn_ness = dataclasses.replace(efn, domain=DomainInterval(lower=-0.8, upper=1.2, kind="ness"))
        rate = gf.rate_function(efn_ness, kind="ness")
        for s, end in ((1.0, -0.8), (-1.0, 1.2)):
            assert rate(s) == pytest.approx(-end * s - efn(end), abs=1e-14)


class TestCltVariance:
    def test_flat_toy_gives_zero(self, toy_oracle):
        assert gf.clt_variance(toy_oracle.limit_functional(), 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_chain_matches_symbolic_derivative(self, chain_efn):
        efn, oracle = chain_efn
        a_fd = gf.clt_variance(efn, 1.0)
        assert a_fd == pytest.approx(oracle.clt_variance, rel=1e-6)
        assert oracle.clt_variance == pytest.approx(gf.KAPPA * 0.5 * 2.5, rel=1e-12)

    def test_g4_symmetry_of_curvature(self, chain_efn):
        efn, _ = chain_efn
        assert gf.clt_variance(efn, 1.0) == pytest.approx(gf.clt_variance(efn, 0.0), rel=1e-6)

    def test_margin_enforced(self, chain_efn):
        efn, _ = chain_efn
        for end, outward in ((efn.domain.lower, -math.inf), (efn.domain.upper, math.inf)):
            for at in (end, np.nextafter(end, outward)):
                with pytest.raises(DomainError):
                    gf.clt_variance(efn, at)
            assert math.isfinite(gf.clt_variance(efn, np.nextafter(end, -outward)))


class TestRejection:
    def test_nonconvex_input_rejected(self):
        # one atom of negative mass at r = 2: e(alpha) = log(1 - alpha/2) is concave
        dom = DomainInterval(lower=-1.0, upper=2.0, kind="reference", delta_t=1.0)
        concave = EntropicFunctional(c=0.0, q=[0.5], w=-1.0, domain=dom, meta="asymptotic")
        with pytest.raises(DomainError, match="not convex near alpha"):
            gf.rate_function(concave, kind="reference")

    def test_unbounded_nonflat_rejected(self):
        efn = EntropicFunctional(c=1.0, q=[], w=0.0, meta="asymptotic")
        assert (efn.domain.lower, efn.domain.upper) == (-math.inf, math.inf)
        with pytest.raises(DomainError):
            gf.rate_function(efn, kind="reference")

    def test_bad_kind(self, toy_oracle):
        with pytest.raises(ValueError):
            gf.rate_function(toy_oracle.limit_functional(), kind="both")
