"""Malformed inputs raise the package's named errors, never a silent number.

On the 4+1+4 chain (dim 18), a D+ of the wrong shape, with a non-finite
entry or not positive definite, and a NaN time, alpha, s or horizon, in the
NESS functionals and in the Monte Carlo entry points that take a D+ or a time;
and a sampling covariance or a quadratic form of the wrong shape or with a
non-finite entry in every Monte Carlo entry point that takes one.
"""

import math

import numpy as np
import pytest

import gaussfluct as gf
from gaussfluct import ldp, montecarlo, renyi
from gaussfluct.model import DomainError, SingularCovarianceError, StructuralError


@pytest.fixture(scope="module")
def small_chain():
    return gf.build_chain(gf.ChainSpec(n_left=4, n_right=4))[0]


def _with(n, entry, value):
    d = np.eye(n)
    d[entry] = value
    return d


BAD_D_PLUS = {
    "3x3 identity": (lambda n: np.eye(3), StructuralError),
    "(n+1)x(n+1) identity": (lambda n: np.eye(n + 1), StructuralError),
    "NaN entry": (lambda n: _with(n, (0, 1), math.nan), StructuralError),
    "inf entry": (lambda n: _with(n, (2, 2), math.inf), StructuralError),
    "-I": (lambda n: -np.eye(n), SingularCovarianceError),
}

NESS_CALLS = {
    "renyi_entropy_ness": lambda m, d: gf.renyi_entropy_ness(m, 5.0, 0.1, d),
    "ness_functional": lambda m, d: renyi.ness_functional(m, 5.0, d),
    "domain_interval_ness": lambda m, d: gf.domain_interval_ness(m, 5.0, d),
}


@pytest.mark.parametrize("case", BAD_D_PLUS)
@pytest.mark.parametrize("call", NESS_CALLS)
def test_bad_d_plus_raises_a_named_error(small_chain, call, case):
    make, error = BAD_D_PLUS[case]
    entries, keys = renyi.spectral_cache_info()["entries"], list(renyi._stores)
    with pytest.raises(error):
        NESS_CALLS[call](small_chain, make(small_chain.dim))
    # a refused D+ is not stored and evicts nothing; a second call raises the same way
    assert renyi.spectral_cache_info()["entries"] == entries and list(renyi._stores) == keys
    with pytest.raises(error):
        NESS_CALLS[call](small_chain, make(small_chain.dim))


SCALAR_NAN = {
    "renyi_entropy alpha": (lambda m: gf.renyi_entropy(m, 5.0, math.nan), DomainError),
    "renyi_entropy_ness alpha": (lambda m: gf.renyi_entropy_ness(m, 5.0, math.nan, np.eye(m.dim)),
                                 DomainError),
    "rate_function s": (lambda m: ldp.rate_function(renyi.reference_functional(m, 5.0),
                                                    kind="reference")(math.nan), DomainError),
    "flow_point t": (lambda m: gf.flow_point(m, math.nan), DomainError),
    "renyi_entropy t": (lambda m: gf.renyi_entropy(m, math.nan, 0.3), DomainError),
    "estimate_limit_covariance horizon": (lambda m: gf.estimate_limit_covariance(m, math.nan),
                                          ValueError),
}


@pytest.mark.parametrize("case", SCALAR_NAN)
def test_scalar_nan_raises_a_named_error(small_chain, case):
    call, error = SCALAR_NAN[case]
    with pytest.raises(error):
        call(small_chain)


MC_NESS_CALLS = {
    "slln_trajectory": lambda m, d: gf.slln_trajectory(m, "ness", 5.0, seed=1, d_plus=d),
    "clt_sample": lambda m, d: gf.clt_sample(m, "ness", 1.0, seed=1, count=10, variance=1.0,
                                             omega_bar=0.0, d_plus=d),
}


@pytest.mark.parametrize("case", [c for c, (_, error) in BAD_D_PLUS.items() if error is StructuralError])
@pytest.mark.parametrize("call", MC_NESS_CALLS)
def test_monte_carlo_refuses_a_malformed_d_plus(small_chain, call, case):
    make, error = BAD_D_PLUS[case]
    with pytest.raises(error):
        MC_NESS_CALLS[call](small_chain, make(small_chain.dim))


MC_SCALAR_NAN = {
    "slln_trajectory horizon": (lambda m: gf.slln_trajectory(m, "reference", math.nan, seed=1),
                                ValueError),
}


@pytest.mark.parametrize("case", MC_SCALAR_NAN)
def test_monte_carlo_scalar_nan_raises_a_named_error(small_chain, case):
    call, error = MC_SCALAR_NAN[case]
    with pytest.raises(error):
        call(small_chain)


BAD_MATRIX = {
    "NaN entry": lambda n: _with(n, (1, 0), math.nan),
    "inf entry": lambda n: _with(n, (2, 2), math.inf),
    "n x (n+1)": lambda n: np.eye(n, n + 1),
    "vector": lambda n: np.ones(n),
}
BAD_FORM = {**BAD_MATRIX, "3x3 identity": lambda n: np.eye(3)}

MC_COV_CALLS = {
    "trace_identity_report": lambda m, c: montecarlo.trace_identity_report(c, seed=1, count=10,
                                                                           n_mats=1),
    "quad_form_samples": lambda m, c: montecarlo.quad_form_samples(c, [np.eye(len(c))], seed=1,
                                                                   count=10),
    "run_checks": lambda m, c: montecarlo.run_checks(c, [montecarlo.mgf_check(m, 1.0, 0.1)],
                                                     seed=1, count=10),
}


@pytest.mark.parametrize("case", BAD_MATRIX)
@pytest.mark.parametrize("call", MC_COV_CALLS)
def test_monte_carlo_refuses_a_malformed_covariance(small_chain, call, case):
    with pytest.raises(StructuralError):
        MC_COV_CALLS[call](small_chain, BAD_MATRIX[case](small_chain.dim))


@pytest.mark.parametrize("case", BAD_FORM)
def test_quad_form_samples_refuses_a_malformed_form(small_chain, monkeypatch, case):
    # refused when folded, before any draw
    monkeypatch.setattr(montecarlo, "_draw_rows", lambda *args: pytest.fail("rows drawn"))
    forms = [np.eye(small_chain.dim), BAD_FORM[case](small_chain.dim)]
    with pytest.raises(StructuralError):
        montecarlo.quad_form_samples(small_chain.covariance, forms, seed=1, count=10)


MC_NAN_SCALAR = {
    "clt_sample variance": lambda m: gf.clt_sample(m, "reference", 1.0, seed=1, count=10,
                                                   variance=math.nan, omega_bar=0.0),
    "clt_sample t": lambda m: gf.clt_sample(m, "reference", math.nan, seed=1, count=10,
                                            variance=1.0, omega_bar=0.0),
    "clt_sample omega_bar": lambda m: gf.clt_sample(m, "reference", 1.0, seed=1, count=10,
                                                    variance=1.0, omega_bar=math.nan),
    "empirical_mgf alpha": lambda m: gf.empirical_mgf(m, 1.0, math.nan, seed=1, count=10,
                                                      enforce_domain=False),
    "empirical_mgf t": lambda m: gf.empirical_mgf(m, math.nan, 0.1, seed=1, count=10,
                                                  enforce_domain=False),
    "change_of_measure_report t": lambda m: montecarlo.change_of_measure_report(m, math.nan,
                                                                                seed=1, count=10),
}


@pytest.mark.parametrize("case", MC_NAN_SCALAR)
def test_monte_carlo_nan_scalar_raises_domain_error(small_chain, case):
    with pytest.raises(DomainError):
        MC_NAN_SCALAR[case](small_chain)


@pytest.mark.parametrize("diff,std_error,expected", [
    (1.0, 2.0, 0.5), (0.0, 0.0, 0.0), (1.0, 0.0, math.inf), (-1.0, 0.0, -math.inf),
    (1.0, math.nan, math.nan), (math.nan, 1.0, math.nan), (math.nan, 0.0, math.nan),
    (0.0, math.nan, math.nan),
])
def test_nan_standard_error_is_never_a_zero_z_score(diff, std_error, expected):
    z = montecarlo.z_score(diff, std_error)
    assert (math.isnan(z) and math.isnan(expected)) or z == expected
