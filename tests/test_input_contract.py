"""Malformed inputs raise the package's named errors, never a silent number.

On the 4+1+4 chain (dim 18), a D+ of the wrong shape, with a non-finite
entry or not positive definite, and a NaN time, alpha, s or horizon, in the
NESS functionals and in the Monte Carlo entry points that take a D+ or a time.
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
    "propagated_sample_cov_defect": lambda m, d: montecarlo.propagated_sample_cov_defect(
        m, d, 1.0, seed=1, count=10),
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
    "propagated_sample_cov_defect t": (
        lambda m: montecarlo.propagated_sample_cov_defect(m, np.eye(m.dim), math.nan, seed=1,
                                                          count=10),
        DomainError),
}


@pytest.mark.parametrize("case", MC_SCALAR_NAN)
def test_monte_carlo_scalar_nan_raises_a_named_error(small_chain, case):
    call, error = MC_SCALAR_NAN[case]
    with pytest.raises(error):
        call(small_chain)
