import numpy as np
import pytest

import gaussfluct as gf


@pytest.fixture(scope="session")
def toy():
    """Doubled toy model, n=64, lam=1 (dim 128)."""
    return gf.build_toy(gf.ToySpec(n=64, lam=1.0))


@pytest.fixture(scope="session")
def toy_model(toy):
    return toy[0]


@pytest.fixture(scope="session")
def toy_oracle(toy):
    return toy[1]


@pytest.fixture(scope="session")
def toy_flat():
    """lam = 0: covariance is the identity, sigma vanishes."""
    return gf.build_toy(gf.ToySpec(n=32, lam=0.0))


@pytest.fixture(scope="session")
def chain():
    """Small chain, 16+1+16 sites (dim 66), temperatures (2, 1, 1)."""
    return gf.build_chain(gf.ChainSpec(n_left=16, n_right=16, temps=(2.0, 1.0, 1.0)))


@pytest.fixture(scope="session")
def chain_model(chain):
    return chain[0]


@pytest.fixture(scope="session")
def chain_oracle(chain):
    return chain[1]


@pytest.fixture(scope="session")
def chain_mid():
    """Chain with 48+1+48 sites (dim 194); echo-free up to t = 48."""
    return gf.build_chain(gf.ChainSpec(n_left=48, n_right=48, temps=(2.0, 1.0, 1.0)))


@pytest.fixture(scope="session")
def chain_mid_limits(chain_mid):
    model, _ = chain_mid
    return gf.estimate_limit_covariance(model, horizon=40.0, grid_points=64)


@pytest.fixture(scope="session")
def nonnormal_model():
    """Random non-normal generator (well-conditioned eigenbasis) and covariance, n = 12."""
    rng = np.random.default_rng(21)
    n = 12
    a = rng.standard_normal((n, n))
    gen = a - a.T - 0.8 * np.eye(n) - 0.2 * (a @ a.T) / n
    b = rng.standard_normal((n, n))
    return gf.Model(dim=n, generator=gen, covariance=b @ b.T + n * np.eye(n))


@pytest.fixture(scope="session")
def equilibrium_chain():
    """Uniform-temperature Gibbs chain: L D + D L' = 0 exactly, sigma = 0."""
    from gaussfluct.models import chain_energy_form

    spec = gf.ChainSpec(n_left=12, n_right=12, temps=(1.5, 1.5, 1.5))
    base, _ = gf.build_chain(spec)
    cov = np.linalg.inv(chain_energy_form(spec)) * 1.5
    cov = 0.5 * (cov + cov.T)
    model = gf.Model(dim=base.dim, generator=base.generator, covariance=cov,
                     time_reversal=base.time_reversal, label="gibbs chain")
    return model
