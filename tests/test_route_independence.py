"""Route independence: the same physics through another eigenbasis route.

The route of a generator block (unitary, oscillator, eig, or the expm
fallback) is read from its content, and so is the split into connected
components.  A coordinate permutation P x changes neither the physics nor
any spectrum, but it can send a model down another route: the permuted
128+1+128 chain loses its [[0, -J], [I, 0]] layout and takes the eig route,
and the permuted split toy stays skew but hands the component search two
groups that are not contiguous.  Each route is thus an oracle for the other.

Tolerances are pinned at 100 times the scale measured on the chain at
horizon 60 (D+ within 1.2e-13 max-abs, e(1/2) within 1.2e-15, e_10(1/2)
within 5.0e-15): 1e-11 relative for matrices and 1e-12 for spectra and
values, each relative to the largest magnitude it compares.  spec(Q) is the
exception: Q = I - D-^{1/2} D+^-1 D-^{1/2} carries the D+ gap between the
routes (9.8e-14 max-abs) through D+^-1 amplified about fifteenfold, to
1.45e-12, so it is held to the matrix tolerance of the D+ it is built from.
"""

import numpy as np
import pytest

import gaussfluct as gf
from gaussfluct import _linalg
from gaussfluct.flow import flow_point, sigma_integral_matrix

MATRIX_RTOL = 1e-11
VALUE_RTOL = 1e-12
TIMES = (0.7, 5.0)


def permuted(model, perm):
    """The model in the coordinates x[perm]: every matrix M becomes M[perm][:, perm]."""
    ix = np.ix_(perm, perm)
    theta = model.time_reversal
    return gf.Model(dim=model.dim, generator=np.ascontiguousarray(model.generator[ix]),
                    covariance=np.ascontiguousarray(model.covariance[ix]),
                    time_reversal=None if theta is None else np.ascontiguousarray(theta[ix]),
                    label=model.label + " permuted")


def back(mat, perm):
    """Undo permuted() on a matrix."""
    inv = np.argsort(perm)
    return mat[np.ix_(inv, inv)]


def assert_close(got, want, rtol):
    got, want = np.asarray(got, float), np.asarray(want, float)
    assert got.shape == want.shape
    scale = np.abs(want).max()
    assert np.abs(got - want).max() <= rtol * scale, (np.abs(got - want).max(), scale)


def _routes(generator):
    blocks, _ = _linalg._blocks(generator)
    return [_linalg._eigenbasis(generator[np.ix_(idx, idx)], key).route for idx, key in blocks]


def _alphas(dom, count=9):
    """count alphas inside the interval (lower, upper), kept 5% of its width away from each end."""
    lo, hi = max(dom.lower, -5.0), min(dom.upper, 6.0)
    pad = 0.05 * (hi - lo)
    return np.linspace(lo + pad, hi - pad, count)


def assert_finite_time_agrees(model, twin, perm, d_plus, d_plus_twin):
    for t in TIMES:
        fp, fq = flow_point(model, t), flow_point(twin, t)
        assert_close(back(fq.relative_T, perm), fp.relative_T, MATRIX_RTOL)
        assert_close(fq.spectrum, fp.spectrum, VALUE_RTOL)
        b, bq = sigma_integral_matrix(model, t), sigma_integral_matrix(twin, t)
        assert_close(back(bq.matrix, perm), b.matrix, MATRIX_RTOL)
        alphas = _alphas(gf.domain_interval(model, t))
        assert_close([gf.renyi_entropy(twin, t, a) for a in alphas],
                     [gf.renyi_entropy(model, t, a) for a in alphas], VALUE_RTOL)
        alphas = _alphas(gf.domain_interval_ness(model, t, d_plus))
        assert_close([gf.renyi_entropy_ness(twin, t, a, d_plus_twin) for a in alphas],
                     [gf.renyi_entropy_ness(model, t, a, d_plus) for a in alphas], VALUE_RTOL)


@pytest.fixture(scope="module")
def split_toy():
    """Doubled toy n = 128 (dim 256): two skew components of size 128."""
    return gf.build_toy(gf.ToySpec(n=128, lam=1.0))[0]


@pytest.fixture(scope="module")
def chain_large():
    """The reference chain 128+1+128 (dim 514)."""
    return gf.build_chain(gf.ChainSpec(n_left=128, n_right=128, temps=(2.0, 1.0, 1.0)))[0]


def test_split_toy_under_a_permutation(split_toy):
    perm = np.random.default_rng(3).permutation(split_toy.dim)
    twin = permuted(split_toy, perm)
    groups = _linalg._connected_components(twin.generator)
    assert len(groups) == 2 and all(np.any(np.diff(g) > 1) for g in groups)
    assert _routes(split_toy.generator) == _routes(twin.generator) == ["unitary", "unitary"]
    eye = np.eye(split_toy.dim)  # the toy's D+
    assert_finite_time_agrees(split_toy, twin, perm, eye, eye)


def test_chain_under_a_permutation(chain_large):
    perm = np.random.default_rng(5).permutation(chain_large.dim)
    twin = permuted(chain_large, perm)
    assert _routes(chain_large.generator) == ["oscillator"]
    assert _routes(twin.generator) == ["eig"]
    lims = gf.estimate_limit_covariance(chain_large, horizon=60.0, grid_points=64)
    lims_twin = gf.estimate_limit_covariance(twin, horizon=60.0, grid_points=64)
    assert_close(back(lims_twin.d_plus, perm), lims.d_plus, MATRIX_RTOL)
    assert_close(gf.q_operator(lims_twin).spectrum, gf.q_operator(lims).spectrum, MATRIX_RTOL)
    assert_finite_time_agrees(chain_large, twin, perm, lims.d_plus, lims_twin.d_plus)
