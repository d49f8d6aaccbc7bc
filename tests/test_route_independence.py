"""Route independence: the same physics through another eigenbasis route.

The route of a generator block (unitary, oscillator, eig, or the expm
fallback) is read from its content, and so is the split into connected
components.  Four transforms change no physics but can change the route:

- a coordinate permutation P x: the permuted 128+1+128 chain loses its
  [[0, -J], [I, 0]] layout and takes the eig route (its window average walks
  the grid), and the permuted split toy stays skew but hands the component
  search two groups that are not contiguous;
- a forced expm fallback: with the kappa gate at 0 every block fails it, so
  every propagator is scipy's expm and every window average walks the grid;
- a time rescaling L -> cL read at t/c (c = 3, not a power of two, so the
  rounding differs): the toy stays skew and takes the unitary route at other
  frequencies and grid times, while the chain's lower-left block becomes
  c I, so it is no oscillator block and takes the eig route;
- an orthogonal similarity L -> O'LO (O from the QR factors of a seeded
  normal matrix), skew-symmetrized with D and theta symmetrized: the split
  toy's two components merge into one dense skew block, which takes the
  unitary route at dimension 256.

The undoubled toy (one skew block, no time reversal, so D- is averaged at
negative times) and nonnormal_model (one eig block; it decays to D_t -> 0,
so it has no limits and its e_{t+} is read at D+ = I) take the permutation,
the time rescaling and the forced fallback; their routes stay unitary and
eig but for the fallback.  Measured under the tolerances below: at most
1.4e-13 (the toy's e_{t+} under the permutation), except e_{t+} of the toy
under the forced fallback, 2.1e-12, held to the matrix tolerance as below.

Each route is thus an oracle for the other.  Tolerances are pinned at 100
times the scale measured on the chain at horizon 60 under the permutation
(D+ within 1.2e-13 max-abs, e(1/2) within 1.2e-15, e_10(1/2) within
5.0e-15): 1e-11 relative for matrices and 1e-12 for spectra and values, each
relative to the largest magnitude it compares.  spec(Q) is the exception:
Q = I - D-^{1/2} D+^-1 D-^{1/2} carries the D+ gap between the routes
(9.8e-14 max-abs) through D+^-1 amplified about fifteenfold, to 1.45e-12,
so it is held to the matrix tolerance of the D+ it is built from.  Under the
forced fallback e_{t+} is held to the matrix tolerance too: scipy's expm is
the less faithful oracle there.  At t = 5 its log det e^{tL} misses the
exact t tr L = 0 by 8.6e-13 on the toy and 4.3e-12 on the chain (the
oscillator and unitary routes: 1.8e-14 and 2.6e-13), and e_{t+}, which 5%
from the end of its domain amplifies its T_t about twentyfold, reads 3.7e-12
against the reference on both models, while T_t and B_t agree within 7e-14.
"""

import dataclasses
from collections import OrderedDict

import numpy as np
import pytest

import gaussfluct as gf
from gaussfluct import _linalg
from gaussfluct._linalg import symmetrize
from gaussfluct.flow import flow_point, sigma_integral_matrix

MATRIX_RTOL = 1e-11
VALUE_RTOL = 1e-12
TIMES = (0.7, 5.0)
SCALE = 3.0


def permuted(model, perm):
    """The model in the coordinates x[perm]: every matrix M becomes M[perm][:, perm]."""
    ix = np.ix_(perm, perm)
    theta = model.time_reversal
    return gf.Model(dim=model.dim, generator=np.ascontiguousarray(model.generator[ix]),
                    covariance=np.ascontiguousarray(model.covariance[ix]),
                    time_reversal=None if theta is None else np.ascontiguousarray(theta[ix]),
                    label=model.label + " permuted")


def unpermuted(perm):
    """The map that undoes permuted() on a matrix."""
    inv = np.argsort(perm)
    return lambda mat: mat[np.ix_(inv, inv)]


def rotated(model, o):
    """A skew model in the coordinates o'x for an orthogonal o: every matrix M becomes o'Mo,
    the generator skew-symmetrized and the covariance and time reversal symmetrized."""
    def similar(mat):
        return o.T @ mat @ o
    gen = similar(model.generator)
    return gf.Model(dim=model.dim, generator=0.5 * (gen - gen.T),
                    covariance=symmetrize(similar(model.covariance)),
                    time_reversal=symmetrize(similar(model.time_reversal)),
                    label=model.label + " rotated")


def unrotated(o):
    """The map that undoes rotated() on a matrix."""
    return lambda mat: o @ mat @ o.T


def rescaled(model, c):
    """The model with generator c L: its flow at t/c is the model's flow at t."""
    return dataclasses.replace(model, generator=c * model.generator, label=model.label + " rescaled")


def assert_close(got, want, rtol, what=""):
    got, want = np.asarray(got, float), np.asarray(want, float)
    assert got.shape == want.shape
    scale = np.abs(want).max()
    assert np.abs(got - want).max() <= rtol * scale, (what, np.abs(got - want).max(), scale)


def _routes(generator):
    return [basis.route for _, basis in _linalg._parts(generator, 0.0)]


def _alphas(dom, count=9):
    """count alphas inside the interval (lower, upper), kept 5% of its width away from each end."""
    lo, hi = max(dom.lower, -5.0), min(dom.upper, 6.0)
    pad = 0.05 * (hi - lo)
    return np.linspace(lo + pad, hi - pad, count)


def observables(model, d_plus, scale=1.0, alphas=None):
    """T_t, spec(K_t), B_t, e_t and e_{t+} at t/scale for each t in TIMES.

    The alphas default to points inside the model's own domains; pass the
    reference's to read a transformed copy at the same points.
    """
    alphas = {} if alphas is None else alphas
    out = {}
    for t in TIMES:
        s = t / scale
        fp = flow_point(model, s)
        a = alphas.setdefault(("e", t), _alphas(gf.domain_interval(model, s)))
        a_plus = alphas.setdefault(("e+", t), _alphas(gf.domain_interval_ness(model, s, d_plus)))
        out[t] = {
            "T": fp.relative_T,
            "spec K": fp.spectrum,
            "B": sigma_integral_matrix(model, s).matrix,
            "e": [gf.renyi_entropy(model, s, x) for x in a],
            "e+": [gf.renyi_entropy_ness(model, s, x, d_plus) for x in a_plus],
        }
    return out, alphas


def assert_same_observables(got, want, home=None, ness_rtol=VALUE_RTOL):
    """got against want; home maps a matrix of got back to the coordinates of want."""
    for t in TIMES:
        for name in ("T", "B"):
            mat = got[t][name] if home is None else home(got[t][name])
            assert_close(mat, want[t][name], MATRIX_RTOL, (name, t))
        for name in ("spec K", "e"):
            assert_close(got[t][name], want[t][name], VALUE_RTOL, (name, t))
        assert_close(got[t]["e+"], want[t]["e+"], ness_rtol, ("e+", t))


def assert_same_limits(lims_got, lims_want, home=None):
    if lims_want is None:
        return
    d_plus = lims_got.d_plus if home is None else home(lims_got.d_plus)
    assert_close(d_plus, lims_want.d_plus, MATRIX_RTOL)
    assert_close(gf.q_operator(lims_got).spectrum, gf.q_operator(lims_want).spectrum, MATRIX_RTOL)


@pytest.fixture(scope="module")
def split_toy():
    """Doubled toy n = 128 (dim 256): two skew components of size 128."""
    return gf.build_toy(gf.ToySpec(n=128, lam=1.0))[0]


@pytest.fixture(scope="module")
def chain_large():
    """The reference chain 128+1+128 (dim 514)."""
    return gf.build_chain(gf.ChainSpec(n_left=128, n_right=128, temps=(2.0, 1.0, 1.0)))[0]


@pytest.fixture(scope="module")
def undoubled_toy():
    """Undoubled toy n = 128: one skew block, no time reversal, so D- is averaged too."""
    return gf.build_toy(gf.ToySpec(n=128, lam=1.0, doubled=False))[0]


# (model fixture, horizon of its window average); nonnormal_model decays to
# D_t -> 0, so it has no limits and its e_{t+} is read at D+ = I
CASES = {"split_toy": 40.0, "chain_large": 60.0, "undoubled_toy": 40.0, "nonnormal_model": None}
ROUTES = {"split_toy": ["unitary", "unitary"], "chain_large": ["oscillator"],
          "undoubled_toy": ["unitary"], "nonnormal_model": ["eig"]}


@pytest.fixture(scope="module")
def reference(request):
    """Per model: its limits at the case's horizon (None without one) and its observables, through its own route."""
    cache = {}

    def get(name):
        if name not in cache:
            model = request.getfixturevalue(name)
            lims = _limits(model, CASES[name])
            cache[name] = (model, lims, *observables(model, _d_plus(model, lims)))
        return cache[name]
    return get


def _limits(model, horizon):
    return None if horizon is None else gf.estimate_limit_covariance(model, horizon=horizon, grid_points=64)


def _d_plus(model, lims):
    return np.eye(model.dim) if lims is None else lims.d_plus


def test_split_toy_under_a_permutation(split_toy):
    perm = np.random.default_rng(3).permutation(split_toy.dim)
    twin = permuted(split_toy, perm)
    groups = _linalg._connected_components(twin.generator)
    assert len(groups) == 2 and all(np.any(np.diff(g) > 1) for g in groups)
    assert _routes(split_toy.generator) == _routes(twin.generator) == ["unitary", "unitary"]
    eye = np.eye(split_toy.dim)  # the toy's D+
    want, alphas = observables(split_toy, eye)
    got, _ = observables(twin, eye, alphas=alphas)
    assert_same_observables(got, want, unpermuted(perm))


def test_chain_under_a_permutation(reference):
    chain, lims, want, alphas = reference("chain_large")
    perm = np.random.default_rng(5).permutation(chain.dim)
    twin = permuted(chain, perm)
    assert _routes(chain.generator) == ["oscillator"]
    assert _routes(twin.generator) == ["eig"]
    lims_twin = gf.estimate_limit_covariance(twin, horizon=60.0, grid_points=64)
    assert_same_limits(lims_twin, lims, unpermuted(perm))
    got, _ = observables(twin, lims_twin.d_plus, alphas=alphas)
    assert_same_observables(got, want, unpermuted(perm))


@pytest.mark.parametrize("name", ["undoubled_toy", "nonnormal_model"])
def test_under_a_permutation(reference, name):
    model, lims, want, alphas = reference(name)
    perm = np.random.default_rng(6).permutation(model.dim)
    twin = permuted(model, perm)
    assert _routes(model.generator) == _routes(twin.generator) == ROUTES[name]
    lims_twin = _limits(twin, CASES[name])
    assert_same_limits(lims_twin, lims, unpermuted(perm))
    got, _ = observables(twin, _d_plus(twin, lims_twin), alphas=alphas)
    assert_same_observables(got, want, unpermuted(perm))


def test_split_toy_under_an_orthogonal_similarity(reference):
    toy, lims, want, alphas = reference("split_toy")
    o = np.linalg.qr(np.random.default_rng(4).standard_normal((toy.dim, toy.dim)))[0]
    twin = rotated(toy, o)
    assert _routes(twin.generator) == ["unitary"]
    lims_twin = gf.estimate_limit_covariance(twin, horizon=CASES["split_toy"], grid_points=64)
    assert_same_limits(lims_twin, lims, unrotated(o))
    got, _ = observables(twin, lims_twin.d_plus, alphas=alphas)
    assert_same_observables(got, want, unrotated(o))


@pytest.mark.parametrize("name", sorted(CASES))
def test_time_rescaling(reference, name):
    model, lims, want, alphas = reference(name)
    twin = rescaled(model, SCALE)
    assert _routes(twin.generator) == {**ROUTES, "chain_large": ["eig"]}[name]
    lims_twin = _limits(twin, None if CASES[name] is None else CASES[name] / SCALE)
    assert_same_limits(lims_twin, lims)
    got, _ = observables(twin, _d_plus(twin, lims_twin), scale=SCALE, alphas=alphas)
    assert_same_observables(got, want)


@pytest.mark.parametrize("name", sorted(CASES))
def test_forced_expm_fallback(monkeypatch, reference, name):
    model, lims, want, alphas = reference(name)
    # no block passes a gate at 0, and an empty cache decomposes each block again
    monkeypatch.setattr(_linalg, "MODAL_KAPPA_LIMIT", 0.0)
    monkeypatch.setattr(_linalg, "_cache", OrderedDict())
    twin = dataclasses.replace(model)  # a model of its own: no cached flow points
    lims_twin = _limits(twin, CASES[name])
    got, _ = observables(twin, _d_plus(twin, lims_twin), alphas=alphas)
    assert set(_linalg.modal_basis_info()["routes"]) == {"expm"}
    assert_same_limits(lims_twin, lims)
    assert_same_observables(got, want, ness_rtol=MATRIX_RTOL)
