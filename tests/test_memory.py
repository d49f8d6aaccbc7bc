"""Working-set bounds, measured with tracemalloc (numpy reports its data buffers to it).

Each bound is a formula in the sizes of the call, in float64 entries, plus a
slack that is fixed here: the product temporaries named at each bound and
1 MiB for the interpreter and thread-pool bookkeeping.  Inputs are made
before tracing starts, so they are not counted, and imports and the
generator caches are warmed before it, so they are not counted either.
"""

import tracemalloc
from collections import OrderedDict

import numpy as np
import pytest

import gaussfluct as gf
from gaussfluct import _linalg
from gaussfluct import montecarlo as mc
from gaussfluct import renyi
from gaussfluct.model import _derived, mode_frame

FLOAT = 8
BOOKKEEPING = 2**20


def _traced(fn):
    """(peak, retained) bytes allocated by fn() and not freed before it returned."""
    tracemalloc.start()
    try:
        fn()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, retained


def _quad_form_bound(n, k, workers, count):
    """The Cholesky factor and k folds, two BLOCK_ROWS x n blocks per worker, the count x k
    output; slack: the two n x n products of one fold, and the bookkeeping."""
    floats = (k + 1) * n * n + 2 * mc.BLOCK_ROWS * n * workers + count * k
    return FLOAT * (floats + 2 * n * n) + BOOKKEEPING


@pytest.fixture(scope="module")
def cov_200():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((200, 200))
    return a @ a.T / 200 + np.eye(200)


@pytest.mark.parametrize("workers", [1, 2])
def test_quad_form_samples_holds_one_draw_block_per_worker(cov_200, workers):
    n, k, count = 200, 3, 2 * mc.CHUNK + 17
    rng = np.random.default_rng(8)
    mats = [rng.standard_normal((n, n)) for _ in range(k)]
    mc.quad_form_samples(cov_200, mats, seed=1, count=5, workers=workers)
    peak, _ = _traced(lambda: mc.quad_form_samples(cov_200, mats, seed=1, count=count,
                                                   workers=workers))
    assert peak <= _quad_form_bound(n, k, workers, count)


def test_trace_identity_report_makes_each_matrix_at_its_fold(cov_200):
    # the same bound: one A and its symmetrize temporaries fit in the fold's slack
    n, k, count = 200, 10, mc.CHUNK + 5
    mc.trace_identity_report(cov_200, seed=3, count=5, n_mats=1)
    peak, _ = _traced(lambda: mc.trace_identity_report(cov_200, seed=3, count=count, n_mats=k))
    assert peak <= _quad_form_bound(n, k, 1, count)


def _defect_bound(n, workers, count):
    """The Cholesky factor, the factor C'e^{tL'}, one n x n partial per chunk and their total,
    per worker a BLOCK_ROWS x n block of draws, its image and their n x n product; slack: four
    n x n temporaries (those of the propagator, or the two of the final difference), and the
    bookkeeping."""
    floats = (len(mc._chunks(count)) + 3) * n * n + workers * (2 * mc.BLOCK_ROWS * n + n * n)
    return FLOAT * (floats + 4 * n * n) + BOOKKEEPING


@pytest.mark.parametrize("workers", [1, 2])
def test_propagated_defect_draws_one_block_at_a_time(chain_mid, chain_mid_limits, workers):
    model, _ = chain_mid
    d_plus, count = chain_mid_limits.d_plus, 2 * mc.CHUNK + 17
    mc.propagated_sample_cov_defect(model, d_plus, 10.0, seed=7, count=5, workers=workers)
    peak, _ = _traced(lambda: mc.propagated_sample_cov_defect(model, d_plus, 10.0, seed=7,
                                                              count=count, workers=workers))
    assert peak <= _defect_bound(model.dim, workers, count)


def test_model_keeps_no_covariance_roots_or_identity_copy(monkeypatch):
    monkeypatch.setattr(renyi, "_d_plus_copies", OrderedDict())
    model, oracle = gf.build_toy(gf.ToySpec(n=256, lam=1.0))
    n, d_plus = model.dim, oracle.d_plus()
    mode_frame(gf.build_toy(gf.ToySpec(n=256, lam=1.0))[0])   # caches the generator's basis
    _, retained = _traced(lambda: (gf.flow_point(model, 2.0),
                                   gf.ness_functional(model, 2.0, d_plus)))
    assert list(_derived[model]) == ["frame"]
    assert not renyi._d_plus_copies
    frame = mode_frame(model)
    # the frame's own arrays, n atoms per functional, and the bookkeeping: no n x n root of D
    # and no copy of D+ = I
    assert retained <= sum(a.nbytes for a in (frame.p, frame.q, frame.h)) + BOOKKEEPING


@pytest.mark.parametrize("build", [lambda: gf.build_chain(gf.ChainSpec(n_left=128, n_right=128))[0],
                                   lambda: gf.build_toy(gf.ToySpec(n=256, lam=1.0))[0]],
                         ids=["chain 128+1+128", "doubled toy"])
def test_mode_frame_keeps_three_arrays(build):
    # p, q and h, 3 n^2 floats, and the bookkeeping: the frame B and B^-1 are read from the
    # blocks of the cached bases, so no n x n copy of them is kept
    model = build()
    _linalg._parts(model.generator, 0.0)   # caches the generator's basis
    _, retained = _traced(lambda: mode_frame(model))
    assert retained <= FLOAT * 3 * model.dim ** 2 + BOOKKEEPING
