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
    n, k, count = 200, 3, 8 * mc.BLOCK_ROWS + 17
    rng = np.random.default_rng(8)
    mats = [rng.standard_normal((n, n)) for _ in range(k)]
    mc.quad_form_samples(cov_200, mats, seed=1, count=5, workers=workers)
    peak, _ = _traced(lambda: mc.quad_form_samples(cov_200, mats, seed=1, count=count,
                                                   workers=workers))
    assert peak <= _quad_form_bound(n, k, workers, count)


def test_trace_identity_report_makes_each_matrix_at_its_fold(cov_200):
    # the same bound: one A and its symmetrize temporaries fit in the fold's slack
    n, k, count = 200, 10, 4 * mc.BLOCK_ROWS + 5
    mc.trace_identity_report(cov_200, seed=3, count=5, n_mats=1)
    peak, _ = _traced(lambda: mc.trace_identity_report(cov_200, seed=3, count=count, n_mats=k))
    assert peak <= _quad_form_bound(n, k, 1, count)


def _panel_floats(n):
    """Floats of one form's panels: panel [p0, p1) keeps the (n - p0) x (p1 - p0) block
    tril(S[p0:, p0:p1]), about n^2/2 (1 + PANEL/n)."""
    return sum((n - p0) * min(mc.PANEL, n - p0) for p0 in range(0, n, mc.PANEL))


def _streamed_pass_bound(n, k, workers):
    """The panels of the k forms, and the larger of the two phases of the pass: while folding,
    the Cholesky factor and one M with its product temporaries and fold (four n x n arrays);
    while drawing, per worker one BLOCK_ROWS x n block of draws, a product buffer of half a
    block, the block's k values and two temporaries of their size (the reducer's deviations,
    one half's row dots); slack: the bookkeeping.  No term grows with the count."""
    draw = workers * mc.BLOCK_ROWS * (3 * n // 2 + 3 * k)
    return FLOAT * (k * _panel_floats(n) + max(4 * n * n, draw)) + BOOKKEEPING


@pytest.mark.parametrize("workers", [1, 2])
def test_trace_identity_report_streams_its_moments(cov_200, workers):
    # the trace check keeps per-block moments, not the count x k forms, and releases the
    # Cholesky factor before drawing
    n, k, count = 200, 10, 16 * mc.BLOCK_ROWS + 5
    mc.trace_identity_report(cov_200, seed=3, count=5, n_mats=1, workers=workers)
    peak, _ = _traced(lambda: mc.trace_identity_report(cov_200, seed=3, count=count, n_mats=k,
                                                       workers=workers))
    assert peak <= _streamed_pass_bound(n, k, workers)


def _tile_thread_bound(n, k, threads):
    """The panels of the k forms, and the larger of the two phases of the pass: while folding, as
    in _streamed_pass_bound; while drawing, per tile thread its workspace (mc._workspace: float32
    rows and a float32 product buffer of half a tile, BLOCK_ROWS n / 4 floats each, STAGE_ROWS x n
    staging rows and the tile's BLOCK_ROWS x k values) and two temporaries of the values' size (the
    reducer's deviations, one half's row dots); slack: the bookkeeping."""
    draw = threads * (mc.BLOCK_ROWS * n // 2 + mc.STAGE_ROWS * n + 3 * mc.BLOCK_ROWS * k)
    return FLOAT * (k * _panel_floats(n) + max(4 * n * n, draw)) + BOOKKEEPING


@pytest.mark.parametrize("workers", [1, 3])
def test_run_checks_holds_one_workspace_per_tile_thread(cov_200, workers):
    # the tile threads, at least `workers` of them and as many as BLAS had, are read from the
    # pass's record
    n, k, count = 200, 10, 16 * mc.BLOCK_ROWS + 5
    records = []
    mc.run_checks(cov_200, [mc.trace_check(cov_200, 3, n_mats=1)], 3, 5, workers)
    peak, _ = _traced(lambda: records.append(
        mc.run_checks(cov_200, [mc.trace_check(cov_200, 3, n_mats=k)], 3, count, workers)[1]))
    (record,) = records
    assert record["threads"] >= workers
    assert peak <= _tile_thread_bound(n, k, record["threads"])


def test_model_keeps_no_covariance_roots_or_identity_copy(monkeypatch):
    monkeypatch.setattr(renyi, "_stores", OrderedDict())
    model, oracle = gf.build_toy(gf.ToySpec(n=256, lam=1.0))
    n, d_plus = model.dim, oracle.d_plus()
    mode_frame(gf.build_toy(gf.ToySpec(n=256, lam=1.0))[0])   # caches the generator's basis
    _, retained = _traced(lambda: (gf.flow_point(model, 2.0),
                                   gf.ness_functional(model, 2.0, d_plus)))
    assert list(_derived[model]) == ["frame"]
    assert not renyi._stores   # D+ = I makes no content key
    frame = mode_frame(model)
    # the frame's own arrays, n atoms per functional, and the bookkeeping: no n x n root of D
    # and no copy of D+ = I
    assert retained <= sum(a.nbytes for a in (frame.p, frame.q, frame.h)) + BOOKKEEPING


def test_ness_call_keeps_its_root_and_atoms():
    # a read-only D+ that is not I, on the doubled toy (dim 512): the call keeps the root
    # E = B^-1 D+^{1/2} (n^2 floats), n atoms and the bookkeeping, and no copy of D+
    model, oracle = gf.build_toy(gf.ToySpec(n=256, lam=1.0))
    n, d_plus = model.dim, 2.0 * oracle.d_plus()
    d_plus.flags.writeable = False
    gf.flow_point(model, 2.0)   # the flow point, its frame and the generator's basis
    _, retained = _traced(lambda: gf.ness_functional(model, 2.0, d_plus))
    assert retained <= FLOAT * (n * n + n) + BOOKKEEPING


@pytest.fixture(scope="module")
def chain_514():
    """The 128+1+128 chain (dim 514), temperatures (2, 1, 1), with its generator's basis cached."""
    model = gf.build_chain(gf.ChainSpec(n_left=128, n_right=128, temps=(2.0, 1.0, 1.0)))[0]
    _linalg._parts(model.generator, 0.0)
    return model


def _window_bound(n):
    """The final average and one running average, the moments H' and S' of the covariance (n^2
    floats for a chain's m = n/2 modes), the two kernels (each its angles, factor and flat mask,
    under n^2 floats) and one count's mode temporaries (at most three n x n arrays at once); slack:
    the bookkeeping."""
    return FLOAT * (2 + 1 + 2 + 3) * n * n + BOOKKEEPING


def test_window_average_keeps_two_averages(chain_514):
    # the final average first, then each running average made, compared and dropped: never all
    # PLATEAU_CHECKPOINTS + 1 = 9 averages at once
    model, n = chain_514, chain_514.dim
    gf.estimate_limit_covariance(model, horizon=6.0, grid_points=64)
    peak, _ = _traced(lambda: gf.estimate_limit_covariance(model, horizon=60.0, grid_points=64))
    assert peak <= _window_bound(n)


def test_first_ness_call_roots_d_plus_by_cholesky(chain_514, monkeypatch):
    # a new key of a general D+ on a warm flow point: the root E = B^-1 C+ that stays, and at most
    # four n x n arrays beside it at once (numpy's copy of D+ and the factor C+ while E is made;
    # T^_t in modes, E'T^ and E'T^E with its symmetrization while the spectrum is made), n atoms,
    # the n x n finiteness mask (one byte an entry) and the bookkeeping
    monkeypatch.setattr(renyi, "_stores", OrderedDict())
    model, n = chain_514, chain_514.dim
    d_plus = gf.estimate_limit_covariance(model, horizon=20.0, grid_points=64).d_plus
    gf.flow_point(model, 20.0)
    peak, _ = _traced(lambda: gf.ness_functional(model, 20.0, d_plus))
    assert peak <= FLOAT * (5 * n * n + n) + n * n + BOOKKEEPING


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
