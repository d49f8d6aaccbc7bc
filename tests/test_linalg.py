import dataclasses
import sys
import threading
from collections import OrderedDict

import numpy as np
import pytest
import scipy.linalg as sla

import gaussfluct as gf
from gaussfluct import _linalg
from gaussfluct.flow import flow_scan
from gaussfluct._linalg import (
    MODAL_CACHE_ENTRIES,
    MODAL_KAPPA_LIMIT,
    _parts,
    _walked_averages,
    flow_averages,
    frame_map,
    frame_maps,
    modal_basis_info,
    propagator,
    propagator_apply,
)

JORDAN = np.array([[-1.0, 1.0], [0.0, -1.0]])


def _long_double_propagator(gen, t, halvings=12, terms=25):
    """e^{tA} by a Taylor series at t/2^12 and 12 squarings, in extended precision."""
    a = gen.astype(np.longdouble) * np.longdouble(t) / np.longdouble(2**halvings)
    term = np.eye(gen.shape[0], dtype=np.longdouble)
    e = term.copy()
    for k in range(1, terms):
        term = term @ a / k
        e = e + term
    for _ in range(halvings):
        e = e @ e
    return e.astype(float)


def _increment(gen, t):
    """e^{tL} - I from _block_flow over the blocks of one cache lookup."""
    parts = _parts(gen, t)
    if len(parts) == 1:
        return _linalg._block_flow(gen, *parts[0], t, increment=True)
    out = np.zeros(gen.shape)
    for idx, basis in parts:
        out[np.ix_(idx, idx)] = _linalg._block_flow(gen, idx, basis, t, increment=True)
    return out


def _one_basis(gen):
    """The cached basis of a generator that is one block, None when it fails the gate."""
    (_, basis), = _parts(gen, 0.0)
    return basis


@pytest.fixture
def fresh_bases(monkeypatch):
    """An empty generator cache with zeroed counters, and a log of np.linalg.eig shapes."""
    monkeypatch.setattr(_linalg, "_cache", OrderedDict())
    monkeypatch.setattr(_linalg, "_counts", {"hits": 0, "misses": 0, "fallbacks": 0})
    shapes = []
    eig = np.linalg.eig

    def counted(a):
        shapes.append(np.shape(a))
        return eig(a)

    monkeypatch.setattr(np.linalg, "eig", counted)
    return shapes


@pytest.fixture(scope="module")
def split_toy():
    """Doubled toy n = 128 (dim 256): two connected components of size 128."""
    return gf.build_toy(gf.ToySpec(n=128, lam=1.0))[0]


class TestModalPropagator:
    @pytest.mark.parametrize("t", [-6.0, 2.0, 10.0, 60.0])
    def test_matches_reference(self, chain_model, toy_model, nonnormal_model, t):
        for model in (chain_model, toy_model, nonnormal_model):
            assert _one_basis(model.generator) is not None
            e = propagator(model.generator, t)
            ref = _long_double_propagator(model.generator, t)
            assert np.abs(e - ref).max() <= 1e-12 * np.abs(ref).max()
            # scipy's scaling and squaring is itself 1.35e-12 (max-abs relative)
            # off the extended-precision value at t = 60 on this chain
            if model is not chain_model or t != 60.0:
                expm = sla.expm(t * model.generator)
                assert np.abs(e - expm).max() <= 1e-12 * np.abs(expm).max()

    @pytest.mark.parametrize("t", [0.0, 2.0])
    def test_result_is_real_contiguous_and_owned(self, chain_model, split_toy, t):
        for gen in (chain_model.generator, split_toy.generator, JORDAN):
            e = propagator(gen, t)
            assert e.dtype == np.float64
            assert e.flags.c_contiguous
            assert e.base is None

    def test_kernels_return_owned_real_arrays(self, chain_model, split_toy):
        for model in (chain_model, split_toy):
            outs = list(flow_averages(model.generator, model.covariance, 1.0, 0.25, [2, 4]))
            outs += [_increment(model.generator, t) for t in (1.0, 3.0)]
            for a in outs:
                assert a.dtype == np.float64 and a.flags.c_contiguous and a.base is None

    def test_split_blocks_match_expm(self, split_toy):
        e = propagator(split_toy.generator, 7.0)
        ref = sla.expm(7.0 * split_toy.generator)
        assert np.abs(e - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_jordan_block_takes_expm(self):
        assert _one_basis(JORDAN) is None
        assert np.array_equal(propagator(JORDAN, 3.0), sla.expm(3.0 * JORDAN))

    def test_apply_matches_propagator(self, chain_model, split_toy, nonnormal_model):
        # oscillator basis, unitary split blocks, eig fold and the expm fallback
        times = [-6.0, 0.0, 2.0, 10.0]
        for gen in (chain_model.generator, split_toy.generator, nonnormal_model.generator, JORDAN):
            x = np.random.default_rng(3).standard_normal(gen.shape[0])
            rows = propagator_apply(gen, times, x)
            assert rows.shape == (len(times), gen.shape[0])
            for t, row in zip(times, rows):
                ref = propagator(gen, t) @ x
                assert np.abs(row - ref).max() <= 1e-12 * np.abs(ref).max()
        with pytest.raises(_linalg.AccuracyError):
            propagator_apply(chain_model.generator, [1.0, -1e5], np.ones(chain_model.dim))


class TestOneByOneBlocks:
    @pytest.mark.parametrize("value", [0.0, -0.5, 0.3])
    def test_scalar_generator(self, fresh_bases, value):
        gen = np.array([[value]])
        times = [-2.0, 0.5, 3.0]
        for t in times:
            assert propagator(gen, t)[0, 0] == pytest.approx(np.exp(value * t), rel=1e-15, abs=0.0)
            assert _increment(gen, t)[0, 0] == pytest.approx(np.expm1(value * t), rel=1e-15, abs=0.0)
        rows = propagator_apply(gen, times, [2.0])
        assert rows[:, 0] == pytest.approx(2.0 * np.exp(value * np.array(times)), rel=1e-15, abs=0.0)
        x = np.array([[1.5]])
        for avg, walked in zip(flow_averages(gen, x, 1.0, 0.25, [4, 16]),
                               _walked_averages(gen, x, 1.0, 0.25, [4, 16])):
            assert avg[0, 0] == pytest.approx(walked[0, 0], rel=1e-14, abs=0.0)
        basis = _one_basis(gen)
        if value == 0.0:  # one flat mode
            assert basis.route == "unitary" and np.array_equal(basis.freq, [0.0])
        else:
            assert basis.route == "eig"

    @pytest.mark.parametrize("value", [0.0, 0.3])
    def test_singleton_component(self, fresh_bases, value):
        # components of 150, 149 and 1 (dim 300): skew, shifted skew and the scalar
        rng = np.random.default_rng(9)
        a, b = rng.standard_normal((150, 150)), rng.standard_normal((149, 149))
        gen = sla.block_diag(a - a.T, b - b.T - 0.2 * np.eye(149), [[value]])
        for t in (-2.0, 1.0, 5.0):
            ref = sla.expm(t * gen)
            assert np.abs(propagator(gen, t) - ref).max() <= 1e-12 * np.abs(ref).max()
            inc = _increment(gen, t)
            assert np.abs(inc - (ref - np.eye(300))).max() <= 1e-12 * np.abs(ref).max()
        assert [idx.size for idx, _ in _parts(gen, 0.0)] == [150, 149, 1]
        assert modal_basis_info()["routes"] == ["unitary", "eig", "unitary" if value == 0.0 else "eig"]


def _skew_generators():
    """Skew generators: the split n=128 toy, the undoubled toy with odd n
    (one exact zero eigenvalue) and eight identical 2x2 rotations (+-i, each eightfold)."""
    return {
        "split toy": gf.build_toy(gf.ToySpec(n=128, lam=1.0))[0].generator,
        "odd toy": gf.build_toy(gf.ToySpec(n=65, lam=1.0, doubled=False))[0].generator,
        "rotations": np.kron(np.eye(8), np.array([[0.0, 1.0], [-1.0, 0.0]])),
    }


def _rotation_maps(basis, n):
    """The columns x_k and y_k of the frame B = [X Y] of a rotation basis of size n, read as
    frame_map(I); y takes a zero column per flat mode, which has no partner."""
    m = basis.freq.size
    b = frame_map(basis.blocks, np.eye(n))
    return b[:, :m], np.concatenate([b[:, m:], np.zeros((n, 2 * m - n))], axis=1)


def assert_rotation_maps(gen, basis):
    """A x = w y and A y = -w x for the columns of the rotation basis of gen."""
    x, y = _rotation_maps(basis, gen.shape[0])
    scale = np.abs(gen).max() * max(1.0, np.abs(x).max(), np.abs(y).max())
    assert np.abs(gen @ x - y * basis.freq).max() <= 1e-13 * scale
    assert np.abs(gen @ y + x * basis.freq).max() <= 1e-13 * scale
    return x, y


class TestSkewBlocks:
    @pytest.mark.parametrize("name", sorted(_skew_generators()))
    def test_unitary_route(self, fresh_bases, name):
        gen = _skew_generators()[name]
        n = gen.shape[0]
        for idx, basis in _parts(gen, 0.0):
            block = gen[np.ix_(idx, idx)]
            x, y = assert_rotation_maps(block, basis)
            # [X N Y] is orthogonal; the flat modes N have frequency 0 and no y column
            xy = np.concatenate([x, y[:, basis.freq > 0.0]], axis=1)
            assert np.abs(xy.T @ xy - np.eye(idx.size)).max() <= 1e-13
        if name == "odd toy":
            assert np.count_nonzero(_one_basis(gen).freq == 0.0) == 1
        # scipy's expm is itself 3e-13 off the extended-precision value at t = 60
        for t in (-6.0, 2.0, 10.0):
            ref = sla.expm(t * gen)
            assert np.abs(propagator(gen, t) - ref).max() <= 1e-13 * np.abs(ref).max()
            inc = _increment(gen, t)
            assert np.abs(inc - (ref - np.eye(n))).max() <= 1e-13 * np.abs(ref).max()
        x = np.eye(n) + np.outer(np.arange(n), np.arange(n)) / n**2
        for avg, walked in zip(flow_averages(gen, x, 1.0, 0.25, [4, 16]),
                               _walked_averages(gen, x, 1.0, 0.25, [4, 16])):
            assert np.abs(avg - walked).max() <= 1e-12 * np.abs(walked).max()
        info = modal_basis_info()
        assert fresh_bases == []
        assert info["fallbacks"] == 0 and all(k == 1.0 for k in info["kappa"])
        skew_bytes = info["bytes"]
        # the same blocks shifted off the imaginary axis take the eig fold
        propagator(gen - 0.1 * np.eye(n), 1.0)
        assert fresh_bases
        assert 0 < skew_bytes <= modal_basis_info()["bytes"] - skew_bytes

    def test_streamed_averages_come_in_the_order_asked(self, split_toy):
        # the window average's order on the multi-block route: the final count first, then the
        # running ones, a repeat too; the horizon is checked when the iterator is made
        gen, cov = split_toy.generator, split_toy.covariance
        assert len(_parts(gen, 0.0)) == 2
        counts = [16, 8, 12, 16]
        streamed = flow_averages(gen, cov, 2.0, 0.25, counts)
        walked = list(_walked_averages(gen, cov, 2.0, 0.25, counts))
        assert len(walked) == len(counts)
        for avg, ref in zip(streamed, walked, strict=True):
            assert np.abs(avg - ref).max() <= 1e-12 * np.abs(ref).max()
        with pytest.raises(_linalg.AccuracyError):
            flow_averages(gen, cov, 1e9, 0.25, counts)

    def test_cross_block_average_matches_walk(self, fresh_bases):
        # the doubled toy at horizon 40: two skew 512-blocks coupled only
        # through X, whose cross-block entries take the kernels in w_a,j -+ w_b,k
        model = gf.build_toy(gf.ToySpec(n=512, lam=1.0))[0]
        t0, step, counts = 20.0, 20.0 / 64, [32, 48, 64]
        averages = list(flow_averages(model.generator, model.covariance, t0, step, counts))
        assert modal_basis_info()["routes"] == ["unitary", "unitary"]
        half = model.dim // 2
        assert np.abs(averages[-1][:half, half:]).max() > 1e-3
        for avg, walked in zip(averages, _walked_averages(model.generator, model.covariance, t0, step, counts)):
            assert np.abs(avg - walked).max() <= 1e-12 * np.abs(walked).max()


def _oscillator_generators():
    """Second-order generators [[0, -J], [I, 0]]: the 16+1+16 and 128+1+128 chains
    and an inhomogeneous 12+1+12 chain."""
    rng = np.random.default_rng(8)
    couplings = (rng.uniform(0.5, 2.0, 25), rng.uniform(0.5, 2.0, 26))
    specs = {
        "chain 16": gf.ChainSpec(n_left=16, n_right=16),
        "chain 128": gf.ChainSpec(n_left=128, n_right=128),
        "inhomogeneous": gf.ChainSpec(n_left=12, n_right=12, inhomogeneous=couplings),
    }
    return {name: gf.build_chain(spec)[0].generator for name, spec in specs.items()}


def _second_order(j, damping=0.0):
    """[[-damping I, -J], [I, 0]] in (p, q) order."""
    h = j.shape[0]
    return np.block([[-damping * np.eye(h), -j], [np.eye(h), np.zeros((h, h))]])


class TestOscillatorBlocks:
    @pytest.mark.parametrize("name", sorted(_oscillator_generators()))
    def test_oscillator_route(self, fresh_bases, name):
        gen = _oscillator_generators()[name]
        n = gen.shape[0]
        h = n // 2
        j = -gen[:h, h:]
        for t in (-6.0, 2.0, 10.0):
            ref = sla.expm(t * gen)
            assert np.abs(propagator(gen, t) - ref).max() <= 1e-12 * np.abs(ref).max()
        t = 1e-6
        taylor = t * gen + (t**2 / 2) * gen @ gen + (t**3 / 6) * gen @ gen @ gen
        inc = _increment(gen, t)
        assert np.abs(inc - taylor).max() <= 1e-12 * np.abs(taylor).max()
        energy = sla.block_diag(np.eye(h), j)
        e = propagator(gen, 60.0)
        assert np.abs(e.T @ energy @ e - energy).max() <= 1e-13
        x = np.random.default_rng(3).standard_normal(n)
        for t, row in zip((-6.0, 2.0), propagator_apply(gen, (-6.0, 2.0), x)):
            ref = propagator(gen, t) @ x
            assert np.abs(row - ref).max() <= 1e-12 * np.abs(ref).max()
        x, y = assert_rotation_maps(gen, _one_basis(gen))
        # [X Y] = [[Q, 0], [0, Q W^-1]] is orthonormal in the energy form
        xy = np.concatenate([x, y], axis=1)
        assert np.abs(xy.T @ energy @ xy - np.eye(n)).max() <= 1e-13
        cov = np.eye(n) + np.outer(np.arange(n), np.arange(n)) / n**2
        for avg, walked in zip(flow_averages(gen, cov, 1.0, 0.25, [4, 16]),
                               _walked_averages(gen, cov, 1.0, 0.25, [4, 16])):
            assert np.abs(avg - walked).max() <= 1e-12 * np.abs(walked).max()
        info = modal_basis_info()
        assert fresh_bases == []
        assert info["routes"] == ["oscillator"] and info["misses"] == 1
        assert info["bytes"] == (h + h * h) * 8
        w = np.sqrt(np.linalg.eigvalsh(j))
        exact = max(1.0, w[-1]) / min(1.0, w[0])
        assert info["kappa"][0] == pytest.approx(exact, rel=1e-13)
        assert info["kappa"][0] == pytest.approx(np.linalg.cond(xy), rel=1e-12)

    def test_other_blocks_keep_eig(self, fresh_bases, chain_model):
        h = chain_model.dim // 2
        j = -chain_model.generator[:h, h:]
        skewed = j.copy()
        skewed[0, 1] += 0.05
        cases = {
            "not positive definite": _second_order(-np.eye(h)),
            "non-symmetric J": _second_order(skewed),
            "damped": _second_order(j, damping=0.1),
        }
        for name, gen in cases.items():
            ref = sla.expm(2.0 * gen)
            assert np.abs(propagator(gen, 2.0) - ref).max() <= 1e-12 * np.abs(ref).max(), name
            assert modal_basis_info()["routes"][-1] == "eig", name
        assert len(fresh_bases) == len(cases)
        # an oscillator block past the gate (kappa 1e4) takes eig, then expm
        gen = _second_order(np.diag(np.geomspace(1e-8, 1.0, 8)))
        assert np.array_equal(propagator(gen, 2.0), sla.expm(2.0 * gen))
        assert modal_basis_info()["routes"][-1] == "expm"
        assert len(fresh_bases) == len(cases) + 1


def _frame_generators():
    """Generators of the frame-map checks: an oscillator block, the odd toy's flat mode, the
    doubled toy (its second block the twin of the first), the same under a permutation (the
    blocks' rows are index arrays, not slices), and a skew block beside an eig block."""
    toy = gf.build_toy(gf.ToySpec(n=128, lam=1.0))[0].generator
    perm = np.random.default_rng(3).permutation(toy.shape[0])
    a = np.random.default_rng(4).standard_normal((254, 254))
    return {
        "chain 128": _oscillator_generators()["chain 128"],
        "odd toy": _skew_generators()["odd toy"],
        "doubled toy twin": toy,
        "permuted split toy": toy[np.ix_(perm, perm)],
        "skew and eig": sla.block_diag(a - a.T, np.array([[-1.0, 0.5], [0.0, -2.0]])),
    }


class TestRotationViews:
    @pytest.mark.parametrize("name", ["chain 128", "doubled toy twin", "odd toy", "permuted split toy",
                                      "skew and eig"])
    def test_frame_agrees_with_back(self, fresh_bases, name):
        # frame_map's B, B^-1, B' and B^-T against the dense B assembled from the blocks of
        # frame_maps, which is O_k S_k^-1 on each block and the identity elsewhere
        gen = _frame_generators()[name]
        n = gen.shape[0]
        parts = _parts(gen, 0.0)
        blocks = frame_maps(gen)
        b = np.eye(n)
        for rows, o, s in blocks:
            r = np.arange(n)[rows]
            b[np.ix_(r, r)] = o if s is None else o / s
        kappa = max(basis.kappa for _, basis in parts)
        routes = modal_basis_info()["routes"]
        if name == "doubled toy twin":
            (first, _), (idx, _) = parts
            assert np.array_equal(gen[np.ix_(idx, idx)], gen[np.ix_(first, first)].T)
            assert fresh_bases == [] and routes == ["unitary", "unitary"]
            (_, o, _), (_, twin, _) = blocks
            m = parts[0][1].freq.size
            p = idx.size - m
            assert np.array_equal(twin, np.concatenate([o[:, m:], o[:, p:m], o[:, :p]], axis=1))
        if name == "permuted split toy":
            assert routes == ["unitary", "unitary"]
            assert not any(isinstance(rows, slice) for rows, _, _ in blocks)
        if name == "skew and eig":
            assert routes == ["unitary", "eig"] and len(blocks) == 1
        if name == "odd toy":
            assert np.count_nonzero(parts[0][1].freq == 0.0) == 1
        if name == "chain 128":
            assert routes == ["oscillator"] and [s is None for _, _, s in blocks] == [True, False]
        rng = np.random.default_rng(9)
        for z in (rng.standard_normal((n, 5)), rng.standard_normal((5, n)).T):
            tol = 1e-12 * kappa * np.abs(z).max()
            assert np.abs(frame_map(blocks, z) - b @ z).max() <= tol
            assert np.abs(frame_map(blocks, z, transpose=True) - b.T @ z).max() <= tol
            assert np.abs(b @ frame_map(blocks, z, inverse=True) - z).max() <= tol
            assert np.abs(b.T @ frame_map(blocks, z, inverse=True, transpose=True) - z).max() <= tol
        eye = np.eye(n)
        assert np.abs(frame_map(blocks, frame_map(blocks, eye, inverse=True)) - eye).max() <= 1e-13 * kappa
        # the columns of B on a rotation block: A x_k = w_k y_k and A y_k = -w_k x_k, A x_k = 0
        # for a flat mode
        for idx, basis in parts:
            if basis.route == "eig":
                continue
            m, w = basis.freq.size, basis.freq
            p = idx.size - m
            x, y = b[:, idx[:m]], b[:, idx[m:]]
            scale = np.abs(gen).max() * max(1.0, np.abs(x).max(), np.abs(y).max())
            assert np.abs(gen @ x[:, :p] - y * w[:p]).max() <= 1e-13 * scale
            assert np.abs(gen @ y + x[:, :p] * w[:p]).max() <= 1e-13 * scale
            assert np.abs(gen @ x[:, p:]).max(initial=0.0) <= 1e-13 * scale
            assert not w[p:].any()


class TestBasisCache:
    def test_in_place_change_gives_fresh_basis(self, chain_model):
        gen = chain_model.generator.copy()
        before = propagator(gen, 2.0)
        gen[0, 1] += 0.25
        after = propagator(gen, 2.0)
        ref = sla.expm(2.0 * gen)
        assert np.abs(after - ref).max() <= 1e-12 * np.abs(ref).max()
        assert np.abs(after - before).max() > 1e-3

    def test_entries_bounded(self, fresh_bases):
        rng = np.random.default_rng(5)
        for _ in range(MODAL_CACHE_ENTRIES + 3):
            gen = rng.standard_normal((4, 4)) - 4.0 * np.eye(4)
            propagator(gen, 1.0)
            assert len(_linalg._cache) <= MODAL_CACHE_ENTRIES
        info = modal_basis_info()
        assert info["entries"] == MODAL_CACHE_ENTRIES
        assert info["misses"] == MODAL_CACHE_ENTRIES + 3

    def test_more_components_than_entries_decompose_once(self, fresh_bases, monkeypatch):
        # one entry holds every block: more skew 32-blocks than entries (dim 384)
        # are decomposed on the first call and then read back
        rng = np.random.default_rng(6)
        count = MODAL_CACHE_ENTRIES + 4
        gen = sla.block_diag(*(a - a.T for a in rng.standard_normal((count, 32, 32))))
        eighs = []
        eigh = np.linalg.eigh

        def counted(a, *args, **kwargs):
            eighs.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        propagator(gen, 1.0)
        assert (modal_basis_info()["misses"], len(eighs)) == (1, count)
        e, inc = propagator(gen, 2.0), _increment(gen, 2.0)
        info = modal_basis_info()
        assert (info["misses"], info["hits"], len(eighs)) == (1, 2, count)
        assert info["entries"] == 1 and info["routes"] == ["unitary"] * count
        ref = sla.expm(2.0 * gen)
        assert np.abs(e - ref).max() <= 1e-12 * np.abs(ref).max()
        assert np.abs(inc - (ref - np.eye(gen.shape[0]))).max() <= 1e-12 * np.abs(ref).max()

    def test_read_only_generator_hashed_once(self, fresh_bases, monkeypatch, chain_model):
        # a Model's generator is frozen, its data in a bytes object: its key is
        # kept while it lives; a writable copy is hashed on every lookup
        hashes = []
        sha256 = _linalg.hashlib.sha256

        def counted(*args):
            hashes.append(1)
            return sha256(*args)

        monkeypatch.setattr(_linalg.hashlib, "sha256", counted)
        model = dataclasses.replace(chain_model)  # generator arrays of its own
        gen = model.generator
        assert not gen.flags.writeable and _linalg._immutable(gen)
        for t in (1.0, 2.0, 3.0):
            propagator(gen, t)
        assert len(hashes) == 1
        writable = gen.copy()
        for t in (1.0, 2.0, 3.0):
            propagator(writable, t)
        assert len(hashes) == 1 + 3
        view = gen[:, :]  # a view of a frozen array cannot change either: hashed once
        for t in (1.0, 2.0):
            propagator(view, t)
        assert len(hashes) == 1 + 3 + 1
        read_only = gen.copy()  # read-only, but its owner can make it writable again
        read_only.flags.writeable = False
        for t in (1.0, 2.0):
            propagator(read_only, t)
        assert len(hashes) == 1 + 3 + 1 + 2
        assert modal_basis_info()["misses"] == 1  # one content: one entry

    def test_generator_made_writable_again_is_hashed_anew(self, fresh_bases):
        gen = np.array([[0.0, 1.0], [-1.0, 0.0]])
        gen.flags.writeable = False
        first = propagator(gen, 1.0)
        gen.flags.writeable = True
        gen *= 2.0
        gen.flags.writeable = False
        assert np.abs(propagator(gen, 1.0) - sla.expm(gen)).max() <= 1e-14
        assert np.abs(first - sla.expm(gen)).max() > 0.1
        assert modal_basis_info()["misses"] == 2

    def test_twin_skew_block_takes_no_eigh(self, fresh_bases, monkeypatch):
        # the doubled toy L + L' (dim 256) has blocks A and A' = -A: the second
        # takes the first's basis with its halves swapped
        eighs = []
        eigh = np.linalg.eigh

        def counted(a, *args, **kwargs):
            eighs.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        for n in (128, 129):  # the odd toy has one flat mode per block
            gen = gf.build_toy(gf.ToySpec(n=n, lam=1.0))[0].generator
            eighs.clear()
            for t in (-3.0, 0.7, 5.0):
                ref = sla.expm(t * gen)
                assert np.abs(propagator(gen, t) - ref).max() <= 1e-12 * np.abs(ref).max()
            assert eighs == [(n, n)]
            assert [basis.route for _, basis in _parts(gen, 0.0)] == ["unitary", "unitary"]

    def test_gate_uses_two_norm_kappa(self):
        # the 1-norm product reads 1165 here; the 2-norm kappa(V) is 2.236.  In
        # (q, p) order the chain is not an oscillator block and takes eig.
        model, _ = gf.build_chain(gf.ChainSpec(n_left=256, n_right=256, temps=(2.0, 1.0, 1.0)))
        basis = _one_basis(model.generator[::-1, ::-1])
        assert basis.route == "eig"
        assert 2.0 <= basis.kappa <= 2.3
        assert _one_basis(JORDAN) is None


    def test_concurrent_callers_decompose_once(self, fresh_bases, chain_model):
        results = [None] * 8
        start = threading.Barrier(len(results))

        def call(k):
            start.wait()
            results[k] = propagator(chain_model.generator, 2.0)

        threads = [threading.Thread(target=call, args=(k,)) for k in range(len(results))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert all(np.array_equal(r, results[0]) for r in results)
        info = modal_basis_info()
        assert (info["misses"], info["hits"]) == (1, len(results) - 1)
        assert info["routes"] == ["oscillator"]


class TestOneDecompositionPerBlock:
    def test_flow_scan(self, fresh_bases, chain_model):
        flow_scan(chain_model, np.linspace(0.0, 20.0, 11))
        info = modal_basis_info()
        assert (info["misses"], info["routes"]) == (1, ["oscillator"])

    def test_one_partition_per_generator(self, monkeypatch, split_toy):
        monkeypatch.setattr(_linalg, "_cache", OrderedDict())
        calls = []
        components = _linalg._connected_components

        def counted(gen):
            calls.append(gen.shape)
            return components(gen)

        monkeypatch.setattr(_linalg, "_connected_components", counted)
        model = gf.Model(dim=split_toy.dim, generator=split_toy.generator,
                         covariance=split_toy.covariance)
        flow_scan(model, np.linspace(0.5, 5.0, 10))
        assert calls == [(256, 256)]
        assert len(_linalg._cache) == 1
        gen = split_toy.generator.copy()
        gen[0, -1] = 1e-3  # joins the two components: a new content, a new partition
        e = propagator(gen, 1.0)
        assert calls == [(256, 256), (256, 256)]
        assert np.abs(e - sla.expm(gen)).max() <= 1e-12 * np.abs(e).max()

    def test_limits_then_sigma_integral(self, fresh_bases, chain_model, split_toy):
        bare = dataclasses.replace(chain_model, time_reversal=None)
        gf.estimate_limit_covariance(bare, horizon=12.0, grid_points=64)
        gf.sigma_integral_matrix(chain_model, 3.0)
        info = modal_basis_info()
        assert (info["misses"], info["routes"]) == (1, ["oscillator"])
        gf.estimate_limit_covariance(split_toy, horizon=6.0, grid_points=64)
        gf.sigma_integral_matrix(split_toy, 3.0)
        # the chain takes eigh(J) and the toy's skew blocks eigh(iA), never eig;
        # a miss is one generator, whatever its number of blocks
        info = modal_basis_info()
        assert fresh_bases == []
        assert (info["misses"], info["routes"]) == (2, ["oscillator", "unitary", "unitary"])


def _reachability_partition(generator):
    """Index groups of |A| + |A'| from its transitive closure by repeated boolean squaring."""
    n = generator.shape[0]
    reach = ((np.abs(generator) + np.abs(generator.T)) > 0.0) | np.eye(n, dtype=bool)
    while True:
        closed = reach.astype(float) @ reach.astype(float) > 0.0
        if np.array_equal(closed, reach):
            break
        reach = closed
    groups, seen = [], np.zeros(n, dtype=bool)
    for i in range(n):
        if not seen[i]:
            groups.append(np.flatnonzero(reach[i]))
            seen[groups[-1]] = True
    return groups


def _permuted_blocks_with_one_way_coupling():
    """Blocks of sizes 40, 1, 60 and 30 in shuffled coordinates; the first and last joined one way only."""
    rng = np.random.default_rng(11)
    sizes = (40, 1, 60, 30)
    gen = np.zeros((sum(sizes), sum(sizes)))
    at = 0
    for k in sizes:
        gen[at:at + k, at:at + k] = rng.standard_normal((k, k))
        at += k
    gen[3, 110] = 0.5  # A_ij != 0 with A_ji == 0
    perm = rng.permutation(gen.shape[0])
    return gen[np.ix_(perm, perm)], perm


class TestComponentSearch:
    @pytest.mark.parametrize("case, count", [("chain", 1), ("split_toy", 2), ("dense", 1),
                                             ("permuted_blocks", 3)])
    def test_matches_the_reachability_partition(self, case, count, chain_model, split_toy):
        if case == "chain":
            gen = chain_model.generator
        elif case == "split_toy":
            gen = split_toy.generator
        elif case == "dense":
            gen = np.random.default_rng(7).standard_normal((300, 300))
        else:
            gen, _ = _permuted_blocks_with_one_way_coupling()
        want = _reachability_partition(gen)
        assert len(want) == count
        got = _linalg._connected_components(gen)
        if count == 1:
            assert got is None
        else:
            assert len(got) == count and all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_one_way_coupling_joins_and_the_singleton_stays(self):
        gen, perm = _permuted_blocks_with_one_way_coupling()
        groups = _linalg._connected_components(gen)
        where = np.argsort(perm)  # original index -> shuffled index
        joined = np.sort(where[np.r_[0:40, 101:131]])
        assert sorted(g.size for g in groups) == [1, 60, 70]
        assert any(np.array_equal(g, joined) for g in groups)
        assert any(np.array_equal(g, [where[40]]) for g in groups)
        assert [g[0] for g in groups] == sorted(g[0] for g in groups)


class TestIdentityAndInverse:
    @pytest.mark.parametrize("case", ["eye", "negative_zero", "two_on_diagonal", "nan_off_diagonal",
                                      "nan_on_diagonal", "off_diagonal", "wide", "tall",
                                      "first_off_diagonal", "last_off_diagonal", "one_by_one",
                                      "one_by_one_negative_zero", "one_by_one_nan", "fortran_order",
                                      "strided_view"])
    def test_is_identity_decides_as_array_equal(self, case):
        shapes = {"wide": (5, 6), "tall": (6, 5)}
        a = np.eye(*shapes.get(case, (1, 1) if case.startswith("one_by_one") else (5, 5)))
        if case == "negative_zero":
            a[1, 2] = -0.0
        elif case == "two_on_diagonal":
            a[3, 3] = 2.0
        elif case == "nan_off_diagonal":
            a[0, 4] = np.nan
        elif case == "nan_on_diagonal":
            a[2, 2] = np.nan
        elif case == "off_diagonal":
            a[4, 0] = 1e-300
        elif case == "first_off_diagonal":
            a[0, 1] = 1.0
        elif case == "last_off_diagonal":
            a[4, 3] = -1e-300
        elif case == "one_by_one_negative_zero":
            a[0, 0] = -0.0
        elif case == "one_by_one_nan":
            a[0, 0] = np.nan
        elif case == "fortran_order":
            a = np.asfortranarray(a)
            a[3, 1] = 0.5
        elif case == "strided_view":
            big = np.zeros((7, 7))
            big[1:6, 1:6] = a
            a = big[1:6, 1:6]
        assert _linalg.is_identity(a) == np.array_equal(a, np.eye(a.shape[0]))
        if case in ("eye", "negative_zero", "one_by_one", "strided_view"):
            assert _linalg.is_identity(a)

    def test_spd_inverse_inverts_and_refuses_an_indefinite_matrix(self, chain_model):
        cov = chain_model.covariance
        inv = _linalg.spd_inverse(cov)
        assert np.array_equal(inv, inv.T)
        assert np.abs(inv @ cov - np.eye(cov.shape[0])).max() <= 1e-12
        with pytest.raises(np.linalg.LinAlgError):
            _linalg.spd_inverse(np.diag([1.0, -1.0, 2.0]))


def test_basis_info_after_chain_pipeline(fresh_bases, chain_model):
    model = dataclasses.replace(chain_model)  # a model of its own: no cached flow points
    gf.estimate_limit_covariance(model, horizon=12.0, grid_points=64)
    flow_scan(model, [1.0, 2.0])
    info = modal_basis_info()
    assert (info["misses"], info["fallbacks"], info["entries"]) == (1, 0, 1)
    # the window average's lookup is the miss; the model's mode frame looks the
    # basis up once, and each scanned time three times: for the turn of its
    # flow point, of its D_t and of its B_t
    assert info["hits"] == 1 + 3 * 2
    half = chain_model.dim // 2  # the oscillator basis keeps w and Q of the h x h stiffness J
    assert info["bytes"] == (half + half * half) * 8
    w = np.sqrt(np.linalg.eigvalsh(-chain_model.generator[:half, half:]))
    assert info["kappa"][0] == pytest.approx(max(1.0, w[-1]) / min(1.0, w[0]), rel=1e-13)
    propagator(JORDAN, 1.0)
    info = modal_basis_info()
    assert (info["misses"], info["fallbacks"], info["entries"]) == (2, 1, 2)
    assert info["kappa"][1] > MODAL_KAPPA_LIMIT
    assert info["routes"] == ["oscillator", "expm"]
