import math
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg as sla

import gaussfluct as gf
from gaussfluct import montecarlo as mc
from gaussfluct._linalg import AccuracyError, _parts, generator_norm_bound, propagator, symmetrize
from gaussfluct.model import DomainError, covariance_roots


def _reference_tile(seed, j, dim):
    """Tile j by definition: the j-th spawned child of SeedSequence(seed mod 2**128) drives one
    SFC64, whose C-order standard_normal fill of BLOCK_ROWS x dim floats is the tile."""
    key = int(seed) & ((1 << 128) - 1)
    gen = np.random.Generator(np.random.SFC64(np.random.SeedSequence(key).spawn(j + 1)[j]))
    return gen.standard_normal((mc.BLOCK_ROWS, dim))


def _reference_rows(seed, start, stop, dim):
    """Rows [start, stop) sliced from the tiles that cover them."""
    b = mc.BLOCK_ROWS
    t0 = start // b * b    # the first row of the first tile
    tiles = [_reference_tile(seed, j, dim) for j in range(start // b, -(-stop // b))]
    return np.concatenate(tiles)[start - t0:stop - t0]


class TestDrawStream:
    @pytest.mark.parametrize("seed", [0, 42, -3, 2**127 + 5])
    @pytest.mark.parametrize("start", [0, 10, 4 * mc.BLOCK_ROWS])
    @pytest.mark.parametrize("dim", [1, 514])
    def test_rows_match_per_row_construction(self, seed, start, dim):
        rows = mc._draw_rows(seed, start, start + 37, dim)
        assert rows.shape == (37, dim)
        assert rows.tobytes() == _reference_rows(seed, start, start + 37, dim).tobytes()

    @pytest.mark.parametrize("seed", [0, 42, -3, 2**127 + 5])
    @pytest.mark.parametrize("start, stop",
                             [(1000, 1100), (0, 1), (mc.BLOCK_ROWS + 5, mc.BLOCK_ROWS + 6)],
                             ids=["straddles-tiles", "first-row", "single-row-mid-tile"])
    @pytest.mark.parametrize("dim", [1, 514])
    def test_partial_and_straddling_ranges(self, seed, start, stop, dim):
        rows = mc._draw_rows(seed, start, stop, dim)
        assert rows.shape == (stop - start, dim)
        assert rows.tobytes() == _reference_rows(seed, start, stop, dim).tobytes()

    def test_one_generator_per_tile(self, monkeypatch):
        made = []
        real = np.random.SFC64

        def counting(*args, **kwargs):
            made.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.random, "SFC64", counting)
        mc._draw_rows(42, 0, 4 * mc.BLOCK_ROWS, 8)
        assert len(made) == 4
        mc._draw_rows(42, 4 * mc.BLOCK_ROWS, 4 * mc.BLOCK_ROWS + 5, 8)
        assert len(made) == 5
        mc._draw_rows(42, 1000, 1100, 8)    # straddles the boundary of tiles 0 and 1
        assert len(made) == 7

    def test_tiles_of_distinct_seeds_and_indices_differ(self):
        # a stream keyed by seed + j would give seed 42's tile 1 to seed 43's tile 0
        tiles = {(s, j): mc._draw_rows(s, j * mc.BLOCK_ROWS, (j + 1) * mc.BLOCK_ROWS, 2).tobytes()
                 for s in (0, 1, 42, 43, 2**127 + 5) for j in range(3)}
        assert len(set(tiles.values())) == len(tiles)

    def test_seeds_equal_mod_2_128_draw_equal_rows(self):
        a = mc._draw_rows(-3, 900, 1100, 3)
        assert a.tobytes() == mc._draw_rows(2**128 - 3, 900, 1100, 3).tobytes()

    @pytest.mark.parametrize("dim", [1, 514])
    def test_staged_float32_tiles_equal_the_cast_rows(self, dim):
        # each tile as a pass makes it, half a tile at a time through STAGE_ROWS float64 rows,
        # against the float64 rows cast after; nine tiles, the last one short
        seed, count = 42, 8 * mc.BLOCK_ROWS + 17
        rows, stage, _, _ = mc._workspace(dim, 1)
        for r in range(0, count, mc.BLOCK_ROWS):
            stop = min(r + mc.BLOCK_ROWS, count)
            gen = mc._tile_rng(seed, r // mc.BLOCK_ROWS)
            halves = []
            for h0 in range(0, stop - r, len(rows)):
                z = rows[:stop - r - h0]
                mc._fill(gen, z, stage)
                halves.append(z.copy())
            ref = mc._draw_rows(seed, r, stop, dim).astype(np.float32)
            assert np.concatenate(halves).tobytes() == ref.tobytes()


class TestSampling:
    def test_identity_covariance_statistics(self):
        # the standard normal rows themselves: draws from N(0, I) are z @ I = z
        count = 100_000
        z = mc._draw_rows(42, 0, count, 32)
        assert np.abs(z.T @ z / count - np.eye(32)).max() < 4.0 / math.sqrt(count)
        assert np.abs(z.mean(axis=0)).max() < 4.0 / math.sqrt(count)

    def test_quad_forms_deterministic(self, chain_model):
        sig = gf.sigma_matrix(chain_model).matrix
        a = mc.quad_form_samples(chain_model.covariance, [sig], seed=7, count=500, workers=1)
        b = mc.quad_form_samples(chain_model.covariance, [sig], seed=7, count=500, workers=4)
        assert a.tobytes() == b.tobytes()

    def test_multi_chunk_deterministic_across_workers(self, chain_model):
        # nine tiles, the last one short: every worker count runs them in its own order
        count = 8 * mc.BLOCK_ROWS + 17
        sig = gf.sigma_matrix(chain_model).matrix
        results = {mc.quad_form_samples(chain_model.covariance, [sig], seed=7, count=count,
                                        workers=workers).tobytes() for workers in (1, 2, 3, 4)}
        assert len(results) == 1

    def test_trace_identity(self, chain_model):
        rows = mc.trace_identity_report(chain_model.covariance, seed=11, count=20_000, n_mats=10)
        assert all(abs(r["z_score"]) <= 4.0 for r in rows)

    def test_non_spd_rejected(self):
        # the draw pass itself, before any form is folded
        bad = np.diag([1.0, -1.0])
        with pytest.raises(DomainError, match="not positive definite"):
            mc.trace_identity_report(bad, seed=0, count=10, n_mats=1)
        with pytest.raises(DomainError, match="not positive definite"):
            mc.run_checks(bad, [mc.trace_check(np.eye(2), 0, n_mats=1)], seed=0, count=10)

    @pytest.mark.parametrize("entry", ["quad_form_samples", "clt_sample", "slln_trajectory"])
    def test_non_spd_rejected_by_every_sampler(self, entry):
        bad = np.diag([1.0, -1.0])
        model = _jordan_model()
        calls = {
            "quad_form_samples": lambda: mc.quad_form_samples(bad, [np.eye(2)], seed=0, count=10),
            "clt_sample": lambda: gf.clt_sample(model, "ness", 1.0, seed=0, count=10, variance=1.0,
                                                omega_bar=0.0, d_plus=bad),
            "slln_trajectory": lambda: gf.slln_trajectory(model, "ness", horizon=2.0, seed=0,
                                                          d_plus=bad),
        }
        with pytest.raises(DomainError, match="not positive definite"):
            calls[entry]()

    @pytest.mark.parametrize("count", [0, -1])
    def test_empty_sample_rejected(self, count):
        with pytest.raises(ValueError, match=f"count = {count} "):
            mc.quad_form_samples(np.eye(2), [np.eye(2)], seed=0, count=count)

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
    """(x, M x) by the general product, einsum(z @ W, z) with W = C'MC, all rows at once; and per
    draw |z|'|W||z|, the size that the rounding of a product of z, W and z scales with."""
    chol = np.linalg.cholesky(cov)
    z = mc._draw_rows(seed, 0, count, cov.shape[0])
    ws = [chol.T @ m @ chol for m in mats]
    ref = np.stack([np.einsum("ij,ij->i", z @ w, z) for w in ws], axis=1)
    size = np.stack([np.einsum("ij,ij->i", np.abs(z) @ np.abs(w), np.abs(z)) for w in ws], axis=1)
    return ref, size


def _rounding_bound(ref, size, dim):
    """The kernel's a-priori bound per draw, fixed before measuring: a value is a sum of at most
    dim + PANEL float32 products of float32 casts of z and of the scaled form (u = 2^-24 each, the
    scaling by a power of two is exact), so it is within (dim + PANEL + 3) u |z|'|W||z| of z'Wz;
    1e-13 of the column's largest value covers the float64 reference."""
    return (dim + mc.PANEL + 3) * 2.0**-24 * size + 1e-13 * np.abs(ref).max(axis=0)


class TestTriangularQuadForms:
    @pytest.mark.parametrize("dim,count", [(1, 50), (66, 8 * mc.BLOCK_ROWS + 17), (mc.PANEL - 1, 300),
                                           (mc.PANEL, 300), (mc.PANEL + 1, 300),
                                           (2 * mc.PANEL + 3, 4 * mc.BLOCK_ROWS + 5)])
    def test_matches_dense_product(self, dim, count):
        # non-symmetric M: the fold W_ij + W_ji keeps its form exactly; k = dim // PANEL + 2
        # forms are more than one product group holds
        rng = np.random.default_rng(dim)
        a = rng.standard_normal((dim, dim))
        cov = a @ a.T + dim * np.eye(dim)
        k = dim // mc.PANEL + 2
        mats = [rng.standard_normal((dim, dim)) for _ in range(k - 1)]
        mats.append(symmetrize(rng.standard_normal((dim, dim))))
        ref, size = _dense_quad_forms(cov, mats, 9, count)
        bound = _rounding_bound(ref, size, dim)
        got = mc.quad_form_samples(cov, mats, seed=9, count=count, workers=1)
        assert got.shape == (count, k)
        assert np.all(np.abs(got - ref) <= bound)
        for workers in (2, 3, 4):
            assert mc.quad_form_samples(cov, mats, seed=9, count=count,
                                        workers=workers).tobytes() == got.tobytes()

    @pytest.mark.parametrize("scale", [1e-45, 1.0, 1e40])
    def test_any_scale_meets_the_same_bound(self, scale):
        # each form is scaled by a power of two before its float32 cast: a tiny form does not go
        # subnormal and a huge one does not overflow, and no warning is raised
        dim, count = 2 * mc.PANEL + 3, mc.BLOCK_ROWS + 5
        rng = np.random.default_rng(11)
        a = rng.standard_normal((dim, dim))
        cov = a @ a.T + dim * np.eye(dim)
        mats = [scale * rng.standard_normal((dim, dim))]
        ref, size = _dense_quad_forms(cov, mats, 3, count)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = mc.quad_form_samples(cov, mats, seed=3, count=count)
        assert np.all(np.abs(got - ref) <= _rounding_bound(ref, size, dim))

    def test_integer_forms_are_exact(self):
        # integer draws and forms times powers of two: every float32 product and sum is exact, so
        # the fold, the triangles, the groups, the half tiles and the scaling give the dense
        # product exactly
        dim, rows = 2 * mc.PANEL + 3, 77
        rng = np.random.default_rng(2)
        chol = np.diag(rng.choice([1.0, 2.0], dim))
        mats = [rng.integers(-3, 4, (dim, dim)) * 2.0 ** p for p in (0, 0, -30, 40, 0)]
        z = rng.integers(-2, 3, (rows, dim)).astype(float)
        edges, groups = mc._form_panels(chol, mats)
        assert len(groups) == 3
        got = np.zeros((rows, len(mats)))
        mc._panel_forms(z, edges, groups, got, np.empty(-(-rows // 2) * dim, dtype=np.float32))
        ref = np.stack([np.einsum("ij,ij->i", z @ (chol.T @ m @ chol), z) for m in mats], axis=1)
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize("k,widths", [(1, [1]), (4, [4]), (5, [3, 2]), (9, [3, 3, 3])])
    def test_groups_are_few_and_even(self, k, widths):
        # at most dim // PANEL = 4 forms per group, in as few groups as that allows
        dim = 4 * mc.PANEL
        mats = [np.eye(dim)] * k
        _, groups = mc._form_panels(np.eye(dim), mats)
        assert [j1 - j0 for j0, j1, _ in groups] == widths

    def test_no_forms_draws_nothing(self, monkeypatch):
        def no_draws(*args):
            raise AssertionError("rows drawn for no form")

        monkeypatch.setattr(mc, "_tile_rng", no_draws)
        cov = np.eye(3)
        assert mc.quad_form_samples(cov, [], seed=0, count=10).shape == (10, 0)
        assert mc.trace_identity_report(cov, seed=0, count=10, n_mats=0) == []

    def test_inputs_unmodified(self, chain_model):
        cov = chain_model.covariance.copy()
        mats = [gf.sigma_matrix(chain_model).matrix.copy(), np.triu(np.ones_like(cov))]
        saved = [cov.copy()] + [m.copy() for m in mats]
        mc.quad_form_samples(cov, mats, seed=1, count=300)
        for before, after in zip(saved, [cov] + mats):
            assert after.tobytes() == before.tobytes()


def _whole_chunk_quad_forms(cov, mats, seed, count):
    """quad_form_samples with whole-chunk draws: 4 BLOCK_ROWS rows drawn at once, then the panel
    products per BLOCK_ROWS sub-block, chunk after chunk, with BLAS set as for a pass's tiles."""
    chol = np.linalg.cholesky(cov)
    dim = cov.shape[0]
    edges, groups = mc._form_panels(chol, mats)
    out = np.zeros((count, len(mats)))
    buf = np.empty(mc.BLOCK_ROWS * dim, dtype=np.float32)
    chunk = 4 * mc.BLOCK_ROWS
    with mc._one_blas_thread():
        for a in range(0, count, chunk):
            b = min(a + chunk, count)
            z = mc._draw_rows(seed, a, b, dim)
            for r in range(0, b - a, mc.BLOCK_ROWS):
                rows = z[r:r + mc.BLOCK_ROWS]
                mc._panel_forms(rows, edges, groups, out[a + r:a + r + len(rows)], buf)
    return out


class TestDrawBlocks:
    @pytest.mark.parametrize("count", [1, 4 * mc.BLOCK_ROWS - 1, 12 * mc.BLOCK_ROWS + 1000])
    def test_matches_whole_chunk_draws(self, chain_model, count):
        cov = chain_model.covariance
        mats = [gf.sigma_matrix(chain_model).matrix,
                np.random.default_rng(4).standard_normal(cov.shape)]
        ref = _whole_chunk_quad_forms(cov, mats, 13, count)
        for workers in (1, 2, 3, 4):
            got = mc.quad_form_samples(cov, mats, seed=13, count=count, workers=workers)
            assert got.tobytes() == ref.tobytes()

    def test_generator_of_mats_equals_list(self, chain_model):
        cov = chain_model.covariance
        rng = np.random.default_rng(5)
        mats = [symmetrize(rng.standard_normal(cov.shape)) for _ in range(3)]
        listed = mc.quad_form_samples(cov, mats, seed=2, count=4 * mc.BLOCK_ROWS + 3, workers=2)
        streamed = mc.quad_form_samples(cov, (m for m in mats), seed=2, count=4 * mc.BLOCK_ROWS + 3,
                                        workers=2)
        assert streamed.tobytes() == listed.tobytes()

    def test_trace_identity_rows_match_listed_mats(self, chain_model):
        # the report as it was: every A made first, the oracles read after the forms, the
        # statistics by numpy over the whole column; the streamed moments agree to roundoff
        cov, seed, count = chain_model.covariance, 11, 4 * mc.BLOCK_ROWS + 700
        rng = np.random.default_rng(seed ^ 0x5EED)
        mats = [symmetrize(rng.standard_normal(cov.shape)) for _ in range(4)]
        vals = _whole_chunk_quad_forms(cov, mats, seed, count)
        rows = mc.trace_identity_report(cov, seed, count, n_mats=4, workers=1)
        assert len(rows) == 4
        for j, (a, row) in enumerate(zip(mats, rows)):
            assert row["oracle"] == float(np.vdot(cov, a))
            assert abs(row["estimate"] - vals[:, j].mean()) <= MEAN_TOL * np.abs(vals[:, j]).max()
            se = float(vals[:, j].std()) / math.sqrt(count)
            assert abs(row["std_error"] - se) <= STD_RTOL * se
            assert row["z_score"] == (row["estimate"] - row["oracle"]) / row["std_error"]
        assert mc.trace_identity_report(cov, seed, count, n_mats=4, workers=3) == rows


# Tolerances of the streamed reducers against numpy over the collected column, fixed before
# measuring: the mean to 1e-13 of the largest value, the standard deviation to 1e-12 relative,
# a max-shifted log-mean-exp to 1e-12 absolute.
MEAN_TOL = 1e-13
STD_RTOL = 1e-12
LOG_MEAN_TOL = 1e-12


class TestReducers:
    COUNT = 8 * mc.BLOCK_ROWS + 917    # nine tiles, the last one short

    @pytest.fixture(scope="class")
    def columns(self, chain_model):
        sig = gf.sigma_matrix(chain_model).matrix
        mats = [sig, gf.sigma_integral_matrix(chain_model, 3.0).matrix,
                symmetrize(np.random.default_rng(3).standard_normal(sig.shape))]
        vals = mc.quad_form_samples(chain_model.covariance, mats, seed=21, count=self.COUNT)
        return chain_model.covariance, mats, vals

    def _fed(self, reducer, vals):
        # the blocks of a pass, handed over in a scrambled order as workers may
        reducer.begin(len(vals), vals.shape[1])
        starts = list(range(0, len(vals), mc.BLOCK_ROWS))
        for r in starts[1::2] + starts[::2]:
            reducer.add(r, vals[r:r + mc.BLOCK_ROWS])
        return reducer

    def test_moments_match_mean_and_std(self, columns):
        _, _, vals = columns
        mean, m2 = self._fed(mc._Moments(), vals).result()
        assert np.all(np.abs(mean - vals.mean(axis=0)) <= MEAN_TOL * np.abs(vals).max(axis=0))
        std = vals.std(axis=0)
        assert np.all(np.abs(np.sqrt(m2 / len(vals)) - std) <= STD_RTOL * std)

    def test_weight_moments_match_mean_and_std(self, columns):
        # weights exp(logdet - v/2) as in the change of measure, on a column scaled to O(1)
        _, _, vals = columns
        v = vals[:, :1] / np.abs(vals[:, 0]).max()
        w = np.exp(0.1 - 0.5 * v)
        mean, m2 = self._fed(mc._Moments(lambda c: np.exp(0.1 - 0.5 * c)), v).result()
        assert abs(mean[0] - w.mean()) <= MEAN_TOL * w.max()
        assert abs(math.sqrt(m2[0] / len(w)) - w.std()) <= STD_RTOL * w.std()

    @pytest.mark.parametrize("alpha", [-0.3, 0.0, 0.2])
    def test_shifted_moments_match_log_mean_exp(self, columns, alpha):
        # the parent's formula: shift = max e, mean and std of exp(e - shift)
        _, _, vals = columns
        e = -alpha * vals
        shift = e.max(axis=0)
        scaled = np.exp(e - shift)
        got_shift, mean, m2 = self._fed(mc._ShiftedMoments(lambda v: -alpha * v), vals).result()
        assert got_shift.tobytes() == shift.tobytes()
        est = shift + np.log(mean)
        assert np.all(np.abs(est - (shift + np.log(scaled.mean(axis=0)))) <= LOG_MEAN_TOL)
        std = scaled.std(axis=0)
        assert np.all(np.abs(np.sqrt(m2 / len(vals)) - std) <= STD_RTOL * np.maximum(std, 1e-300))

    def test_collect_keeps_the_columns(self, columns):
        _, _, vals = columns
        assert self._fed(mc._Collect(), vals).values.tobytes() == vals.tobytes()

    def test_empirical_mgf_matches_collected_column(self, chain_model):
        t, alpha, count = 4.0, 0.25, 4 * mc.BLOCK_ROWS + 333
        b = gf.sigma_integral_matrix(chain_model, t)
        vals = mc.quad_form_samples(chain_model.covariance, [b.matrix], seed=5, count=count)[:, 0]
        e = -alpha * (vals - b.offset)
        scaled = np.exp(e - e.max())
        est, se = gf.empirical_mgf(chain_model, t, alpha, seed=5, count=count)
        assert abs(est - (e.max() + math.log(scaled.mean()))) <= LOG_MEAN_TOL
        ref_se = scaled.std() / (scaled.mean() * math.sqrt(count))
        assert abs(se - ref_se) <= STD_RTOL * ref_se

    def test_change_of_measure_matches_collected_column(self, chain_model):
        count = 4 * mc.BLOCK_ROWS + 333
        fp = gf.flow_point(chain_model, 1.0)
        vals = mc.quad_form_samples(chain_model.covariance, [fp.relative_T], seed=6,
                                    count=count)[:, 0]
        w = np.exp(fp.logdet_term - 0.5 * vals)
        report = mc.change_of_measure_report(chain_model, 1.0, seed=6, count=count)
        assert abs(report["estimate"] - w.mean()) <= MEAN_TOL * w.max()
        ref_se = w.std() / math.sqrt(count)
        assert abs(report["std_error"] - ref_se) <= STD_RTOL * ref_se


class TestOnePass:
    def _checks(self, model, seed):
        return [mc.trace_check(model.covariance, seed, n_mats=3),
                mc.change_of_measure_check(model, 1.0),
                mc.mgf_check(model, 4.0, 0.25)]

    def test_matches_separate_calls(self, chain_model, monkeypatch):
        seed, count = 17, 4 * mc.BLOCK_ROWS + 900
        drawn = []
        real = mc._tile_forms

        def counted(seed, start, stop, *args):
            drawn.append((start, stop))
            return real(seed, start, stop, *args)

        monkeypatch.setattr(mc, "_tile_forms", counted)
        (rows, com, mgf), record = mc.run_checks(chain_model.covariance,
                                                 self._checks(chain_model, seed), seed, count)
        assert (record["rows"], record["forms"]) == (count, 5)
        assert len(record["certificate"]["max_deviation"]) == 5
        # one draw pass: each row drawn once
        assert sorted(drawn) == [(r, min(r + mc.BLOCK_ROWS, count))
                                 for r in range(0, count, mc.BLOCK_ROWS)]
        monkeypatch.setattr(mc, "_tile_forms", real)
        ref_rows = mc.trace_identity_report(chain_model.covariance, seed, count, n_mats=3)
        ref_com = mc.change_of_measure_report(chain_model, 1.0, seed, count)
        ref_mgf = gf.empirical_mgf(chain_model, 4.0, 0.25, seed, count)
        # the same draws; only the width of each form's GEMM group differs
        for got, ref in zip(rows + [com], ref_rows + [ref_com]):
            assert got["oracle"] == ref["oracle"]
            assert abs(got["estimate"] - ref["estimate"]) <= 1e-12 * ref["std_error"] * math.sqrt(count)
            assert abs(got["std_error"] - ref["std_error"]) <= 1e-10 * ref["std_error"]
        assert abs(mgf[0] - ref_mgf[0]) <= 1e-12 and abs(mgf[1] - ref_mgf[1]) <= 1e-10 * ref_mgf[1]

    def test_bytes_equal_for_any_worker_count(self, chain_model):
        seed, count = 3, 8 * mc.BLOCK_ROWS + 17
        results = set()
        for workers in (1, 2, 3, 4):
            reports, _ = mc.run_checks(chain_model.covariance, self._checks(chain_model, seed),
                                       seed, count, workers)
            results.add(repr(reports))
            single = (mc.trace_identity_report(chain_model.covariance, seed, count, 3, workers),
                      mc.change_of_measure_report(chain_model, 1.0, seed, count, workers),
                      gf.empirical_mgf(chain_model, 4.0, 0.25, seed, count, workers))
            results.add(("single", repr(single)))
        assert len(results) == 2

    def test_many_threads_agree_with_one(self, chain_model):
        # more workers than cores, switching threads often: each tile's partial lands in its
        # own slot, so no update is lost and the bytes equal those of one worker
        seed, count = 8, 24 * mc.BLOCK_ROWS + 5
        one, _ = mc.run_checks(chain_model.covariance, self._checks(chain_model, seed), seed, count)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            many, _ = mc.run_checks(chain_model.covariance, self._checks(chain_model, seed), seed,
                                    count, workers=6)
        finally:
            sys.setswitchinterval(interval)
        assert repr(many) == repr(one)

    def test_no_forms_draws_nothing(self, monkeypatch):
        monkeypatch.setattr(mc, "_tile_rng", lambda *args: pytest.fail("rows drawn for no form"))
        reports, record = mc.run_checks(np.eye(3), [mc.trace_check(np.eye(3), 0, n_mats=0)], 0, 10)
        assert reports == [[]] and record == {"rows": 0, "forms": 0}


@pytest.fixture
def blas_at_three():
    """OpenBLAS's count getter, with BLAS set to three threads for the test and then set back;
    skipped when numpy's BLAS is not OpenBLAS."""
    if mc._blas() is None:
        pytest.skip("numpy's BLAS is not OpenBLAS")
    get, put = mc._blas()
    before = get()
    put(3)
    try:
        assert get() == 3
        yield get
    finally:
        put(before)


class _Watching(mc._Moments):
    """_Moments that records, at each tile, the BLAS thread count (get()) and the thread; it can
    wait at tile 0 on a barrier and raise at a given tile."""

    def __init__(self, get, barrier=None, fail_at=None):
        super().__init__()
        self.get, self.barrier, self.fail_at = get, barrier, fail_at
        self.seen = []

    def add(self, start, cols):
        self.seen.append((self.get(), threading.get_ident()))
        if start == 0 and self.barrier is not None:
            self.barrier.wait(timeout=60)
        if start == self.fail_at:
            raise RuntimeError("reducer failed")
        super().add(start, cols)


class TestBlasThreads:
    COUNT = 8 * mc.BLOCK_ROWS + 17    # nine tiles, the last one short

    def _pass(self, model, reducer, workers=1):
        mats = [gf.sigma_matrix(model).matrix,
                symmetrize(np.random.default_rng(1).standard_normal((model.dim, model.dim)))]
        return mc.run_checks(model.covariance, [mc.Check(mats, reducer, lambda _: None)], 5,
                             self.COUNT, workers)

    def test_tiles_take_the_blas_threads(self, chain_model, blas_at_three):
        get = blas_at_three
        watch = _Watching(get)
        _, record = self._pass(chain_model, watch)
        assert (record["threads"], record["blas_threads"]) == (3, 3)
        assert len(watch.seen) == 9 and {count for count, _ in watch.seen} == {1}
        assert len({thread for _, thread in watch.seen}) <= 3
        assert get() == 3

    def test_count_restored_after_a_failed_pass(self, chain_model, blas_at_three):
        get = blas_at_three
        with pytest.raises(RuntimeError, match="reducer failed"):
            self._pass(chain_model, _Watching(get, fail_at=4 * mc.BLOCK_ROWS), workers=2)
        assert get() == 3
        _, record = self._pass(chain_model, _Watching(get))
        assert record["blas_threads"] == 3 and get() == 3

    def test_concurrent_passes_restore_the_count_once(self, chain_model, blas_at_three):
        # both passes meet at their tile 0, so each is inside the other's one-thread region: each
        # sees the caller's count, not the other's 1, and the last to leave restores it
        get = blas_at_three
        barrier = threading.Barrier(2)
        watches = [_Watching(get, barrier=barrier) for _ in range(2)]
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(self._pass, chain_model, watch) for watch in watches]
            records = [future.result(timeout=120)[1] for future in futures]
        assert [record["blas_threads"] for record in records] == [3, 3]
        assert {count for watch in watches for count, _ in watch.seen} == {1}
        assert get() == 3

    def test_without_openblas_blas_is_untouched(self, chain_model, monkeypatch):
        found = mc._blas()
        get = found[0] if found else (lambda: None)
        before = get()
        monkeypatch.setattr(mc, "_blas", lambda: None)
        watch = _Watching(get)
        _, record = self._pass(chain_model, watch, workers=3)
        assert (record["threads"], record["blas_threads"]) == (3, None)
        assert {count for count, _ in watch.seen} == {before}
        assert len({thread for _, thread in watch.seen}) <= 3
        assert get() == before

    def test_bytes_equal_for_any_worker_count(self, chain_514):
        # the benchmark's chain, where a 2-thread product would round otherwise than a 1-thread one
        results = set()
        for workers in (1, 2, 3, 4):
            collect = mc._Collect()
            self._pass(chain_514, collect, workers)
            results.add(collect.values.tobytes())
        assert len(results) == 1


def test_certificate_runs_the_tile_kernel(chain_514, monkeypatch):
    # on a 3-tile pass the certificate's float32 values equal those of the tile kernel, with a
    # workspace and BLAS set as for the tiles, for the same rows
    cov = chain_514.covariance
    mats = [gf.sigma_matrix(chain_514).matrix,
            symmetrize(np.random.default_rng(2).standard_normal(cov.shape))]
    real, certified = mc._panel_forms, []

    def spy(z, edges, groups, out, buf):
        real(z, edges, groups, out, buf)
        if z.dtype == np.float64:    # the probe: tiles hand over float32 rows
            certified.append((z.copy(), edges, groups, out.copy()))

    monkeypatch.setattr(mc, "_panel_forms", spy)
    mc.run_checks(cov, [mc.Check(mats, mc._Collect(), lambda _: None)], 4, 3 * mc.BLOCK_ROWS)
    ((probe, edges, groups, cert),) = certified
    rows, _, buf, vals = mc._workspace(len(cov), len(mats))
    rows[...] = np.tile(probe, (len(rows) // len(probe), 1))    # a half tile of probe rows
    with mc._one_blas_thread():
        real(rows, edges, groups, vals[:len(rows)], buf)
    assert vals[:len(probe)].tobytes() == cert.tobytes()


def test_certificate_matches_float64_recomputation(chain_model):
    # the probe by its definition, the dense float64 forms of its rows and the kernel's values on
    # them, made apart from the pass; the certificate does not depend on the seed or the draws
    cov, count = chain_model.covariance, 3 * mc.BLOCK_ROWS + 5
    mats = [gf.sigma_matrix(chain_model).matrix,
            np.random.default_rng(6).standard_normal(cov.shape)]
    chol = np.linalg.cholesky(cov)
    probe = np.random.Generator(np.random.SFC64(0)).standard_normal((mc.CERT_ROWS, len(cov)))
    ref = np.stack([np.einsum("ij,ij->i", probe @ (chol.T @ m @ chol), probe) for m in mats],
                   axis=1)
    got = np.zeros_like(ref)
    with mc._one_blas_thread():    # as a pass makes its certificate
        mc._panel_forms(probe, *mc._form_panels(chol, mats), got,
                        np.empty(mc.CERT_ROWS * len(cov), dtype=np.float32))
    deviation = np.abs(got - ref).max(axis=0)
    ratio = deviation / ref.std(axis=0)
    for seed in (4, 5):
        _, record = mc.run_checks(cov, [mc.Check(mats, mc._Collect(), lambda _: None)], seed,
                                  count)
        assert record["certificate"] == {
            "rows": mc.CERT_ROWS, "max_deviation": deviation.tolist(),
            "deviation_over_std": ratio.tolist(),
            "mean_shift_se": (ratio * math.sqrt(count)).tolist()}


@pytest.fixture(scope="module")
def chain_514():
    """The 128+1+128 chain (dim 514) of criteria 5a and 5b."""
    return gf.build_chain(gf.ChainSpec(n_left=128, n_right=128, temps=(2.0, 1.0, 1.0)))[0]


def test_float32_shift_within_a_hundredth_of_the_standard_error(chain_514):
    # the 5a and 5b checks on 16 tiles against the same reducers fed the dense float64 forms of
    # the same draws; the bound, 0.01 standard error, was fixed before measuring
    model, seed, count = chain_514, 42, 16 * mc.BLOCK_ROWS
    cov, dim = model.covariance, model.dim

    def checks():
        return [mc.trace_check(cov, seed), mc.change_of_measure_check(model, 1.0),
                mc.mgf_check(model, 10.0, 0.25)]

    (trace, com, mgf), record = mc.run_checks(cov, checks(), seed, count)
    ref_checks = checks()
    chol = np.linalg.cholesky(cov)
    folded = [(check, [chol.T @ m @ chol for m in check.forms]) for check in ref_checks]
    for check, ws in folded:
        check.reducer.begin(count, len(ws))
    for r in range(0, count, mc.BLOCK_ROWS):
        z = mc._draw_rows(seed, r, r + mc.BLOCK_ROWS, dim)
        for check, ws in folded:
            check.reducer.add(r, np.stack([np.einsum("ij,ij->i", z @ w, z) for w in ws], axis=1))
    ref_trace, ref_com, ref_mgf = (check.report(count) for check in ref_checks)
    assert len(trace) == 10
    for got, ref in zip(trace + [com], ref_trace + [ref_com]):
        assert abs(got["estimate"] - ref["estimate"]) <= 0.01 * ref["std_error"]
    assert abs(mgf[0] - ref_mgf[0]) <= 0.01 * ref_mgf[1]
    assert max(record["certificate"]["mean_shift_se"]) < 0.01


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
        assert all(basis is not None for _, basis in _parts(model.generator, 0.0))
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
        assert [basis for _, basis in _parts(model.generator, 0.0)] == [None]
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
