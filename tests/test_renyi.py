import math
import weakref
from collections import OrderedDict

import numpy as np
import pytest

import gaussfluct as gf
from gaussfluct import renyi
from gaussfluct._linalg import spd_sqrt, symmetrize
from gaussfluct.renyi import reference_functional


def interior_grid(dom, count, margin=0.05):
    width = dom.upper - dom.lower
    return np.linspace(dom.lower + margin * width, dom.upper - margin * width, count)


class TestDomainInterval:
    def test_flat_model_has_full_line(self, toy_flat):
        model, _ = toy_flat
        dom = gf.domain_interval(model, 4.0)
        assert dom.lower == -math.inf and dom.upper == math.inf
        assert dom.delta_t == math.inf

    def test_toy_delta_t_closed_form(self, toy_model, toy_oracle):
        for t in (1.0, 5.0, 12.0):
            dom = gf.domain_interval(toy_model, t)
            assert dom.delta_t == pytest.approx(toy_oracle.delta_t(t), abs=1e-8)
            assert dom.upper == pytest.approx(1.0 + dom.delta_t, rel=1e-6)

    def test_delta_t_dominates_hypothesis_delta(self, toy_model, chain_model):
        for model in (toy_model, chain_model):
            report = gf.validate_model(model, [0.0, 1.0, 3.0, 7.0])
            for t in (1.0, 3.0, 7.0):
                assert gf.domain_interval(model, t).delta_t >= report.delta - 1e-8

    def test_time_reflection_symmetry(self, toy_model, chain_model):
        for model in (toy_model, chain_model):
            d_pos = gf.domain_interval(model, 6.0)
            d_neg = gf.domain_interval(model, -6.0)
            assert d_pos.lower == pytest.approx(d_neg.lower, rel=1e-9, abs=1e-12)
            assert d_pos.upper == pytest.approx(d_neg.upper, rel=1e-9, abs=1e-12)

    def test_asymmetric_interval_warns(self):
        # no time reversal and a genuinely lopsided pencil spectrum
        gen = np.array([[-1.0, 4.0], [0.0, -2.0]])
        model = gf.Model(dim=2, generator=gen, covariance=np.eye(2))
        with pytest.warns(UserWarning, match="not symmetric"):
            gf.domain_interval(model, 1.0)


class TestRenyiEntropy:
    def test_endpoints_vanish(self, toy_model, chain_model):
        for model in (toy_model, chain_model):
            for t in (2.0, 8.0):
                assert gf.renyi_entropy(model, t, 0.0) == 0.0
                assert gf.renyi_entropy(model, t, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_evans_searles_symmetry(self, chain_model):
        t = 5.0
        dom = gf.domain_interval(chain_model, t)
        for a in interior_grid(dom, 41):
            lhs = gf.renyi_entropy(chain_model, t, a)
            rhs = gf.renyi_entropy(chain_model, t, 1.0 - a)
            assert abs(lhs - rhs) <= 1e-9

    def test_toy_closed_form(self, toy_model, toy_oracle):
        for t in (1.0, 5.0):
            dom = gf.domain_interval(toy_model, t)
            for a in interior_grid(dom, 21):
                assert gf.renyi_entropy(toy_model, t, a) == pytest.approx(
                    toy_oracle.e_t(t, a), abs=1e-8
                )

    def test_sign_pattern(self, chain_model):
        t = 4.0
        for a in np.linspace(0.05, 0.95, 10):
            assert gf.renyi_entropy(chain_model, t, a) <= 1e-12
        dom = gf.domain_interval(chain_model, t)
        for a in (dom.lower * 0.5, 1.0 - dom.lower * 0.5):
            assert gf.renyi_entropy(chain_model, t, a) >= -1e-12

    def test_convexity_on_grid(self, chain_model):
        t = 6.0
        dom = gf.domain_interval(chain_model, t)
        grid = interior_grid(dom, 41)
        vals = np.array([gf.renyi_entropy(chain_model, t, a) for a in grid])
        second = vals[2:] - 2 * vals[1:-1] + vals[:-2]
        assert second.min() >= -1e-9

    def test_domain_consistency(self, chain_model):
        # finite <=> Cholesky success <=> inside the eigenvalue interval
        t = 5.0
        dom = gf.domain_interval(chain_model, t)
        width = dom.upper - dom.lower
        center = 0.5 * (dom.upper + dom.lower)
        grid = np.linspace(center - 0.75 * width, center + 0.75 * width, 201)
        for a in grid:
            value = gf.renyi_entropy(chain_model, t, a)
            inside = dom.lower < a < dom.upper
            boundary_gap = min(abs(a - dom.lower), abs(a - dom.upper))
            if boundary_gap < 1e-9 * width:
                continue
            assert math.isfinite(value) == inside

    def test_infinite_outside(self, toy_model):
        dom = gf.domain_interval(toy_model, 5.0)
        assert gf.renyi_entropy(toy_model, 5.0, dom.upper + 0.5) == math.inf
        assert gf.renyi_entropy(toy_model, 5.0, dom.lower - 0.5) == math.inf


class TestNessFunctional:
    def test_zero_at_origin(self, toy_model, toy_oracle):
        assert gf.renyi_entropy_ness(toy_model, 3.0, 0.0, toy_oracle.d_plus()) == 0.0

    def test_toy_closed_form(self, toy_model, toy_oracle):
        d_plus = toy_oracle.d_plus()
        for t in (1.0, 5.0):
            radius = toy_oracle.j_plus_radius(t)
            for a in np.linspace(-0.9 * radius, 0.9 * radius, 21):
                assert gf.renyi_entropy_ness(toy_model, t, a, d_plus) == pytest.approx(
                    toy_oracle.e_t_plus(t, a), abs=1e-8
                )

    def test_toy_domain_radius(self, toy_model, toy_oracle):
        for t in (1.0, 4.0):
            dom = gf.domain_interval_ness(toy_model, t, toy_oracle.d_plus())
            radius = toy_oracle.j_plus_radius(t)
            assert dom.upper == pytest.approx(radius, rel=1e-8)
            assert dom.lower == pytest.approx(-radius, rel=1e-8)

    def test_toy_radius_approaches_delta_plus(self, toy_model, toy_oracle):
        # the overlap decays (with Bessel oscillations), so the interval
        # radius settles onto (1+lam)/|lam| from above
        radii = [gf.domain_interval_ness(toy_model, t, toy_oracle.d_plus()).upper
                 for t in (1.0, 6.0, 20.0)]
        assert all(r >= toy_oracle.delta_plus - 1e-12 for r in radii)
        assert radii[-1] == pytest.approx(toy_oracle.delta_plus, rel=1e-3)
        assert radii[-1] < radii[0]

    def test_domain_contains_delta_ball(self, chain_model, chain_mid_limits):
        # J_t+ contains (-delta, delta) with delta from the hypothesis bounds
        report = gf.validate_model(chain_model, [0.0, 1.0, 3.0, 7.0])
        lims = gf.estimate_limit_covariance(chain_model, horizon=14.0, grid_points=64)
        dom = gf.domain_interval_ness(chain_model, 5.0, lims.d_plus)
        assert dom.lower < -report.delta + 1e-9
        assert dom.upper > report.delta - 1e-9

    @pytest.mark.parametrize("case", ["chain 32+1+32", "nonnormal"])
    def test_cholesky_root_keeps_the_spectrum(self, case, nonnormal_model):
        # E = B^-1 C+ with C+ C+' = D+ in place of D+^{1/2}: E'T^E is congruent to T_t D+, so its
        # atoms are the eigenvalues of D+^{1/2} T_t D+^{1/2}, to 1e-12 of the largest
        if case == "nonnormal":
            model, t = nonnormal_model, 3.0
            b = np.random.default_rng(5).standard_normal((model.dim, model.dim))
            d_plus = b @ b.T / model.dim + np.eye(model.dim)
        else:
            model = gf.build_chain(gf.ChainSpec(n_left=32, n_right=32, temps=(2.0, 1.0, 1.0)))[0]
            t = 10.0
            d_plus = gf.estimate_limit_covariance(model, horizon=30.0, grid_points=64).d_plus
        root = spd_sqrt(d_plus)
        ref = np.linalg.eigvalsh(symmetrize(root @ gf.flow_point(model, t).relative_T @ root))
        atoms = renyi.ness_functional(model, t, d_plus).q
        assert np.abs(atoms - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_flat_model_full_line(self, toy_flat):
        model, oracle = toy_flat
        dom = gf.domain_interval_ness(model, 3.0, oracle.d_plus())
        assert dom.lower == -math.inf and dom.upper == math.inf


def test_two_dimensional_quadrature_oracle():
    # independent route: integrate exp(alpha * ell(x)) against the reference
    # Gaussian by 2-D quadrature and compare with the pencil evaluation
    from scipy.integrate import dblquad

    gen = np.array([[0.0, 2.0], [-2.0, 0.0]])
    cov = np.diag([2.0, 0.5])
    model = gf.Model(dim=2, generator=gen, covariance=cov)
    t, alpha = 0.9, 0.7
    cov_inv = np.linalg.inv(cov)
    norm = 1.0 / (2.0 * np.pi * np.sqrt(np.linalg.det(cov)))

    def integrand(y, x):
        v = np.array([x, y])
        dens = norm * np.exp(-0.5 * v @ cov_inv @ v)
        return np.exp(alpha * gf.log_density(model, t, v)) * dens

    val, err = dblquad(integrand, -14, 14, -14, 14, epsabs=1e-11, epsrel=1e-11)
    assert err < 1e-9
    assert math.log(val) == pytest.approx(gf.renyi_entropy(model, t, alpha), abs=1e-9)


def test_functional_wrappers():
    model, oracle = gf.build_toy(gf.ToySpec(n=32, lam=0.5))
    efn = reference_functional(model, 2.0)
    assert efn.meta == "finite-time-reference"
    assert efn(0.0) == 0.0
    assert efn(efn.domain.upper + 1.0) == math.inf


def test_alpha_scan_csv(tmp_path, toy_model):
    from gaussfluct.renyi import alpha_scan, write_alpha_csv

    efn = reference_functional(toy_model, 2.0)
    rows = alpha_scan(efn, np.linspace(-3.0, 3.5, 14))
    path = tmp_path / "scan.csv"
    write_alpha_csv(path, rows)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "alpha,e_t,in_domain"
    assert len(lines) == 15
    finite_flags = [int(line.split(",")[2]) for line in lines[1:]]
    assert 0 in finite_flags and 1 in finite_flags


# ---------------------------------------------------------------------------
# spectra: one factorization per flow point and one per (flow point, D+)
# ---------------------------------------------------------------------------

@pytest.fixture
def factorizations(monkeypatch):
    """Count eigen- and Cholesky factorizations made after the fixture starts."""
    import scipy.linalg

    counts = {"eigvalsh": 0, "eigh": 0, "cholesky": 0}

    def counting(module, name, key):
        fn = getattr(module, name)

        def wrapped(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapped)

    counting(np.linalg, "eigvalsh", "eigvalsh")
    counting(np.linalg, "eigh", "eigh")
    counting(np.linalg, "cholesky", "cholesky")
    counting(scipy.linalg, "cholesky", "cholesky")
    return counts


def fresh_toy(n=32, lam=1.0):
    # a model of its own, so that its flow points and spectra start cold
    return gf.build_toy(gf.ToySpec(n=n, lam=lam))


class TestSpectralCache:
    def test_in_place_mutation_of_d_plus_changes_the_value(self):
        model, _ = fresh_toy()
        d = np.eye(model.dim)
        before = gf.renyi_entropy_ness(model, 2.0, 0.3, d)
        d *= 2.0
        after = gf.renyi_entropy_ness(model, 2.0, 0.3, d)
        assert before == pytest.approx(0.00957, abs=1e-5)
        assert after == pytest.approx(0.0394, abs=1e-4)
        assert after == gf.renyi_entropy_ness(model, 2.0, 0.3, d.copy())

    def test_d_plus_keyed_by_its_content(self):
        model, oracle = fresh_toy()
        d = 2.0 * oracle.d_plus()
        gf.renyi_entropy_ness(model, 2.0, 0.3, d)
        start = renyi.spectral_cache_info()
        d[0, 0] = 3.0  # changed in place: a new content, so a new key
        changed = gf.renyi_entropy_ness(model, 2.0, 0.3, d)
        info = renyi.spectral_cache_info()
        assert (info["misses"], info["hits"]) == (start["misses"] + 1, start["hits"])
        assert changed == gf.renyi_entropy_ness(model, 2.0, 0.3, d.copy())
        d[0, 0] = 2.0  # back to the first content: its entry is still there
        first = gf.renyi_entropy_ness(model, 2.0, 0.3, d)
        frozen = d.copy()
        frozen.flags.writeable = False  # a read-only array of the same content shares the key
        assert first == gf.renyi_entropy_ness(model, 2.0, 0.3, frozen)
        assert renyi.spectral_cache_info()["misses"] == info["misses"]

    def test_d_plus_made_writable_again_takes_a_new_key(self, chain_mid_limits):
        model, _ = fresh_toy()
        d = 2.0 * np.eye(model.dim)
        d.flags.writeable = False
        before = gf.renyi_entropy_ness(model, 2.0, 0.3, d)
        d.flags.writeable = True  # it owns its data, so numpy lets it be written again
        d *= 1.5
        d.flags.writeable = False
        after = gf.renyi_entropy_ness(model, 2.0, 0.3, d)
        assert after != before
        assert after == gf.renyi_entropy_ness(model, 2.0, 0.3, d.copy())
        # the D+ and D- of estimate_limit_covariance are frozen: no one can write them again
        for frozen in (chain_mid_limits.d_plus, chain_mid_limits.d_minus):
            with pytest.raises(ValueError):
                frozen.flags.writeable = True

    def test_d_plus_keys_bounded_with_their_entries(self):
        model, oracle = fresh_toy()
        start = renyi.spectral_cache_info()
        scales = 1.0 + np.arange(renyi.D_PLUS_ENTRIES + 2)
        for s in scales:
            gf.domain_interval_ness(model, 2.0, s * oracle.d_plus())
            assert len(renyi._stores) <= renyi.D_PLUS_ENTRIES
        info = renyi.spectral_cache_info()
        assert info["misses"] - start["misses"] == len(scales)
        # the two evicted keys took their functionals with them
        assert info["entries"] - start["entries"] <= renyi.D_PLUS_ENTRIES

    def test_bytes_count_the_d_plus_roots(self, monkeypatch):
        monkeypatch.setattr(renyi, "_identity", (weakref.WeakKeyDictionary(), {}))
        monkeypatch.setattr(renyi, "_stores", OrderedDict())
        model, oracle = fresh_toy()
        n = model.dim
        assert renyi.spectral_cache_info()["bytes"] == 0
        grown = []
        for t, d in ((2.0, oracle.d_plus()), (3.0, oracle.d_plus()), (2.0, 2.0 * oracle.d_plus())):
            before = renyi.spectral_cache_info()["bytes"]
            atoms = gf.ness_functional(model, t, d).q.nbytes
            grown.append(renyi.spectral_cache_info()["bytes"] - before - atoms)
        # the toy's D+ is I, whose key IDENTITY needs no root; a new D+ that
        # is not I adds only its n x n root E = B^-1 D+^{1/2} in the model's
        # frame, with no copy of D+; a seen one adds only the new entry's atoms
        assert grown == [0, 0, n * n * 8]

    def test_equal_arrays_share_one_entry(self):
        model, _ = fresh_toy()
        gf.renyi_entropy_ness(model, 2.0, 0.3, np.eye(model.dim))
        info = renyi.spectral_cache_info()
        value = gf.renyi_entropy_ness(model, 2.0, 0.3, np.eye(model.dim))
        again = renyi.spectral_cache_info()
        assert again["misses"] == info["misses"] and again["entries"] == info["entries"]
        assert again["hits"] == info["hits"] + 1
        # an array that is not C-contiguous is keyed by its values too
        assert value == gf.renyi_entropy_ness(model, 2.0, 0.3, np.asfortranarray(np.eye(model.dim)))

    def test_one_factorization_per_key(self, factorizations):
        model, oracle = fresh_toy(n=64)
        gf.flow_point(model, 1.0)  # the model's D^{1/2} costs one eigh, once
        factorizations.update(eigvalsh=0, eigh=0, cholesky=0)
        for t in (5.0, 2.0, 3.0):
            gf.flow_point(model, t)
            # a cold flow point: one eigvalsh of K_t and no Cholesky
            assert factorizations == {"eigvalsh": 1, "eigh": 0, "cholesky": 0}
            factorizations.update(eigvalsh=0)
        alphas = np.linspace(-0.5, 1.5, 21)
        for a in alphas:
            gf.renyi_entropy(model, 1.0, a)
        gf.domain_interval(model, 5.0)
        renyi.alpha_scan(reference_functional(model, 2.0), alphas)
        gf.entropy_balance_defect(model, 3.0)
        # the reference functional and the entropy balance read the flow point's spectrum
        assert factorizations == {"eigvalsh": 0, "eigh": 0, "cholesky": 0}
        for a in alphas:
            gf.renyi_entropy_ness(model, 5.0, a, oracle.d_plus())
        assert factorizations == {"eigvalsh": 1, "eigh": 0, "cholesky": 0}
        renyi.alpha_scan(renyi.ness_functional(model, 3.0, oracle.d_plus()), alphas)
        assert factorizations == {"eigvalsh": 2, "eigh": 0, "cholesky": 0}

    def test_scan_of_a_built_functional_reads_no_cache(self):
        model, oracle = fresh_toy()
        efn = renyi.ness_functional(model, 2.0, oracle.d_plus())
        start = renyi.spectral_cache_info()
        renyi.alpha_scan(efn, np.linspace(-1.0, 1.0, 21))
        assert renyi.spectral_cache_info() == start

    def test_general_d_plus_adds_one_square_root_per_key(self, factorizations):
        model, _ = gf.build_chain(gf.ChainSpec(n_left=8, n_right=8, temps=(2.0, 1.0, 1.0)))
        d_plus = gf.estimate_limit_covariance(model, horizon=10.0, grid_points=64).d_plus
        gf.flow_point(model, 4.0)
        factorizations.update(eigvalsh=0, eigh=0, cholesky=0)
        for a in np.linspace(-0.2, 0.2, 21):
            gf.renyi_entropy_ness(model, 4.0, a, d_plus)
        # the root E = B^-1 C+ reads one Cholesky factor C+ of D+
        assert factorizations == {"eigvalsh": 1, "eigh": 0, "cholesky": 1}

    def test_cache_info_counts_and_releases(self, monkeypatch):
        import gc

        # a store of its own, so that no earlier test's key is evicted between the counts
        monkeypatch.setattr(renyi, "_identity", (weakref.WeakKeyDictionary(), {}))
        monkeypatch.setattr(renyi, "_stores", OrderedDict())
        model, oracle = fresh_toy()
        start = renyi.spectral_cache_info()
        assert set(start) == {"hits", "misses", "entries", "bytes"}
        gf.renyi_entropy(model, 2.0, 0.5)
        gf.domain_interval(model, 2.0)
        # the reference functional is read from the flow point, not the cache
        assert renyi.spectral_cache_info() == start
        gf.renyi_entropy_ness(model, 2.0, 0.5, oracle.d_plus())
        gf.renyi_entropy_ness(model, 2.0, 0.25, oracle.d_plus())
        gf.domain_interval_ness(model, 2.0, 2.0 * oracle.d_plus())
        info = renyi.spectral_cache_info()
        assert info["misses"] - start["misses"] == 2
        assert info["hits"] - start["hits"] == 1
        assert info["entries"] - start["entries"] == 2
        # the atoms of two entries, and the root E = B^-1 D+^{1/2} of 2 D+ in
        # this model's frame (D+ = I needs none: the toy's frame is orthogonal)
        assert info["bytes"] - start["bytes"] == 2 * 8 * model.dim + 8 * model.dim ** 2
        del model, oracle
        gc.collect()
        end = renyi.spectral_cache_info()
        assert end["entries"] == start["entries"] and end["bytes"] == start["bytes"]

    def test_concurrent_cold_calls_factorize_once(self, factorizations):
        import sys
        from concurrent.futures import ThreadPoolExecutor

        def evaluate(model, oracle, pool):
            # two NESS keys: D+ = I and a general D+, which needs one Cholesky factor
            d_plus = oracle.d_plus()
            jobs = [(gf.renyi_entropy, (model, 3.0, a)) for a in np.linspace(-0.5, 1.5, 24)]
            jobs += [(gf.renyi_entropy_ness, (model, 3.0, a, d))
                     for a in np.linspace(-1.0, 1.0, 24) for d in (d_plus, 0.5 * d_plus)]
            if pool is None:
                return [fn(*args) for fn, args in jobs]
            futures = [pool.submit(fn, *args) for fn, args in jobs]
            return [f.result(timeout=120) for f in futures]

        serial_model, serial_oracle = fresh_toy(n=128)
        gf.flow_point(serial_model, 3.0)
        serial = evaluate(serial_model, serial_oracle, None)
        model, oracle = fresh_toy(n=128)
        gf.flow_point(model, 3.0)
        factorizations.update(eigvalsh=0, eigh=0, cholesky=0)
        start = renyi.spectral_cache_info()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                threaded = evaluate(model, oracle, pool)
        finally:
            sys.setswitchinterval(interval)
        info = renyi.spectral_cache_info()
        assert factorizations == {"eigvalsh": 2, "eigh": 0, "cholesky": 1}
        assert info["misses"] - start["misses"] == 2
        # the 24 reference calls read the flow point and leave the cache alone
        assert info["hits"] - start["hits"] == len(threaded) - 24 - 2
        assert [np.float64(v).tobytes() for v in threaded] == [np.float64(v).tobytes() for v in serial]


@pytest.mark.parametrize("case", ["chain", "toy"])
def test_single_domain_rule_at_endpoints(case, chain_model, toy_model, toy_oracle):
    # finite <=> lower < alpha < upper, at each endpoint and one float either side
    if case == "chain":
        model = chain_model
        d_plus = gf.estimate_limit_covariance(model, horizon=14.0, grid_points=64).d_plus
    else:
        model, d_plus = toy_model, toy_oracle.d_plus()
    t = 5.0
    pairs = [
        (gf.domain_interval(model, t), lambda a: gf.renyi_entropy(model, t, a)),
        (gf.domain_interval_ness(model, t, d_plus),
         lambda a: gf.renyi_entropy_ness(model, t, a, d_plus)),
    ]
    for dom, value in pairs:
        assert math.isfinite(dom.lower) and math.isfinite(dom.upper)
        for end in (dom.lower, dom.upper):
            for a in (np.nextafter(end, -math.inf), end, np.nextafter(end, math.inf)):
                assert math.isfinite(value(a)) == (dom.lower < a < dom.upper), (dom, a)
