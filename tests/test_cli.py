import json
import math
import threading

import numpy as np
import pytest

import gaussfluct as gf
from gaussfluct.cli import main
from gaussfluct.modelio import save_model


@pytest.fixture(scope="module")
def chain_file(tmp_path_factory):
    model, _ = gf.build_chain(gf.ChainSpec(n_left=12, n_right=12, temps=(2.0, 1.0, 1.0)))
    path = tmp_path_factory.mktemp("models") / "chain.json"
    save_model(model, path)
    return str(path)


@pytest.fixture(scope="module")
def toy_file(tmp_path_factory):
    model, _ = gf.build_toy(gf.ToySpec(n=32, lam=1.0))
    path = tmp_path_factory.mktemp("models") / "toy.json"
    save_model(model, path)
    return str(path)


def test_validate_chain_exits_zero(chain_file, tmp_path, capsys):
    code = main(["validate", "--model", chain_file, "--out", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "validate.json").read_text())
    assert doc["g4_ok"] is True
    assert doc["m_est"] > 0


def test_validate_broken_theta_exits_two(tmp_path):
    n = 8
    gen = np.zeros((n, n))
    i = np.arange(n - 1)
    gen[i, i + 1] = 1.0
    gen[i + 1, i] = -1.0
    model = gf.Model(dim=n, generator=gen, covariance=np.eye(n), time_reversal=np.eye(n))
    path = tmp_path / "broken.json"
    save_model(model, path)
    assert main(["validate", "--model", str(path), "--out", str(tmp_path)]) == 2


def test_malformed_json_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["validate", "--model", str(path)]) == 1
    assert "line" in capsys.readouterr().err


def test_empty_alpha_grid_exits_one(toy_file, capsys):
    assert main(["scan-renyi", "--model", toy_file, "--t", "2", "--alpha-grid", "3:1:5"]) == 1


def test_scan_renyi_infinity_matches_oracle_domain(toy_file, tmp_path):
    model, oracle = gf.build_toy(gf.ToySpec(n=32, lam=1.0))
    t = 2.0
    code = main(["scan-renyi", "--model", toy_file, "--t", str(t),
                 "--alpha-grid", "-2:3:101", "--out", str(tmp_path)])
    assert code == 0
    rows = (tmp_path / "renyi_t2.csv").read_text().strip().split("\n")[1:]
    alphas = np.array([float(r.split(",")[0]) for r in rows])
    finite = np.array([r.split(",")[2] == "1" for r in rows])
    delta_t = oracle.delta_t(t)
    step = alphas[1] - alphas[0]
    for a, ok in zip(alphas, finite):
        if -delta_t + step < a < 1.0 + delta_t - step:
            assert ok
        if a < -delta_t - step or a > 1.0 + delta_t + step:
            assert not ok


def test_flow_scan_stdout(tmp_path, capsys):
    model, _ = gf.build_chain(gf.ChainSpec(n_left=16, n_right=16, temps=(2.0, 1.0, 1.0)))
    path = str(tmp_path / "chain16.json")
    save_model(model, path)
    assert main(["flow", "--model", path, "--t-grid", "0:10:3"]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out[0].startswith("t,trace_Dt") and out[0].endswith(",ent_balance_defect")
    assert len(out) == 4
    # B_t is closed form, so the entropy balance holds to roundoff
    assert all(float(row.split(",")[-1]) <= 1e-12 for row in out[1:])
    assert main(["flow", "--model", path, "--t-grid", "0:4:3", "--quad-steps", "32"]) == 1


def test_asymptotics_json(chain_file, tmp_path):
    code = main(["asymptotics", "--model", chain_file, "--horizon", "12",
                 "--out", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "asymptotics.json").read_text())
    assert doc["omega_plus_sigma"] > 0
    assert doc["domain"]["lower"] < 0 < doc["domain"]["upper"]
    assert all(math.isfinite(row["e"]) for row in doc["e_grid"])


def test_asymptotics_plateau_failure_exits_two(chain_file, tmp_path):
    code = main(["asymptotics", "--model", chain_file, "--horizon", "12",
                 "--plateau-tol", "1e-9", "--out", str(tmp_path)])
    assert code == 2


def test_rate_csv(chain_file, tmp_path):
    code = main(["rate", "--model", chain_file, "--horizon", "12",
                 "--s-grid", "-0.5:0.5:11", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "rate.csv").read_text().strip().split("\n")
    assert lines[0] == "s,I,I_plus,es_defect"
    assert len(lines) == 12


def test_rate_nonconvex_estimate_exits_two(chain_file, tmp_path, capsys):
    # at horizon 24 the estimated e of the 12+1+12 chain has a negative-mass
    # nearest atom, so it is not convex: a hypothesis failure, not a usage error
    code = main(["rate", "--model", chain_file, "--horizon", "24",
                 "--s-grid", "-0.5:0.5:51", "--out", str(tmp_path)])
    assert code == 2
    assert "not convex near alpha" in capsys.readouterr().err
    assert not (tmp_path / "rate.csv").exists()
    assert main(["rate", "--model", chain_file, "--s-grid", "0.5:-0.5:3"]) == 1


def test_mc_subchecks(chain_file, tmp_path):
    code = main(["mc", "--model", chain_file, "--checks", "trace,com,mgf",
                 "--n", "4000", "--t", "4", "--alpha", "0.25", "--seed", "42",
                 "--workers", "2", "--out", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "mc.json").read_text())
    assert abs(doc["mgf"]["z_score"]) < 6
    assert abs(doc["change_of_measure"]["estimate"] - 1.0) < 0.1
    assert len(doc["trace_identity"]) == 10


def test_mc_single_draw_exits_one(chain_file, capsys):
    assert main(["mc", "--model", chain_file, "--n", "1"]) == 1
    assert "count = 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["--n", "1"], "count = 1"),
    (["--checks", "clt,trace", "--n", "1"], "count = 1"),
    (["--checks", "trace,bogus", "--n", "100"], "unknown check(s) bogus"),
])
def test_mc_rejects_before_estimating_limits(chain_file, monkeypatch, capsys, argv, message):
    from gaussfluct import asymptotics

    calls = []
    monkeypatch.setattr(asymptotics, "estimate_limit_covariance",
                        lambda *args, **kwargs: calls.append(args))
    assert main(["mc", "--model", chain_file, *argv]) == 1
    assert calls == []
    assert message in capsys.readouterr().err


def test_mc_reproducible(chain_file, tmp_path, capsys):
    argv = ["mc", "--model", chain_file, "--checks", "mgf", "--n", "2000",
            "--t", "4", "--alpha", "0.2", "--seed", "7"]
    assert main(argv) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(argv + ["--workers", "3"]) == 0
    second = json.loads(capsys.readouterr().out)
    # bit-identical numbers regardless of the worker count
    assert first["mgf"] == second["mgf"]


def test_env_var_sets_default_workers(monkeypatch):
    from gaussfluct.cli import build_parser

    monkeypatch.setenv("GAUSS_FLUCT_THREADS", "5")
    args = build_parser().parse_args(["validate", "--model", "x.json"])
    assert args.workers == 5


def test_bad_env_var_is_a_named_error(monkeypatch, capsys):
    monkeypatch.setenv("GAUSS_FLUCT_THREADS", "two")
    before = threading.active_count()
    assert main(["validate", "--model", "x.json"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "GAUSS_FLUCT_THREADS" in err and "'two'" in err
    assert threading.active_count() == before


def test_oracle_compare_toy(tmp_path):
    code = main(["oracle-compare", "--builder", "toy", "--n", "64", "--lam", "1.0",
                 "--t", "8", "--out", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "oracle_compare.json").read_text())
    assert all(row["max_abs_diff_e"] < 1e-8 for row in doc["rows"])
    assert all(row["max_abs_diff_e_plus"] < 1e-8 for row in doc["rows"])
