"""Start-up contract: the package and every finite-time, limit, rate and Monte Carlo pipeline
load numpy only.

scipy is imported by two leaves alone, inside the functions that use it:
the expm fallback for a block that fails the conditioning gate, and the KS
test of the CLT check.  The Monte Carlo quadratic forms (criteria 5a and 5b:
the trace identity, the change of measure and the MGF) run on numpy's BLAS.
Each check runs in a fresh interpreter, since this test process has scipy
loaded already.
"""

import json
import os
import subprocess
import sys

import gaussfluct as gf

PIPELINES = r"""
import json
import os
import sys
import tempfile

import numpy as np

import gaussfluct as gf
from gaussfluct import cli
from gaussfluct.modelio import save_model


def scipy_modules():
    return sorted(m for m in sys.modules if m.startswith("scipy"))


loaded = {"import": scipy_modules()}
toy, _ = gf.build_toy(gf.ToySpec(n=64, lam=1.0))
chain, _ = gf.build_chain(gf.ChainSpec(n_left=16, n_right=16, temps=(2.0, 1.0, 1.0)))
split, _ = gf.build_toy(gf.ToySpec(n=128, lam=1.0))  # dim 256: two components to search
loaded["build"] = scipy_modules()
for model in (toy, chain, split):
    gf.flow_point(model, 2.0)
    gf.domain_interval(model, 2.0)
    gf.renyi_entropy(model, 2.0, 0.3)
    gf.renyi_entropy_ness(model, 2.0, 0.3, np.eye(model.dim))
    gf.validate_model(model, np.linspace(0.0, 2.0, 3))
loaded["finite_time"] = scipy_modules()
lims = gf.estimate_limit_covariance(chain, horizon=12.0, grid_points=64)
q = gf.q_operator(lims)
sig = gf.sigma_matrix(chain)
gf.spectral_measure_nu(q, sig)
efn = gf.limit_functional(q, sig)
gf.rate_function(efn, kind="reference")(0.1)
gf.rate_function(cli._ness_limit_functional(chain, lims, efn), kind="ness")(0.1)
loaded["limits_and_rates"] = scipy_modules()
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "chain.json")
    save_model(chain, path)
    loaded["cli_validate_exit"] = cli.main(["validate", "--model", path, "--out", tmp])
loaded["cli_validate"] = scipy_modules()

from gaussfluct import montecarlo as mc

mc.quad_form_samples(chain.covariance, [sig.matrix], seed=1, count=8)
mc.trace_identity_report(chain.covariance, seed=1, count=8)
mc.change_of_measure_report(chain, 1.0, seed=1, count=8)
mc.empirical_mgf(chain, 10.0, 0.25, seed=1, count=8)
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "chain.json")
    save_model(chain, path)
    loaded["cli_mc_exit"] = cli.main(["mc", "--checks", "trace,com,mgf", "--model", path,
                                      "--n", "8", "--out", tmp])
loaded["monte_carlo"] = scipy_modules()
sys.stdout.write(json.dumps(loaded) + "\n")
"""


def _run(script):
    src = os.path.dirname(os.path.dirname(os.path.abspath(gf.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_pipelines_and_monte_carlo_checks_load_no_scipy():
    loaded = _run(PIPELINES)
    assert loaded.pop("cli_validate_exit") == 0
    assert loaded.pop("cli_mc_exit") == 0
    assert loaded == {stage: [] for stage in ("import", "build", "finite_time", "limits_and_rates",
                                              "cli_validate", "monte_carlo")}
