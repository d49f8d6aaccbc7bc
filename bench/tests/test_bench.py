"""Self-tests of the benchmark: span arithmetic, traced call counts, metric names.

Run from the repository root: ``python3 -m pytest bench/tests -q``.
"""

import json
import os
import re
import sys

import pytest

import run
import workloads
from spans import WORKLOAD_SPAN, Tracer, summarize

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"[A-Za-z0-9_.-]+")


class FakeClock:
    def __init__(self, times):
        self._times = iter(times)

    def __call__(self):
        return next(self._times)


def test_self_time_of_nested_spans():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and b [5, 9]
    tracer = Tracer(clock=FakeClock([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0]))
    tracer.open("root")
    tracer.open("a")
    tracer.open("b")
    tracer.close()
    tracer.close()
    tracer.open("b")
    tracer.close()
    tracer.close()
    layers = summarize(tracer.spans)
    assert layers["root"]["self_s"] == pytest.approx(3.0)   # 10 - 3 - 4
    assert layers["a"]["self_s"] == pytest.approx(2.0)      # 3 - 1
    assert layers["b"]["self_s"] == pytest.approx(5.0)      # 1 + 4
    assert layers["b"]["calls"] == 2
    assert sorted(layers["b"]["durations"]) == pytest.approx([1.0, 4.0])
    total_self = sum(entry["self_s"] for entry in layers.values())
    assert total_self == pytest.approx(10.0)


@pytest.fixture
def traced_gaussfluct():
    """gaussfluct with a tracer installed; the module bindings are restored after."""
    import gaussfluct as gf

    saved = {name: dict(vars(mod)) for name, mod in list(sys.modules.items())
             if name == "gaussfluct" or name.startswith("gaussfluct.")}
    tracer = Tracer()
    tracer.install(gf)
    yield gf, tracer
    for name, attrs in saved.items():
        vars(sys.modules[name]).update(attrs)


def test_toy_top_level_call_counts(traced_gaussfluct):
    gf, tracer = traced_gaussfluct
    # the call pattern does not depend on the model size, so a small toy suffices
    model, oracle = gf.build_toy(gf.ToySpec(n=32, lam=1.0))
    tracer.open(WORKLOAD_SPAN)
    workloads.toy_finite_time(gf, {"model": model, "oracle": oracle}, 0, workloads.Outputs())
    tracer.close()
    layers = summarize(tracer.spans)
    assert layers["renyi.renyi_entropy"]["top_calls"] == 84
    assert layers["renyi.renyi_entropy_ness"]["top_calls"] == 84
    assert layers["renyi.domain_interval"]["top_calls"] == 4


def test_metric_names_are_valid_and_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME.fullmatch(name) for name in declared)
    assert len(set(declared)) == len(declared)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_names()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_digest_store_is_keyed_by_source(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "STATE", str(tmp_path))
    old = run.digest_path("toy_finite_time", 1, False, "source-a")
    assert run.digest_check(old, ["d1", "d1"])["passed"]       # first run stores d1
    assert run.digest_check(old, ["d1"])["passed"]             # same source, same digest
    assert not run.digest_check(old, ["d2"])["passed"]         # same source, new digest
    assert not run.digest_check(old, ["d1", "d2"])["passed"]   # passes disagree
    new = run.digest_path("toy_finite_time", 1, False, "source-b")
    assert run.digest_check(new, ["d2"])["passed"]             # changed source, new digest
    assert run.digest_check(new, ["d2"])["passed"]
    # the seed keys only a workload whose outputs depend on it
    assert run.digest_path("toy_finite_time", 2, False, "k") == run.digest_path("toy_finite_time", 1, False, "k")
    assert run.digest_path("chain_monte_carlo", 2, True, "k") != run.digest_path("chain_monte_carlo", 1, True, "k")


def test_source_key_follows_the_package_sources(tmp_path, monkeypatch):
    package = tmp_path / "src" / "gaussfluct"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("x = 1\n")
    monkeypatch.setattr(run, "SRC", str(tmp_path / "src"))
    monkeypatch.setattr(run, "ROOT", str(tmp_path))
    before = run.source_key()
    assert run.source_key() == before
    (package / "__init__.py").write_text("x = 2\n")
    assert run.source_key() != before
