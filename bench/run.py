#!/usr/bin/env python3
"""gaussfluct benchmark: one workload per invocation, untraced or traced.

Run from the repository root:

    python3 bench/run.py --workload toy_finite_time --seed 42 --seconds 1 --trace 0

Every pass runs in a fresh interpreter (child.py), so the package caches start
cold as in a CLI invocation; passes repeat until --seconds have elapsed, at
least once.  Calls are made from one thread with workers=1 and BLAS limited to
nproc threads.  With --trace 0 the last line reports the end-to-end metrics;
with --trace 1 one more pass runs traced and the last line reports the
per-layer metrics and the tracing overhead.  Earlier lines carry the machine
record, every output check with its tolerance, and the determinism digest.
"""

import argparse
import glob
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".bench_build", "bench")  # digests and raw spans

WORKERS = 1             # the CLI default: GAUSS_FLUCT_THREADS unset
SETUP_ONLY_SAMPLES = 8  # set-up-only processes per run, besides the passes
RUN_BUDGET_S = 170.0    # a run ends within 180 s


def nproc():
    return len(os.sched_getaffinity(0))


def child_env():
    env = dict(os.environ)
    env.pop("GAUSS_FLUCT_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc())
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(workload, seed, mode, deadline, spans_file=""):
    cmd = [sys.executable, os.path.join(HERE, "child.py"), workload, str(seed), mode, spans_file]
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} pass exited with {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expected = os.path.join(SRC, "gaussfluct", "__init__.py")
    if os.path.realpath(result["package"]) != os.path.realpath(expected):
        raise RuntimeError(f"imported {result['package']}, not the checkout's {expected}")
    return result


def machine_record(versions, seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    llc = None
    for level in ("LEVEL3_CACHE_SIZE", "LEVEL2_CACHE_SIZE"):
        try:
            out = subprocess.run(["getconf", level], capture_output=True, text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            break
        if out.returncode == 0 and out.stdout.strip().isdigit() and int(out.stdout) > 0:
            llc = f"{int(out.stdout) // 1024} KiB ({level[:6].lower()})"
            break
    return {"cpu": cpu, "nproc": nproc(), "llc": llc, **versions,
            "blas_threads": nproc(), "workers": WORKERS, "seed": seed}


def source_key():
    """SHA-256 of the code whose outputs are digested: the package and the workloads."""
    files = sorted(glob.glob(os.path.join(SRC, "gaussfluct", "**", "*.py"), recursive=True))
    files.append(os.path.join(HERE, "workloads.py"))
    h = hashlib.sha256()
    for path in files:
        h.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read() + b"\0")
    return h.hexdigest()[:16]


def digest_path(workload, seed, seeded, key):
    """Where the first run of this source (and seed, if the workload uses it) stores its digest."""
    name = f"digest-{workload}" + (f"-seed{seed}" if seeded else "") + f"-{key}.txt"
    return os.path.join(STATE, name)


def digest_check(path, digests):
    """All digests agree, and agree with the one an earlier run stored at path."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    stored = None
    if os.path.exists(path):
        with open(path) as fh:
            stored = fh.read().strip()
    else:
        with open(path, "w") as fh:
            fh.write(digests[0] + "\n")
    same = len(set(digests)) == 1 and stored in (None, digests[0])
    detail = (f"{len(digests)} pass digests {sorted(set(digests))}, "
              f"stored {stored or 'none (recorded now)'} in {os.path.basename(path)}")
    return {"name": "digest", "value": 0.0 if same else 1.0, "limit": 0.0, "passed": same,
            "detail": detail}


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list; 0 for an empty one."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def per_layer_names():
    """(name, unit) of every per-layer metric, in report order."""
    from spans import TRACED, RATE_EVAL, layer_name

    names = []
    for module, function in TRACED:
        layer = layer_name(module, function)
        names += [(f"{layer}.calls", "count"), (f"{layer}.self_s", "s")]
        if module == "renyi" and function in ("renyi_entropy", "renyi_entropy_ness"):
            names += [(f"{layer}.p50_ms", "ms"), (f"{layer}.p90_ms", "ms")]
        if function == "flow_point":
            names.append((f"{layer}.reuse_ratio", "ratio"))
    names += [(f"{RATE_EVAL}.calls", "count"), (f"{RATE_EVAL}.self_s", "s"),
              ("montecarlo.draws", "count"), ("montecarlo.draws_per_s", "1/s"),
              ("bench.import.self_s", "s"), ("bench.setup.self_s", "s"),
              ("bench.workload.self_s", "s"),
              ("trace.wall_s", "s"), ("trace.overhead_s", "s"), ("trace.unaccounted_s", "s")]
    return names


def per_layer_metrics(traced, untraced_wall):
    layers = traced["layers"]
    empty = {"calls": 0, "self_s": 0.0, "durations": []}
    values = {}
    for name, unit in per_layer_names():
        layer, _, stat = name.rpartition(".")
        entry = layers.get(layer, empty)
        if stat == "calls":
            values[name] = entry["calls"]
        elif stat == "self_s":
            values[name] = entry["self_s"]
        elif stat in ("p50_ms", "p90_ms"):
            values[name] = 1e3 * percentile(entry["durations"], 0.5 if stat == "p50_ms" else 0.9)
    flow = layers.get("flow.flow_point", empty)
    quad = layers.get("montecarlo.quad_form_samples", empty)
    quad_s = sum(quad["durations"])
    values["flow.flow_point.reuse_ratio"] = flow["calls"] / traced["flow_keys"] if traced["flow_keys"] else 0.0
    values["montecarlo.draws"] = traced["draws"]
    values["montecarlo.draws_per_s"] = traced["draws"] / quad_s if quad_s > 0 else 0.0
    values["trace.wall_s"] = traced["wall_s"]
    values["trace.overhead_s"] = traced["wall_s"] - untraced_wall
    values["trace.unaccounted_s"] = traced["wall_s"] - sum(e["self_s"] for e in layers.values())
    return {name: {"value": values[name], "unit": unit} for name, unit in per_layer_names()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "gaussfluct", "__init__.py")):
        print(f"error: no gaussfluct sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc())
    sys.path.insert(0, HERE)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    seeded = workloads.WORKLOADS[args.workload].seeded
    deadline = time.monotonic() + RUN_BUDGET_S

    try:
        setups = [] if args.trace else [
            run_child(args.workload, args.seed, "setup", deadline)["setup_s"]
            for _ in range(SETUP_ONLY_SAMPLES)]
        start = time.monotonic()
        passes = [run_child(args.workload, args.seed, "run", deadline)]
        while (time.monotonic() - start < args.seconds
               and time.monotonic() + passes[-1]["wall_s"] < deadline):
            passes.append(run_child(args.workload, args.seed, "run", deadline))
        traced = None
        if args.trace:
            os.makedirs(STATE, exist_ok=True)
            spans_file = os.path.join(STATE, f"spans-{args.workload}.json")
            traced = run_child(args.workload, args.seed, "trace", deadline, spans_file)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    runs = passes + ([traced] if traced else [])
    errors = [r["error"] for r in runs if r["error"]]
    for err in errors:
        print(f"operation failed:\n{err}", file=sys.stderr)
    store = digest_path(args.workload, args.seed, seeded, source_key())
    checks = runs[0]["checks"] + [digest_check(store, [r["digest"] for r in runs])]
    if errors:  # a pass that raised skipped its remaining checks
        checks.append({"name": "no_exception", "value": float(len(errors)), "limit": 0.0,
                       "passed": False, "detail": "passes whose library calls raised"})
    failed_checks = [c["name"] for c in checks if not c["passed"]]
    unexpected = [n for n in failed_checks if n not in workloads.KNOWN_RED]

    print(f"gaussfluct benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("machine: " + json.dumps(machine_record(runs[0]["versions"], args.seed)))
    for c in checks:
        status = "PASS" if c["passed"] else ("FAIL (known red)" if c["name"] in workloads.KNOWN_RED
                                             else "FAIL")
        print(f"check {c['name']}: {c['value']:.4g} <= {c['limit']:.4g} {status}"
              + (f"  [{c['detail']}]" if c["detail"] else ""))
    print(f"failed_share: {len(failed_checks) / len(checks):.4g} ratio "
          f"({len(failed_checks)} of {len(checks)} checks failed: {', '.join(failed_checks) or 'none'})")

    walls = [p["wall_s"] for p in passes]
    if args.trace:
        metrics = per_layer_metrics(traced, statistics.median(walls))
    else:
        setups += [p["setup_s"] for p in passes]
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(p["peak_rss_mb"] for p in passes), "unit": "MB"},
            "passed_share": {"value": 1.0 - len(failed_checks) / len(checks), "unit": "ratio"},
        }
        print(f"samples: {len(walls)} passes, {len(setups)} set-ups")
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")

    attempted = sum(r["calls"] for r in runs) + len(errors)
    result = {"correct": not errors and not unexpected, "attempted": attempted,
              "failed": len(errors), "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
