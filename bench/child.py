"""One benchmark pass in a fresh interpreter, so the package caches start cold.

Usage: ``python3 child.py WORKLOAD SEED MODE [SPANS_FILE]`` with MODE one of
``setup`` (import and build only), ``run`` (untraced pass) or ``trace``
(traced pass; raw spans go to SPANS_FILE).  run.py sets the thread
environment and PYTHONPATH.  Prints one JSON object on stdout.
"""

import time

T0 = time.perf_counter()  # before numpy and gaussfluct are imported

import json
import os
import resource
import sys
import traceback


def _versions():
    import numpy as np
    import scipy

    def blas(config):
        info = config["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
    }


def main(argv):
    workload, seed, mode = argv[1], int(argv[2]), argv[3]
    tracer = None
    if mode == "trace":
        from spans import WORKLOAD_SPAN, Tracer, summarize

        tracer = Tracer()
    import gaussfluct as gf

    t_import = time.perf_counter()
    if tracer is not None:
        tracer.record("bench.import", T0, t_import)
        tracer.install(gf)
        tracer.open("bench.setup")
    import numpy as np
    import workloads

    spec = workloads.WORKLOADS[workload]
    ctx = spec.setup(gf)
    np.dot(np.ones((64, 64)), np.ones((64, 64)))  # first BLAS call starts its threads
    if tracer is not None:
        tracer.close()
    result = {"setup_s": time.perf_counter() - T0, "package": gf.__file__}
    if mode == "setup":
        return result

    out = workloads.Outputs()
    checks, error = [], None
    if tracer is not None:
        tracer.open(WORKLOAD_SPAN)
    try:
        checks = spec.run(gf, ctx, seed, out)
    except Exception:  # reported as a failed operation, not raised
        error = traceback.format_exc()
    if tracer is not None:
        tracer.close()
    result.update(
        wall_s=time.perf_counter() - T0,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        calls=out.calls,
        error=error,
        digest=out.digest,
        checks=[{"name": c.name, "value": float(c.value), "limit": c.limit,
                 "passed": bool(c.passed), "detail": c.detail} for c in checks],
        versions=_versions(),
    )
    if tracer is not None:
        layers = summarize(tracer.spans)
        for entry in layers.values():
            entry["durations"].sort()
        result.update(layers=layers, flow_keys=len(tracer.flow_keys), draws=tracer.draws)
        with open(argv[4], "w") as fh:
            json.dump(tracer.spans, fh)
    return result


if __name__ == "__main__":
    sys.stdout.write(json.dumps(main(sys.argv)) + "\n")
