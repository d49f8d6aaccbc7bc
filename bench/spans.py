"""In-memory span recorder that wraps gaussfluct functions at their import sites.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (-1 for a root).  Calls are expected from one thread, which is
how the benchmark drives the library (``workers=1``).  A layer's self time is
its span's duration minus the durations of its direct children.
"""

import functools
import importlib
import inspect
import sys
import time

# (module, function) pairs wrapped by a traced run.  Every module attribute
# bound to one of these function objects is replaced, so calls between
# modules (``renyi.flow_point``, ``flow.propagator``, ...) are recorded too.
TRACED = (
    ("models", "build_toy"),
    ("models", "build_chain"),
    ("_linalg", "propagator"),
    ("flow", "flow_point"),
    ("model", "validate_model"),
    ("model", "sigma_matrix"),
    ("renyi", "renyi_entropy"),
    ("renyi", "renyi_entropy_ness"),
    ("renyi", "domain_interval"),
    ("renyi", "domain_interval_ness"),
    ("asymptotics", "estimate_limit_covariance"),
    ("asymptotics", "steady_entropy_production"),
    ("asymptotics", "q_operator"),
    ("asymptotics", "spectral_measure_nu"),
    ("asymptotics", "delta_series"),
    ("asymptotics", "q_bounds_defect"),
    ("asymptotics", "limit_functional"),
    ("ldp", "rate_function"),
    ("ldp", "es_symmetry_defect"),
    ("ldp", "clt_variance"),
    ("montecarlo", "sigma_integral_matrix"),
    ("montecarlo", "quad_form_samples"),
    ("montecarlo", "trace_identity_report"),
    ("montecarlo", "change_of_measure_report"),
    ("montecarlo", "empirical_mgf"),
)

RATE_EVAL = "ldp.rate_eval"     # calls into the RateFunction that rate_function returns
WORKLOAD_SPAN = "bench.workload"


def layer_name(module, function):
    """Metric-safe layer name: the leading underscore of a private module is dropped."""
    return f"{module.lstrip('_')}.{function}"


class Tracer:
    """Records nested spans in memory, plus the call arguments a few ratios need."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.flow_keys = set()      # distinct (model, t) passed to flow_point
        self.draws = 0              # rows drawn by quad_form_samples
        self._stack = []

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self._stack.pop()][2] = self.clock()

    def record(self, name, start, end):
        """Add a finished root span measured by the caller."""
        self.spans.append([name, start, end, -1])

    def wrap(self, name, fn, note=None, result_span=None):
        """fn recorded as span `name`; a callable result is traced as `result_span`."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if note is not None:
                note(args, kwargs)
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            return result if result_span is None else _TracedCallable(self, result_span, result)

        return traced

    def install(self, package):
        """Replace every import-site binding of the TRACED functions in package."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == package.__name__ or key.startswith(package.__name__ + ".")]
        for module, function in TRACED:
            original = getattr(importlib.import_module(f"{package.__name__}.{module}"), function, None)
            if original is None:
                continue
            wrapper = self.wrap(layer_name(module, function), original, self._note_for(function, original),
                                RATE_EVAL if function == "rate_function" else None)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def _note_for(self, function, original):
        """Argument recorder for the two functions whose arguments feed a ratio."""
        if function not in ("flow_point", "quad_form_samples"):
            return None
        sig = inspect.signature(original)

        def note(args, kwargs):
            arguments = sig.bind(*args, **kwargs).arguments
            if function == "flow_point":
                self.flow_keys.add((id(arguments["model"]), float(arguments["t"])))
            else:
                self.draws += int(arguments["count"])

        return note


class _TracedCallable:
    """Forwards attribute reads to a callable result and records a span per call."""

    def __init__(self, tracer, name, target):
        self._tracer = tracer
        self._name = name
        self._target = target

    def __call__(self, *args, **kwargs):
        self._tracer.open(self._name)
        try:
            return self._target(*args, **kwargs)
        finally:
            self._tracer.close()

    def __getattr__(self, attr):
        return getattr(self._target, attr)


def summarize(spans):
    """Per-name totals: calls, top-level calls, self time and inclusive durations.

    Top-level calls are the spans whose parent is the workload span, that is,
    the calls the workload itself makes.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {}
    for i, (name, start, end, parent) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "top_calls": 0, "self_s": 0.0, "durations": []})
        entry["calls"] += 1
        if parent >= 0 and spans[parent][0] == WORKLOAD_SPAN:
            entry["top_calls"] += 1
        entry["self_s"] += (end - start) - child_time[i]
        entry["durations"].append(end - start)
    return out
