"""Command-line pipelines: validate -> flow -> renyi -> asymptotics -> rate -> mc.

Exit codes: 0 success, 1 structural/usage errors, 2 hypothesis-failure
reports.  Structured results go to JSON (floats as %.17g), grids to CSV.
"""

import argparse
import dataclasses
import math
import os
import sys

import numpy as np

from . import asymptotics, flow, ldp, models, montecarlo, renyi
from ._linalg import parse_grid
from .model import DomainError, sigma_matrix, validate_model
from .modelio import dumps_17g, load_model

EXIT_OK = 0
EXIT_STRUCTURAL = 1
EXIT_HYPOTHESIS = 2


class _Parser(argparse.ArgumentParser):
    # usage problems are structural errors (exit 1), not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliError(message)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # let grid values like -2:3:101 pass as option arguments
        import re

        self._negative_number_matcher = re.compile(r"^-\d+[\d.:eE+-]*$")


class CliError(Exception):
    pass


def _emit_json(doc, args, name):
    text = dumps_17g(doc) + "\n"
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, name)
        with open(path, "w") as fh:
            fh.write(text)
        print(path)
    else:
        sys.stdout.write(text)


def _out_path(args, name):
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _grid(text, what):
    try:
        return parse_grid(text)
    except ValueError as exc:
        raise CliError(f"bad {what} grid: {exc}")


def cmd_validate(args):
    model = load_model(args.model)
    grid = _grid(args.time_grid, "time") if args.time_grid else np.linspace(0.0, 10.0, 11)
    if not np.any(grid == 0.0):
        grid = np.concatenate([[0.0], grid])
    report = validate_model(model, grid)
    doc = {
        "label": model.label,
        "g4_ok": report.g4_ok,
        "m_est": report.bounds[0],
        "M_est": report.bounds[1],
        "delta": report.delta,
        "notes": report.notes,
    }
    _emit_json(doc, args, "validate.json")
    failed = any("fails" in n or "not positive" in n or "not traceless" in n for n in report.notes)
    return EXIT_HYPOTHESIS if failed else EXIT_OK


def cmd_flow(args):
    model = load_model(args.model)
    ts = _grid(args.t_grid, "time")
    rows = flow.flow_scan(model, ts)
    if args.out:
        path = _out_path(args, "flow_scan.csv")
        flow.write_flow_csv(path, rows)
        print(path)
    else:
        sys.stdout.write(",".join(flow.FLOW_SCAN_COLUMNS) + "\n")
        for row in rows:
            sys.stdout.write(",".join("%.17g" % v for v in row) + "\n")
    return EXIT_OK


def cmd_scan_renyi(args):
    model = load_model(args.model)
    alphas = _grid(args.alpha_grid, "alpha")
    lims = None
    if args.ness:
        lims = asymptotics.estimate_limit_covariance(model, horizon=args.horizon)
    if not args.out:
        sys.stdout.write("t,alpha,e_t,in_domain\n")
    for t in args.t:
        dom = renyi.domain_interval(model, t)
        if args.ness:
            functional = renyi.ness_functional(model, t, lims.d_plus)
        else:
            functional = renyi.reference_functional(model, t)
        rows = renyi.alpha_scan(functional, alphas)
        doc = {"t": t, "lower": functional.domain.lower, "upper": functional.domain.upper,
               "delta_t": dom.delta_t}
        if args.out:
            path = _out_path(args, f"renyi_t{t:g}.csv")
            renyi.write_alpha_csv(path, rows)
            print(path)
            _emit_json(doc, args, f"renyi_domain_t{t:g}.json")
        else:
            for a, v, ind in rows:
                sys.stdout.write("%.17g,%.17g,%.17g,%d\n" % (t, a, v, ind))
    return EXIT_OK


def cmd_asymptotics(args):
    model = load_model(args.model)
    sig = sigma_matrix(model)
    try:
        lims = asymptotics.estimate_limit_covariance(
            model, horizon=args.horizon, tol=args.plateau_tol, grid_points=args.grid_points
        )
    except asymptotics.PlateauError as exc:
        _emit_json({"error": str(exc), "plateau_residual": exc.residual}, args, "asymptotics.json")
        return EXIT_HYPOTHESIS
    omega_plus = asymptotics.steady_entropy_production(sig, model.covariance, lims.d_plus)
    q = asymptotics.q_operator(lims)
    nu = asymptotics.spectral_measure_nu(q, sig, q_floor=args.q_floor)
    alphas = _grid(args.alpha_grid, "alpha") if args.alpha_grid else np.linspace(0.1, 0.9, 9)
    efn = asymptotics.limit_functional(q, sig)
    doc = {
        "window": list(lims.window),
        "plateau_residual": lims.plateau_residual,
        "stationarity_defect": lims.stationarity_defect,
        "omega_plus_sigma": omega_plus,
        "d_plus": {"dense": lims.d_plus},
        "domain": {"lower": efn.domain.lower, "upper": efn.domain.upper},
        "e_grid": [{"alpha": float(a), "e": efn(float(a))} for a in alphas],
        "atoms": [{"r": r, "w": w} for r, w in nu.atoms if abs(r) < args.atom_r_cap],
        "dropped_mass": nu.dropped_mass,
        "notes": nu.notes,
    }
    _emit_json(doc, args, "asymptotics.json")
    return EXIT_OK


def cmd_rate(args):
    model = load_model(args.model)
    s_grid = _grid(args.s_grid, "s")
    sig = sigma_matrix(model)
    lims = asymptotics.estimate_limit_covariance(model, horizon=args.horizon,
                                                 grid_points=args.grid_points)
    q = asymptotics.q_operator(lims)
    efn = asymptotics.limit_functional(q, sig)
    try:
        rate = ldp.rate_function(efn, kind="reference")
        rate_plus = ldp.rate_function(_ness_limit_functional(model, lims, efn), kind="ness")
    except DomainError as exc:
        # the estimated e or e_+ violates a hypothesis of the conjugation
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    rows = []
    for s in s_grid:
        i_s = rate(float(s))
        rows.append((float(s), i_s, rate_plus(float(s)), abs(rate(-float(s)) - i_s - float(s))))
    header = "s,I,I_plus,es_defect"
    lines = [header] + [",".join("%.17g" % v for v in row) for row in rows]
    if args.out:
        path = _out_path(args, "rate.csv")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        print(path)
    else:
        sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def _ness_limit_functional(model, lims, efn):
    """Stationary-state limit functional: same values, NESS domain.

    The limiting functionals agree on the overlap of their domains; the
    stationary domain is taken from the positivity interval of the pencil
    at the late end of the averaging window.
    """
    dom_plus = renyi.domain_interval_ness(model, lims.window[1], lims.d_plus)
    lo = max(dom_plus.lower, efn.domain.lower)
    hi = min(dom_plus.upper, efn.domain.upper)
    return dataclasses.replace(efn, domain=renyi.DomainInterval(lower=lo, upper=hi, kind="ness"))


# The least --n each check accepts: its sampler's minimum (slln draws no --n).
MC_MIN_DRAWS = {"trace": 2, "com": 2, "mgf": 2, "slln": 0, "clt": 1}


def cmd_mc(args):
    if args.check:
        checks = [args.check]
    elif args.checks:
        checks = args.checks.split(",")
    else:
        checks = list(MC_MIN_DRAWS)
    unknown = [c for c in checks if c not in MC_MIN_DRAWS]
    if unknown:
        raise CliError(f"unknown check(s) {','.join(unknown)}; choose among {','.join(MC_MIN_DRAWS)}")
    least = max(MC_MIN_DRAWS[c] for c in checks)
    if args.n < least:
        raise CliError(f"count = {args.n} (--n) is below the minimum of {least} draws "
                       f"for check(s) {','.join(checks)}")
    model = load_model(args.model)
    sig = sigma_matrix(model)
    doc = {"seed": args.seed, "n": args.n, "workers": args.workers}
    lims = None
    if {"slln", "clt"} & set(checks):
        lims = asymptotics.estimate_limit_covariance(model, horizon=args.horizon,
                                                     grid_points=args.grid_points)
    if "trace" in checks:
        doc["trace_identity"] = montecarlo.trace_identity_report(
            model.covariance, args.seed, args.n, workers=args.workers
        )
    if "com" in checks:
        doc["change_of_measure"] = montecarlo.change_of_measure_report(
            model, args.com_t, args.seed, args.n, workers=args.workers
        )
    if "mgf" in checks:
        est, se = montecarlo.empirical_mgf(model, args.t, args.alpha, args.seed, args.n,
                                           workers=args.workers)
        oracle = renyi.renyi_entropy(model, args.t, args.alpha)
        doc["mgf"] = {"estimate": est, "std_error": se, "oracle": oracle,
                      "z_score": (est - oracle) / se if se > 0 else 0.0}
    if "slln" in checks:
        omega_plus = asymptotics.steady_entropy_production(sig, model.covariance, lims.d_plus)
        series = montecarlo.slln_trajectory(model, "reference", args.horizon, args.seed)
        doc["slln"] = {"omega_plus": omega_plus,
                       "series": [{"t": t, "sigma_bar": v} for t, v in series]}
    if "clt" in checks:
        omega_plus = asymptotics.steady_entropy_production(sig, model.covariance, lims.d_plus)
        q = asymptotics.q_operator(lims)
        efn = asymptotics.limit_functional(q, sig)
        try:
            a_var = ldp.clt_variance(efn, 1.0)
        except DomainError:
            a_var = 0.0
        report = montecarlo.clt_sample(model, "ness", args.clt_t, args.seed, args.n,
                                       variance=a_var, omega_bar=omega_plus,
                                       d_plus=lims.d_plus, workers=args.workers)
        doc["clt"] = {"ks_distance": report.ks_distance, "variance": a_var,
                      "skipped": report.skipped, "note": report.note}
        if args.out and not report.skipped:
            montecarlo.write_histogram_csv(_out_path(args, "clt_hist.csv"), report)
    _emit_json(doc, args, "mc.json")
    return EXIT_OK


def cmd_oracle_compare(args):
    """Compare the generic pipeline against a builder's analytic oracle."""
    if args.builder == "toy":
        model, oracle = models.build_toy(models.ToySpec(n=args.n, lam=args.lam))
        alphas = np.linspace(0.05, 0.95, 10)
        rows = []
        for t in (1.0, 5.0, float(args.t)):
            worst = max(abs(renyi.renyi_entropy(model, t, a) - oracle.e_t(t, a)) for a in alphas)
            worst_plus = max(
                abs(renyi.renyi_entropy_ness(model, t, a, oracle.d_plus()) - oracle.e_t_plus(t, a))
                for a in alphas
            )
            rows.append({"t": t, "max_abs_diff_e": worst, "max_abs_diff_e_plus": worst_plus,
                         "delta_t_diff": abs(renyi.domain_interval(model, t).delta_t - oracle.delta_t(t))})
        doc = {"builder": "toy", "rows": rows}
    elif args.builder == "chain":
        spec = models.ChainSpec(n_left=args.n, n_right=args.n)
        model, oracle = models.build_chain(spec)
        sig = sigma_matrix(model)
        lims = asymptotics.estimate_limit_covariance(model, horizon=args.horizon,
                                                     grid_points=args.grid_points)
        omega_plus = asymptotics.steady_entropy_production(sig, model.covariance, lims.d_plus)
        q = asymptotics.q_operator(lims)
        e_mid = asymptotics.limit_functional(q, sig)(0.5)
        doc = {
            "builder": "chain",
            "omega_plus": {"estimate": omega_plus, "oracle": oracle.omega_plus_sigma,
                           "rel_error": abs(omega_plus - oracle.omega_plus_sigma) / oracle.omega_plus_sigma},
            "e_half": {"estimate": e_mid, "oracle": oracle.e_of_alpha(0.5),
                       "rel_error": abs(e_mid - oracle.e_of_alpha(0.5)) / abs(oracle.e_of_alpha(0.5))},
        }
    else:
        raise CliError("oracle-compare supports builders 'toy' and 'chain'")
    _emit_json(doc, args, "oracle_compare.json")
    return EXIT_OK


def build_parser():
    parser = _Parser(prog="gaussfluct", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    threads = os.environ.get("GAUSS_FLUCT_THREADS", "1")
    try:
        default_workers = int(threads)
    except ValueError:
        raise CliError(f"GAUSS_FLUCT_THREADS must be an integer, got {threads!r}") from None

    def common(p, model=True):
        if model:
            p.add_argument("--model", required=True, help="model JSON file")
        p.add_argument("--out", default=None, help="output directory (default: stdout)")
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--workers", type=int, default=default_workers)

    p = sub.add_parser("validate", help="structural hypothesis report")
    common(p)
    p.add_argument("--time-grid", default=None, help="lo:hi:n sampling grid (must include 0)")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("flow", help="CSV scan of flow diagnostics over time")
    common(p)
    p.add_argument("--t-grid", required=True, help="lo:hi:n time grid")
    p.set_defaults(fn=cmd_flow)

    p = sub.add_parser("scan-renyi", help="CSV scan of e_t over an alpha grid")
    common(p)
    p.add_argument("--t", type=float, required=True, action="append",
                   help="scan time; repeat for several times (one CSV per t)")
    p.add_argument("--alpha-grid", required=True, help="lo:hi:n alpha grid")
    p.add_argument("--ness", action="store_true", help="scan the stationary-state functional")
    p.add_argument("--horizon", type=float, default=60.0, help="estimation horizon for --ness")
    p.set_defaults(fn=cmd_scan_renyi)

    p = sub.add_parser("asymptotics", help="limit covariances, e(alpha), atom measure")
    common(p)
    p.add_argument("--horizon", type=float, default=60.0)
    p.add_argument("--grid-points", type=int, default=64)
    p.add_argument("--plateau-tol", type=float, default=math.inf)
    p.add_argument("--q-floor", type=float, default=1e-8)
    p.add_argument("--alpha-grid", default=None)
    p.add_argument("--atom-r-cap", type=float, default=1e6,
                   help="suppress far atoms (|r| above this) from the JSON")
    p.set_defaults(fn=cmd_asymptotics)

    p = sub.add_parser("rate", help="CSV of the rate function over an s grid")
    common(p)
    p.add_argument("--s-grid", required=True, help="lo:hi:n grid of s values")
    p.add_argument("--horizon", type=float, default=60.0)
    p.add_argument("--grid-points", type=int, default=64)
    p.set_defaults(fn=cmd_rate)

    p = sub.add_parser("mc", help="Monte Carlo cross-checks (trace, com, mgf, slln, clt)")
    common(p)
    p.add_argument("check", nargs="?", default=None, choices=list(MC_MIN_DRAWS),
                   help="run a single check (default: all, or use --checks)")
    p.add_argument("--t", type=float, default=10.0, help="time for the MGF check")
    p.add_argument("--alpha", type=float, default=0.25)
    p.add_argument("--n", type=int, default=100000)
    p.add_argument("--checks", default=None, help="comma list among trace,com,mgf,slln,clt")
    p.add_argument("--com-t", type=float, default=1.0, help="time for the change-of-measure check")
    p.add_argument("--clt-t", type=float, default=40.0)
    p.add_argument("--horizon", type=float, default=50.0)
    p.add_argument("--grid-points", type=int, default=64)
    p.set_defaults(fn=cmd_mc)

    p = sub.add_parser("oracle-compare", help="generic pipeline vs analytic oracle")
    common(p, model=False)
    p.add_argument("--builder", required=True, choices=["toy", "chain"])
    p.add_argument("--n", type=int, default=128)
    p.add_argument("--lam", type=float, default=1.0)
    p.add_argument("--t", type=float, default=20.0)
    p.add_argument("--horizon", type=float, default=60.0)
    p.add_argument("--grid-points", type=int, default=64)
    p.set_defaults(fn=cmd_oracle_compare)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STRUCTURAL


if __name__ == "__main__":
    sys.exit(main())
