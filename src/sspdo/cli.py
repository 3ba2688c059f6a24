"""Command-line front end.

Subcommands: certify, construct, search, shu-osher, integrate, and
experiment with its own subcommands figure1, sweep and convergence, each
taking only the options it reads.  Each command that reports results emits
one JSON record line, after its human-readable lines unless --format record
is given (sweep and convergence print a table or the record).
Exit codes: 0 success, 1 assertion failure (e.g. containment violated),
2 usage or parse errors.

main builds its argparse parser once per process, at its first call.  Long
options are spelled in full, and every real-valued option takes a decimal or
a fraction such as 1/3.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import warnings

import numpy as np

from . import poly, registry
from .certify import BISECT_TOL, R_CAP, compute_certificate
from .construct import (
    family_tableau,
    first_order_weights,
    lp_search,
    second_order_weights,
)
from .errors import InvalidArgumentError, SspdoError
from .experiments import (
    run_certification_sweep,
    run_convergence_tables,
    run_figure1,
)
from .integrate import dense_eval_grid, integrate_fixed
from .problems import get_problem
from .shu_osher import to_shu_osher
from .tableau import as_float
from .tableau_io import load_tableau_file


def _emit(record: dict) -> None:
    print(json.dumps(record))


def _load_method(args, weights_for: str | None = None):
    """Resolve --tableau FILE or --method KEY to (tableau, weights or None);
    weights_for names what needs the dense weights, if anything does."""
    if args.tableau:
        tab, weights = load_tableau_file(args.tableau)
    else:
        entry = registry.get(args.method)
        tab, weights = entry.tableau, entry.dense_weights
    if weights_for and weights is None:
        raise InvalidArgumentError(f"{weights_for} requires dense weights (bbar)")
    return tab, weights


def _coefficient(r: float) -> str:
    # bisection returns the cap only when the probe is still feasible there
    return f"unbounded (feasible at the cap {R_CAP:g})" if r == R_CAP else f"{r:.12g}"


def _cmd_certify(args) -> int:
    tab, weights = _load_method(args, "--dense" if args.dense else None)
    cert = compute_certificate(tab, weights if args.dense else None)
    if args.format == "human":
        name = tab.name or "tableau"
        print(f"certification of {name} (s={tab.s}, tol={BISECT_TOL:g})")
        print(f"  {'r_method':<12} {_coefficient(cert.r_method)}")
        if cert.r_dense is not None:
            print(f"  {'r_dense':<12} {_coefficient(cert.r_dense)}")
            print(f"  {'r_combined':<12} {_coefficient(cert.r_combined)}")
        if cert.conservative:
            print(f"  {'conservative':<12} yes (a certified lower bound that may not be tight)")
        if cert.dense_matches_b is False:
            print(f"  {'w(1) = b':<12} fails (not a continuous extension)")
        print(f"  {'gamma':<12} {cert.gamma:.12g}")
        if cert.xineq_holds is not None:
            verdict = "holds" if cert.xineq_holds else "fails"
            print(
                f"  {'xineq':<12} {verdict} "
                f"(gamma={cert.xineq_lhs:.6g} vs 1-C/4={cert.xineq_rhs:.6g})"
            )
        if cert.witnesses:
            print("  first infeasible probe violations:")
            for v in cert.witnesses:
                where = f" at {v.index}" if v.index else ""
                value = f": {v.value:.6g}" if v.value is not None else ""
                theta = f", theta={v.theta:.6g}" if v.theta is not None else ""
                print(f"    {v.condition}{where}{value}{theta}")
    _emit(cert.as_record())
    return 0


def _cmd_construct(args) -> int:
    tab, _ = _load_method(args)
    weights = first_order_weights(tab) if args.order == 1 else second_order_weights(tab)
    _emit({"bbar": [[float(x) for x in row] for row in weights.coeffs]})
    return 0


def _cmd_search(args) -> int:
    tab = family_tableau(args.stages) if args.stages is not None else _load_method(args)[0]
    result = lp_search(tab, args.order, args.degree, args.r)
    if args.format == "human":
        print(f"search on {tab.name or 'tableau'}: {result.status}")
        if result.violated_necessary is not None:
            v = result.violated_necessary
            print(f"  pre-screen: {v.condition}: {v.detail}")
            if v.theta is not None:
                print(f"    theta={v.theta:.6g} lhs={v.lhs:.6g} rhs={v.rhs:.6g}")
        if result.weights is not None:
            for j in range(result.weights.s):
                print(f"  w_{j + 1}(t) = {poly.to_string(result.weights.row(j))}")
            print(f"  certified: {result.certified}")
    _emit(result.as_record())
    return 0


def _cmd_shu_osher(args) -> int:
    tab, weights = _load_method(args, "shu-osher")
    form = to_shu_osher(tab, weights, args.C)
    if args.format == "human":
        print(f"Shu-Osher dense form at C={args.C:g}:")
        print(f"  mu(t)     = {poly.to_string(form.mu)}")
        for j in range(form.s):
            print(f"  beta_{j + 1}(t) = {poly.to_string(form.beta_bar[j])}")
    _emit(form.as_record())
    return 0


def _cmd_integrate(args) -> int:
    # --dense 1 puts no point inside a step, so it needs no weights
    tab, weights = _load_method(args, "--dense" if args.dense > 1 else None)
    if args.dense < 0:
        raise InvalidArgumentError("--dense must be nonnegative")
    problem = get_problem(args.problem)
    try:
        thetas = (np.arange(1, args.dense) / args.dense).tolist()
    except ValueError:  # numpy cannot even shape an array this long
        thetas = None
    # past int64, np.arange can also return too few points without an error
    if thetas is None or len(thetas) != max(args.dense - 1, 0):
        raise InvalidArgumentError(f"--dense {args.dense} gives more points than an array holds")
    traj = integrate_fixed(tab, problem, [args.u0], args.h, args.steps)
    print("t,theta_global,u,is_step_point")
    for n in range(args.steps):
        t = n * args.h
        print(f"{t!r},{float(n)!r},{float(traj.states[n][0])!r},1")
        values = dense_eval_grid(traj, weights, n, thetas)[:, 0] if thetas else ()
        for theta, u in zip(thetas, values):
            print(f"{(n + theta) * args.h!r},{n + theta!r},{float(u)!r},0")
    t_end = args.steps * args.h
    print(f"{t_end!r},{float(args.steps)!r},{float(traj.states[-1][0])!r},1")
    return 0


def _cmd_figure1(args) -> int:
    summary = run_figure1(h=args.h, out_dir=args.out)
    if args.format == "human":
        print(
            f"figure1 at h={summary.h:g} over {summary.n_steps} steps:\n"
            f"  ssp formula range    [{summary.ssp_min:.6e}, {summary.ssp_max:.6f}]"
            f" contained={summary.ssp_contained}\n"
            f"  nonssp formula range [{summary.nonssp_min:.6f}, {summary.nonssp_max:.6f}]"
            f" (most negative at u0={summary.nonssp_argmin[0]:.4f},"
            f" t={summary.nonssp_argmin[1]:.4f})"
        )
    _emit(summary.as_record())
    return 0 if summary.ssp_contained else 1


def _cmd_sweep(args) -> int:
    rows = run_certification_sweep(args.smax)
    if args.format == "record":
        _emit({"rows": [row.as_record() for row in rows]})
        return 0
    print(f"{'s':>3} {'C(A,b)':>12} {'gamma':>12} {'xineq':>7} {'C dense':>12}")
    for row in rows:
        print(
            f"{row.s:>3} {row.c_method:>12.8f} {row.gamma:>12.8f} "
            f"{'holds' if row.xineq_holds else 'fails':>7} {row.c_dense:>12.8f}"
        )
    return 0


def _cmd_convergence(args) -> int:
    studies = run_convergence_tables()
    if args.format == "record":
        _emit({"rows": [{"label": label, **study.as_record()} for label, study in studies]})
        return 0
    for label, study in studies:
        dense = (
            f", dense slope {study.dense_slope:.3f}"
            if study.dense_slope is not None
            else ""
        )
        print(f"{label}: step slope {study.step_slope:.3f}{dense}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of main, built once per process, since building it costs
    about 1.4 ms.  The parser is shared: do not mutate it."""
    # a prefix of a long option is a usage error, not that option
    parser_class = functools.partial(argparse.ArgumentParser, allow_abbrev=False)
    parser = parser_class(
        prog="sspdo",
        description="SSP Runge-Kutta methods with SSP-certified dense output",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=parser_class)

    def add_method_args(p):
        """--tableau FILE or --method KEY: exactly one is required."""
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--tableau", help="tableau JSON file")
        group.add_argument(
            "--method",
            help=f"built-in method key ({', '.join(registry.keys())} or family-s<k>)",
        )
        return group

    def add_format(p):
        p.add_argument(
            "--format", choices=("human", "record"), default="human",
            help="output style (default human)",
        )

    p = sub.add_parser("certify", help="compute SSP coefficients and certificate")
    add_method_args(p)
    p.add_argument("--dense", action="store_true", help="also certify dense weights")
    add_format(p)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("construct", help="emit dense weights for a method")
    add_method_args(p)
    p.add_argument("--order", type=int, choices=(1, 2), required=True)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("search", help="LP feasibility search for dense weights")
    add_method_args(p).add_argument(
        "--stages", type=int, help="use the s-stage family member"
    )
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--r", type=as_float, required=True)
    add_format(p)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("shu-osher", help="convert dense weights to Shu-Osher form")
    add_method_args(p)
    p.add_argument("--C", type=as_float, required=True)
    add_format(p)
    p.set_defaults(func=_cmd_shu_osher)

    p = sub.add_parser("integrate", help="fixed-step integration, CSV on stdout")
    add_method_args(p)
    p.add_argument("--problem", default="sinode")
    p.add_argument("--u0", type=as_float, required=True)
    p.add_argument("--h", type=as_float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument(
        "--dense", type=int, default=0, metavar="N",
        help="N-1 dense points per step, at theta=k/N",
    )
    p.set_defaults(func=_cmd_integrate)

    p = sub.add_parser("experiment", help="run a built-in experiment")
    experiments = p.add_subparsers(dest="experiment", required=True, parser_class=parser_class)

    p = experiments.add_parser("figure1", help="interval invariance of two dense formulas")
    p.add_argument("--h", type=as_float, default=1.6, help="step size (default 1.6)")
    p.add_argument("--out", default=None, help="CSV output directory")
    add_format(p)
    p.set_defaults(func=_cmd_figure1)

    p = experiments.add_parser("sweep", help="certify the family for s = 2..smax")
    p.add_argument("--smax", type=int, default=8, help="stage limit (default 8)")
    add_format(p)
    p.set_defaults(func=_cmd_sweep)

    p = experiments.add_parser("convergence", help="observed convergence orders")
    add_format(p)
    p.set_defaults(func=_cmd_convergence)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        # a library warning is one line for the user, not a source location
        warnings.showwarning = lambda message, *_: print(
            f"warning: {message}", file=sys.stderr
        )
        try:
            return args.func(args)
        except (SspdoError, OSError, MemoryError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
