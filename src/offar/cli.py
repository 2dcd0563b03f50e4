"""Command line front end.

Exit codes: 0 run converged, 1 usage error, 2 iteration budget exhausted,
3 oracle overflow (non-finite derivatives, or a gradient norm beyond float64).
"""

from __future__ import annotations

import argparse
import sys

from . import harness
from .bounds import problem_constants, theory_bounds
from .problems import SUITE_NAMES, get_problem, make_suite
from .solvers import RunStatus
from .worstcase import gen_first_order, gen_second_order, run_divergence


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="offar", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one algorithm on one problem")
    run.add_argument("--problem", required=True)
    run.add_argument("--alg", required=True, choices=harness.ALGORITHMS)
    run.add_argument("--eps1", type=float, default=1e-6)
    run.add_argument("--eps2", type=float, default=None)
    run.add_argument("--noise", type=float, default=0.0)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--max-iter", type=int, default=50000)
    run.add_argument("--strict", action="store_true")
    run.add_argument("--nu0", type=float, default=None)
    run.add_argument("--sigma0", type=float, default=None)
    run.add_argument("--trace-out", default=None)

    bench = sub.add_parser("bench", help="sweep problems x algorithms x noise levels")
    bench.add_argument("--alg", default=",".join(harness.ALGORITHMS),
                       help="comma-separated algorithm names")
    bench.add_argument("--problems", default=None,
                       help="comma-separated problem names (default: whole suite)")
    bench.add_argument("--noise", default="0",
                       help="comma-separated noise levels")
    bench.add_argument("--seeds", default="1",
                       help="seed count N (runs seeds 1..N) or comma-separated list")
    bench.add_argument("--eps1", type=float, default=None,
                       help="override the per-level default tolerance")
    bench.add_argument("--max-iter", type=int, default=50000)
    bench.add_argument("--csv-out", default=None,
                       help="prefix for <prefix>_costs.csv, _summary.csv, _profile.csv")

    wc = sub.add_parser("worstcase", help="generate a worst-case sequence")
    wc.add_argument("--mode", choices=("first", "second", "diverge"), default="first")
    wc.add_argument("--p", type=int, default=2)
    wc.add_argument("--eps", type=float, default=1e-1)
    wc.add_argument("--sigma0", type=float, default=1.0)
    wc.add_argument("--H", type=float, default=1.0, help="curvature for diverge mode")
    wc.add_argument("--theta1", type=float, default=2.0)
    wc.add_argument("--iters", type=int, default=1000)
    wc.add_argument("--csv-out", default=None)

    bounds = sub.add_parser("bounds", help="evaluate the complexity bound chain")
    bounds.add_argument("--problem", default=None,
                        help="pull constants from a suite problem")
    bounds.add_argument("--p", type=int, default=2)
    bounds.add_argument("--L", type=float, default=None)
    bounds.add_argument("--sigma0", type=float, default=1.0)
    bounds.add_argument("--theta1", type=float, default=2.0)
    bounds.add_argument("--theta2", type=float, default=None)
    bounds.add_argument("--vartheta", type=float, default=1e-3)
    bounds.add_argument("--eps1", type=float, default=1e-6)
    bounds.add_argument("--eps2", type=float, default=None)
    bounds.add_argument("--kappa-high", type=float, default=0.0)
    bounds.add_argument("--g0-norm", type=float, default=None)
    bounds.add_argument("--f0", type=float, default=None)
    bounds.add_argument("--f-low", type=float, default=None)

    sub.add_parser("list-problems", help="list the benchmark suite")
    return parser


_STATUS_CODES = {
    RunStatus.FIRST_ORDER: 0,
    RunStatus.SECOND_ORDER: 0,
    RunStatus.MAX_ITERATIONS: 2,
    RunStatus.ORACLE_OVERFLOW: 3,
}


def _cmd_run(args) -> int:
    oracle = get_problem(args.problem)
    outcome = harness.run_single(
        oracle, args.alg, eps1=args.eps1, eps2=args.eps2,
        noise_level=args.noise, seed=args.seed, max_iter=args.max_iter,
        strict=args.strict, nu0=args.nu0, sigma0=args.sigma0,
    )
    print(f"problem={args.problem} alg={args.alg} status={outcome.status.value} "
          f"iterations={outcome.iterations} grad_norm={outcome.final_grad_norm:.6e}")
    if args.trace_out:
        outcome.trace.to_csv(args.trace_out)
        print(f"trace written to {args.trace_out}")
    return _STATUS_CODES[outcome.status]


def _cmd_bench(args) -> int:
    algs = tuple(a.strip() for a in args.alg.split(",") if a.strip())
    for a in algs:
        if a not in harness.ALGORITHMS:
            raise _UsageError(f"unknown algorithm {a!r}")
    if args.problems:
        oracles = [get_problem(n.strip()) for n in args.problems.split(",") if n.strip()]
    else:
        oracles = make_suite()
    levels = tuple(float(v) for v in args.noise.split(",") if v.strip())
    seeds_text = args.seeds.strip()
    if "," in seeds_text:
        seeds = tuple(int(v) for v in seeds_text.split(",") if v.strip())
    else:
        seeds = tuple(range(1, int(seeds_text) + 1))
    result = harness.run_bench(oracles, algs, levels, seeds,
                               eps1=args.eps1, max_iter=args.max_iter)
    for level in result.levels:
        for alg in algs:
            line = (f"level={level:g} alg={alg} "
                    f"rho={result.rho[(alg, level)]:.2f}%")
            if level == 0.0 and result.profile is not None:
                line += f" pi={result.profile.pi[alg]:.4f}"
            print(line)
    if args.csv_out:
        harness.write_costs_csv(result, f"{args.csv_out}_costs.csv")
        harness.write_summary_csv(result, f"{args.csv_out}_summary.csv")
        if result.profile is not None:
            harness.write_profile_csv(result.profile, f"{args.csv_out}_profile.csv")
        print(f"csv written with prefix {args.csv_out}")
    return 0


def _cmd_worstcase(args) -> int:
    if args.mode == "diverge":
        run = run_divergence(args.H, args.theta1, args.iters)
        print(f"mode=diverge H={args.H:g} sigma={run.sigma!r} "
              f"iterations={run.iterations} final_x1={float(run.xs[-1, 0])!r} checks=PASS")
        if args.csv_out:
            with open(args.csv_out, "w", encoding="utf-8", newline="") as fh:
                fh.write("k,x1,x2,sigma,mu1\n")
                for k in range(run.iterations):
                    fh.write(f"{k},{float(run.xs[k, 0])!r},{float(run.xs[k, 1])!r},"
                             f"{float(run.sigmas[k])!r},{float(run.mu1s[k])!r}\n")
            print(f"csv written to {args.csv_out}")
        return 0
    if args.mode == "first":
        seq = gen_first_order(args.p, args.eps, args.sigma0)
    else:
        seq = gen_second_order(args.p, args.eps, args.sigma0)
    label = "g" if seq.order == 1 else "H"
    print(f"mode={args.mode} p={seq.p} eps={seq.eps:g} k_eps={seq.k_eps} "
          f"sigma_max_bound={float(seq.sigma_max_bound)!r} checks=PASS")
    if args.csv_out:
        with open(args.csv_out, "w", encoding="utf-8", newline="") as fh:
            fh.write(f"k,omega,{label},s,sigma,f\n")
            for k in range(seq.k_eps + 1):
                fh.write(f"{k},{float(seq.omega[k])!r},{float(seq.values[k])!r},"
                         f"{float(seq.svals[k])!r},{float(seq.sigmas[k])!r},"
                         f"{float(seq.fvals[k])!r}\n")
        print(f"csv written to {args.csv_out}")
    return 0


def _cmd_bounds(args) -> int:
    if args.problem is not None:
        constants = problem_constants(get_problem(args.problem), args.p)
    elif args.L is None:
        raise _UsageError("--L is required without --problem")
    else:
        constants = dict(L=args.L, kappa_high=args.kappa_high, g0_norm=args.g0_norm,
                         f0=args.f0, f_low=args.f_low)
    report = theory_bounds(
        args.p, args.eps1, sigma0=args.sigma0, theta1=args.theta1,
        vartheta=args.vartheta, theta2=args.theta2, eps2=args.eps2,
        allow_partial=True, **constants)
    print(f"k_star={report.k_star} k_star_raw={report.k_star_raw!r}")
    print(f"eta={report.eta!r} kappa1={report.kappa1!r}")
    if report.bound_first_order is not None:
        print(f"nu_max={report.nu_max!r} sigma_max={report.sigma_max!r}")
        print(f"bound_first_order={report.bound_first_order!r}")
    if report.bound_second_order is not None:
        print(f"k_star2={report.k_star2} kappa_both={report.kappa_both!r}")
        print(f"bound_second_order={report.bound_second_order!r}")
    if report.missing:
        print(f"partial report; missing: {', '.join(report.missing)}")
    return 0


def _cmd_list(_args) -> int:
    for p in make_suite():
        meta = p.meta
        lip = ",".join(f"L{d}={v:g}" for d, v in sorted(meta.lipschitz.items()))
        extras = [f"n={p.n}"]
        if lip:
            extras.append(lip)
        if meta.f_low is not None:
            extras.append(f"f_low={meta.f_low:g}")
        print(f"{p.name:<10} {' '.join(extras)}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "worstcase":
            return _cmd_worstcase(args)
        if args.command == "bounds":
            return _cmd_bounds(args)
        if args.command == "list-problems":
            return _cmd_list(args)
        raise _UsageError(f"unknown command {args.command!r}")
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
