"""Batch machinery: single runs by algorithm name, benchmark sweeps, CSV output.

Algorithm names: offar1, offar2a, offar2b, moffar2, ar2.  offar2b runs
exactly the driver and config of offar2a; the name is kept for the
benchmark's clean-suite workload.  Under noise the derivative-only variants
see noisy gradients and Hessians and run the same weight rule as on clean
problems; ar2 additionally sees noisy function values.  Cost of a run is its
iteration count, inf when it did not reach its tolerance.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .problems import NoiseSpec, ProblemOracle, add_noise, make_suite
from .profiles import ProfileTable, compute_profile
from .solvers import (Ar2Config, OffoConfig, RunOutcome, RunStatus, run_ar2,
                      run_moffar, run_offar)

ALGORITHMS = ("offar1", "offar2a", "offar2b", "moffar2", "ar2")

# Noiseless and noisy gradient tolerances used by default in bench sweeps.
EPS_CLEAN = 1e-6
EPS_NOISY = 1e-3

SUCCESS = (RunStatus.FIRST_ORDER, RunStatus.SECOND_ORDER)


def _offo_config(algorithm: str, *, eps1, eps2, max_iter, strict, nu0) -> OffoConfig:
    if algorithm == "moffar2" and eps2 is None:
        eps2 = eps1
    return OffoConfig(
        degree=1 if algorithm == "offar1" else 2, eps1=eps1, eps2=eps2,
        max_iter=max_iter, strict_mode=strict, nu0=nu0,
    )


def run_single(
    oracle: ProblemOracle,
    algorithm: str,
    *,
    eps1: float,
    eps2: float | None = None,
    noise_level: float = 0.0,
    seed: int = 0,
    max_iter: int = 50000,
    strict: bool = False,
    nu0: float | None = None,
    sigma0: float | None = None,
) -> RunOutcome:
    """Run one algorithm on one problem, optionally under noise.

    eps2 is read only by moffar2, strict and nu0 only by the derivative-only
    drivers, sigma0 only by ar2 (None means Ar2Config's default); setting one
    the chosen algorithm does not read raises ValueError.
    """
    if algorithm not in ALGORITHMS:
        raise KeyError(f"unknown algorithm {algorithm!r}; choose from {ALGORITHMS}")
    unread = [name for name, given, read in (
        ("eps2", eps2 is not None, algorithm == "moffar2"),
        ("strict", strict, algorithm != "ar2"),
        ("nu0", nu0 is not None, algorithm != "ar2"),
        ("sigma0", sigma0 is not None, algorithm == "ar2"),
    ) if given and not read]
    if unread:
        raise ValueError(f"{algorithm} does not read {', '.join(unread)}")
    problem = oracle
    if noise_level > 0.0:
        targets = {"gradient", "hessian"}
        if algorithm == "ar2":
            targets.add("function")
        problem = add_noise(oracle, NoiseSpec(noise_level, seed, frozenset(targets)))
    if algorithm == "ar2":
        if sigma0 is None:
            sigma0 = Ar2Config.sigma0
        config = Ar2Config(eps1=eps1, sigma0=sigma0, max_iter=max_iter)
        outcome = run_ar2(problem, config)
    else:
        config = _offo_config(
            algorithm, eps1=eps1, eps2=eps2, max_iter=max_iter, strict=strict,
            nu0=nu0,
        )
        runner = run_moffar if algorithm == "moffar2" else run_offar
        outcome = runner(problem, config)
    # the drivers only know their degree; record the variant name picked here
    outcome.trace.algorithm = algorithm
    outcome.trace.seed = seed if noise_level > 0.0 else None
    return outcome


@dataclass
class BenchResult:
    problems: tuple
    algorithms: tuple
    levels: tuple
    seeds: tuple
    # (level, seed) -> cost matrix (n_problems x n_algorithms); level 0 is
    # deterministic and stored once under seed = seeds[0].
    costs: dict
    statuses: dict
    rho: dict      # (algorithm, level) -> mean percent of successful runs
    profile: ProfileTable | None  # level-0 profile
    eps_by_level: dict


def run_bench(
    oracles=None,
    algorithms=ALGORITHMS,
    levels=(0.0,),
    seeds=(1,),
    *,
    eps1: float | None = None,
    max_iter: int = 50000,
) -> BenchResult:
    """Sweep problems x algorithms x noise levels x seeds.

    eps1 = None picks the tolerance per level (1e-6 clean, 1e-3 noisy).
    Level 0 is deterministic, so it runs once regardless of the seed list
    and feeds the performance profile.
    """
    oracles = list(oracles) if oracles is not None else make_suite()
    algorithms = tuple(algorithms)
    levels = tuple(levels)
    seeds = tuple(seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    names = tuple(p.name for p in oracles)

    eps_by_level = {
        level: (eps1 if eps1 is not None else (EPS_CLEAN if level == 0.0 else EPS_NOISY))
        for level in levels
    }
    costs = {}
    statuses = {}
    for level in levels:
        for seed in seeds if level > 0.0 else seeds[:1]:
            mat = np.full((len(oracles), len(algorithms)), np.inf)
            stat = np.empty((len(oracles), len(algorithms)), dtype=object)
            for i, oracle in enumerate(oracles):
                for j, alg in enumerate(algorithms):
                    out = run_single(oracle, alg, eps1=eps_by_level[level],
                                     noise_level=level, seed=seed, max_iter=max_iter)
                    stat[i, j] = out.status.value
                    if out.status in SUCCESS:
                        mat[i, j] = float(out.iterations)
            costs[(level, seed)] = mat
            statuses[(level, seed)] = stat

    rho = {}
    for level in levels:
        used_seeds = seeds if level > 0.0 else seeds[:1]
        for j, alg in enumerate(algorithms):
            percents = [
                100.0 * float(np.mean(np.isfinite(costs[(level, s)][:, j])))
                for s in used_seeds
            ]
            rho[(alg, level)] = float(np.mean(percents))

    profile = None
    if 0.0 in levels:
        profile = compute_profile(costs[(0.0, seeds[0])], problems=names,
                                  algorithms=algorithms)

    return BenchResult(problems=names, algorithms=algorithms, levels=levels,
                       seeds=seeds, costs=costs, statuses=statuses, rho=rho,
                       profile=profile, eps_by_level=eps_by_level)


def write_costs_csv(result: BenchResult, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["problem", "level", "seed", "algorithm", "cost", "status"])
        for (level, seed), mat in sorted(result.costs.items()):
            stat = result.statuses[(level, seed)]
            for i, prob in enumerate(result.problems):
                for j, alg in enumerate(result.algorithms):
                    cost = mat[i, j]
                    writer.writerow([
                        prob, repr(float(level)), seed, alg,
                        "inf" if not np.isfinite(cost) else str(int(cost)),
                        stat[i, j],
                    ])


def write_summary_csv(result: BenchResult, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["algorithm", "level", "eps1", "rho_percent", "pi"])
        for level in result.levels:
            for alg in result.algorithms:
                pi = ""
                if level == 0.0 and result.profile is not None:
                    pi = repr(result.profile.pi[alg])
                writer.writerow([
                    alg, repr(float(level)), repr(result.eps_by_level[level]),
                    repr(result.rho[(alg, level)]), pi,
                ])


def write_profile_csv(table: ProfileTable, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["algorithm", "tau", "rho"])
        for alg in table.algorithms:
            for tau, val in table.curves[alg]:
                writer.writerow([alg, repr(float(tau)), repr(float(val))])
