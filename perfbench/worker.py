"""One workload in one fresh process: set-up, timed sweeps, checks, metrics.

run.py starts this script; it prints report lines and, as its last line, a
JSON object with the set-up times, the run counts and the metrics.

    python3 perfbench/worker.py --workload clean-suite --seed 1 --setup-only
    python3 perfbench/worker.py --workload clean-suite --seed 1 --seconds 20 --trace 0

A sweep ("pass") runs every cell of the workload once.  Passes repeat while
the next one, as long as the last, would end within --seconds; there is at
least one.  With --trace 1, untraced and traced passes alternate; the
untraced ones are the base for trace_overhead_pct.  Each run's wall time is
also scaled to a reference host speed (hostspeed.py); the time metrics use
the scaled times.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import hostspeed
from workloads import WORKLOADS, Cell, Workload, make_cells

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
WARMUP_ITER = 20
VARTHETA = 1e-3  # run_single's default lower fence: sigma >= vartheta * nu


def set_up(workload: Workload, seed: int) -> dict:
    """Import, suite build, input generation and one untimed warm-up solve."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import offar.harness
    import offar.problems
    if not Path(offar.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"offar imported from {offar.__file__}, not from this checkout")
    t1 = time.perf_counter()
    suite = offar.problems.make_suite()
    t2 = time.perf_counter()
    cells = make_cells(workload, [p.name for p in suite], seed)
    oracles = {p.name: p for p in suite}
    first = cells[0]
    offar.harness.run_single(oracles[first.problem], first.algorithm, eps1=workload.eps1,
                             noise_level=workload.level, seed=first.seed or 0,
                             max_iter=WARMUP_ITER)
    t3 = time.perf_counter()
    # Set-up has no kernel run before it, as numpy is not imported yet.
    factor = hostspeed.REF_S / statistics.median(hostspeed.kernel_s() for _ in range(3))
    times = {"setup_s": t3 - t0, "import_s": t1 - t0, "suite_s": t2 - t1}
    return {"times": {k: v * factor for k, v in times.items()} | {"setup_wall_s": t3 - t0},
            "suite": suite, "oracles": oracles, "cells": cells}


def fingerprint(trace) -> str:
    buf = io.StringIO()
    trace.to_csv(buf)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def run_pass(workload, cells, oracles, check_oracles, tracer=None, run_base=0) -> list:
    """Run every cell once; time each run_single call and check its outcome."""
    import numpy as np
    import offar.harness
    from check import SOLVED, check_outcome
    from offar.trace import COLUMNS
    sigma_col, nu_col = COLUMNS.index("sigma"), COLUMNS.index("nu")

    records = []
    kernel_before = hostspeed.kernel_s()
    for i, cell in enumerate(cells):
        if tracer is not None:
            tracer.run_id = run_base + i
        rec = {"key": cell.key(workload), "alg": cell.algorithm, "problem": cell.problem,
               "seed": cell.seed}
        t = time.perf_counter()
        try:
            out = offar.harness.run_single(
                oracles[cell.problem], cell.algorithm, eps1=workload.eps1,
                noise_level=workload.level, seed=cell.seed or 0, max_iter=workload.max_iter)
        except Exception as exc:  # one failed run is counted; the sweep goes on
            out = None
            rec["defects"] = [f"exception: {type(exc).__name__}: {exc}"]
            traceback.print_exc(file=sys.stderr)
        rec["wall_s"] = time.perf_counter() - t
        kernel_after = hostspeed.kernel_s()
        rec["scaled_s"] = hostspeed.scale(rec["wall_s"], kernel_before, kernel_after)
        kernel_before = kernel_after
        if out is None:
            records.append(rec)
            continue
        rec["defects"] = check_outcome(out, cell, workload, check_oracles[cell.problem])
        rec["status"] = out.status.value
        rec["iterations"] = out.iterations
        rec["solved"] = out.status in SOLVED
        rec["sha"] = fingerprint(out.trace)
        rows = np.asarray(out.trace.rows)
        sigma, nu = rows[:, sigma_col], rows[:, nu_col]
        steps = np.isfinite(sigma) & np.isfinite(nu)
        rec["step_rows"] = int(np.count_nonzero(steps))
        rec["floor_rows"] = int(np.count_nonzero(sigma[steps] == VARTHETA * nu[steps]))
        records.append(rec)
    return records


def run_seconds(passes, field="scaled_s") -> list[float]:
    """Each run's median time across sweeps, so that a slow spell in one
    sweep does not count for all of its runs."""
    times = {}
    for records in passes:
        for rec in records:
            times.setdefault(rec["key"], []).append(rec[field])
    return [statistics.median(t) for t in times.values()]


def blas_threads():
    """OpenBLAS thread count from the library numpy ships, if it is OpenBLAS."""
    import numpy as np
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(load_start) -> dict:
    import numpy as np
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas, lapack = deps["blas"]["name"], deps["lapack"]["name"]
    except (TypeError, KeyError):
        blas = lapack = None
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "lapack": lapack, "blas_threads": blas_threads(),
            "nproc": len(os.sched_getaffinity(0)), "git_sha": git_sha(),
            "loadavg_start": load_start, "loadavg_end": list(os.getloadavg())}


def reference_changes(prints: dict) -> tuple[int, int]:
    """(compared, changed) against the checked-in reference fingerprints."""
    if not REFERENCE.is_file():
        return 0, 0
    ref = json.loads(REFERENCE.read_text())["fingerprints"]
    common = [k for k in prints if k in ref]
    return len(common), sum(prints[k] != ref[k] for k in common)


def profile_pi(workload, records) -> dict:
    """Performance-profile score per algorithm over the workload's rows."""
    from offar.profiles import compute_profile
    rows = {}
    for rec in records:
        cost = rec["iterations"] if rec.get("solved") else float("inf")
        rows.setdefault((rec["seed"], rec["problem"]), {})[rec["alg"]] = cost
    matrix = [[row.get(a, float("inf")) for a in workload.algorithms] for row in rows.values()]
    return compute_profile(matrix, algorithms=workload.algorithms).pi


def layer_metrics(summary: dict, n_traced: int, tracer) -> dict:
    layers = summary["layers"]

    def get(name, field):
        total = layers.get(name, {}).get(field, 0)
        return total // n_traced if field == "calls" else total / n_traced

    def per_call(name, field="busy_s"):
        calls = get(name, "calls")
        return get(name, field) / calls * 1e6 if calls else 0.0

    m = {}
    m["problems.oracle.calls"] = get("problems.oracle", "calls")
    m["problems.oracle.busy_s"] = get("problems.oracle", "busy_s")
    m["problems.oracle.us_per_call"] = per_call("problems.oracle")
    m["problems.noise.busy_s"] = get("problems.noise", "self_s")
    m["problems.noise.us_per_call"] = per_call("problems.noise", "self_s")
    for name in ("solve_p2", "solve_p1", "certify"):
        m[f"subsolver.{name}.calls"] = get(f"subsolver.{name}", "calls")
        m[f"subsolver.{name}.busy_s"] = get(f"subsolver.{name}", "busy_s")
    m["subsolver.solve_p2.us_per_call"] = per_call("subsolver.solve_p2")
    m["subsolver.solve_p2.hard_cases"] = tracer.hard_cases // n_traced
    m["subsolver.solve_p2.mult_resid_max"] = tracer.mult_resid_max
    m["subsolver.certify.us_per_call"] = per_call("subsolver.certify")
    m["trace.append.calls"] = get("trace.append", "calls")
    m["trace.append.busy_s"] = get("trace.append", "busy_s")
    m["trace.append.us_per_call"] = per_call("trace.append")
    m["solvers.self_s"] = sum(get("solvers." + d, "self_s")
                              for d in ("run_offar", "run_moffar", "run_ar2"))
    m["harness.self_s"] = get("harness.run_single", "self_s")
    return m


def measure(args, workload, setup, load_start) -> dict:
    import check
    import offar.harness
    import offar.problems
    from tracing import Tracer

    report = []
    check_oracles = {p.name: p for p in offar.problems.make_suite()}
    cells, oracles = setup["cells"], setup["oracles"]

    # The check's self-test: a short clean run of the first cell, corrupted.
    probe = Workload("self-test", workload.algorithms[:1], 0.0, workload.eps1, 3)
    probe_cell = Cell(cells[0].problem, cells[0].algorithm, None)
    oracle = check_oracles[probe_cell.problem]
    good = offar.harness.run_single(oracle, probe_cell.algorithm, eps1=probe.eps1,
                                    max_iter=probe.max_iter)
    missed = check.self_test(good, probe_cell, probe, oracle)
    report.append(f"self-test: the correctness check missed {missed}" if missed else
                  "self-test: the correctness check caught every corrupted outcome")

    tracer = Tracer() if args.trace else None
    untraced, traced = [], []
    t_start = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        untraced.append(run_pass(workload, cells, oracles, check_oracles))
        if tracer is not None:
            tracer.install(setup["suite"])
            try:
                traced.append(run_pass(workload, cells, oracles, check_oracles, tracer,
                                       run_base=len(traced) * len(cells)))
            finally:
                tracer.remove()
        now = time.perf_counter()
        if 2 * now - t_pass - t_start > args.seconds:
            break

    passes = untraced + traced
    first_pass = untraced[0]
    prints = {r["key"]: [r.get("status"), r.get("iterations"), r.get("sha")]
              for r in first_pass}
    failed = 0
    for records in passes:
        for rec in records:
            defects = list(rec["defects"])
            if not defects and prints[rec["key"]] != [rec["status"], rec["iterations"], rec["sha"]]:
                defects.append("replay: outcome differs from the first pass")
            if defects:
                failed += 1
                report.append(f"FAILED {rec['key']}: {'; '.join(defects)}")
    attempted = sum(len(p) for p in passes)

    run_s = run_seconds(untraced)
    sweep_s = sum(run_s)
    sweep_wall_s = sum(run_seconds(untraced, "wall_s"))
    sweeps = [sum(r["wall_s"] for r in p) for p in untraced]
    ok = [r for r in first_pass if "iterations" in r]
    p50_ms = statistics.median(run_s) * 1e3
    end_to_end = {  # run.py adds setup_s, a median over several processes
        "sweep_s": sweep_s,
        "iterations": sum(r["iterations"] for r in ok),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    report.append(f"{workload.name} seed {args.seed}: {len(cells)} runs per sweep, "
                  f"{len(untraced)} untraced and {len(traced)} traced sweeps, "
                  f"{attempted} runs attempted, {failed} failed")
    report.append(f"sweep_s {sweep_s:.4f} at the reference host speed, {sweep_wall_s:.4f} "
                  f"wall, each the sum of each run's median over {len(untraced)} sweeps "
                  f"(whole sweeps took " + ", ".join(f"{s:.3f}" for s in sweeps) + " s wall)")
    report.append(f"solve_ms.p50 {p50_ms:.3f} over {len(run_s)} runs, "
                  f"each the median of {len(untraced)} sweeps")

    timed = [r for p in untraced for r in p if "iterations" in r]
    pi = profile_pi(workload, ok)
    per_layer = {"solve_ms.p50": p50_ms, "sweep_wall_s": sweep_wall_s,
                 "solved_pct": 100.0 * sum(r["solved"] for r in ok) / len(first_pass)}
    for alg in offar.harness.ALGORITHMS:
        mine = [r for r in ok if r["alg"] == alg]
        runs = sum(c.algorithm == alg for c in cells)
        per_layer[f"solved_pct.{alg}"] = (100.0 * sum(r["solved"] for r in mine) / runs
                                          if runs else 0.0)
        per_layer[f"solvers.iterations.{alg}"] = sum(r["iterations"] for r in mine)
        iters = sum(r["iterations"] for r in timed if r["alg"] == alg)
        wall_us = sum(r["wall_s"] for r in timed if r["alg"] == alg) * 1e6
        per_layer[f"solvers.us_per_iter.{alg}"] = wall_us / iters if iters else 0.0
        per_layer[f"profiles.pi.{alg}"] = pi.get(alg, 0.0)
    step_rows = sum(r["step_rows"] for r in ok)
    per_layer["solvers.floor_iter_pct"] = (100.0 * sum(r["floor_rows"] for r in ok) / step_rows
                                           if step_rows else 0.0)

    env = environment(load_start)
    compared, changed = reference_changes(prints)
    per_layer["results.fingerprint_changed"] = changed
    report.append(f"fingerprints: {changed} of {compared} changed against "
                  f"{REFERENCE.name} ({len(prints)} runs in this sweep)")
    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}"
    (OUT / f"fingerprints-{stem}.json").write_text(
        json.dumps({"environment": env, "fingerprints": prints}, indent=1, sort_keys=True))

    if tracer is not None:
        summary = tracer.summary()
        per_layer.update(layer_metrics(summary, len(traced), tracer))
        per_layer["trace_overhead_pct"] = 100.0 * (sum(run_seconds(traced)) - sweep_s) / sweep_s
        traced_wall = sum(r["wall_s"] for p in traced for r in p)
        report.append(f"spans: {summary['spans']}; run_single spans cover "
                      f"{summary['root_s']:.4f} s of {traced_wall:.4f} s traced run wall time; "
                      f"{summary['unaccounted_runs']} runs whose span self times do not sum "
                      f"to the run's span")
        tracer.write(OUT / f"spans-{stem}.csv.gz")

    accounted = tracer is None or summary["unaccounted_runs"] == 0
    return {"correct": failed == 0 and not missed and accounted,
            "attempted": attempted, "failed": failed, "setup": setup["times"],
            "end_to_end": end_to_end, "per_layer": per_layer, "report": report}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    load_start = list(os.getloadavg())
    workload = WORKLOADS[args.workload]
    setup = set_up(workload, args.seed)
    if args.setup_only:
        result = {"setup": setup["times"]}
    else:
        result = measure(args, workload, setup, load_start)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
