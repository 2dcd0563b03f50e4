"""offar benchmark: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload clean-suite --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ./src.  The
workloads are in workloads.py and the metrics in BENCHMARK.json.  With
--trace 0 the result carries the end-to-end metrics, with --trace 1 the
per-layer ones, timed with shims on the library's own names (tracing.py).

Set-up is measured in SETUP_PROBES extra fresh processes besides the one
that runs the workload, half of them before it and half after, so that the
samples span the whole run and not one spell of the host's speed; setup_s is
the median of all of them.  Every time in the end-to-end metrics is scaled
to a reference host speed (hostspeed.py); the report lines give wall times
too.  The last line of standard output is the result as JSON.  Per-run
fingerprints go to perfbench/out/fingerprints-<workload>-seed<seed>.json,
spans of a traced run to perfbench/out/spans-<workload>-seed<seed>.csv.gz.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 8
TIMEOUT_S = 170


class BenchError(RuntimeError):
    pass


def run_worker(cmd, deadline) -> dict:
    """Run worker.py to completion; echo its report, return its result."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"worker timed out: {' '.join(cmd[1:])}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode}: {' '.join(cmd[1:])}")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (ROOT / "src" / "offar" / "__init__.py").is_file():
        print(f"no offar sources under {ROOT / 'src'}: run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")

    deadline = time.monotonic() + TIMEOUT_S
    worker = [sys.executable, str(HERE / "worker.py"),
              "--workload", args.workload, "--seed", str(args.seed)]
    try:
        probes = [run_worker(worker + ["--setup-only"], deadline)["setup"]
                  for _ in range(SETUP_PROBES // 2)]
        result = run_worker(worker + ["--seconds", str(args.seconds),
                                      "--trace", str(args.trace)], deadline)
        probes += [run_worker(worker + ["--setup-only"], deadline)["setup"]
                   for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 3

    samples = probes + [result["setup"]]
    setup = {k: statistics.median(s[k] for s in samples) for k in samples[0]}
    result["end_to_end"]["setup_s"] = setup["setup_s"]
    result["per_layer"]["setup.import_s"] = setup["import_s"]
    result["per_layer"]["setup.suite_s"] = setup["suite_s"]
    for line in result["report"]:
        print(line)
    print("setup_s {:.4f}, wall {:.4f} (medians of {}: {})".format(
        setup["setup_s"], setup["setup_wall_s"], len(samples),
        ", ".join(f"{s['setup_s']:.4f}" for s in samples)))

    kind = "per_layer" if args.trace else "end_to_end"
    values = result[kind]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[kind]}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
