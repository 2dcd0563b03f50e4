"""Timing shims on the names the drivers call, with spans kept in memory.

A span is (name, start, end, parent, run id).  Shims are installed only for
traced passes and removed afterwards, so untraced passes run the library
untouched.  A span's self time is its duration minus the durations of its
children; runs are single-threaded, so children never overlap.
"""

from __future__ import annotations

import gzip
import math
import time
from array import array

import numpy as np

import offar.harness
import offar.solvers
import offar.trace


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.run = array("q")
        self.run_id = -1
        self._stack = [-1]
        self._patches = []
        self.hard_cases = 0
        self.mult_resid_max = 0.0

    def wrap(self, name, fn, after=None):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        name_id, start, end, parent, run, stack = (
            self.name_id, self.start, self.end, self.parent, self.run, self._stack)
        clock = time.perf_counter_ns
        tracer = self

        def shim(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            run.append(tracer.run_id)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return shim

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self, oracles) -> None:
        """Shim run_single, the drivers, the subsolvers, RunTrace.append,
        the suite oracles' evaluators and the evaluator of every oracle that
        add_noise returns."""
        h, s = offar.harness, offar.solvers
        self._patch(h, "run_single", self.wrap("harness.run_single", h.run_single))
        for driver in ("run_offar", "run_moffar", "run_ar2"):
            self._patch(h, driver, self.wrap("solvers." + driver, getattr(h, driver)))
        self._patch(s, "solve_p2", self.wrap("subsolver.solve_p2", s.solve_p2,
                                             after=self._solve_p2_stats))
        self._patch(s, "solve_p1", self.wrap("subsolver.solve_p1", s.solve_p1))
        self._patch(s, "certify", self.wrap("subsolver.certify", s.certify))
        self._patch(offar.trace.RunTrace, "append",
                    self.wrap("trace.append", offar.trace.RunTrace.append))
        for oracle in oracles:
            self._patch(oracle, "evaluator", self.wrap("problems.oracle", oracle.evaluator))
        add_noise = h.add_noise

        def traced_add_noise(oracle, spec):
            noisy = add_noise(oracle, spec)
            noisy.evaluator = self.wrap("problems.noise", noisy.evaluator)
            return noisy

        self._patch(h, "add_noise", traced_add_noise)

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _solve_p2_stats(self, args, step) -> None:
        sigma = args[2]
        lam = step.multiplier
        self.hard_cases += step.hard_case
        if lam > 0.0:
            snorm = math.sqrt(float(step.step @ step.step))
            resid = abs(lam - sigma * snorm / 2.0) / lam
            if resid > self.mult_resid_max:
                self.mult_resid_max = resid

    def summary(self) -> dict:
        """Per-name calls, busy and self time (s); per-run accounting."""
        n = len(self.start)
        nid = np.asarray(self.name_id, dtype=np.intp)
        start, end, parent, run = (np.asarray(a, dtype=np.int64)
                                   for a in (self.start, self.end, self.parent, self.run))
        dur = (end - start).astype(float)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        busy = np.bincount(nid, weights=dur, minlength=k)
        selfs = np.bincount(nid, weights=self_time, minlength=k)
        layers = {name: {"calls": int(calls[i]), "busy_s": busy[i] * 1e-9,
                         "self_s": selfs[i] * 1e-9}
                  for i, name in enumerate(self.names)}
        # Every span of a run descends from its run_single root, so the self
        # times of a run's spans must add up to the root's duration exactly.
        roots = ~has_parent
        root_dur = np.bincount(run[roots], weights=dur[roots])
        self_by_run = np.bincount(run, weights=self_time, minlength=root_dur.size)
        return {"layers": layers, "spans": n,
                "root_s": float(root_dur.sum()) * 1e-9,
                "unaccounted_runs": int(np.count_nonzero(self_by_run != root_dur))}

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("run,name,start_ns,end_ns,parent\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(f"{self.run[i]},{names[self.name_id[i]]},{self.start[i]},"
                         f"{self.end[i]},{self.parent[i]}\n")
