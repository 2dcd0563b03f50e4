"""The benchmark's workloads: which runs a sweep makes, and why.

Each workload is one closed loop: one process calls
``offar.harness.run_single`` for its cells back to back, the way
``run_bench`` does.  A cell is one (problem, algorithm, noise seed) run on
the fixed 12-problem suite.
"""

from __future__ import annotations

from dataclasses import dataclass

# The noisy workload's noise seeds come from the benchmark seed: seed s uses
# seeds NOISE_SEEDS_PER_RUN*s + 1 ... NOISE_SEEDS_PER_RUN*(s + 1).  One noise
# seed leaves the iteration total of a sweep spread by about 8% across
# seeds; two halve the variance at twice the sweep time.
NOISE_SEEDS_PER_RUN = 2


@dataclass(frozen=True)
class Workload:
    name: str
    algorithms: tuple
    level: float
    eps1: float
    max_iter: int

    @property
    def noisy(self) -> bool:
        return self.level > 0.0


@dataclass(frozen=True)
class Cell:
    problem: str
    algorithm: str
    seed: int | None  # noise seed; None for clean runs

    def key(self, workload: Workload) -> str:
        seed = "-" if self.seed is None else str(self.seed)
        return f"{workload.name}/{self.problem}/{self.algorithm}/{workload.level!r}/{seed}"


WORKLOADS = {w.name: w for w in (
    # A slice of the acceptance criterion-08 grid.  The only workload that
    # builds the noise wrapper; derivative-only against f-reading is the
    # paper's headline comparison.
    Workload("noisy-sweep", ("offar2a", "ar2"), 0.25, 1e-3, 2000),
    # The clean suite as run_bench runs it: solve_p2 and certify dominate,
    # and it carries the helix and woods runs where the practical sigma
    # collapses to its floor.
    Workload("clean-suite", ("offar2a", "offar2b", "moffar2", "ar2"), 0.0, 1e-6, 50000),
    # No eigendecomposition, secular root or noise: the oracle and driver
    # overhead dominate.  offar1 reaches 1e-6 on no problem within 50,000
    # iterations at this commit, so the cap only sets the sweep length
    # (500 gives 6,000 iterations, 0.4-0.7 s on 2 cores).  Short runs give
    # each run many sweeps to take its median from, and a host-speed reading
    # close to the work it scales (hostspeed.py).
    Workload("first-order", ("offar1",), 0.0, 1e-6, 500),
)}


def noise_seeds(workload: Workload, seed: int) -> tuple:
    if not workload.noisy:
        return (None,)
    return tuple(NOISE_SEEDS_PER_RUN * seed + i + 1 for i in range(NOISE_SEEDS_PER_RUN))


def make_cells(workload: Workload, problem_names, seed: int) -> list[Cell]:
    """Cells in sweep order: noise seed, then problem, then algorithm."""
    return [Cell(problem, algorithm, noise_seed)
            for noise_seed in noise_seeds(workload, seed)
            for problem in problem_names
            for algorithm in workload.algorithms]
