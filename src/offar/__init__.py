"""Derivative-only adaptive regularization solvers and their test batteries."""

from .bounds import BoundReport, bounds_for_problem, theory_bounds
from .model import DerivativeBundle, model_terms
from .harness import BenchResult, run_bench, run_single
from .problems import (SUITE_NAMES, NoiseSpec, ProblemMeta, ProblemOracle,
                       add_noise, get_problem, make_suite,
                       validate_derivatives)
from .profiles import ProfileTable, compute_profile
from .solvers import (Ar2Config, CertificateError, OffoConfig, RunOutcome,
                      RunStatus, SolverState, mu1_update, mu2_update,
                      nu_update, run_ar2, run_moffar, run_offar, sigma_select)
from .subsolver import StepResult, certify, solve_p1, solve_p2
from .trace import RunTrace
from .worstcase import (DivergenceRun, SlowSequence, gen_first_order,
                        gen_second_order, replay_first_order,
                        replay_second_order, run_divergence)

__version__ = "0.1.0"
