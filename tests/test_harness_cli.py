"""Batch harness and command line front end."""

import csv

import numpy as np
import pytest

from offar import (DerivativeBundle, NoiseSpec, OffoConfig, ProblemMeta,
                   ProblemOracle, RunStatus, add_noise, get_problem, run_bench,
                   run_offar, run_single)
from offar.cli import _STATUS_CODES, main
from offar.harness import (ALGORITHMS, write_costs_csv, write_profile_csv,
                           write_summary_csv)
from offar.trace import RunTrace


def identity_quadratic():
    def ev(x):
        return DerivativeBundle(x.copy(), np.eye(x.size), 0.5 * float(x @ x))

    return ProblemOracle("idquad", 2, np.ones(2), ev, ProblemMeta(f_low=0.0))


class TestRunSingle:
    def test_algorithm_names(self):
        assert ALGORITHMS == ("offar1", "offar2a", "offar2b", "moffar2", "ar2")
        with pytest.raises(KeyError):
            run_single(get_problem("cube"), "newton", eps1=1e-6)

    def test_first_order_variant(self):
        out = run_single(identity_quadratic(), "offar1", eps1=1e-6,
                         strict=True, nu0=1.0)
        assert out.status == RunStatus.FIRST_ORDER
        assert out.trace.algorithm == "offar1"

    @pytest.mark.parametrize("alg", ["offar2a", "offar2b", "ar2"])
    def test_second_order_variants(self, alg):
        out = run_single(get_problem("cube"), alg, eps1=1e-6)
        assert out.status == RunStatus.FIRST_ORDER
        assert out.trace.algorithm == alg

    def test_offar2b_runs_the_offar2a_rule(self):
        a = run_single(get_problem("rosenbr"), "offar2a", eps1=1e-6)
        b = run_single(get_problem("rosenbr"), "offar2b", eps1=1e-6)
        b.trace.algorithm = a.trace.algorithm
        assert a.trace.equals(b.trace)

    def test_ar2_reads_sigma0(self):
        default = run_single(get_problem("cube"), "ar2", eps1=1e-6)
        given = run_single(get_problem("cube"), "ar2", eps1=1e-6, sigma0=8.0)
        assert default.trace.column("sigma")[0] == 1.0
        assert given.trace.column("sigma")[0] == 8.0

    def test_moffar_defaults_eps2_to_eps1(self):
        out = run_single(get_problem("tridia"), "moffar2", eps1=1e-6)
        assert out.status == RunStatus.SECOND_ORDER
        assert out.final_min_eig >= -1e-6

    def test_seed_stamped_only_under_noise(self):
        clean = run_single(get_problem("cube"), "offar2a", eps1=1e-6, seed=5)
        noisy = run_single(get_problem("cube"), "offar2a", eps1=1e-3,
                           noise_level=0.1, seed=5)
        assert clean.trace.seed is None
        assert noisy.trace.seed == 5

    def test_noise_replay_and_variation(self):
        po = get_problem("cube")
        kw = dict(eps1=1e-3, noise_level=0.25, max_iter=2000)
        a = run_single(po, "offar2a", seed=3, **kw)
        b = run_single(po, "offar2a", seed=3, **kw)
        c = run_single(po, "offar2a", seed=4, **kw)
        assert a.trace.equals(b.trace)
        assert not a.trace.equals(c.trace)

    @pytest.mark.parametrize("name", ["rosenbr", "woods"])
    def test_noise_adds_no_hidden_switch(self, name):
        # Under noise, offar2a is the default-configured driver on the noisy oracle.
        po = get_problem(name)
        got = run_single(po, "offar2a", eps1=1e-3, noise_level=0.25, seed=1, max_iter=200)
        noisy = add_noise(po, NoiseSpec(0.25, 1, frozenset({"gradient", "hessian"})))
        want = run_offar(noisy, OffoConfig(eps1=1e-3, max_iter=200))
        assert (got.status, got.iterations) == (want.status, want.iterations)
        assert got.trace.config_hash == want.trace.config_hash
        assert np.array(got.trace.rows).tobytes() == np.array(want.trace.rows).tobytes()


@pytest.fixture(scope="module")
def bench_result():
    oracles = [get_problem("cube"), get_problem("beale")]
    return run_bench(oracles, ("offar2a", "ar2"), (0.0, 0.25), (1, 2),
                     max_iter=2000)


@pytest.fixture(scope="module")
def clean_result():
    return run_bench([get_problem("cube")], ("offar2a", "ar2"), (0.0,), (1,))


class TestRunBench:
    @pytest.fixture
    def result(self, bench_result):
        return bench_result

    def test_cost_matrix_keys(self, result):
        assert set(result.costs) == {(0.0, 1), (0.25, 1), (0.25, 2)}
        for mat in result.costs.values():
            assert mat.shape == (2, 2)

    def test_statuses_are_strings(self, result):
        stat = result.statuses[(0.0, 1)]
        assert stat[0, 0] == "FirstOrderPoint"

    def test_rho_aggregates_over_seeds(self, result):
        for alg in ("offar2a", "ar2"):
            for level in (0.0, 0.25):
                assert 0.0 <= result.rho[(alg, level)] <= 100.0
        assert result.rho[("offar2a", 0.0)] == 100.0

    def test_profile_built_from_clean_level(self, result):
        assert result.profile is not None
        assert result.profile.problems == ("cube", "beale")

    def test_default_tolerances_by_level(self, result):
        assert result.eps_by_level[0.0] == 1e-6
        assert result.eps_by_level[0.25] == 1e-3

    def test_eps_override(self):
        res = run_bench([get_problem("cube")], ("offar2a",), (0.0,), (1,),
                        eps1=1e-4)
        assert res.eps_by_level[0.0] == 1e-4

    def test_needs_a_seed(self):
        with pytest.raises(ValueError):
            run_bench([get_problem("cube")], ("offar2a",), (0.0,), ())


class TestCsvWriters:
    @pytest.fixture
    def result(self, clean_result):
        return clean_result

    def test_costs_csv(self, result, tmp_path):
        path = tmp_path / "costs.csv"
        write_costs_csv(result, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["problem", "level", "seed", "algorithm", "cost", "status"]
        assert len(rows) == 1 + 1 * 1 * 2
        assert rows[1][0] == "cube" and rows[1][3] == "offar2a"
        assert int(rows[1][4]) > 0

    def test_summary_csv(self, result, tmp_path):
        path = tmp_path / "summary.csv"
        write_summary_csv(result, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["algorithm", "level", "eps1", "rho_percent", "pi"]
        assert len(rows) == 3
        assert float(rows[1][3]) == 100.0
        assert 0.0 < float(rows[1][4]) <= 1.0

    def test_profile_csv(self, result, tmp_path):
        path = tmp_path / "profile.csv"
        write_profile_csv(result.profile, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["algorithm", "tau", "rho"]
        assert {r[0] for r in rows[1:]} == {"offar2a", "ar2"}


class TestCli:
    def test_exit_code_map(self):
        assert _STATUS_CODES[RunStatus.FIRST_ORDER] == 0
        assert _STATUS_CODES[RunStatus.SECOND_ORDER] == 0
        assert _STATUS_CODES[RunStatus.MAX_ITERATIONS] == 2
        assert _STATUS_CODES[RunStatus.ORACLE_OVERFLOW] == 3

    def test_list_problems(self, capsys):
        assert main(["list-problems"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 12
        assert out[0].startswith("rosenbr")

    def test_run_converged(self, capsys):
        code = main(["run", "--problem", "cube", "--alg", "offar2a"])
        assert code == 0
        assert "status=FirstOrderPoint" in capsys.readouterr().out

    def test_run_budget_exhausted(self, capsys):
        code = main(["run", "--problem", "rosenbr", "--alg", "offar2a",
                     "--max-iter", "1"])
        assert code == 2
        assert "status=MaxIterations" in capsys.readouterr().out

    def test_run_writes_trace(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        code = main(["run", "--problem", "cube", "--alg", "ar2",
                     "--trace-out", str(path)])
        assert code == 0
        tr = RunTrace.from_csv(path)
        assert tr.algorithm == "ar2"
        assert len(tr) >= 2

    @pytest.mark.parametrize("argv", [
        ["run", "--problem", "nosuch", "--alg", "offar2a"],
        ["run", "--problem", "cube", "--alg", "newton"],
        ["bench", "--alg", "offar2a,newton"],
        ["bounds"],
        ["worstcase", "--mode", "first", "--p", "0"],
        # settings the chosen algorithm would not read
        ["run", "--problem", "cube", "--alg", "offar2a", "--eps2", "1e-4"],
        ["run", "--problem", "cube", "--alg", "ar2", "--strict"],
        ["run", "--problem", "cube", "--alg", "ar2", "--nu0", "1"],
        ["run", "--problem", "cube", "--alg", "offar1", "--sigma0", "2"],
    ])
    def test_usage_errors(self, argv, capsys):
        assert main(argv) == 1
        assert "error" in capsys.readouterr().err

    def test_bench_smoke(self, tmp_path, capsys):
        prefix = str(tmp_path / "b")
        code = main(["bench", "--problems", "cube", "--alg", "offar2a,ar2",
                     "--noise", "0", "--seeds", "1", "--csv-out", prefix])
        assert code == 0
        out = capsys.readouterr().out
        assert "rho=100.00%" in out
        for suffix in ("_costs.csv", "_summary.csv", "_profile.csv"):
            assert (tmp_path / ("b" + suffix)).exists()

    def test_worstcase_first(self, tmp_path, capsys):
        path = tmp_path / "seq.csv"
        code = main(["worstcase", "--mode", "first", "--p", "2",
                     "--eps", "0.25", "--csv-out", str(path)])
        assert code == 0
        assert "k_eps=8" in capsys.readouterr().out
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["k", "omega", "g", "s", "sigma", "f"]
        assert len(rows) == 1 + 9

    def test_worstcase_diverge(self, tmp_path, capsys):
        path = tmp_path / "div.csv"
        code = main(["worstcase", "--mode", "diverge", "--H", "1", "--theta1",
                     "1", "--iters", "50", "--csv-out", str(path)])
        assert code == 0
        assert "final_x1=50.0" in capsys.readouterr().out
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 50

    def test_bounds_explicit_constants(self, capsys):
        code = main(["bounds", "--p", "2", "--L", "1", "--sigma0", "1",
                     "--theta1", "1", "--vartheta", "1", "--eps1", "1"])
        assert code == 0
        assert "k_star=6" in capsys.readouterr().out

    def test_bounds_from_problem(self, capsys):
        code = main(["bounds", "--problem", "tridia"])
        assert code == 0
        out = capsys.readouterr().out
        assert "bound_first_order=" in out

    def test_bounds_problem_without_constant(self, capsys):
        assert main(["bounds", "--problem", "rosenbr"]) == 1
