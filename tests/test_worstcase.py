"""Slow-sequence generators, scripted replays, and the divergence run."""

import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from test_fingerprints import environment

from offar import RunStatus
from offar.worstcase import (ConstructionError, DivergenceRun, _verify,
                             gen_first_order, gen_second_order,
                             replay_first_order, replay_second_order,
                             run_divergence, scripted_oracle)


SEQUENCE_DATA = Path(__file__).resolve().parent / "data" / "slow_sequences.json"
SEQUENCE_ORDERS = ((1, (1, 2, 3, 4)), (2, (2, 3, 4)))
SEQUENCE_EPS = (1.0, 0.5, 0.3, 0.25, 0.1, 0.05)
SEQUENCE_SIGMA0 = (0.1, 0.5, 1.0, 3.0)


def sequence_grid():
    """(key, order, p, eps, sigma0) for every guarded slow sequence."""
    return [(f"{order}/{p}/{eps!r}/{sigma0!r}", order, p, eps, sigma0)
            for order, ps in SEQUENCE_ORDERS for p in ps
            for eps in SEQUENCE_EPS for sigma0 in SEQUENCE_SIGMA0]


def sequence_digest(order, p, eps, sigma0):
    """k_eps, sigma_max_bound as hex and the SHA-256 of every array."""
    seq = (gen_first_order if order == 1 else gen_second_order)(p, eps, sigma0)
    digest = hashlib.sha256()
    for arr in (seq.omega, seq.values, seq.svals, seq.sigmas, seq.fvals):
        digest.update(arr.tobytes())
    return [seq.k_eps, seq.sigma_max_bound.hex(), digest.hexdigest()]


class TestSequenceDigests:
    """Both generators must reproduce their recorded sequences bit for bit.

    Regenerate data/slow_sequences.json with
    ``PYTHONPATH=src python tests/test_worstcase.py`` only for a change
    meant to alter the sequences.
    """

    @pytest.mark.parametrize("key,order,p,eps,sigma0", sequence_grid(),
                             ids=[cell[0] for cell in sequence_grid()])
    def test_digest(self, key, order, p, eps, sigma0):
        recorded = json.loads(SEQUENCE_DATA.read_text())
        if recorded["environment"] != environment():
            pytest.skip(f"digests recorded on {recorded['environment']}, "
                        f"running on {environment()}")
        assert sequence_digest(order, p, eps, sigma0) == recorded["digests"][key]

    def test_grid_matches_recorded_keys(self):
        recorded = json.loads(SEQUENCE_DATA.read_text())
        assert sorted(recorded["digests"]) == sorted(cell[0] for cell in sequence_grid())


class TestFirstOrderSequence:
    @pytest.mark.parametrize("p,eps,expected", [
        (1, 0.1, 100),
        (1, 0.05, 400),
        (2, 0.25, 8),
        (2, 0.1, 32),
        (3, 0.5, 3),  # ceil(0.5^(-4/3))
    ])
    def test_iteration_counts(self, p, eps, expected):
        assert gen_first_order(p, eps, 1.0).k_eps == expected

    def test_omega_endpoints(self):
        seq = gen_first_order(2, 0.25, 1.0)
        assert seq.omega[0] == seq.eps
        assert seq.omega[-1] == 0.0
        assert np.all(np.diff(seq.omega) < 0.0)

    def test_gradient_window(self):
        seq = gen_first_order(1, 0.1, 1.0)
        absg = np.abs(seq.values)
        assert np.all(absg >= seq.eps)
        assert np.all(absg <= 2.0 * seq.eps)
        assert seq.values[-1] == -seq.eps

    def test_function_window_and_sigma_ceiling(self):
        seq = gen_first_order(2, 0.1, 0.5)
        assert np.all(seq.fvals >= 0.0)
        assert np.all(seq.fvals <= seq.fvals[0])
        assert np.all(np.diff(seq.sigmas) > 0.0)
        assert seq.sigmas[-1] <= seq.sigma_max_bound

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            gen_first_order(0, 0.1, 1.0)
        with pytest.raises(ValueError):
            gen_first_order(1, 0.0, 1.0)
        with pytest.raises(ValueError):
            gen_first_order(1, 1.5, 1.0)
        with pytest.raises(ValueError):
            gen_first_order(1, 0.1, -1.0)

class TestSecondOrderSequence:
    @pytest.mark.parametrize("p,eps2,expected", [
        (2, 0.25, 64),
        (2, 0.5, 8),
        (3, 0.5, 4),  # ceil(0.5^(-2))
    ])
    def test_iteration_counts(self, p, eps2, expected):
        assert gen_second_order(p, eps2, 1.0).k_eps == expected

    def test_curvature_window(self):
        seq = gen_second_order(2, 0.5, 1.0)
        absh = np.abs(seq.values)
        assert np.all(absh >= seq.eps)
        assert np.all(absh <= 2.0 * seq.eps)
        assert seq.values[-1] == -seq.eps

    def test_needs_p_at_least_two(self):
        with pytest.raises(ValueError):
            gen_second_order(1, 0.5, 1.0)

    def test_function_window(self):
        seq = gen_second_order(2, 0.25, 1.0)
        assert np.all(seq.fvals >= 0.0)
        assert np.all(seq.fvals <= seq.fvals[0])
        assert seq.sigmas[-1] <= seq.sigma_max_bound


@pytest.mark.parametrize("field,factor", [("values", 3.0), ("fvals", -1.0), ("sigmas", 1e3),
                                          ("svals", 3.0), ("svals", 1.0 / 3.0),
                                          ("sigmas", 1.0 + 1e-9)])
@pytest.mark.parametrize("seq", [gen_first_order(2, 0.25, 1.0), gen_second_order(2, 0.5, 1.0)],
                         ids=["order1", "order2"])
def test_tampered_sequence_is_rejected(seq, field, factor):
    _verify(seq)
    bad = dataclasses.replace(seq, **{field: getattr(seq, field) * factor})
    with pytest.raises(ConstructionError):
        _verify(bad)


class TestScriptedOracle:
    def test_serves_values_in_evaluation_order(self):
        seq = gen_first_order(2, 0.25, 1.0)
        po = scripted_oracle(seq, degree=2)
        served = [po.evaluate(np.array([float(i)]))    # x is ignored on purpose
                  for i in range(seq.k_eps + 1)]
        got = np.array([b.gradient[0] for b in served])
        np.testing.assert_array_equal(got, seq.values)

    def test_clamps_after_exhaustion(self):
        seq = gen_first_order(2, 0.25, 1.0)
        po = scripted_oracle(seq, degree=2)
        for _ in range(seq.k_eps + 1):
            po.evaluate(np.zeros(1))
        extra = po.evaluate(np.zeros(1))
        assert extra.gradient[0] == seq.values[-1]


class TestReplays:
    @pytest.mark.parametrize("p,eps", [(1, 0.1), (1, 0.05), (2, 0.25), (2, 0.1)])
    def test_first_order_exact(self, p, eps):
        seq = gen_first_order(p, eps, 1.0)
        out = replay_first_order(seq)
        assert out.status == RunStatus.FIRST_ORDER
        assert out.iterations == seq.k_eps
        assert out.final_grad_norm == eps
        np.testing.assert_allclose(out.trace.column("sigma")[:-1],
                                   seq.sigmas[:-1], rtol=1e-12)

    @pytest.mark.parametrize("eps2", [0.25, 0.5])
    def test_second_order_exact(self, eps2):
        seq = gen_second_order(2, eps2, 1.0)
        out = replay_second_order(seq)
        assert out.status == RunStatus.SECOND_ORDER
        assert out.iterations == seq.k_eps
        assert out.final_min_eig == -eps2

    def test_replay_rejects_wrong_order(self):
        with pytest.raises(ValueError):
            replay_first_order(gen_second_order(2, 0.5, 1.0))
        with pytest.raises(ValueError):
            replay_second_order(gen_first_order(2, 0.25, 1.0))

    def test_replay_rejects_unsupported_degree(self):
        with pytest.raises(ValueError):
            replay_first_order(gen_first_order(3, 0.5, 1.0))


class TestDivergence:
    def test_invariants_at_unit_curvature(self):
        run = run_divergence(1.0, 1.0, 1000)
        assert isinstance(run, DivergenceRun)
        assert run.sigma < 2.0
        assert np.ptp(run.sigmas) == 0.0      # sigma frozen to the last bit
        assert run.max_identity_error <= 1e-12
        ks = np.arange(1001, dtype=float)
        np.testing.assert_array_equal(run.xs[:, 0], ks)

    @pytest.mark.parametrize("H", [1.0, 3.0, 10.0])
    def test_closed_form_step(self, H):
        run = run_divergence(H, 1.5, 10)
        a = H + 1.0
        np.testing.assert_allclose(run.step, [1.0, 1.0 / a], rtol=0, atol=1e-12)
        assert run.sigma == pytest.approx(2.0 * a / math.sqrt(1.0 + a * a))
        # served gradient is (-1, -1) at every iterate
        assert np.all(run.mu1s < run.sigmas)

    def test_second_coordinate_slows_with_stiffness(self):
        slow = run_divergence(10.0, 1.5, 50)
        fast = run_divergence(1.0, 1.5, 50)
        assert slow.xs[-1, 1] < fast.xs[-1, 1]

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            run_divergence(-1.0, 1.5, 10)
        with pytest.raises(ValueError):
            run_divergence(1.0, 0.5, 10)
        with pytest.raises(ValueError):
            run_divergence(1.0, 1.5, 0)


if __name__ == "__main__":
    digests = {key: sequence_digest(*cell) for key, *cell in sequence_grid()}
    lines = [f"  {json.dumps(key)}: {json.dumps(digests[key])}" for key in sorted(digests)]
    SEQUENCE_DATA.write_text('{"environment": ' + json.dumps(environment(), sort_keys=True)
                             + ',\n "digests": {\n' + ",\n".join(lines) + "\n }}\n")
    print(f"{len(digests)} digests written to {SEQUENCE_DATA}")
