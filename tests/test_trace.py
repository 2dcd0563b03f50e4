"""Trace container and its lossless CSV round trip."""

import io
import math

import numpy as np
import pytest

from offar import OffoConfig, get_problem, run_offar
from offar.trace import COLUMNS, RunTrace


def sample_trace():
    tr = RunTrace(problem="toy", algorithm="offar2a", config_hash="abc123", seed=7)
    tr.append(k=0, grad_norm=1.25, sigma=0.5, nu=0.5, step_norm=1e-300,
              fvalue=-3.7)
    tr.append(k=1, grad_norm=0.1 + 0.2, sigma=1.0 / 3.0, nu=0.7,
              mu1=-2.5e-17, fvalue=float("inf"))
    tr.append(k=2, grad_norm=9.4e-7, nu=0.7)
    return tr


class TestContainer:
    def test_append_fills_missing_with_nan(self):
        tr = RunTrace()
        tr.append(k=0, grad_norm=2.0)
        row = tr.rows[0]
        assert row[COLUMNS.index("grad_norm")] == 2.0
        others = [row[i] for i, c in enumerate(COLUMNS) if c not in ("k", "grad_norm")]
        assert all(math.isnan(v) for v in others)

    def test_append_writes_none_as_nan(self):
        tr = RunTrace()
        tr.append(k=0, mu1=None)
        assert math.isnan(tr.rows[0][COLUMNS.index("mu1")])

    def test_unknown_column_rejected(self):
        tr = RunTrace()
        with pytest.raises(ValueError, match="unknown trace"):
            tr.append(k=0, gradient_norm=1.0)

    def test_column_extraction(self):
        tr = sample_trace()
        np.testing.assert_array_equal(tr.column("k"), [0.0, 1.0, 2.0])
        got = tr.column("sigma")
        assert got[0] == 0.5 and got[1] == 1.0 / 3.0 and math.isnan(got[2])

    def test_unknown_column_named_with_choices(self):
        with pytest.raises(ValueError, match=r"^unknown trace column 'sigmaa'; "
                                             r"choose from k, grad_norm, sigma, .*, accepted$"):
            sample_trace().column("sigmaa")

    def test_len(self):
        assert len(sample_trace()) == 3


class TestRoundTrip:
    def test_bitwise_reread(self):
        tr = sample_trace()
        buf = io.StringIO()
        tr.to_csv(buf)
        back = RunTrace.from_csv(io.StringIO(buf.getvalue()))
        assert tr.equals(back)

    def test_metadata_survives(self):
        buf = io.StringIO()
        sample_trace().to_csv(buf)
        back = RunTrace.from_csv(io.StringIO(buf.getvalue()))
        assert back.problem == "toy"
        assert back.algorithm == "offar2a"
        assert back.config_hash == "abc123"
        assert back.seed == 7

    def test_none_seed_round_trips(self):
        tr = RunTrace(problem="x", algorithm="y", config_hash="z", seed=None)
        tr.append(k=0, grad_norm=1.0)
        buf = io.StringIO()
        tr.to_csv(buf)
        back = RunTrace.from_csv(io.StringIO(buf.getvalue()))
        assert back.seed is None
        assert tr.equals(back)

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "trace.csv"
        tr = sample_trace()
        tr.to_csv(path)
        assert tr.equals(RunTrace.from_csv(path))

    def test_real_run_round_trips(self, tmp_path):
        out = run_offar(get_problem("beale"), OffoConfig(degree=2, eps1=1e-6))
        path = tmp_path / "run.csv"
        out.trace.to_csv(path)
        assert out.trace.equals(RunTrace.from_csv(path))

    def test_header_mismatch_rejected(self):
        with pytest.raises(ValueError, match="header"):
            RunTrace.from_csv(io.StringIO("# problem=x\nk,grad\n0,1.0\n"))

    @pytest.mark.parametrize("text", ["", "# problem=x\n# seed=\n"],
                             ids=["empty", "comments-only"])
    def test_missing_header_rejected(self, text):
        with pytest.raises(ValueError, match="header row is missing"):
            RunTrace.from_csv(io.StringIO(text))

    @pytest.mark.parametrize("cells", [5, len(COLUMNS) + 1], ids=["short", "long"])
    def test_ragged_row_rejected(self, cells):
        buf = io.StringIO()
        sample_trace().to_csv(buf)
        lines = buf.getvalue().splitlines()
        row = lines[6].split(",")  # the second data row, line 7 of the file
        lines[6] = ",".join((row + ["0.0"])[:cells])
        with pytest.raises(ValueError, match=f"line 7 has {cells} cells, expected 13"):
            RunTrace.from_csv(io.StringIO("\n".join(lines) + "\n"))

    def test_comment_block_is_ordered_first(self):
        buf = io.StringIO()
        sample_trace().to_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "# problem=toy"
        assert lines[4] == ",".join(COLUMNS)


class TestEquals:
    def test_nan_cells_compare_equal(self):
        a, b = sample_trace(), sample_trace()
        assert a.equals(b)

    def test_metadata_mismatch(self):
        a, b = sample_trace(), sample_trace()
        b.seed = 8
        assert not a.equals(b)

    def test_data_mismatch(self):
        a, b = sample_trace(), sample_trace()
        b.rows[1][COLUMNS.index("nu")] = math.nextafter(0.7, 1.0)
        assert not a.equals(b)

    def test_length_mismatch(self):
        a, b = sample_trace(), sample_trace()
        b.rows.pop()
        assert not a.equals(b)
