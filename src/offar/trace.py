"""Per-iteration run traces with a lossless CSV round trip.

One row per iteration plus a final row for the point the run stopped at,
so a run of K iterations yields K + 1 rows.  Columns not meaningful for a
given algorithm (e.g. mu2 for run_offar, rho for the derivative-only
solvers) hold NaN, whether left out of append or passed as None.  Floats
are written with shortest round-trip formatting, so parse(emit(trace))
reproduces the trace bitwise.  A CSV whose header differs from COLUMNS,
or with a data row of another length, fails to parse, so a trace written
with another column set is refused, not misread.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

COLUMNS = (
    "k",
    "grad_norm",
    "sigma",
    "nu",
    "mu1",
    "mu2",
    "step_norm",
    "model_reduction",
    "taylor_grad_norm",
    "min_eig",
    "fvalue",
    "rho",
    "accepted",
)
_INDEX = {name: i for i, name in enumerate(COLUMNS)}
_NAN_ROW = [math.nan] * len(COLUMNS)


@dataclass
class RunTrace:
    problem: str = ""
    algorithm: str = ""
    config_hash: str = ""
    seed: int | None = None
    rows: list[list[float]] = field(default_factory=list)

    def append(self, **values) -> None:
        row = _NAN_ROW.copy()
        try:
            for name, v in values.items():
                i = _INDEX[name]
                if v is not None:
                    row[i] = float(v)
        except KeyError:
            unknown = sorted(values.keys() - _INDEX.keys())
            raise ValueError(f"unknown trace columns: {unknown}") from None
        self.rows.append(row)

    def __len__(self) -> int:
        return len(self.rows)

    def column(self, name: str) -> np.ndarray:
        if name not in _INDEX:
            raise ValueError(f"unknown trace column {name!r}; choose from {', '.join(COLUMNS)}")
        return np.array([row[_INDEX[name]] for row in self.rows], dtype=float)

    def to_csv(self, path_or_file) -> None:
        if hasattr(path_or_file, "write"):
            self._write(path_or_file)
        else:
            with open(path_or_file, "w", encoding="utf-8", newline="") as fh:
                self._write(fh)

    def _write(self, fh) -> None:
        fh.write(f"# problem={self.problem}\n")
        fh.write(f"# algorithm={self.algorithm}\n")
        fh.write(f"# config={self.config_hash}\n")
        fh.write(f"# seed={'' if self.seed is None else self.seed}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(COLUMNS)
        for row in self.rows:
            out = [str(int(row[0]))]
            out.extend(repr(v) for v in row[1:])
            writer.writerow(out)

    @classmethod
    def from_csv(cls, path_or_file) -> "RunTrace":
        if hasattr(path_or_file, "read"):
            return cls._read(path_or_file)
        with open(path_or_file, "r", encoding="utf-8", newline="") as fh:
            return cls._read(fh)

    @classmethod
    def _read(cls, fh) -> "RunTrace":
        meta = {}
        lines = fh.read().splitlines()
        body = 0
        while body < len(lines) and lines[body].startswith("#"):
            key, _, value = lines[body][1:].strip().partition("=")
            meta[key.strip()] = value
            body += 1
        reader = csv.reader(lines[body:])
        header = next(reader, None)
        if header is None:
            raise ValueError("trace header row is missing")
        if tuple(header) != COLUMNS:
            raise ValueError(f"unexpected trace header: {header}")
        rows = []
        for row in reader:
            if not row:
                continue
            if len(row) != len(COLUMNS):
                raise ValueError(f"trace line {body + reader.line_num} has {len(row)} "
                                 f"cells, expected {len(COLUMNS)}")
            rows.append([float(v) for v in row])
        seed_text = meta.get("seed", "")
        return cls(
            problem=meta.get("problem", ""),
            algorithm=meta.get("algorithm", ""),
            config_hash=meta.get("config", ""),
            seed=int(seed_text) if seed_text else None,
            rows=rows,
        )

    def equals(self, other: "RunTrace") -> bool:
        """Bitwise equality, with NaN == NaN in data cells."""
        if (self.problem, self.algorithm, self.config_hash, self.seed) != (
            other.problem,
            other.algorithm,
            other.config_hash,
            other.seed,
        ):
            return False
        if len(self.rows) != len(other.rows):
            return False
        a = np.array(self.rows, dtype=float).reshape(len(self.rows), len(COLUMNS))
        b = np.array(other.rows, dtype=float).reshape(len(other.rows), len(COLUMNS))
        return bool(np.array_equal(a, b, equal_nan=True))
