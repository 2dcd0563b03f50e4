"""Merge the fingerprints of finished runs into reference.json.

    python3 perfbench/make_reference.py

Reads perfbench/out/fingerprints-*.json, which every benchmark run writes,
and stores their union with the environment of the first file.  Run it after
a set of benchmark runs on the commit whose numerics are the reference; a
key that two files disagree on is an error, because runs are deterministic.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    files = sorted((HERE / "out").glob("fingerprints-*.json"))
    if not files:
        print("no fingerprints under perfbench/out; run the benchmark first", file=sys.stderr)
        return 1
    environment, merged = None, {}
    for path in files:
        data = json.loads(path.read_text())
        environment = environment or data["environment"]
        for key, value in data["fingerprints"].items():
            if merged.setdefault(key, value) != value:
                print(f"{path.name}: {key} differs from an earlier run", file=sys.stderr)
                return 1
    # One fingerprint per line, so that a regenerated reference diffs by run.
    lines = [f"  {json.dumps(key)}: {json.dumps(merged[key])}" for key in sorted(merged)]
    (HERE / "reference.json").write_text(
        '{"environment": ' + json.dumps(environment, sort_keys=True)
        + ',\n "fingerprints": {\n' + ",\n".join(lines) + "\n }}\n")
    print(f"{len(merged)} fingerprints from {len(files)} files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
