"""Self-check of the traced run: the same seed and op count give the same counts.

    python3 bench/selfcheck.py            # or: python3 -m pytest bench/selfcheck.py

Runs every workload twice under the tracer with a fixed op count and
asserts that the work counters repeat exactly, that tracing left every
output unchanged, and that no op failed outside the known defects.  The
tracing overhead is printed beside the counts.  The file is not named
test_*.py, so the repository's own test run does not collect it.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED = 0
# whole rounds: one op per (n, d) cell, one orbit per (cell, kind) slot, one figures call
OPS = {"certify": 8, "collide": 24 * 16, "figures": 1}
EXACT = [
    "integrate.calls",
    "integrate.steps",
    "model.field_evals",
    "covering.field_evals",
    "covering.calls",
    "verify.chart_evals_in_tables",
]


def traced_run(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--trace", "1", "--ops", str(OPS[workload])],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    marker = "result file "
    path = next(line.split(marker, 1)[1] for line in proc.stdout.splitlines() if marker in line)
    return json.loads((ROOT / path.strip()).read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", list(OPS))
def test_traced_counts_repeat(workload: str) -> None:
    first, second = traced_run(workload), traced_run(workload)
    counts = [r["worker"]["trace"]["exact_counts"] for r in (first, second)]
    overheads = [r["worker"]["trace"]["overhead_frac"] for r in (first, second)]
    print(f"{workload}: {counts[0]}; tracing overhead {overheads[0]:+.1%}, {overheads[1]:+.1%}")
    for key in EXACT:
        assert counts[0][key] == counts[1][key], key
    assert counts[0] == counts[1]
    for record in (first, second):
        assert record["correct"]
        assert record["worker"]["trace"]["outputs_match"]
        assert record["worker"]["trace"]["ops"] == OPS[workload]


if __name__ == "__main__":
    sys.exit(pytest.main(["-q", "-s", __file__]))
