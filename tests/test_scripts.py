"""The experiment scripts run from the repository root and agree with themselves.

Each script puts ``src`` on its import path, runs its experiment and ends
with its agreement lines; a disagreement would also make it exit 1.
"""

import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv, agreement", [
    (["scripts/family_capacity_sweep.py", "--max-k", "6", "--audit"], [" 0 mismatches,"]),
    (["scripts/feasibility_agreement.py", "--count", "20"], [" 0 disagreements"]),
    (["scripts/scalar_vs_vector_gap.py"], [
        "best scalar GF(2) rate 1/3 < vector rate 2/5: True",
        "best scalar GF(2) rate 1/4 < vector rate 2/7: True",
    ]),
], ids=["family-capacity-sweep", "feasibility-agreement", "scalar-vs-vector-gap"])
def test_script_agrees(argv, agreement):
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    last = proc.stdout.splitlines()[-len(agreement):]
    assert all(piece in line for piece, line in zip(agreement, last)), last
