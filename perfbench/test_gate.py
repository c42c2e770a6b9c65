"""The benchmark's correctness gate counts a wrong answer as failed.

Run from the root of a checkout: python3 -m pytest -q perfbench/test_gate.py
"""

import copy
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402


def _one_family_solve(**changes):
    expected = copy.deepcopy(run.EXPECTED["family-search"])
    solve = dict(expected["solves"][0], **changes)  # F_{4,1} at k = 2
    expected["solves"] = [solve]
    return run.FamilySearch(expected)


def test_recorded_answer_passes_the_gate():
    result = run.run_workload(_one_family_solve(), seed=1, seconds=0, trace=False)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 1


def test_wrong_expected_value_raises_error_rate():
    result = run.run_workload(_one_family_solve(dim=5), seed=1, seconds=0, trace=False)
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0


def test_wrong_expected_basis_raises_error_rate():
    result = run.run_workload(_one_family_solve(basis=[0, 1, 4, 6]), seed=1, seconds=0, trace=False)
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0
