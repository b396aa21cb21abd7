import subprocess
import sys
from pathlib import Path

import pytest

from netimprove import verify
from netimprove.errors import ValidationError
from netimprove.verify import SUITES, run_suites

GOLDEN = Path(__file__).parent / "data" / "verify-seed0.txt"


def test_registry_names_are_stable():
    expected = {
        "ratio-mixing", "delay-monotone", "path-decompose",
        "decompose-recompose", "hessian-psd", "copt-midpoint",
        "conductance-concavity", "waterfilling-kkt",
        "equilibrium-uniqueness", "parallel-consistency",
        "monotone-improvement", "dipole-claim", "path-domination",
        "minmax-domination", "dp-oracle", "dp-monotonic", "dipole-shift",
        "oracle-refinement",
    }
    assert set(SUITES) == expected


def test_selected_suites_pass_with_small_case_counts():
    results = run_suites(
        ["ratio-mixing", "delay-monotone", "conductance-concavity",
         "path-domination", "dp-oracle"], seed=3, cases=30)
    assert all(r.passed for r in results), [r for r in results if not r.passed]


@pytest.mark.parametrize("bad", [
    {"cases": -5}, {"cases": 0}, {"cases": True}, {"seed": -1},
    {"seed": True},
])
def test_bad_case_count_or_seed_is_rejected(bad):
    with pytest.raises(ValidationError, match="must be"):
        run_suites(["ratio-mixing"], **bad)


def test_unknown_suite_raises():
    with pytest.raises(KeyError, match="unknown suite"):
        run_suites(["definitely-not-a-suite"])


def test_same_seed_same_outcome():
    a = run_suites(["minmax-domination"], seed=11, cases=20)
    b = run_suites(["minmax-domination"], seed=11, cases=20)
    assert a == b


def test_a_stalled_path_engine_fails_the_uniqueness_suite(monkeypatch):
    monkeypatch.setattr(verify, "_solve_paths", lambda *args: None)
    (result,) = run_suites(["equilibrium-uniqueness"], seed=0, cases=3)
    assert not result.passed
    assert result.detail == "case 0: the path engine stalled"


def test_seed_0_report_matches_the_golden_file():
    # Every suite at its full case count, through the command line.
    proc = subprocess.run(
        [sys.executable, "-m", "netimprove", "verify", "--seed", "0"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == GOLDEN.read_text()
