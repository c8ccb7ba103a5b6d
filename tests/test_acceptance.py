"""Acceptance suite: every release criterion at its pinned tolerance.

Runs the same checks as `dualwave verify` (default profile) and prints one
pass/fail line per criterion.
"""

import functools

import pytest

from dualwave import verify
from dualwave.core import DualParams
from dualwave.verify import CRITERIA, run_criteria

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


@pytest.fixture(scope="module")
def results():
    return run_criteria(profile="default")


def test_all_criteria_pass(results):
    width = max(len(r.name) for r in results)
    failed = []
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  measured={r.measured:.6g}  "
              f"bound={r.bound_text}  {status}")
        if not r.passed:
            failed.append(r.name)
    assert not failed, f"criteria failed: {failed}"


def test_every_registered_criterion_reported(results):
    reported = {r.name.split("[")[0] for r in results}
    assert reported == set(CRITERIA)


def test_madelung_round_trip_holds_at_zeta_not_hbar(monkeypatch):
    # the map divides S0 by zeta, so the gauge period is 2*pi*zeta; a
    # 2*pi*hbar shift (hbar = 1) would flip the sign of psi at zeta = 2
    monkeypatch.setattr(verify, "DualParams",
                        functools.partial(DualParams, zeta=2.0))
    results = verify.crit_madelung_round_trip(lambda bound: bound, {})
    assert [r.name for r in results if not r.passed] == []
