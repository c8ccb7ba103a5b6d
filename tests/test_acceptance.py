"""Acceptance suite: every release criterion at its pinned tolerance.

Runs the same checks as `dualwave verify` and prints one pass/fail line
per criterion.
"""

import functools

import pytest

from dualwave import verify
from dualwave.core import DualParams
from dualwave.verify import CRITERIA, run_criteria

# every criterion's bound, in report order: a change to a bound fails here,
# while the measured values may move within it
BOUNDS = [
    ("symmetric_limit[free_gaussian_symmetric]", "< 1e-08"),
    ("symmetric_limit[harmonic_ground_symmetric]", "< 1e-08"),
    ("symmetric_limit[double_well_symmetric]", "< 1e-08"),
    ("free_spreading", "< 1e-06"),
    ("harmonic_stationarity[amplitude]", "< 1e-07"),
    ("harmonic_stationarity[energy]", "< 1e-07"),
    ("norm_conservation[symmetric]", "< 1e-08"),
    ("norm_conservation[drift_law]", "< 0.0001"),
    ("residual_mass_term[bracket]", "< 1e-10"),
    ("residual_mass_term[symmetric_shift]", "< 1e-14"),
    ("madelung_round_trip[identity]", "< 1e-10"),
    ("madelung_round_trip[conjugation]", "< 1e-12"),
    ("madelung_round_trip[gauge]", "< 1e-12"),
    ("oscillator_oracles[bateman]", "< 1e-06"),
    ("oscillator_oracles[ck]", "< 1e-06"),
    ("oscillator_oracles[dekker]", "< 1e-06"),
    ("oscillator_oracles[energy_rate_x]", "< 1e-06"),
    ("oscillator_oracles[energy_rate_y]", "< 1e-06"),
    ("hj_free_caustic[free_exact]", "< 1e-08"),
    ("hj_free_caustic[caustic_time]", "in [0.8, 1]"),
    ("convergence_orders[rk4]", "in [12, 20]"),
    ("convergence_orders[split_step]", "in [3.5, 4.5]"),
    ("zeta_dispersion", "< 1e-08"),
    ("quantum_potential[gaussian]", "< 1e-08"),
    ("quantum_potential[bohmian_balance]", "< 1e-07"),
    ("quantum_potential[scale_invariance]", "< 1e-10"),
    ("determinism", "bytes equal"),
]


@pytest.fixture(scope="module")
def results():
    return run_criteria()


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


def test_bounds_are_pinned(results):
    assert [(r.name, r.bound_text) for r in results] == BOUNDS


def test_every_registered_criterion_reported(results):
    # in CRITERIA order, although the criteria run as tasks on workers
    reported = dict.fromkeys(r.name.split("[")[0] for r in results)
    assert list(reported) == list(CRITERIA)


def test_madelung_round_trip_holds_at_zeta_not_hbar(monkeypatch):
    # the map divides S0 by zeta, so the gauge period is 2*pi*zeta; a
    # 2*pi*hbar shift (hbar = 1) would flip the sign of psi at zeta = 2
    monkeypatch.setattr(verify, "DualParams",
                        functools.partial(DualParams, zeta=2.0))
    results = verify.crit_madelung_round_trip({})
    assert [r.name for r in results if not r.passed] == []
