"""`verify.run_criteria` on the process pool of `core.run_tasks`: the
order and values of a serial run, no worker left running, and a worker's
error re-raised as itself; `run` and the imports load no pool."""

import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dualwave
from dualwave import core, verify
from dualwave.core import BlowUpError, ConfigurationError

CHEAP = ("madelung_round_trip", "quantum_potential", "zeta_dispersion",
         "free_spreading")

# a worker sees criteria patched into the parent only when it is forked
needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="patched criteria reach forked workers only")


@pytest.fixture
def two_cpus(monkeypatch):
    """Make run_criteria use its pool even on a one-CPU machine."""
    monkeypatch.setattr(core, "usable_cpus", lambda: 2)


def test_tasks_cover_every_criterion_once_with_the_shared_run_first():
    tasks = verify._tasks(list(verify.CRITERIA))
    assert tasks[0] == ("harmonic_stationarity", "norm_conservation")
    flat = [name for task in tasks for name in task]
    assert sorted(flat) == sorted(verify.CRITERIA)


def test_pool_results_match_serial_in_criteria_order(monkeypatch):
    order = [name for name in verify.CRITERIA if name in CHEAP]
    monkeypatch.setattr(verify, "CRITERIA",
                        {name: verify.CRITERIA[name] for name in order})
    monkeypatch.setattr(core, "usable_cpus", lambda: 1)
    serial = verify.run_criteria()
    monkeypatch.setattr(core, "usable_cpus", lambda: 2)
    pooled = verify.run_criteria()
    assert list(dict.fromkeys(r.name.split("[")[0] for r in pooled)) == order
    assert [repr(r) for r in pooled] == [repr(r) for r in serial]
    assert multiprocessing.active_children() == []


@needs_fork
def test_tasks_run_on_workers(monkeypatch, two_cpus):
    def where(cache):
        return [verify.CriterionResult("where", os.getpid(), "", True)]

    monkeypatch.setattr(verify, "CRITERIA", {"where": where, "also": where})
    pids = {r.measured for r in verify.run_criteria()}
    assert os.getpid() not in pids


@needs_fork
@pytest.mark.parametrize("error", [
    BlowUpError("blow-up at step 7", step=7, partial=[1.0]),
    ConfigurationError("bad criterion input"),
], ids=lambda error: type(error).__name__)
def test_worker_error_arrives_as_its_own_type(monkeypatch, two_cpus, error):
    def failing(cache):
        raise error

    monkeypatch.setattr(verify, "CRITERIA", {
        "failing": failing,
        "quantum_potential": verify.CRITERIA["quantum_potential"]})
    with pytest.raises(type(error)) as info:
        verify.run_criteria()
    assert (str(info.value), vars(info.value)) == (str(error), vars(error))
    assert multiprocessing.active_children() == []


def loaded_pool_modules(statements):
    """The pool modules in a fresh interpreter's sys.modules after it runs
    `statements`."""
    probe = (statements + "\nimport sys\n"
             "print(sorted(m for m in ('multiprocessing', "
             "'concurrent.futures.process') if m in sys.modules))\n")
    src = str(Path(dualwave.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    return out.stdout.strip().splitlines()[-1]


def test_import_loads_no_process_pool():
    # the benchmark's setup_s times this import; the pool is imported lazily
    assert loaded_pool_modules("import dualwave.cli, dualwave.verify") == "[]"


def test_run_loads_no_process_pool(tmp_path):
    # a run steps in this process; the pool's imports would show in the
    # benchmark's run_mix peak_rss_mb and setup_s
    assert loaded_pool_modules(
        "from dualwave.cli import main\n"
        "assert main(['run', '--scenario', 'free_gaussian_symmetric', "
        f"'--out', {str(tmp_path)!r}]) == 0") == "[]"
