"""Tests of the benchmark itself: exact counts, seeded inputs, tracing.

Run with `python3 -m pytest benchmarks`.
"""

import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import inputs
import layers
from tracer import Tracer

from dualwave import cli, diagnostics, hamilton_jacobi, wavesolver
from dualwave.core import RealField, spectral_derivative_values
from dualwave.scenarios import DEFAULT_GRID, expand


@pytest.mark.filterwarnings("ignore:amplitude floor engaged")
def test_fft_calls_per_step_are_exact():
    assert layers.fft_calls_per_step() == {
        "linear": 4, "nonlinear": 16, "explicit": 8, "hj": 20}


def test_same_seed_gives_identical_inputs():
    a = [inputs.render_ini(c) for c in inputs.run_mix_configs(7)]
    b = [inputs.render_ini(c) for c in inputs.run_mix_configs(7)]
    c = [inputs.render_ini(c) for c in inputs.run_mix_configs(8)]
    assert inputs.inputs_hash(a) == inputs.inputs_hash(b)
    assert inputs.inputs_hash(a) != inputs.inputs_hash(c)
    assert inputs.sweep_m1_values(7) == inputs.sweep_m1_values(7)


@pytest.mark.parametrize("seed", range(20))
def test_mix_has_fixed_kinds_and_stays_inside_guards(seed):
    configs = inputs.run_mix_configs(seed)
    assert tuple(c["kind"] for c in configs) == inputs.RUN_MIX_KINDS
    for cfg in configs:
        scen, integ = cfg["scenario"], cfg["integration"]
        if cfg["kind"] == "hj_focusing":
            t_end = integ["dt"] * integ["n_steps"]
            assert t_end < cfg["params"]["m0"] / (2 * abs(scen["channel0_coeff"]))
        if cfg["kind"] == "mass_asym_plane_wave":
            m0, m1 = cfg["params"]["m0"], cfg["params"]["m1"]
            assert 1.0 < m1 <= 1.5
            reduced = m0 * m1 / (m0 + m1)
            k_max = math.pi * inputs.GRID_N / (inputs.GRID_X_MAX - inputs.GRID_X_MIN)
            assert integ["dt"] * k_max ** 2 / (4 * reduced) < 0.5
    assert all(1.0 < m1 <= 1.5 for m1 in inputs.sweep_m1_values(seed))


def test_generated_configs_load_and_expand(tmp_path):
    for cfg in inputs.run_mix_configs(3):
        path = tmp_path / f"{cfg['label']}.ini"
        path.write_text(inputs.render_ini(cfg))
        spec, grid, _ = cli.load_config(str(path))
        expand(spec, grid)
        assert spec.name == cfg["label"]


def test_install_wraps_every_binding_and_uninstall_restores():
    tracer = Tracer()
    undo = layers.install(tracer)
    try:
        for mod in (wavesolver, hamilton_jacobi, diagnostics):
            assert mod.spectral_derivative_values is not spectral_derivative_values
        rho = RealField(np.exp(-DEFAULT_GRID.x ** 2), DEFAULT_GRID)
        diagnostics.quantum_potential(rho, 1.0, 1.0)
    finally:
        layers.uninstall(undo)
    for mod in (wavesolver, hamilton_jacobi, diagnostics):
        assert mod.spectral_derivative_values is spectral_derivative_values
    assert tracer.aggregate(
        "core.spectral_derivative_values.by.diagnostics")[0] == 1
    assert tracer.aggregate("core.fft")[0] == 2  # one rfft, one irfft


def _sleep_span(tracer, name, seconds):
    tracer.span(name, time.sleep, (seconds,), {})


def test_pool_spans_name_the_adopting_span_and_self_time_uses_union():
    tracer = Tracer()

    def sweep():
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(lambda _: _sleep_span(tracer, "work", 0.05), range(2)))

    _, exc, dur = tracer.span("sweep", sweep, (), {}, adopting=True)
    assert exc is None
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span[4], []).append(span)
    (sweep_span,) = by_name["sweep"]
    main_thread = threading.get_ident()
    assert sweep_span[3] == main_thread
    for work in by_name["work"]:
        assert work[1] == sweep_span[0]
        assert work[3] != main_thread
    calls, incl, self_s = tracer.aggregate("sweep")
    # the two workers overlap: subtracting their summed 0.1 s would go negative
    assert calls == 1 and 0.0 <= self_s < 0.5 * incl


def test_leaf_time_counts_as_covered():
    tracer = Tracer()

    def parent():
        start = time.perf_counter()
        time.sleep(0.02)
        tracer.leaf("leaf", start, time.perf_counter(), 16)

    tracer.span("parent", parent, (), {})
    _, incl, self_s = tracer.aggregate("parent")
    assert self_s < 0.5 * incl
    assert tracer.counter("leaf.bytes") == 16
