"""Seeded inputs for the `run_mix` and `sweep_m1` workloads.

The seed draws parameters only. The number of runs of each kind is fixed
(one config per entry of RUN_MIX_KINDS), because a mix with randomly drawn
kinds changes the total work by more than the benchmark's bounds. Every
drawn value stays inside the CLI's own guards:

* focusing Hamilton-Jacobi runs stop at half their caustic time
  m0 / (2 |coeff|);
* the mass-asymmetric run keeps dt * zeta * k_max^2 / (4 m) at most
  0.26, below the 0.5 stability guard (m >= 1/2 for m0 = 1, m1 > 1).

Configs are rendered as the INI files `dualwave run --config` reads, with
`repr` floats so the file round-trips every drawn value exactly.
"""

from __future__ import annotations

import hashlib
import random

GRID_N = 1024
GRID_X_MIN = -10.0
GRID_X_MAX = 10.0

RUN_MIX_KINDS = (
    "free", "harmonic", "double_well", "constant_vg1", "two_gaussian",
    "plane_wave", "mass_asym_plane_wave", "explicit_gaussian",
    "hj_linear", "hj_focusing", "bateman", "ck", "dekker",
)

SWEEP_POINTS = 4

# Integration settings per kind: the cadences of the matching builtins.
_WAVE_STEPS = {"dt": 1e-3, "n_steps": 1000, "snapshot_every": 100}
_HJ_FOCUS_DT = 2e-4
_HJ_FOCUS_STEPS = 2500
_OSC_STEPS = {"dt": 1e-3, "n_steps": 10000, "snapshot_every": 10}


def _wave(rng, kind):
    """Scenario keys and integration settings for one wave-kind config."""
    u = rng.uniform
    gauss = {"initial_type": "gaussian", "initial_sigma": u(0.45, 0.7),
             "initial_center": u(-1.0, 1.0), "initial_k": u(-2.0, 2.0)}
    params = {"m0": 1.0, "m1": 1.0}
    integ = dict(_WAVE_STEPS)
    scen = {"kind": "wave"}
    if kind == "free":
        scen.update(gauss)
    elif kind == "harmonic":
        scen.update(gauss, vg0_type="harmonic", vg0_omega=u(0.8, 1.5))
    elif kind == "double_well":
        b = u(1.5, 2.5)
        scen.update(gauss, initial_center=-b, initial_k=0.0,
                    vg0_type="double_well", vg0_a=u(0.005, 0.02), vg0_b=b)
    elif kind == "constant_vg1":
        scen.update(gauss, vg1_type="constant", vg1_v0=-u(0.2, 0.8))
    elif kind == "two_gaussian":
        scen.update(initial_type="two_gaussian", initial_sigma=u(0.45, 0.6),
                    initial_separation=u(4.0, 6.0), initial_k_rel=u(2.0, 5.0))
        integ.update(n_steps=625, snapshot_every=125)
    elif kind == "plane_wave":
        scen.update(initial_type="plane_wave", initial_mode=rng.randint(4, 16))
        integ.update(n_steps=500, snapshot_every=25)
    elif kind == "mass_asym_plane_wave":
        scen.update(initial_type="plane_wave", initial_mode=rng.randint(4, 12))
        params["m1"] = 1.5 - 0.5 * rng.random()  # in (1, 1.5]
        integ.update(dt=2e-5)
    elif kind == "explicit_gaussian":
        # explicit closure over a short horizon; the symmetric-closure
        # coupling potentials keep the evolved equation linear
        scen.update(gauss, closure_mode="explicit",
                    potential_mode="symmetric_closure")
        integ.update(n_steps=200, snapshot_every=20)
    return params, scen, integ


def _hj(rng, kind):
    params = {"m0": rng.uniform(0.8, 1.5), "m1": 1.0}
    scen = {"kind": "hj", "channel1_type": "zero"}
    if kind == "hj_linear":
        scen.update(channel0_type="linear", channel0_slope=rng.uniform(0.5, 2.0))
        integ = dict(_WAVE_STEPS)
    else:
        # coeff in [-0.5, -0.25] * m0 puts the caustic at t >= 1; the run
        # stops at t = 0.5
        scen.update(channel0_type="quadratic",
                    channel0_coeff=-params["m0"] * rng.uniform(0.25, 0.5))
        integ = {"dt": _HJ_FOCUS_DT, "n_steps": _HJ_FOCUS_STEPS,
                 "snapshot_every": 250}
    return params, scen, integ


def _oscillator(rng, kind):
    u = rng.uniform
    scen = {"kind": "oscillator", "formalism": kind, "gamma": u(0.1, 0.4),
            "omega": u(0.8, 1.5), "mass": u(0.5, 2.0), "x0": u(0.5, 1.5),
            "v0": u(-0.5, 0.5)}
    if kind != "ck":
        scen.update(y0=u(0.5, 1.5), vy0=u(-0.5, 0.5))
    return {"m0": 1.0, "m1": 1.0}, scen, dict(_OSC_STEPS)


def run_mix_configs(seed: int) -> list:
    """One config per kind, in RUN_MIX_KINDS order.

    Each config is a dict with keys `kind`, `label`, `params`, `scenario`
    and `integration`; `render_ini` turns it into a config file.
    """
    rng = random.Random(seed)
    configs = []
    for i, kind in enumerate(RUN_MIX_KINDS):
        if kind.startswith("hj_"):
            params, scen, integ = _hj(rng, kind)
        elif kind in ("bateman", "ck", "dekker"):
            params, scen, integ = _oscillator(rng, kind)
        else:
            params, scen, integ = _wave(rng, kind)
        label = f"mix{i:02d}_{kind}"
        scen = {"label": label, **scen}
        configs.append({"kind": kind, "label": label, "params": params,
                        "scenario": scen, "integration": integ})
    return configs


def _ini_value(v) -> str:
    return repr(v) if isinstance(v, float) else str(v)


def render_ini(config: dict) -> str:
    """The config file text for one generated config."""
    sections = (
        ("grid", {"n": GRID_N, "x_min": GRID_X_MIN, "x_max": GRID_X_MAX}),
        ("params", config["params"]),
        ("scenario", config["scenario"]),
        ("integration", config["integration"]),
        ("output", {"format": "csv"}),
    )
    lines = []
    for name, keys in sections:
        lines.append(f"[{name}]")
        lines.extend(f"{k} = {_ini_value(v)}" for k, v in keys.items())
        lines.append("")
    return "\n".join(lines)


def sweep_m1_values(seed: int, n: int = SWEEP_POINTS) -> list:
    """n distinct m1 values in (1, 1.5] for the residual-mass sweep."""
    rng = random.Random(seed)
    return [1.5 - 0.5 * rng.random() for _ in range(n)]


def inputs_hash(texts) -> str:
    """sha256 over the generated input texts, in order."""
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()
