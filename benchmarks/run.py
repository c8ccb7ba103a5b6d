"""Benchmark for dualwave: end-to-end metrics, or per-layer metrics traced.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload verify_full|run_mix|sweep_m1 \\
        --seed N --seconds S --trace 0|1

The program is imported from `src/` of the same checkout; nothing is
installed. With `--trace 0` the run measures the workload's operations
for S seconds and reports the end-to-end metrics. With `--trace 1` it
runs the workload untraced for about S/2 seconds, then the same number of
units with every layer function wrapped (see layers.py), and reports the
per-layer metrics plus the tracing overhead between the two halves.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The lines before it give
the environment and every metric by name and unit. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import warnings
from pathlib import Path

from inputs import inputs_hash

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_tmp"    # temporary outputs, removed at exit
TRACE_OUT = ROOT / ".bench_out"  # span records of traced runs

SETUP_REPEATS = 10  # set-ups timed before the units, and as many after
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s", "op_p50_s": "s", "op_tail_s": "s", "ops_per_s": "1/s",
    "serial_p50_s": "s", "peak_rss_mb": "MB",
}


def _import_program():
    """Import dualwave from this checkout's src/, or exit with an error."""
    if not (SRC / "dualwave" / "__init__.py").is_file():
        sys.exit(f"benchmark: no program source at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import dualwave

    if Path(dualwave.__file__).resolve().parent != SRC / "dualwave":
        sys.exit(f"benchmark: imported dualwave from {dualwave.__file__}, not {SRC}")
    from dualwave.madelung import AmplitudeFloorWarning

    # explicit-closure runs engage the amplitude floor; keep the filter
    # fixed so that no run depends on which warnings were shown before
    warnings.filterwarnings("ignore", category=AmplitudeFloorWarning)


class Timer:
    """Times one operation; when tracing, wraps it in a root span."""

    def __init__(self):
        self.tracer = None
        self.request = 0

    def __call__(self, label, fn, *args):
        """Returns (result, seconds); an exception is reported and gives None."""
        self.request += 1
        tracer = self.tracer
        if tracer is None:
            start = time.perf_counter()
            try:
                result = fn(*args)
            except Exception:  # a crashed operation counts as failed
                traceback.print_exc()
                result = None
            return result, time.perf_counter() - start
        tracer.request = self.request
        result, exc, seconds = tracer.span(f"bench.op.{label}", fn, args, {})
        if exc is not None:
            traceback.print_exception(exc)
        return result, seconds


# A fresh interpreter loads NumPy untimed, then times the import of the
# program's own modules: interpreter start-up and NumPy are not the program's
# set-up, and their wall time varies more than the rest of setup_s together.
_IMPORT_PROBE = ("import time, numpy\n"
                 "start = time.perf_counter()\n"
                 "import dualwave.cli, dualwave.verify\n"
                 "print(time.perf_counter() - start)\n")


def _import_seconds() -> float:
    """Seconds a fresh interpreter, with NumPy loaded, takes to import the
    CLI and verify modules."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], cwd=ROOT,
                         env=env, check=True, capture_output=True, text=True)
    return float(out.stdout.split()[-1])


def setup_samples(workload):
    """SETUP_REPEATS timings of the program's import plus input generation
    and expansion, and the set of input hashes they produced."""
    times, hashes = [], set()
    for _ in range(SETUP_REPEATS):
        imported = _import_seconds()
        start = time.perf_counter()
        texts = workload.setup()
        times.append(imported + time.perf_counter() - start)
        hashes.add(inputs_hash(texts))
    return times, hashes


def run_units(workload, seconds, n_units=None):
    """Run whole units until `seconds` have passed (or exactly n_units)."""
    units = []
    start = time.perf_counter()
    while True:
        units.append(workload.unit())
        if n_units is not None:
            if len(units) == n_units:
                return units
        elif time.perf_counter() - start >= seconds:
            return units


def tail(latencies):
    """(value, percentile): the highest percentile with TAIL_BEYOND samples
    beyond it, or the slowest sample when there are too few."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    index = n - TAIL_BEYOND - 1
    return ordered[index], 100.0 * (index + 1) / n


def end_to_end(units, setup_s):
    primary = [op.seconds for unit in units for op in unit if not op.serial]
    serial = [op.seconds for unit in units for op in unit if op.serial] or primary
    tails = [tail([op.seconds for op in unit if not op.serial]) for unit in units]
    return {
        "setup_s": setup_s,
        "op_p50_s": statistics.median(primary),
        "op_tail_s": statistics.median(t for t, _ in tails),
        "ops_per_s": len(primary) / sum(primary),
        "serial_p50_s": statistics.median(serial),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }, {"tail_percentile": tails[0][1], "units": len(units),
        "samples": len(primary)}


def _git_sha():
    if not (ROOT / ".git").exists():  # git would search the parent directories
        return "none (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "none (not a git checkout)"
    return out.stdout.strip()


def _src_sha256():
    h = hashlib.sha256()
    for path in sorted((SRC / "dualwave").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(args, input_hash):
    import numpy as np

    from dualwave.scenarios import DEFAULT_GRID

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "git_sha": _git_sha(), "src_sha256": _src_sha256(),
        "grid_n": DEFAULT_GRID.n_points, "input_sha256": input_hash,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify_full", "run_mix", "sweep_m1"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    import layers
    from tracer import Tracer
    from workloads import WORKLOADS

    SCRATCH.mkdir(exist_ok=True)
    tempfile.tempdir = str(SCRATCH)  # verify's own temporary directories too
    with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
        timer = Timer()
        workload = WORKLOADS[args.workload](args.seed, Path(tmp), timer)
        if args.trace:
            probe = layers.fft_calls_per_step()
            input_hash = inputs_hash(workload.setup())
            tracer = Tracer()
            plain = run_units(workload, args.seconds / 2)
            timer.tracer = tracer
            undo = layers.install(tracer)
            try:
                traced = run_units(workload, 0, n_units=len(plain))
            finally:
                layers.uninstall(undo)
                timer.tracer = None
            units = plain + traced
            metrics = layers.per_layer_metrics(tracer, probe, plain, traced)
            units_of = layers.PER_LAYER_UNITS
            TRACE_OUT.mkdir(exist_ok=True)
            spans_path = TRACE_OUT / f"spans_{args.workload}_seed{args.seed}.jsonl"
            layers.write_spans(tracer, spans_path)
            extra = {"spans_file": str(spans_path.relative_to(ROOT))}
        else:
            # set-ups on both sides of the units, so that their median
            # covers the machine's speed over the whole run
            before, hashes = setup_samples(workload)
            units = run_units(workload, args.seconds)
            after, hashes_after = setup_samples(workload)
            if len(hashes | hashes_after) != 1:
                raise RuntimeError("input generation is not deterministic")
            input_hash = hashes.pop()
            metrics, extra = end_to_end(units, statistics.median(before + after))
            units_of = END_TO_END_UNITS

    try:
        SCRATCH.rmdir()
    except OSError:  # another run still uses it
        pass
    ops = [op for unit in units for op in unit]
    failed = sum(not op.ok for op in ops)
    env = environment(args, input_hash)
    for key, value in {**env, **extra}.items():
        print(f"# {key}: {value}")
    if not args.trace:
        for issue_name, metric in workload.issue_names.items():
            print(f"{issue_name:<24} {metrics[metric]:>16.6g} {units_of[metric]}")
        print(f"{'error_rate':<24} {failed / len(ops):>16.6g} ratio")
    for name, value in metrics.items():
        print(f"{name:<52} {value:>16.6g} {units_of[name]}")
    print(json.dumps({
        "correct": failed == 0, "attempted": len(ops), "failed": failed,
        "metrics": {name: {"value": value, "unit": units_of[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
