"""Benchmark of the trefftzdg CLI: time to solution per workload, set-up
time and peak memory, with a traced run that splits the time by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ar-sweep --seed 1 --seconds 30 --trace 0

Load model: a closed loop with one client.  Each command starts when the
previous one returns, in one worker process per run (so ``peak_rss_mb``
belongs to the workload) with BLAS/OpenMP threads pinned to 1.
``setup_s`` is the median wall time of several fresh interpreters that
import ``trefftzdg`` and run the workload's commands at ``n = 1``.  With
``--trace 1`` a second worker runs with the layer hooks installed and
the difference between the two workers is printed as tracing overhead.

Times are host-speed normalised (see ``calibration.py``): each command
and each set-up interpreter is scaled by ``REFERENCE_S`` over the
calibration time measured just before and after it.  The measured
medians are printed beside them.

Every line but the last is for people; the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# before numpy loads: holds for the calibration here and for every worker
os.environ.update(PINNED)

from calibration import REFERENCE_S, calibrate  # noqa: E402
from workloads import COMMANDS, END_TO_END, LAYERS, PER_LAYER, WORKLOADS, applies  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 3
#: a run must end within 180 s; workers are killed at this deadline
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _normalised(seconds, calibration):
    return seconds * REFERENCE_S / calibration


def _pass_times(worker):
    """Per pass: {command: normalised seconds}."""
    return [
        {name: _normalised(t, cal[name]) for name, t in timings.items()}
        for timings, cal in zip(worker["passes"], worker["calibration"])
    ]


def _spawn(args, deadline):
    """Run ``worker.py`` with ``args``; returns (wall seconds, result)."""
    command = [sys.executable, str(HERE / "worker.py"), *args]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            command, cwd=ROOT, capture_output=True,
            text=True, timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {' '.join(args)} ran past the deadline") from exc
    wall = time.perf_counter() - t0
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}")
    try:
        return wall, json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise BenchError(f"worker {' '.join(args)} printed no result") from exc


def _layer_metrics(worker):
    """Per-layer metrics, the median over traced passes; 0 for commands
    the workload does not run."""
    out = {}
    missing = set()
    for quantity in LAYERS:
        for command in COMMANDS:
            if not applies(quantity, command):
                continue
            values = [p[command][quantity] for p in worker["layers"]
                      if command in p and quantity in p[command]]
            ran = any(command in p for p in worker["layers"])
            if ran and not values:
                missing.add(quantity)
                continue
            out[f"{quantity}.{command}"] = statistics.median(values) if values else 0
    for quantity in sorted(missing):
        print(f"absent: {quantity}.* (hook target missing)")
    return out


def _print_report(workload, untraced, setup, traced):
    passes = _pass_times(untraced)
    print("env " + json.dumps(untraced["env"], sort_keys=True))
    print(f"workload {workload}: {WORKLOADS[workload]['why']}")
    print(f"samples: {len(passes)} timed passes, {len(setup)} set-up interpreters")
    calibrations = [c for cal in untraced["calibration"] for c in cal.values()]
    print(f"calibration {statistics.median(calibrations):.6g} s median "
          f"(reference {REFERENCE_S} s); measured time_to_solution "
          f"{statistics.median(sum(p.values()) for p in untraced['passes']):.6g} s, "
          f"setup {statistics.median(wall for wall, _ in setup):.6g} s")
    e2e = {
        "time_to_solution_s": statistics.median(sum(p.values()) for p in passes),
        "setup_s": statistics.median(_normalised(wall, cal) for wall, cal in setup),
        "peak_rss_mb": untraced["peak_rss_mb"],
    }
    for name, value in e2e.items():
        print(f"metric {name} {value:.6g} {END_TO_END[name]}")
    per_command = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
    for name, value in sorted(per_command.items()):
        print(f"metric {name}_s {value:.6g} s (median of {len(passes)})")
    attempted = untraced["attempted"] + (traced["attempted"] if traced else 0)
    failed = untraced["failed"] + (traced["failed"] if traced else 0)
    print(f"metric fail_ratio {failed / attempted:.6g} ratio ({failed} of {attempted} commands)")
    for failure in untraced["failures"] + (traced["failures"] if traced else []):
        print(f"FAILED {failure}")
    if "dg" in per_command and "et" in per_command:
        dg, et = per_command["dg"], per_command["et"]
        print(f"ratio et_s/dg_s {et / dg:.4g} (et_s {et:.4g} s, dg_s {dg:.4g} s)")
    finest = untraced["finest"]
    if "dg" in finest and "et" in finest:
        dg, et = finest["dg"]["l2error"], finest["et"]["l2error"]
        print(f"ratio l2error(et)/l2error(dg) at n={finest['dg']['n']} {et / dg:.4g} "
              f"(et {et:.6e}, dg {dg:.6e})")
    overhead = {}
    if traced:
        traced_e2e = {
            "time_to_solution_s": statistics.median(
                sum(p.values()) for p in _pass_times(traced)),
            "setup_s": _normalised(traced["setup_s"], traced["setup_calibration"]),
            "peak_rss_mb": traced["peak_rss_mb"],
        }
        untraced_e2e = dict(
            e2e, setup_s=_normalised(untraced["setup_s"], untraced["setup_calibration"]))
        for name, value in traced_e2e.items():
            overhead[f"trace.overhead.{name}"] = value - untraced_e2e[name]
            print(f"overhead {name} {value - untraced_e2e[name]:+.6g} {END_TO_END[name]} "
                  f"(traced {value:.6g}, untraced {untraced_e2e[name]:.6g})")
    return e2e, overhead, attempted, failed


def run(workload, seed, seconds, trace, scale="full"):
    """Measure one workload; returns the result object of the last line."""
    if workload not in WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}; expected one of {sorted(WORKLOADS)}")
    if not (ROOT / "src" / "trefftzdg" / "__init__.py").is_file():
        raise BenchError(f"no trefftzdg sources under {ROOT / 'src'}")
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", workload, "--scale", scale, "--seed", str(seed)]
    calibrate()  # the first call pays one-time costs
    setup = []
    for _ in range(SETUP_RUNS):
        before = calibrate()
        wall = _spawn(common + ["--setup-only"], deadline)[0]
        setup.append((wall, (before + calibrate()) / 2))
    share = seconds / 2 if trace else seconds
    _, untraced = _spawn(common + ["--seconds", str(share)], deadline)
    traced = None
    if trace:
        (ROOT / ".bench_out").mkdir(exist_ok=True)
        trace_file = ROOT / ".bench_out" / f"trace-{workload}.jsonl"
        _, traced = _spawn(common + ["--seconds", str(share), "--trace-file", str(trace_file)],
                           deadline)
        print(f"trace spans written to {trace_file.relative_to(ROOT)}")
    e2e, overhead, attempted, failed = _print_report(workload, untraced, setup, traced)
    if trace:
        metrics = {**_layer_metrics(traced), **overhead}
        units = PER_LAYER
    else:
        metrics, units = e2e, END_TO_END
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description="trefftzdg benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: n <= 2, for the benchmark's own test")
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace, scale=args.scale)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
