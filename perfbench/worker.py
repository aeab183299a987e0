"""One workload in one fresh interpreter: import, warm up, timed passes.

``run.py`` starts this script with the BLAS/OpenMP thread counts pinned
to 1 and reads the JSON object it prints last.  With ``--setup-only`` it
imports ``trefftzdg``, runs the warm-up commands and exits; ``run.py``
times that from outside as ``setup_s``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import sys
import tempfile
import time
import traceback
from pathlib import Path

from calibration import calibrate
from reference import PATH as REFERENCE_PATH
from reference import compare, parse_outputs, run_command
from tracer import Tracer
from workloads import commands

ROOT = Path(__file__).resolve().parents[1]


def _import_program():
    sys.path.insert(0, str(ROOT / "src"))
    import trefftzdg.cli

    source = Path(trefftzdg.cli.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise ImportError(f"trefftzdg imported from {source}, not from {ROOT / 'src'}")
    return trefftzdg.cli


def _environment():
    import numpy
    import scipy
    import sympy

    def blas(module):
        try:
            info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{info['name']} {info['version']}"
        except (KeyError, TypeError, ValueError):
            return "unknown"

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "sympy": sympy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "threads": {
            key: os.environ.get(key)
            for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def run_worker(workload, scale, seconds, seed, tracer=None, reference=None, setup_only=False):
    """Run the workload; returns the result dict ``run.py`` aggregates."""
    started = time.perf_counter()
    cli = _import_program()
    if tracer is not None:
        tracer.install()
    scratch = ROOT / ".bench_out"
    scratch.mkdir(exist_ok=True)
    result = {"attempted": 0, "failed": 0, "failures": [], "passes": [], "calibration": [],
              "finest": {}}
    with tempfile.TemporaryDirectory(dir=scratch) as out:
        for name, argv in commands(workload, "warmup", out).items():
            code, _ = run_command(cli.main, argv)
            if code != 0:
                raise RuntimeError(f"warm-up command {name} exited with {code}")
        result["setup_s"] = time.perf_counter() - started
        if setup_only:
            return result
        if tracer is not None:
            tracer.reset()
        calibrate()  # the first call pays one-time costs
        calibration = result["setup_calibration"] = calibrate()
        want = (reference or {}).get(scale, {}).get(workload, {})
        argvs = commands(workload, scale, out)
        order = list(argvs)
        rng = random.Random(seed)
        begin = time.perf_counter()
        while not result["passes"] or time.perf_counter() - begin < seconds:
            rng.shuffle(order)
            index = len(result["passes"])
            timings, speeds = {}, {}
            for name in order:
                if tracer is not None:
                    tracer.command = f"{index}:{name}"
                result["attempted"] += 1
                t0 = time.perf_counter()
                try:
                    code, stdout = run_command(cli.main, argvs[name])
                except Exception:  # a crashing command is a failed command
                    code, stdout = None, traceback.format_exc()
                timings[name] = time.perf_counter() - t0
                after = calibrate()
                speeds[name] = (calibration + after) / 2
                calibration = after
                bad = _check(name, code, stdout, argvs[name], want)
                if bad:
                    result["failed"] += 1
                    result["failures"].append(f"pass {index} {name}: {bad[0]}")
                elif index == 0 and argvs[name][0] == "run":
                    finest = parse_outputs(argvs[name], stdout)["rows"][-1]
                    n_list = argvs[name][argvs[name].index("--n") + 1]
                    result["finest"][name] = {"n": n_list.split(",")[-1],
                                              "l2error": float(finest[5])}
            result["passes"].append(timings)
            result["calibration"].append(speeds)
    if tracer is not None:
        values = tracer.layer_values()
        result["layers"] = [
            {name: values.get(f"{index}:{name}", {}) for name in timings}
            for index, timings in enumerate(result["passes"])
        ]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = _environment()
    return result


def _check(name, code, stdout, argv, want):
    if code != 0:
        return [f"exit code {code}: {stdout.strip()[-300:]}"]
    if name not in want:
        return ["no reference value recorded"]
    try:
        return compare(want[name], parse_outputs(argv, stdout))
    except (OSError, ValueError, IndexError, KeyError) as exc:
        return [f"unreadable output: {exc!r}"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace-file")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    tracer = Tracer() if args.trace_file else None
    reference = json.loads(REFERENCE_PATH.read_text())
    result = run_worker(args.workload, args.scale, args.seconds, args.seed,
                        tracer=tracer, reference=reference, setup_only=args.setup_only)
    if tracer is not None:
        tracer.write_jsonl(args.trace_file)
        tracer.uninstall()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
