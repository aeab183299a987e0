"""Headline of embedded Trefftz (`et`) against standard DG (`dg`): per
case, degree ``p`` and mesh ``n``, the stage times, sizes, errors and
peak memory of both methods, written as one JSON file.

    python tools/headline.py --out BENCH.json

Each method assembles its own system from a volume pass of its own, as
`run` does for one method: `dg` is the volume pass, the DG facet pass
(`global_system`) and the DG solve; `et` is the volume pass,
`build_embedding` and `solve_embedded_trefftz` (the Trefftz facet pass and
the reduced solve). The error norms are timed apart and left out of the
ratio. The mesh and the space are built once per row and not timed.

Timing: in-process `time.perf_counter`, one BLAS thread, one untimed pass
first (it fills the caches and records the sizes), then the min of ``k``
repetitions of every stage, the two methods alternating. Peak RSS:
`ru_maxrss` of a child forked, before any pass of its row, for one untimed
pass of one method; it includes the resident set at the fork, which the
file records.

`ROT` is the advection-reaction data of `tests/flows.py::rotating_flow`, a
closed flow whose element graph is one strongly connected component.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.sparse as sparse  # noqa: E402
import sympy as sp  # noqa: E402

from trefftzdg import solver  # noqa: E402
from trefftzdg.analysis import compute_errors  # noqa: E402
from trefftzdg.basis import BrokenSpace  # noqa: E402
from trefftzdg.coefficients import builtin_case, manufactured_case  # noqa: E402
from trefftzdg.dg_forms import assemble_volume_terms, global_system  # noqa: E402
from trefftzdg.embedding import build_embedding  # noqa: E402
from trefftzdg.local_ops import AR, DAR  # noqa: E402
from trefftzdg.mesh import build_structured_mesh  # noqa: E402

#: case name -> (data, Trefftz kind)
CASES = {
    "AR_EXAMPLE": (lambda: builtin_case("AR_EXAMPLE"), AR),
    "ROT": (lambda: manufactured_case(
        beta=(sp.sympify("1/2 - y"), sp.sympify("x - 1/2")), gamma=1,
        exact=sp.sympify("sin(pi*(x + y))"), name="ROT"), AR),
    "DAR_EXAMPLE": (lambda: builtin_case("DAR_EXAMPLE"), DAR),
    "BOX_DIFFUSION_2D": (lambda: builtin_case("BOX_DIFFUSION_2D"), DAR),
}
#: the stages of each method whose sum is its time
STAGES = {"dg": ("volume_s", "facet_s", "solve_s"), "et": ("volume_s", "embedding_s", "solve_s")}


def _pass(method, space, coeffs, kind):
    """One run of ``method``: its stage times, solution and error report."""
    clock = [time.perf_counter()]

    def tick():
        clock.append(time.perf_counter())
        return clock[-1] - clock[-2]

    terms = assemble_volume_terms(space, coeffs)
    times = {"volume_s": tick()}
    if method == "dg":
        system = global_system(terms)
        times["facet_s"] = tick()
        u = solver.solve_standard_dg(system)
    else:
        embedding = build_embedding(space, coeffs, kind, system=terms)
        times["embedding_s"] = tick()
        u = solver.solve_embedded_trefftz(terms, embedding)
    times["solve_s"] = tick()
    report = compute_errors(u, coeffs)
    times["errors_s"] = tick()
    return times, u, report


def _sizes(method, space, coeffs, kind):
    """The untimed pass: the solve's sizes, read from the one ordered solve
    it makes, and its errors."""
    solves, ordered_solve = [], solver._ordered_solve

    def recording(system, blocks, rhs, label, widths=None, nearby=None):
        x, lu = ordered_solve(system, blocks, rhs, label, widths, nearby)
        solves.append((system, blocks, rhs, x, lu))
        return x, lu

    solver._ordered_solve = recording
    try:
        _, u, report = _pass(method, space, coeffs, kind)
    finally:
        solver._ordered_solve = ordered_solve
    ((system, blocks, rhs, x, lu),) = solves
    layout, schedule = system.layout, solver._schedule(system)
    matrix = sparse.bsr_matrix((blocks, layout.indices, layout.indptr), shape=(len(rhs),) * 2)
    return {
        "ndof": int(u.ndof_full if method == "dg" else u.ndof_trefftz),
        # stored block entries, the padding of narrower kernels included
        "nnz": int(blocks.size),
        "lu_fill": "swept" if lu is None else int(lu.L.nnz + lu.U.nnz),
        "levels": len(schedule.levels[1]) - 1 if schedule.acyclic else None,
        "rel_residual": float(np.linalg.norm(matrix @ x - rhs) / np.linalg.norm(rhs)),
        "l2error": report.l2_error,
        "dgerror": report.vh_error,
    }


def _peak_rss_mb(method, space, coeffs, kind):
    """``ru_maxrss`` in MB of a forked child that makes one pass of
    ``method``, and the resident set it started from."""
    # a fork, not a fresh interpreter: the child needs no import, and with
    # one BLAS thread the process has no other thread to lose
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child
        status = 1
        try:
            os.close(read)
            start = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            _pass(method, space, coeffs, kind)
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            os.write(write, json.dumps([start / 1024, peak / 1024]).encode())
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    with os.fdopen(read) as fh:
        text = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not text:
        raise RuntimeError(f"the peak-memory pass of {method} failed")
    return json.loads(text)


def run_row(case, p, n, k):
    """One row: both methods, their stage times (min of ``k``), sizes,
    errors and peak RSS, and the ``et/dg`` ratios."""
    data, kind = CASES[case]
    coeffs = data()
    space = BrokenSpace(build_structured_mesh(n), p)
    row = {"case": case, "p": p, "n": n, "kind": kind}
    memory = {method: _peak_rss_mb(method, space, coeffs, kind) for method in STAGES}
    sizes = {method: _sizes(method, space, coeffs, kind) for method in STAGES}
    # the methods alternate, so that the host's noise falls on both alike
    runs = {method: [] for method in STAGES}
    for i in range(k):
        for method in sorted(STAGES, reverse=i % 2 == 1):
            runs[method].append(_pass(method, space, coeffs, kind)[0])
    for method, passes in runs.items():
        times = {stage: min(run[stage] for run in passes) for stage in passes[0]}
        times["total_s"] = sum(times[stage] for stage in STAGES[method])
        at_fork, peak = memory[method]
        row[method] = {**times, **sizes[method], "peak_rss_mb": peak, "rss_at_fork_mb": at_fork}
    row["time_ratio"] = row["et"]["total_s"] / row["dg"]["total_s"]
    row["l2error_ratio"] = row["et"]["l2error"] / row["dg"]["l2error"]
    return row


def _revision():
    try:
        return subprocess.run(
            ["git", "-C", str(ROOT), "describe", "--always", "--dirty", "--abbrev=12"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--p", default="2,3,4,6", help="degrees (default 2,3,4,6)")
    parser.add_argument("--n", type=int, default=32, help="mesh of the table (default 32)")
    parser.add_argument("--scale-n", type=int, default=128,
                        help="mesh of the AR_EXAMPLE p = 3 scale point (default 128, 0: none)")
    parser.add_argument("--k", type=int, default=7, help="timed repetitions (default 7)")
    args = parser.parse_args(argv)
    points = [(case, p, args.n) for case in CASES for p in map(int, args.p.split(","))]
    if args.scale_n:
        points.append(("AR_EXAMPLE", 3, args.scale_n))
    rows = []
    for case, p, n in points:
        rows.append(run_row(case, p, n, args.k))
        print(f"{case} p={p} n={n}: et/dg time {rows[-1]['time_ratio']:.2f}, "
              f"l2error {rows[-1]['l2error_ratio']:.2f}", flush=True)
    result = {
        "meta": {
            "nproc": os.cpu_count(),
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "revision": _revision(),
            "blas_threads": 1,
            "repetitions": args.k,
            "timing": "in-process time.perf_counter; one untimed pass, then the min of "
                      "the repetitions per stage, dg and et alternating; mesh and space "
                      "built once per row, untimed",
            "peak_rss": "ru_maxrss of a child forked before the row's passes, one untimed "
                        "pass of one method; includes rss_at_fork_mb",
        },
        "rows": rows,
    }
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
