"""Correctness gate: parse what each command wrote or printed and compare
it with the values recorded from the unmodified program.

Run as a script to record ``reference.json`` again::

    python3 perfbench/reference.py

Tolerances.  Integers and names compare exactly, ``h`` to 1e-12.
``l2error`` and ``dgerror`` compare to ``RTOL``: solving the same systems
with the MMD_ATA and NATURAL column orderings instead of COLAMD moved them
by at most 7e-7 relative (BOX_DIFFUSION_2D et, n = 32), and every
workload passes this gate with MMD_ATA; a change of 1e-3 in one error is
caught (see the smoke test).  Diagnostics
print 4 significant digits, so ``sigma_min_rel`` compares to 2e-3; the
roundoff-level witnesses ``rho_max`` and the relative block gap only have
to stay below fixed ceilings.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import sys
import tempfile
from pathlib import Path

RTOL = 1e-5
H_RTOL = 1e-12
PRINTED_RTOL = 2e-3
RHO_MAX_CEILING = 1e-10
GAP_REL_CEILING = 1e-8

PATH = Path(__file__).with_name("reference.json")


def parse_outputs(argv, stdout):
    """The checked outputs of one finished command."""
    if argv[0] == "run":
        csv = Path(argv[argv.index("--out") + 1]).read_text()
        lines = csv.splitlines()
        return {"header": lines[0], "rows": [line.split(",") for line in lines[1:]]}
    found = {
        "rho_max": re.search(r"^rho_max = (\S+)$", stdout, re.M),
        "sigma_min_rel": re.search(r"^sigma_min_rel = (\S+)$", stdout, re.M),
        "gap_rel": re.search(r"^block_equivalence_gap = \S+ \(relative (\S+)\)$", stdout, re.M),
    }
    out = {key: float(match.group(1)) if match else None for key, match in found.items()}
    out["dim_table"] = re.findall(r"^dim table .*$", stdout, re.M)
    sigma_csv = Path(argv[argv.index("--out") + 1]).read_text()
    out["sigma_rows"] = len(sigma_csv.splitlines()) - 1
    return out


def _close(got, want, rtol):
    return math.isfinite(got) and abs(got - want) <= rtol * abs(want)


def compare(want, got):
    """Mismatches between recorded and produced outputs, as messages."""
    if "rows" in want:
        return _compare_rows(want, got)
    bad = []
    for key in ("dim_table", "sigma_rows"):
        if got[key] != want[key]:
            bad.append(f"{key}: got {got[key]!r}, want {want[key]!r}")
    if got["sigma_min_rel"] is None or not _close(
        got["sigma_min_rel"], want["sigma_min_rel"], PRINTED_RTOL
    ):
        bad.append(f"sigma_min_rel: got {got['sigma_min_rel']}, want {want['sigma_min_rel']}")
    for key, ceiling in (("rho_max", RHO_MAX_CEILING), ("gap_rel", GAP_REL_CEILING)):
        if got[key] is None or not got[key] <= ceiling:
            bad.append(f"{key}: got {got[key]}, want <= {ceiling:g} (recorded {want[key]})")
    return bad


def _compare_rows(want, got):
    if got["header"] != want["header"] or len(got["rows"]) != len(want["rows"]):
        return [f"CSV shape: got {len(got['rows'])} rows, want {len(want['rows'])}"]
    bad = []
    for got_row, want_row in zip(got["rows"], want["rows"]):
        method, p, h, ndof_full, ndof_trefftz, l2error, dgerror = got_row
        exact = (method, p, ndof_full, ndof_trefftz)
        want_exact = tuple(want_row[i] for i in (0, 1, 3, 4))
        try:
            ok = (
                exact == want_exact
                and _close(float(h), float(want_row[2]), H_RTOL)
                and _close(float(l2error), float(want_row[5]), RTOL)
                and _close(float(dgerror), float(want_row[6]), RTOL)
            )
        except ValueError:
            ok = False
        if not ok:
            bad.append(f"row {','.join(got_row)}: want {','.join(want_row)}")
    return bad


def run_command(main, argv):
    """Run one CLI command in-process; returns (exit code, stdout)."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


def record():
    """Run every command at every scale once and write ``reference.json``."""
    root = Path(__file__).resolve().parents[1]
    sys.path.insert(0, str(root / "src"))
    from trefftzdg.cli import main
    from workloads import SCALES, WORKLOADS, commands

    table = {}
    for scale in SCALES:
        for workload in WORKLOADS:
            scratch = root / ".bench_out"
            scratch.mkdir(exist_ok=True)
            with tempfile.TemporaryDirectory(dir=scratch) as out:
                for name, argv in commands(workload, scale, out).items():
                    code, stdout = run_command(main, argv)
                    if code != 0:
                        raise SystemExit(f"{workload} {name} exited with {code}")
                    entry = parse_outputs(argv, stdout)
                    table.setdefault(scale, {}).setdefault(workload, {})[name] = entry
                    print(scale, workload, name, "recorded", flush=True)
    PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    record()
