"""Batch experiment runner and diagnostics CLI.

Subcommands: ``run`` (convergence sweeps to CSV + EOC summary),
``diagnose`` (framework witnesses for one configuration), ``dump-mesh``.
Experiment output is deterministic: fixed orderings everywhere, rows
sorted before writing, LF line endings.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .analysis import compute_errors, estimate_eoc, run_diagnostics
from .basis import BrokenSpace
from .coefficients import BUILTIN_CASES, builtin_case
from .dg_forms import assemble_volume_terms, global_system
from .embedding import build_embedding, export_sigma_csv
from .local_ops import AR, BOX_SCALE, DAR, DAR_BOX, KINDS, QT_DIFFUSION, kind_misfit
from .mesh import build_structured_mesh
from .solver import SolverError, solve_embedded_trefftz, solve_standard_dg

CSV_HEADER = "method,p,h,ndof_full,ndof_trefftz,l2error,dgerror"

METHODS = ("dg", "et", "etbox", "qt")

MAX_DEGREE = 6
MAX_SUBDIVISIONS = 128

#: keys a ``run --config`` file may set, one per ``run`` option
_CONFIG_KEYS = ("case", "methods", "p", "n", "sigma", "box_scale", "out")


class UsageError(ValueError):
    """Invalid experiment configuration (exit code 2)."""


@dataclass
class ExperimentConfig:
    """Validated parameters of one experiment sweep; ``coeffs`` is derived from ``case``."""

    case: str
    methods: tuple
    p_list: tuple
    n_list: tuple
    out: str
    sigma: float = None
    box_scale: float = BOX_SCALE
    coeffs: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.case not in BUILTIN_CASES:
            raise UsageError(
                f"unknown case {self.case!r}; expected one of {BUILTIN_CASES}"
            )
        self.coeffs = coeffs = builtin_case(self.case)
        self.methods = tuple(self.methods)
        if not self.methods:
            raise UsageError("at least one method is required")
        for m in self.methods:
            if m not in METHODS:
                raise UsageError(f"unknown method {m!r}; expected subset of {METHODS}")
            if m != "dg":
                _check_kind(coeffs, _LOCAL_KIND[m], f"method {m}")
        self.p_list = tuple(_number(int, "--p", p) for p in self.p_list)
        self.n_list = tuple(_number(int, "--n", n) for n in self.n_list)
        if not self.p_list or not self.n_list:
            raise UsageError("p and n lists must be nonempty")
        for option, values in (("--methods", self.methods), ("--p", self.p_list),
                               ("--n", self.n_list)):
            repeated = [v for i, v in enumerate(values) if v in values[:i]]
            if repeated:
                raise UsageError(f"{option} lists {repeated[0]} more than once")
        _check_sizes(self.n_list, self.p_list, coeffs)
        _check_positive_finite(sigma=self.sigma, box_scale=self.box_scale)
        _check_penalty(coeffs, self.sigma)


def _number(kind, option, value):
    """``kind`` of the text of ``value``, so that ``int`` rejects 2.5 rather
    than truncating it, or a :class:`UsageError` naming ``option`` and the value."""
    try:
        return kind(str(value))
    except (TypeError, ValueError):
        raise UsageError(f"{option}: {value!r} is not a valid {kind.__name__}") from None


def _check_sizes(n_list, p_list=(), coeffs=None):
    """Reject mesh subdivisions and degrees (for the data ``coeffs``) out of
    range: the local kinds of diffusion data need ``p >= 2``."""
    p_min = 1 if coeffs is None or coeffs.alpha is None else 2
    for p in p_list:
        if not p_min <= p <= MAX_DEGREE:
            raise UsageError(f"degree p={p} outside supported range [{p_min}, {MAX_DEGREE}]")
    for n in n_list:
        if not 1 <= n <= MAX_SUBDIVISIONS:
            raise UsageError(f"subdivision n={n} outside supported range [1, {MAX_SUBDIVISIONS}]")


def _check_positive_finite(**options):
    """Reject option values outside ``0 < x < inf`` (nan included); None
    means the option is unset."""
    for name, value in options.items():
        if value is not None and not 0 < value < math.inf:
            option = "--" + name.replace("_", "-")
            raise UsageError(f"{option} must be positive and finite, got {value}")


def _check_penalty(coeffs, sigma):
    """Reject a penalty ``sigma`` (None: unset) for data ``coeffs`` without
    diffusion: their upwind form has no penalty term to take it."""
    if sigma is not None and coeffs.alpha is None:
        raise UsageError(
            f"--sigma: case {coeffs.name} has no diffusion, and its upwind form takes no penalty"
        )


def _check_out(path):
    """Reject an ``--out`` path (None: unset) that is a directory or whose
    parent is not an existing directory, before any work is done."""
    if path is None:
        return
    parent = Path(path).parent
    if not parent.is_dir():
        raise UsageError(f"--out {path}: {parent} is not an existing directory")
    if Path(path).is_dir():
        raise UsageError(f"--out {path} is a directory")


def _check_kind(coeffs, kind, source):
    """The local operator kind ``kind``, by default the volume-projected
    kind of the whole PDE (``AR`` or ``DAR``), if it fits the data
    ``coeffs`` by :func:`~trefftzdg.local_ops.kind_misfit`; otherwise a
    :class:`UsageError` that lists the kinds that fit. ``source`` names
    the option that asked for the kind."""
    kinds = sorted(k for k in KINDS if kind_misfit(k, coeffs) is None)
    if kind is None:
        kind = AR if AR in kinds else DAR
    if kind not in kinds:
        raise UsageError(
            f"{source}: case {coeffs.name} takes the local operator kinds {kinds}, not {kind}"
        )
    return kind


#: the local operator kind of each Trefftz method; None for the kind of
#: the whole PDE
_LOCAL_KIND = {"et": None, "etbox": DAR_BOX, "qt": QT_DIFFUSION}


def run_experiment(config):
    """Run the sweep, write the CSV, print per-(method, p) EOC tables.

    Returns the list of result rows (dicts). Rows are sorted by
    (method, p, n); one row per (method, p, n) combination. Each mesh runs
    one volume pass, which every method assembles its system from: ``dg``
    by the facet pass in the broken basis, the Trefftz methods by that in
    their Trefftz basis, with no DG coupling block.
    """
    coeffs = config.coeffs
    local_kinds = {m: _check_kind(coeffs, _LOCAL_KIND[m], f"method {m}")
                   for m in config.methods if m != "dg"}
    rows = []
    for p in config.p_list:
        for n in config.n_list:
            space = BrokenSpace(build_structured_mesh(n), p)
            terms = assemble_volume_terms(space, coeffs, sigma=config.sigma)
            # dg last: its facet pass takes over the volume blocks the
            # Trefftz methods read
            for method in sorted(config.methods, key=lambda method: method == "dg"):
                try:
                    if method == "dg":
                        solution = solve_standard_dg(global_system(terms))
                    else:
                        embedding = build_embedding(space, coeffs, local_kinds[method],
                                                    box_scale=config.box_scale, system=terms)
                        solution = solve_embedded_trefftz(terms, embedding)
                except (SolverError, RuntimeError) as exc:
                    raise SolverError(
                        f"case={config.case} method={method} p={p} n={n}: {exc}"
                    ) from exc
                report = compute_errors(solution, coeffs)
                rows.append(
                    {
                        "method": method,
                        "p": p,
                        "n": n,
                        "h": report.h,
                        "ndof_full": report.ndof_full,
                        "ndof_trefftz": report.ndof_trefftz,
                        "l2error": report.l2_error,
                        "dgerror": report.vh_error,
                    }
                )
    rows.sort(key=lambda r: (r["method"], r["p"], r["n"]))
    _write_csv(rows, config.out)
    _print_eoc_tables(rows, config.case)
    return rows


def _write_csv(rows, path):
    with open(path, "w", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in rows:
            nt = "" if r["ndof_trefftz"] is None else str(r["ndof_trefftz"])
            fh.write(
                f"{r['method']},{r['p']},{r['h']:.12e},{r['ndof_full']},{nt},"
                f"{r['l2error']:.12e},{r['dgerror']:.12e}\n"
            )


def _print_eoc_tables(rows, case):
    groups = {}
    for r in rows:
        groups.setdefault((r["method"], r["p"]), []).append(r)
    for (method, p), group in sorted(groups.items()):
        print(f"case={case} method={method} p={p}")
        print(f"  {'h':>14} {'l2error':>14} {'EOC':>7} {'dgerror':>14} {'EOC':>7}")
        # the slope of each step, on the row that ends it, and the least-squares slope
        eoc = {key: estimate_eoc([(r["h"], r[key]) for r in group]) if len(group) > 1 else None
               for key in ("l2error", "dgerror")}
        for i, r in enumerate(group):
            l2, dg = ("" if i == 0 else f"{eoc[key].steps[i - 1]:7.3f}" for key in eoc)
            print(f"  {r['h']:14.6e} {r['l2error']:14.6e} {l2:>7} {r['dgerror']:14.6e} {dg:>7}")
        if len(group) > 1:
            l2, dg = (eoc[key].least_squares for key in eoc)
            print(f"  least-squares EOC: l2error {l2:.3f}, dgerror {dg:.3f}")


def _split_list(text):
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _load_config_file(path):
    values = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"malformed config line: {raw.rstrip()}")
            key, value = (part.strip() for part in line.split("=", 1))
            key = key.replace("-", "_")
            if key not in _CONFIG_KEYS:
                expected = ", ".join(_CONFIG_KEYS)
                raise UsageError(f"unknown config key {key!r} in {path}; expected one of {expected}")
            if key in values:
                raise UsageError(f"config key {key!r} is set more than once in {path}")
            values[key] = value
    return values


def _cmd_run(args):
    file_values = _load_config_file(args.config) if args.config else {}

    def pick(flag, key, default=None):
        return flag if flag is not None else file_values.get(key, default)

    case = pick(args.case, "case")
    methods = pick(args.methods, "methods")
    p_list = pick(args.p, "p")
    n_list = pick(args.n, "n")
    out = pick(args.out, "out")
    sigma = pick(args.sigma, "sigma")
    box_scale = pick(args.box_scale, "box_scale", BOX_SCALE)
    missing = [
        name
        for name, value in (
            ("--case", case), ("--methods", methods), ("--p", p_list),
            ("--n", n_list), ("--out", out),
        )
        if value is None
    ]
    if missing:
        raise UsageError(f"missing required options: {', '.join(missing)}")
    _check_out(out)
    config = ExperimentConfig(
        case=case,
        methods=_split_list(methods),
        p_list=_split_list(p_list),
        n_list=_split_list(n_list),
        out=out,
        sigma=_number(float, "--sigma", sigma) if sigma is not None else None,
        box_scale=_number(float, "--box-scale", box_scale),
    )
    run_experiment(config)
    return 0


def _cmd_diagnose(args):
    case = args.case
    if case not in BUILTIN_CASES:
        raise UsageError(f"unknown case {case!r}; expected one of {BUILTIN_CASES}")
    coeffs = builtin_case(case)
    kind = _check_kind(coeffs, args.kind, "--kind")
    _check_sizes([args.n], [args.p], coeffs)
    _check_positive_finite(sigma=args.sigma, box_scale=args.box_scale)
    _check_penalty(coeffs, args.sigma)
    _check_out(args.out)
    space = BrokenSpace(build_structured_mesh(args.n), args.p)
    report = run_diagnostics(space, kind, coeffs, sigma=args.sigma, box_scale=args.box_scale)
    print(f"case={case} kind={kind} p={args.p} n={args.n} elements={report.n_elements}")
    print(f"rho_max = {report.rho_max:.3e}")
    print(f"sigma_min_rel = {report.sigma_min_rel:.3e}")
    for p, (nloc, nt, nq) in report.dim_table.items():
        print(f"dim table p={p}: n={nloc} n_T={nt} dim_Q={nq}")
    print(
        f"block_equivalence_gap = {report.block_equivalence_gap:.3e} "
        f"(relative {report.block_equivalence_gap_rel:.3e})"
    )
    if args.out:
        export_sigma_csv(report.embedding.factors, args.out)
        print(f"sigma spectra written to {args.out}")
    return 0


def _cmd_dump_mesh(args):
    _check_sizes([args.n])
    _check_out(args.out)
    mesh = build_structured_mesh(args.n)
    if args.out:
        mesh.dump(args.out)
    else:
        mesh.dump(sys.stdout)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="trefftzdg",
        description="Embedded Trefftz DG convergence experiments and diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a convergence sweep, write CSV")
    run_p.add_argument("--case", help=f"builtin case, one of {BUILTIN_CASES}")
    run_p.add_argument("--methods", help="comma list from dg,et,etbox,qt")
    run_p.add_argument("--p", help="comma list of polynomial degrees")
    run_p.add_argument("--n", help="comma list of mesh subdivisions")
    run_p.add_argument("--sigma", type=float, help="penalty (default 50 p^2)")
    run_p.add_argument("--box-scale", type=float, dest="box_scale",
                       help=f"box size relative to h_K (default {BOX_SCALE})")
    run_p.add_argument("--out", help="output CSV path")
    run_p.add_argument("--config", help="key=value config file; flags override")
    run_p.set_defaults(func=_cmd_run)

    diag_p = sub.add_parser("diagnose", help="framework diagnostics for one setup")
    diag_p.add_argument("--case", required=True)
    diag_p.add_argument("--p", type=int, required=True)
    diag_p.add_argument("--n", type=int, required=True)
    diag_p.add_argument("--kind", help="local operator kind (default: that of the whole PDE)")
    diag_p.add_argument("--sigma", type=float)
    diag_p.add_argument("--box-scale", type=float, dest="box_scale", default=BOX_SCALE)
    diag_p.add_argument("--out", help="write singular-value spectra CSV here")
    diag_p.set_defaults(func=_cmd_diagnose)

    dump_p = sub.add_parser("dump-mesh", help="write mesh as plain text")
    dump_p.add_argument("--n", type=int, required=True)
    dump_p.add_argument("--out")
    dump_p.set_defaults(func=_cmd_dump_mesh)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, RuntimeError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
