"""Workloads of the trefftzdg benchmark, why each was chosen, and which
end-to-end number each traced layer should move.

Every workload is a fixed list of CLI commands, run in-process through
``trefftzdg.cli.main(argv)``.  ``{n}`` is replaced by the mesh list of the
chosen scale and ``{out}`` by a scratch directory inside the checkout.
The inputs are structured meshes and closed-form sympy cases, so they are
the same on every run; the seed only fixes the order of the commands
within each pass.

Sizes.  The meshes stop one refinement short of the README sweeps
(``n = 64`` for AR, ``n = 32`` for diffusion, ``n = 20`` for diagnose).
On a 2-core VM, fresh-process standard-DG solves at AR ``n = 64`` took
10.6-19.5 s (quartile spread 26% of the median), and a pass of the full
sweeps takes 8-25 s, so a 25 s run could hold only one or two samples.
At these sizes a pass takes 2.5-4 s and a run reports the median of
6-9 passes.
"""

from __future__ import annotations

#: mesh lists per scale: ``full`` is what the benchmark measures, ``smoke``
#: is the benchmark's own test, ``warmup`` runs once before timing (and in
#: the set-up interpreters) so that one-time costs land in ``setup_s``
SCALES = ("full", "smoke")

WORKLOADS = {
    "ar-sweep": {
        "why": (
            "AR_EXAMPLE p=3 n=8..32, dg and et: upwind sparse LU dominates dg; "
            "the reduced solve of et is the bypass"
        ),
        "n": {"full": "8,16,32", "smoke": "1,2", "warmup": "1"},
        "commands": {
            method: [
                "run", "--case", "AR_EXAMPLE", "--p", "3", "--n", "{n}",
                "--methods", method, "--out", "{out}/" + method + ".csv",
            ]
            for method in ("dg", "et")
        },
    },
    "diffusion-variants": {
        "why": (
            "BOX_DIFFUSION_2D p=3 n=8,16, dg/et/etbox/qt: per-element local "
            "operators dominate etbox and qt; batched et is the bypass; SIP pattern"
        ),
        "n": {"full": "8,16", "smoke": "1,2", "warmup": "1"},
        "commands": {
            method: [
                "run", "--case", "BOX_DIFFUSION_2D", "--p", "3", "--n", "{n}",
                "--methods", method, "--out", "{out}/" + method + ".csv",
            ]
            for method in ("dg", "et", "etbox", "qt")
        },
    },
    "dar-diagnose": {
        "why": (
            "DAR_EXAMPLE p=6 n=12 diagnose: dense per-element work, the coupled "
            "block solve and the embedding built twice weigh most"
        ),
        "n": {"full": "12", "smoke": "2", "warmup": "1"},
        "commands": {
            "diagnose": [
                "diagnose", "--case", "DAR_EXAMPLE", "--p", "6", "--n", "{n}",
                "--out", "{out}/sigma.csv",
            ],
        },
    },
}

#: every command name any workload runs; per-layer metrics carry one of
#: these as suffix, and read 0 on workloads that do not run that command
COMMANDS = ("dg", "et", "etbox", "qt", "diagnose")

#: end-to-end metrics, identical on every workload
END_TO_END = {
    "time_to_solution_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: per-layer quantities, the commands they apply to, their unit, and the
#: end-to-end number each should move (and where it should not)
LAYERS = {
    "solver.factor_s": ("s", "dg_s and peak_rss_mb on ar-sweep; every *_s on diffusion-variants; diagnose_s; not et_s on ar-sweep"),
    "solver.lu_fill": ("count", "as solver.factor_s (L.nnz + U.nnz summed over factorizations)"),
    "solver.factorizations": ("count", "as solver.factor_s"),
    "solver.solve_s": ("s", "as solver.factor_s"),
    "solver.lu_solves": ("count", "health: above factorizations means refinement ran"),
    "solver.rel_residual_max": ("ratio", "health: must not worsen"),
    "solver.self_s": ("s", "et_s and diagnose_s (T' A T, residual checks, block assembly)"),
    "local_ops.assemble_s": ("s", "etbox_s and qt_s on diffusion-variants; never dg_s"),
    "local_ops.element_calls": ("count", "as local_ops.assemble_s"),
    "coefficients.evals": ("count", "etbox_s and qt_s on diffusion-variants; never dg_s"),
    "coefficients.eval_s": ("s", "as coefficients.evals"),
    "embedding.svd_s": ("s", "et_s, etbox_s, qt_s and diagnose_s; never dg_s"),
    "embedding.svd_calls": ("count", "as embedding.svd_s"),
    "embedding.prolong_s": ("s", "as embedding.svd_s"),
    "embedding.builds": ("count", "2 on dar-diagnose today; 1 once the second build is gone"),
    "embedding.ndof_trefftz": ("count", "reduced unknowns summed over builds; must not change"),
    "embedding.rank_fallbacks": ("count", "health: counted rank-fallback warnings"),
    "embedding.sigma_min_rel": ("ratio", "health: local stability margin"),
    "dg_forms.assemble_s": ("s", "every *_s, largest share on dar-diagnose"),
    "dg_forms.nnz": ("count", "as dg_forms.assemble_s (matrix nnz summed over assemblies)"),
    "basis.space_s": ("s", "every *_s, largest share on dar-diagnose"),
    "analysis.errors_s": ("s", "the run commands"),
    "analysis.diagnostics_self_s": ("s", "diagnose_s"),
    "mesh.build_s": ("s", "control: under 1% everywhere"),
    "cli.self_s": ("s", "every command a little (CSV, EOC tables, orchestration)"),
}

#: quantities that only exist for some commands
_ONLY = {
    "analysis.diagnostics_self_s": {"diagnose"},
    "analysis.errors_s": {"dg", "et", "etbox", "qt"},
}
_NOT_DG = ("local_ops.", "embedding.")


def applies(quantity, command):
    """Whether ``<quantity>.<command>`` is one of the per-layer metrics."""
    if quantity in _ONLY:
        return command in _ONLY[quantity]
    return not (command == "dg" and quantity.startswith(_NOT_DG))


PER_LAYER = {
    f"{quantity}.{command}": unit
    for quantity, (unit, _) in LAYERS.items()
    for command in COMMANDS
    if applies(quantity, command)
}
PER_LAYER.update(
    {f"trace.overhead.{name}": unit for name, unit in END_TO_END.items()}
)


def commands(workload, scale, out):
    """The workload's commands at ``scale`` (or ``"warmup"``) as argv lists."""
    spec = WORKLOADS[workload]
    n = spec["n"][scale]
    return {
        name: [arg.replace("{n}", n).replace("{out}", out) for arg in argv]
        for name, argv in spec["commands"].items()
    }
