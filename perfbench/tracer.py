"""Spans around trefftzdg's layers, recorded from outside the program.

Each hook replaces a public function (or a class attribute) in every
``trefftzdg`` module namespace where callers look it up, so no file under
``src/`` changes.  Spans are kept in memory as ``[name, start, end,
parent, command]`` lists; a span's self time is its duration minus that of
its direct children.  Work the benchmark itself does inside a hook
(residual checks, fill counts) runs in a ``perfbench.bookkeeping`` span,
which no layer metric includes.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import types
import warnings
from collections import defaultdict

import numpy as np

BOOKKEEPING = "perfbench.bookkeeping"

#: per-layer quantity -> how it is derived: ("self", span names) sums self
#: times, ("calls", span name) counts spans, ("value", hook) is recorded by
#: the named hook
QUANTITIES = {
    "solver.factor_s": ("self", ("solver.splu",)),
    "solver.lu_fill": ("value", "solver.splu"),
    "solver.factorizations": ("calls", "solver.splu"),
    "solver.solve_s": ("self", ("solver.lu_solve",)),
    "solver.lu_solves": ("calls", "solver.lu_solve"),
    "solver.rel_residual_max": ("value", "solver.solve"),
    "solver.self_s": ("self", ("solver.solve",)),
    "local_ops.assemble_s": (
        "self",
        ("local_ops.assemble_local_operators", "local_ops.assemble_local_operator"),
    ),
    "local_ops.element_calls": ("calls", "local_ops.assemble_local_operator"),
    "coefficients.evals": ("calls", "coefficients.ScalarField"),
    "coefficients.eval_s": ("self", ("coefficients.ScalarField",)),
    "embedding.svd_s": ("self", ("embedding.compute_embedding",)),
    "embedding.svd_calls": ("calls", "embedding.compute_embedding"),
    "embedding.prolong_s": (
        "self",
        ("embedding.assemble_global_embedding", "embedding.build_embedding"),
    ),
    "embedding.builds": ("calls", "embedding.build_embedding"),
    "embedding.ndof_trefftz": ("value", "embedding.build_embedding"),
    "embedding.rank_fallbacks": ("value", "embedding.warnings"),
    "embedding.sigma_min_rel": ("value", "embedding.compute_embedding"),
    "dg_forms.assemble_s": ("self", ("dg_forms.assemble_global_system",)),
    "dg_forms.nnz": ("value", "dg_forms.assemble_global_system"),
    "basis.space_s": ("self", ("basis.BrokenSpace",)),
    "analysis.errors_s": ("self", ("analysis.compute_errors",)),
    "analysis.diagnostics_self_s": ("self", ("analysis.run_diagnostics",)),
    "mesh.build_s": ("self", ("mesh.build_structured_mesh",)),
    "cli.self_s": ("self", ("cli.main",)),
}


class _TracedLU:
    """SuperLU stand-in that times ``solve`` and keeps what the final
    residual needs: the matrix, the first right-hand side and the sum of
    all solves (the solver refines by adding a second solve)."""

    def __init__(self, tracer, lu, matrix):
        self._tracer = tracer
        self._lu = lu
        self.matrix = matrix
        self.rhs = None
        self.x = None

    def solve(self, rhs, *args, **kwargs):
        x = self._tracer.call("solver.lu_solve", self._lu.solve, rhs, *args, **kwargs)
        with self._tracer.span(BOOKKEEPING):
            if self.rhs is None:
                self.rhs, self.x = np.array(rhs, copy=True), np.array(x, copy=True)
            else:
                self.x = self.x + x
        return x

    def relative_residual(self):
        denom = max(float(np.linalg.norm(self.rhs)), np.finfo(float).tiny)
        return float(np.linalg.norm(self.matrix @ self.x - self.rhs)) / denom

    def __getattr__(self, name):
        return getattr(self._lu, name)


class _WarningsProxy:
    """Stands in for the ``warnings`` module inside ``trefftzdg.embedding``;
    every warning that module issues is a rank fallback."""

    def __init__(self, tracer):
        self._tracer = tracer

    def warn(self, message, category=None, stacklevel=1, **kwargs):
        self._tracer.add("embedding.rank_fallbacks", 1)
        warnings.warn(message, category, stacklevel + 1, **kwargs)

    def __getattr__(self, name):
        return getattr(warnings, name)


class _Span:
    """Context-manager form of :meth:`Tracer.call`."""

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        stack = self.tracer._stack
        self.index = len(self.tracer.spans)
        parent = stack[-1] if stack else -1
        self.tracer.spans.append([self.name, time.perf_counter(), 0.0, parent, self.tracer.command])
        stack.append(self.index)

    def __exit__(self, *exc):
        self.tracer.spans[self.index][2] = time.perf_counter()
        self.tracer._stack.pop()
        return False


class Tracer:
    """In-memory span and counter store plus the hooks that feed it."""

    def __init__(self):
        self.spans = []
        self.values = defaultdict(dict)
        self.command = None
        self.missing = []
        self._stack = []
        self._patches = []
        self._open_lus = []

    # -- recording -------------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        with _Span(self, name):
            return fn(*args, **kwargs)

    def span(self, name):
        return _Span(self, name)

    def add(self, quantity, amount):
        per_command = self.values[self.command]
        per_command[quantity] = per_command.get(quantity, 0) + amount

    def extreme(self, quantity, value, pick):
        per_command = self.values[self.command]
        old = per_command.get(quantity)
        per_command[quantity] = value if old is None else pick(old, value)

    def reset(self):
        self.spans.clear()
        self.values.clear()

    # -- hooks -----------------------------------------------------------

    def install(self):
        """Install every hook; a target that no longer exists is skipped
        with a warning and its metrics are reported as absent."""
        self._hook("cli", "main", "cli.main")
        self._hook("mesh", "build_structured_mesh", "mesh.build_structured_mesh")
        self._hook("basis", "BrokenSpace.__init__", "basis.BrokenSpace")
        self._hook("dg_forms", "assemble_global_system", "dg_forms.assemble_global_system",
                   after=lambda system: self.add("dg_forms.nnz", int(system.matrix.nnz)))
        self._hook("local_ops", "assemble_local_operators", "local_ops.assemble_local_operators")
        self._hook("local_ops", "assemble_local_operator", "local_ops.assemble_local_operator")
        self._hook("coefficients", "ScalarField.__call__", "coefficients.ScalarField")
        self._hook("embedding", "compute_embedding", "embedding.compute_embedding",
                   after=self._after_embedding)
        self._hook("embedding", "assemble_global_embedding", "embedding.assemble_global_embedding")
        self._hook("embedding", "build_embedding", "embedding.build_embedding",
                   after=lambda emb: self.add("embedding.ndof_trefftz", int(emb.ndof_trefftz)))
        self._hook("solver", "splu", "solver.splu", wrap=self._wrap_splu)
        for name in ("solve_standard_dg", "solve_embedded_trefftz", "solve_block_coupled"):
            self._hook("solver", name, "solver.solve", after=self._after_solve)
        self._hook("analysis", "compute_errors", "analysis.compute_errors")
        self._hook("analysis", "run_diagnostics", "analysis.run_diagnostics")
        self._replace("embedding", "warnings", "embedding.warnings", _WarningsProxy(self))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _target(self, module, attr, span_name):
        try:
            owner = importlib.import_module(f"trefftzdg.{module}")
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            return owner, name, getattr(owner, name)
        except (ImportError, AttributeError):
            self.missing.append(span_name)
            warnings.warn(
                f"hook target trefftzdg.{module}.{attr} not found; "
                f"metrics from {span_name} are absent"
            )
            return None

    def _replace(self, module, attr, span_name, replacement):
        found = self._target(module, attr, span_name)
        if found is None:
            return
        owner, name, original = found
        if "." in attr or isinstance(original, types.ModuleType):
            owners = [(owner, name)]
        else:
            # rebind every module-level name bound to the original object
            owners = [
                (mod, key)
                for mod_name, mod in list(sys.modules.items())
                if mod_name == "trefftzdg" or mod_name.startswith("trefftzdg.")
                for key, value in list(vars(mod).items())
                if value is original
            ]
        for target, key in owners:
            self._patches.append((target, key, getattr(target, key)))
            setattr(target, key, replacement)

    def _hook(self, module, attr, span_name, after=None, wrap=None):
        found = self._target(module, attr, span_name)
        if found is None:
            return
        original = found[2]

        if wrap is not None:
            traced = wrap(original)
        else:

            def traced(*args, **kwargs):
                result = self.call(span_name, original, *args, **kwargs)
                if after is not None:
                    with self.span(BOOKKEEPING):
                        after(result)
                return result

        self._replace(module, attr, span_name, functools.wraps(original)(traced))

    def _after_embedding(self, emb):
        k = emb.rank_used
        if k > 0 and emb.sigma[0] > 0:
            self.extreme("embedding.sigma_min_rel", float(emb.sigma[k - 1] / emb.sigma[0]), min)

    def _wrap_splu(self, splu):
        def traced(matrix, *args, **kwargs):
            lu = self.call("solver.splu", splu, matrix, *args, **kwargs)
            with self.span(BOOKKEEPING):
                # L and U are built as copies: take one at a time
                fill = lu.L.nnz
                fill += lu.U.nnz
                self.add("solver.lu_fill", int(fill))
                traced_lu = _TracedLU(self, lu, matrix)
                self._open_lus.append(traced_lu)
            return traced_lu

        return traced

    def _after_solve(self, _solution):
        for lu in self._open_lus:
            if lu.rhs is not None:
                self.extreme("solver.rel_residual_max", lu.relative_residual(), max)
        self._open_lus.clear()

    # -- results ---------------------------------------------------------

    def layer_values(self):
        """Per-layer quantities of every command id, from its spans and the
        values its hooks recorded; quantities whose hook is missing are
        left out."""
        child_time = defaultdict(float)
        for name, start, end, parent, cmd in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_time = defaultdict(lambda: defaultdict(float))
        calls = defaultdict(lambda: defaultdict(int))
        for index, (name, start, end, parent, cmd) in enumerate(self.spans):
            self_time[cmd][name] += end - start - child_time[index]
            calls[cmd][name] += 1
        out = {}
        for cmd in set(self_time) | set(self.values):
            recorded = self.values.get(cmd, {})
            values = out[cmd] = {}
            for quantity, (how, source) in QUANTITIES.items():
                sources = source if how == "self" else (source,)
                if any(name in self.missing for name in sources):
                    continue
                if how == "self":
                    values[quantity] = sum(self_time[cmd][name] for name in sources)
                elif how == "calls":
                    values[quantity] = calls[cmd][source]
                else:
                    values[quantity] = recorded.get(quantity, 0)
        return out

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for index, (name, start, end, parent, cmd) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent, "command": cmd,
                }) + "\n")
