"""PDE data (diffusion, advection, reaction, source, boundary values) as
sympy-expression fields with exact partial derivatives, plus the built-in
manufactured test cases.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import sympy as sp

X, Y = sp.symbols("x y", real=True)


def _canonicalize(expr):
    """Map any free symbols named x/y onto the module coordinate symbols."""
    expr = sp.sympify(expr)
    subs = {}
    for s in expr.free_symbols:
        if s.name == "x":
            subs[s] = X
        elif s.name == "y":
            subs[s] = Y
        else:
            raise ValueError(f"field expression contains unknown symbol {s}")
    return expr.subs(subs) if subs else expr


@lru_cache(maxsize=256)
def _lambdify(exprs):
    """Numpy function of the tuple of expressions ``exprs``, cached: fields
    of equal expressions, also in cases built anew, share one function. It
    returns one float array per expression, of the broadcast shape of the
    points; a constant entry is broadcast to it too."""
    # the generated docstring is never read and costs as much as the rest;
    # common subexpressions are evaluated once per call, across the tuple
    fn = sp.lambdify((X, Y), exprs, modules="numpy", docstring_limit=0, cse=True)

    def wrapped(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        shape = x.shape if x.shape == y.shape else np.broadcast_shapes(x.shape, y.shape)
        values = []
        for value in fn(x, y):
            if np.shape(value) != shape:
                # a constant comes back as a scalar, a field of one
                # coordinate in the shape of that coordinate
                full = np.empty(shape)
                full[...] = value
                value = full
            values.append(np.asarray(value, dtype=float))
        return values

    return wrapped


def evaluate(fields, x, y):
    """Values of the scalar ``fields`` at the points ``(x, y)``, one array
    each of their broadcast shape, from one function of all their
    expressions (cached per tuple of expressions), so that the
    subexpressions they share are evaluated once. A field's values may
    differ from those of its own call by rounding where a shared
    subexpression is formed in another order."""
    return _lambdify(tuple(field.expr for field in fields))(x, y)


class ScalarField:
    """Scalar field on the plane, given by a sympy expression in ``x, y``
    and evaluable on arrays, as the one-field case of :func:`evaluate`;
    :meth:`derivative` gives the exact partial derivatives of any order."""

    def __init__(self, expr):
        self.expr = _canonicalize(expr)
        self._fn = None
        self._children = {}

    def __call__(self, x, y):
        if self._fn is None:
            self._fn = _lambdify((self.expr,))
        return self._fn(x, y)[0]

    def derivative(self, dx, dy):
        """Field of the partial derivative of order ``(dx, dy)``."""
        key = (int(dx), int(dy))
        if key == (0, 0):
            return self
        if key not in self._children:
            self._children[key] = ScalarField(sp.diff(self.expr, X, key[0], Y, key[1]))
        return self._children[key]


class VectorField:
    """Pair of scalar fields forming a 2-vector field."""

    def __init__(self, fx, fy):
        self.fx = fx if isinstance(fx, ScalarField) else ScalarField(fx)
        self.fy = fy if isinstance(fy, ScalarField) else ScalarField(fy)
        self._divergence = None

    def __call__(self, x, y):
        return np.stack([self.fx(x, y), self.fy(x, y)], axis=-1)

    def divergence(self):
        """Field of the divergence; built on first use, then kept."""
        if self._divergence is None:
            self._divergence = ScalarField(sp.diff(self.fx.expr, X) + sp.diff(self.fy.expr, Y))
        return self._divergence


def require_positive(values, field, entity, indices):
    """Fail unless every value of ``field`` is finite and strictly positive.

    ``values`` has one leading row per entry of ``indices``, the ids of the
    elements or facets (named by ``entity``) the values were taken on; the
    error names the first offending one. Returns the checked values.
    """
    values = np.asarray(values)
    return _require(values, np.isfinite(values) & (values > 0.0), "finite and strictly positive",
                    field, entity, indices)


def require_finite(values, field, entity, indices):
    """Fail unless every value of ``field`` is finite; arguments as for
    :func:`require_positive`."""
    values = np.asarray(values)
    return _require(values, np.isfinite(values), "finite", field, entity, indices)


def _require(values, ok, condition, field, entity, indices):
    if not np.all(ok):
        row = np.unravel_index(np.argmin(ok), values.shape)
        raise ValueError(
            f"{field} must be {condition} on all evaluation points; "
            f"{entity} {int(np.asarray(indices)[row[0]])} has {field} = {float(values[row])}"
        )
    return values


@dataclass
class PdeCoefficients:
    """Data of a scalar advection-reaction / diffusion problem.

    ``alpha`` may be None for pure advection-reaction problems; ``beta`` and
    ``gamma`` may be None (treated as zero). ``g_D`` supplies Dirichlet
    boundary values, ``exact_solution`` (optional) enables error reporting.
    """

    f: ScalarField
    g_D: ScalarField
    alpha: ScalarField = None
    beta: VectorField = None
    gamma: ScalarField = None
    exact_solution: ScalarField = None
    name: str = ""

    def exact_gradient(self):
        u = self.exact_solution
        return VectorField(u.derivative(1, 0), u.derivative(0, 1))


def manufactured_case(*, exact, alpha=None, beta=None, gamma=None, name=""):
    """Build coefficients with the source manufactured from ``exact``.

    Arguments are sympy expressions in ``x, y`` (or numbers); ``beta`` is a
    pair. The source is assembled from the strong form
    ``-div(alpha grad u) + beta . grad u + gamma u`` with absent terms
    dropped, and Dirichlet data is the trace of the exact solution.
    """
    u = _canonicalize(exact)
    f = sp.Integer(0)
    alpha_f = beta_f = gamma_f = None
    if alpha is not None:
        a = _canonicalize(alpha)
        f -= sp.diff(a * sp.diff(u, X), X) + sp.diff(a * sp.diff(u, Y), Y)
        alpha_f = ScalarField(a)
    if beta is not None:
        bx, by = (_canonicalize(b) for b in beta)
        f += bx * sp.diff(u, X) + by * sp.diff(u, Y)
        beta_f = VectorField(bx, by)
    if gamma is not None:
        g = _canonicalize(gamma)
        f += g * u
        gamma_f = ScalarField(g)
    return PdeCoefficients(
        f=ScalarField(sp.expand(f)),
        g_D=ScalarField(u),
        alpha=alpha_f,
        beta=beta_f,
        gamma=gamma_f,
        exact_solution=ScalarField(u),
        name=name,
    )


#: Names accepted by :func:`builtin_case`.
BUILTIN_CASES = ("AR_EXAMPLE", "DAR_EXAMPLE", "BOX_DIFFUSION_2D", "QT_DIFFUSION")

_SIN_DIAG = sp.sin(sp.pi * (X + Y))


def builtin_case(name):
    """Manufactured test problems used by the experiment suite.

    All cases share the exact solution ``sin(pi (x + y))`` on the unit
    square; Dirichlet data matches the exact solution.
    """
    if name == "AR_EXAMPLE":
        return manufactured_case(
            beta=(-X, Y), gamma=X + Y, exact=_SIN_DIAG, name=name
        )
    if name == "DAR_EXAMPLE":
        # the reaction coefficient is used with its third coordinate set
        # to zero, keeping the 2D problem dimensionally consistent
        return manufactured_case(
            alpha=1 + X + Y,
            beta=(sp.sin(X), sp.sin(Y)),
            gamma=4 / (1 + X + Y),
            exact=_SIN_DIAG,
            name=name,
        )
    if name in ("BOX_DIFFUSION_2D", "QT_DIFFUSION"):
        return manufactured_case(alpha=1 + X + Y, exact=_SIN_DIAG, name=name)
    raise ValueError(f"unknown builtin case {name!r}; expected one of {BUILTIN_CASES}")
