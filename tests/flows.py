"""Flow fields shared by the tests."""

import sympy as sp

from trefftzdg.coefficients import manufactured_case


def rotating_flow():
    """Advection-reaction around the centre of the unit square: every
    element of the upwind graph lies on one cycle."""
    return manufactured_case(
        beta=(sp.sympify("1/2 - y"), sp.sympify("x - 1/2")),
        gamma=1,
        exact=sp.sympify("sin(pi*(x + y))"),
        name="rotating",
    )
