"""Built-in test problems."""

from __future__ import annotations

import numpy as np

from .errors import UnknownNameError
from .integrate import Problem


def sinode() -> Problem:
    """Scalar logistic-type ODE with oscillating factor:

        u'(t) = sin(10 t) u (1 - u),    u(0) = u0.

    The exact solution u0 / (u0 + (1-u0) exp((cos(10t)-1)/10)) stays in [0,1]
    for u0 in [0,1], and forward Euler preserves that interval for any step
    size up to 1.  The equation acts componentwise, so a vector u0
    integrates a whole grid of initial conditions in one trajectory.
    """

    def rhs(t, u):
        return np.sin(10.0 * t) * u * (1.0 - u)

    def exact(t, u0):
        u0 = np.asarray(u0, dtype=float)
        return u0 / (u0 + (1.0 - u0) * np.exp((np.cos(10.0 * t) - 1.0) / 10.0))

    return Problem(rhs=rhs, exact=exact)


def linear() -> Problem:
    """Linear test equation u' = -u with exact solution u0 exp(-t)."""

    def rhs(t, u):
        return -u

    def exact(t, u0):
        return np.asarray(u0, dtype=float) * np.exp(-t)

    return Problem(rhs=rhs, exact=exact)


def quadrature() -> Problem:
    """Pure quadrature problem u' = cos(t); the state does not enter the rhs."""

    def rhs(t, u):
        return np.full_like(np.asarray(u, dtype=float), float(np.cos(t)))

    def exact(t, u0):
        return np.asarray(u0, dtype=float) + float(np.sin(t))

    return Problem(rhs=rhs, exact=exact)


BUILTIN_PROBLEMS = {
    "sinode": sinode,
    "linear": linear,
    "quadrature": quadrature,
}


def get_problem(name: str) -> Problem:
    try:
        factory = BUILTIN_PROBLEMS[name]
    except KeyError:
        raise UnknownNameError(
            f"unknown problem {name!r}; available: {sorted(BUILTIN_PROBLEMS)}"
        ) from None
    return factory()
