"""Built-in test problems."""

from __future__ import annotations

import numpy as np

from .errors import UnknownNameError
from .integrate import Problem


def sinode(dimension: int = 1) -> Problem:
    """Scalar logistic-type ODE with oscillating factor:

        u'(t) = sin(10 t) u (1 - u),    u(0) = u0.

    The exact solution u0 / (u0 + (1-u0) exp((cos(10t)-1)/10)) stays in [0,1]
    for u0 in [0,1], and forward Euler preserves that interval for any step
    size up to h_fe = 1.  With dimension > 1 the equation acts componentwise,
    which integrates a whole grid of initial conditions in one trajectory.
    """

    def rhs(t, u):
        return np.sin(10.0 * t) * u * (1.0 - u)

    def exact(t, u0):
        u0 = np.asarray(u0, dtype=float)
        return u0 / (u0 + (1.0 - u0) * np.exp((np.cos(10.0 * t) - 1.0) / 10.0))

    return Problem(rhs=rhs, dimension=dimension, exact=exact, name="sinode", h_fe=1.0)


def linear(lam: float = -1.0, dimension: int = 1) -> Problem:
    """Linear test equation u' = lam * u with exact solution u0 exp(lam t)."""

    def rhs(t, u):
        return lam * u

    def exact(t, u0):
        return np.asarray(u0, dtype=float) * np.exp(lam * t)

    return Problem(rhs=rhs, dimension=dimension, exact=exact, name="linear")


def quadrature(g=np.cos, antiderivative=np.sin, dimension: int = 1) -> Problem:
    """Pure quadrature problem u' = g(t); the state does not enter the rhs."""

    def rhs(t, u):
        return np.full_like(np.asarray(u, dtype=float), float(g(t)))

    def exact(t, u0):
        return np.asarray(u0, dtype=float) + (
            float(antiderivative(t)) - float(antiderivative(0.0))
        )

    return Problem(rhs=rhs, dimension=dimension, exact=exact, name="quadrature")


BUILTIN_PROBLEMS = {
    "sinode": sinode,
    "linear": linear,
    "quadrature": quadrature,
}


def get_problem(name: str, dimension: int = 1) -> Problem:
    try:
        factory = BUILTIN_PROBLEMS[name]
    except KeyError:
        raise UnknownNameError(
            f"unknown problem {name!r}; available: {sorted(BUILTIN_PROBLEMS)}"
        ) from None
    return factory(dimension=dimension)
