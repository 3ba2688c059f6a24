"""Helpers for polynomials in the monomial basis, coefficient arrays constant-first."""

from __future__ import annotations

import functools

import numpy as np

from .errors import InvalidArgumentError

#: The variable that to_string writes.
VARIABLE = "t"


@functools.cache
def _polynomial():
    """numpy.polynomial.polynomial, imported at the first call: its package
    loads 9 modules, 3-5 ms of every CLI start, which `import numpy` alone
    does not.  Callers look its functions up on the module at each call, so
    a patch of numpy.polynomial.polynomial reaches them."""
    from numpy.polynomial import polynomial

    return polynomial


def as_poly(coeffs) -> np.ndarray:
    c = np.atleast_1d(np.asarray(coeffs, dtype=float))
    if c.ndim != 1:
        raise InvalidArgumentError("polynomial coefficients must be one-dimensional")
    if not len(c):
        raise InvalidArgumentError("polynomial has no coefficients")
    return c


def pad(c: np.ndarray, length: int) -> np.ndarray:
    c = as_poly(c)
    if len(c) >= length:
        return c
    out = np.zeros(length)
    out[: len(c)] = c
    return out


def _horner(c: list, x: float) -> float:
    """p(x) on Python floats, in the order of operations of
    numpy.polynomial.polynomial.polyval and so with its bits: c[-1] + x*0,
    then c[i] + value*x for i from len(c) - 2 down to 0."""
    value = c[-1] + x * 0
    for coeff in c[-2::-1]:
        value = coeff + value * x
    return value


def evaluate(c, x: float) -> float:
    """p(x) at one float x, bit for bit polyval's value (_horner)."""
    return _horner(as_poly(c).tolist(), x)


def _extremum_candidates(c: list) -> list[float]:
    """0, 1 and the real critical points of p in (0,1): where p takes its
    extrema on [0,1].

    The derivative is j*c[j], polyder's arithmetic, with zero leading
    coefficients trimmed as polyroots trims them.  A linear derivative's
    root is -d0/d1, polyroots' own formula; only a derivative of degree 2
    or more goes to polyroots."""
    candidates = [0.0, 1.0]
    d = [j * c[j] for j in range(1, len(c))]
    while len(d) > 1 and d[-1] == 0:
        d.pop()
    if len(d) == 2:
        roots = [-d[0] / d[1]]
    elif len(d) > 2:
        roots = _polynomial().polyroots(d)
    else:
        roots = []
    for root in roots:
        if abs(root.imag) < 1e-12 and 0.0 < root.real < 1.0:
            candidates.append(float(root.real))
    return candidates


def max_abs_on_unit(c) -> tuple[float, float]:
    """Exact max of |p| on [0,1]: endpoints plus real critical points of p.

    Returns (max value, argmax).
    """
    c = as_poly(c).tolist()
    candidates = _extremum_candidates(c)
    values = [abs(_horner(c, x)) for x in candidates]
    k = int(np.argmax(values))
    return values[k], candidates[k]


def min_on_unit(c) -> tuple[float, float]:
    """Exact min of p on [0,1], from the same candidates as max_abs_on_unit.
    The coefficients must be finite: then no value is NaN, as x lies in
    [0,1], and min picks the first least value, as np.argmin would.

    Returns (min value, argmin).
    """
    c = as_poly(c).tolist()
    candidates = _extremum_candidates(c)
    values = [_horner(c, x) for x in candidates]
    k = min(range(len(values)), key=values.__getitem__)
    return values[k], candidates[k]


def to_string(c) -> str:
    """Human-readable form in the variable VARIABLE, e.g. '1 - 2*t + 1.3333*t^2'."""
    c = as_poly(c)
    parts = []
    for k, a in enumerate(c):
        if a == 0.0 and not (k == 0 and len(c) == 1):
            continue
        mag = abs(a)
        coeff = f"{mag:.10g}"
        if k == 0:
            term = coeff
        else:
            power = VARIABLE if k == 1 else f"{VARIABLE}^{k}"
            term = power if mag == 1.0 else f"{coeff}*{power}"
        if not parts:
            parts.append(term if a >= 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if a >= 0 else f"- {term}")
    return " ".join(parts) if parts else "0"
