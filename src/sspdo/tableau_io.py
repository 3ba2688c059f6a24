"""Tableau file format: JSON with optional rational-string coefficients.

Layout: an object with keys "name" (optional), "A" (s rows of s entries),
"b" (s entries), optional "c" (checked against row sums, never trusted), and
optional "bbar" (s rows of dense weight coefficients, constant term first).
Entries are numbers or strings like "1/3", which are parsed as exact
fractions so the same rational is bit-identical everywhere it appears.
"""

from __future__ import annotations

import json
import os

from .errors import ParseError
from .tableau import ButcherTableau, DenseWeights, check_stage_count, validate_tableau


def loads_tableau(text: str, source: str = "<string>"):
    """Parse tableau JSON text; returns (tableau, dense weights or None)."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{source}:{exc.lineno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"{source}: top level must be an object")
    for key in ("A", "b"):
        if key not in data:
            raise ParseError(f"{source}: missing required field {key!r}")
    A = data["A"]
    if not isinstance(A, list) or not all(isinstance(row, list) for row in A):
        raise ParseError(f"{source}: field 'A' must be a list of rows")
    if not A:
        raise ParseError(f"{source}: field 'A' has no rows")
    widths = {len(row) for row in A}
    if len(widths) != 1:
        raise ParseError(f"{source}: field 'A' has ragged rows (lengths {sorted(widths)})")
    if not isinstance(data["b"], list):
        raise ParseError(f"{source}: field 'b' must be a list")
    name = data.get("name", "")
    if not isinstance(name, str):
        raise ParseError(f"{source}: field 'name' must be a string")
    try:
        tab = validate_tableau(A, data["b"], name=name, c=data.get("c"))
    except (ValueError, TypeError) as exc:
        raise ParseError(f"{source}: {exc}") from exc
    weights = None
    if "bbar" in data and data["bbar"] is not None:
        bbar = data["bbar"]
        if not isinstance(bbar, list) or not all(isinstance(r, list) for r in bbar):
            raise ParseError(f"{source}: field 'bbar' must be a list of rows")
        try:
            weights = DenseWeights.from_rows(bbar)
            check_stage_count(tab, weights)
        except (ValueError, TypeError) as exc:
            raise ParseError(f"{source}: field 'bbar': {exc}") from exc
    return tab, weights


def load_tableau_file(path: str | os.PathLike):
    """Load (tableau, weights or None) from a file."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return loads_tableau(text, source=str(path))


def dumps_tableau(tab: ButcherTableau, weights: DenseWeights | None = None) -> str:
    data = {
        "name": tab.name,
        "A": [[float(x) for x in row] for row in tab.A],
        "b": [float(x) for x in tab.b],
    }
    if weights is not None:
        data["bbar"] = [[float(x) for x in row] for row in weights.coeffs]
    return json.dumps(data, indent=2)


def save_tableau_file(
    path: str | os.PathLike, tab: ButcherTableau, weights: DenseWeights | None = None
) -> None:
    """Write a tableau (and optional dense weights) as JSON; floats round-trip
    bit-exactly through repr."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps_tableau(tab, weights))
        handle.write("\n")
