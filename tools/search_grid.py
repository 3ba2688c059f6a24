"""Run the 1152-search grid of the LP search in one process and print one
JSON line: the count of each status, the count of each prescreen cause
(violated_necessary.condition) and the sha256 of the searches' records.

The grid is
  family-s2..s12 x order 1-3 x degree 1-6 x r in {C/2, 0.9C, C - 0.25, C - 1e-9, C}
  ssp222, ssp322, ssp332 x order 1-3 x degree 1-6 x r in {C/2, C - 1e-9, C}
with C the method's SSP coefficient (s - 1 for family-s<s>).  The digest is
taken over repr(result.as_record()) of every search in that order, so it
changes with any point, status or weight bit.  Those bits depend on the
HiGHS build in scipy and on BLAS threading; compare digests from runs with
OPENBLAS_NUM_THREADS=1:

    OPENBLAS_NUM_THREADS=1 python tools/search_grid.py
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from collections import Counter

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from sspdo import registry  # noqa: E402
from sspdo.construct import family_tableau, lp_search  # noqa: E402

ORDERS = (1, 2, 3)
DEGREES = range(1, 7)


def grid():
    """(tableau, order, degree, r) of every search, in the digest's order."""
    for s in range(2, 13):
        C = s - 1.0
        for order in ORDERS:
            for degree in DEGREES:
                for r in (C / 2, 0.9 * C, C - 0.25, C - 1e-9, C):
                    yield family_tableau(s), order, degree, r
    for key in ("ssp222", "ssp322", "ssp332"):
        entry = registry.get(key)
        C = entry.c_method
        for order in ORDERS:
            for degree in DEGREES:
                for r in (C / 2, C - 1e-9, C):
                    yield entry.tableau, order, degree, r


def main() -> int:
    counts = {"feasible": 0, "infeasible": 0, "inconclusive": 0}
    causes = Counter()
    digest = hashlib.sha256()
    for tab, order, degree, r in grid():
        result = lp_search(tab, order, degree, r)
        counts[result.status] += 1
        if result.violated_necessary is not None:
            causes[result.violated_necessary.condition] += 1
        digest.update(repr(result.as_record()).encode())
    causes = dict(sorted(causes.items()))
    print(json.dumps({**counts, "causes": causes, "sha256": digest.hexdigest()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
