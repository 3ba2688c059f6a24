"""Write reference.json: the outputs the benchmark checks against.

Run from the repository root on the commit whose outputs are the reference:

    python3 perfbench/make_reference.py

It records the sweep's dense coefficients for s >= 5, the status of the LP
search, the figure1 summary minimum of the non-SSP formula, and the line count
and value digest of each figure1 CSV.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402
from sspdo import cli  # noqa: E402


def _run(argv: list[str]) -> dict:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"{' '.join(argv)} exited {rc}")
    return json.loads(buffer.getvalue().splitlines()[-1])


def main() -> None:
    sweep = _run(workloads.SWEEP)
    reference = {
        "sweep_c_dense": {str(row["s"]): row["c_dense"] for row in sweep["rows"] if row["s"] >= 5},
    }
    reference["search_status"] = _run(workloads.SEARCH)["status"]
    with tempfile.TemporaryDirectory() as out_dir:
        record = _run(workloads.figure1_argv(out_dir))
        reference["figure1_nonssp_min"] = record["nonssp"]["min"]
        reference["figure1_csv"] = {}
        for name in ("ssp.csv", "nonssp.csv"):
            lines, digest = workloads.csv_value_digest(os.path.join(out_dir, name))
            reference["figure1_csv"][name] = {"lines": lines, "value_digest": digest}
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
