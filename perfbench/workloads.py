"""The four benchmark workloads: their CLI invocations and their output checks.

A job is the list of `sspdo.cli.main` invocations of one workload.  The inputs
are fixed user commands; the seed only orders the invocations of a job.  Every
checker returns a list of failure strings (empty when the output is right)
and counts verdicts, so that the runner can report how many were conclusive.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import struct
from dataclasses import dataclass, field

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

SWEEP_SMAX = 40
SWEEP = ["experiment", "sweep", "--smax", str(SWEEP_SMAX), "--format", "record"]
SEARCH = [
    "search", "--stages", "5", "--order", "2", "--degree", "3", "--r", "4",
    "--format", "record",
]
SEARCH_STAGES = 5
SEARCH_ORDER = 2
SEARCH_R = 4.0

# Dense probes for the registry methods and the family members that carry
# built-in weights; method-only probes for the rest of the family.
CERTIFY_DENSE_KEYS = (
    "ssp222", "ssp322", "ssp332", "numexample-322",
    "family-s2", "family-s3", "family-s4",
)
CERTIFY_METHOD_KEYS = tuple(f"family-s{k}" for k in range(5, 41))

COEFF_TOL = 1e-8          # c_method, r_method, r_dense against exact values
SWEEP_DENSE_TOL = 1e-9    # c_dense for s >= 5 against the reference run
FIGURE1_MIN_TOL = 1e-12


def figure1_argv(out_dir: str) -> list[str]:
    return ["experiment", "figure1", "--h", "1.6", "--out", out_dir, "--format", "record"]


def certify_argv(key: str) -> list[str]:
    dense = ["--dense"] if key in CERTIFY_DENSE_KEYS else []
    return ["certify", "--method", key, *dense, "--format", "record"]


def load_reference(path: str = REFERENCE_PATH) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


@dataclass
class Verdicts:
    """Failures and verdict counts of one or more checked outputs."""

    failures: list[str] = field(default_factory=list)
    conclusive: int = 0
    total: int = 0

    def fail(self, message: str) -> None:
        self.failures.append(message)


def _close(a, b, tol: float) -> bool:
    return isinstance(a, (int, float)) and math.isfinite(a) and abs(a - b) <= tol


def check_sweep(record: dict, reference: dict) -> Verdicts:
    """Rows s = 2..40: c_method = s-1, xineq holds exactly for s <= 4, c_dense
    = s-1 for s <= 4 and equal to the reference run for s >= 5.  A row is a
    conclusive verdict when it passes; a more conservative certifier gives a
    lower c_dense and fails."""
    out = Verdicts()
    rows = record.get("rows")
    expected_s = list(range(2, SWEEP_SMAX + 1))
    if not isinstance(rows, list) or [row.get("s") for row in rows] != expected_s:
        out.fail(f"sweep rows are not s = 2..{SWEEP_SMAX}")
        return out
    dense_ref = reference["sweep_c_dense"]
    for row in rows:
        s = row["s"]
        before = len(out.failures)
        if not _close(row.get("c_method"), s - 1.0, COEFF_TOL):
            out.fail(f"s={s}: c_method {row.get('c_method')!r} != {s - 1}")
        if row.get("xineq_holds") is not (s <= 4):
            out.fail(f"s={s}: xineq_holds {row.get('xineq_holds')!r}")
        if s <= 4:
            ok = _close(row.get("c_dense"), s - 1.0, COEFF_TOL)
        else:
            ok = _close(row.get("c_dense"), dense_ref[str(s)], SWEEP_DENSE_TOL)
        if not ok:
            out.fail(f"s={s}: c_dense {row.get('c_dense')!r} off the reference")
        out.total += 1
        out.conclusive += len(out.failures) == before
    return out


def check_certify(key: str, record: dict, expected: tuple) -> Verdicts:
    """r_method and r_dense equal the registry's c_method and c_combined, and
    the certificate is not conservative."""
    out = Verdicts(total=1)
    c_method, c_combined = expected
    if not _close(record.get("r_method"), c_method, COEFF_TOL):
        out.fail(f"{key}: r_method {record.get('r_method')!r} != {c_method}")
    if key in CERTIFY_DENSE_KEYS:
        if not _close(record.get("r_dense"), c_combined, COEFF_TOL):
            out.fail(f"{key}: r_dense {record.get('r_dense')!r} != {c_combined}")
    elif record.get("r_dense") is not None:
        out.fail(f"{key}: r_dense given without --dense")
    if record.get("conservative") is not False:
        out.fail(f"{key}: certificate is conservative")
    else:
        out.conclusive = 1
    return out


def check_search(record: dict, sspdo, reference: dict) -> Verdicts:
    """The status must be the reference run's ("feasible": its LPs are
    feasible in every round, and its uncertified candidate is a witness), so a
    solver or prescreen that wrongly reports infeasibility fails.  A certified
    candidate is re-checked through the public order residuals and the dense
    monotonicity probe at r; an uncertified one is inconclusive, not failed."""
    out = Verdicts(total=1)
    status = record.get("status")
    if status != reference["search_status"]:
        out.fail(f"search status {status!r}, not {reference['search_status']!r}")
        return out
    if record.get("certified") is not True:
        return out
    tab = sspdo.family_tableau(SEARCH_STAGES)
    try:
        weights = sspdo.DenseWeights(record["weights"])
        report = sspdo.dense_order_residuals(tab, weights)
    except (KeyError, TypeError, ValueError) as exc:
        out.fail(f"certified search weights unreadable: {exc}")
        return out
    if any(n > 1e-10 for lvl, n in zip(report.levels, report.max_norms) if lvl <= SEARCH_ORDER):
        out.fail("certified search weights miss the order conditions")
    check = sspdo.monotonicity_feasible_dense(tab, weights, SEARCH_R)
    if not check.feasible:
        names = ", ".join(v.condition for v in check.violations) or "inconclusive"
        out.fail(f"certified search weights fail the dense probe at r={SEARCH_R}: {names}")
    if not out.failures:
        out.conclusive = 1
    return out


def check_figure1_record(record: dict, reference: dict) -> Verdicts:
    out = Verdicts(total=1)
    if record.get("ssp_contained") is not True:
        out.fail("figure1: ssp formula left [0, 1]")
    else:
        out.conclusive = 1
    nonssp_min = (record.get("nonssp") or {}).get("min")
    if not _close(nonssp_min, reference["figure1_nonssp_min"], FIGURE1_MIN_TOL):
        out.fail(f"figure1: nonssp.min {nonssp_min!r} off the reference")
    return out


def csv_value_digest(path: str) -> tuple[int, str]:
    """Line count and a digest of the parsed values of a figure1 CSV.

    Numbers enter the digest as the doubles they parse to, so a formatting
    change that keeps every value passes and a lossy one does not."""
    digest = hashlib.sha256()
    with open(path, encoding="utf-8") as handle:
        lines = 0
        for line in handle:
            fields = line.rstrip("\n").split(",")
            if lines == 0:
                digest.update(line.encode())
            else:
                digest.update(struct.pack("<4d", *map(float, fields[:4])))
                digest.update(",".join(fields[4:]).encode())
            lines += 1
    return lines, digest.hexdigest()


def file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def check_figure1_csvs(out_dir: str, reference: dict) -> list[str]:
    failures = []
    for name, expected in reference["figure1_csv"].items():
        try:
            lines, digest = csv_value_digest(os.path.join(out_dir, name))
        except (ValueError, struct.error) as exc:
            failures.append(f"figure1: {name} does not parse: {exc}")
            continue
        if lines != expected["lines"]:
            failures.append(f"figure1: {name} has {lines} lines, not {expected['lines']}")
        if digest != expected["value_digest"]:
            failures.append(f"figure1: {name} values differ from the reference")
    return failures


WORKLOADS = ("sweep", "search", "figure1", "certify")


def job(workload: str, rng: random.Random, out_dir: str) -> list[list[str]]:
    """The invocations of one job of `workload`, in the order the seed gives."""
    if workload == "sweep":
        return [list(SWEEP)]
    if workload == "search":
        return [list(SEARCH)]
    if workload == "figure1":
        return [figure1_argv(out_dir)]
    keys = list(CERTIFY_DENSE_KEYS + CERTIFY_METHOD_KEYS)
    rng.shuffle(keys)
    return [certify_argv(key) for key in keys]


class Checker:
    """Checks the outputs of one workload against the kept references.

    `expected` holds what the checks need from the program before it runs:
    the registry's coefficients for `certify`, and the public functions the
    `search` re-check uses.  Byte hashes of figure1 CSVs are kept across jobs
    so that every rerun must reproduce the first run's bytes."""

    def __init__(self, workload: str, reference: dict, sspdo, out_dir: str):
        self.workload = workload
        self.reference = reference
        self.sspdo = sspdo
        self.out_dir = out_dir
        self.csv_hashes: dict[str, str] | None = None
        self.expected = {}
        if workload == "certify":
            for key in CERTIFY_DENSE_KEYS + CERTIFY_METHOD_KEYS:
                entry = sspdo.get_method(key)
                self.expected[key] = (entry.c_method, entry.c_combined)

    def check_op(self, argv: list[str], rc, stdout: str) -> Verdicts:
        if rc != 0:
            out = Verdicts(total=1)
            out.fail(f"{' '.join(argv)} exited {rc!r}")
            return out
        try:
            record = json.loads(stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            out = Verdicts(total=1)
            out.fail(f"{' '.join(argv)} printed no JSON record")
            return out
        if self.workload == "sweep":
            return check_sweep(record, self.reference)
        if self.workload == "search":
            return check_search(record, self.sspdo, self.reference)
        if self.workload == "figure1":
            return check_figure1_record(record, self.reference)
        key = argv[argv.index("--method") + 1]
        return check_certify(key, record, self.expected[key])

    def check_files(self) -> list[str]:
        """figure1 only: the CSVs of a job must all be there; the first ones
        that match the reference values fix the bytes that every later job's
        CSVs must reproduce."""
        if self.workload != "figure1":
            return []
        paths = {name: os.path.join(self.out_dir, name) for name in self.reference["figure1_csv"]}
        missing = [f"figure1: {name} missing" for name, path in paths.items() if not os.path.exists(path)]
        if missing:
            return missing
        hashes = {name: file_sha256(path) for name, path in paths.items()}
        if self.csv_hashes is None:
            failures = check_figure1_csvs(self.out_dir, self.reference)
            if not failures:
                self.csv_hashes = hashes
            return failures
        if hashes != self.csv_hashes:
            return ["figure1: rerun CSVs are not byte-identical to the first run"]
        return []
