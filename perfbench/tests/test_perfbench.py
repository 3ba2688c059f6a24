"""Self-tests of the benchmark harness: self time, the tail rule, the output
checkers and the layer patching."""

from __future__ import annotations

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import sspdo  # noqa: E402
import sspdo.experiments  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from run import fresh_dir, tail_percentile  # noqa: E402

REFERENCE = workloads.load_reference()

# The uncertified candidate that `search --stages 5 --order 2 --degree 3 --r 4`
# returns; it violates the dense budget by about 4e-5 near theta = 0.586.
SEARCH_WEIGHTS = [
    [0.0, 1.0, -1.230995594170712, 0.43099559417071204],
    [0.0, 0.0, 0.7691574006068088, -0.5691574006068089],
    [0.0, 0.0, 0.2570607187203133, -0.0570607187203133],
    [0.0, 0.0, 0.10238873742179491, 0.09761126257820507],
    [0.0, 0.0, 0.10238873742179491, 0.09761126257820507],
]


def _span(name, start, end, parent=None):
    return spans.Span(name, start, end, parent, 0)


def test_self_time_subtracts_children():
    nested = [
        _span("job", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("b", 2.0, 3.0, parent=1),
        _span("c", 5.0, 9.0, parent=0),
    ]
    assert spans.self_times(nested) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    assert spans.layer_self_seconds(nested + [_span("a", 9.5, 10.0, parent=0)]) == pytest.approx(
        {"job": 2.5, "a": 2.5, "b": 1.0, "c": 4.0}
    )


def test_tail_needs_ten_samples_beyond():
    value, percentile, beyond = tail_percentile(range(1, 101))
    assert (value, percentile, beyond) == (90, 90.0, 10)
    value, percentile, beyond = tail_percentile(range(1, 1001))
    assert (value, percentile, beyond) == (990, 99.0, 10)


def test_tail_falls_back_to_the_median_on_few_samples():
    assert tail_percentile(range(1, 21)) == (10, 50.0, 10)
    assert tail_percentile(range(1, 22)) == (11, 100.0 * 11 / 21, 10)
    assert tail_percentile([5.0, 1.0, 3.0]) == (3.0, 100.0 * 2 / 3, 1)


def _sweep_record():
    rows = []
    for s in range(2, 41):
        c_dense = float(s - 1) if s <= 4 else REFERENCE["sweep_c_dense"][str(s)]
        rows.append(
            {"s": s, "c_method": float(s - 1), "gamma": 0.0, "xineq_holds": s <= 4, "c_dense": c_dense}
        )
    return {"rows": rows}


def test_sweep_check_rejects_perturbed_dense_coefficient():
    record = _sweep_record()
    assert workloads.check_sweep(record, REFERENCE).failures == []
    record["rows"][3]["c_dense"] += 1e-6  # s = 5
    verdicts = workloads.check_sweep(record, REFERENCE)
    assert len(verdicts.failures) == 1 and "s=5" in verdicts.failures[0]
    assert (verdicts.conclusive, verdicts.total) == (38, 39)


def test_sweep_check_rejects_missing_rows_and_wrong_xineq():
    record = _sweep_record()
    record["rows"][4]["xineq_holds"] = True  # s = 6
    assert workloads.check_sweep(record, REFERENCE).failures
    record["rows"].pop()
    assert workloads.check_sweep(record, REFERENCE).failures


def test_certify_check_rejects_conservative_and_wrong_coefficients():
    good = {"r_method": 2.0, "r_dense": 2.0, "conservative": False}
    assert workloads.check_certify("ssp322", good, (2.0, 2.0)).failures == []
    assert workloads.check_certify("ssp322", dict(good, conservative=True), (2.0, 2.0)).failures
    assert workloads.check_certify("ssp322", dict(good, r_dense=1.999), (2.0, 2.0)).failures
    method_only = {"r_method": 4.0, "r_dense": None, "conservative": False}
    assert workloads.check_certify("family-s5", method_only, (4.0, None)).failures == []


def test_search_check_rejects_a_false_certified_claim():
    record = {"status": "feasible", "certified": True, "weights": SEARCH_WEIGHTS}
    verdicts = workloads.check_search(record, sspdo, REFERENCE)
    assert verdicts.failures and "dense_bound" in verdicts.failures[0]
    uncertified = dict(record, certified=False)
    verdicts = workloads.check_search(uncertified, sspdo, REFERENCE)
    assert verdicts.failures == [] and (verdicts.conclusive, verdicts.total) == (0, 1)


def test_search_check_rejects_a_status_other_than_the_reference():
    # The reference run's LPs are feasible in every round, so "infeasible" is wrong.
    for status in ("infeasible", None):
        verdicts = workloads.check_search({"status": status, "certified": False}, sspdo, REFERENCE)
        assert verdicts.failures and (verdicts.conclusive, verdicts.total) == (0, 1)


def test_figure1_csv_check_rejects_lossy_formatting(tmp_path):
    summary = sspdo.experiments.run_figure1(h=1.6, out_dir=str(tmp_path))
    assert workloads.check_figure1_record(summary.as_record(), REFERENCE).failures == []
    assert workloads.check_figure1_csvs(str(tmp_path), REFERENCE) == []

    def rewrite(fmt):
        path = tmp_path / "ssp.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        out = [lines[0]]
        for line in lines[1:]:
            *numbers, formula = line.split(",")
            out.append(",".join([fmt % float(x) for x in numbers] + [formula]))
        path.write_text("\n".join(out) + "\n", encoding="utf-8")

    rewrite("%.17g")  # a different text of the same values passes
    assert workloads.check_figure1_csvs(str(tmp_path), REFERENCE) == []
    rewrite("%.6g")
    failures = workloads.check_figure1_csvs(str(tmp_path), REFERENCE)
    assert failures == ["figure1: ssp.csv values differ from the reference"]


def test_figure1_csvs_left_by_an_earlier_job_do_not_count(tmp_path):
    out_dir = str(tmp_path / "out")
    sspdo.experiments.run_figure1(h=1.6, out_dir=out_dir)
    checker = workloads.Checker("figure1", REFERENCE, sspdo, out_dir)
    assert checker.check_files() == []
    fresh_dir(out_dir)  # a job that then writes nothing
    assert checker.check_files() == ["figure1: nonssp.csv missing", "figure1: ssp.csv missing"]


def test_patcher_names_bindings_and_restores_originals():
    tracer = spans.Tracer()
    patcher = spans.Patcher(sspdo, tracer)
    assert patcher.absent == []
    entry = sspdo.get_method("ssp222")
    original = sspdo.certify.monotonicity_feasible_dense
    patcher.install()
    try:
        sspdo.certify.dense_ssp_coefficient(entry.tableau, entry.dense_weights)
        sspdo.construct.monotonicity_feasible_dense(entry.tableau, entry.dense_weights, 1.0)
    finally:
        patcher.remove()
    assert sspdo.certify.monotonicity_feasible_dense is original
    names = [span.name for span in tracer.spans]
    assert names.count("construct.candidate_check") == 1
    assert tracer.counts["certify.bisect_dense.calls"] == 1
    assert tracer.counts["certify.probe_dense.calls"] > 1
    candidate = names.index("construct.candidate_check")
    assert tracer.spans[candidate + 1].parent == candidate  # its resolvent call


def test_absent_layers_are_reported_not_raised():
    layers = spans.LAYERS + (
        ("nosuch.layer", "nosuchmodule", "anything"),
        ("certify.gone", "certify", "no_such_function"),
    )
    patcher = spans.Patcher(sspdo, spans.Tracer(), layers)
    assert patcher.absent == ["nosuch.layer", "certify.gone"]
