import json
import os
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest

import sspdo
from sspdo import certify, cli, registry
from sspdo.cli import main
from sspdo.construct import family_tableau, lp_search, second_order_weights
from sspdo.errors import ParseError
from sspdo.experiments import (
    FIGURE1_N_STEPS,
    FIGURE1_N_THETA,
    FIGURE1_N_U0,
    run_figure1,
)
from sspdo.integrate import dense_eval_grid, integrate_fixed
from sspdo.problems import get_problem, sinode
from sspdo.tableau_io import (
    dumps_tableau,
    load_tableau_file,
    loads_tableau,
    save_tableau_file,
)

# --------------------------------------------------------------------- files

def test_round_trip_is_bit_exact(tmp_path):
    entry = registry.get("ssp322")
    path = tmp_path / "ssp322.json"
    save_tableau_file(path, entry.tableau, entry.dense_weights)
    tab, weights = load_tableau_file(path)
    assert np.array_equal(tab.A, entry.tableau.A)
    assert np.array_equal(tab.b, entry.tableau.b)
    assert np.array_equal(weights.coeffs, entry.dense_weights.coeffs)
    assert tab.name == entry.tableau.name


def test_rational_string_input():
    text = json.dumps(
        {
            "A": [[0, 0, 0], ["1/2", 0, 0], ["1/2", "1/2", 0]],
            "b": ["1/3", "1/3", "1/3"],
        }
    )
    tab, weights = loads_tableau(text)
    assert weights is None
    assert abs(tab.b.sum() - 1.0) < 1e-16
    assert tab.b[0] == 1.0 / 3.0


def test_bbar_block():
    text = json.dumps(
        {
            "A": [[0, 0], [1, 0]],
            "b": ["1/2", "1/2"],
            "bbar": [[0, 1, "-1/2"], [0, 0, "1/2"]],
        }
    )
    tab, weights = loads_tableau(text)
    assert weights.degree == 2
    assert weights.coeffs[0, 2] == -0.5


def test_ragged_rows_rejected():
    with pytest.raises(ParseError, match="ragged"):
        loads_tableau(json.dumps({"A": [[0, 0], [1]], "b": [0.5, 0.5]}))


def test_missing_field_rejected():
    with pytest.raises(ParseError, match="'b'"):
        loads_tableau(json.dumps({"A": [[0]]}))


def test_malformed_json_has_line_context():
    with pytest.raises(ParseError, match=":2:"):
        loads_tableau('{\n"A" [[0]]\n}')


def test_zero_row_violation_surfaces_as_parse_error():
    with pytest.raises(ParseError):
        loads_tableau(json.dumps({"A": [[0, 0], [0, 0]], "b": [0.5, 0.5]}))


def test_mismatched_c_rejected():
    with pytest.raises(ParseError):
        loads_tableau(
            json.dumps({"A": [[0, 0], [1, 0]], "b": [0.5, 0.5], "c": [0, 0.25]})
        )


def test_bbar_row_count_checked():
    with pytest.raises(ParseError, match="bbar"):
        loads_tableau(
            json.dumps({"A": [[0, 0], [1, 0]], "b": [0.5, 0.5], "bbar": [[0, 1]]})
        )


@pytest.mark.parametrize(
    "data, message",
    [
        ({"A": [], "b": []}, "field 'A' has no rows"),
        ({"A": [[0]], "b": [1], "bbar": []}, "field 'bbar': dense weights have no coefficients"),
    ],
)
def test_empty_coefficient_blocks_rejected(data, message):
    with pytest.raises(ParseError, match=re.escape(message)):
        loads_tableau(json.dumps(data))


@pytest.mark.parametrize(
    "data",
    [
        {"A": [[0, 0], [True, 0]], "b": ["1/2", "1/2"]},
        {"A": [[0, 0], [1, 0]], "b": [False, 1]},
        {"A": [[0, 0], [1, 0]], "b": ["1/2", "1/2"], "bbar": [[0, True], [0, "1/2"]]},
    ],
)
def test_json_booleans_are_no_coefficients(data):
    with pytest.raises(ParseError, match="cannot interpret (True|False) as a coefficient"):
        loads_tableau(json.dumps(data))


# ----------------------------------------------------------------------- cli

def test_certify_record(capsys):
    assert main(["certify", "--method", "ssp322", "--format", "record"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["r_method"] == pytest.approx(2.0, abs=1e-8)
    assert record["r_dense"] is None


def test_certify_dense_from_file(tmp_path, capsys):
    entry = registry.get("ssp222")
    path = tmp_path / "m.json"
    save_tableau_file(path, entry.tableau, entry.dense_weights)
    assert main(["certify", "--tableau", str(path), "--dense", "--format", "record"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["r_combined"] == pytest.approx(1.0, abs=1e-8)


def test_certify_human_marks_an_unbounded_coefficient(tmp_path, capsys):
    # implicit Euler is feasible at every radius, so bisection stops at the
    # cap R_CAP = 1e6; the human lines must not print the cap as a number
    path = tmp_path / "implicit-euler.json"
    path.write_text(json.dumps({"A": [[1]], "b": [1], "bbar": [[0, 1]]}))
    assert main(["certify", "--tableau", str(path), "--dense"]) == 0
    lines = capsys.readouterr().out.splitlines()
    for label in ("r_method", "r_dense", "r_combined"):
        (line,) = [line for line in lines if line.split()[0] == label]
        assert line.split()[1] == "unbounded", line
        assert "1000000" not in line, line
    assert json.loads(lines[-1])["method_unbounded"] is True


def test_certify_leaves_the_budget_inequality_of_an_unbounded_method_unjudged(tmp_path, capsys):
    # at the cap, gamma <= 1 - C/4 would read 1e-6 <= -249999 and judge the
    # cap; like C = 0, an unbounded C has no inequality to judge
    path = tmp_path / "implicit-euler.json"
    path.write_text(json.dumps({"A": [[1]], "b": [1], "bbar": [[0, 1]]}))
    assert main(["certify", "--tableau", str(path), "--dense"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert not [line for line in lines if line.split()[0] == "xineq"], lines
    record = json.loads(lines[-1])
    assert record["method_unbounded"] is True
    assert (record["xineq_holds"], record["xineq_lhs"], record["xineq_rhs"]) == (None, None, None)
    assert record["gamma"] == pytest.approx(1e-6, rel=1e-5)


@pytest.mark.parametrize(
    "source, dense, flag",
    [("implicit-euler", True, True), ("ssp322", True, False), ("ssp322", False, None)],
    ids=["unbounded", "bounded", "no-dense"],
)
def test_certify_record_flags_an_unbounded_dense_coefficient(tmp_path, capsys, source, dense, flag):
    # the record prints the cap R_CAP = 1e6 for an unbounded dense sup, so a
    # flag, next to method_unbounded, says which; without --dense it is null
    if source == "implicit-euler":
        path = tmp_path / "implicit-euler.json"
        path.write_text(json.dumps({"A": [[1]], "b": [1], "bbar": [[0, 1]]}))
        argv = ["certify", "--tableau", str(path)]
    else:
        argv = ["certify", "--method", source]
    assert main(argv + ["--dense"] * dense + ["--format", "record"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["dense_unbounded"] is flag
    keys = list(record)
    assert keys[keys.index("method_unbounded") + 1] == "dense_unbounded"


@pytest.mark.parametrize(
    "source, dense, flag",
    [("misses-b", True, False)]
    + [
        (key, True, True)
        for key in ("ssp222", "ssp322", "ssp332", "numexample-322")
        + ("family-s2", "family-s3", "family-s4")
    ]
    + [("ssp322", False, None)],
)
def test_certify_record_says_whether_the_dense_weights_meet_b(tmp_path, capsys, source, dense, flag):
    # ssp222 with bbar (0.6 theta, 0.4 theta) certifies r_dense 1 but misses
    # b = (1/2, 1/2) at theta = 1; the record says so next to dense_unbounded
    # and a human line says so only then; without --dense the flag is null
    if source == "misses-b":
        path = tmp_path / "misses-b.json"
        path.write_text(json.dumps(
            {"A": [[0, 0], ["1", 0]], "b": ["1/2", "1/2"], "bbar": [[0, "0.6"], [0, "0.4"]]}
        ))
        argv = ["certify", "--tableau", str(path)]
    else:
        argv = ["certify", "--method", source]
    assert main(argv + ["--dense"] * dense) == 0
    lines = capsys.readouterr().out.splitlines()
    record = json.loads(lines[-1])
    assert record["dense_matches_b"] is flag
    keys = list(record)
    assert keys[keys.index("dense_unbounded") + 1] == "dense_matches_b"
    missing = [line for line in lines[:-1] if line.split()[0] == "w(1)"]
    expected = ["  w(1) = b     fails (not a continuous extension)"]
    assert missing == (expected if flag is False else [])
    if source == "misses-b":
        assert record["r_dense"] == 1.0


def test_certify_gives_a_record_where_float_noise_breaks_the_interval(tmp_path, capsys):
    # family-s24 with 1e-12 of b*theta's linear coefficient moved from stage
    # 1 to stage 2: its binding row stays within rounding of its bound over
    # a range of r, so radii probed just above the sup can read feasible
    s = 24
    bbar = [[0, "1/24"] for _ in range(s)]
    bbar[0][1], bbar[1][1] = "0.041666666665666666", "0.04166666666766666"
    data = {
        "A": [["1/23" if j < i else 0 for j in range(s)] for i in range(s)],
        "b": ["1/24"] * s,
        "bbar": bbar,
    }
    (tmp_path / "f.json").write_text(json.dumps(data))
    argv = ["certify", "--tableau", str(tmp_path / "f.json"), "--dense", "--format", "record"]
    assert main(argv) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["r_method"] == 23.0
    assert 15.19 < record["r_dense"] == record["r_combined"] < 15.2


def test_certify_human_marks_a_conservative_coefficient(monkeypatch, capsys):
    # a feasible sliver at ssp222's post-verification radius 1 + 2e-8 leaves
    # r_dense 1 a lower bound that may not be tight
    line = "  conservative yes (a certified lower bound that may not be tight)"
    assert main(["certify", "--method", "ssp222", "--dense"]) == 0
    assert line not in capsys.readouterr().out.splitlines()
    original = certify.monotonicity_feasible_dense

    def probe(tab, weights, r):
        if 1.0 + 1.5e-8 < r < 1.0 + 2.5e-8:
            return certify.FeasibilityCheck(())
        return original(tab, weights, r)

    monkeypatch.setattr(certify, "monotonicity_feasible_dense", probe)
    assert main(["certify", "--method", "ssp222", "--dense"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:5] == [
        "  r_method     1",
        "  r_dense      1",
        "  r_combined   1",
        line,
    ]
    assert json.loads(lines[-1])["conservative"] is True


def test_certify_ignores_a_tolerance_in_the_environment(tmp_path, monkeypatch, capsys):
    # the bisection tolerance is the constant certify.BISECT_TOL, so
    # SSPDO_TOL, which once set it, is ignored; r_dense 2.897271185356658 is
    # not dyadic, so a coarser tolerance would show in it
    tab = family_tableau(5)
    save_tableau_file(tmp_path / "f5.json", tab, second_order_weights(tab))
    argv = ["certify", "--tableau", str(tmp_path / "f5.json"), "--dense", "--format", "record"]
    monkeypatch.delenv("SSPDO_TOL", raising=False)
    assert main(argv) == 0
    unset = capsys.readouterr().out
    assert json.loads(unset)["r_dense"] == 2.897271185356658
    for value in ("1e-3", "abc"):
        monkeypatch.setenv("SSPDO_TOL", value)
        assert main(argv) == 0, value
        assert capsys.readouterr().out == unset, value


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_parser_reuse_keeps_no_flag_from_an_earlier_call(capsys):
    argv = ["certify", "--method", "ssp322", "--format", "record"]
    assert main([*argv, "--dense"]) == 0
    assert json.loads(capsys.readouterr().out)["r_dense"] is not None
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["r_dense"] is None


def test_parser_reuse_after_a_usage_error(capsys):
    argv = ["certify", "--method", "ssp322", "--dense"]
    assert main(argv) == 0
    first = capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["certify"])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err
    assert main(argv) == 0
    assert capsys.readouterr() == first


def test_construct_emits_bbar_block(capsys):
    assert main(["construct", "--method", "ssp222", "--order", "2"]) == 0
    block = json.loads(capsys.readouterr().out)
    assert block["bbar"] == [[0.0, 1.0, -0.5], [0.0, 0.0, 0.5]]


def test_search_record(capsys):
    code = main(
        [
            "search", "--stages", "6", "--order", "2", "--degree", "2",
            "--r", "5", "--format", "record",
        ]
    )
    assert code == 0
    record = json.loads(capsys.readouterr().out)
    assert record["status"] == "infeasible"
    assert record["violated_necessary"]["condition"] == "family-quadratic-peak"


def test_shu_osher_command(tmp_path, capsys):
    entry = registry.get("ssp322")
    path = tmp_path / "m.json"
    save_tableau_file(path, entry.tableau, entry.dense_weights)
    assert main(["shu-osher", "--tableau", str(path), "--C", "2", "--format", "record"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["beta_bar"][0][1] == pytest.approx(2.0, abs=1e-13)


def test_integrate_csv(capsys):
    assert main(
        [
            "integrate", "--method", "ssp222", "--problem", "sinode",
            "--u0", "0.3", "--h", "0.5", "--steps", "3", "--dense", "4",
        ]
    ) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "t,theta_global,u,is_step_point"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 3 * 4 + 1
    values = [float(r[2]) for r in rows]
    assert all(0.0 <= v <= 1.0 for v in values)
    assert {r[3] for r in rows} == {"0", "1"}


def test_integrate_dense_without_weights_exit_code(capsys):
    # family-s5 has no built-in dense weights; certify --dense and shu-osher
    # exit 2 for the same input
    argv = ["integrate", "--method", "family-s5", "--u0", "0.3", "--h", "0.5",
            "--steps", "3", "--dense", "4"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--dense requires dense weights" in captured.err


@pytest.mark.parametrize(
    "command",
    [
        ["certify", "--dense"],
        ["shu-osher", "--C", "1"],
        ["integrate", "--u0", "0.3", "--h", "0.5", "--steps", "1", "--dense", "4"],
    ],
)
def test_empty_dense_weight_rows_exit_code(command, tmp_path, capsys):
    path = tmp_path / "empty-bbar.json"
    path.write_text(json.dumps({"A": [[0]], "b": [1], "bbar": [[]]}))
    assert main([command[0], "--tableau", str(path), *command[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "dense weights have no coefficients" in captured.err


@pytest.mark.parametrize("flag", ["--steps", "--dense"])
def test_integrate_allocation_failure_exit_code(flag, capsys):
    # 10**13 points need 72.8 TiB, so numpy fails at once; never test a size
    # that fits in memory, as it would really be allocated
    argv = ["integrate", "--method", "ssp222", "--u0", "0.3", "--h", "0.5",
            "--steps", "10", flag, str(10**13)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert len(captured.err.splitlines()) == 1


def test_integrate_dense_one_needs_no_weights(capsys):
    # --dense 1 evaluates no point inside a step: the rows of --dense 0
    argv = ["integrate", "--method", "family-s5", "--u0", "0.3", "--h", "0.5", "--steps", "2"]
    assert main(argv + ["--dense", "0"]) == 0
    rows = capsys.readouterr().out
    assert main(argv + ["--dense", "1"]) == 0
    assert capsys.readouterr().out == rows
    assert len(rows.splitlines()) == 1 + 3


@pytest.mark.parametrize("name", ["linear", "quadrature"])
def test_integrate_step_points_match_exact_solution(name, capsys):
    # the third-order method's step points over [0, 1] miss the exact solution
    # by at most h^3/100, and halving h divides the miss by at least 2^2.9
    exact = get_problem(name).exact
    errors = []
    for h, steps in ((0.1, "10"), (0.05, "20")):
        argv = ["integrate", "--method", "ssp332", "--problem", name, "--u0", "0.3",
                "--h", repr(h), "--steps", steps, "--dense", "4"]
        assert main(argv) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        points = [(float(t), float(u)) for t, _, u, is_step in rows if is_step == "1"]
        assert len(points) == int(steps) + 1
        errors.append(max(abs(u - float(exact(t, 0.3))) for t, u in points))
        assert errors[-1] <= h**3 / 100, (h, errors[-1])
    assert np.log2(errors[0] / errors[1]) >= 2.9, errors


@pytest.mark.parametrize("key", registry.keys())
def test_integrate_dense_values_are_dense_eval_grid(key, capsys):
    # the CLI prints the one dense evaluator's values, to the last bit
    argv = ["integrate", "--method", key, "--problem", "sinode", "--u0", "0.3",
            "--h", "0.5", "--steps", "10", "--dense", "8"]
    assert main(argv) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    printed = np.array([float(row[2]) for row in rows if row[3] == "0"]).reshape(10, 7)
    entry = registry.get(key)
    traj = integrate_fixed(entry.tableau, sinode(), [0.3], 0.5, 10)
    thetas = np.arange(1, 8) / 8
    grid = [dense_eval_grid(traj, entry.dense_weights, n, thetas)[:, 0] for n in range(10)]
    assert np.array_equal(printed, grid)


def test_unknown_method_exit_code(capsys):
    assert main(["certify", "--method", "nope"]) == 2


def test_key_error_inside_a_command_is_not_a_usage_error(monkeypatch):
    # only the typed unknown-name error is a usage error; a KeyError from a
    # bug propagates instead of exiting 2
    def broken(*args, **kwargs):
        raise KeyError("bug")

    monkeypatch.setattr(cli, "compute_certificate", broken)
    with pytest.raises(KeyError, match="bug"):
        main(["certify", "--method", "ssp222"])


def test_missing_method_source_exit_code(capsys):
    with pytest.raises(SystemExit) as info:
        main(["certify"])
    assert info.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "--method", "ssp222", "--tableau", "m.json"],
        ["search", "--stages", "5", "--method", "ssp222", "--order", "2",
         "--degree", "2", "--r", "4"],
    ],
    ids=["method-and-tableau", "stages-and-method"],
)
def test_two_method_sources_are_a_usage_error(argv, capsys):
    # neither source silently wins over the other
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert "not allowed with argument" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, needer",
    [
        (["certify", "--method", "family-s5", "--dense"], "--dense"),
        (["shu-osher", "--method", "family-s5", "--C", "1"], "shu-osher"),
        (["integrate", "--method", "family-s5", "--u0", "0.3", "--h", "0.5",
          "--steps", "3", "--dense", "4"], "--dense"),
    ],
    ids=["certify", "shu-osher", "integrate"],
)
def test_missing_dense_weights_is_a_typed_error(argv, needer, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {needer} requires dense weights (bbar)\n"
    assert captured.out == ""


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


_REAL_OPTIONS = {
    "integrate-u0": ["integrate", "--method", "ssp222", "--u0", "X", "--h", "0.5",
                     "--steps", "2"],
    "integrate-h": ["integrate", "--method", "ssp222", "--u0", "0.3", "--h", "X",
                    "--steps", "2"],
    "figure1-h": ["experiment", "figure1", "--h", "X", "--out", "OUT"],
}


@pytest.mark.parametrize(
    "argv, option",
    [
        (["search", "--stages", "3", "--order", "1", "--degree", "1", "--r", "1e400"], "--r"),
        (["shu-osher", "--method", "ssp222", "--C", "1e400"], "--C"),
        (["certify", "--tableau", "big.json"], None),
        *(
            ([value if a == "X" else a for a in argv], argv[argv.index("X") - 1])
            for argv in _REAL_OPTIONS.values()
            for value in ("nan", "inf", "1e400")
        ),
    ],
    ids=["search-r", "shu-osher-C", "tableau-entry", *(
        f"{name}-{value}" for name in _REAL_OPTIONS for value in ("nan", "inf", "1e400")
    )],
)
def test_coefficient_beyond_float_range_exit_code(argv, option, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "big.json").write_text(
        json.dumps({"A": [[0, 0], ["1e400", 0]], "b": ["1/2", "1/2"]})
    )
    assert _exit_code(argv) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
    if option is not None:
        assert f"argument {option}:" in captured.err
    assert not (tmp_path / "OUT").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["experiment", "sweep", "--smax", "3", "--out", "OUT"],
        ["experiment", "sweep", "--h", "3"],
        ["experiment", "convergence", "--smax", "3"],
        ["experiment", "figure1", "--smax", "3", "--out", "OUT"],
        ["certify", "--meth", "ssp222"],
        ["certify", "--method", "ssp222", "--dens"],
        ["experiment", "sweep", "--sm", "3"],
    ],
    ids=["sweep-out", "sweep-h", "convergence-smax", "figure1-smax",
         "prefix-meth", "prefix-dens", "prefix-sm"],
)
def test_unread_or_abbreviated_option_is_a_usage_error(argv, tmp_path, monkeypatch, capsys):
    # an experiment takes only the options it reads, each spelled in full
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert capsys.readouterr().out == ""
    assert not (tmp_path / "OUT").exists()


def test_real_option_takes_a_fraction(capsys):
    argv = ["integrate", "--method", "ssp222", "--h", "0.5", "--steps", "3", "--dense", "4"]
    assert main([*argv, "--u0", "1/3"]) == 0
    fraction = capsys.readouterr().out
    assert main([*argv, "--u0", "0.3333333333333333"]) == 0
    assert capsys.readouterr().out == fraction


@pytest.mark.parametrize(
    "data, message",
    [
        ([[0]], "top level must be an object"),
        ({"A": [0, 1], "b": [1]}, "field 'A' must be a list of rows"),
        ({"A": [[0]], "b": 1}, "field 'b' must be a list"),
        ({"A": [[0]], "b": [1], "name": 3}, "field 'name' must be a string"),
        ({"A": [[0]], "b": [1], "bbar": [0, 1]}, "field 'bbar' must be a list of rows"),
        ({"A": [[0, 0], [1, 0]], "b": [0.5, 0.5], "c": [0, 1, 2]},
         "c length does not match stage count"),
        ({"A": [[0, 0], [None, 0]], "b": [0.5, 0.5]}, "cannot interpret None as a coefficient"),
    ],
    ids=["top-level", "A", "b", "name", "bbar", "c-length", "null-entry"],
)
def test_malformed_field_is_a_parse_error(data, message, tmp_path, capsys):
    with pytest.raises(ParseError, match=re.escape(message)):
        loads_tableau(json.dumps(data))
    path = tmp_path / "tableau.json"
    path.write_text(json.dumps(data))
    assert main(["certify", "--tableau", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {path}: {message}\n"
    assert captured.out == ""


def test_search_on_a_one_stage_tableau_is_infeasible(tmp_path, capsys):
    # forward Euler is no family member (s < 2) and has no second-order
    # dense output: a verdict, exit 0
    path = tmp_path / "euler.json"
    path.write_text(json.dumps({"A": [[0]], "b": [1]}))
    argv = ["search", "--tableau", str(path), "--order", "2", "--degree", "2", "--r", "0.5"]
    assert main([*argv, "--format", "record"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["status"] == "infeasible"
    assert captured.err == ""


def test_construct_needs_a_first_order_method(tmp_path, capsys):
    path = tmp_path / "order0.json"
    path.write_text(json.dumps({"A": [[0]], "b": [0]}))
    assert main(["construct", "--tableau", str(path), "--order", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: method must be at least first order\n"
    assert captured.out == ""


def test_missing_file_exit_code(capsys):
    assert main(["certify", "--tableau", "/nonexistent.json"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "--stages", "5", "--order", "2", "--degree", "3", "--r", "0"],
        ["search", "--stages", "5", "--order", "2", "--degree", "0", "--r", "4"],
        ["search", "--stages", "1", "--order", "2", "--degree", "3", "--r", "4"],
    ],
    ids=["r-zero", "degree-zero", "one-stage"],
)
def test_search_bad_argument_exit_code(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["experiment", "sweep", "--smax", "1"],
        ["integrate", "--method", "ssp222", "--u0", "0.3", "--h", "0.5", "--steps", "-2"],
        ["integrate", "--method", "ssp222", "--u0", "0.3", "--h", "-1", "--steps", "3"],
        ["integrate", "--method", "ssp222", "--u0", "0.3", "--h", "0.5", "--steps", "3",
         "--dense", "-3"],
        # beyond the stage bound: no allocation of s x s arrays, no hour-long sweep
        ["experiment", "sweep", "--smax", "100000000"],
        ["certify", "--method", "family-s100000000"],
        ["search", "--stages", "1001", "--order", "2", "--degree", "2", "--r", "1"],
        # more digits than int() converts
        ["certify", "--method", "family-s" + "9" * 5000],
        # counts whose arrays numpy cannot even shape, so nothing is allocated
        ["integrate", "--method", "ssp222", "--u0", "0.3", "--h", "0.5",
         "--steps", str(2 * 10**18)],
        ["integrate", "--method", "ssp222", "--u0", "0.3", "--h", "0.5",
         "--steps", str(10**19)],
        ["integrate", "--method", "ssp222", "--u0", "0.3", "--h", "0.5",
         "--steps", "2", "--dense", str(2**62)],
        ["integrate", "--method", "ssp222", "--u0", "0.3", "--h", "0.5",
         "--steps", "2", "--dense", str(10**19)],
        # np.arange returns no point here rather than failing
        ["integrate", "--method", "ssp222", "--u0", "0.3", "--h", "0.5",
         "--steps", "2", "--dense", str(2**63 - 1)],
    ],
    ids=["sweep-smax-one", "negative-steps", "negative-step-size", "negative-dense",
         "sweep-above-stage-bound", "family-above-stage-bound", "stages-above-bound",
         "family-key-too-long", "steps-too-big", "steps-beyond-int64", "dense-too-big",
         "dense-beyond-int64", "dense-int64-max"],
)
def test_bad_argument_exit_code(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["certify", "--method", "nosuch"],
         "unknown method 'nosuch'; available: "
         "['numexample-322', 'ssp222', 'ssp322', 'ssp332'] or family-s<k>"),
        (["integrate", "--method", "ssp222", "--problem", "nope", "--u0", "0.3",
          "--h", "0.5", "--steps", "3"],
         "unknown problem 'nope'; available: ['linear', 'quadrature', 'sinode']"),
    ],
    ids=["unknown-method", "unknown-problem"],
)
def test_unknown_name_error_is_unquoted(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def _run_cli(argv, env_extra=None):
    # a subprocess with a timeout, so a bisection that never ends fails the test
    src = os.path.dirname(os.path.dirname(sspdo.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.update(env_extra or {})
    return subprocess.run(
        [sys.executable, "-m", "sspdo.cli", *argv], env=env, capture_output=True,
        text=True, timeout=60,
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["--method", "ssp222", "--tol", "0"],
        ["--method", "family-s6", "--tol", "nan"],
        ["--method", "ssp222", "--tol", "inf"],
        ["--method", "ssp222", "--tol", "-1"],
        ["--method", "ssp222", "--tol", "abc"],
    ],
    ids=["tol-zero", "tol-nan", "tol-inf", "tol-negative", "tol-malformed"],
)
def test_certify_bad_tolerance_exit_code(argv, capsys):
    # certify takes no tolerance, so any value of --tol is a usage error
    assert _exit_code(["certify", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: unrecognized arguments: --tol" in captured.err
    assert "Traceback" not in captured.err


def test_certify_tol_is_a_usage_error(capsys):
    # the bisection tolerance is a constant: even its own value is refused
    assert _exit_code(["certify", "--method", "ssp222", "--tol", "1e-10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: unrecognized arguments: --tol 1e-10" in captured.err


def test_certificate_is_the_same_on_one_and_two_blas_threads():
    # family-s40 is the benchmark's largest member; on a 2-CPU host records
    # were measured identical up to family-s128 and different at s160, but
    # OpenBLAS's threading thresholds depend on the build, so none above
    # s = 40 is pinned
    argv = ["certify", "--method", "family-s40", "--format", "record"]
    one, two = (_run_cli(argv, {"OPENBLAS_NUM_THREADS": n}) for n in ("1", "2"))
    assert one.returncode == two.returncode == 0, one.stderr + two.stderr
    assert one.stdout == two.stdout


def test_search_benchmark_argv_is_certified(capsys):
    argv = ["search", "--stages", "5", "--order", "2", "--degree", "3", "--r", "4"]
    assert main(argv + ["--format", "record"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["status"] == "feasible" and record["certified"] is True
    assert "rounds" not in record and "hint" not in record


def test_search_inconclusive_exits_zero_without_weights(monkeypatch, capsys):
    import sspdo.cli
    from sspdo.construct import SearchResult

    monkeypatch.setattr(
        sspdo.cli, "lp_search", lambda *args: SearchResult("inconclusive", None)
    )
    argv = ["search", "--stages", "5", "--order", "2", "--degree", "3", "--r", "4"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "search on family-s5: inconclusive"
    assert json.loads(lines[1]) == {
        "status": "inconclusive", "certified": False, "weights": None,
        "violated_necessary": None,
    }


def test_search_solver_breakdown_is_inconclusive(monkeypatch, capsys):
    # HiGHS status 4 (numerical breakdown) decides nothing: exit 0, inconclusive
    from sspdo import simplex

    def numerical_difficulties(*args, **kwargs):
        return 4, None, 0, "stub"

    monkeypatch.setattr(simplex, "_solve", numerical_difficulties)
    assert lp_search(registry.get("family-s5").tableau, 2, 3, 4.0).status == "inconclusive"
    argv = ["search", "--stages", "5", "--order", "2", "--degree", "3", "--r", "4"]
    assert main(argv + ["--format", "record"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out) == {
        "status": "inconclusive", "certified": False, "weights": None,
        "violated_necessary": None,
    }


def test_search_where_the_coarse_relaxation_broke_down_is_infeasible(capsys):
    # a relaxation at 2D+2 points stopped HiGHS with status 4 here (exit 2)
    argv = ["search", "--stages", "9", "--order", "2", "--degree", "3", "--r", "7.9"]
    assert main(argv + ["--format", "record"]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "infeasible"


SEARCH_S10 = ["search", "--stages", "10", "--order", "2", "--degree", "6", "--r", "8.75"]


def test_search_iteration_bound_is_inconclusive(monkeypatch, capsys):
    # HiGHS status 1 (iteration bound) decides nothing: exit 0, inconclusive
    from sspdo import simplex

    def iteration_limit(*args, **kwargs):
        return 1, None, 7, "stub"

    monkeypatch.setattr(simplex, "_solve", iteration_limit)
    argv = ["search", "--stages", "5", "--order", "2", "--degree", "3", "--r", "4"]
    assert main(argv + ["--format", "record"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "status": "inconclusive", "certified": False, "weights": None,
        "violated_necessary": None,
    }


def test_search_solves_are_bounded(monkeypatch, capsys):
    # this search certifies after about 590 HiGHS iterations; with a bound of
    # 100 its first LP stops and the search must end inconclusive
    from sspdo import simplex

    iterations = []
    solve = simplex._solve

    def counting(*args):
        assert args[-1] == 100  # the iteration bound HiGHS gets
        result = solve(*args)
        iterations.append(result[2])
        return result

    monkeypatch.setattr(simplex, "MAX_ITERATIONS", 100)
    monkeypatch.setattr(simplex, "_solve", counting)
    assert main(SEARCH_S10 + ["--format", "record"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "status": "inconclusive", "certified": False, "weights": None,
        "violated_necessary": None,
    }
    assert max(iterations) <= 100


def test_search_at_degree_ten_decides(capsys):
    # HiGHS stopped with status 4 on this search's LPs in split variables
    argv = ["search", "--stages", "11", "--order", "2", "--degree", "10", "--r", "9"]
    assert main(argv) == 0


def test_cli_import_leaves_scipy_optimize_unloaded():
    # LAPACK's extension costs about 4 MB at a resolvent's first call and
    # HiGHS's a few MB more at an LP solve's; the scipy.linalg package would
    # cost about 0.3 s and 27 MB, and scipy.optimize about 0.3 s and 20 MB
    # more.  None loads at the CLI start.  Nor does the start load
    # numpy.polynomial (9 modules, 3-5 ms) or build main's parser.
    src = os.path.dirname(os.path.dirname(sspdo.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys, sspdo.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), "
        "sorted(m for m in sys.modules if m.startswith('numpy.polynomial')), "
        "sspdo.cli.build_parser.cache_info().misses)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    )
    assert out.stdout.strip() == "[] [] 0"


_SCIPY_LINALG_PROBE = """
import sys
from sspdo.cli import main
code = main(sys.argv[1:])
print("scipy.linalg._flapack" in sys.modules, "scipy.linalg" in sys.modules,
      "scipy.optimize" in sys.modules)
sys.exit(code)
"""


@pytest.mark.parametrize(
    "argv, loads_flapack, loads_linalg",
    [
        (["experiment", "figure1", "--out", "OUT"], False, False),
        (["integrate", "--method", "ssp222", "--u0", "0.3", "--h", "0.5",
          "--steps", "2", "--dense", "4"], False, False),
        (["experiment", "convergence"], False, False),
        (["construct", "--method", "ssp222", "--order", "2"], False, False),
        (["certify", "--method", "ssp222", "--format", "record"], True, False),
        (["shu-osher", "--method", "ssp322", "--C", "2"], True, False),
        (["search", "--stages", "5", "--order", "2", "--degree", "3", "--r", "4"],
         True, False),
    ],
    ids=["figure1", "integrate", "convergence", "construct", "certify",
         "shu-osher", "search"],
)
def test_only_a_resolvent_loads_scipy_linalg(argv, loads_flapack, loads_linalg, tmp_path):
    # a cold process: a resolvent loads LAPACK's extension alone, and the
    # LP search HiGHS's; nothing loads the scipy.linalg or scipy.optimize
    # package
    argv = [str(tmp_path) if a == "OUT" else a for a in argv]
    src = os.path.dirname(os.path.dirname(sspdo.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", _SCIPY_LINALG_PROBE, *argv], env=env,
        capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    *lines, loaded = out.stdout.splitlines()
    assert loaded == f"{loads_flapack} {loads_linalg} False"
    if argv[0] == "certify":
        assert json.loads(lines[0])["r_method"] == 1.0


@pytest.mark.parametrize(
    "fields",
    [
        {"A": [[0, 0], ["1/0", 0]], "b": ["1/2", "1/2"]},
        {"A": [[0, 0], [float("nan"), 0]], "b": ["1/2", "1/2"]},
        {"A": [[0, 0], [1, 0]], "b": ["1/2", "1/2"],
         "bbar": [[0, 1, "-1/2"], [0, 0, float("nan")]]},
    ],
    ids=["zero-denominator", "nan-in-A", "nan-in-bbar"],
)
def test_nonfinite_coefficient_exit_code(fields, tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(fields))
    assert main(["certify", "--tableau", str(path), "--dense", "--format", "record"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err
    assert captured.out == ""


def _strict_json(line):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(line, parse_constant=reject)


def test_singular_witness_record_is_strict_json(tmp_path, capsys):
    # I + rA is singular at r = 1/3: the witness carries no value
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"A": [[1, 2], [2, 1]], "b": ["1/2", "1/2"]}))
    assert main(["certify", "--tableau", str(path), "--format", "record"]) == 0
    record = _strict_json(capsys.readouterr().out)
    assert record["witnesses"] == [
        {"condition": "singular", "index": None, "value": None, "theta": None}
    ]
    assert main(["certify", "--tableau", str(path)]) == 0
    assert "\n    singular\n" in capsys.readouterr().out


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_stage_record_is_strict_json(tmp_path, capsys):
    # A (I + rA)^{-1} overflows: that entry makes the probe inconclusive
    # instead of a -Infinity witness; the finite stage_bound witnesses still
    # refute every radius, so the certificate is not conservative
    path = tmp_path / "m.json"
    path.write_text(json.dumps(
        {"A": [[0, 0, 0], [1e160, 0, 0], [0, 1e160, 0]], "b": ["1/3", "1/3", "1/3"]}
    ))
    assert main(["certify", "--tableau", str(path), "--format", "record"]) == 0
    record = _strict_json(capsys.readouterr().out)
    assert record["r_method"] == 0.0
    assert record["conservative"] is False
    assert "stage_nonneg" not in {w["condition"] for w in record["witnesses"]}


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_dense_row_keeps_its_witness_at_zero(tmp_path, capsys):
    # w_1 = -1e308 (1 + theta) converts with p(1) = -inf, yet p(0) = -1e308
    # is a finite witness, so the certificate is not conservative
    path = tmp_path / "m.json"
    path.write_text(json.dumps(
        {"A": [[0, 0], [1, 0]], "b": ["1/2", "1/2"], "bbar": [[-1e308, -1e308], [0, 0.5]]}
    ))
    assert main(["certify", "--tableau", str(path), "--dense", "--format", "record"]) == 0
    record = _strict_json(capsys.readouterr().out)
    assert record["conservative"] is False
    witness = {"condition": "dense_nonneg", "index": [1], "value": -1e308, "theta": 0.0}
    assert witness in record["witnesses"]
    # w_1(1) overflows to -inf, which matches no b, without a numpy warning
    assert record["dense_matches_b"] is False


_OVERFLOWING = {
    "A": [[0, 0, 0], [1e160, 0, 0], [0, 1e160, 0]],
    "b": ["1/3", "1/3", "1/3"],
    "bbar": [[0, 1, "-2/3"], [0, 0, "1/3"], [0, 0, "1/3"]],
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.filterwarnings("ignore:requested r exceeds:UserWarning")
@pytest.mark.parametrize(
    "argv",
    [
        ["shu-osher", "--C", "2", "--format", "record"],
        ["search", "--order", "2", "--degree", "2", "--r", "1"],
    ],
    ids=["shu-osher", "search"],
)
def test_overflowing_coefficients_are_a_usage_error(argv, tmp_path, capsys):
    # the Shu-Osher form and the LP rows overflow to inf and NaN: a typed
    # error, not NaN in a record or the solver's ValueError
    path = tmp_path / "m.json"
    path.write_text(json.dumps(_OVERFLOWING))
    assert main([*argv, "--tableau", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "not finite" in captured.err
    assert captured.out == ""


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "argv, code",
    [
        (["certify"], 0),
        (["construct", "--order", "1"], 0),
        (["construct", "--order", "2"], 2),
        (["search", "--order", "1", "--degree", "2", "--r", "1"], 2),
        (["shu-osher", "--C", "2"], 2),
        (["integrate", "--u0", "0.3", "--h", "0.1", "--steps", "2"], 2),
    ],
    ids=["certify", "construct-1", "construct-2", "search", "shu-osher", "integrate"],
)
def test_overflowing_tableau_leaks_no_numpy_warning(argv, code, tmp_path, capsys):
    # every subcommand meets inf and NaN on this tableau; numpy must stay
    # silent, and stderr holds only the CLI's own one-line messages
    path = tmp_path / "m.json"
    path.write_text(json.dumps(_OVERFLOWING))
    assert main([*argv, "--tableau", str(path)]) == code
    for line in capsys.readouterr().err.splitlines():
        assert line.startswith(("error:", "warning:")), line


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("fmt", ["record", "human"])
def test_overflowing_gamma_is_a_usage_error(fmt, tmp_path, capsys):
    # gamma = b'e overflows to inf at r = 0: one error line, no Infinity in a
    # record and no numpy warning
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"A": [[0, 0], [1, 0]], "b": [1e308, 1e308]}))
    assert main(["certify", "--tableau", str(path), "--format", fmt]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: gamma at r=0.0 is not finite\n"
    assert captured.out == ""


def test_library_warning_is_one_stderr_line(capsys):
    argv = ["search", "--stages", "5", "--order", "2", "--degree", "3", "--r", "4.5"]
    assert main(argv) == 0
    assert capsys.readouterr().err == (
        "warning: requested r exceeds the method's SSP coefficient\n"
    )


def test_search_order_is_checked_against_the_condition_table(capsys):
    argv = ["search", "--stages", "5", "--order", "4", "--degree", "3", "--r", "4"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: order must be one of [1, 2, 3]\n"


def test_figure1_record_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(
        ["experiment", "figure1", "--h", "1.6", "--out", str(out1), "--format", "record"]
    ) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["ssp_contained"] is True
    assert record["nonssp"]["min"] < 0.0
    assert main(
        ["experiment", "figure1", "--h", "1.6", "--out", str(out2), "--format", "record"]
    ) == 0
    capsys.readouterr()
    for name in ("ssp.csv", "nonssp.csv"):
        with open(out1 / name, "rb") as f1, open(out2 / name, "rb") as f2:
            assert f1.read() == f2.read()
    with open(out1 / "ssp.csv") as f:
        header = f.readline().strip()
    assert header == "u0,t,theta,u,formula"


def test_figure1_csv_matches_per_value_repr(tmp_path):
    # reference text: every field through repr(float(x)), one at a time, on
    # the full 101 x 101 x 7 grid
    h, n_steps = 1.6, FIGURE1_N_STEPS
    run_figure1(h=h, out_dir=str(tmp_path))
    entry = registry.get("numexample-322")
    u0s = np.linspace(0.0, 1.0, FIGURE1_N_U0)
    thetas = np.linspace(0.0, 1.0, FIGURE1_N_THETA)
    traj = integrate_fixed(entry.tableau, sinode(), u0s, h, n_steps)
    weight_sets = {"ssp": entry.dense_weights, "nonssp": registry.nonssp_weights_322()}
    for formula, weights in weight_sets.items():
        lines = ["u0,t,theta,u,formula\n"]
        for n in range(n_steps):
            values = dense_eval_grid(traj, weights, n, thetas)
            for it, theta in enumerate(thetas):
                t = (n + theta) * h
                for iu, u0 in enumerate(u0s):
                    fields = (u0, t, theta, values[it, iu])
                    lines.append(",".join(repr(float(x)) for x in fields) + f",{formula}\n")
        expected = "".join(lines).encode("utf-8")
        assert (tmp_path / f"{formula}.csv").read_bytes() == expected


def test_figure1_rejects_zero_step(capsys):
    assert main(["experiment", "figure1", "--h", "0"]) == 2


def test_sweep_record(capsys):
    assert main(["experiment", "sweep", "--smax", "5", "--format", "record"]) == 0
    record = json.loads(capsys.readouterr().out)
    rows = {row["s"]: row for row in record["rows"]}
    assert rows[3]["xineq_holds"] is True
    assert rows[5]["xineq_holds"] is False
    assert rows[5]["c_dense"] < 4.0


def test_convergence_record(capsys):
    assert main(["experiment", "convergence", "--format", "record"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [row["label"] for row in rows] == [
        "ssp322+quadratic", "euler+linear", "ssp332-steps",
    ]
    keys = ["label", "step_slope", "dense_slope", "hs", "step_errors", "dense_errors"]
    assert all(list(row) == keys for row in rows)
    assert rows[2]["dense_slope"] is None and rows[2]["dense_errors"] is None
    # forward Euler's observed slopes at these step sizes are 1.15 and 1.12
    expected = [(2.0, 2.0, 0.1), (1.0, 1.0, 0.2), (3.0, None, 0.1)]
    for row, (step, dense, tol) in zip(rows, expected):
        assert abs(row["step_slope"] - step) < tol
        if dense is not None:
            assert abs(row["dense_slope"] - dense) < tol


README = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")


def _readme_commands() -> list[list[str]]:
    with open(README, encoding="utf-8") as f:
        text = f.read()
    block = re.search(r"## Command line\n\n```sh\n(.*?)```", text, re.S).group(1)
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()]


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    # every line of the README's command-line block, with m.json from ssp322
    commands = _readme_commands()
    assert len(commands) == 12 and all(commands)
    entry = registry.get("ssp322")
    save_tableau_file(tmp_path / "m.json", entry.tableau, entry.dense_weights)
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == 0, argv
        assert capsys.readouterr().err == "", argv


# ------------------------------------------------------------------- package

def test_package_exports_each_name_once():
    names = sspdo.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(sspdo, name)] == []
    namespace = {}
    exec("from sspdo import *", namespace)
    assert set(names) <= namespace.keys()
