"""Command-line front end: formats, exit codes, determinism, and the layers each command loads."""

import argparse
import json
import os
import random
import re
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import fussdeform
import fussdeform.cli as cli
from fussdeform.cli import main

A220910_CSV = """label,offset,n,value
A220910,0,0,1/1
A220910,0,1,1/1
A220910,0,2,3/1
A220910,0,3,14/1
A220910,0,4,83/1
A220910,0,5,570/1
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_seq_a220910_golden_csv(capsys):
    code, out, _ = run(capsys, "seq", "a220910", "--n", "5")
    assert code == 0
    assert out == A220910_CSV


def test_seq_all_methods_agree(capsys):
    outputs = set()
    for method in ("recurrence", "closed_a", "closed_b", "cumulant"):
        code, out, _ = run(capsys, "seq", "a220910", "--n", "12", "--method", method)
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_seq_trivial_slice(capsys):
    code, out, _ = run(capsys, "seq", "a", "--p", "1", "--t", "1", "--n", "5")
    assert code == 0
    values = [line.split(",")[3] for line in out.strip().splitlines()[1:]]
    assert values == ["1/1"] * 6


def test_seq_constellation(capsys):
    code, out, _ = run(capsys, "seq", "constellation", "--p", "2", "--n", "4")
    assert code == 0
    values = [line.split(",")[3] for line in out.strip().splitlines()[1:]]
    assert values == ["1/1", "3/1", "12/1", "56/1"]


def test_seq_raney_row(capsys):
    code, out, _ = run(capsys, "seq", "raney", "--p", "2", "--r", "1", "--n", "5")
    assert code == 0
    values = [line.split(",")[3] for line in out.strip().splitlines()[1:]]
    assert values == ["1/1", "1/1", "2/1", "5/1", "14/1", "42/1"]


def test_seq_json_format(capsys):
    code, out, _ = run(capsys, "seq", "a022558", "--n", "10", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["offset"] == 0
    assert payload["values"][:5] == ["1/1", "1/1", "2/1", "6/1", "23/1"]


def test_seq_decimal_parameter_is_exact(capsys):
    code, out, _ = run(capsys, "seq", "a", "--p", "2", "--t", "0.25", "--n", "1")
    assert code == 0
    assert out.strip().splitlines()[2].endswith(",7/4")


def test_seq_missing_parameter_is_usage_error(capsys):
    code, _, err = run(capsys, "seq", "a", "--p", "2", "--n", "3")
    assert code == 2
    assert "needs --p and --t" in err


def test_seq_rejects_bad_rational(capsys):
    code, _, err = run(capsys, "seq", "a", "--p", "2", "--t", "x/y", "--n", "3")
    assert code == 2
    assert err


def test_unknown_subject_is_argparse_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["seq", "fibonacci", "--n", "3"])
    assert info.value.code == 2


def test_out_path_that_cannot_be_written_is_usage_error(capsys, tmp_path):
    for path, reason in (
        (tmp_path, "Is a directory"),
        (tmp_path / "missing" / "table.csv", "No such file or directory"),
    ):
        code, out, err = run(capsys, "seq", "a220910", "--n", "2", "--out", str(path))
        assert code == 2
        assert out == ""
        assert err == f"fussdeform: error: cannot write {path}: {reason}\n"


def test_transforms_routes_agree(capsys):
    code, closed, _ = run(
        capsys, "transforms", "--p", "2", "--t", "1/2", "--route", "closed",
        "--format", "json", "--series-order", "8",
    )
    assert code == 0
    code, moments, _ = run(
        capsys, "transforms", "--p", "2", "--t", "1/2", "--route", "moments",
        "--format", "json", "--series-order", "8",
    )
    assert code == 0
    a = json.loads(closed)
    b = json.loads(moments)
    assert a["m"] == b["m"]
    assert a["r"] == b["r"]
    assert a["s"] == b["s"]
    assert a["r"][1] == "3/2"  # r_1 = 2 - t


@pytest.mark.parametrize("p, t, s0", [("2", "1/2", "2/3"), ("3", "1", "1/1")])
def test_transforms_routes_agree_at_order_one(capsys, p, t, s0):
    # S at order 0 is 1/m_1 on both routes
    outs = [
        run(capsys, "transforms", "--p", p, "--t", t, "--series-order", "1", "--route", route)
        for route in ("closed", "moments")
    ]
    assert outs[0] == outs[1]
    assert outs[0][0] == 0
    assert outs[0][1].endswith(f"\ns,0,{s0}\n")


def test_transforms_moments_route_needs_a_first_moment(capsys):
    code, out, err = run(
        capsys, "transforms", "--p", "2", "--t", "2", "--series-order", "1", "--route", "moments"
    )
    assert (code, out) == (2, "")
    assert "m_1 != 0" in err


def test_transforms_closed_route_needs_supported_p(capsys):
    code, _, err = run(capsys, "transforms", "--p", "3/2", "--t", "1/5", "--route", "closed")
    assert code == 2
    assert "p in {2, 3}" in err


def test_density_csv_layout(capsys):
    code, out, _ = run(capsys, "density", "--p", "3/2", "--t", "1/5", "--grid", "10")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,phi,f"
    assert len(lines) == 11
    for line in lines[1:]:
        x, phi, f = line.split(",")
        assert float(x) > 0 and float(phi) > 0
        assert float(f) >= -1e-12


def test_density_closed_route_leaves_phi_empty(capsys):
    code, out, _ = run(
        capsys, "density", "--p", "2", "--t", "1", "--route", "closed", "--grid", "4"
    )
    assert code == 0
    for line in out.strip().splitlines()[1:]:
        assert line.split(",")[1] == ""


def test_density_routes_agree(capsys):
    code, a, _ = run(capsys, "density", "--p", "2", "--t", "1", "--grid", "10")
    assert code == 0
    code, b, _ = run(capsys, "density", "--p", "2", "--t", "1", "--route", "closed", "--grid", "10")
    assert code == 0
    for la, lb in zip(a.strip().splitlines()[1:], b.strip().splitlines()[1:]):
        assert abs(float(la.split(",")[2]) - float(lb.split(",")[2])) <= 1e-10


def test_density_negative_region_above_the_edge(capsys):
    code, out, _ = run(capsys, "density", "--p", "2", "--t", "3/2", "--grid", "100")
    assert code == 0
    values = [float(line.split(",")[2]) for line in out.strip().splitlines()[1:]]
    assert min(values) < -1e-4


def test_density_closed_route_unsupported_p(capsys):
    code, _, err = run(capsys, "density", "--p", "5/2", "--t", "1", "--route", "closed")
    assert code == 2
    assert "closed forms" in err


@pytest.mark.parametrize(
    "p, message",
    [
        ("5", "closed forms cover p in {2, 3, 3/2}"),
        ("1", "support requires p > 1"),
        ("1e400", "a value left the float range"),
    ],
)
def test_density_closed_route_error_lines(capsys, p, message):
    code, out, err = run(capsys, "density", "--p", p, "--t", "1/2", "--route", "closed")
    assert (code, out, err) == (2, "", f"fussdeform: error: {message}\n")


def test_moments_check_values(capsys):
    code, out, _ = run(
        capsys, "moments-check", "--p", "2", "--t", "1", "--n-max", "4", "--format", "json"
    )
    assert code == 0
    rows = json.loads(out)
    catalan = [1.0, 1.0, 2.0, 5.0, 14.0]
    assert [r["n"] for r in rows] == list(range(5))
    for row, expected in zip(rows, catalan):
        assert abs(row["value"] - expected) <= 1e-9
        assert row["est_error"] < 1e-8
        assert row["p"] == "2/1" and row["t"] == "1/1"


@pytest.mark.parametrize(
    "p, t",
    [("3/2", "1/5"), ("5/2", "1/2"), ("7/3", "2/3"), ("3", "3/2"), ("7", "1/2"), ("20", "1/3")],
)
def test_moments_check_rows_lie_within_their_error(capsys, p, t):
    # at n = 0 most of the error sits in the slices the quadrature leaves out
    code, out, _ = run(capsys, "moments-check", "--p", p, "--t", t, "--n-max", "30", "--format", "json")
    assert code == 0
    exact = fussdeform.deformed_table(fussdeform.Params.exact(p, t), 30).values
    for row, a_n in zip(json.loads(out), exact, strict=True):
        assert abs(Fraction(row["value"]) - a_n) <= row["est_error"], row["n"]


@pytest.mark.parametrize(
    "argv",
    [
        ("density", "--p", "3/2", "--t", "1/5", "--grid", "7"),
        ("density", "--p", "2", "--t", "1", "--route", "closed", "--grid", "4"),
        ("moments-check", "--p", "5/2", "--t", "1/2", "--n-max", "6"),
        ("gfun", "--p-min", "1", "--p-max", "3", "--steps", "4"),
    ],
)
def test_float_csv_rows_are_the_json_records_by_repr(capsys, argv):
    # CSV cells: text as is, None empty, numbers by repr (JSON floats round-trip exactly)
    code, csv_out, _ = run(capsys, *argv)
    assert code == 0
    code, json_out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    records = json.loads(json_out)

    def cell(value):
        return value if isinstance(value, str) else "" if value is None else repr(value)

    header, *rows = csv_out.splitlines()
    assert header.split(",") == list(records[0])
    assert rows == [",".join(map(cell, record.values())) for record in records]


def test_gfun_table(capsys):
    code, out, _ = run(capsys, "gfun", "--p-min", "1", "--p-max", "2", "--steps", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,g"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["1.0", "1.5", "2.0"]
    assert abs(float(rows[1][1]) - 0.2) <= 1e-6
    assert float(rows[2][1]) == 0.0


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--p-min", "1", "--p-max", "1e309", "--steps", "2"), "--p-max must be finite"),
        (("--p-min=-inf",), "--p-min must be finite"),
        (("--p-min", "nan"), "--p-min must be finite"),
        # (1e308 - 1) * 2 overflows before it is divided by 2
        (("--p-min", "1", "--p-max", "1e308", "--steps", "3"), "a value left the float range"),
    ],
)
def test_gfun_names_a_non_finite_axis(capsys, argv, message):
    code, out, err = run(capsys, "gfun", *argv)
    assert (code, out, err) == (2, "", f"fussdeform: error: {message}\n")


def test_gfun_prints_a_wide_finite_axis(capsys):
    code, out, _ = run(capsys, "gfun", "--p-min", "1", "--p-max", "1e307", "--steps", "3")
    assert (code, out) == (0, "p,g\n1.0,1.0\n5e+306,0.0\n1e+307,0.0\n")


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("t", ["1e308", "-1e308"])
@pytest.mark.parametrize("route, p", [("parametric", "3/2"), ("closed", "2")])
def test_non_finite_density_is_a_float_limit(capsys, route, p, t, fmt):
    argv = ("density", "--p", p, f"--t={t}", "--route", route, "--format", fmt)
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", "fussdeform: error: a value left the float range\n")


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_json_payloads_carry_no_nan_or_infinity(value):
    args = argparse.Namespace(format="json", out=None)
    with pytest.raises(OverflowError):
        cli._emit(args, "f", [], [{"f": value}])


def test_posdef_csv_row(capsys):
    code, out, _ = run(capsys, "posdef", "--p", "2", "--t", "7/5", "--hankel-size", "8")
    assert code == 0
    assert out == "p,t,theorem,hankel_verdict\n2/1,7/5,false,indefinite\n"


def test_posdef_json_minors(capsys):
    code, out, _ = run(
        capsys, "posdef", "--p", "2", "--t", "1", "--hankel-size", "4", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["theorem_verdict"] is True
    assert payload["hankel"]["verdict"] == "positive_definite"
    assert payload["hankel"]["minors"] == ["1/1", "1/1", "1/1", "1/1"]


def test_posdef_csv_rows_are_rebuilt_from_the_json_payloads(capsys):
    # the CSV row stops its elimination at the verdict, the JSON payload reads every minor:
    # 20 cells at sizes 1..16, t below, inside and above [g(p), 2p/(p+1)]
    cells = [(p, t) for p in ("1", "3/2", "2", "7/3", "5") for t in ("-1/2", "0", "1", "9/5")]
    for i, (p, t) in enumerate(cells):
        point = ["posdef", "--p", p, f"--t={t}", "--hankel-size", str(1 + 3 * i % 16)]
        code, csv_out, _ = run(capsys, *point)
        assert code == 0
        code, out, _ = run(capsys, *point, "--format", "json")
        assert code == 0
        record = json.loads(out)
        theorem = "true" if record["theorem_verdict"] else "false"
        row = ",".join((record["p"], record["t"], theorem, record["hankel"]["verdict"]))
        assert csv_out == f"p,t,theorem,hankel_verdict\n{row}\n", point


def test_posdef_negative_t_needs_the_equals_form(capsys):
    # argparse reads "-1/3" after "--t" as a flag, so a negative t is given as --t=-1/3
    code, out, _ = run(capsys, "posdef", "--p", "2", "--t=-1/3", "--format", "json")
    assert code == 0
    assert json.loads(out)["theorem_verdict"] is False
    with pytest.raises(SystemExit) as exc:
        main(["posdef", "--p", "2", "--t", "-1/3"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "Traceback" not in err
    assert "argument --t: expected one argument" in err


def test_infdiv_csv_row(capsys):
    code, out, _ = run(capsys, "infdiv", "--p", "2", "--t", "1/2", "--hankel-size", "2")
    assert code == 0
    assert out == "p,t,verdict\n2/1,1/2,indefinite\n"


def test_domain_grid_shape_and_membership(capsys):
    code, out, _ = run(capsys, "domain-grid", "--steps", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,t,theorem,hankel_verdict"
    assert len(lines) == 26
    cells = {(row.split(",")[0], row.split(",")[1]): row.split(",")[2] for row in lines[1:]}
    assert cells[("2/1", "1/1")] == "true"
    assert cells[("1/1", "2/1")] == "false"


def test_domain_grid_deterministic(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(["domain-grid", "--steps", "6", "--out", str(first)]) == 0
    assert main(["domain-grid", "--steps", "6", "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_domain_grid_rejects_bad_ranges(capsys):
    code, _, err = run(capsys, "domain-grid", "--p-min", "1/2", "--steps", "3")
    assert code == 2
    code, _, err = run(capsys, "domain-grid", "--p-min", "2", "--p-max", "1", "--steps", "3")
    assert code == 2


def test_domain_grid_cells_match_posdef_at_size_16(capsys):
    # t = -1, 0, 1, 2, 3 at p = 1, 3/2, 2, 5/2, 3: semidefinite (1, 1), a zero pivot facing
    # a nonzero entry at (3/2, 0), and definite and indefinite cells on both sides of 2p/(p+1)
    grid = ["domain-grid", "--steps", "5", "--t-min", "-1", "--t-max", "3", "--hankel-size", "16"]
    code, out, _ = run(capsys, *grid)
    assert code == 0
    rows = out.splitlines()[1:]
    code, out, _ = run(capsys, *grid, "--format", "json")
    assert code == 0
    cells = json.loads(out)
    assert len(rows) == len(cells) == 25
    assert {cell["hankel_verdict"] for cell in cells} == {
        "positive_definite", "positive_semidefinite", "indefinite"
    }
    for row, cell in zip(rows, cells):
        point = ["posdef", f"--p={cell['p']}", f"--t={cell['t']}", "--hankel-size", "16"]
        assert run(capsys, *point) == (0, f"p,t,theorem,hankel_verdict\n{row}\n", "")
        code, out, _ = run(capsys, *point, "--format", "json")
        record = json.loads(out)
        assert (record["p"], record["t"]) == (cell["p"], cell["t"])
        assert record["theorem_verdict"] == cell["theorem"]
        assert record["hankel"]["verdict"] == cell["hankel_verdict"]


def test_out_flag_writes_the_same_bytes(tmp_path, capsys):
    target = tmp_path / "seq.csv"
    code, out, _ = run(capsys, "seq", "a220910", "--n", "5")
    assert code == 0
    assert main(["seq", "a220910", "--n", "5", "--out", str(target)]) == 0
    assert target.read_text(encoding="utf-8") == out == A220910_CSV


@pytest.mark.parametrize(
    "argv",
    [
        ("density", "--p", "1e400", "--t", "1"),
        # rho's inversion loses a point of grid 400 at p = 2e4
        ("density", "--p", "20000", "--t", "1/3", "--grid", "400"),
        # rho^n overflows at the nodes next to c(4) from n = 316 on
        ("moments-check", "--p", "4", "--t", "1/2", "--n-max", "600"),
        # an ulp above p = 1 the root of the smallest x rounds to pi/p, out of the open sector
        ("density", "--p", "1.0000000000000002", "--t", "1/2", "--grid", "5"),
    ],
)
def test_float_range_overflow_is_usage_error(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err == "fussdeform: error: a value left the float range\n"


@pytest.mark.parametrize("t", ["1", "1/2"])
@pytest.mark.parametrize("p", ["100", "1000"])
def test_moments_check_at_large_p_meets_a_n_within_est_error(capsys, p, t):
    # the quadrature's weight takes no power of a small sine, so large p prints, and each
    # moment meets the exact a_n within its estimate
    code, out, err = run(capsys, "moments-check", "--p", p, "--t", t, "--n-max", "3")
    assert (code, err) == (0, "")
    header, *rows = out.splitlines()
    assert (header, len(rows)) == ("p,t,n,value,est_error", 4)
    params = fussdeform.Params.exact(p, t)
    for n, row in enumerate(rows):
        value, est_error = map(float, row.split(",")[3:])
        assert abs(value - float(fussdeform.deformed_fuss(params, n))) <= est_error, row


def test_density_prints_at_large_p_short_of_the_float_limit(capsys):
    # at p = 1000 the three points of grid 3 print; rho's inversion loses points from about
    # p = 1.6e4 at grid 400
    code, out, err = run(capsys, "density", "--p", "1000", "--t", "1/3", "--grid", "3")
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 4


@pytest.mark.parametrize(
    "argv",
    [
        ("posdef", "--p", "2", "--t", "1e-3000", "--hankel-size", "2"),
        ("infdiv", "--p", "2", "--t", "1e-3000", "--hankel-size", "2"),
    ],
)
def test_too_many_digits_is_usage_error(capsys, argv):
    # the JSON minors pass Python's int-to-str limit; the CSV row leaves them out
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, out) == (2, "")
    assert err == (
        f"fussdeform: error: an exact value has more than {sys.get_int_max_str_digits()} digits, "
        "too many for fussdeform to print; try --format csv or a smaller input\n"
    )
    assert run(capsys, *argv, "--format", "csv")[0] == 0


@pytest.mark.parametrize(
    "argv",
    [
        # the CSV rows print the value that passes the limit, so CSV cannot help
        ("transforms", "--p", "2", "--t", "1e-5000", "--series-order", "2"),
        ("posdef", "--p", "2", "--t", "1e-5000", "--hankel-size", "2", "--format", "json"),
        # the label of the table once leaked Python's own int-to-str message
        ("seq", "a", "--p", "2", "--t", "1e-5000", "--n", "1"),
    ],
)
def test_too_many_digits_without_a_csv_way_out(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == (
        f"fussdeform: error: an exact value has more than {sys.get_int_max_str_digits()} digits, "
        "too many for fussdeform to print; try a smaller input\n"
    )


@pytest.mark.parametrize(
    "t, order, never_built",
    [
        # the moment jet itself is past the limit
        ("1e-5000", "2", ("cumulants_from_moments", "s_series_from_moments")),
        # the r jet is (about 23,900 bits); S, the slowest jet, would be next
        ("1e-300", "24", ("s_series_from_moments",)),
    ],
)
def test_transforms_stops_at_the_first_jet_past_the_digit_limit(
    capsys, monkeypatch, t, order, never_built
):
    def refuse(*args):
        raise AssertionError("built a jet after one past the digit limit")

    for name in never_built:  # the handler imports them from series when it runs
        monkeypatch.setattr(fussdeform.series, name, refuse)
    for fmt in ("csv", "json"):
        argv = ("transforms", "--p", "2", "--t", t, "--series-order", order, "--format", fmt)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == (
            f"fussdeform: error: an exact value has more than {sys.get_int_max_str_digits()} digits, "
            "too many for fussdeform to print; try a smaller input\n"
        )


def test_parser_reuse_matches_fresh_processes(capsys, monkeypatch):
    # main builds its parser once per process; a usage error or --help in
    # between must not change what a later call prints
    monkeypatch.setenv("COLUMNS", "80")
    src = os.path.dirname(os.path.dirname(fussdeform.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    good = ["posdef", "--p", "3/2", "--t", "1/5", "--format", "json"]
    for argv in (good, ["posdef", "--p", "3/2"], ["--help"], ["seq", "--help"], good):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "fussdeform.cli", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path, "COLUMNS": "80"},
        )
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv


# every flag takes one of these with probability 0.15, else a typical value
_EDGES = ("0", "-1", "1/0", "x", "1e400", "nan", "inf")
_RATIONALS = (
    "-1/2", "1/5", "1/2", "1", "1.0000001", "6/5", "3/2", "2", "5/2", "3", "7/3", "100", "198",
    "250", "1000",
)
_FLOATS = ("1", "1.5", "2", "3", "100", "1000")


def _ints(top):
    return tuple(str(k) for k in range(top + 1))


_PT = {"--p": _RATIONALS, "--t": _RATIONALS}
_HANKEL_SIZES = _ints(4) + ("17",)
# per subcommand: flags it always gets (p, t and the sizes whose defaults are
# large), flags it may get
_FUZZ_COMMANDS = {
    "seq": ({}, {
        **_PT, "--r": _RATIONALS, "--n": _ints(12),
        "--method": ("recurrence", "closed_a", "closed_b", "cumulant"),
    }),
    "transforms": (
        {**_PT, "--series-order": _ints(6)},
        {"--route": ("closed", "moments"), "--series-order": _ints(6) + ("65",)},
    ),
    "density": ({**_PT, "--grid": _ints(5)}, {"--route": ("parametric", "closed")}),
    "moments-check": ({**_PT, "--n-max": _ints(2)}, {"--tol": ("1e-10", "1e-6")}),
    "gfun": ({"--steps": _ints(3)}, {"--p-min": _FLOATS, "--p-max": _FLOATS}),
    "posdef": (_PT, {"--hankel-size": _HANKEL_SIZES}),
    "infdiv": (_PT, {"--hankel-size": _HANKEL_SIZES}),
    "domain-grid": ({"--steps": _ints(3)}, {
        "--p-min": _RATIONALS, "--p-max": _RATIONALS, "--t-min": _RATIONALS,
        "--t-max": _RATIONALS, "--hankel-size": _HANKEL_SIZES,
    }),
}
_GLOBAL_FLAGS = {"--format": ("csv", "json")}
_SUBJECTS = ("a", "raney", "constellation", "a220910", "a022558")


def _fuzz_argv(rng):
    def value(typical):
        return rng.choice(_EDGES if rng.random() < 0.15 else typical)

    command = rng.choice(sorted(_FUZZ_COMMANDS))
    required, optional = _FUZZ_COMMANDS[command]
    argv = [command]
    if command == "seq":
        argv.append(value(_SUBJECTS))
    argv += [item for flag, typical in required.items() for item in (flag, value(typical))]
    for flag, typical in {**optional, **_GLOBAL_FLAGS}.items():
        if rng.random() < 0.5:
            argv += [flag, value(typical)]
    return argv


def test_cli_fuzz_keeps_the_exit_code_contract(capsys):
    rng = random.Random(20151)
    for _ in range(400):
        argv = _fuzz_argv(rng)
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
            assert code == 2, argv
        except Exception as exc:
            pytest.fail(f"{' '.join(argv)} raised {exc!r}")
        assert code in (0, 2), argv
        capsys.readouterr()


def test_csv_does_not_render_the_minors_it_omits(capsys):
    # at t = 10^-3000 the Hankel minors have more digits than str() of an int
    # may produce; only the JSON payloads print them
    for argv in (
        ("posdef", "--p", "2", "--t", "1e-3000"),
        ("infdiv", "--p", "2", "--t", "1e-3000", "--hankel-size", "2"),
        ("domain-grid", "--steps", "1", "--p-min", "2", "--t-min", "1e-3000", "--t-max", "1"),
    ):
        code, out, _ = run(capsys, *argv, "--hankel-size", "2")
        assert code == 0
        assert out.splitlines()[1].startswith("2/1,1/1" + "0" * 3000 + ",")


def test_config_validation_errors(capsys):
    for argv, message in (
        (("transforms", "--p", "2", "--t", "1/2", "--series-order", "65"),
         "--series-order must lie in 1..64"),
        (("posdef", "--p", "2", "--t", "1/2", "--hankel-size", "17"),
         "--hankel-size must lie in 1..16"),
        (("moments-check", "--p", "2", "--t", "1/2", "--tol", "0"), "--tol must be positive"),
    ):
        assert run(capsys, *argv) == (2, "", f"fussdeform: error: {message}\n"), argv


# a valid invocation of each subcommand, and the subcommands that take each
# flag of one object of the paper (jet order, Hankel size, quadrature tolerance)
_MINIMAL_ARGV = {
    "seq": ("seq", "a022558", "--n", "1"),
    "transforms": ("transforms", "--p", "2", "--t", "1/2"),
    "density": ("density", "--p", "2", "--t", "1/2"),
    "moments-check": ("moments-check", "--p", "2", "--t", "1/2"),
    "gfun": ("gfun",),
    "posdef": ("posdef", "--p", "2", "--t", "1/2"),
    "infdiv": ("infdiv", "--p", "2", "--t", "1/2"),
    "domain-grid": ("domain-grid",),
    "verify": ("verify",),
}
_FLAG_OWNERS = {
    ("--series-order", "8"): ("transforms", "verify"),
    ("--hankel-size", "4"): ("posdef", "infdiv", "domain-grid"),
    ("--tol", "1e-6"): ("moments-check",),
}


@pytest.mark.parametrize(
    "command, flag, value",
    [
        (command, flag, value)
        for (flag, value), owners in _FLAG_OWNERS.items()
        for command in _MINIMAL_ARGV
        if command not in owners
    ],
)
def test_a_flag_the_subcommand_does_not_read_is_a_usage_error(capsys, command, flag, value):
    with pytest.raises(SystemExit) as exc:
        main([*_MINIMAL_ARGV[command], flag, value])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "Traceback" not in err
    assert f"unrecognized arguments: {flag} {value}" in err


def test_verify_subset_passes(capsys):
    code, out, _ = run(capsys, "verify", "--only", "gfun")
    assert code == 0
    assert "PASS  c7" in out
    assert out.strip().splitlines()[-1] == "1/1 passed"


def test_verify_single_criterion_by_identifier(capsys):
    code, out, _ = run(capsys, "verify", "--only", "c4")
    assert code == 0
    assert "PASS  c4" in out


def test_verify_unknown_filter(capsys):
    code, _, err = run(capsys, "verify", "--only", "nonsense")
    assert code == 2


def test_verify_json_format(capsys):
    code, out, _ = run(capsys, "verify", "--only", "c3", "--format", "json")
    assert code == 0
    (record,) = json.loads(out)
    assert list(record) == ["ident", "label", "tags", "passed", "detail", "seconds"]
    assert record["ident"] == "c3"
    assert record["tags"] == ["exact"]
    assert record["passed"] is True


def test_nonconvergent_quadrature_is_a_limit(capsys):
    # a_n nearly cancels above t = 2p/(p+1); the quadrature gives up at n = 20
    code, _, err = run(capsys, "moments-check", "--p", "11/8", "--t", "6/5", "--n-max", "20")
    assert code == 2
    assert err.startswith("fussdeform: error: moment quadrature did not converge")
    assert "internal contradiction" not in err
    assert "Traceback" not in err


def test_subprocess_module_invocation():
    # the child imports the same package as this process, wherever it lives
    src = os.path.dirname(os.path.dirname(fussdeform.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

    def child(*argv):
        return subprocess.run(
            [sys.executable, "-m", "fussdeform.cli", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )

    result = child("seq", "a220910", "--n", "5")
    assert result.returncode == 0
    assert result.stdout == A220910_CSV
    # a fresh process loads verify and json on first use
    result = child("verify", "--only", "c3", "--format", "json")
    assert result.returncode == 0, result.stderr
    (record,) = json.loads(result.stdout)
    assert list(record) == ["ident", "label", "tags", "passed", "detail", "seconds"]


# One command of each subcommand, and of each seq subject that builds jets, with
# the modules under fussdeform.cli that it loads in a fresh interpreter: a
# handler imports the layers it calls, so each command loads only those.
_FLOAT = {"exact_seq", "density", "_backend", "_kernels_py"}
_POSITIVITY = {"exact_seq", "posdef", "_backend", "_kernels_py"}
_LAYERS_PER_COMMAND = {
    ("seq", "a", "--p", "5/2", "--t", "1/3", "--n", "4"): {"exact_seq"},
    ("seq", "a022558", "--n", "4"): {"exact_seq", "series"},
    ("seq", "a220910", "--n", "4", "--method", "cumulant"): {"exact_seq", "series"},
    ("transforms", "--p", "5/2", "--t", "1/3", "--series-order", "4"): {"exact_seq", "series"},
    ("density", "--p", "5/2", "--t", "1/3", "--grid", "3"): _FLOAT,
    ("moments-check", "--p", "5/2", "--t", "1/3", "--n-max", "2"): _FLOAT,
    ("gfun", "--steps", "3"): _POSITIVITY,
    ("posdef", "--p", "3/2", "--t", "1/5"): _POSITIVITY,
    ("infdiv", "--p", "2", "--t", "1/2"): _POSITIVITY | {"series"},
    ("domain-grid", "--steps", "2"): _POSITIVITY,
    ("verify", "--only", "c1"): _FLOAT | _POSITIVITY | {"series", "verify"},
}


@pytest.mark.parametrize("argv", list(_LAYERS_PER_COMMAND), ids=" ".join)
def test_each_command_loads_only_its_layers(argv):
    src = os.path.dirname(os.path.dirname(fussdeform.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import contextlib, io, sys\n"
        "import fussdeform.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = fussdeform.cli.main(sys.argv[1:])\n"
        "print(code, *sorted(m for m in sys.modules if m.startswith('fussdeform.')))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
    code, *loaded = result.stdout.split()
    assert code == "0"
    layers = {name.removeprefix("fussdeform.") for name in loaded} - {"cli", "errors"}
    assert layers == _LAYERS_PER_COMMAND[argv]


def _untimed(text: str) -> str:
    """``verify``'s report with each criterion's seconds blanked out."""
    return re.sub(r"\[\d+\.\d+s\]", "[s]", text)


def test_console_script_if_installed(capsys):
    exe = shutil.which("fussdeform")
    if exe is None:
        pytest.skip("console script not on PATH")
    result = subprocess.run(
        [exe, "seq", "constellation", "--p", "3", "--n", "3"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.strip().splitlines()[1:] == [
        "constellation(p=3),1,1,1/1",
        "constellation(p=3),1,2,6/1",
        "constellation(p=3),1,3,54/1",
    ]
    # the installed entry point loads the package __init__, then
    # fussdeform.cli:main: every subcommand prints through it what main prints
    for argv in _LAYERS_PER_COMMAND:
        code, out, err = run(capsys, *argv)
        result = subprocess.run([exe, *argv], capture_output=True, text=True)
        assert (result.returncode, _untimed(result.stdout), result.stderr) == (
            code,
            _untimed(out),
            err,
        ), argv
