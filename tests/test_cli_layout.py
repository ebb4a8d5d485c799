"""Output layout of every subcommand, in both formats.

The exact subcommands are pinned byte for byte: each case gives the CSV text
and the JSON object, which the tool prints as ``json.dumps(obj, indent=2)``.
The float subcommands are pinned by header or keys, row count and values to
within 1e-12.  EXACT_CASES holds every exact-bytes golden of the CLI; test_cli.py
restates none of them.
"""

import json
import re

import pytest

from fussdeform.cli import main


def run(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert captured.err == ""
    return code, captured.out


def seq_case(argv, label, offset, values):
    csv = "label,offset,n,value\n" + "".join(
        f"{label},{offset},{offset + i},{v}\n" for i, v in enumerate(values)
    )
    return argv, csv, {"label": label, "offset": offset, "values": values}


def jets_case(argv, p, t, order, route, jets):
    csv = "transform,n,value\n" + "".join(
        f"{name},{k},{v}\n" for name, values in jets.items() for k, v in enumerate(values)
    )
    return argv, csv, {"p": p, "t": t, "order": order, "route": route, **jets}


def posdef_case(argv, p, t, theorem, minors, verdict):
    csv = f"p,t,theorem,hankel_verdict\n{p},{t},{'true' if theorem else 'false'},{verdict}\n"
    hankel = {"size": len(minors), "minors": minors, "verdict": verdict}
    return argv, csv, {"p": p, "t": t, "theorem_verdict": theorem, "hankel": hankel}


def infdiv_case(argv, p, t, minors, verdict):
    csv = f"p,t,verdict\n{p},{t},{verdict}\n"
    return argv, csv, {"p": p, "t": t, "size": len(minors), "minors": minors, "verdict": verdict}


GRID_CELLS = [
    (p, t, "true", "positive_definite")
    for p in ("2/1", "5/2", "3/1")
    for t in ("1/2", "3/4", "1/1")
]

EXACT_CASES = [
    seq_case(
        ["seq", "a", "--p", "3/2", "--t", "1/5", "--n", "3"],
        "a(p=3/2;t=1/5)", 0, ["1/1", "9/5", "7/2", "57/8"],
    ),
    # p = 1 gives a_n = n + 1 - n t, which is 1 at t = 1
    seq_case(["seq", "a", "--p", "1", "--t", "1", "--n", "5"], "a(p=1;t=1)", 0, ["1/1"] * 6),
    # a decimal parameter is read exactly
    seq_case(
        ["seq", "a", "--p", "2", "--t", "0.25", "--n", "1"], "a(p=2;t=1/4)", 0, ["1/1", "7/4"]
    ),
    seq_case(
        ["seq", "raney", "--p", "2", "--r", "1", "--n", "3"],
        "raney(p=2/1;r=1/1)", 0, ["1/1", "1/1", "2/1", "5/1"],
    ),
    seq_case(
        ["seq", "raney", "--p", "2", "--r", "1", "--n", "5"],
        "raney(p=2/1;r=1/1)", 0, ["1/1", "1/1", "2/1", "5/1", "14/1", "42/1"],
    ),
    seq_case(
        ["seq", "constellation", "--p", "2", "--n", "3"],
        "constellation(p=2)", 1, ["1/1", "3/1", "12/1"],
    ),
    seq_case(
        ["seq", "constellation", "--p", "2", "--n", "4"],
        "constellation(p=2)", 1, ["1/1", "3/1", "12/1", "56/1"],
    ),
    seq_case(
        ["seq", "a220910", "--n", "3", "--method", "closed_b"],
        "A220910", 0, ["1/1", "1/1", "3/1", "14/1"],
    ),
    seq_case(
        ["seq", "a220910", "--n", "5"], "A220910", 0, ["1/1", "1/1", "3/1", "14/1", "83/1", "570/1"]
    ),
    seq_case(["seq", "a022558", "--n", "3"], "A022558", 0, ["1/1", "1/1", "2/1", "6/1"]),
    seq_case(
        ["seq", "a022558", "--n", "10"],
        "A022558", 0,
        ["1/1", "1/1", "2/1", "6/1", "23/1", "103/1", "512/1", "2740/1", "15485/1", "91245/1",
         "555662/1"],
    ),
    jets_case(
        ["transforms", "--p", "2", "--t", "1/2", "--series-order", "3"],
        "2/1", "1/2", 3, "moments",
        {
            "m": ["1/1", "3/2", "7/2", "19/2"],
            "r": ["0/1", "3/2", "5/4", "1/2"],
            "s": ["2/3", "-10/27", "76/243"],
        },
    ),
    jets_case(
        ["transforms", "--p", "3", "--t", "1/2", "--series-order", "3", "--route", "closed"],
        "3/1", "1/2", 3, "closed",
        {
            "m": ["1/1", "3/2", "5/1", "21/1"],
            "r": ["0/1", "3/2", "11/4", "21/4"],
            "s": ["2/3", "-22/27", "232/243"],
        },
    ),
    posdef_case(
        ["posdef", "--p", "2", "--t", "1", "--hankel-size", "3"],
        "2/1", "1/1", True, ["1/1"] * 3, "positive_definite",
    ),
    posdef_case(
        ["posdef", "--p", "2", "--t", "1", "--hankel-size", "4"],
        "2/1", "1/1", True, ["1/1"] * 4, "positive_definite",
    ),
    posdef_case(
        ["posdef", "--p", "2", "--t", "7/5", "--hankel-size", "8"],
        "2/1", "7/5", False,
        ["1/1", "11/25", "13/125", "-1/125", "-67/3125", "-181/15625", "-11/3125", "-101/390625"],
        "indefinite",
    ),
    infdiv_case(
        ["infdiv", "--p", "2", "--t", "1/2", "--hankel-size", "2"],
        "2/1", "1/2", ["5/4", "-21/64"], "indefinite",
    ),
    infdiv_case(
        ["infdiv", "--p", "2", "--t", "1/2", "--hankel-size", "3"],
        "2/1", "1/2", ["5/4", "-21/64", "-89/4096"], "indefinite",
    ),
    (
        ["domain-grid", "--p-min", "2", "--p-max", "3", "--t-min", "1/2", "--t-max", "1",
         "--steps", "3", "--hankel-size", "2"],
        "p,t,theorem,hankel_verdict\n" + "".join(",".join(c) + "\n" for c in GRID_CELLS),
        [
            {"p": p, "t": t, "theorem": True, "hankel_verdict": verdict}
            for p, t, _, verdict in GRID_CELLS
        ],
    ),
]


@pytest.mark.parametrize("argv,csv,obj", EXACT_CASES, ids=[" ".join(c[0]) for c in EXACT_CASES])
def test_exact_subcommand_bytes(capsys, argv, csv, obj):
    assert run(capsys, argv) == (0, csv)
    assert run(capsys, argv + ["--format", "csv"]) == (0, csv)
    assert run(capsys, argv + ["--format", "json"]) == (0, json.dumps(obj, indent=2) + "\n")


# (argv, CSV header, JSON keys, expected rows); a None cell prints empty / null
FLOAT_CASES = [
    (
        ["density", "--p", "3/2", "--t", "1/5", "--grid", "3"],
        "x,phi,f",
        ["x", "phi", "f"],
        [
            (0.649519052838329, 1.6035459367056988, 0.06913610581298486),
            (1.299038105676658, 1.2414402796926955, 0.40179973921228224),
            (1.948557158514987, 0.843610397763723, 0.7612539038542183),
        ],
    ),
    (
        ["density", "--p", "2", "--t", "1/2", "--grid", "3", "--route", "closed"],
        "x,phi,f",
        ["x", "phi", "f"],
        [
            (1.0, None, 0.27566444771089604),
            (2.0, None, 0.238732414637843),
            (3.0, None, 0.18377629847393068),
        ],
    ),
    (
        ["moments-check", "--p", "3/2", "--t", "1/5", "--n-max", "2"],
        "p,t,n,value,est_error",
        ["p", "t", "n", "value", "est_error"],
        [
            ("3/2", "1/5", 0, 0.9999999999998571, 1.1102230246249978e-14),
            ("3/2", "1/5", 1, 1.7999999999989182, 9.798668177225748e-12),
            ("3/2", "1/5", 2, 3.500000000000002, 3.88578058618805e-14),
        ],
    ),
    (
        ["gfun", "--p-min", "1.5", "--p-max", "2.5", "--steps", "3"],
        "p,g",
        ["p", "g"],
        [(1.5, 0.2), (2.0, 0.0), (2.5, 0.0)],
    ),
]


def parse_cell(text, expected):
    if expected is None:
        return None if text == "" else text
    return type(expected)(text)


def assert_cells_match(got, expected):
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        if isinstance(e, float):
            assert abs(g - e) <= 1e-12
        else:
            assert g == e


@pytest.mark.parametrize(
    "argv,header,keys,rows", FLOAT_CASES, ids=[" ".join(c[0]) for c in FLOAT_CASES]
)
def test_float_subcommand_layout(capsys, argv, header, keys, rows):
    code, out = run(capsys, argv)
    assert code == 0
    lines = out.split("\n")
    assert lines[0] == header and lines[-1] == "" and len(lines) == len(rows) + 2
    csv_rows = []
    for line, expected in zip(lines[1:-1], rows):
        parsed = [parse_cell(c, e) for c, e in zip(line.split(","), expected)]
        assert_cells_match(parsed, expected)
        csv_rows.append(parsed)

    code, out = run(capsys, argv + ["--format", "json"])
    assert code == 0
    assert out.endswith("\n")
    records = json.loads(out)
    assert out == json.dumps(records, indent=2) + "\n"
    assert [list(r) for r in records] == [keys] * len(rows)
    for record, expected, from_csv in zip(records, rows, csv_rows):
        assert_cells_match(list(record.values()), expected)
        assert list(record.values()) == from_csv  # both formats print the same floats


def test_verify_layout(capsys):
    code, out = run(capsys, ["verify", "--only", "c3"])
    assert code == 0
    lines = out.split("\n")
    assert re.fullmatch(r"PASS  c3   [^:]+: .+ \[\d+\.\d\ds\]", lines[0])
    assert lines[1:] == ["1/1 passed", ""]

    code, out = run(capsys, ["verify", "--only", "c3", "--format", "json"])
    assert code == 0
    (record,) = json.loads(out)
    assert list(record) == ["ident", "label", "tags", "passed", "detail", "seconds"]
    assert (record["ident"], record["tags"]) == ("c3", ["exact"]) and record["passed"] is True
    assert out == json.dumps([record], indent=2) + "\n"
