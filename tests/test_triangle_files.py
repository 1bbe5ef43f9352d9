"""The triangle file format read as integer pairs.

``check --kind recursion``, ``recover`` and ``flip`` read a triangle file
through ``laws.read_triangle``, which keeps each cell as the pair it was
written in.  A file whose cells are written unreduced, as JSON integers,
with spaces or as decimals must print the same bytes and exit with the
same code as the reduced file, and a malformed file must be refused with
the exit code and message the ``Fraction`` reader gave.
"""

import json
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qpascal import (
    PolyaParams,
    QParam,
    ThetaParams,
    VArray,
    as_pair,
    check_recursion,
    extreme_chain,
    flip_reduction,
    polya_chain,
    read_triangle,
    recover_measure,
    theta_chain,
)
from qpascal.cli import main

from oracles import varray_from_jsonable

HALF = QParam(F(1, 2))
LAW_QS = [F(1, 2), F(2, 3), F(9, 10)]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def raised_from_q(law: VArray) -> dict:
    """The q > 1 triangle whose flip is ``law``: cell (n, j) is
    q^(j(n-j)) v[n][n-j] for the law's own q < 1."""
    q = law.q.q
    rows = [
        [q ** (j * (n - j)) * row[n - j] for j in range(n + 1)]
        for n, row in enumerate(law.rows)
    ]
    return {"q": str(1 / q), "depth": law.depth, "v": [[str(x) for x in r] for r in rows]}


def decimal(x: F):
    """``x`` as a decimal string, or None when its denominator is not 2^i 5^j."""
    for places in range(9):
        scaled = x * 10**places
        if scaled.denominator == 1:
            digits = str(abs(scaled.numerator)).rjust(places + 1, "0")
            whole, part = digits[: len(digits) - places], digits[len(digits) - places:]
            return ("-" if x < 0 else "") + whole + ("." + part if part else "")
    return None


def rewritten(text: str, scale: int, form: int):
    """One cell of a file written another way, with the same value."""
    x = F(text)
    if form == 1 and x.denominator == 1 and scale == 1:
        return x.numerator  # a JSON integer
    if form == 2:
        return " %s " % x
    if form == 3 and decimal(x) is not None:
        return decimal(x)
    sign = "+" if form == 4 and x >= 0 else ""
    return "%s%d/%d" % (sign, x.numerator * scale, x.denominator * scale)


class TestPairReader:
    def test_cells_keep_the_pair_they_were_written_in(self):
        cells = ["6/8", "+3/6", "0/5", "-4/2", 3, " 3/4 ", "0.5", "007/010"]
        assert [as_pair(c) for c in cells] == [
            (6, 8), (3, 6), (0, 5), (-4, 2), (3, 1), (3, 4), (1, 2), (7, 10),
        ]
        assert as_pair(F(6, 8)) == (3, 4)

    def test_read_triangle_reduces_nothing(self):
        q, rows = read_triangle({"q": "4/8", "depth": 1, "v": [["2/2"], ["2/4", 0]]})
        assert q == HALF
        assert rows == (((2, 2),), ((2, 4), (0, 1)))

    def test_from_jsonable_reads_the_pairs(self):
        arr = varray_from_jsonable({"q": "1/2", "v": [["2/2"], ["2/4", "+3/6"]]})
        assert arr.rows == ((F(1),), (F(1, 2), F(1, 2)))

    def test_fraction_rows_are_not_read_again(self):
        rows = extreme_chain(2, HALF).triangle(4).rows
        again = VArray(HALF, rows).rows
        assert all(x is y for row, same in zip(rows, again) for x, y in zip(row, same))

    def test_a_file_and_its_varray_give_the_same_results(self):
        law = theta_chain(ThetaParams(F(1, 3), HALF)).triangle(6)
        triangle = read_triangle(law.to_jsonable())
        assert check_recursion(triangle) == check_recursion(law)
        assert recover_measure(triangle, 6, 3) == recover_measure(law, 6, 3)
        raised = raised_from_q(law)
        assert flip_reduction(read_triangle(raised)) == flip_reduction(
            varray_from_jsonable(raised)) == (law, law.q)


def _law(kind: str, q: QParam, depth: int, data) -> VArray:
    if kind == "extreme":
        return extreme_chain(data.draw(st.integers(0, depth + 1)), q).triangle(depth)
    if kind == "theta":
        theta = data.draw(st.sampled_from([F(1, 3), F(1), F(5, 2)]))
        return theta_chain(ThetaParams(theta, q)).triangle(depth)
    a, b = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    return polya_chain(PolyaParams(F(a), F(b), q)).triangle(depth)


class TestUnreducedFiles:
    """A file and the same file with its cells rewritten print the same."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_rewritten_cells_change_no_byte(self, capsys, tmp_path, data):
        q = QParam(data.draw(st.sampled_from(LAW_QS), label="q"))
        depth = data.draw(st.integers(1, 7), label="depth")
        kind = data.draw(st.sampled_from(["extreme", "theta", "polya"]), label="law")
        law = _law(kind, q, depth, data)
        wire = law.to_jsonable()
        if data.draw(st.booleans(), label="corrupt"):
            n = data.draw(st.integers(1, depth))
            k = data.draw(st.integers(0, n))
            wire["v"][n][k] = str(F(wire["v"][n][k]) + F(1, 64))
        kmax = min(depth, 3)
        files = {
            "law": (wire, [["check", "--kind", "recursion"],
                           ["recover", "--nu", str(depth), "--kmax", str(kmax)]]),
            "raised": (raised_from_q(law), [["check", "--kind", "recursion"], ["flip"]]),
        }
        for name, (payload, commands) in files.items():
            again = dict(payload)
            again["v"] = [
                [
                    rewritten(cell, data.draw(st.integers(1, 12)), data.draw(st.integers(0, 4)))
                    for cell in row
                ]
                for row in payload["v"]
            ]
            plain = write(tmp_path / (name + ".json"), payload)
            other = write(tmp_path / (name + "-rewritten.json"), again)
            for argv in commands:
                want = run(capsys, argv + ["--input", plain])
                got = run(capsys, argv + ["--input", other])
                assert got == want, (argv, again)

    def test_named_forms(self, capsys, tmp_path):
        # extreme law at kappa = 1, q = 1/2: rows 1; 1/2 1/2; 1/4 1/2 0
        reduced = {"q": "1/2", "depth": 2, "v": [["1"], ["1/2", "1/2"], ["1/4", "1/2", "0"]]}
        forms = {"q": "1/2", "depth": 2, "v": [[1], ["+3/6", " 1/2 "], ["0.25", "6/12", "0/5"]]}
        for argv in (["check", "--kind", "recursion"], ["recover", "--nu", "2", "--kmax", "1"]):
            want = run(capsys, argv + ["--input", write(tmp_path / "a.json", reduced)])
            assert want[0] == 0
            assert run(capsys, argv + ["--input", write(tmp_path / "b.json", forms)]) == want
        raised = {"q": "2", "depth": 2, "v": [["1"], ["6/8", "1/4"], ["0", "1/4", "3/4"]]}
        want = run(capsys, ["flip", "--input", write(tmp_path / "c.json", raised)])
        assert want[0] == 0 and '"3/4"' in want[1] and "6/8" not in want[1]
        raised["v"] = [["2/2"], ["+6/8", "0.25"], [0, "2/8", " 3/4 "]]
        assert run(capsys, ["flip", "--input", write(tmp_path / "d.json", raised)]) == want


# each file's exit code and stderr line, recorded from the Fraction reader;
# the three commands refuse every one of them alike
_BASE = {"q": "1/2", "depth": 2, "v": [["1"], ["1/2", "1/2"], ["1/4", "1/2", "0"]]}
_NOT_A = "error: {path} is not a triangle file: "
_EXACT = "TypeError: exact interfaces take Fraction, int or string, not "


def _cell(value):
    data = json.loads(json.dumps(_BASE))
    data["v"][1][0] = value
    return data


def _edit(**fields):
    data = json.loads(json.dumps(_BASE))
    for key, value in fields.items():
        if value is None:
            del data[key]
        else:
            data[key] = value
    return data


REFUSALS = {
    "float-cell": (_cell(0.5), 2, _NOT_A + _EXACT + "0.5"),
    "bool-cell": (_cell(True), 2, _NOT_A + _EXACT + "True"),
    "zero-denominator": (_cell("1/0"), 2, "error: zero denominator in '1/0'"),
    "word-cell": (_cell("abc"), 2, "error: Invalid literal for Fraction: 'abc'"),
    "huge-exponent": (_cell("1e5000"), 2, "error: decimal exponent 5000 exceeds 4300 in size"),
    "doubled-sign": (_cell("0e++0"), 2, "error: Invalid literal for Fraction: '0e++0'"),
    "float-q": (_edit(q=0.5), 2, _NOT_A + _EXACT + "0.5"),
    "missing-q": (_edit(q=None), 2, _NOT_A + "KeyError: 'q'"),
    "zero-q": (_edit(q="0"), 2, "error: q must be positive, got 0"),
    "missing-v": (_edit(v=None), 2, _NOT_A + "KeyError: 'v'"),
    "scalar-v": (_edit(v=5), 2,
                 _NOT_A + "TypeError: a triangle is a list of rows, each a list of cells"),
    "string-v": (_edit(v="1"), 2,
                 _NOT_A + "TypeError: a triangle is a list of rows, each a list of cells"),
    "empty-v": (_edit(v=[]), 4, "invalid input: array needs at least the root row"),
    "short-row": (_edit(v=[["1"], ["1"], ["1", "0", "0"]]), 4,
                  "invalid input: row 1 must have 2 entries, got 1"),
    "long-row": (_edit(v=[["1"], ["1", "0", "0"], ["1", "0", "0"]]), 4,
                 "invalid input: row 1 must have 2 entries, got 3"),
    "depth-mismatch": (_edit(depth=3), 4,
                       "invalid input: declared depth 3 does not match 3 rows"),
    "string-depth": (_edit(depth="2"), 2,
                     _NOT_A + "TypeError: a count must be an integer, not '2'"),
    "bad-cell-and-row": (_edit(v=[["1"], ["abc"], ["1", "0", "0"]]), 2,
                         "error: Invalid literal for Fraction: 'abc'"),
    "not-an-object": ([1, 2], 2,
                      _NOT_A + "TypeError: list indices must be integers or slices, not str"),
}
COMMANDS = {
    "check": ["check", "--kind", "recursion"],
    "recover": ["recover", "--nu", "1", "--kmax", "1"],
    "flip": ["flip"],
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_malformed_file_is_refused_as_before(capsys, tmp_path, name, command):
    payload, code, line = REFUSALS[name]
    path = write(tmp_path / "t.json", payload)
    assert run(capsys, COMMANDS[command] + ["--input", path]) == (
        code, "", line.format(path=path) + "\n",
    )
