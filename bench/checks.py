"""Independent checks and contract digests for benchmark op outputs.

Nothing here calls qpascal: the checks are short exact ``Fraction``
code written against the paper's definitions, so a fast path in the
library cannot vouch for itself.  ``verify`` returns the parsed
contract values of an op; their digest hashes parsed values, not raw
bytes, so a payload that gains a field keeps its digest.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction


class CheckFailed(Exception):
    """An op's exit code or output broke the benchmark's own check."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def digest(values) -> str:
    blob = json.dumps(values, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ------------------------------------------------------------ triangles


def check_v_triangle(q: Fraction, rows) -> None:
    """v[0][0] = 1, v >= 0 and v[n][k] = v[n+1][k] + q^(n-k) v[n+1][k+1]."""
    require(len(rows) >= 1 and rows[0] == [1], "v[0][0] is not 1")
    for n, row in enumerate(rows):
        require(len(row) == n + 1, "row %d has %d entries" % (n, len(row)))
        require(all(x >= 0 for x in row), "negative entry in row %d" % n)
        if n + 1 < len(rows):
            nxt = rows[n + 1]
            for k, x in enumerate(row):
                require(x == nxt[k] + q ** (n - k) * nxt[k + 1],
                        "recursion fails at (%d, %d)" % (n, k))


def check_tilde_rows(rows) -> None:
    for n, row in enumerate(rows):
        require(len(row) == n + 1, "row %d has %d entries" % (n, len(row)))
        require(all(x >= 0 for x in row), "negative mass in level %d" % n)
        require(sum(row) == 1, "level %d sums to %s" % (n, sum(row)))


def check_d_rows(q: Fraction, rows) -> None:
    """Gaussian binomials: d[n][k] = d[n-1][k-1] + q^k d[n-1][k]."""
    for n, row in enumerate(rows):
        require(len(row) == n + 1 and row[0] == 1 and row[n] == 1,
                "bad border in row %d" % n)
        for k in range(1, n):
            require(row[k] == rows[n - 1][k - 1] + q**k * rows[n - 1][k],
                    "q-Pascal rule fails at (%d, %d)" % (n, k))


def parse_rows(text: str, fmt: str):
    if fmt == "json":
        data = json.loads(text)
        return [[Fraction(x) for x in row] for row in data.get("v", data.get("rows"))]
    rows: list[list[Fraction]] = []
    if fmt == "csv":
        lines = text.strip().splitlines()
        require(lines[0] == "n,k,value", "bad CSV header")
        for line in lines[1:]:
            n, k, value = line.split(",")
            if int(k) == 0:
                require(int(n) == len(rows), "CSV rows out of order")
                rows.append([])
            require(int(k) == len(rows[-1]), "CSV cells out of order")
            rows[-1].append(Fraction(value))
        return rows
    for n, line in enumerate(text.strip("\n").splitlines()):
        head, _, body = line.partition("|")
        require(int(head) == n, "text rows out of order")
        rows.append([Fraction(x) for x in body.split()])
    return rows


def _triangle_values(rows):
    return [[str(x) for x in row] for row in rows]


def verify_table(op, rc: int, text: str, ctx: dict):
    e = op.expect
    require(rc == 0, "exit %d" % rc)
    q = Fraction(e["q"])
    rows = parse_rows(text, e["format"])
    require(len(rows) == e["depth"] + 1, "depth %d, expected %d" % (len(rows) - 1, e["depth"]))
    if e["format"] == "json":
        data = json.loads(text)
        require(Fraction(data["q"]) == q, "q changed")
    if e["kind"] == "v":
        check_v_triangle(q, rows)
    elif e["kind"] == "tilde":
        check_tilde_rows(rows)
    else:
        check_d_rows(q, rows)
    if "tri" in e:
        ctx[e["tri"]] = (q, rows)
    return _triangle_values(rows)


def verify_check(op, rc: int, text: str, ctx: dict):
    data = json.loads(text)
    require(rc == 0 and data["ok"] is True and data["witness"] is None,
            "valid input rejected (exit %d)" % rc)
    return None  # the verdict is the contract, and it is checked above


def verify_corrupt(op, rc: int, text: str, ctx: dict):
    """A corrupted cell (n, k), n >= 1, breaks the recursion equations of
    (n - 1, k - 1) and (n - 1, k), and that of (n, k) when n is not the
    last row; any of them is a valid witness."""
    data = json.loads(text)
    n, k = op.expect["n"], op.expect["k"]
    require(rc == 4 and data["ok"] is False, "corrupted cell not caught (exit %d)" % rc)
    w = data["witness"]
    allowed = {(n - 1, k - 1), (n - 1, k)} | ({(n, k)} if n < op.expect["depth"] else set())
    require((w["n"], w["k"]) in allowed,
            "witness (%s, %s) is not next to (%d, %d)" % (w["n"], w["k"], n, k))
    return None  # which valid witness is reported is not a contract value


def verify_recover(op, rc: int, text: str, ctx: dict):
    require(rc == 0, "exit %d" % rc)
    measure = json.loads(text)["measure"]
    masses = [Fraction(a["mass"]) for a in measure["atoms"]]
    zero = Fraction(measure["zero_mass"])
    require(Fraction(measure["q"]) == Fraction(op.expect["q"]), "q changed")
    require(len(masses) == op.expect["kmax"] + 1, "wrong number of atoms")
    require(all(m >= 0 for m in masses) and zero >= 0, "negative mass")
    require(sum(masses) + zero == 1, "masses sum to %s" % (sum(masses) + zero))
    return [[a["kappa"], str(m)] for a, m in zip(measure["atoms"], masses)] + [str(zero)]


def verify_flip(op, rc: int, text: str, ctx: dict):
    require(rc == 0, "exit %d" % rc)
    q, rows = ctx[op.expect["tri"]]
    data = json.loads(text)
    flipped = [[Fraction(x) for x in row] for row in data["v"]]
    require(Fraction(data["q"]) == q and flipped == rows,
            "flip does not return the sub-unit triangle")
    return _triangle_values(flipped)


# --------------------------------------------------------------- sampling


def verify_sample(op, rc: int, text: str, ctx: dict):
    require(rc == 0, "exit %d" % rc)
    e = op.expect
    lines = text.strip().splitlines()
    require(lines[0] == "k,count,frequency,expected", "bad CSV header")
    counts, expected = [], 0.0
    for k, line in enumerate(lines[1:]):
        kk, count, _, exp = line.split(",")
        require(int(kk) == k, "levels out of order")
        counts.append(int(count))
        expected += float(exp)
    require(len(counts) == e["n"] + 1, "expected %d levels" % (e["n"] + 1))
    require(all(c >= 0 for c in counts), "negative count")
    require(sum(counts) == e["trials"], "counts sum to %d, not %d" % (sum(counts), e["trials"]))
    require(abs(expected - 1) < 1e-6, "expected column sums to %r" % expected)
    if "kappa" in e:  # an extreme(kappa) word never holds more than kappa ones
        require(not any(counts[e["kappa"] + 1:]), "more than kappa ones")
    return counts


# -------------------------------------------------------------- subspaces


def check_rref(basis, n: int, size: int) -> None:
    """Rows of length n over [0, size), leading 1s in strictly increasing
    columns, and each pivot column zero outside its row."""
    last = -1
    pivots = []
    for row in basis:
        require(len(row) == n, "row length %d, ambient %d" % (len(row), n))
        require(all(0 <= x < size for x in row), "entry outside the field")
        lead = next((j for j, x in enumerate(row) if x), None)
        require(lead is not None and lead > last and row[lead] == 1, "not in echelon form")
        pivots.append(lead)
        last = lead
    for i, col in enumerate(pivots):
        require(all(basis[r][col] == 0 for r in range(len(basis)) if r != i),
                "pivot column %d not reduced" % col)


def verify_grow(op, rc: int, text: str, ctx: dict):
    require(rc == 0, "exit %d" % rc)
    e = op.expect
    data = json.loads(text)
    word, chain = data["word"], data["chain"]
    require(len(word) == e["nmax"] and len(chain) == e["nmax"] + 1, "wrong chain length")
    stalls = 0
    for i, member in enumerate(chain):
        if i:
            stalls += word[i - 1] == "1"
        require(member["n"] == i, "ambient dimension %d at step %d" % (member["n"], i))
        require(member["dim"] == len(member["basis"]) == i - stalls,
                "dimension does not match the codimension word at step %d" % i)
        check_rref(member["basis"], i, e["size"])
    return [word, [m["basis"] for m in chain]]


def verify_enumerate(op, rc: int, text: str, ctx: dict):
    require(rc == 0, "exit %d" % rc)
    e = op.expect
    data = json.loads(text)
    subspaces = data["subspaces"]
    require(data["count"] == e["count"] == len(subspaces),
            "count %s, Gaussian binomial %d" % (data["count"], e["count"]))
    for basis in subspaces:
        require(len(basis) == e["k"], "wrong dimension")
        check_rref(basis, e["n"], e["size"])
    require(len({json.dumps(b) for b in subspaces}) == len(subspaces), "repeated subspace")
    return [data["count"], sorted(subspaces)]  # a set: its order is no contract


VERIFY = {
    "table": verify_table,
    "check": verify_check,
    "corrupt": verify_corrupt,
    "recover": verify_recover,
    "monotone": verify_check,
    "flip": verify_flip,
    "sample": verify_sample,
    "grow": verify_grow,
    "enumerate": verify_enumerate,
}


def verify(op, rc: int, text: str, ctx: dict) -> str:
    """Check one op's output; return the digest of its contract values.

    Raises CheckFailed on a wrong exit code or output.
    """
    try:
        values = VERIFY[op.kind](op, rc, text, ctx)
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        raise CheckFailed("unreadable output: %r" % (exc,)) from exc
    return digest(values)
