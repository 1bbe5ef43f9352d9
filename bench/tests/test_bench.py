"""Tests of the benchmark itself: op generation, output checks, tracing.

Run from the repository root with ``python3 -m pytest bench/tests``.
"""

import contextlib
import io
import json
from fractions import Fraction

import pytest

import checks
import tracing
import workloads
from checks import CheckFailed
from qpascal import cli, exactq


def argvs(workload, seed, tmp_path, blocks=3):
    make_block, _ = workloads.WORKLOADS[workload]
    return [op.argv for b in range(blocks) for op in make_block(seed, b, tmp_path)]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_ops(workload, tmp_path):
    first = argvs(workload, 7, tmp_path)
    again = argvs(workload, 7, tmp_path)
    other = argvs(workload, 8, tmp_path)
    assert first == again
    assert first != other


def run(op, ctx):
    """Run one op through the cli and return (exit code, output text)."""
    if op.prepare is not None:
        op.prepare(ctx)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(op.argv)
    text = op.out.read_text() if op.out is not None else out.getvalue()
    return rc, text


def small_ops(workdir):
    """A tiny triangle with every read-back, one corrupted, plus the
    other table kinds, a histogram, a growth chain and an enumeration."""
    import random

    rnd = random.Random(3)
    ops = workloads._triangle_ops("mixture", "2/3", 6, rnd, "t", workdir, corrupt=True)
    for kind, fmt in (("tilde", "csv"), ("v", "text"), ("d", "json")):
        ops.append(workloads.Op(
            "table", ["table", "--law", "theta", "--theta", "1", "--q", "1/2",
                      "--depth", "5", "--kind", kind, "--format", fmt],
            expect={"q": "1/2", "depth": 5, "kind": kind, "format": fmt}))
    ops.append(workloads._sample_op("extreme-forward", 50, "1/2", 6, rnd))
    ops.append(workloads._grow_op(3, 1, 6, 2, 11))
    ops.append(workloads._enumerate_op(2, 4, 2))
    return ops


def test_checks_accept_real_outputs(tmp_path):
    ctx = {}
    for op in small_ops(tmp_path):
        rc, text = run(op, ctx)
        checks.verify(op, rc, text, ctx)


def bump_first_cell(text, fmt):
    """Add 1 to the first cell of row 1 of a CSV or text triangle."""
    lines = text.splitlines()
    if fmt == "csv":
        n, k, value = lines[2].split(",")
        lines[2] = "%s,%s,%s" % (n, k, Fraction(value) + 1)
    else:
        head, body = lines[1].split(" | ")
        first, *rest = body.split()
        lines[1] = "%s | %s" % (head, "  ".join([str(Fraction(first) + 1), *rest]))
    return "\n".join(lines)


def corrupt_numbers(op, text):
    """A hand-corrupted copy of each kind of output."""
    if op.kind in ("table", "flip"):
        if op.expect.get("format") in ("csv", "text"):
            return bump_first_cell(text, op.expect["format"])
        data = json.loads(text)
        rows = data["v"] if "v" in data else data["rows"]
        rows[-1][-1] = "1/1000" if rows[-1][-1] != "1/1000" else "1/999"
        return json.dumps(data)
    if op.kind in ("check", "monotone"):
        return text.replace("true", "false").replace('"witness": null', '"witness": {"n": 0, "k": 0}')
    if op.kind == "corrupt":
        data = json.loads(text)
        data["witness"]["n"] += 2
        return json.dumps(data)
    if op.kind == "recover":
        data = json.loads(text)
        data["measure"]["zero_mass"] = str(exactq.parse_rational(data["measure"]["zero_mass"]) + 1)
        return json.dumps(data)
    if op.kind == "sample":
        lines = text.splitlines()
        k, count, freq, exp = lines[1].split(",")
        lines[1] = ",".join((k, str(int(count) + 1), freq, exp))
        return "\n".join(lines)
    if op.kind == "grow":
        data = json.loads(text)
        grown = next(m for m in data["chain"] if m["basis"])
        grown["basis"][0] = [2] + grown["basis"][0][1:]  # leading entry not 1
        return json.dumps(data)
    data = json.loads(text)
    data["subspaces"][1] = data["subspaces"][0]  # a repeated subspace
    return json.dumps(data)


def test_checks_reject_corrupted_outputs_and_exit_codes(tmp_path):
    ctx = {}
    kinds = set()
    for op in small_ops(tmp_path):
        rc, text = run(op, ctx)
        checks.verify(op, rc, text, ctx)
        bad = corrupt_numbers(op, text)
        assert bad != text
        with pytest.raises(CheckFailed):
            checks.verify(op, rc, bad, dict(ctx))
        with pytest.raises(CheckFailed):
            checks.verify(op, 0 if rc == 4 else 4, text, dict(ctx))
        kinds.add(op.kind)
    assert kinds == set(checks.VERIFY)


def test_v_triangle_check_catches_each_rule():
    half = Fraction(1, 2)
    checks.check_v_triangle(half, [[1], [0, 1], [0, 0, 1]])  # the all-ones law
    for bad, rule in (([[2], [0, 1]], "v\\[0\\]\\[0\\]"),
                      ([[1], [-1, 2]], "negative"),
                      ([[1], [0, 1], [0, 1, 1]], "recursion")):
        with pytest.raises(CheckFailed, match=rule):
            checks.check_v_triangle(half, bad)


def test_corrupt_witness_is_any_equation_of_the_cell():
    def verdict(n, k):
        return json.dumps({"kind": "recursion", "ok": False, "witness": {"n": n, "k": k}})

    inner = workloads.Op("corrupt", [], expect={"n": 3, "k": 1, "depth": 5})
    last = workloads.Op("corrupt", [], expect={"n": 5, "k": 1, "depth": 5})
    digests = {checks.verify(inner, 4, verdict(n, k), {}) for n, k in ((2, 0), (2, 1), (3, 1))}
    assert len(digests) == 1  # the witness position is not digested
    checks.verify(last, 4, verdict(4, 1), {})
    for op, (n, k) in ((inner, (3, 0)), (inner, (4, 1)), (inner, (1, 1)), (last, (5, 1))):
        with pytest.raises(CheckFailed, match="not next to"):
            checks.verify(op, 4, verdict(n, k), {})


def test_enumerate_digest_ignores_order(tmp_path):
    op = workloads._enumerate_op(2, 4, 2)
    rc, text = run(op, {})
    data = json.loads(text)
    data["subspaces"].reverse()
    assert checks.verify(op, rc, json.dumps(data), {}) == checks.verify(op, rc, text, {})


def test_digest_ignores_added_payload_fields(tmp_path):
    ctx = {}
    op = small_ops(tmp_path)[2]  # recover
    assert op.kind == "recover"
    for earlier in small_ops(tmp_path)[:2]:
        rc, text = run(earlier, ctx)
        checks.verify(earlier, rc, text, ctx)
    rc, text = run(op, ctx)
    data = json.loads(text)
    data["measure"]["tail_mass"] = "0"
    data["truncation"] = {"kmax": 3}
    assert checks.verify(op, rc, json.dumps(data), ctx) == checks.verify(op, rc, text, ctx)


def test_span_self_times_sum_to_root_durations(tmp_path):
    tracer = tracing.Tracer()
    original = cli.main
    tracer.install()
    try:
        assert cli.main is not original
        assert cli.q_binomial is exactq.q_binomial  # rebound in every namespace
        ctx = {}
        for i, op in enumerate(small_ops(tmp_path)):
            tracer.op = i
            checks.verify(op, *run(op, ctx), ctx)
    finally:
        tracer.uninstall()
    assert cli.main is original
    roots = tracer.roots()
    assert len(roots) == tracer.calls["cli.main"] == len(small_ops(tmp_path))
    root_total = sum(end - start for _, _, start, end, _, _, _ in roots)
    assert sum(tracer.self_time.values()) == pytest.approx(root_total, rel=1e-9)
    assert sum(tracer.layer_self().values()) == pytest.approx(root_total, rel=1e-9)
    # stored spans nest inside their parents and belong to one op
    by_id = {s[0]: s for s in tracer.spans}
    for sid, name, start, end, parent, op, own in tracer.spans:
        assert 0 <= own <= end - start + 1e-9
        if parent is not None:
            p = by_id[parent]
            assert p[2] <= start and end <= p[3] and p[5] == op
    metrics = tracing.layer_metrics(tracer, 0, 1.0)
    assert set(metrics) == set(tracing.PER_LAYER_UNITS)
    assert metrics["rng.draws"] > 0 and metrics["galois.field_ops"] > 0
