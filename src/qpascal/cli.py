"""Command-line front end.

Subcommands:
    table      print a law triangle (v, tilde, or d = Gaussian binomials)
    sample     draw words from a process; optional level histogram
    recover    read a triangle from JSON and recover its mixing measure
    check      recursion / q-exchangeability / q-complete monotonicity
    grassmann  enumerate a Grassmannian or grow a subspace chain
    flip       reduce a super-unit word or triangle to the sub-unit regime

Exit codes: 0 success, 2 usage, 3 regime violation, 4 invalid input or
failed check, 5 field construction error, 6 enumeration guard tripped,
141 (128 + SIGPIPE) when the reader of stdout closed it early.
All structured output is JSON (or CSV where stated) on stdout; -o sends
it to a file instead.  The JSON bytes are those of
``json.dumps(payload, indent=2)``, a contract ``_dumps`` keeps.

Input files (triangle, measure, law, moments) are JSON whose rationals
are strings ("3/4", "0.5") or JSON integers.  A file that is not JSON,
lacks a key, has the wrong shape or holds a JSON float where an exact
number belongs is a usage error (exit 2); a well-formed file whose
values break the object's constraints is invalid input (exit 4).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii as _quote

from .boundary import (
    BoundaryMeasure,
    MomentSequence,
    extreme_chain,
    is_q_completely_monotone,
    mixture_array,
    recover_measure,
)
from .errors import (
    FieldConstructionError,
    InvalidArrayError,
    QPascalError,
    RegimeError,
    TooLargeError,
)
from .exactq import QParam, as_fraction, format_rational, gaussian_row
from .exactq import q_binomial  # noqa: F401 (bench/tests/test_bench.py reads cli.q_binomial)
from .galois import (
    codim_word,
    enumerate_grassmannian,
    growth_q_param,
    make_field,
    sample_growth,
)
from .laws import (
    FiniteLaw,
    VArray,
    check_q_exchangeable,
    check_recursion,
    read_triangle,
    tilde_of_v,
)
from .pascal_graph import BinaryWord, flip_reduction
from .processes import (
    PolyaParams,
    ThetaParams,
    empirical_level_histogram,
    extreme_runs_sampler,
    polya_chain,
    theta_chain,
)
from .rng import SplitMix64

LAWS = ("extreme", "mixture", "theta", "polya")
PROCESSES = ("extreme", "theta", "polya")
MODES = ("forward", "runs")


def _int_in(low: int, high=math.inf):
    """argparse type: an integer in [low, high); anything else is a usage error."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError("not an integer: %r" % text) from None
        if not low <= value < high:
            raise argparse.ArgumentTypeError(
                "%d is outside [%d, %s)" % (value, low, high)
            )
        return value

    return parse


_count = _int_in(0)
_trials = _int_in(1)
_seed = _int_in(0, 1 << 64)


def _parse_kappa(text: str):
    """``inf`` or an integer; the process checks that it is not negative."""
    return math.inf if text == "inf" else int(text)


def _parse_theta(text: str):
    return math.inf if text == "inf" else text


def _dumps(obj) -> str:
    """``json.dumps(obj, indent=2)``, byte for byte.

    ``json.dumps`` runs its pure-Python encoder whenever ``indent`` is
    set, one generator step per value.  Here every value appends its
    chunks to one list, joined once; a list of strings goes out in one
    ``join``, a :class:`_Grid` a level at a time (:func:`_grid_items`)
    and any other list element by element.  A dict key that is not a
    ``str`` raises ``TypeError`` (``json.dumps`` would coerce it)."""
    out = []
    _write(out, obj, "\n")
    return "".join(out)


class _Grid(tuple):
    """A basis or a list of k x n bases, vouched for by the command that
    built it: one length at each depth, plain ints below 2^20 as leaves."""
    __slots__ = ()


def _write(out: list, obj, indent: str) -> None:
    inner = indent + "  "
    if isinstance(obj, str):
        out.append(_quote(obj))
    elif isinstance(obj, (list, tuple)) and obj:
        items = (_grid_items(obj, indent) if type(obj) is _Grid
                 else map(_quote, obj) if set(map(type, obj)) == {str} else None)
        if items is not None:
            out += "[", inner, ("," + inner).join(items), indent, "]"
        else:
            lead = "[" + inner
            for value in obj:
                out.append(lead)
                _write(out, value, inner)
                lead = "," + inner
            out += indent, "]"
    elif isinstance(obj, dict) and obj:
        lead = "{" + inner
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError("JSON keys must be str, not %s" % type(key).__name__)
            out += lead, _quote(key), ": "
            _write(out, value, inner)
            lead = "," + inner
        out += indent, "}"
    elif type(obj) is int:
        out.append(str(obj))
    else:  # an empty list or dict, None, a bool, a float or an int subclass
        out.append(json.dumps(obj))


_DIGITS = b"0123456789" + b"-" * 246  # a leaf's byte -> its ASCII digit, or "-"


def _grid_items(grid: _Grid, indent: str):
    """Texts that, joined by ``"," + inner``, are ``grid``'s items (None,
    for the element-wise path, if it holds an empty list or is one row of
    wider leaves).  The shape is read from the first list at each depth
    and the leaves by one ``bytes()`` per row: one-digit leaves go into
    :func:`_digit_grid`'s text, others by a ``join`` per list."""
    shape, rows = [len(grid)], [grid]  # the lists' length at each depth; the rows
    while shape[-1] and type(rows[0][0]) is not int:
        rows = list(itertools.chain.from_iterable(rows))
        shape.append(len(rows[0]))
    if not shape[-1]:
        return None
    try:
        digits = b"".join(map(bytes, rows)).translate(_DIGITS)
    except ValueError:  # a leaf outside [0, 256)
        digits = b""
    if digits.isdigit():
        return [_digit_grid(digits, shape, indent)]
    items = None
    for depth in range(len(shape) - 1, 0, -1):
        width, inner = shape[depth], indent + "  " * (depth + 1)
        head, sep, tail = "[" + inner, "," + inner, inner[:-2] + "]"
        groups = ((map(str, row) for row in rows) if items is None
                  else (items[i:i + width] for i in range(0, len(items), width)))
        items = [head + sep.join(group) + tail for group in groups]
    return items


def _digit_grid(digits: bytes, shape: list, indent: str) -> str:
    """The items of a grid of one-digit ints joined by ``"," + inner``, its
    leaves' ASCII ``digits`` given in row-major order and ``shape`` the
    length of its lists at each depth.

    With one digit per leaf the layout is fixed.  The text is built with
    a 0 at each leaf, one ``join`` per level, and leaf (i_0, ..., i_D)
    sits at first + sum(i_d * stride_d).  The digits go in by one
    extended-slice write per line of the longest axis: a 1 x 1600 x 1600
    grid takes 1,600 writes, where lines of the top axis would be
    2,560,000."""
    item, first, strides = b"0", 0, []
    for depth in range(len(shape) - 1, -1, -1):
        inner = (indent + "  " * (depth + 1)).encode()
        sep = b"," + inner
        strides.append(len(item) + len(sep))
        if depth:
            first += 1 + len(inner)
            item = b"[" + inner + sep.join([item] * shape[depth]) + inner[:-2] + b"]"
    strides.reverse()
    # sep is now the top level's; a bytearray join copies a large item once
    text = bytearray(sep).join([item] * shape[0])
    del item
    axis = shape.index(max(shape))
    count, step = shape[axis], strides[axis]
    size = math.prod(shape[axis + 1:])  # the axis's stride in digits
    ats, starts, flat = [first], [0], 1  # the first leaf of each line
    for depth in range(len(shape) - 1, -1, -1):
        if depth != axis:
            ats = [at + i * strides[depth] for i in range(shape[depth]) for at in ats]
            starts = [t + i * flat for i in range(shape[depth]) for t in starts]
        flat *= shape[depth]
    span, length = count * step, count * size
    for at, t in zip(ats, starts):
        text[at:at + span:step] = digits[t:t + length:size]
    return text.decode()


def _emit(args, text: str) -> None:
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _read(path: str, kind: str, build):
    """``build`` applied to the JSON in ``path``; a file of the wrong
    shape is a usage error, a constraint it breaks is invalid input."""
    with open(path, encoding="utf-8") as fh:
        try:
            return build(json.load(fh))
        except (json.JSONDecodeError, KeyError, TypeError, RecursionError) as exc:
            raise ValueError(
                "%s is not a %s file: %s: %s" % (path, kind, type(exc).__name__, exc)
            ) from exc


# ----------------------------------------------------------- process flags


def _chain(process: str, args, q: QParam) -> tuple:
    """The chain of ``process``, read from its flags, and the flags that
    ``sample`` echoes."""
    if process == "extreme":
        if args.kappa is None:
            raise ValueError("--kappa is required for the extreme process")
        chain = extreme_chain(_parse_kappa(args.kappa), q)
        return chain, {"kappa": args.kappa, "q": args.q}
    if process == "theta":
        if args.theta is None:
            raise ValueError("--theta is required for the theta process")
        chain = theta_chain(ThetaParams(_parse_theta(args.theta), q))
        return chain, {"theta": args.theta, "q": args.q}
    if args.a is None or args.b is None:
        raise ValueError("--a and --b are required for the urn process")
    chain = polya_chain(PolyaParams(as_fraction(args.a), as_fraction(args.b), q))
    return chain, {"a": args.a, "b": args.b, "q": args.q}


# ------------------------------------------------------------------- table


def _build_array(args) -> VArray:
    q = QParam(args.q)
    if args.law != "mixture":
        return _chain(args.law, args, q)[0].triangle(args.depth)
    if not args.measure_file:
        raise ValueError("--measure-file is required for a mixture")
    measure = _read(args.measure_file, "measure", BoundaryMeasure.from_jsonable)
    if measure.q != q:
        raise ValueError("--q %s does not match the measure file's q = %s" % (q, measure.q))
    return mixture_array(measure, args.depth)


def _triangle_rows(kind: str, args):
    if kind == "d":
        q = QParam(args.q)
        return (
            {"q": format_rational(q.q), "depth": args.depth},
            (gaussian_row(n, q) for n in range(args.depth + 1)),
        )
    array = _build_array(args)
    if kind == "tilde":
        array = tilde_of_v(array)
    return ({"q": str(array.q), "depth": array.depth}, array.rows)


def _cmd_table(args) -> int:
    if args.kind == "v" and args.format == "json":
        # emit the triangle file format so the output feeds straight
        # back into recover / check / flip
        _emit(args, _dumps(_build_array(args).to_jsonable()))
        return 0
    header, rows = _triangle_rows(args.kind, args)
    if args.format == "json":
        payload = dict(header)
        payload["law"] = args.law if args.kind != "d" else None
        payload["kind"] = args.kind
        payload["rows"] = [list(map(format_rational, row)) for row in rows]
        _emit(args, _dumps(payload))
    elif args.format == "csv":
        lines = ["n,k,value"]
        for n, row in enumerate(rows):
            for k, v in enumerate(row):
                lines.append("%d,%d,%s" % (n, k, format_rational(v)))
        _emit(args, "\n".join(lines))
    else:
        lines = []
        for n, row in enumerate(rows):
            lines.append("%2d | %s" % (n, "  ".join(map(format_rational, row))))
        _emit(args, "\n".join(lines))
    return 0


# ------------------------------------------------------------------ sample


def _cmd_sample(args) -> int:
    if args.mode == "runs" and args.process != "extreme":
        raise ValueError("--mode runs is for the extreme process only")
    chain, params = _chain(args.process, args, QParam(args.q))
    if args.process == "extreme":
        params["mode"] = args.mode
    if args.mode == "runs":
        sampler = extreme_runs_sampler(_parse_kappa(args.kappa), chain.q)
    else:
        sampler = chain.sampler()
    if args.trials is not None:
        counts = empirical_level_histogram(sampler, args.n, args.trials, args.seed)
        expected = chain.level(args.n)
        lines = ["k,count,frequency,expected"]
        for k in range(args.n + 1):
            c = counts.get(k, 0)
            lines.append(
                "%d,%d,%.10g,%.10g"
                % (k, c, c / args.trials, float(expected[k]))
            )
        _emit(args, "\n".join(lines))
        return 0
    word = sampler(args.n, SplitMix64(args.seed))
    payload = {
        "process": args.process,
        "params": params,
        "n": args.n,
        "seed": args.seed,
        "word": str(word),
        "ones": word.ones,
    }
    _emit(args, _dumps(payload))
    return 0


# ----------------------------------------------------------------- recover


def _cmd_recover(args) -> int:
    triangle = _read(args.input, "triangle", read_triangle)
    measure = recover_measure(triangle, nu=args.nu, kmax=args.kmax)
    payload = {"nu": args.nu, "kmax": args.kmax, "measure": measure.to_jsonable()}
    _emit(args, _dumps(payload))
    return 0


# ------------------------------------------------------------------- check


def _cmd_check(args) -> int:
    if args.kind == "recursion":
        result = check_recursion(_read(args.input, "triangle", read_triangle))
        witness = None if result.ok else {"n": result.witness[0], "k": result.witness[1]}
        payload = {"kind": args.kind, "ok": result.ok, "witness": witness}
        _emit(args, _dumps(payload))
        return 0 if result.ok else 4
    if not args.q:
        raise ValueError("--q is required for --kind %s" % args.kind)
    q = QParam(args.q)
    if args.kind == "exchangeable":
        law = _read(args.input, "law", FiniteLaw.from_jsonable)
        result = check_q_exchangeable(law, q)
        witness = None
        if not result.ok:
            word, i = result.witness
            witness = {"word": str(word), "position": i}
    else:
        moments = _read(args.input, "moments", lambda data: MomentSequence(data["moments"]))
        result = is_q_completely_monotone(moments, q, depth=args.depth)
        witness = None
        if not result.ok:
            iterate, index = result.witness
            witness = {"iterate": iterate, "index": index}
    payload = {"kind": args.kind, "ok": result.ok, "witness": witness}
    _emit(args, _dumps(payload))
    return 0 if result.ok else 4


# --------------------------------------------------------------- grassmann


def _cmd_grassmann(args) -> int:
    modulus = None
    if args.modulus is not None:
        modulus = tuple(int(c) for c in args.modulus.split(","))
    field = make_field(args.p, args.m, modulus)
    if args.enumerate:
        n, k = args.enumerate
        bases = _Grid(s.basis for s in enumerate_grassmannian(field, n, k))
        payload = {
            "field": field.to_jsonable(),
            "n": n,
            "k": k,
            "count": len(bases),
            "subspaces": bases,
        }
        _emit(args, _dumps(payload))
        return 0
    law = extreme_chain(_parse_kappa(args.grow), growth_q_param(field))
    chain = sample_growth(law, field, args.nmax, args.seed)
    payload = {
        "field": field.to_jsonable(),
        "kappa": args.grow,
        "seed": args.seed,
        "word": str(codim_word(chain)),
        "chain": [{"n": s.ambient_dim, "dim": s.dim, "basis": _Grid(s.basis)}
                  for s in chain],
    }
    _emit(args, _dumps(payload))
    return 0


# -------------------------------------------------------------------- flip


def _cmd_flip(args) -> int:
    if args.word is not None:
        if not args.q:
            raise ValueError("--q is required when flipping a word")
        word, q_new = flip_reduction(BinaryWord.from_string(args.word), QParam(args.q))
        payload = {"word": str(word), "q": format_rational(q_new.q)}
        _emit(args, _dumps(payload))
        return 0
    flipped, q_new = flip_reduction(
        _read(args.input, "triangle", read_triangle),
        QParam(args.q) if args.q else None,
    )
    payload = flipped.to_jsonable()
    _emit(args, _dumps(payload))
    return 0


# ------------------------------------------------------------------ parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpascal",
        description="q-deformed exchangeability: triangles, samplers, boundaries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p):
        p.add_argument("-o", "--output", help="write to this file instead of stdout")

    p = sub.add_parser("table", help="print a law triangle")
    p.add_argument("--law", choices=LAWS, default="extreme")
    p.add_argument("--kind", choices=("v", "tilde", "d"), default="v")
    p.add_argument("--q", required=True, help="rational, e.g. 1/2")
    p.add_argument("--depth", type=_count, required=True)
    p.add_argument("--kappa", help="atom index, or 'inf'")
    p.add_argument("--theta")
    p.add_argument("--a")
    p.add_argument("--b")
    p.add_argument("--measure-file")
    p.add_argument("--format", choices=("json", "csv", "text"), default="json")
    add_output(p)
    p.set_defaults(handler=_cmd_table)

    p = sub.add_parser("sample", help="draw words from a process")
    p.add_argument("--process", choices=PROCESSES, required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--n", type=_count, required=True)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--kappa")
    p.add_argument("--theta")
    p.add_argument("--a")
    p.add_argument("--b")
    p.add_argument("--mode", choices=MODES, default="forward")
    p.add_argument("--trials", type=_trials, help="emit a level histogram (CSV)")
    add_output(p)
    p.set_defaults(handler=_cmd_sample)

    p = sub.add_parser("recover", help="mixing measure from a deep triangle")
    p.add_argument("--input", required=True, help="triangle JSON file")
    p.add_argument("--nu", type=_count, default=40)
    p.add_argument("--kmax", type=_count, default=12)
    add_output(p)
    p.set_defaults(handler=_cmd_recover)

    p = sub.add_parser("check", help="validate structural properties")
    p.add_argument("--kind", choices=("recursion", "exchangeable", "monotone"), required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--q")
    p.add_argument("--depth", type=_count)
    add_output(p)
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("grassmann", help="subspace enumeration and growth")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--modulus", help="comma-separated coefficients, low degree first")
    task = p.add_mutually_exclusive_group(required=True)
    task.add_argument("--enumerate", nargs=2, type=_count, metavar=("N", "K"))
    task.add_argument("--grow", help="kappa, or 'inf'")
    p.add_argument("--nmax", type=_count, default=8)
    p.add_argument("--seed", type=_seed, default=0)
    add_output(p)
    p.set_defaults(handler=_cmd_grassmann)

    p = sub.add_parser("flip", help="map the q > 1 regime to q < 1")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--word")
    source.add_argument("--input", help="triangle JSON file")
    p.add_argument("--q", help="required with --word (> 1); with --input, the file's q")
    add_output(p)
    p.set_defaults(handler=_cmd_flip)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reuses: built on the first call, not at import."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()  # so that a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader has gone: end without a message, with stdout on the
        # null device, so that the exit flush of its buffer succeeds
        try:
            fd = sys.stdout.fileno()
        except (OSError, ValueError):  # not a file: nothing is flushed at exit
            return 141
        os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
        return 141
    except RegimeError as exc:
        print("regime error: %s" % exc, file=sys.stderr)
        return 3
    except InvalidArrayError as exc:
        print("invalid input: %s" % exc, file=sys.stderr)
        return 4
    except FieldConstructionError as exc:
        print("field error: %s" % exc, file=sys.stderr)
        return 5
    except TooLargeError as exc:
        print("guard: %s" % exc, file=sys.stderr)
        return 6
    except (ValueError, KeyError, OSError, QPascalError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
