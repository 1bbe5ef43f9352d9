"""Seeded operation streams for the three benchmark workloads.

An *op* is one ``qpascal.cli.main(argv)`` call.  A workload is an
endless stream of *blocks*; block ``b`` of seed ``s`` is generated from
``random.Random("<workload>:<s>:<b>")`` alone, so the same seed always
yields the same ops, and any block can be rebuilt without the ones
before it.  Every block holds the same op slots with the same nominal
sizes; the seed picks parameter values, small size jitter and (for
``triangles``) which triangle and cell are corrupted.
The q of each slot and the law of each extra table op rotate with the
block index, not with the seed.  That keeps the cost of block ``b``
nearly independent of the seed, so runs with different seeds measure
the same mix.

Ops carry what the benchmark needs to check them (``checks.py``) and
the amount of work they stand for (``units``: triangle cells, sampled
words or emitted subspaces).  Input files live in a per-run work
directory; read-back ops prepare theirs from the parsed output of the
op that made the triangle, outside the timed call.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

Q_POOL_TRIANGLES = ("1/2", "2/3", "9/10")
Q_POOL_SAMPLING = ("1/2", "2/3", "9/10", "19/20", "99/100")
LAWS = ("extreme", "mixture", "theta", "polya")
FORMATS = ("json", "csv", "text")


@dataclass
class Op:
    """One cli call plus what is needed to run and check it."""

    kind: str  # table | check | recover | monotone | flip | corrupt | sample | grow | enumerate
    argv: list[str]
    expect: dict = field(default_factory=dict)
    units: int = 0
    key: tuple | None = None  # (q, depth) for triangle ops
    out: Path | None = None  # -o target, when the op writes a file
    prepare: Callable[[dict], None] | None = None  # writes inputs from ctx

    def describe(self) -> str:
        return " ".join(self.argv)


def cells(depth: int) -> int:
    return (depth + 1) * (depth + 2) // 2


def _rng(workload: str, seed: int, block: int) -> random.Random:
    return random.Random("%s:%d:%d" % (workload, seed, block))


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj), encoding="utf-8")


# --------------------------------------------------------------- triangles

# nominal depth of each law's v-triangle and of the extra table ops;
# the urn triangle costs about n^4, so it sits lower in the 24-48 band
DEPTH = {"extreme": 44, "mixture": 36, "theta": 44, "polya": 30}


def _law_args(law: str, rnd: random.Random, q: str, tag: str, workdir: Path) -> list[str]:
    """Law parameters for a table op; a mixture also gets its measure file."""
    if law == "extreme":
        return ["--kappa", str(rnd.randint(1, 8))]
    if law == "theta":
        return ["--theta", rnd.choice(("1/3", "1/2", "1", "3/2", "2", "3"))]
    if law == "polya":
        return ["--a", str(rnd.randint(1, 4)), "--b", str(rnd.randint(1, 4))]
    kappas = sorted(rnd.sample(range(11), 3))
    weights = [rnd.randint(1, 6) for _ in kappas]
    total = sum(weights)
    measure = {
        "q": q,
        "atoms": [
            {"kappa": k, "mass": str(Fraction(w, total))}
            for k, w in zip(kappas, weights)
        ],
        "zero_mass": "0",
    }
    path = workdir / ("%s-measure.json" % tag)
    _write_json(path, measure)
    return ["--measure-file", str(path)]


def _moments_file(src: str, dst: Path):
    def prepare(ctx: dict) -> None:
        q, rows = ctx[src]
        _write_json(dst, {"moments": [str(row[0]) for row in rows]})

    return prepare


def _superunit_file(src: str, dst: Path):
    """Write the q' = 1/q triangle whose flip is the original one:
    V[n][j] = v[n][n-j] * q^(j(n-j))."""

    def prepare(ctx: dict) -> None:
        q, rows = ctx[src]
        big = [
            [str(row[n - j] * q ** (j * (n - j))) for j in range(n + 1)]
            for n, row in enumerate(rows)
        ]
        _write_json(dst, {"q": str(1 / q), "depth": len(rows) - 1, "v": big})

    return prepare


def _corrupt_file(src: str, dst: Path, n: int, k: int, delta: Fraction):
    def prepare(ctx: dict) -> None:
        q, rows = ctx[src]
        bad = [[str(x) for x in row] for row in rows]
        bad[n][k] = str(rows[n][k] + delta)
        _write_json(dst, {"q": str(q), "depth": len(rows) - 1, "v": bad})

    return prepare


def _triangle_ops(law, q, depth, rnd, tag, workdir, corrupt) -> list[Op]:
    """A v-JSON table op and the ops that read its file back."""
    args = _law_args(law, rnd, q, tag, workdir)
    tri = workdir / ("%s-v.json" % tag)
    key = (q, depth)
    size = cells(depth)
    ops = [
        Op(
            "table",
            ["table", "--law", law, "--q", q, "--depth", str(depth), *args,
             "--kind", "v", "--format", "json", "-o", str(tri)],
            expect={"tri": tag, "q": q, "depth": depth, "kind": "v", "format": "json"},
            units=size, key=key, out=tri,
        ),
        Op("check", ["check", "--kind", "recursion", "--input", str(tri)],
           units=size, key=key),
    ]
    nu = depth - rnd.randint(0, 4)
    kmax = min(rnd.randint(4, 12), nu)
    ops.append(
        Op("recover", ["recover", "--input", str(tri), "--nu", str(nu), "--kmax", str(kmax)],
           expect={"q": q, "kmax": kmax}, units=size, key=key)
    )
    mom = workdir / ("%s-moments.json" % tag)
    ops.append(
        Op("monotone", ["check", "--kind", "monotone", "--input", str(mom), "--q", q],
           units=size, key=key, prepare=_moments_file(tag, mom))
    )
    sup = workdir / ("%s-super.json" % tag)
    ops.append(
        Op("flip", ["flip", "--input", str(sup)], expect={"tri": tag},
           units=size, key=key, prepare=_superunit_file(tag, sup))
    )
    if corrupt:
        n = rnd.randint(1, depth)
        k = rnd.randint(0, n)
        delta = Fraction(1, rnd.choice((3, 7, 1024, 10**9)))
        bad = workdir / ("%s-bad.json" % tag)
        ops.append(
            Op("corrupt", ["check", "--kind", "recursion", "--input", str(bad)],
               expect={"n": n, "k": k, "depth": depth}, units=size, key=key,
               prepare=_corrupt_file(tag, bad, n, k, delta))
        )
    return ops


def triangles_block(seed: int, block: int, workdir: Path) -> list[Op]:
    """Four law triangles with read-backs (one corrupted) and three
    table ops in the other kinds and formats."""
    rnd = _rng("triangles", seed, block)
    bad = rnd.randrange(len(LAWS))
    ops: list[Op] = []
    for i, law in enumerate(LAWS):
        q = Q_POOL_TRIANGLES[(i + block) % 3]
        depth = DEPTH[law] + rnd.randint(-2, 2)
        tag = "b%d-%s" % (block, law)
        ops += _triangle_ops(law, q, depth, rnd, tag, workdir, corrupt=i == bad)
    # kinds and formats other than v/json; the laws rotate with the block
    extras = [("tilde", FORMATS[block % 3]), ("v", ("csv", "text")[block % 2]),
              ("d", FORMATS[(block + 1) % 3])]
    for j, (kind, fmt) in enumerate(extras):
        law = LAWS[(block + j) % 4]
        q = Q_POOL_TRIANGLES[(block + j) % 3]
        depth = DEPTH[law] + rnd.randint(-2, 2)
        tag = "b%d-x%d" % (block, j)
        args = [] if kind == "d" else _law_args(law, rnd, q, tag, workdir)
        ops.append(
            Op("table",
               ["table", "--law", law, "--q", q, "--depth", str(depth), *args,
                "--kind", kind, "--format", fmt],
               expect={"q": q, "depth": depth, "kind": kind, "format": fmt},
               units=cells(depth), key=(q, depth))
        )
    return ops


def triangles_warmup(workdir: Path) -> list[Op]:
    """One op of each command kind, with a q and depth the stream never uses."""
    rnd = random.Random("triangles:warmup")
    ops = _triangle_ops("extreme", "3/4", 8, rnd, "warm", workdir, corrupt=True)
    ops.append(
        Op("table", ["table", "--law", "theta", "--theta", "1", "--q", "3/4",
                     "--depth", "8", "--kind", "tilde", "--format", "csv"],
           expect={"q": "3/4", "depth": 8, "kind": "tilde", "format": "csv"},
           units=cells(8))
    )
    return ops


# ---------------------------------------------------------------- sampling

# (sampler, trials on short words): trials are set so each op takes
# roughly the same time; the theta sampler is the slowest per word, and
# the exact urn's depth-n triangle leaves it fewer trials
SAMPLERS = (
    ("extreme-forward", 1200),
    ("extreme-runs", 900),
    ("theta", 160),
    ("polya-exact", 350),
    ("polya-float", 320),
)


def _sampler_args(name: str, rnd: random.Random) -> list[str]:
    if name.startswith("extreme"):
        return ["--process", "extreme", "--kappa", str(rnd.randint(2, 8)),
                "--mode", name.split("-")[1]]
    if name == "theta":
        return ["--process", "theta", "--theta", rnd.choice(("1/2", "1", "3/2", "2"))]
    if name == "polya-exact":
        return ["--process", "polya", "--a", str(rnd.randint(1, 4)), "--b", str(rnd.randint(1, 4))]
    return ["--process", "polya", "--a", rnd.choice(("1/2", "3/2", "5/2")),
            "--b", rnd.choice(("1/2", "3/2", "5/2"))]


def _sample_op(name, trials, q, n, rnd) -> Op:
    args = _sampler_args(name, rnd)
    seed = rnd.getrandbits(32)
    expect = {"n": n, "trials": trials}
    if name.startswith("extreme"):
        expect["kappa"] = int(args[3])
    return Op("sample",
              ["sample", *args, "--q", q, "--n", str(n), "--seed", str(seed),
               "--trials", str(trials)],
              expect=expect, units=trials)


def sampling_block(seed: int, block: int, workdir: Path) -> list[Op]:
    """Each sampler twice, once on short and once on long words."""
    rnd = _rng("sampling", seed, block)
    ops = []
    for i, (name, trials) in enumerate(SAMPLERS):
        for j, n_base in enumerate((14, 22)):
            q = Q_POOL_SAMPLING[(2 * i + j + block) % len(Q_POOL_SAMPLING)]
            n = n_base + rnd.randint(-2, 2)
            ops.append(_sample_op(name, trials * 18 // (n_base + 4), q, n, rnd))
    rnd.shuffle(ops)
    return ops


def sampling_warmup(workdir: Path) -> list[Op]:
    rnd = random.Random("sampling:warmup")
    return [_sample_op("extreme-forward", 20, "3/5", 6, rnd)]


# --------------------------------------------------------------- subspaces

# (p, m, two nominal nmax values): a growth chain costs about nmax^4
# field operations, more per operation when m > 1.  A chain stalls about
# kappa times, so kappa stays small next to nmax to keep its cost steady.
# The three longest chains cost about the same, so that op_p90_ms falls
# inside one group of ops rather than in the gap above it
GROW = ((2, 1, (28, 48)), (3, 1, (24, 40)), (2, 2, (20, 26)), (2, 4, (16, 24)))
# (p, N, K choices): K and N - K give the same count, so the seed's
# choice does not change the block's size
ENUMERATE = ((2, 6, (2, 4)), (2, 5, (2, 3)), (3, 5, (2, 3)), (3, 4, (1, 3)))


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of GF(q)^n (integer arithmetic)."""
    if not 0 <= k <= n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def _grow_op(p, m, nmax, kappa, seed) -> Op:
    return Op("grow",
              ["grassmann", "--p", str(p), "--m", str(m), "--grow", str(kappa),
               "--nmax", str(nmax), "--seed", str(seed)],
              expect={"size": p**m, "nmax": nmax},
              units=nmax + 1)


def _enumerate_op(p, n, k) -> Op:
    count = gaussian_binomial(n, k, p)
    return Op("enumerate", ["grassmann", "--p", str(p), "--enumerate", str(n), str(k)],
              expect={"size": p, "n": n, "k": k, "count": count}, units=count)


def subspaces_block(seed: int, block: int, workdir: Path) -> list[Op]:
    """Two growth chains per field and four Grassmannian enumerations."""
    rnd = _rng("subspaces", seed, block)
    ops = []
    for p, m, sizes in GROW:
        for nmax in sizes:
            ops.append(_grow_op(p, m, nmax + rnd.randint(-2, 2), rnd.randint(2, 6),
                                rnd.getrandbits(32)))
    for p, n, ks in ENUMERATE:
        ops.append(_enumerate_op(p, n, rnd.choice(ks)))
    rnd.shuffle(ops)
    return ops


def subspaces_warmup(workdir: Path) -> list[Op]:
    return [_grow_op(5, 1, 5, 2, 1), _enumerate_op(5, 3, 1)]


WORKLOADS = {
    "triangles": (triangles_block, triangles_warmup),
    "sampling": (sampling_block, sampling_warmup),
    "subspaces": (subspaces_block, subspaces_warmup),
}
