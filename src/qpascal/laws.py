"""Triangular law arrays for q-exchangeable binary sequences.

A q-exchangeable law on infinite 0/1 sequences is determined by the
triangle v[n][k] = P(the word 1^k 0^(n-k)); any other word w of length
n with k ones then has probability q^inversions(w) * v[n][k].  VArray
holds that triangle ("v" in the wire format).  TildeArray holds the
level distributions tv[n][k] = d[n][k] * v[n][k], where d is the
Gaussian binomial (the path count of the weighted lattice); its rows
are genuine probability vectors.

The defining consistency condition on v is the backward recursion

    v[n][k] = v[n+1][k] + q^(n-k) * v[n+1][k+1],        v[0][0] = 1,

checked exactly by :func:`check_recursion`.  A check needs only signs
and equalities, so it runs on integers: each row is scaled by the lcm of
its denominators, and no cell is normalised by a gcd.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, NamedTuple

from .errors import InvalidArrayError
from .exactq import (
    QParam,
    _over_lcm,
    _powers,
    as_count,
    as_fraction,
    format_rational,
    gaussian_rows,
)
from .pascal_graph import BinaryWord
from .rng import SplitMix64, bernoulli_threshold
from . import guards

MAX_WORD_LENGTH = 20  # default cap for whole-law enumerations

# draws a word of n letters from a stream; its ``ones`` attribute draws
# only the number of ones, from the same draws (see _word_sampler)
Sampler = Callable[[int, SplitMix64], BinaryWord]


def _coerce_rows(rows) -> tuple[tuple[Fraction, ...], ...]:
    if not isinstance(rows, (list, tuple)) or not all(
        isinstance(row, (list, tuple)) for row in rows
    ):
        raise TypeError("a triangle is a list of rows, each a list of cells")
    out = tuple(tuple(as_fraction(x) for x in row) for row in rows)
    if not out:
        raise InvalidArrayError("array needs at least the root row")
    for n, row in enumerate(out):
        if len(row) != n + 1:
            raise InvalidArrayError(
                "row %d must have %d entries, got %d" % (n, n + 1, len(row))
            )
    return out


def _to_wire(array, key: str) -> dict:
    """The triangle file format: q, depth and the rows under ``key``."""
    return {
        "q": str(array.q),
        "depth": array.depth,
        key: [[format_rational(x) for x in row] for row in array.rows],
    }


def _from_wire(cls, obj: Mapping, key: str):
    arr = cls(QParam(obj["q"]), obj[key])
    if "depth" in obj and as_count(obj["depth"]) != arr.depth:
        raise InvalidArrayError(
            "declared depth %s does not match %d rows" % (obj["depth"], arr.depth + 1)
        )
    return arr


@dataclass(frozen=True)
class VArray:
    """Canonical-word probability triangle of a q-exchangeable law."""

    q: QParam
    rows: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", _coerce_rows(self.rows))

    @property
    def depth(self) -> int:
        return len(self.rows) - 1

    def to_jsonable(self) -> dict:
        return _to_wire(self, "v")

    @classmethod
    def from_jsonable(cls, obj: Mapping) -> "VArray":
        return _from_wire(cls, obj, "v")


@dataclass(frozen=True)
class TildeArray:
    """Level distributions: row n is the law of the height after n steps."""

    q: QParam
    rows: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        rows = _coerce_rows(self.rows)
        object.__setattr__(self, "rows", rows)
        for n, row in enumerate(rows):
            if any(x < 0 for x in row):
                raise InvalidArrayError("negative mass in level %d" % n)
            if sum(row) != 1:
                raise InvalidArrayError(
                    "level %d sums to %s, not 1" % (n, format_rational(sum(row)))
                )

    @property
    def depth(self) -> int:
        return len(self.rows) - 1

    def to_jsonable(self) -> dict:
        return _to_wire(self, "tv")

    @classmethod
    def from_jsonable(cls, obj: Mapping) -> "TildeArray":
        return _from_wire(cls, obj, "tv")


class Check(NamedTuple):
    """A criterion's verdict, and where it fails the first witness."""

    ok: bool
    witness: tuple | None


def check_recursion(array: VArray) -> Check:
    """Exact check of v[0][0] = 1, non-negativity, and the recursion; the
    witness is the first offending (n, k).

    Integers only: with q = a/b in lowest terms, row n is N_n / D_n for
    D_n the lcm of its denominators, and with g = gcd(D_n, D_{n+1}) and
    j = n - k the recursion at (n, k) reads
    N_n[k] (D_{n+1}/g) b^j = (N_{n+1}[k] b^j + a^j N_{n+1}[k+1]) (D_n/g).
    """
    rows = array.rows
    if rows[0][0] != 1:
        return Check(False, (0, 0))
    depth = array.depth
    a, b = array.q.q.numerator, array.q.q.denominator
    a_pow, b_pow = _powers(a, depth), _powers(b, depth)
    lcm, row = _over_lcm(rows[0])
    for n in range(depth):
        lcm_next, below = _over_lcm(rows[n + 1])
        g = math.gcd(lcm, lcm_next)
        left, right = lcm_next // g, lcm // g
        bad = next(
            (
                k
                for k, x in enumerate(row)
                if x < 0
                or x * left * b_pow[n - k]
                != (below[k] * b_pow[n - k] + a_pow[n - k] * below[k + 1]) * right
            ),
            None,
        )
        if bad is not None:
            return Check(False, (n, bad))
        lcm, row = lcm_next, below
    bad = next((k for k, x in enumerate(row) if x < 0), None)
    return Check(True, None) if bad is None else Check(False, (depth, bad))


def tilde_of_v(array: VArray) -> TildeArray:
    rows = tuple(
        tuple(d * x for d, x in zip(d_row, row))
        for d_row, row in zip(gaussian_rows(array.depth, array.q), array.rows)
    )
    return TildeArray(array.q, rows)


@dataclass(frozen=True)
class FiniteLaw:
    """A probability law on 0/1 words of one fixed length."""

    n: int
    probs: dict

    def __post_init__(self) -> None:
        if self.n < 0:
            raise InvalidArrayError("law length %d is negative" % self.n)
        _check_word_count(self.n)
        fixed: dict[BinaryWord, Fraction] = {}
        for word, p in self.probs.items():
            if not isinstance(word, BinaryWord):
                word = BinaryWord.from_string(str(word))
            if len(word) != self.n:
                raise InvalidArrayError(
                    "word %s has length %d, expected %d" % (word, len(word), self.n)
                )
            fixed[word] = as_fraction(p)
        for word, p in fixed.items():
            if p < 0:
                raise InvalidArrayError("negative probability at %s" % word)
        if sum(fixed.values()) != 1:
            raise InvalidArrayError("probabilities must sum to 1 exactly")
        object.__setattr__(self, "probs", fixed)

    def prob(self, word: BinaryWord) -> Fraction:
        return self.probs.get(word, Fraction(0))

    def to_jsonable(self) -> dict:
        items = sorted(self.probs.items(), key=lambda kv: str(kv[0]))
        return {
            "n": self.n,
            "probs": {str(w): format_rational(p) for w, p in items},
        }

    @classmethod
    def from_jsonable(cls, obj: Mapping) -> "FiniteLaw":
        return cls(as_count(obj["n"]), dict(obj["probs"]))


def _check_word_count(n: int) -> None:
    """The word-law guard on the 2**n words of length n."""
    guards.check_count((2**i for i in range(n + 1)), 2**MAX_WORD_LENGTH, "word law")


class ForwardChain:
    """A process given by its forward probabilities on the Pascal lattice.

    After n letters with k ones, the next letter is a one with
    probability ``p1(n, k)``, the ``p_one`` given.  That single function
    yields the v triangle, the level laws, the word laws and a sampler;
    every pass calls it, so pass a memoised p_one.  Exact chains return
    Fractions; a float p_one (the urn's float mode) gives float levels.
    """

    def __init__(self, q: QParam, p_one: Callable[[int, int], Fraction]) -> None:
        self.q = q
        self.p1 = p_one
        self._thresholds: list[list] = []  # sampler: bernoulli_threshold per (n, k)

    def triangle(self, depth: int) -> VArray:
        """v[n+1][k] = v[n][k] (1 - p1(n, k)) and v[n+1][n+1] = v[n][n] p1(n, n):
        only the canonical words 1^k 0^(n-k) are extended."""
        p1 = self.p1
        row = [Fraction(1)]
        rows = [row]
        for n in range(depth):
            row = [v * (1 - p1(n, k)) for k, v in enumerate(row)] + [row[n] * p1(n, n)]
            rows.append(row)
        return VArray(self.q, rows)

    def level(self, n: int) -> list:
        """Law of the number of ones after n letters, by a forward pass."""
        p1 = self.p1
        level = [Fraction(1)]
        for m in range(n):
            nxt = [Fraction(0)] * (m + 2)
            for k, mass in enumerate(level):
                if mass:
                    p = p1(m, k)
                    nxt[k] += mass * (1 - p)
                    nxt[k + 1] += mass * p
            level = nxt
        return level

    def law(self, n: int) -> FiniteLaw:
        """Exact law of the first n letters, by walking the decision tree."""
        _check_word_count(n)
        p1 = self.p1
        paths = [((), 0, Fraction(1))]
        for m in range(n):
            nxt = []
            for bits, k, p in paths:
                p_one = p1(m, k)
                nxt.append((bits + (0,), k, p * (1 - p_one)))
                nxt.append((bits + (1,), k + 1, p * p_one))
            paths = nxt
        return FiniteLaw(n, {BinaryWord(bits): p for bits, _, p in paths})

    def sampler(self) -> Sampler:
        """Draws one word; each letter consumes one draw j and is a one
        iff j < bernoulli_threshold(p1(n, k)).  Its ``ones`` counter walks
        the same letters without building the word."""
        thresholds = self._thresholds
        p1 = self.p1

        def walk(n: int, rng: SplitMix64, ones: list | None = None) -> int:
            while len(thresholds) < n:
                thresholds.append([None] * (len(thresholds) + 1))
            draw = rng.next_uint64
            k = 0
            for m in range(n):
                row = thresholds[m]
                t = row[k]
                if t is None:
                    t = row[k] = bernoulli_threshold(Fraction(p1(m, k)))
                if draw() < t:
                    k += 1
                    if ones is not None:
                        ones.append(m)
            return k

        return _word_sampler(walk)


def _word_sampler(walk: Callable[..., int]) -> Sampler:
    """The sampler of a walk.

    ``walk(n, rng, ones=None)`` draws the letters of an n-letter word from
    ``rng`` and returns its number of ones; given a list, it also appends
    the position of each one.  The sampler builds the word from those
    positions, and its ``ones`` attribute is the walk itself, which draws
    the same letters from the same draws but builds no word.
    """

    def draw(n: int, rng: SplitMix64) -> BinaryWord:
        ones: list[int] = []
        walk(n, rng, ones)
        bits = [0] * n
        for m in ones:
            bits[m] = 1
        return BinaryWord(tuple(bits))

    draw.ones = walk
    return draw


def check_q_exchangeable(law: FiniteLaw, q: QParam) -> Check:
    """Check P(word with positions i, i+1 swapped) = q^(b_i - b_{i+1}) P(word).

    Scans words in lexicographic order; the witness is the first violation,
    as (word, swap position).
    """
    qq = q.q
    for word in sorted(law.probs, key=str):
        p = law.probs[word]
        for i in range(law.n - 1):
            bi, bj = word.bits[i], word.bits[i + 1]
            if bi == bj:
                continue
            swapped = word.swap_adjacent(i)
            if law.prob(swapped) != qq ** (bi - bj) * p:
                return Check(False, (word, i))
    return Check(True, None)
