"""Triangular law arrays for q-exchangeable binary sequences.

A q-exchangeable law on infinite 0/1 sequences is determined by the
triangle v[n][k] = P(the word 1^k 0^(n-k)); any other word w of length
n with k ones then has probability q^inversions(w) * v[n][k].  VArray
holds that triangle, and its file is {"q", "depth", "v"}.  TildeArray
holds the level distributions tv[n][k] = d[n][k] * v[n][k], where d is
the Gaussian binomial (the path count of the weighted lattice); its rows
are genuine probability vectors, and it has no file of its own.

The defining consistency condition on v is the backward recursion

    v[n][k] = v[n+1][k] + q^(n-k) * v[n+1][k+1],        v[0][0] = 1,

checked exactly by :func:`check_recursion`.  A check needs only signs
and equalities, so it runs on integers: each row is scaled by the lcm of
its denominators, and no cell is normalised by a gcd.  The builders
multiply reduced integer pairs (:func:`_times`) and make each cell once,
already reduced.  The triangle file format has one reader,
:func:`read_triangle`, which reads each row with
:func:`~qpascal.exactq.as_pairs` and keeps each cell as the integer pair
it was written in (a :class:`PairTriangle`); the check, the recovery and
the flip each have one body over such pairs, and take a VArray as the
pairs of its cells.  A VArray's file writes each cell with
:func:`~qpascal.exactq.format_rational`, from its reduced pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, NamedTuple

from .errors import InvalidArrayError
from .exactq import (
    QParam,
    _coprime,
    _over_lcm,
    _powers,
    as_count,
    as_fraction,
    as_pairs,
    format_rational,
    gaussian_row,
)
from .pascal_graph import BinaryWord
from .rng import SplitMix64, bernoulli_threshold
from . import guards

MAX_WORD_LENGTH = 20  # default cap for whole-law enumerations

# draws a word of n letters from a stream; its ``ones`` attribute draws
# only the number of ones, from the same draws, and its ``max_draws(n)``
# bounds the draws a word takes (see _word_sampler)
Sampler = Callable[[int, SplitMix64], BinaryWord]

_ZERO = Fraction(0)  # every zero cell a builder makes


def _times(num: int, den: int, fn: int, fd: int) -> tuple[int, int]:
    """(num/den)(fn/fd) as a reduced pair, zero as (0, 1), for reduced pairs
    over positive denominators: Fraction's rule, a gcd across each way."""
    if not (num and fn):
        return 0, 1
    g1 = math.gcd(num, fd)
    g2 = math.gcd(fn, den)
    return num // g1 * (fn // g2), den // g2 * (fd // g1)


def _rows(rows, read=tuple) -> tuple[tuple, ...]:
    """A triangle's rows as the tuples that ``read`` makes of them: a list
    of rows, each a list of cells, and n + 1 cells in row n."""
    if not isinstance(rows, (list, tuple)) or not all(
        isinstance(row, (list, tuple)) for row in rows
    ):
        raise TypeError("a triangle is a list of rows, each a list of cells")
    out = tuple(map(read, rows))
    if not out:
        raise InvalidArrayError("array needs at least the root row")
    for n, row in enumerate(out):
        if len(row) != n + 1:
            raise InvalidArrayError(
                "row %d must have %d entries, got %d" % (n, n + 1, len(row))
            )
    return out


class PairTriangle(NamedTuple):
    """A triangle as its file is written: q, and rows of integer pairs
    (numerator, denominator > 0), reduced or not."""

    q: QParam
    rows: tuple[tuple[tuple[int, int], ...], ...]


def read_triangle(obj: Mapping) -> PairTriangle:
    """The triangle file format's one reader: each row a tuple of integer
    pairs from :func:`~qpascal.exactq.as_pairs`, with no gcd.  It reads q,
    then the rows under "v" (their shape, every cell, their lengths),
    then the declared depth."""
    q = QParam(obj["q"])
    rows = _rows(obj["v"], as_pairs)
    if "depth" in obj and as_count(obj["depth"]) != len(rows) - 1:
        raise InvalidArrayError(
            "declared depth %s does not match %d rows" % (obj["depth"], len(rows))
        )
    return PairTriangle(q, rows)


def _pairs(array) -> PairTriangle:
    """A VArray's cells as integer pairs; a PairTriangle as it is."""
    if isinstance(array, PairTriangle):
        return array
    rows = tuple(tuple((x.numerator, x.denominator) for x in row) for row in array.rows)
    return PairTriangle(array.q, rows)


@dataclass(frozen=True)
class VArray:
    """Canonical-word probability triangle of a q-exchangeable law: the
    Fraction rows its builder made, of which only the shape is checked."""

    q: QParam
    rows: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", _rows(self.rows))

    @property
    def depth(self) -> int:
        return len(self.rows) - 1

    def to_jsonable(self) -> dict:
        """The triangle file format: q, depth and the rows under "v"."""
        return {
            "q": str(self.q),
            "depth": self.depth,
            "v": [list(map(format_rational, row)) for row in self.rows],
        }


@dataclass(frozen=True)
class TildeArray:
    """Level distributions: row n is the law of the height after n steps.
    The Fraction rows are checked for shape and for non-negative levels
    that sum to 1."""

    q: QParam
    rows: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        rows = _rows(self.rows)
        object.__setattr__(self, "rows", rows)
        for n, row in enumerate(rows):
            lcm, nums = _over_lcm([(x.numerator, x.denominator) for x in row])
            if min(nums) < 0:
                raise InvalidArrayError("negative mass in level %d" % n)
            if sum(nums) != lcm:
                total = format_rational(Fraction(sum(nums), lcm))
                raise InvalidArrayError("level %d sums to %s, not 1" % (n, total))

    @property
    def depth(self) -> int:
        return len(self.rows) - 1


class Check(NamedTuple):
    """A criterion's verdict, and where it fails the first witness."""

    ok: bool
    witness: tuple | None


def check_recursion(array: VArray | PairTriangle) -> Check:
    """Exact check of v[0][0] = 1, non-negativity, and the recursion; the
    witness is the first offending (n, k).  A VArray is checked on its
    cells' integer pairs, a file's triangle on the pairs as written.

    Integers only: with q = a/b in lowest terms, row n is N_n / D_n for
    D_n the lcm of its denominators, and with g = gcd(D_n, D_{n+1}) and
    j = n - k the recursion at (n, k) reads
    N_n[k] (D_{n+1}/g) b^j = (N_{n+1}[k] b^j + a^j N_{n+1}[k+1]) (D_n/g).
    """
    q, rows = _pairs(array)
    top, bottom = rows[0][0]
    if top != bottom:
        return Check(False, (0, 0))
    depth = len(rows) - 1
    a, b = q.q.numerator, q.q.denominator
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
    """tv[n][k] = [n k]_q v[n][k], one :func:`_times` per nonzero cell."""
    rows = tuple(
        tuple(
            _coprime(*_times(d.numerator, d.denominator, x.numerator, x.denominator))
            if x else _ZERO
            for d, x in zip(gaussian_row(n, array.q), row)
        )
        for n, row in enumerate(array.rows)
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

    @classmethod
    def from_jsonable(cls, obj: Mapping) -> "FiniteLaw":
        return cls(as_count(obj["n"]), dict(obj["probs"]))


def _check_word_count(n: int) -> None:
    """The word-law guard on the 2**n words of length n."""
    guards.check_count((2**i for i in range(n + 1)), 2**MAX_WORD_LENGTH, "word law")


class ForwardChain:
    """A process given by its forward probabilities on the Pascal lattice.

    After n letters with k ones, the next letter is a one with
    probability ``p1(n, k)``, the ``p_one`` given, and the chain is
    q-exchangeable.  That single function yields the v triangle, the
    level laws and a sampler; every pass calls it, so pass a memoised
    p_one.  Its p1 is exact, and its triangle and level law run on
    integers; a chain whose p1 is a float (the urn's float mode) is a
    subclass with its own triangle and level.  Draws read ``p1_drawn``,
    which is exact: p1, or a stand-in with the same 64-bit thresholds (see
    :func:`qpascal.boundary.extreme_chain`), or a float p1 made exact.
    """

    def __init__(self, q: QParam, p_one: Callable[[int, int], Fraction]) -> None:
        self.q = q
        self.p1 = self.p1_drawn = p_one
        self._thresholds: list[dict] = []  # sampler: row n maps k to its threshold

    def triangle(self, depth: int) -> VArray:
        """v[n+1][k] = v[n][k] (1 - p1(n, k)) and v[n+1][n+1] = v[n][n] p1(n, n):
        only the canonical words 1^k 0^(n-k) are extended.  Each column
        is walked as a reduced integer pair, one :func:`_times` per cell."""
        p1 = self.p1
        pairs = [(1, 1)]
        rows = [(Fraction(1),)]
        for n in range(depth):
            nxt = []
            for k, (num, den) in enumerate(pairs):
                p = p1(n, k)
                nxt.append(_times(num, den, p.denominator - p.numerator, p.denominator))
            p = p1(n, n)
            nxt.append(_times(*pairs[n], p.numerator, p.denominator))
            pairs = nxt
            rows.append(tuple(_coprime(*c) if c[0] else _ZERO for c in nxt))
        return VArray(self.q, rows)

    def level(self, n: int) -> list:
        """Law of the number of ones after n letters, tv[n][k] =
        [n k]_q v[n][k].

        The chain is q-exchangeable, so the words with k ones weigh, in
        sum, the Gaussian binomial times the canonical word 1^k 0^(n-k),
        whose probability v[n][k] is p1 multiplied along that word as
        integer numerators and denominators, with no gcd: p1(i, i) for
        i < k, then 1 - p1(m, k) for k <= m < n.  These products come
        first: once the ones prefix is 0 so are the products after it, and
        a zero run stops at its first 0 factor, so p1 is called only at
        reachable cells.  The Gaussian row is then walked only across the
        products' support [lo, hi], from the nearer end: up to hi, or down
        from [n n] = [n 0] by its symmetry when n - lo < hi, so an
        all-ones chain reads one cell.  Each nonzero cell is one Fraction.
        """
        p1 = self.p1
        products = []  # v[n][k] as (numerator, denominator), k = 0, 1, ...
        top = bottom = 1  # p1 along the ones prefix 1^k
        for k in range(n + 1):
            if k:
                p = p1(k - 1, k - 1)
                top *= p.numerator
                if not top:
                    break
                bottom *= p.denominator
            num, den = top, bottom
            for m in range(k, n):
                p = p1(m, k)
                num *= p.denominator - p.numerator
                if not num:
                    break
                den *= p.denominator
            products.append((num, den))
        support = [k for k, (num, _) in enumerate(products) if num]
        lo, hi = support[0], support[-1]
        rows = gaussian_row(n, self.q)
        # zip reads the range first, so no Gaussian cell past the support is built
        cells = zip(range(n, lo - 1, -1), rows) if n - lo < hi else zip(range(hi + 1), rows)
        level = [Fraction(0)] * (n + 1)
        for k, g in cells:
            num, den = products[k]
            if num:
                level[k] = Fraction(g.numerator * num, g.denominator * den)
        return level

    def sampler(self) -> Sampler:
        """Draws one word; each letter consumes one draw j and is a one
        iff j < bernoulli_threshold(p1_drawn(n, k)).  Its ``ones`` counter
        walks the same letters without building the word.  The thresholds
        are cached per cell visited, in one dict per row."""
        thresholds = self._thresholds
        p1 = self.p1_drawn

        def walk(n: int, rng: SplitMix64, ones: list | None = None) -> int:
            while len(thresholds) < n:
                thresholds.append({})
            draw = rng.next_uint64
            k = 0
            for m in range(n):
                row = thresholds[m]
                try:
                    t = row[k]
                except KeyError:
                    t = row[k] = bernoulli_threshold(p1(m, k))
                if draw() < t:
                    k += 1
                    if ones is not None:
                        ones.append(m)
            return k

        return _word_sampler(walk, lambda n: n)


def _word_sampler(walk: Callable[..., int], max_draws: Callable[[int], int]) -> Sampler:
    """The sampler of a walk.

    ``walk(n, rng, ones=None)`` draws the letters of an n-letter word from
    ``rng`` and returns its number of ones; given a list, it also appends
    the position of each one.  The sampler builds the word from those
    positions, and its ``ones`` attribute is the walk itself, which draws
    the same letters from the same draws but builds no word.  Its
    ``max_draws`` attribute is the given bound on the draws of a walk of
    n letters, which a histogram computes ahead for each trial.
    """

    def draw(n: int, rng: SplitMix64) -> BinaryWord:
        ones: list[int] = []
        walk(n, rng, ones)
        bits = [0] * n
        for m in ones:
            bits[m] = 1
        return BinaryWord(tuple(bits))

    draw.ones = walk
    draw.max_draws = max_draws
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
