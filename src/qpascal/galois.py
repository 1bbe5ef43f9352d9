"""Finite fields, subspaces, and the subspace-growth process.

The q-Pascal graph with q the size of a finite field F is realized by
the lattice of subspaces: level n holds the subspaces of F^n, a dual
0-step from V in F^n goes to an extension V' in F^(n+1) with
V' intersect F^n = V (same dimension, one extension) or a 1-step to a
grown extension (dimension + 1, of which there are q^(n-k) for a
k-codimensional V).  The codimension increments along a growing chain
spell a path of the q-bar-exchangeable chain, q-bar = 1/q, that drives
it: ``sample_growth`` reads a ForwardChain (the CLI's is an extreme law).

Field elements are encoded as integers in [0, p^m): the element with
residue polynomial sum c_i x^i is stored as sum c_i p^i.  The modulus
is a monic irreducible held as its coefficient tuple (c_0, ..., c_m),
c_m = 1.  With m = 1 the default modulus is x, so elements are the
usual integers mod p.  Subspaces are kept in reduced row echelon form,
which makes equality checks and printed bases canonical.

A growth chain keeps one RREF basis across its steps, pads its rows and
inserts each new vector in O(dim * n), through add, mul, neg and inv
tables built on first use from the exact arithmetic of ``FieldSpec``, if
q * q <= MAX_FIELD_SIZE (larger fields compute each entry).
``enumerate_grassmannian`` builds each row once per pivot set and takes
the bases as their products.  ``Subspace(...)`` stores the basis it is
given: both build every basis in RREF, and no outside input reaches it.
"""

from __future__ import annotations

import bisect
import itertools
from collections import namedtuple
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Sequence

from .errors import (
    FieldConstructionError,
    NotIrreducibleError,
    NotPrimeError,
    TooLargeError,
)
from .exactq import QParam, as_count, q_binomial
from .guards import check_count
from .pascal_graph import BinaryWord
from .rng import TWO64, SplitMix64, uniform_below

MAX_FIELD_SIZE = 1 << 20
# fields of order q with q * q <= MAX_FIELD_SIZE get full q x q tables
TABLE_FIELD_SIZE = math.isqrt(MAX_FIELD_SIZE)
DEFAULT_SUBSPACE_LIMIT = 1 << 18

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin (witness set valid far beyond 2^64)."""
    if n < 2:
        return False
    for w in _MR_WITNESSES:
        if n % w == 0:
            return n == w
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for w in _MR_WITNESSES:
        x = pow(w, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ------------------------------------------------- polynomials over F_p

# little-endian coefficient tuples, entries in [0, p)


def _poly_divmod_tail(f: Sequence[int], g: Sequence[int], p: int) -> list[int]:
    """Remainder of f by monic g (coefficients mod p)."""
    rem = list(f)
    dg = len(g) - 1
    for i in range(len(rem) - 1, dg - 1, -1):
        c = rem[i] % p
        if c:
            for j in range(dg + 1):
                rem[i - dg + j] = (rem[i - dg + j] - c * g[j]) % p
    return [c % p for c in rem[:dg]]


def _poly_mul(f: Sequence[int], g: Sequence[int], p: int) -> list[int]:
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return out


def _monic_polys(degree: int, p: int) -> Iterator[tuple[int, ...]]:
    for enc in range(p**degree):
        coeffs, e = [], enc
        for _ in range(degree):
            coeffs.append(e % p)
            e //= p
        yield tuple(coeffs) + (1,)


def is_irreducible(coeffs: Sequence[int], p: int) -> bool:
    """Trial division by all lower-degree monic polynomials."""
    m = len(coeffs) - 1
    if m < 1 or coeffs[-1] % p != 1:
        return False
    if p**m > MAX_FIELD_SIZE:
        raise TooLargeError(
            "irreducibility check limited to fields of size <= %d" % MAX_FIELD_SIZE
        )
    if m == 1:
        return True
    for d in range(1, m // 2 + 1):
        for g in _monic_polys(d, p):
            if not any(_poly_divmod_tail(coeffs, g, p)):
                return False
    return True


def _check_field_order(p, m) -> None:
    """A prime characteristic, a positive degree (an int, not a bool) and
    p^m within the size limit.  The size is checked first, one power of p
    at a time, so a huge p or m is refused before p^m is built or p is
    tested."""
    if not isinstance(p, int) or p < 2:
        raise NotPrimeError("characteristic must be prime, got %r" % (p,))
    if isinstance(m, bool) or not isinstance(m, int) or m < 1:
        raise FieldConstructionError("extension degree must be a positive integer")
    size = 1
    for _ in range(m):
        size *= p
        if size > MAX_FIELD_SIZE:
            raise TooLargeError("field size exceeds the limit %d" % MAX_FIELD_SIZE)
    if not is_prime(p):
        raise NotPrimeError("characteristic must be prime, got %r" % (p,))


# a field's tables: add[x][y], mul[x][y], neg[x] and inv[x] (inv[0] is None)
_Tables = namedtuple("_Tables", "add mul neg inv")


class _Computed:
    """Stands in for a lookup table of a field too large to tabulate:
    ``t[x]`` is ``op(x)``, computed on each lookup."""

    __slots__ = ("op",)

    def __init__(self, op) -> None:
        self.op = op

    def __getitem__(self, x):
        return self.op(x)


@dataclass(frozen=True)
class FieldSpec:
    """F_{p^m} with a fixed monic irreducible modulus.

    Elements are the integers 0 .. p^m - 1 (see module docstring for
    the encoding); 0 and 1 are the additive and multiplicative units.
    """

    p: int
    m: int
    modulus: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_field_order(self.p, self.m)
        mod = tuple(map(as_count, self.modulus))
        for c in mod:
            if not 0 <= c < self.p:
                raise FieldConstructionError(
                    "modulus coefficient %d is outside [0, %d)" % (c, self.p)
                )
        if len(mod) != self.m + 1 or mod[-1] != 1:
            raise FieldConstructionError(
                "modulus must be monic of degree %d" % self.m
            )
        if not is_irreducible(mod, self.p):
            raise NotIrreducibleError("modulus %r is reducible over F_%d" % (mod, self.p))
        object.__setattr__(self, "modulus", mod)

    @property
    def size(self) -> int:
        return self.p**self.m

    def elements(self) -> range:
        return range(self.size)

    def decode(self, element: int) -> tuple[int, ...]:
        """Coefficient tuple (length m) of an element's residue polynomial."""
        self._check(element)
        coeffs, e = [], element
        for _ in range(self.m):
            coeffs.append(e % self.p)
            e //= self.p
        return tuple(coeffs)

    def encode(self, coeffs: Sequence[int]) -> int:
        if len(coeffs) > self.m:
            raise ValueError("too many coefficients")
        out = 0
        for c in reversed(coeffs):
            out = out * self.p + c % self.p
        return out

    def _check(self, element: int) -> None:
        if not isinstance(element, int) or not 0 <= element < self.size:
            raise ValueError("not an element of this field: %r" % (element,))

    # the exact polynomial arithmetic (a prime field is its degree-1
    # case): the table builder, the arithmetic of fields too large to
    # tabulate and the tests' oracle

    def add(self, x: int, y: int) -> int:
        a, b = self.decode(x), self.decode(y)
        return self.encode([(u + v) % self.p for u, v in zip(a, b)])

    def neg(self, x: int) -> int:
        return self.encode([-c % self.p for c in self.decode(x)])

    def mul(self, x: int, y: int) -> int:
        prod = _poly_mul(self.decode(x), self.decode(y), self.p)
        return self.encode(_poly_divmod_tail(prod, self.modulus, self.p))

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError("0 has no inverse")
        self._check(x)  # over GF(2) the loop below multiplies nothing
        out, base, e = 1, x, self.size - 2
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    @cached_property
    def _tables(self) -> _Tables:
        """A growth step's tables, built on first use (computed above
        TABLE_FIELD_SIZE)."""
        if self.size <= TABLE_FIELD_SIZE:
            return _tabulate(self)
        add = _Computed(lambda x: _Computed(lambda y: self.add(x, y)))
        mul = _Computed(lambda x: _Computed(lambda y: self.mul(x, y)))
        return _Tables(add, mul, _Computed(self.neg), _Computed(self.inv))

    def to_jsonable(self) -> dict:
        return {"p": self.p, "m": self.m, "modulus": list(self.modulus)}


def _tabulate(field: FieldSpec) -> _Tables:
    """Full q x q tables from O(q m) calls of the exact arithmetic plus
    O(q^2) list steps.  Adding x is adding t, the power of p at x's top
    digit, after adding x - t; products run through the powers of a
    generator of the cyclic group of units."""
    q, p = field.size, field.p
    add, t = [list(range(q))], 1
    for x in range(1, q):
        if x == t * p:
            t = x
        if x == t:
            add.append([field.add(x, y) for y in range(q)])
        else:
            add.append([add[t][e] for e in add[x - t]])
    for g in range(1, q):
        powers = [1]
        while (x := field.mul(powers[-1], g)) != 1:
            powers.append(x)
        if len(powers) == q - 1:
            break
    log = [0] * q
    for i, x in enumerate(powers):
        log[x] = i
    twice, logs = powers + powers, log[1:]
    mul = [[0] * q] + [[0] + [twice[i + j] for j in logs] for i in logs]
    neg = [field.neg(x) for x in range(q)]
    inv = [None] + [powers[-i] for i in logs]
    return _Tables(add, mul, neg, inv)


def make_field(p: int, m: int = 1, modulus: Sequence[int] | None = None) -> FieldSpec:
    """F_{p^m}; without an explicit modulus the first monic irreducible
    in integer-encoding order is chosen (x itself when m = 1)."""
    if modulus is not None:
        return FieldSpec(p, m, tuple(modulus))
    _check_field_order(p, m)
    for candidate in _monic_polys(m, p):
        if is_irreducible(candidate, p):
            return FieldSpec(p, m, candidate)
    raise FieldConstructionError("no irreducible modulus found")  # cannot happen


# ---------------------------------------------------------------- subspaces


def _axpy(tables: _Tables, row: list[int], c: int, src, start: int = 0) -> None:
    """row += c * src in place, from column start on (src is zero before it)."""
    add, mc = tables.add, tables.mul[c]
    row[start:] = [add[e][mc[s]] for e, s in zip(row[start:], src[start:])]


def _insert(tables: _Tables, rows: list, pivots: list, vec: list[int]) -> None:
    """Add vec to the span of ``rows``, an RREF basis with pivot columns
    ``pivots``, keeping both in RREF: clear vec's pivot columns, scale
    its leading entry to 1 and clear that column from the other rows.
    vec must lie outside the span.  O(len(rows) * n) lookups."""
    for row, piv in zip(rows, pivots):
        if vec[piv]:
            _axpy(tables, vec, tables.neg[vec[piv]], row, piv)
    lead = next(j for j, e in enumerate(vec) if e)
    scale = tables.mul[tables.inv[vec[lead]]]
    vec[lead:] = [scale[e] for e in vec[lead:]]
    for row in rows:
        if row[lead]:
            _axpy(tables, row, tables.neg[row[lead]], vec, lead)
    i = bisect.bisect(pivots, lead)
    rows.insert(i, vec)
    pivots.insert(i, lead)


@dataclass(frozen=True)
class Subspace:
    """A subspace of field^ambient_dim, basis in reduced row echelon form:
    a tuple of row tuples, which its builder makes in that form."""

    field: FieldSpec
    ambient_dim: int
    basis: tuple[tuple[int, ...], ...]

    @classmethod
    def zero(cls, field: FieldSpec, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim, ())

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def codim(self) -> int:
        return self.ambient_dim - self.dim


def enumerate_grassmannian(field: FieldSpec, n: int, k: int) -> Iterator[Subspace]:
    """All k-dimensional subspaces of field^n, one reduced row echelon
    matrix each.  Count is the Gaussian binomial at q = field size;
    above DEFAULT_SUBSPACE_LIMIT (or QB_MAX_ENUM) it raises TooLargeError."""
    if not 0 <= k <= n:
        return
    q, low = field.size, min(k, n - k)
    # q^j for j <= low (n - low) bound the count from below, so a refusal
    # never builds the Gaussian binomial
    lower = (q**j for j in range(low * (n - low) + 1))
    exact = (q_binomial(n, k, QParam(Fraction(q))) for _ in (0,))
    check_count(itertools.chain(lower, exact), DEFAULT_SUBSPACE_LIMIT, "subspaces")
    for pivots in itertools.combinations(range(n), k):
        # a row is 1 at its pivot, 0 at the other pivots and free in the
        # other columns right of its pivot; each row's tuples are built
        # once, in lexicographic order, and every basis is one choice each
        options = [field.elements()] * n
        for piv in pivots:
            options[piv] = (0,)
        choices = [
            [(0,) * piv + (1,) + tail for tail in itertools.product(*options[piv + 1:])]
            for piv in pivots
        ]
        for basis in itertools.product(*choices):
            yield Subspace(field, n, basis)


# ------------------------------------------------------------ growth chains


def sample_growth(chain, field: FieldSpec, n_max: int, seed: int) -> tuple[Subspace, ...]:
    """One growing chain V_0 subset ... subset V_{n_max} whose codimension
    word is a path of ``chain``, a ForwardChain at q = 1/size.

    A step at ambient dimension n and codimension c grows iff its draw is
    below bernoulli_threshold(1 - chain.p1_drawn(n, c)).  A growth step
    then draws its new vector in index order: n coordinates by
    uniform_below(size) and the last by 1 + uniform_below(size - 1), a
    draw per rejection attempt and none for one value (n over GF(2)).
    """
    if chain.q != growth_q_param(field):
        raise ValueError("growth needs q = 1/%d, not %s" % (field.size, chain.q))
    rng = SplitMix64(seed)
    spaces = [Subspace.zero(field, 0)]
    rows, pivots = [], []  # the current basis in RREF, kept across steps
    for n in range(n_max):
        p = chain.p1_drawn(n, n - len(rows))
        t = TWO64 - (p.numerator << 64) // p.denominator  # ceil((1 - p) 2^64)
        for row in rows:
            row.append(0)
        if rng.next_uint64() < t:
            # xi[n] != 0 and the rows are 0 there, so xi is outside their span
            xi = [uniform_below(rng, field.size) for _ in range(n)]
            xi.append(1 + uniform_below(rng, field.size - 1))
            _insert(field._tables, rows, pivots, xi)
        spaces.append(Subspace(field, n + 1, tuple(map(tuple, rows))))
    return tuple(spaces)


def codim_word(chain: Sequence[Subspace]) -> BinaryWord:
    """Codimension increments along a chain: bit 1 where the dimension
    stalls, bit 0 where it grows."""
    bits = []
    for prev, cur in zip(chain, chain[1:]):
        if cur.ambient_dim != prev.ambient_dim + 1:
            raise ValueError("chain must advance one ambient dimension per step")
        step = cur.codim - prev.codim
        if step not in (0, 1):
            raise ValueError("chain is not a growth chain")
        bits.append(step)
    return BinaryWord(tuple(bits))


def growth_q_param(field: FieldSpec) -> QParam:
    """The sub-unit q governing codimension words: 1 / field size."""
    return QParam(Fraction(1, field.size))
