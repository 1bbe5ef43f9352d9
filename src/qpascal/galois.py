"""Finite fields, subspaces, and the subspace-growth process.

The q-Pascal graph with q the size of a finite field F is realized by
the lattice of subspaces: level n holds the subspaces of F^n, a dual
0-step from V in F^n goes to an extension V' in F^(n+1) with
V' intersect F^n = V (same dimension, one extension) or a 1-step to a
grown extension (dimension + 1, of which there are q^(n-k) for a
k-codimensional V).  The codimension increments along a growing chain
then spell a binary word whose law is an extreme q-exchangeable law at
q-bar = 1/q.

Field elements are encoded as integers in [0, p^m): the element with
residue polynomial sum c_i x^i is stored as sum c_i p^i.  The modulus
is a monic irreducible held as its coefficient tuple (c_0, ..., c_m),
c_m = 1.  With m = 1 the default modulus is x, so elements are the
usual integers mod p.  Subspaces are kept in reduced row echelon form,
which makes equality checks and JSON round-trips canonical.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .boundary import _check_kappa
from .errors import (
    FieldConstructionError,
    NotIrreducibleError,
    NotPrimeError,
    TooLargeError,
)
from .exactq import QParam, q_binomial
from .guards import check_count
from .pascal_graph import BinaryWord
from .rng import SplitMix64, bernoulli_threshold, uniform_below

MAX_FIELD_SIZE = 1 << 20
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
    """A prime characteristic, a positive degree and p^m within the size limit."""
    if not isinstance(p, int) or not is_prime(p):
        raise NotPrimeError("characteristic must be prime, got %r" % (p,))
    if not isinstance(m, int) or m < 1:
        raise FieldConstructionError("extension degree must be a positive integer")
    if p**m > MAX_FIELD_SIZE:
        raise TooLargeError("field size %d exceeds limit" % p**m)


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
        mod = tuple(int(c) % self.p for c in self.modulus)
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

    def add(self, x: int, y: int) -> int:
        if self.m == 1:
            self._check(x)
            self._check(y)
            return (x + y) % self.p
        a, b = self.decode(x), self.decode(y)
        return self.encode([(u + v) % self.p for u, v in zip(a, b)])

    def neg(self, x: int) -> int:
        if self.m == 1:
            self._check(x)
            return -x % self.p
        return self.encode([-c % self.p for c in self.decode(x)])

    def sub(self, x: int, y: int) -> int:
        return self.add(x, self.neg(y))

    def mul(self, x: int, y: int) -> int:
        if self.m == 1:
            self._check(x)
            self._check(y)
            return x * y % self.p
        prod = _poly_mul(self.decode(x), self.decode(y), self.p)
        return self.encode(_poly_divmod_tail(prod, self.modulus, self.p))

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError("0 has no inverse")
        if self.m == 1:
            self._check(x)
            return pow(x, self.p - 2, self.p)
        out, base, e = 1, x, self.size - 2
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def to_jsonable(self) -> dict:
        return {"p": self.p, "m": self.m, "modulus": list(self.modulus)}

    @classmethod
    def from_jsonable(cls, data: dict) -> "FieldSpec":
        return cls(int(data["p"]), int(data["m"]), tuple(data["modulus"]))


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


def rref_canonicalize(
    field: FieldSpec, n: int, vectors: Sequence[Sequence[int]]
) -> tuple[tuple[int, ...], ...]:
    """Reduced row echelon form of the span; zero rows dropped."""
    mat = [list(v) for v in vectors]
    for row in mat:
        if len(row) != n:
            raise ValueError("vector length %d does not match ambient %d" % (len(row), n))
        for entry in row:
            field._check(entry)
    pivot = 0
    for col in range(n):
        src = next((r for r in range(pivot, len(mat)) if mat[r][col]), None)
        if src is None:
            continue
        mat[pivot], mat[src] = mat[src], mat[pivot]
        scale = field.inv(mat[pivot][col])
        mat[pivot] = [field.mul(scale, e) for e in mat[pivot]]
        for r in range(len(mat)):
            if r != pivot and mat[r][col]:
                c = mat[r][col]
                mat[r] = [
                    field.sub(e, field.mul(c, pe))
                    for e, pe in zip(mat[r], mat[pivot])
                ]
        pivot += 1
        if pivot == len(mat):
            break
    return tuple(tuple(row) for row in mat[:pivot] if any(row))


@dataclass(frozen=True)
class Subspace:
    """A subspace of field^ambient_dim, basis in reduced row echelon form."""

    field: FieldSpec
    ambient_dim: int
    basis: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.ambient_dim < 0:
            raise ValueError("ambient dimension must be non-negative")
        basis = tuple(tuple(row) for row in self.basis)
        object.__setattr__(self, "basis", basis)
        if rref_canonicalize(self.field, self.ambient_dim, basis) != basis:
            raise ValueError("basis rows are not in reduced row echelon form")

    @classmethod
    def spanned(
        cls, field: FieldSpec, ambient_dim: int, vectors: Sequence[Sequence[int]]
    ) -> "Subspace":
        return cls(field, ambient_dim, rref_canonicalize(field, ambient_dim, vectors))

    @classmethod
    def zero(cls, field: FieldSpec, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim, ())

    @classmethod
    def full(cls, field: FieldSpec, ambient_dim: int) -> "Subspace":
        rows = tuple(
            tuple(1 if j == i else 0 for j in range(ambient_dim))
            for i in range(ambient_dim)
        )
        return cls(field, ambient_dim, rows)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def codim(self) -> int:
        return self.ambient_dim - self.dim

    @property
    def pivots(self) -> tuple[int, ...]:
        return tuple(next(j for j, e in enumerate(row) if e) for row in self.basis)

    def contains(self, vector: Sequence[int]) -> bool:
        v = list(vector)
        if len(v) != self.ambient_dim:
            return False
        for row, piv in zip(self.basis, self.pivots):
            c = v[piv]
            if c:
                v = [self.field.sub(e, self.field.mul(c, re)) for e, re in zip(v, row)]
        return not any(v)

    def vectors(self) -> Iterator[tuple[int, ...]]:
        """All q^dim vectors of the subspace."""
        for coeffs in itertools.product(self.field.elements(), repeat=self.dim):
            v = [0] * self.ambient_dim
            for c, row in zip(coeffs, self.basis):
                if c:
                    v = [
                        self.field.add(e, self.field.mul(c, re))
                        for e, re in zip(v, row)
                    ]
            yield tuple(v)

    def to_jsonable(self) -> dict:
        return {
            "field": self.field.to_jsonable(),
            "n": self.ambient_dim,
            "basis": [list(row) for row in self.basis],
        }

    @classmethod
    def from_jsonable(cls, data: dict) -> "Subspace":
        field = FieldSpec.from_jsonable(data["field"])
        return cls(
            field,
            int(data["n"]),
            tuple(tuple(int(e) for e in row) for row in data["basis"]),
        )


def project_down(subspace: Subspace) -> Subspace:
    """Intersect with the hyperplane (last coordinate 0) and drop that
    coordinate: the backward step of the growth process."""
    if subspace.ambient_dim == 0:
        raise ValueError("nothing to project from ambient dimension 0")
    field, n = subspace.field, subspace.ambient_dim
    rows = [list(r) for r in subspace.basis]
    carriers = [r for r in rows if r[-1]]
    if carriers:
        pivot_row = carriers[-1]
        scale = field.inv(pivot_row[-1])
        for r in rows:
            if r is not pivot_row and r[-1]:
                c = field.mul(r[-1], scale)
                r[:] = [field.sub(e, field.mul(c, pe)) for e, pe in zip(r, pivot_row)]
        rows.remove(pivot_row)
    stripped = [r[:-1] for r in rows]
    return Subspace(field, n - 1, rref_canonicalize(field, n - 1, stripped))


def list_extensions(subspace: Subspace) -> list[Subspace]:
    """All subspaces of field^(n+1) whose intersection with field^n is
    this one: the padded copy plus q^(n-k) grown extensions."""
    field, n = subspace.field, subspace.ambient_dim
    padded = tuple(row + (0,) for row in subspace.basis)
    out = [Subspace(field, n + 1, padded)]
    free_cols = [j for j in range(n) if j not in subspace.pivots]
    for values in itertools.product(field.elements(), repeat=len(free_cols)):
        xi = [0] * (n + 1)
        for col, val in zip(free_cols, values):
            xi[col] = val
        xi[n] = 1
        out.append(Subspace.spanned(field, n + 1, padded + (tuple(xi),)))
    return out


def enumerate_grassmannian(
    field: FieldSpec, n: int, k: int, limit: int | None = None
) -> Iterator[Subspace]:
    """All k-dimensional subspaces of field^n, one reduced row echelon
    matrix each.  Count is the Gaussian binomial at q = field size."""
    if not 0 <= k <= n:
        return
    count = q_binomial(n, k, QParam(Fraction(field.size)))
    check_count(
        int(count),
        DEFAULT_SUBSPACE_LIMIT if limit is None else limit,
        "subspaces",
    )
    for pivots in itertools.combinations(range(n), k):
        free = [
            (i, c)
            for i, piv in enumerate(pivots)
            for c in range(piv + 1, n)
            if c not in pivots
        ]
        for values in itertools.product(field.elements(), repeat=len(free)):
            rows = [[0] * n for _ in range(k)]
            for i, piv in enumerate(pivots):
                rows[i][piv] = 1
            for (i, c), val in zip(free, values):
                rows[i][c] = val
            yield Subspace(field, n, tuple(tuple(r) for r in rows))


# ------------------------------------------------------------ growth chains


def _grow_probability(kappa, codim: int, field: FieldSpec) -> Fraction:
    # extreme forward law at q-bar = 1/size: a 0-bit (dimension growth)
    # has probability q-bar^(kappa - codim)
    if isinstance(kappa, float):  # math.inf
        return Fraction(0)
    return Fraction(1, field.size) ** (kappa - codim)


def sample_growth(
    kappa, field: FieldSpec, n_max: int, seed: int
) -> tuple[Subspace, ...]:
    """One growing chain V_0 subset V_1 subset ... subset V_{n_max}.

    Each step consumes one decision draw (grow iff draw < threshold);
    a growth step then draws its new vector as n coordinate draws
    (uniform_below(size), index order) plus one draw for the last
    coordinate (1 + uniform_below(size - 1)).
    """
    _check_kappa(kappa)
    rng = SplitMix64(seed)
    chain = [Subspace.zero(field, 0)]
    for n in range(n_max):
        current = chain[-1]
        p_grow = _grow_probability(kappa, current.codim, field)
        t = bernoulli_threshold(p_grow)
        padded = tuple(row + (0,) for row in current.basis)
        if rng.next_uint64() < t:
            xi = [uniform_below(rng, field.size) for _ in range(n)]
            xi.append(1 + uniform_below(rng, field.size - 1))
            chain.append(Subspace.spanned(field, n + 1, padded + (tuple(xi),)))
        else:
            chain.append(Subspace(field, n + 1, padded))
    return tuple(chain)


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


def exact_growth_law(
    kappa, field: FieldSpec, n_max: int
) -> dict[tuple[Subspace, ...], Fraction]:
    """Law of the full chain by exact branching: p_grow splits evenly
    over the q^(n-k) grown extensions, 1 - p_grow stays."""
    _check_kappa(kappa)
    states: dict[tuple[Subspace, ...], Fraction] = {
        (Subspace.zero(field, 0),): Fraction(1)
    }
    for _ in range(n_max):
        nxt: dict[tuple[Subspace, ...], Fraction] = {}
        for chain, prob in states.items():
            current = chain[-1]
            p_grow = _grow_probability(kappa, current.codim, field)
            extensions = list_extensions(current)
            stay, grown = extensions[0], extensions[1:]
            if p_grow != 1:
                nxt[chain + (stay,)] = nxt.get(chain + (stay,), 0) + prob * (1 - p_grow)
            if p_grow != 0:
                share = prob * p_grow / len(grown)
                for ext in grown:
                    key = chain + (ext,)
                    nxt[key] = nxt.get(key, 0) + share
        states = nxt
    return states


def growth_q_param(field: FieldSpec) -> QParam:
    """The sub-unit q governing codimension words: 1 / field size."""
    return QParam(Fraction(1, field.size))
