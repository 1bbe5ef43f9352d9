"""The weighted Pascal lattice underlying q-exchangeability.

A binary word traces a directed path through the vertices (l, k): l
completed 0-steps, k completed 1-steps.  Its weight is a power of q.

    primal graph:  a 1-step taken at height l carries weight q^l,
                   0-steps carry weight 1;
    dual graph:    a 0-step taken at height k carries weight q^k,
                   1-steps carry weight 1.

The sum of primal path weights from the root to (l, k) is the Gaussian
binomial with n = l + k; the primal weight of a word from the root is
q^inversions.  Exchanging 0s and 1s maps the q > 1 regime to 1/q
(:func:`flip_reduction`).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import NotSuperUnitError
from .exactq import QParam, _coprime


@dataclass(frozen=True)
class BinaryWord:
    """An immutable 0/1 word; serializes as a string like "0110"."""

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        bits = tuple(map(int, self.bits))
        if not set(bits) <= {0, 1}:
            raise ValueError("word bits must be 0 or 1")
        object.__setattr__(self, "bits", bits)

    @classmethod
    def from_string(cls, text: str) -> "BinaryWord":
        text = text.strip()
        if any(c not in "01" for c in text):
            raise ValueError("word string must consist of 0s and 1s: %r" % text)
        return cls(tuple(int(c) for c in text))

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)

    def __len__(self) -> int:
        return len(self.bits)

    @property
    def ones(self) -> int:
        return sum(self.bits)

    def flipped(self) -> "BinaryWord":
        return BinaryWord(tuple(1 - b for b in self.bits))

    def swap_adjacent(self, i: int) -> "BinaryWord":
        if not 0 <= i < len(self.bits) - 1:
            raise ValueError("swap position out of range")
        b = list(self.bits)
        b[i], b[i + 1] = b[i + 1], b[i]
        return BinaryWord(tuple(b))


def flip_reduction(obj, q: QParam | None = None):
    """Reduce a q > 1 object to the sub-unit regime.

    Exchanging 0s and 1s turns a q-exchangeable law into a
    (1/q)-exchangeable one.  Accepts a :class:`BinaryWord` (``q``
    required) or a law triangle carrying its own q, a VArray or a file's
    PairTriangle (``q``, if given, must equal it); returns the flipped
    object together with the new parameter 1/q.

    The flipped triangle is q^(k(n-k)) v[n][n-k]: with q = a/b and
    m = k(n-k), cell (n, k) is a^m N / (b^m d) for the integer pair (N, d)
    at (n, n-k), reduced by one gcd into a coprime pair.  Cells k and
    n - k share m, so a^m and b^m are taken once for each such pair with
    a nonzero cell, and never for a zero one: memory follows the cells,
    not a table up to q^(depth^2/4).
    """
    from .laws import _ZERO, PairTriangle, VArray, _pairs

    if isinstance(obj, BinaryWord):
        if q is None:
            raise ValueError("flip of a bare word needs q")
        if q.q <= 1:
            raise NotSuperUnitError("flip reduction applies only for q > 1")
        return obj.flipped(), q.inverse

    if not isinstance(obj, (VArray, PairTriangle)):
        raise TypeError("flip_reduction takes a BinaryWord, a VArray or a PairTriangle")
    qp, rows = _pairs(obj)
    if q is not None and q.q != qp.q:
        raise ValueError("q = %s does not match the triangle's q = %s" % (q, qp))
    if qp.q <= 1:
        raise NotSuperUnitError("flip reduction applies only for q > 1")
    a, b = qp.q.numerator, qp.q.denominator
    flipped = []
    for n, row in enumerate(rows):
        cells = [_ZERO] * (n + 1)
        for k in range(n // 2 + 1):
            j = n - k  # cells k and j read cells j and k
            if not (row[k][0] or row[j][0]):
                continue
            a_m, b_m = a ** (k * j), b ** (k * j)
            for i in (k, j) if k < j else (k,):
                num, den = row[n - i]
                if num:
                    top, bottom = a_m * num, b_m * den
                    g = gcd(top, bottom)
                    cells[i] = _coprime(top // g, bottom // g)
        flipped.append(cells)
    return VArray(qp.inverse, flipped), qp.inverse
