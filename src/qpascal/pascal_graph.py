"""The weighted Pascal lattice underlying q-exchangeability.

Vertices are pairs (l, k): l completed 0-steps, k completed 1-steps.
A binary word traces a directed path; its weight is a power of q.

    primal graph:  a 1-step taken at height l carries weight q^l,
                   0-steps carry weight 1;
    dual graph:    a 0-step taken at height k carries weight q^k,
                   1-steps carry weight 1.

The sum of primal path weights from the root to (l, k) is the Gaussian
binomial with n = l + k, and more generally the weight sum over any
segment has the closed form implemented by :func:`segment_weight_sum`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import NotSuperUnitError, UnreachableError
from .exactq import QParam, q_binomial


@dataclass(frozen=True)
class Vertex:
    """Lattice vertex: l completed 0-steps, k completed 1-steps."""

    l: int
    k: int

    def __post_init__(self) -> None:
        if self.l < 0 or self.k < 0:
            raise ValueError("vertex coordinates must be non-negative")

    @property
    def level(self) -> int:
        return self.l + self.k

    def __str__(self) -> str:
        return "(%d,%d)" % (self.l, self.k)


ROOT = Vertex(0, 0)


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

    def __iter__(self):
        return iter(self.bits)

    @property
    def ones(self) -> int:
        return sum(self.bits)

    @property
    def zeros(self) -> int:
        return len(self.bits) - self.ones

    def endpoint(self, start: Vertex = ROOT) -> Vertex:
        return Vertex(start.l + self.zeros, start.k + self.ones)

    def inversions(self) -> int:
        """Number of pairs i < j with bit_i = 0 and bit_j = 1."""
        zeros_seen = 0
        count = 0
        for b in self.bits:
            if b == 0:
                zeros_seen += 1
            else:
                count += zeros_seen
        return count

    def flipped(self) -> "BinaryWord":
        return BinaryWord(tuple(1 - b for b in self.bits))

    def swap_adjacent(self, i: int) -> "BinaryWord":
        if not 0 <= i < len(self.bits) - 1:
            raise ValueError("swap position out of range")
        b = list(self.bits)
        b[i], b[i + 1] = b[i + 1], b[i]
        return BinaryWord(tuple(b))


def segment_weight_sum(frm: Vertex, to: Vertex, q: QParam) -> Fraction:
    """Sum of primal path weights over all paths from ``frm`` to ``to``.

    Closed form: with n, k the level and height of ``frm`` and nu, kappa
    those of ``to``, the sum is q^((kappa-k)(n-k)) * qbinom(nu-n, kappa-k).
    Equals the Gaussian binomial when ``frm`` is the root.
    """
    if to.l < frm.l or to.k < frm.k:
        raise UnreachableError("no path from %s to %s" % (frm, to))
    n, k = frm.level, frm.k
    nu, kappa = to.level, to.k
    return q.q ** ((kappa - k) * (n - k)) * q_binomial(nu - n, kappa - k, q)


def flip_reduction(obj, q: QParam | None = None):
    """Reduce a q > 1 object to the sub-unit regime.

    Exchanging 0s and 1s turns a q-exchangeable law into a
    (1/q)-exchangeable one.  Accepts a :class:`BinaryWord` (``q``
    required) or a law triangle carrying its own q; returns the flipped
    object together with the new parameter 1/q.
    """
    from .laws import VArray

    if isinstance(obj, BinaryWord):
        if q is None:
            raise ValueError("flip of a bare word needs q")
        if q.q <= 1:
            raise NotSuperUnitError("flip reduction applies only for q > 1")
        return obj.flipped(), q.inverse

    if isinstance(obj, VArray):
        if q is not None and q.q != obj.q.q:
            raise ValueError("q = %s does not match the triangle's q = %s" % (q, obj.q))
        qp = obj.q
        if qp.q <= 1:
            raise NotSuperUnitError("flip reduction applies only for q > 1")
        power = [qp.q**j for j in range(obj.depth**2 // 4 + 1)]  # q^(k(n-k))
        rows = tuple(
            tuple(power[k * (n - k)] * obj.rows[n][n - k] for k in range(n + 1))
            for n in range(obj.depth + 1)
        )
        return VArray(qp.inverse, rows), qp.inverse

    raise TypeError("flip_reduction takes a BinaryWord or a VArray")
