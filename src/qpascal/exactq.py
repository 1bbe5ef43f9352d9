"""Exact arithmetic kernels for q-combinatorics.

Every probability-carrying quantity in this package is a
:class:`fractions.Fraction`.  This module provides the Gaussian
binomials, all from one body, :func:`gaussian_row`, which yields a row
one cell at a time, plus :class:`QParam`, the deformation parameter
q > 0.  Operations that only make sense on one side of q = 1 compare q
with 1 and raise :class:`~qpascal.errors.RegimeError`.

Rationals serialize as canonical strings ("3/4", "2", "0"), written
from a Fraction's reduced pair by :func:`format_rational`, the one cell
writer.  Text or a JSON integer is read back into a number by
:func:`as_pair` (as an integer pair, or a Fraction by
:func:`as_fraction`), a triangle file's row by :func:`as_pairs`, which
reads a row of plain cells in one pass and any other row through
:func:`as_pair`, and a count field into an int by :func:`as_count`;
this is the wire format used by every JSON and CSV surface of the
package.
"""

from __future__ import annotations

import itertools
import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import RegimeError

# a decimal literal with an exponent, in the whole grammar of Fraction's
# string reader; group 1 is the exponent
_DECIMAL = re.compile(
    r"\s*[+-]?(?=\d|\.\d)(?:\d*|\d+(?:_\d+)*)(?:\.(?:\d+(?:_\d+)*)?)?"
    r"[eE]([+-]?\d+(?:_\d+)*)\s*"
)


def as_pair(value) -> tuple[int, int]:
    """(numerator, denominator) of an exact number, denominator > 0 and the
    pair not reduced: "6/8" reads as (6, 8), with no gcd.  The one reader
    of the wire format's rationals; :func:`as_fraction` reduces its pair.

    Ints, strings and Fractions are read; floats and bools are refused,
    because Fraction(0.1) silently captures the binary approximation, not
    the decimal the caller meant.  A decimal exponent beyond the int-to-str
    digit limit is refused before 10**exponent is built, as such a number
    could not be printed back; the bound applies only to a literal that
    Fraction's grammar admits, so any other is Fraction's "Invalid literal".
    """
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    if isinstance(value, (bool, float)):
        raise TypeError(
            "exact interfaces take Fraction, int or string, not %r" % (value,)
        )
    if type(value) is int:
        return value, 1
    if isinstance(value, str):
        # a plain [+-]digits[/digits] skips Fraction's regex; int() reads
        # the digit runs Fraction would, with the same limits and messages
        num, slash, den = value.partition("/")
        digits = num[1:] if num[:1] in ("+", "-") else num
        if value.isascii():  # bytes.isdigit is isdecimal there, by a faster table
            plain = digits.encode().isdigit() and (den.encode().isdigit() or not slash)
        else:
            plain = digits.isdecimal() and (den.isdecimal() or not slash)
        if plain:
            top = -int(digits) if num[0] == "-" else int(digits)
            bottom = int(den or 1)
            if not bottom:
                raise ValueError("zero denominator in %r" % (value,))
            return top, bottom
        bound = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit
        read = bound and _DECIMAL.fullmatch(value)
        if read and abs(int(read[1])) > bound:
            exponent = read[1].replace("_", "")
            raise ValueError("decimal exponent %s exceeds %d in size" % (exponent, bound))
    try:
        out = Fraction(value)
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % (value,)) from None
    return out.numerator, out.denominator


# a comma-joined row of plain cells with its digits deleted
_PLAIN_SKELETON = re.compile(rb"[+-]?/?(?:,[+-]?/?)*")


def as_pairs(row) -> tuple[tuple[int, int], ...]:
    """The row reader: ``tuple(map(as_pair, row))`` for a list of cells,
    the same pairs or the same exception and message.

    A row of plain ``[+-]digits[/digits]`` strings is read in one pass:
    the comma-joined row is ASCII with ``len(row) - 1`` commas, and with
    its digits deleted each cell is ``[+-]?/?``; ``int`` reads each digit
    run and refuses an empty one or a sign after a digit.  Any other row,
    or a plain row with a zero denominator or a run that ``int`` refuses,
    goes through :func:`as_pair` cell by cell, which raises at the first
    bad cell.
    """
    try:
        text = ",".join(row)
    except TypeError:  # a cell that is not a string
        return tuple(map(as_pair, row))
    if (text.isascii() and text.count(",") == len(row) - 1
            and _PLAIN_SKELETON.fullmatch(text.encode().translate(None, b"0123456789"))):
        parts = [cell.partition("/") for cell in row]
        try:
            dens = [int(den) if slash else 1 for _, slash, den in parts]
            if 0 not in dens:
                return tuple(zip([int(num) for num, _, _ in parts], dens))
        except ValueError:
            pass
    return tuple(map(as_pair, row))


def as_fraction(value) -> Fraction:
    """An int or string as a Fraction, read by :func:`as_pair`; a Fraction
    as it is."""
    if isinstance(value, Fraction):
        return value
    return Fraction(*as_pair(value))


def as_count(value) -> int:
    """A count read from a file (a depth, a length, a field entry): a
    JSON integer only, never a bool, float, string or list."""
    if type(value) is not int:
        raise TypeError("a count must be an integer, not %r" % (value,))
    return value


def format_rational(x: Fraction) -> str:
    """The cell writer: "N", or "N/D" for D > 1, printed from the reduced
    pair of a Fraction, ``str(x)`` byte for byte, with the same
    ``ValueError`` past the int-to-str digit limit.  Any other exact
    number is read by :func:`as_fraction` first."""
    try:
        num, den = x._numerator, x._denominator
    except AttributeError:
        return format_rational(as_fraction(x))
    return f"{num}/{den}" if den != 1 else str(num)


def parse_rational(text: str) -> Fraction:
    """The wire format's reader; the same rule as :func:`as_fraction`."""
    return as_fraction(text)


@dataclass(frozen=True)
class QParam:
    """The deformation parameter q > 0."""

    q: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", as_fraction(self.q))
        if self.q <= 0:
            raise ValueError("q must be positive, got %s" % self.q)

    @property
    def inverse(self) -> "QParam":
        return QParam(1 / self.q)

    def require_sub_unit(self, operation: str) -> None:
        if self.q >= 1:
            raise RegimeError(
                "%s requires 0 < q < 1, got q = %s" % (operation, self.q)
            )

    def __str__(self) -> str:
        return format_rational(self.q)


def _q_integer(x, qq):
    """[x] = (1 - qq^x) / (1 - qq), and x at qq = 1, in the number type
    of qq: a Fraction, or a float in the urn's float mode."""
    return x * qq if qq == 1 else (1 - qq**x) / (1 - qq)


def q_binomial(n: int, k: int, q: QParam) -> Fraction:
    """Gaussian binomial coefficient [n k]_q; zero outside 0 <= k <= n.
    It is the last of the first min(k, n - k) + 1 cells of
    :func:`gaussian_row`, so [n 0] and [n n] cost no power."""
    if n < 0 or k < 0 or k > n:
        return Fraction(0)
    return next(itertools.islice(gaussian_row(n, q), min(k, n - k), None))


def gaussian_row(n: int, q: QParam):
    """The Gaussian binomials [n 0]_q, ..., [n n]_q, one cell at a time.

    With q = a/b in lowest terms, [n k]_q = G(n, k) / b^(k(n-k)) for the
    integer G(n, k) = prod_{i=1..k} (b^(n-k+i) - a^(n-k+i)) / (b^i - a^i),
    which is a^(k(n-k)) mod b: coprime to b.  Each cell follows from the
    one before by the exact integer division
    G(n, k+1) = G(n, k) (b^(n-k) - a^(n-k)) / (b^(k+1) - a^(k+1)), and its
    denominator by b^(n-k) / b^(k+1); at q = 1 the ratio is (n-k) / (k+1).
    [n 0] = 1 comes before any power is built, and only running powers
    are kept: memory is one cell and four powers.
    """
    yield Fraction(1)
    a, b = q.q.numerator, q.q.denominator
    g = den = 1
    a_high, b_high = a**n, b**n  # a^(n-k), b^(n-k)
    a_low = b_low = 1  # a^k, b^k
    for k in range(n):
        a_low *= a
        b_low *= b
        if a == b:
            g = g * (n - k) // (k + 1)
        else:
            g = g * (b_high - a_high) // (b_low - a_low)
            den = den * b_high // b_low
        a_high //= a
        b_high //= b
        yield _coprime(g, den)


def _over_lcm(pairs) -> tuple[int, list[int]]:
    """(D, [n * D / d for n, d in pairs]) for D the lcm of the denominators
    d > 0: the values as integers over one positive denominator, each with
    its sign.  Denominators that divide the running D, as most do in a real
    row, cost one remainder and no gcd."""
    lcm = 1
    for _, d in pairs:
        if lcm % d:
            lcm = lcm // math.gcd(lcm, d) * d
    return lcm, [n * (lcm // d) for n, d in pairs]


def _powers(base: int, top: int) -> list[int]:
    """[base**0, ..., base**top]."""
    out = [1]
    for _ in range(top):
        out.append(out[-1] * base)
    return out


def _coprime(top: int, bottom: int) -> Fraction:
    """Fraction(top, bottom) for coprime top and bottom > 0, without a gcd."""
    out = object.__new__(Fraction)
    out._numerator, out._denominator = top, bottom
    return out
