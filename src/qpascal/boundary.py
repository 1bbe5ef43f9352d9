"""Boundary decomposition of q-exchangeable laws (0 < q < 1).

Every q-exchangeable law is a unique mixture of extreme laws indexed by
the points x in {q^kappa : kappa = 0, 1, ...} together with x = 0.  The
extreme law at x has triangle entries given by the kernel polynomial

    Phi[n][k](x) = q^(-k(n-k)) * x^(n-k) * prod_{i<k} (1 - x q^(-i)),

and the mixing measure of any law is recovered from deep levels of its
tilde triangle: the mass at q^kappa is the limit of tv[nu][kappa].

Moment view: the first column u_l = v[l][0] determines the whole
triangle through the modified difference operator

    (delta u)_l = q^(-l) (u_l - u_{l+1}),

namely v[n][k] = (delta^k u)_{n-k}.  The triangle is non-negative
exactly when u is "q-completely monotone" over the available window;
for finite data this is necessarily a truncated check.  It reads only
signs, so it runs on integers, fraction-free: the window is scaled once
by the lcm of its denominators and each iterate is kept over one power
of q's numerator, with no gcd per step.

The zero boundary point is passed as ``kappa = math.inf`` throughout.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .errors import InvalidArrayError
from .exactq import (
    QParam,
    _over_lcm,
    _powers,
    as_fraction,
    format_rational,
    q_binomial,
)
from .laws import Check, ForwardChain, VArray

ZERO_POINT = math.inf  # boundary point x = 0, "kappa = infinity"


def _check_kappa(kappa) -> None:
    if isinstance(kappa, float):
        if math.isinf(kappa) and kappa > 0:
            return
        raise ValueError("kappa must be a natural number or math.inf")
    if isinstance(kappa, bool) or not isinstance(kappa, int) or kappa < 0:
        raise ValueError("kappa must be a natural number or math.inf")


@dataclass(frozen=True)
class BoundaryMeasure:
    """Probability measure on {q^kappa} plus the point 0.

    ``atoms`` maps kappa to the mass at x = q^kappa; ``zero_mass`` sits
    at x = 0.  Masses are exact and must sum to exactly 1.
    """

    q: QParam
    atoms: tuple[tuple[int, Fraction], ...]
    zero_mass: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        self.q.require_sub_unit("boundary measure")
        if any(
            isinstance(k, bool) or not isinstance(k, int) or k < 0 for k, _ in self.atoms
        ):
            raise InvalidArrayError("atom indices must be non-negative integers")
        fixed = tuple(sorted((kappa, as_fraction(mass)) for kappa, mass in self.atoms))
        kappas = [kappa for kappa, _ in fixed]
        if len(set(kappas)) != len(kappas):
            raise InvalidArrayError("duplicate atom index")
        zero = as_fraction(self.zero_mass)
        if any(mass < 0 for _, mass in fixed) or zero < 0:
            raise InvalidArrayError("masses must be non-negative")
        total = sum((mass for _, mass in fixed), zero)
        if total != 1:
            raise InvalidArrayError(
                "masses sum to %s, not 1" % format_rational(total)
            )
        object.__setattr__(self, "atoms", fixed)
        object.__setattr__(self, "zero_mass", zero)

    @classmethod
    def of(cls, q: QParam, atoms: Mapping[int, object], zero_mass=0) -> "BoundaryMeasure":
        return cls(q, tuple(atoms.items()), zero_mass)

    def mass(self, kappa: int) -> Fraction:
        for k, m in self.atoms:
            if k == kappa:
                return m
        return Fraction(0)

    def to_jsonable(self) -> dict:
        return {
            "q": str(self.q),
            "atoms": [
                {"kappa": kappa, "mass": format_rational(mass)}
                for kappa, mass in self.atoms
            ],
            "zero_mass": format_rational(self.zero_mass),
        }

    @classmethod
    def from_jsonable(cls, obj: Mapping) -> "BoundaryMeasure":
        atoms = tuple((a["kappa"], a["mass"]) for a in obj["atoms"])
        return cls(QParam(obj["q"]), atoms, obj.get("zero_mass", 0))


@dataclass(frozen=True)
class MomentSequence:
    """Finite moment window (u_0, ..., u_N) of a probability measure."""

    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.values, (list, tuple)):
            raise TypeError("moments are a list, not %r" % (self.values,))
        vals = tuple(as_fraction(x) for x in self.values)
        if not vals:
            raise ValueError("moment sequence must be non-empty")
        if vals[0] != 1:
            raise ValueError("u_0 must be 1 for a probability measure")
        object.__setattr__(self, "values", vals)


def extreme_stay(kappa, q: QParam, k: int) -> Fraction:
    """P(next letter 0 | k ones so far) in the extreme law at x = q^kappa.

    It is q^(kappa-k) below kappa ones and 1 from then on; kappa = math.inf
    never emits a zero.  Both extreme samplers and laws read it.
    """
    if isinstance(kappa, float):
        return Fraction(0)
    return q.q ** (kappa - k) if k < kappa else Fraction(1)


def extreme_chain(kappa, q: QParam) -> ForwardChain:
    """The extreme law at x = q^kappa as a forward chain, p1 = 1 - q^(kappa-k)."""
    q.require_sub_unit("extreme law")
    _check_kappa(kappa)
    p_one = functools.cache(lambda k: 1 - extreme_stay(kappa, q, k))
    return ForwardChain(q, lambda n, k: p_one(k))


def extreme_array(kappa, q: QParam, depth: int) -> VArray:
    """Triangle of the extreme law at x = q^kappa (math.inf gives x = 0)."""
    return extreme_chain(kappa, q).triangle(depth)


def mixture_array(measure: BoundaryMeasure, depth: int) -> VArray:
    """Triangle of the mixture of extreme laws under ``measure``: the
    mass-weighted sum of the extreme triangles, plus zero_mass on the
    diagonal (the all-ones law at x = 0)."""
    rows = [[Fraction(0)] * (n + 1) for n in range(depth + 1)]
    for kappa, mass in measure.atoms:
        if mass:
            extreme = extreme_array(kappa, measure.q, depth).rows
            for row, ext in zip(rows, extreme):
                for k, v in enumerate(ext):
                    if v:
                        row[k] += mass * v
    for n, row in enumerate(rows):
        row[n] += measure.zero_mass
    return VArray(measure.q, rows)


def recover_measure(array: VArray, nu: int = 40, kmax: int = 12) -> BoundaryMeasure:
    """Read the mixing measure off level ``nu`` of the tilde triangle.

    The mass at q^kappa is tv[nu][kappa] = d[nu][kappa] * v[nu][kappa]
    for each kappa <= kmax; the remainder (deep-level mass above kmax)
    is assigned to the zero point.  Accuracy improves geometrically in
    nu - kmax.
    """
    array.q.require_sub_unit("measure recovery")
    if not 0 <= kmax <= nu:
        raise ValueError("need 0 <= kmax <= nu")
    if nu > array.depth:
        raise ValueError("nu = %d exceeds array depth %d" % (nu, array.depth))
    q, row = array.q, array.rows[nu]
    atoms = {kappa: q_binomial(nu, kappa, q) * row[kappa] for kappa in range(kmax + 1)}
    total = sum(atoms.values())
    if total > 1:
        raise InvalidArrayError("level %d carries more than unit mass" % nu)
    return BoundaryMeasure.of(array.q, atoms, 1 - total)


def is_q_completely_monotone(
    u: MomentSequence, q: QParam, depth: int | None = None
) -> Check:
    """Truncated q-complete monotonicity check.

    Applies the difference operator up to ``depth`` times (default: as
    far as the window allows) and reports the first negative entry as
    (iterate, index).  Non-negativity of all iterates over the window
    is the exact triangular criterion available from finite data.

    Integers only: with q = a/b in lowest terms, the window is scaled by
    the lcm of its denominators, and each iterate X is kept over one
    power of a.  An iterate of length m + 2 steps to
    X'[l] = (X[l] - X[l+1]) b^l a^(m-l), a positive multiple of the next
    iterate, so it has the same signs.
    """
    q.require_sub_unit("monotonicity check")
    max_depth = len(u.values) - 1
    if depth is None:
        depth = max_depth
    if not 0 <= depth <= max_depth:
        raise ValueError("depth must lie in [0, %d]" % max_depth)
    a, b = q.q.numerator, q.q.denominator
    a_pow, b_pow = _powers(a, max_depth), _powers(b, max_depth)
    _, current = _over_lcm(u.values)
    for it in range(depth + 1):
        if min(current) < 0:
            return Check(False, (it, next(i for i, x in enumerate(current) if x < 0)))
        if it < depth:
            m = len(current) - 2
            current = [
                (current[l] - current[l + 1]) * b_pow[l] * a_pow[m - l]
                for l in range(m + 1)
            ]
    return Check(True, None)
