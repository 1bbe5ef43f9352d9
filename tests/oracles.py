"""Independent oracles that the tests hold the package to.

Each function here recomputes by a closed form or by brute-force
enumeration something that ``qpascal`` computes another way, and no
command of the package runs it, so it lives with the tests and not in
the package:

    q_integer                [n] as the sum 1 + q + ... + q^(n-1)
    q_factorial              [n]!, whose ratios give the Gaussian binomial
    q_binomial_product       the Gaussian binomial as a product of q-integers
    q_pochhammer             the finite product (x, q)_k
    q_pochhammer_infinite, q_pochhammer_bounds
                             (x, q)_inf as a float and as a certified
                             rational enclosure
    Vertex, ROOT, endpoint   lattice vertices and a word's end vertex
    path_weight              the weight of one lattice path
    segment_weight_sum       segment weight sums by their closed form
    brute_force_weight_sum   segment weight sums by path enumeration
    backward_kernel, multistep_backward
                             the law of an earlier height given a later one
    extreme_kernel           the closed-form kernel Phi[n][k](x)
    first_column, moments_of, array_from_moments, q_difference
                             the moment view of a triangle
    check_recursion_fractions, is_q_completely_monotone_fractions
                             the package's two checks in Fraction
                             arithmetic, one normalised value per step
    triangle_fractions, tilde_of_v_fractions, check_levels_fractions,
    mixture_array_fractions, polya_chain_fractions
                             the package's triangle, tilde and mixture
                             builders, its level-sum check and the urn's
                             exact p1, in Fraction arithmetic
    all_words                every word of one length
    inversions               a word's pairs i < j with a 0 before a 1
    word_probability         a word's probability under a triangle
    law_of_array             a triangle's law on words of one length
    chain_law                a forward chain's law on words of one length,
                             by walking its decision tree over ``chain.p1``
    law_to_jsonable, varray_from_jsonable
                             a word law as JSON, and a triangle file as a
                             VArray through ``read_triangle``
    v_of_tilde               the inverse of ``laws.tilde_of_v``
    RunEncoding, word_to_runs, runs_to_word
                             the run-length view of a word
    runs_law                 the law of the extreme runs sampler
    runs_word                the extreme runs sampler's word, each run
                             drawn at its full geometric length
    geometric_scan, geometric_by_log
                             a geometric variate by scanning powers, and
                             by a float estimate corrected exactly
    polya_forward_probs      the urn's closed-form forward probabilities
    atom_mass                a boundary measure's mass at one kappa
    theta_boundary_measure, polya_boundary_measure
                             the mixing measures of the theta and urn
                             processes (q-Poisson and q-beta weights)
    forward_level            a chain's level law by a forward pass
    tv_distance              total variation against an exact level law
    field_sub                x - y in a field
    rref_canonicalize, checked_rref
                             reduced row echelon form by Gauss-Jordan
                             elimination, and a subspace held to it
    spanned, full_space, contains, span_vectors
                             a subspace from spanning vectors, the whole
                             space, membership, and every vector of a span
    project_down, list_extensions
                             the backward and forward steps of subspace growth
    growth_by_rebuild        ``sample_growth`` with each step's basis
                             eliminated afresh from the last one and the
                             new vector
    grassmannian_by_cells    ``enumerate_grassmannian`` with each basis
                             filled in cell by cell
    exact_growth_law         the subspace growth chain by exact branching

The path-enumeration guard of ``brute_force_weight_sum``, the word
guard of ``all_words`` and ``chain_law`` and the extension guard of
``list_extensions`` are the package's ``guards.check_count`` rule.  The
extreme stay ratio q^(kappa-k) and the q-number [x] = (1 - q^x) / (1 - q)
are written out here, not imported, so a wrong power or q-integer in the
package cannot pass its own oracle.  Subspaces are stepped with the public field
arithmetic and ``rref_canonicalize``, a Gauss-Jordan elimination over
``FieldSpec.add/mul/neg/inv`` that shares nothing with the package's
growth step.  ``Subspace(...)`` checks nothing, so every basis built
here by hand goes through ``checked_rref``, but for the RREF patterns
that ``grassmannian_by_cells`` fills in, whose many small bases the
tests compare with the package's.

The infinite products truncate by TRUNCATION_TERMS and
TRUNCATION_TARGET, by different rules.  The float value stops at the
first N with |x| q^N < TRUNCATION_TARGET, or at N = TRUNCATION_TERMS,
and returns unless its tail estimate |x| q^N / (1 - q) is 1 or more.
The enclosure stops at the first N with both |x| q^N < TRUNCATION_TARGET
and |x| q^N < (1 - q)/2, and raises if it reaches TRUNCATION_TERMS
factors first.  The measures certify their truncation with these exact
bounds, so their atom masses never overshoot: the masses plus the
reported zero_mass sum to exactly 1, and the atom total undershoots the
true normalization by less than the relative error TRUNCATION_TARGET.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

from qpascal import guards
from qpascal.boundary import BoundaryMeasure, MomentSequence, extreme_chain
from qpascal.errors import InvalidArrayError, QPascalError, RegimeError
from qpascal.exactq import QParam, as_fraction, format_rational, gaussian_row, q_binomial
from qpascal.galois import (
    DEFAULT_SUBSPACE_LIMIT,
    FieldSpec,
    Subspace,
    growth_q_param,
)
from qpascal.laws import (
    MAX_WORD_LENGTH,
    Check,
    FiniteLaw,
    ForwardChain,
    TildeArray,
    VArray,
    read_triangle,
)
from qpascal.pascal_graph import BinaryWord
from qpascal.processes import PolyaParams, ThetaParams, extreme_runs_sampler
from qpascal.rng import SplitMix64, bernoulli_threshold


class InfiniteProductOutsideSubUnit(RegimeError):
    """Infinite q-Pochhammer products converge only for 0 < q < 1."""


class UnreachableError(QPascalError):
    """No directed path connects the two vertices."""


# truncation constants; the module docstring gives each product's rule
TRUNCATION_TERMS = 10_000
TRUNCATION_TARGET = Fraction(1, 10**12)


def _stay(kappa, qq: Fraction, k: int) -> Fraction:
    """P(next letter 0 | k ones) in the extreme law at x = q^kappa:
    q^(kappa-k) below kappa ones, 1 from then on, 0 at kappa = math.inf."""
    if kappa == math.inf:
        return Fraction(0)
    return qq ** (kappa - k) if k < kappa else Fraction(1)


def _q_number(x, qq):
    """[x] = (1 - q^x) / (1 - q), and x at q = 1, in the number type of qq."""
    return x * qq if qq == 1 else (1 - qq**x) / (1 - qq)


def q_integer(n: int, q: QParam) -> Fraction:
    """[n] = 1 + q + ... + q^(n-1), term by term over the common
    denominator b^(n-1) of q = a/b; zero for n = 0."""
    if n < 0:
        raise ValueError("q_integer needs n >= 0, got %d" % n)
    if not n:
        return Fraction(0)
    a, b = q.q.numerator, q.q.denominator
    return Fraction(sum(a**i * b ** (n - 1 - i) for i in range(n)), b ** (n - 1))


def q_factorial(n: int, q: QParam) -> Fraction:
    """[n]! = [1][2]...[n]; empty product 1 for n = 0."""
    if n < 0:
        raise ValueError("q_factorial needs n >= 0, got %d" % n)
    return math.prod((q_integer(i, q) for i in range(1, n + 1)), start=Fraction(1))


def q_binomial_product(n: int, k: int, q: QParam) -> Fraction:
    """[n k]_q = prod_{i=1..k} [n-k+i] / [i]; zero outside 0 <= k <= n."""
    if not 0 <= k <= n:
        return Fraction(0)
    return math.prod(
        (q_integer(n - k + i, q) / q_integer(i, q) for i in range(1, k + 1)),
        start=Fraction(1),
    )


def q_pochhammer(x: Fraction | int | str, q: QParam, k: int) -> Fraction:
    """(x, q)_k = prod_{i<k} (1 - x q^i), exactly; the infinite product
    is :func:`q_pochhammer_infinite`."""
    if not isinstance(k, int) or k < 0:
        raise ValueError("k must be a natural number, got %r" % (k,))
    xf = as_fraction(x)
    qq = q.q
    out = Fraction(1)
    power = Fraction(1)
    for _ in range(k):
        out *= 1 - xf * power
        if out == 0:
            break
        power *= qq
    return out


class InfiniteProduct(NamedTuple):
    """Truncated infinite product with a certified absolute error bound."""

    value: float
    error_bound: float
    terms: int


def q_pochhammer_infinite(
    x: Fraction | int | str | float, q: QParam
) -> InfiniteProduct:
    """(x, q)_inf for 0 < q < 1, in floating point.

    Stops once |x| q^i < TRUNCATION_TARGET (or at TRUNCATION_TERMS) and
    reports |true - value| <= error_bound, obtained from the elementary
    enclosure prod_{i>=N} (1 - x q^i) in [1 - s, 1/(1 - s)] where
    s = |x| q^N / (1 - q) < 1.
    """
    if q.q >= 1:
        raise InfiniteProductOutsideSubUnit(
            "infinite product diverges unless 0 < q < 1, got q = %s" % q.q
        )
    xf = float(x if isinstance(x, float) else as_fraction(x))
    qf = float(q.q)
    target = float(TRUNCATION_TARGET)
    value = 1.0
    term = abs(xf)
    n = 0
    while term >= target and n < TRUNCATION_TERMS:
        value *= 1.0 - xf * qf**n
        n += 1
        term *= qf
    s = term / (1.0 - qf)
    if s >= 1.0:
        raise ValueError(
            "tail estimate %.3g has not converged within TRUNCATION_TERMS = %d "
            "terms and TRUNCATION_TARGET = %s"
            % (s, TRUNCATION_TERMS, TRUNCATION_TARGET)
        )
    error = abs(value) * s / (1.0 - s)
    return InfiniteProduct(value=value, error_bound=error, terms=n)


def q_pochhammer_bounds(
    x: Fraction | int | str, q: QParam
) -> tuple[Fraction, Fraction]:
    """Certified rational enclosure [lo, hi] of (x, q)_inf for x < 1.

    Used by the boundary-measure constructors so that truncation error
    stays an exact rational and normalizations can be bounded from the
    safe side.  Requires 0 < q < 1 and x < 1 (all factors positive).
    """
    if q.q >= 1:
        raise InfiniteProductOutsideSubUnit(
            "infinite product diverges unless 0 < q < 1, got q = %s" % q.q
        )
    xf = as_fraction(x)
    if xf >= 1:
        raise ValueError("rational enclosure implemented only for x < 1")
    qq = q.q
    partial = Fraction(1)
    power = Fraction(1)  # q^n
    n = 0
    # Also force |x| q^n / (1-q) < 1/2 so the tail enclosure is valid.
    while n < TRUNCATION_TERMS:
        term = abs(xf) * power
        if term < TRUNCATION_TARGET and term < (1 - qq) / 2:
            break
        partial *= 1 - xf * power
        power *= qq
        n += 1
    else:
        raise ValueError(
            "TRUNCATION_TERMS = %d reached before the tail bound converged"
            % TRUNCATION_TERMS
        )
    s = abs(xf) * power / (1 - qq)
    if xf >= 0:
        # factors in (0, 1]: the tail only shrinks the product
        return partial * (1 - s), partial
    # factors >= 1: the tail only grows it, by at most 1/(1-s)
    return partial, partial / (1 - s)


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


def endpoint(word: BinaryWord, start: Vertex = ROOT) -> Vertex:
    """The vertex the path of ``word`` reaches from ``start``."""
    return Vertex(start.l + len(word) - word.ones, start.k + word.ones)


def path_weight(
    word: BinaryWord, q: QParam, start: Vertex = ROOT, dual: bool = False
) -> Fraction:
    """Weight of the path traced by ``word`` starting at ``start``."""
    l, k = start.l, start.k
    exponent = 0
    for b in word.bits:
        if b:
            if not dual:
                exponent += l
            k += 1
        else:
            if dual:
                exponent += k
            l += 1
    return q.q**exponent


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


def brute_force_weight_sum(
    frm: Vertex, to: Vertex, q: QParam, dual: bool = False
) -> Fraction:
    """Same sum by explicit enumeration of every lattice path.

    Kept deliberately independent of :func:`segment_weight_sum` so the
    two can cross-check each other.  Guarded: at most C(22, 11) =
    705,432 paths unless QB_MAX_ENUM sets another bound.
    """
    if to.l < frm.l or to.k < frm.k:
        raise UnreachableError("no path from %s to %s" % (frm, to))
    dl = to.l - frm.l
    dk = to.k - frm.k
    steps = dl + dk
    counts = (math.comb(max(dk, dl) + i, i) for i in range(min(dk, dl) + 1))
    guards.check_count(counts, math.comb(22, 11), "path enumeration")

    # For a path whose 1-steps sit at positions p_0 < ... < p_{dk-1},
    # the primal exponent is frm.l*dk + sum(p_j - j), and the dual
    # exponent is frm.k*dl plus the complementary inversion count.
    exponent_counts: dict[int, int] = {}
    for positions in itertools.combinations(range(steps), dk):
        zero_one = sum(p - j for j, p in enumerate(positions))
        if dual:
            e = frm.k * dl + (dl * dk - zero_one)
        else:
            e = frm.l * dk + zero_one
        exponent_counts[e] = exponent_counts.get(e, 0) + 1
    qq = q.q
    return sum((count * qq**e for e, count in exponent_counts.items()), Fraction(0))


def backward_kernel(n: int, k: int, q: QParam) -> tuple[Fraction, Fraction]:
    """One-step backward transition at (n, k).

    Returns (p_stay, p_down): probability that the length-(n-1) prefix
    kept k ones, respectively k-1 ones.  These depend only on (n, k, q),
    not on the law: the one-step case of :func:`multistep_backward`.
    """
    if n < 1 or not 0 <= k <= n:
        raise ValueError("need n >= 1 and 0 <= k <= n")
    p_stay = multistep_backward(n - 1, k, n, k, q) if k < n else Fraction(0)
    p_down = multistep_backward(n - 1, k - 1, n, k, q) if k else Fraction(0)
    return p_stay, p_down


def multistep_backward(
    n: int, k: int, nu: int, kappa: int, q: QParam
) -> Fraction:
    """P(height k at level n | height kappa at level nu), for n <= nu: the
    weight of the paths through (n, k) over the weight of all paths."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    if not 0 <= kappa <= nu:
        raise ValueError("need 0 <= kappa <= nu")
    if n > nu:
        raise ValueError("need n <= nu")
    if k > kappa or n - k > nu - kappa:
        return Fraction(0)
    through = segment_weight_sum(Vertex(n - k, k), Vertex(nu - kappa, kappa), q)
    return through * q_binomial(n, k, q) / q_binomial(nu, kappa, q)


def extreme_kernel(
    n: int, k: int, x, q: QParam
) -> tuple[Fraction, Fraction]:
    """Evaluate the extreme-law kernel at x in [0, 1].

    Returns (value, weighted) where weighted = qbinom(n, k) * value is
    the corresponding level mass.  ``value`` vanishes at x = q^kappa
    whenever k > kappa.
    """
    q.require_sub_unit("extreme kernel")
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    xf = as_fraction(x)
    if not 0 <= xf <= 1:
        raise ValueError("x must lie in [0, 1], got %s" % xf)
    prod = q_pochhammer(xf, q.inverse, k)
    if prod == 0:
        return Fraction(0), Fraction(0)
    value = q.q ** (-k * (n - k)) * xf ** (n - k) * prod
    return value, q_binomial(n, k, q) * value


def first_column(array: VArray) -> tuple[Fraction, ...]:
    return tuple(row[0] for row in array.rows)


def moments_of(array: VArray) -> MomentSequence:
    """First column of the triangle: u_l = v[l][0] = E[x^l]."""
    return MomentSequence(first_column(array))


def q_difference(u: Sequence[Fraction], q: QParam) -> tuple[Fraction, ...]:
    """One application of (delta u)_l = q^(-l) (u_l - u_{l+1})."""
    q.require_sub_unit("q-difference")
    qq = q.q
    return tuple(
        (u[l] - u[l + 1]) / qq**l for l in range(len(u) - 1)
    )


def is_q_completely_monotone_fractions(
    u: MomentSequence, q: QParam, depth: int | None = None
) -> Check:
    """Truncated q-complete monotonicity check.

    Applies the difference operator up to ``depth`` times (default: as
    far as the window allows) and reports the first negative entry as
    (iterate, index).  Non-negativity of all iterates over the window
    is the exact triangular criterion available from finite data.
    """
    q.require_sub_unit("monotonicity check")
    current = u.values
    max_depth = len(current) - 1
    if depth is None:
        depth = max_depth
    if not 0 <= depth <= max_depth:
        raise ValueError("depth must lie in [0, %d]" % max_depth)
    for it in range(depth + 1):
        for idx, value in enumerate(current):
            if value < 0:
                return Check(False, (it, idx))
        if it < depth:
            current = q_difference(current, q)
    return Check(True, None)


def check_recursion_fractions(array: VArray) -> Check:
    """Exact check of v[0][0] = 1, non-negativity, and the recursion; the
    witness is the first offending (n, k)."""
    qq = array.q.q
    rows = array.rows
    if rows[0][0] != 1:
        return Check(False, (0, 0))
    depth = array.depth
    power = [qq**j for j in range(depth + 1)]  # q^(n-k)
    for n in range(depth + 1):
        for k in range(n + 1):
            if rows[n][k] < 0:
                return Check(False, (n, k))
            if n < depth:
                expected = rows[n + 1][k] + power[n - k] * rows[n + 1][k + 1]
                if rows[n][k] != expected:
                    return Check(False, (n, k))
    return Check(True, None)


def triangle_fractions(chain: ForwardChain, depth: int) -> VArray:
    """v[n+1][k] = v[n][k] (1 - p1(n, k)) and v[n+1][n+1] = v[n][n] p1(n, n):
    only the canonical words 1^k 0^(n-k) are extended."""
    p1 = chain.p1
    row = [Fraction(1)]
    rows = [row]
    for n in range(depth):
        row = [v * (1 - p1(n, k)) for k, v in enumerate(row)] + [row[n] * p1(n, n)]
        rows.append(row)
    return VArray(chain.q, rows)


def tilde_of_v_fractions(array: VArray) -> TildeArray:
    rows = tuple(
        tuple(d * x for d, x in zip(gaussian_row(n, array.q), row))
        for n, row in enumerate(array.rows)
    )
    return TildeArray(array.q, rows)


def check_levels_fractions(rows) -> None:
    """The level-sum check of ``TildeArray`` on rows of Fractions."""
    for n, row in enumerate(rows):
        if any(x < 0 for x in row):
            raise InvalidArrayError("negative mass in level %d" % n)
        if sum(row) != 1:
            raise InvalidArrayError(
                "level %d sums to %s, not 1" % (n, format_rational(sum(row)))
            )


def mixture_array_fractions(measure: BoundaryMeasure, depth: int) -> VArray:
    """Triangle of the mixture of extreme laws under ``measure``: the
    mass-weighted sum of the extreme triangles, plus zero_mass on the
    diagonal (the all-ones law at x = 0)."""
    rows = [[Fraction(0)] * (n + 1) for n in range(depth + 1)]
    for kappa, mass in measure.atoms:
        if mass:
            extreme = triangle_fractions(extreme_chain(kappa, measure.q), depth).rows
            for row, ext in zip(rows, extreme):
                for k, v in enumerate(ext):
                    if v:
                        row[k] += mass * v
    for n, row in enumerate(rows):
        row[n] += measure.zero_mass
    return VArray(measure.q, rows)


def polya_chain_fractions(params: PolyaParams) -> ForwardChain:
    """The exact urn as a forward chain whose p1 is
    q^(n-k+b) [a+k] / [a+b+n] in Fraction arithmetic."""
    a, b, q = params.a, params.b, params.q.q
    return ForwardChain(
        params.q, lambda n, k: q ** (n - k + b) * _q_number(a + k, q) / _q_number(a + b + n, q)
    )


def array_from_moments(u: MomentSequence, q: QParam) -> VArray:
    """Rebuild the full triangle from its first column.

    v[n][k] = (delta^k u)_{n-k}; the result satisfies the backward
    recursion identically, so rebuilding the first column of a valid
    triangle reproduces it exactly.
    """
    q.require_sub_unit("triangle rebuild")
    depth = len(u.values) - 1
    iterates = [u.values]
    for _ in range(depth):
        iterates.append(q_difference(iterates[-1], q))
    rows = tuple(
        tuple(iterates[k][n - k] for k in range(n + 1)) for n in range(depth + 1)
    )
    return VArray(q, rows)


def _word_guard(n: int) -> None:
    """The word-law guard on the 2**n words of length n."""
    guards.check_count((2**i for i in range(n + 1)), 2**MAX_WORD_LENGTH, "word law")


def all_words(n: int):
    """Every 0/1 word of length n, in lexicographic order."""
    _word_guard(n)
    return (BinaryWord(bits) for bits in itertools.product((0, 1), repeat=n))


def inversions(word: BinaryWord) -> int:
    """Number of pairs i < j with bit_i = 0 and bit_j = 1."""
    bits = word.bits
    return sum(1 for i, j in itertools.combinations(range(len(bits)), 2)
               if (bits[i], bits[j]) == (0, 1))


def word_probability(array: VArray, word: BinaryWord) -> Fraction:
    """Probability of ``word`` as a prefix under the law of ``array``."""
    n = len(word)
    if n > array.depth:
        raise ValueError(
            "word of length %d exceeds array depth %d" % (n, array.depth)
        )
    return array.q.q ** inversions(word) * array.rows[n][word.ones]


def law_of_array(array: VArray, n: int) -> FiniteLaw:
    """Restrict the law of ``array`` to words of length n (n <= 20)."""
    return FiniteLaw(n, {w: word_probability(array, w) for w in all_words(n)})


def chain_law(chain: ForwardChain, n: int) -> FiniteLaw:
    """Exact law of the first n letters of a forward chain, by walking
    its decision tree over ``chain.p1``."""
    _word_guard(n)
    paths = [((), 0, Fraction(1))]
    for m in range(n):
        nxt = []
        for bits, k, p in paths:
            p_one = chain.p1(m, k)
            nxt.append((bits + (0,), k, p * (1 - p_one)))
            nxt.append((bits + (1,), k + 1, p * p_one))
        paths = nxt
    return FiniteLaw(n, {BinaryWord(bits): p for bits, _, p in paths})


def law_to_jsonable(law: FiniteLaw) -> dict:
    """A word law in the file shape ``check --kind exchangeable`` reads."""
    items = sorted(law.probs.items(), key=lambda kv: str(kv[0]))
    return {"n": law.n, "probs": {str(w): format_rational(p) for w, p in items}}


def varray_from_jsonable(obj: Mapping) -> VArray:
    """A triangle file as a VArray of Fractions, read by ``read_triangle``."""
    q, rows = read_triangle(obj)
    return VArray(q, [[Fraction(*cell) for cell in row] for row in rows])


def v_of_tilde(array: TildeArray) -> VArray:
    rows = tuple(
        tuple(x / q_binomial(n, k, array.q) for k, x in enumerate(row))
        for n, row in enumerate(array.rows)
    )
    return VArray(array.q, rows)


@dataclass(frozen=True)
class RunEncoding:
    """Run-length view of a word: zero-run lengths between successive ones.

    ``runs[i]`` counts the zeros before the (i+1)-th one; ``open_zeros``
    counts zeros after the last one (the start of an unterminated run).
    """

    runs: tuple[int, ...]
    open_zeros: int = 0

    def __post_init__(self) -> None:
        if any(r < 0 for r in self.runs) or self.open_zeros < 0:
            raise ValueError("run lengths must be non-negative")

    @property
    def trailing(self) -> bool:
        return self.open_zeros > 0


def word_to_runs(word: BinaryWord) -> RunEncoding:
    runs = []
    current = 0
    for b in word.bits:
        if b:
            runs.append(current)
            current = 0
        else:
            current += 1
    return RunEncoding(tuple(runs), current)


def runs_to_word(encoding: RunEncoding) -> BinaryWord:
    bits: list[int] = []
    for r in encoding.runs:
        bits.extend([0] * r)
        bits.append(1)
    bits.extend([0] * encoding.open_zeros)
    return BinaryWord(tuple(bits))


def runs_law(kappa, q: QParam, n: int) -> FiniteLaw:
    """Law of a length-n sample of ``extreme_runs_sampler(kappa, q)``,
    by exact enumeration of the sampler's decision tree (branch
    probabilities taken as exact rationals)."""
    extreme_runs_sampler(kappa, q)  # the sampler's checks of q and kappa
    probs = {}
    for word in all_words(n):
        enc = word_to_runs(word)
        p = Fraction(1)
        for i, run in enumerate(enc.runs):
            r = _stay(kappa, q.q, i)
            p *= r**run * (1 - r)
            if p == 0:
                break
        if p != 0 and enc.open_zeros:
            p *= _stay(kappa, q.q, len(enc.runs)) ** enc.open_zeros
        probs[word] = p
    return FiniteLaw(n, probs)


def geometric_scan(j: int, ratio: Fraction) -> int:
    """Failures before the first success read from the 64-bit draw j: the
    smallest t with ratio^(t+1) < (2^64 - j) / 2^64, found by exact
    integer cross-multiplication one power at a time."""
    target = (1 << 64) - j
    rn, rd = ratio.numerator, ratio.denominator
    pn, pd = rn, rd
    t = 0
    while pn << 64 >= pd * target:
        pn *= rn
        pd *= rd
        t += 1
    return t


def geometric_by_log(j: int, ratio: Fraction) -> int:
    """``geometric_scan``'s variate at any size: the float estimate
    log(1 - u) / log(ratio), corrected by exact comparisons of
    ratio^(t+1) with (2^64 - j) / 2^64, so it costs a few powers, not
    one per failure."""
    if ratio == 0:
        return 0
    target = (1 << 64) - j
    rn, rd = ratio.numerator, ratio.denominator

    def below(e: int) -> bool:  # ratio^e < target / 2^64
        return rn**e << 64 < rd**e * target

    t = max(int(math.log(target / 2.0**64) / math.log(rn / rd)), 0)
    while t and below(t):
        t -= 1
    while not below(t + 1):
        t += 1
    return t


def runs_word(kappa, q: QParam, n: int, rng: SplitMix64) -> BinaryWord:
    """The word of ``extreme_runs_sampler(kappa, q)`` on ``rng``, each
    zero run drawn at its full geometric length by ``geometric_by_log``,
    with the stay ratio q^(kappa-i) written out; one draw per run."""
    ones, filled, k = set(), 0, 0
    while filled < n and k < kappa:
        filled += geometric_by_log(rng.next_uint64(), _stay(kappa, q.q, k))
        if filled >= n:
            break
        ones.add(filled)
        filled += 1
        k += 1
    return BinaryWord(tuple(int(m in ones) for m in range(n)))


def uniform_scan(rng: SplitMix64, m: int) -> int:
    """A uniform integer below m by the rejection rule of ``rng``'s
    docstring, one draw at a time: draws at or above m * floor(2^64 / m)
    are passed over, and m = 1 draws nothing."""
    if m == 1:
        return 0
    cutoff = m * ((1 << 64) // m)
    j = rng.next_uint64()
    while j >= cutoff:
        j = rng.next_uint64()
    return j % m


def polya_forward_probs(params: PolyaParams, n: int, k: int):
    """(P(next bit 0), P(next bit 1)) from state (n, k); exact when possible."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    a, b, q = params.a, params.b, params.q.q
    if params.float_mode:
        a, b, q = float(a), float(b), float(q)
    total = _q_number(a + b + n, q)
    p_zero = _q_number(b + n - k, q) / total
    p_one = q ** (n - k + b) * _q_number(a + k, q) / total
    return p_zero, p_one


def atom_mass(measure: BoundaryMeasure, kappa: int) -> Fraction:
    """The mass of ``measure`` at x = q^kappa; zero off its atoms."""
    return dict(measure.atoms).get(kappa, Fraction(0))


def theta_boundary_measure(params: ThetaParams, kmax: int = 80) -> BoundaryMeasure:
    """Mixing measure of the theta process (q-Poisson weights).

    mass(kappa) proportional to q^(kappa(kappa-1)/2) theta^kappa / (q,q)_kappa,
    normalized by (-theta, q)_inf.  The normalizer is replaced by its
    certified rational upper bound, so atom masses never overshoot and
    the complement assigned to zero_mass stays non-negative.
    """
    if params.infinite:
        raise ValueError("theta must be finite for the mixing measure")
    theta, q = params.theta, params.q
    qq = q.q
    _, z_hi = q_pochhammer_bounds(-theta, q)
    atoms = {}
    poch = Fraction(1)  # (q, q)_kappa
    for kappa in range(kmax + 1):
        term = qq ** (kappa * (kappa - 1) // 2) * theta**kappa / poch
        atoms[kappa] = term / z_hi
        poch *= 1 - qq ** (kappa + 1)
    total = sum(atoms.values())
    return BoundaryMeasure.of(q, atoms, 1 - total)


def polya_boundary_measure(params: PolyaParams, kmax: int = 80) -> BoundaryMeasure:
    """Mixing measure of the urn process (q-beta weights).

    mass(kappa) = (q^a,q)_kappa q^(kappa b) / (q,q)_kappa
                  * (q^b,q)_inf / (q^(a+b),q)_inf.

    For a = 1 the infinite products cancel to (1 - q^b) and the measure
    is computed exactly (geometric with parameter 1 - q^b).  Otherwise
    the normalizing ratio is replaced by a certified rational lower
    bound, so atoms never overshoot.  Non-integer strengths fall back to
    floats with the same shape.
    """
    q = params.q
    q.require_sub_unit("urn mixing measure")
    a, b, qq = params.a, params.b, q.q
    if params.float_mode:
        a, b, qq = float(a), float(b), float(qq)
        ratio = (
            q_pochhammer_infinite(qq**b, q).value
            / q_pochhammer_infinite(qq ** (a + b), q).value
        )
    elif a == 1:
        base = qq**b
        atoms = {kappa: (1 - base) * base**kappa for kappa in range(kmax + 1)}
        return BoundaryMeasure.of(q, atoms, base ** (kmax + 1))
    else:  # a certified lower bound of the ratio
        n_lo, _ = q_pochhammer_bounds(qq**b, q)
        _, d_hi = q_pochhammer_bounds(qq ** (a + b), q)
        ratio = n_lo / d_hi
    atoms = {}
    poch_a = poch_q = 1  # (q^a, q)_kappa and (q, q)_kappa
    for kappa in range(kmax + 1):
        atoms[kappa] = Fraction(poch_a * qq ** (kappa * b) / poch_q * ratio)
        poch_a *= 1 - qq ** (a + kappa)
        poch_q *= 1 - qq ** (kappa + 1)
    total = sum(atoms.values())
    if params.float_mode and total > 1:  # float overshoot: rescale once, exactly
        atoms = {kappa: m / total for kappa, m in atoms.items()}
        total = Fraction(1)
    return BoundaryMeasure.of(q, atoms, 1 - total)


def forward_level(p1, n: int) -> list:
    """The law of the number of ones after n letters of the chain with
    forward probabilities p1(m, k), pushed forward one letter at a time
    over every reachable cell.  An exact p1 gives Fractions; a float p1
    gives floats."""
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


def tv_distance(
    counts: Mapping[int, int], trials: int, exact_level: Sequence[Fraction]
) -> Fraction:
    """Total variation between empirical frequencies and an exact level law."""
    keys = set(counts) | set(range(len(exact_level)))
    total = Fraction(0)
    for k in keys:
        empirical = Fraction(counts.get(k, 0), trials)
        exact = exact_level[k] if k < len(exact_level) else Fraction(0)
        total += abs(empirical - exact)
    return total / 2


def field_sub(field: FieldSpec, x: int, y: int) -> int:
    """x - y, as x plus the negative of y."""
    return field.add(x, field.neg(y))


def rref_canonicalize(
    field: FieldSpec, n: int, vectors: Sequence[Sequence[int]]
) -> tuple[tuple[int, ...], ...]:
    """Reduced row echelon form of the span of ``vectors`` in field^n, zero
    rows dropped: Gauss-Jordan elimination, one column at a time.
    ValueError for a negative n, a vector of another length or an entry
    that is not a field element."""
    if n < 0:
        raise ValueError("ambient dimension must be non-negative")
    rows = []
    for vector in vectors:
        if len(vector) != n:
            raise ValueError("vector length %d does not match ambient %d" % (len(vector), n))
        for entry in vector:
            field.decode(entry)  # its ValueError for a non-element
        rows.append(list(vector))
    done = []
    for col in range(n):
        i = next((i for i, row in enumerate(rows) if row[col]), None)
        if i is None:
            continue
        scale = field.inv(rows[i][col])
        pivot = [field.mul(scale, e) for e in rows.pop(i)]
        for row in rows + done:
            if row[col]:
                c = field.neg(row[col])
                row[:] = [field.add(e, field.mul(c, x)) for e, x in zip(row, pivot)]
        done.append(pivot)
    return tuple(tuple(row) for row in done)


def checked_rref(space: Subspace) -> Subspace:
    """``space``, whose basis must be a tuple of row tuples that is its own
    reduced row echelon form; ValueError otherwise."""
    n, basis = space.ambient_dim, space.basis
    if not isinstance(basis, tuple) or not all(isinstance(row, tuple) for row in basis):
        raise ValueError("basis must be a tuple of row tuples")
    if rref_canonicalize(space.field, n, basis) != basis:
        raise ValueError("basis rows are not in reduced row echelon form")
    return space


def spanned(field: FieldSpec, n: int, vectors: Sequence[Sequence[int]]) -> Subspace:
    """The span of ``vectors`` in field^n."""
    return checked_rref(Subspace(field, n, rref_canonicalize(field, n, vectors)))


def full_space(field: FieldSpec, n: int) -> Subspace:
    """field^n itself."""
    identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    return checked_rref(Subspace(field, n, identity))


def contains(space: Subspace, vector: Sequence[int]) -> bool:
    """Whether ``vector`` lies in ``space``: adding it leaves the RREF basis
    as it is.  False for a wrong length; ValueError for an entry that is
    not a field element, or for a basis not in RREF."""
    if len(vector) != space.ambient_dim:
        return False
    basis = checked_rref(space).basis + (tuple(vector),)
    return rref_canonicalize(space.field, space.ambient_dim, basis) == space.basis


def span_vectors(space: Subspace):
    """All q^dim vectors of ``space``, one per coefficient tuple."""
    field = space.field
    for coeffs in itertools.product(field.elements(), repeat=space.dim):
        v = (0,) * space.ambient_dim
        for c, row in zip(coeffs, space.basis):
            v = tuple(field.add(x, field.mul(c, r)) for x, r in zip(v, row))
        yield v


def project_down(subspace: Subspace) -> Subspace:
    """Intersect with the hyperplane (last coordinate 0) and drop that
    coordinate: the backward step of the growth process."""
    if subspace.ambient_dim == 0:
        raise ValueError("nothing to project from ambient dimension 0")
    field, n = subspace.field, subspace.ambient_dim
    rows = [list(r) for r in subspace.basis]
    carriers = [r for r in rows if r[-1]]
    if carriers:
        # the carrier with the last pivot: clearing the last column with
        # it keeps the other rows in RREF, as no other row has that pivot
        pivot_row = carriers[-1]
        scale = field.inv(pivot_row[-1])
        for r in rows:
            if r is not pivot_row and r[-1]:
                c = field.neg(field.mul(r[-1], scale))
                r[:] = [field.add(e, field.mul(c, s)) for e, s in zip(r, pivot_row)]
        rows.remove(pivot_row)
    return checked_rref(Subspace(field, n - 1, tuple(tuple(r[:-1]) for r in rows)))


def list_extensions(subspace: Subspace) -> list[Subspace]:
    """All subspaces of field^(n+1) meeting field^n in this one: the padded
    copy plus q^(n-k) grown ones, refused above DEFAULT_SUBSPACE_LIMIT."""
    field, n = subspace.field, subspace.ambient_dim
    counts = (field.size**i for i in range(subspace.codim + 1))
    guards.check_count(counts, DEFAULT_SUBSPACE_LIMIT, "extensions")
    padded = tuple(row + (0,) for row in subspace.basis)
    out = [checked_rref(Subspace(field, n + 1, padded))]
    pivots = {next(j for j, e in enumerate(row) if e) for row in subspace.basis}
    free_cols = [j for j in range(n) if j not in pivots]
    for values in itertools.product(field.elements(), repeat=len(free_cols)):
        xi = [0] * (n + 1)
        for col, val in zip(free_cols, values):
            xi[col] = val
        xi[n] = 1
        out.append(spanned(field, n + 1, padded + (tuple(xi),)))
    return out


def growth_by_rebuild(kappa, field: FieldSpec, n_max: int, seed: int) -> tuple[Subspace, ...]:
    """``sample_growth``'s chain, draw for draw: each step pads the last
    basis and, on a growth step, eliminates it with the new vector from
    scratch through ``spanned``."""
    qbar, rng = Fraction(1, field.size), SplitMix64(seed)
    chain = [Subspace.zero(field, 0)]
    for n in range(n_max):
        current = chain[-1]
        padded = tuple(row + (0,) for row in current.basis)
        if rng.next_uint64() < bernoulli_threshold(_stay(kappa, qbar, current.codim)):
            xi = [uniform_scan(rng, field.size) for _ in range(n)]
            xi.append(1 + uniform_scan(rng, field.size - 1))
            chain.append(spanned(field, n + 1, padded + (tuple(xi),)))
        else:
            chain.append(checked_rref(Subspace(field, n + 1, padded)))
    return tuple(chain)


def grassmannian_by_cells(field: FieldSpec, n: int, k: int):
    """``enumerate_grassmannian``'s subspaces in its order: per pivot set,
    every filling of the free cells (row by row, each row's non-pivot
    columns right of its pivot), lexicographic in the cells."""
    for pivots in itertools.combinations(range(n), k):
        others = [c for c in range(n) if c not in pivots]
        free = [(i, c) for i, piv in enumerate(pivots) for c in others if c > piv]
        for values in itertools.product(field.elements(), repeat=len(free)):
            rows = [[0] * n for _ in range(k)]
            for i, piv in enumerate(pivots):
                rows[i][piv] = 1
            for (i, c), value in zip(free, values):
                rows[i][c] = value
            yield Subspace(field, n, tuple(map(tuple, rows)))


def exact_growth_law(
    kappa, field: FieldSpec, n_max: int
) -> dict[tuple[Subspace, ...], Fraction]:
    """Law of the full chain by exact branching: p_grow splits evenly
    over the q^(n-k) grown extensions, 1 - p_grow stays."""
    qbar = growth_q_param(field)
    extreme_chain(kappa, qbar)  # its checks of kappa
    states: dict[tuple[Subspace, ...], Fraction] = {
        (Subspace.zero(field, 0),): Fraction(1)
    }
    for _ in range(n_max):
        nxt: dict[tuple[Subspace, ...], Fraction] = {}
        for chain, prob in states.items():
            current = chain[-1]
            p_grow = _stay(kappa, qbar.q, current.codim)
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
