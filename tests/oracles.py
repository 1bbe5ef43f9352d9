"""Independent oracles that the tests hold the package to.

Each function here recomputes by a closed form or by brute-force
enumeration something that ``qpascal`` computes another way, and no
command of the package runs it, so it lives with the tests and not in
the package:

    q_factorial              [n]!, whose ratios give the Gaussian binomial
    q_binomial_product       the Gaussian binomial as a product of q-integers
    path_weight              the weight of one lattice path
    brute_force_weight_sum   segment weight sums by path enumeration
    extreme_kernel           the closed-form kernel Phi[n][k](x)
    law_of_array             a triangle's law on words of one length
    v_of_tilde               the inverse of ``laws.tilde_of_v``
    RunEncoding, word_to_runs, runs_to_word
                             the run-length view of a word
    runs_law                 the law of the extreme runs sampler
    geometric_scan           a geometric variate by scanning powers
    polya_forward_probs      the urn's closed-form forward probabilities
    tv_distance              total variation against an exact level law
    exact_growth_law         the subspace growth chain by exact branching

The path-enumeration guard of ``brute_force_weight_sum`` and the
extension guard that ``exact_growth_law`` meets in ``list_extensions``
are the package's ``guards.check_count`` rule.  The extreme stay ratio
q^(kappa-k) and the q-number [x] = (1 - q^x) / (1 - q) are written out
here, not imported, so a wrong power or q-integer in the package cannot
pass its own oracle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from qpascal import guards
from qpascal.boundary import extreme_chain
from qpascal.errors import UnreachableError
from qpascal.exactq import (
    QParam,
    as_fraction,
    q_binomial,
    q_integer,
    q_pochhammer,
)
from qpascal.galois import FieldSpec, Subspace, growth_q_param, list_extensions
from qpascal.laws import FiniteLaw, TildeArray, VArray, all_words, word_probability
from qpascal.pascal_graph import ROOT, BinaryWord, Vertex
from qpascal.processes import PolyaParams, extreme_runs_sampler


def _stay(kappa, qq: Fraction, k: int) -> Fraction:
    """P(next letter 0 | k ones) in the extreme law at x = q^kappa:
    q^(kappa-k) below kappa ones, 1 from then on, 0 at kappa = math.inf."""
    if kappa == math.inf:
        return Fraction(0)
    return qq ** (kappa - k) if k < kappa else Fraction(1)


def _q_number(x, qq):
    """[x] = (1 - q^x) / (1 - q), and x at q = 1, in the number type of qq."""
    return x * qq if qq == 1 else (1 - qq**x) / (1 - qq)


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


def path_weight(
    word: BinaryWord, q: QParam, start: Vertex = ROOT, dual: bool = False
) -> Fraction:
    """Weight of the path traced by ``word`` starting at ``start``."""
    l, k = start.l, start.k
    exponent = 0
    for b in word:
        if b:
            if not dual:
                exponent += l
            k += 1
        else:
            if dual:
                exponent += k
            l += 1
    return q.q**exponent


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


def law_of_array(array: VArray, n: int) -> FiniteLaw:
    """Restrict the law of ``array`` to words of length n (n <= 20)."""
    return FiniteLaw(n, {w: word_probability(array, w) for w in all_words(n)})


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
    for b in word:
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
