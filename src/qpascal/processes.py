"""The three canonical q-processes and their samplers.

Each process is a Markov chain on the Pascal lattice: after n letters
with k ones, the next letter is a one with an exact probability
P(1 | n, k).  A :class:`qpascal.laws.ForwardChain` built from that one
function gives the process's v triangle (only the canonical words
1^k 0^(n-k) are extended, so the triangle costs O(depth^2) products),
its level laws as a Gaussian row times the canonical-word products
(the urn's float mode runs them forward instead), and its bit-by-bit
sampler with one cached threshold per (n, k); the tests walk the
chain's decision tree for its exact word law.  Every sampler carries a
ones counter, ``sampler.ones(n, rng)``: the same walk over the same
draws, without building the word, which is all a level histogram
reads.  The chain calls p_one in every pass, so each process memoises
its own: by k (extreme), by n (theta), and per cell (urn).  An exact
urn cell is an integer pair made of powers c^e and d^e of q = c/d,
each built once per exponent, and reduced by two exact divisions with
no gcd of large numbers (see :func:`polya_chain`); the float urn's cell
is q^(n-k+b) [a+k] / [a+b+n] over factors memoised by n-k, k and n.
The closed forms quoted below, the urn's forward probabilities among
them, are not computed here: they live in the tests as independent
checks of the chains.

Extreme process (parameter kappa, plus the endpoint kappa = math.inf):
    the extreme q-exchangeable law at x = q^kappa, with
    P(1 | n, k) = 1 - q^(kappa-k) (and 1 for kappa = math.inf); see
    :func:`qpascal.boundary.extreme_chain`.  Its triangle is the kernel
    Phi[n][k](q^kappa).  A second, independent sampler,
    :func:`extreme_runs_sampler`, draws the zero-run lengths T_0, T_1,
    ... before each successive one as independent geometrics (T_i counts
    failures before first success, success probability 1 - q^(kappa-i))
    and pads with zeros once kappa ones have appeared.  It keeps, for
    the life of the sampler, one geometric sampler per run i, of ratio
    1 - p1_drawn of the extreme chain (q^(kappa-i), or 2^-65 past M(q)),
    which memoises its inverse-CDF cutoffs (see :mod:`qpascal.rng`).

Theta process: independent bits, P(bit m = 1) = theta q^(m-1) / (1 + theta q^(m-1)).
    Its triangle is w[n][k] = theta^k q^(k(k-1)/2) / prod_{i<n}(1 + theta q^i),
    and its mixing measure is the q-analogue of a Poisson distribution.

Polya urn process: forward probabilities from state (n, k)
    P(0) = [b+n-k] / [a+b+n],   P(1) = q^(n-k+b) [a+k] / [a+b+n],
    exact for integer strengths a, b (q = 1 gives the classical urn).
    Its triangle is q^(bk) [a]_k [b]_(n-k) / [a+b]_n in rising
    q-factorials.  Other strengths run the same chain with a float
    P(1 | n, k), so its thresholds and levels carry float rounding.
    Its mixing measure is the q-analogue of a beta mixture; for a = 1 it
    is exactly geometric with parameter 1 - q^b.

Sampling conventions (see :mod:`qpascal.rng` for the stream layout):
every binary decision consumes one 64-bit draw j and succeeds iff
j < ceil(p * 2^64) with p the exact rational success probability; a
geometric variable consumes one draw.  Histograms derive the stream of
trial t from derive_seed(seed, t), so trial order cannot matter.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .boundary import extreme_chain
from .errors import NonIntegerParamsInExactMode, RegimeError
from .exactq import QParam, _coprime, _q_integer, as_fraction
from .laws import ForwardChain, Sampler, VArray, _word_sampler
from .rng import SplitMix64, derive_seed, geometric_sampler


# ---------------------------------------------------------------- extreme


def extreme_runs_sampler(kappa, q: QParam) -> Sampler:
    """Reusable sampler for the extreme process that draws one geometric
    zero run per one; the letter-by-letter sampler is
    ``extreme_chain(kappa, q).sampler()``."""
    p1 = extreme_chain(kappa, q).p1_drawn
    runs = []  # run i: a geometric sampler of ratio 1 - p1 at i ones

    def walk(n: int, rng: SplitMix64, ones: list | None = None) -> int:
        k = filled = 0
        while filled < n and k < kappa:
            if k == len(runs):
                runs.append(geometric_sampler(1 - p1(k, k)))
            filled += runs[k](rng)
            if filled >= n:
                break
            if ones is not None:
                ones.append(filled)
            filled += 1
            k += 1
        return k

    return _word_sampler(walk)


# ------------------------------------------------------------------ theta


@dataclass(frozen=True)
class ThetaParams:
    """theta >= 0 or math.inf, with 0 < q < 1."""

    theta: Fraction
    q: QParam

    def __post_init__(self) -> None:
        self.q.require_sub_unit("theta process")
        theta = self.theta
        if isinstance(theta, float):
            if not (math.isinf(theta) and theta > 0):
                raise TypeError("theta must be an exact rational or math.inf")
        else:
            theta = as_fraction(theta)
            if theta < 0:
                raise ValueError("theta must be non-negative")
            object.__setattr__(self, "theta", theta)

    @property
    def infinite(self) -> bool:
        return isinstance(self.theta, float)


def theta_chain(params: ThetaParams) -> ForwardChain:
    """Letter n+1 is a one with probability theta q^n / (1 + theta q^n),
    whatever came before; theta = math.inf gives the all-ones law."""

    @functools.cache
    def p_one(n: int) -> Fraction:
        if params.infinite:
            return Fraction(1)
        t = params.theta * params.q.q**n
        return t / (1 + t)

    return ForwardChain(params.q, lambda n, k: p_one(n))


def theta_array(params: ThetaParams, depth: int) -> VArray:
    """Triangle w[n][k] = theta^k q^(k(k-1)/2) / prod_{i<n}(1 + theta q^i);
    theta = math.inf gives the all-ones triangle."""
    return theta_chain(params).triangle(depth)


# ------------------------------------------------------------------ Polya


@dataclass(frozen=True)
class PolyaParams:
    """Urn strengths a, b > 0 with q in (0, 1].

    Integer strengths run in exact arithmetic; any other positive reals
    switch the process to float mode ([x] evaluated as (1-q^x)/(1-q)).
    """

    a: object
    b: object
    q: QParam

    def __post_init__(self) -> None:
        if self.q.q > 1:
            raise RegimeError("urn process needs q <= 1 (flip first for q > 1)")
        for name in ("a", "b"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float, Fraction)):
                raise TypeError("%s must be a positive number" % name)
            if isinstance(value, Fraction) and value.denominator == 1:
                value = int(value)
                object.__setattr__(self, name, value)
            try:
                if not float(value) > 0:
                    raise ValueError("%s must be positive" % name)
            except OverflowError:
                raise ValueError("%s is too large for a float" % name) from None

    @property
    def float_mode(self) -> bool:
        return not (isinstance(self.a, int) and isinstance(self.b, int))


def polya_chain(params: PolyaParams) -> ForwardChain:
    """The urn as a forward chain.  Float strengths give a float p_one, so
    the sampler's thresholds and the levels carry its rounding.

    With integer strengths and q = c/d in lowest terms, A = a + k and
    M = a + b + n, p1 = c^(M-A) (d^A - c^A) / (d^M - c^M).  Coprime c and
    d make gcd(d^A - c^A, d^M - c^M) = d^g - c^g for g = gcd(A, M), and
    c prime to d^M - c^M, so two exact divisions by d^g - c^g reduce the
    pair; g divides M - A, so the divisor is small.  At q = 1, p1 = A/M."""
    if params.float_mode:
        a, b, q = float(params.a), float(params.b), float(params.q.q)
        power = functools.cache(lambda zeros: q ** (zeros + b))
        ones = functools.cache(lambda k: _q_integer(a + k, q))
        total = functools.cache(lambda n: _q_integer(a + b + n, q))

        @functools.cache
        def p_one(n: int, k: int) -> float:
            return power(n - k) * ones(k) / total(n)

        return ForwardChain(params.q, p_one)

    a, b = params.a, params.b
    c, d = params.q.q.numerator, params.q.q.denominator
    up = functools.cache(lambda e: pow(c, e))
    down = functools.cache(lambda e: pow(d, e))

    @functools.cache
    def p_one(n: int, k: int) -> Fraction:
        ones, total = a + k, a + b + n
        g = math.gcd(ones, total)
        if c == d:
            return _coprime(ones // g, total // g)
        h = down(g) - up(g)
        return _coprime(up(total - ones) * ((down(ones) - up(ones)) // h),
                        (down(total) - up(total)) // h)

    return ForwardChain(params.q, p_one)


def polya_array(params: PolyaParams, depth: int) -> VArray:
    """Exact triangle of the urn process (integer strengths only)."""
    if params.float_mode:
        raise NonIntegerParamsInExactMode(
            "triangle requires integer strengths, got a=%s b=%s"
            % (params.a, params.b)
        )
    return polya_chain(params).triangle(depth)


# -------------------------------------------------------------- histograms


def empirical_level_histogram(
    sampler: Sampler, n: int, trials: int, seed: int
) -> dict[int, int]:
    """Counts of the number of ones over ``trials`` independent words.

    Trial t uses the stream seeded by derive_seed(seed, t); results are
    independent of execution order.  Each count comes from the sampler's
    ones counter, ``sampler.ones(n, rng)``, which draws exactly what the
    sampler draws but builds no word.
    """
    count = sampler.ones
    counts: dict[int, int] = {}
    for t in range(trials):
        k = count(n, SplitMix64(derive_seed(seed, t)))
        counts[k] = counts.get(k, 0) + 1
    return counts
