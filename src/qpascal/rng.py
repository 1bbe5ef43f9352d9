"""Deterministic random streams with a documented cross-language layout.

Generator
    SplitMix64 with the reference constants: from state s, each draw
    performs s += 0x9E3779B97F4A7C15 and returns mix64(s), where

        mix64(z): z ^= z >> 30; z *= 0xBF58476D1CE4E5B9;
                  z ^= z >> 27; z *= 0x94D049BB133111EB;
                  z ^= z >> 31          (all mod 2^64).

Per-trial sub-seeds
    Trial t of a batch seeded with S uses the stream seeded by
    derive_seed(S, t) = mix64(S + (t + 1) * 0x9E3779B97F4A7C15).
    Trials therefore never share state and may run in any order or in
    parallel with identical results.

Uniform variate conventions
    A draw j (64 bits) represents the rational u = j / 2^64 in [0, 1).
    * Bernoulli(p), p rational: success iff u < p, i.e. iff
      j < ceil(p * 2^64); one draw.
    * Geometric "failures before first success" with failure ratio r:
      inverse CDF, T = min { t >= 0 : r^(t+1) < 1 - u }; one draw.  In
      integers, T > t iff j >= c_t = 2^64 - floor(r^(t+1) * 2^64), so T
      is the number of cutoffs c_0 <= c_1 <= ... that are <= j.  A
      geometric sampler memoises the exact cutoffs, grows them only as
      far as the largest draw needs and stops at the first c_t = 2^64,
      which no draw reaches.
    * Uniform integers below m <= 2^64, by rejection: the stream's first
      draws j with j < m * floor(2^64 / m), each read as j % m; none for m = 1.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from typing import Callable

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
TWO64 = 1 << 64


def mix64(z: int) -> int:
    z &= MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & MASK64
    z ^= z >> 31
    return z


class SplitMix64:
    """The SplitMix64 sequence generator."""

    __slots__ = ("state",)

    def __init__(self, seed: int) -> None:
        self.state = seed & MASK64

    def next_uint64(self) -> int:
        """One draw: mix64 of the advanced state, mixed inline."""
        z = self.state = (self.state + GOLDEN) & MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)


def derive_seed(seed: int, trial: int) -> int:
    """Sub-seed for one trial of a batch; documented in the module docstring."""
    if trial < 0:
        raise ValueError("trial index must be non-negative")
    return mix64((seed + (trial + 1) * GOLDEN) & MASK64)


def bernoulli_threshold(p: Fraction) -> int:
    """Integer t with: draw j is a success iff j < t; P = ceil(p*2^64)/2^64."""
    if p <= 0:
        return 0
    if p >= 1:
        return TWO64
    return -((-p.numerator << 64) // p.denominator)  # ceil(p * 2^64)


def geometric_sampler(ratio: Fraction) -> Callable[[SplitMix64], int]:
    """Draws failures before the first success, success probability
    1 - ratio, from memoised inverse-CDF cutoffs; one draw each."""
    if not 0 <= ratio < 1:
        raise ValueError("failure ratio must lie in [0, 1)")
    rn, rd = ratio.numerator, ratio.denominator
    cutoffs = [TWO64 - (rn << 64) // rd]
    pn, pd = rn * rn, rd * rd  # ratio^(len(cutoffs) + 1)

    def draw(rng: SplitMix64) -> int:
        nonlocal pn, pd
        j = rng.next_uint64()
        while cutoffs[-1] <= j:
            cutoffs.append(TWO64 - (pn << 64) // pd)
            pn *= rn
            pd *= rd
        return bisect_right(cutoffs, j)

    return draw


def uniforms_below(draw: Callable[[], int], m: int, count: int) -> list[int]:
    """The first ``count`` accepted draws of ``draw``, a stream's
    ``next_uint64``, mod m: ``count`` draws are taken as one list against
    one cutoff, and more only if some are rejected."""
    if not 1 <= m <= TWO64:
        raise ValueError("m must lie in [1, 2^64], got %d" % m)
    cutoff, out = m * (TWO64 // m), [0] * count if m == 1 else []  # m = 1 draws nothing
    while len(out) < count:
        out += [j % m for j in [draw() for _ in range(count - len(out))] if j < cutoff]
    return out


def uniform_below(rng: SplitMix64, m: int) -> int:
    """Exact uniform draw from {0, ..., m-1}: uniforms_below's one-integer case."""
    return uniforms_below(rng.next_uint64, m, 1)[0]
