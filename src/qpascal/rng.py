"""Deterministic random streams with a documented cross-language layout.

Generator
    SplitMix64 with the reference constants: from state s, each draw
    performs s += 0x9E3779B97F4A7C15 and returns mix64(s), where

        mix64(z): z ^= z >> 30; z *= 0xBF58476D1CE4E5B9;
                  z ^= z >> 27; z *= 0x94D049BB133111EB;
                  z ^= z >> 31          (all mod 2^64).

    Draw i from seed s is therefore mix64(s + i * GOLDEN), a counter-based
    rule (Steele, Lea & Flood, OOPSLA 2014), so a stream computes its
    draws ahead in blocks: the lane kernel :func:`_draws` makes many at
    once on one integer with a 128-bit lane per draw, and
    ``next_uint64`` hands them out one call per draw.  Blocks double from
    8 draws up to _LANES; ``state`` is the state after the draws taken so
    far, however far the block runs ahead.

Per-trial sub-seeds
    Trial t of a batch seeded with S uses the stream seeded by
    derive_seed(S, t) = mix64(S + (t + 1) * 0x9E3779B97F4A7C15), which is
    draw t + 1 of the stream seeded by S.  Trials therefore never share
    state and may run in any order or in parallel with identical
    results.  A batch runs a chunk of trials at a time on one stream
    (:func:`_trial_chunks`): two kernel calls make the chunk's sub-seeds
    and each trial's first draws, which the stream holds in trial order,
    so the chunk's walks take their draws off it one trial after another.
    Past those draws it runs on as the chunk's last trial's stream.

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
      which no draw reaches.  A draw given a cap reads min(T, cap) and
      grows at most cap cutoffs.
    * Uniform integers below m <= 2^64, by rejection: the stream's first
      draws j with j < m * floor(2^64 / m), each read as j % m; none for m = 1.
"""

from __future__ import annotations

import functools
import math
import sys
from array import array
from bisect import bisect_right
from fractions import Fraction
from typing import Callable, Iterator, Sequence

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
TWO64 = 1 << 64
_MUL1, _MUL2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB

_LANES = 1024  # the most draws one kernel call makes: a stream's largest block
# the offsets i * GOLDEN of draws _LANES, ..., 1, last first
_RAMP = array("Q", [(i * GOLDEN) & MASK64 for i in range(_LANES, 0, -1)])
_SWAP = sys.byteorder == "big"  # lanes are read and written little-endian
_PER_DRAW = pow(GOLDEN, -1, TWO64)  # a state difference times this: the draws between


def mix64(z: int) -> int:
    z &= MASK64
    z ^= z >> 30
    z = (z * _MUL1) & MASK64
    z ^= z >> 27
    z = (z * _MUL2) & MASK64
    z ^= z >> 31
    return z


def _lanes_int(words: array) -> int:
    """The 64-bit words as one little-endian integer."""
    if _SWAP:
        words = array("Q", words)
        words.byteswap()
    return int.from_bytes(words, "little")


@functools.lru_cache(maxsize=16)
def _lane_constants(count: int, copies: int) -> tuple[int, int]:
    """For ``copies`` runs of ``count`` 128-bit lanes: the ramp, offsets
    i * GOLDEN for i = count, ..., 1 in each run's low halves, and the mask
    of every low half."""
    words = array("Q", bytes(16 * count * copies))
    words[0::2] = _RAMP[_LANES - count:] * copies
    ramp = _lanes_int(words)
    words[0::2] = array("Q", [MASK64]) * (count * copies)
    return ramp, _lanes_int(words)


def _draws(states: Sequence[int], count: int) -> array:
    """Draws count, ..., 1 of the stream from each state, last first:
    mix64(s + i * GOLDEN), state by state, for count <= _LANES.

    The draws sit in one integer, a 128-bit lane each, and mix64 runs on
    all of them at once: a lane's low half holds its 64-bit value, and is
    masked before each multiply, so no product reaches the next lane and
    no shift brings a neighbour's bits into a low half that is read."""
    lanes = len(states) * count
    if not lanes:
        return array("Q")
    ramp, low = _lane_constants(count, len(states))
    if len(states) < count:  # a few long runs: one state's lane repeated
        lanes_bytes = b"".join(s.to_bytes(16, "little") * count for s in states)
        z = int.from_bytes(lanes_bytes, "little")
    else:  # many short runs: lane i of every run in one slice
        words, step, starts = array("Q", bytes(16 * lanes)), 2 * count, array("Q", states)
        for i in range(0, step, 2):
            words[i::step] = starts
        z = _lanes_int(words)
    z = (z + ramp) & low
    z = ((z ^ (z >> 30)) & low) * _MUL1 & low
    z = ((z ^ (z >> 27)) & low) * _MUL2 & low
    words = array("Q", (z ^ (z >> 31)).to_bytes(16 * lanes, "little"))
    if _SWAP:
        words.byteswap()
    return words[0::2]


class SplitMix64:
    """The SplitMix64 sequence generator.  It computes its draws ahead in
    blocks, by :func:`_draws`, and ``next_uint64`` takes them one call at
    a time."""

    __slots__ = ("_ahead", "_pending", "_block")

    def __init__(self, seed: int) -> None:
        self._ahead = seed & MASK64  # the state after the last draw computed
        self._pending: list[int] = []  # draws computed, not yet taken, last first
        self._block = 8  # the next block's size

    @property
    def state(self) -> int:
        """The state after the draws taken so far."""
        return (self._ahead - len(self._pending) * GOLDEN) & MASK64

    def next_uint64(self) -> int:
        """One draw: mix64 of the advanced state, the next of the draws
        computed ahead; when none is left, the next block is computed."""
        try:
            return self._pending.pop()
        except IndexError:
            block = self._block
            self._pending = _draws((self._ahead,), block).tolist()
            self._ahead = (self._ahead + block * GOLDEN) & MASK64
            self._block = min(2 * block, _LANES)
            return self._pending.pop()


def _trial_chunks(seed: int, trials: int, fill: int) -> Iterator[tuple[SplitMix64, int]]:
    """A batch's trials a chunk at a time, trial t's stream seeded by
    derive_seed(seed, t): for each chunk, one stream and its number of
    trials.  The stream holds each trial's first min(fill, _LANES) draws
    in trial order, so ``next_uint64`` hands out the chunk's first trial's
    draws, then the next trial's, and so on; past them it runs on as the
    chunk's last trial's stream.  A chunk takes two kernel calls of at
    most _LANES draws: its sub-seeds are the next draws of the stream from
    ``seed``, last first, and its trials' first draws are one call over
    them all."""
    fill = min(fill, _LANES)
    chunk = _LANES // max(fill, 1)
    for start in range(0, trials, chunk):
        seeds = _draws(((seed + start * GOLDEN) & MASK64,), min(chunk, trials - start))
        rng = SplitMix64(seeds[0] + fill * GOLDEN)  # the last trial's, past its draws
        rng._pending = _draws(seeds, fill).tolist()
        yield rng, len(seeds)


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


def geometric_sampler(ratio: Fraction) -> Callable[..., int]:
    """Draws failures before the first success, success probability
    1 - ratio, from memoised inverse-CDF cutoffs; one draw each.  Given a
    cap, a draw returns min(T, cap), and grows the cutoffs to at most cap."""
    if not 0 <= ratio < 1:
        raise ValueError("failure ratio must lie in [0, 1)")
    rn, rd = ratio.numerator, ratio.denominator
    cutoffs = [TWO64 - (rn << 64) // rd]
    pn, pd = rn * rn, rd * rd  # ratio^(len(cutoffs) + 1)

    def draw(rng: SplitMix64, cap=math.inf) -> int:
        nonlocal pn, pd
        j = rng.next_uint64()
        while cutoffs[-1] <= j and len(cutoffs) < cap:
            cutoffs.append(TWO64 - (pn << 64) // pd)
            pn *= rn
            pd *= rd
        t = bisect_right(cutoffs, j)
        return t if t < cap else cap

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
