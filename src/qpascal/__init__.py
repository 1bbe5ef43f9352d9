"""Exact arithmetic for q-deformed exchangeability.

The package models binary sequences whose law rewards adjacent
transpositions by a fixed factor q: swapping a (1, 0) pair into (0, 1)
multiplies the probability by q.  All invariants (triangle recursions,
level sums, mixture decompositions) are checked in exact rational
arithmetic; floats appear in exactly one documented place: urn
processes with non-integer strengths.

Layout:
    exactq        rationals, q-integers, Gaussian binomials
    pascal_graph  the weighted q-Pascal graph, words, flips
    laws          triangular law arrays and finite word laws
    boundary      extreme laws, mixing measures, moment criteria
    processes     the extreme / theta / urn processes as forward chains
    galois        finite fields, subspace chains, codimension words
    rng           the deterministic sampling stream (SplitMix64)
    cli           the qpascal command-line tool
"""

from .boundary import (
    ZERO_POINT,
    BoundaryMeasure,
    MomentSequence,
    extreme_chain,
    is_q_completely_monotone,
    mixture_array,
    recover_measure,
)
from .errors import (
    FieldConstructionError,
    InvalidArrayError,
    NonIntegerParamsInExactMode,
    NotIrreducibleError,
    NotPrimeError,
    NotSuperUnitError,
    QPascalError,
    RegimeError,
    TooLargeError,
)
from .exactq import (
    QParam,
    as_count,
    as_fraction,
    as_pair,
    as_pairs,
    format_rational,
    parse_rational,
    q_binomial,
)
from .galois import (
    FieldSpec,
    Subspace,
    codim_word,
    enumerate_grassmannian,
    growth_q_param,
    is_irreducible,
    is_prime,
    make_field,
    sample_growth,
)
from .laws import (
    FiniteLaw,
    ForwardChain,
    PairTriangle,
    TildeArray,
    VArray,
    check_q_exchangeable,
    check_recursion,
    read_triangle,
    tilde_of_v,
)
from .pascal_graph import BinaryWord, flip_reduction
from .processes import (
    PolyaParams,
    ThetaParams,
    empirical_level_histogram,
    extreme_runs_sampler,
    polya_chain,
    theta_chain,
)
from .rng import SplitMix64, derive_seed

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
