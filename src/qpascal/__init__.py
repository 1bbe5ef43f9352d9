"""Exact arithmetic for q-deformed exchangeability.

The package models binary sequences whose law rewards adjacent
transpositions by a fixed factor q: swapping a (1, 0) pair into (0, 1)
multiplies the probability by q.  All invariants (triangle recursions,
level sums, mixture decompositions) are checked in exact rational
arithmetic; floats appear only in explicitly approximate corners
(infinite product values, non-integer urn strengths).

Layout:
    exactq        rationals, q-integers, Gaussian binomials, q-Pochhammer
    pascal_graph  the weighted q-Pascal graph, words, segment weight sums, flips
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
    array_from_moments,
    extreme_array,
    extreme_chain,
    is_q_completely_monotone,
    mixture_array,
    moments_of,
    q_difference,
    recover_measure,
)
from .errors import (
    FieldConstructionError,
    InfiniteProductOutsideSubUnit,
    InvalidArrayError,
    NonIntegerParamsInExactMode,
    NotIrreducibleError,
    NotPrimeError,
    NotSuperUnitError,
    QPascalError,
    RegimeError,
    TooLargeError,
    UnreachableError,
)
from .exactq import (
    QParam,
    as_count,
    as_fraction,
    format_rational,
    parse_rational,
    q_binomial,
    q_integer,
    q_pochhammer,
    q_pochhammer_bounds,
    q_pochhammer_infinite,
)
from .galois import (
    FieldSpec,
    Subspace,
    codim_word,
    enumerate_grassmannian,
    growth_q_param,
    is_irreducible,
    is_prime,
    list_extensions,
    make_field,
    project_down,
    rref_canonicalize,
    sample_growth,
)
from .laws import (
    FiniteLaw,
    ForwardChain,
    TildeArray,
    VArray,
    backward_kernel,
    check_q_exchangeable,
    check_recursion,
    multistep_backward,
    tilde_of_v,
    word_probability,
)
from .pascal_graph import (
    ROOT,
    BinaryWord,
    Vertex,
    flip_reduction,
    segment_weight_sum,
)
from .processes import (
    PolyaParams,
    ThetaParams,
    empirical_level_histogram,
    extreme_runs_sampler,
    polya_array,
    polya_boundary_measure,
    polya_chain,
    theta_array,
    theta_boundary_measure,
    theta_chain,
)
from .rng import SplitMix64, derive_seed

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
