"""Acceptance gate: end-to-end checks with pinned tolerances and budgets.

Each test exercises one release criterion and prints exactly one line

    [acceptance] <label> PASS|FAIL (<seconds> s)

to the real terminal (bypassing capture).  A test fails if the check
fails or if it runs over its time budget.  Seeds are pinned, so every
run is bit-for-bit reproducible.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction as F
from functools import lru_cache

import pytest

from qpascal import (
    BoundaryMeasure,
    MomentSequence,
    PolyaParams,
    QParam,
    SplitMix64,
    ThetaParams,
    derive_seed,
    empirical_level_histogram,
    enumerate_grassmannian,
    extreme_chain,
    codim_word,
    check_recursion,
    is_q_completely_monotone,
    make_field,
    mixture_array,
    polya_chain,
    recover_measure,
    theta_chain,
    tilde_of_v,
)

from oracles import (
    UnreachableError,
    Vertex,
    atom_mass,
    brute_force_weight_sum,
    chain_law,
    exact_growth_law,
    law_of_array,
    list_extensions,
    moments_of,
    polya_boundary_measure,
    runs_law,
    segment_weight_sum,
    theta_boundary_measure,
    tv_distance,
)

HALF = QParam(F(1, 2))


@contextmanager
def criterion(capsys, label, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        with capsys.disabled():
            print("[acceptance] %s FAIL (%.2f s)" % (label, elapsed))
        raise
    elapsed = time.perf_counter() - start
    ok = elapsed < budget_seconds
    with capsys.disabled():
        print("[acceptance] %s %s (%.2f s)" % (label, "PASS" if ok else "FAIL", elapsed))
    assert ok, "%s took %.2f s, budget %s s" % (label, elapsed, budget_seconds)


@lru_cache(maxsize=1)
def reference_arrays():
    """Twenty depth-20 triangles covering every generator at q = 1/2."""
    arrays = [extreme_chain(kappa, HALF).triangle(20) for kappa in range(7)]
    arrays.append(
        mixture_array(BoundaryMeasure.of(HALF, {0: F(1, 2), 1: F(1, 2)}), 20)
    )
    for theta in (F(1, 2), F(1), F(3)):
        arrays.append(theta_chain(ThetaParams(theta, HALF)).triangle(20))
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            arrays.append(polya_chain(PolyaParams(a, b, HALF)).triangle(20))
    return tuple(arrays)


def test_01_segment_sums_match_enumeration(capsys):
    # closed form == path enumeration on every pair up to ten levels
    # apart (start level capped at 6 to keep the pair count finite)
    with criterion(capsys, "segment weight sums", 10.0):
        qs = (QParam(F(1, 2)), QParam(F(1, 3)), QParam(F(3, 4)))
        for lev0 in range(7):
            for k0 in range(lev0 + 1):
                frm = Vertex(lev0 - k0, k0)
                for dlev in range(11):
                    lev1 = lev0 + dlev
                    for k1 in range(lev1 + 1):
                        to = Vertex(lev1 - k1, k1)
                        reachable = to.l >= frm.l and to.k >= frm.k
                        for q in qs:
                            if reachable:
                                assert segment_weight_sum(frm, to, q) == (
                                    brute_force_weight_sum(frm, to, q)
                                )
                            else:
                                with pytest.raises(UnreachableError):
                                    segment_weight_sum(frm, to, q)
                                with pytest.raises(UnreachableError):
                                    brute_force_weight_sum(frm, to, q)


def test_02_recursion_and_level_sums(capsys):
    with criterion(capsys, "triangle recursions", 5.0):
        for array in reference_arrays():
            assert check_recursion(array).ok
            tilde = tilde_of_v(array)
            for row in tilde.rows:
                assert sum(row) == 1


def test_03_measure_recovery(capsys):
    with criterion(capsys, "measure recovery", 1.0):
        mixture = BoundaryMeasure.of(HALF, {0: F(1, 2), 1: F(1, 2)})
        recovered = recover_measure(mixture_array(mixture, 40), nu=40, kmax=4)
        for kappa in (0, 1):
            assert abs(atom_mass(recovered, kappa) - F(1, 2)) <= F(1, 2**30)
        point = recover_measure(extreme_chain(2, HALF).triangle(30), nu=30, kmax=6)
        assert atom_mass(point, 2) >= 1 - F(1, 2**25)


def test_04_sampler_decision_trees(capsys):
    # exact enumeration of every sampler's decision tree at n = 6 must
    # reproduce the word probabilities of the corresponding triangle
    with criterion(capsys, "sampler laws", 30.0):
        target = law_of_array(extreme_chain(2, HALF).triangle(6), 6)
        assert chain_law(extreme_chain(2, HALF), 6).probs == target.probs
        assert runs_law(2, HALF, 6).probs == target.probs

        tp = ThetaParams(F(1), HALF)
        chain = theta_chain(tp)
        assert chain_law(chain, 6).probs == law_of_array(chain.triangle(6), 6).probs

        pp = PolyaParams(1, 2, HALF)
        chain = polya_chain(pp)
        assert chain_law(chain, 6).probs == law_of_array(chain.triangle(6), 6).probs

        for kappa in (0, 1, 3, math.inf):
            forward = chain_law(extreme_chain(kappa, HALF), 6)
            runs = runs_law(kappa, HALF, 6)
            assert forward.probs == runs.probs


def test_05_level_histogram(capsys):
    with criterion(capsys, "level histogram", 5.0):
        sampler = extreme_chain(2, HALF).sampler()
        counts = empirical_level_histogram(sampler, 10, 100_000, seed=20250816)
        exact = tilde_of_v(extreme_chain(2, HALF).triangle(10)).rows[10]
        assert tv_distance(counts, 100_000, exact) <= F(1, 50)
        again = empirical_level_histogram(sampler, 10, 100_000, seed=20250816)
        assert again == counts


def test_06_subspace_counts(capsys):
    with criterion(capsys, "subspace counts", 10.0):
        f2, f3 = make_field(2), make_field(3)
        assert len(list(enumerate_grassmannian(f2, 4, 2))) == 35
        assert len(list(enumerate_grassmannian(f3, 3, 1))) == 13
        for field in (f2, f3):
            for n in range(4):
                for k in range(n + 1):
                    for space in enumerate_grassmannian(field, n, k):
                        expected = field.size ** (n - k) + 1
                        assert len(list_extensions(space)) == expected


def test_07_growth_law(capsys):
    with criterion(capsys, "growth law", 30.0):
        f2, f3 = make_field(2), make_field(3)
        law = exact_growth_law(1, f2, 3)
        marginal = {}
        for chain, p in law.items():
            word = codim_word(chain)
            marginal[word] = marginal.get(word, F(0)) + p
        extreme = chain_law(extreme_chain(1, HALF), 3)
        assert marginal == {w: p for w, p in extreme.probs.items() if p > 0}

        for field in (f2, f3):
            for kappa in (1, 2):
                for n in range(1, 4):
                    endpoint = {}
                    for chain, p in exact_growth_law(kappa, field, n).items():
                        last = chain[-1]
                        endpoint[last] = endpoint.get(last, F(0)) + p
                    by_dim = {}
                    for space, p in endpoint.items():
                        by_dim.setdefault(space.dim, {})[space] = p
                    for d, masses in by_dim.items():
                        assert set(masses) == set(enumerate_grassmannian(field, n, d))
                        assert len(set(masses.values())) == 1


def test_08_monotone_first_columns(capsys):
    # every generated first column is q-completely monotone in full, and
    # bumping any interior entry (indices 1..19) by 1/100 is caught with
    # a located witness
    with criterion(capsys, "monotone columns", 1.0):
        for array in reference_arrays():
            u = moments_of(array)
            assert is_q_completely_monotone(u, HALF).ok
            for idx in range(1, 20):
                bumped = list(u.values)
                bumped[idx] += F(1, 100)
                res = is_q_completely_monotone(MomentSequence(tuple(bumped)), HALF)
                assert not res.ok
                assert res.witness is not None


def test_09_boundary_masses(capsys):
    with criterion(capsys, "boundary masses", 2.0):
        tp = ThetaParams(F(1), HALF)
        tm = theta_boundary_measure(tp, kmax=80)
        assert tm.zero_mass <= F(1, 10**10)
        rebuilt = mixture_array(tm, 8)
        direct = theta_chain(tp).triangle(8)
        for n in range(9):
            for k in range(n + 1):
                assert abs(rebuilt.rows[n][k] - direct.rows[n][k]) <= F(1, 10**9)

        pp = PolyaParams(1, 1, HALF)
        pm = polya_boundary_measure(pp, kmax=80)
        assert pm.zero_mass <= F(1, 10**10)
        rebuilt = mixture_array(pm, 8)
        direct = polya_chain(pp).triangle(8)
        for n in range(9):
            for k in range(n + 1):
                assert abs(rebuilt.rows[n][k] - direct.rows[n][k]) <= F(1, 10**9)


def test_10_near_unit_frequency(capsys):
    # q close to 1: atom index chosen so the one-frequency targets 0.3
    with criterion(capsys, "near-unit frequency", 60.0):
        q = QParam(F(999, 1000))
        p = 0.3
        kappa = round(-math.log(1 - p) / (1 - 999 / 1000))
        assert kappa == 357
        sampler = extreme_chain(kappa, q).sampler()
        trials, n = 10_000, 200
        ones = 0
        for t in range(trials):
            ones += sampler(n, SplitMix64(derive_seed(99, t))).ones
        mean = ones / (trials * n)
        assert abs(mean - p) < 0.05
