import math
from fractions import Fraction as F

import pytest

from qpascal import (
    BoundaryMeasure,
    InvalidArrayError,
    MomentSequence,
    QParam,
    RegimeError,
    ZERO_POINT,
    extreme_array,
    is_q_completely_monotone,
    mixture_array,
    polya_array,
    recover_measure,
    theta_array,
    tilde_of_v,
)
from qpascal.processes import PolyaParams, ThetaParams, extreme_runs_sampler

from oracles import (
    array_from_moments,
    atom_mass,
    extreme_kernel,
    first_column,
    moments_of,
    q_difference,
)

HALF = QParam(F(1, 2))
HALF_MIX = BoundaryMeasure.of(HALF, {0: F(1, 2), 1: F(1, 2)})


class TestExtremeKernel:
    def test_value_and_weighted(self):
        value, weighted = extreme_kernel(2, 1, F(1, 2), HALF)
        assert value == F(1, 2)
        assert weighted == F(3, 4)

    def test_x_zero_is_diagonal(self):
        assert extreme_kernel(3, 1, F(0), HALF)[0] == 0
        assert extreme_kernel(3, 3, F(0), HALF)[0] == 1

    def test_x_one_kills_positive_k(self):
        assert extreme_kernel(4, 2, F(1), HALF)[0] == 0
        assert extreme_kernel(4, 0, F(1), HALF)[0] == 1

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            extreme_kernel(2, 1, F(3, 2), HALF)
        with pytest.raises(RegimeError):
            extreme_kernel(2, 1, F(1, 2), QParam(F(2)))


class TestExtremeArray:
    def test_levels_sum_to_one(self):
        tv = tilde_of_v(extreme_array(3, HALF, 8))
        for n in range(9):
            assert sum(tv.rows[n]) == 1

    def test_kappa_zero_all_zeros(self):
        arr = extreme_array(0, HALF, 4)
        assert first_column(arr) == (F(1),) * 5
        assert arr.rows[3][1] == 0

    def test_kappa_infinite_all_ones(self):
        arr = extreme_array(ZERO_POINT, HALF, 4)
        for n in range(5):
            for k in range(n + 1):
                assert arr.rows[n][k] == (1 if k == n else 0)

    def test_kappa_validation(self):
        with pytest.raises(ValueError):
            extreme_array(-1, HALF, 3)
        with pytest.raises(ValueError):
            extreme_array(1.5, HALF, 3)

    @pytest.mark.parametrize("kappa", [True, False])
    def test_bool_kappa_rejected(self, kappa):
        # a bool is an int to isinstance, but no atom index, as in
        # BoundaryMeasure; the runs sampler checks kappa on its own path
        with pytest.raises(ValueError):
            extreme_array(kappa, HALF, 3)
        with pytest.raises(ValueError):
            extreme_runs_sampler(kappa, HALF)


class TestBoundaryMeasure:
    def test_mass_lookup(self):
        assert atom_mass(HALF_MIX, 0) == F(1, 2)
        assert atom_mass(HALF_MIX, 7) == 0
        assert HALF_MIX.zero_mass == 0

    def test_sum_must_be_one(self):
        with pytest.raises(InvalidArrayError):
            BoundaryMeasure.of(HALF, {0: F(1, 2), 1: F(1, 3)})

    def test_negative_rejected(self):
        with pytest.raises(InvalidArrayError):
            BoundaryMeasure.of(HALF, {0: F(3, 2), 1: F(-1, 2)})

    def test_duplicate_atoms_rejected(self):
        with pytest.raises(InvalidArrayError):
            BoundaryMeasure(HALF, ((0, F(1, 2)), (0, F(1, 2))), F(0))

    def test_requires_sub_unit(self):
        with pytest.raises(RegimeError):
            BoundaryMeasure.of(QParam(F(2)), {0: F(1)})

    @pytest.mark.parametrize("kappa", [1.5, 1.0, True, "1", None])
    def test_non_integer_atom_index_rejected(self, kappa):
        # int() would truncate 1.5 to the atom at kappa = 1
        with pytest.raises(InvalidArrayError):
            BoundaryMeasure(HALF, ((kappa, F(1)),), F(0))
        with pytest.raises(InvalidArrayError):
            BoundaryMeasure.from_jsonable(
                {"q": "1/2", "atoms": [{"kappa": kappa, "mass": "1"}]}
            )

    def test_zero_mass_component(self):
        m = BoundaryMeasure.of(HALF, {0: F(1, 4)}, zero_mass=F(3, 4))
        assert m.zero_mass == F(3, 4)
        again = BoundaryMeasure.from_jsonable(m.to_jsonable())
        assert again == m

    def test_jsonable_roundtrip(self):
        again = BoundaryMeasure.from_jsonable(HALF_MIX.to_jsonable())
        assert again == HALF_MIX


class TestMixture:
    def test_spec_entry(self):
        arr = mixture_array(HALF_MIX, 3)
        assert arr.rows[1][0] == F(3, 4)

    def test_is_convex_combination(self):
        arr = mixture_array(HALF_MIX, 5)
        a0 = extreme_array(0, HALF, 5)
        a1 = extreme_array(1, HALF, 5)
        for n in range(6):
            for k in range(n + 1):
                assert arr.rows[n][k] == (a0.rows[n][k] + a1.rows[n][k]) / 2

    def test_zero_mass_contributes_diagonal(self):
        m = BoundaryMeasure.of(HALF, {0: F(1, 2)}, zero_mass=F(1, 2))
        arr = mixture_array(m, 3)
        pure = extreme_array(0, HALF, 3)
        for n in range(4):
            assert arr.rows[n][n] == pure.rows[n][n] / 2 + F(1, 2)
            for k in range(n):
                assert arr.rows[n][k] == pure.rows[n][k] / 2


class TestRecovery:
    def test_mixture_at_nu_ten(self):
        arr = mixture_array(HALF_MIX, 10)
        rec = recover_measure(arr, nu=10, kmax=4)
        assert atom_mass(rec, 1) == (1 - F(1, 2) ** 10) / 2
        assert atom_mass(rec, 0) == F(1025, 2048)
        assert atom_mass(rec, 2) == 0

    def test_extreme_concentrates(self):
        rec = recover_measure(extreme_array(2, HALF, 30), nu=30, kmax=6)
        assert atom_mass(rec, 2) >= 1 - F(1, 2) ** 25

    def test_zero_point_mass(self):
        rec = recover_measure(extreme_array(ZERO_POINT, HALF, 20), nu=20, kmax=5)
        assert rec.zero_mass == 1
        assert all(atom_mass(rec, k) == 0 for k in range(6))

    def test_rejects_shallow_array(self):
        with pytest.raises(ValueError):
            recover_measure(extreme_array(1, HALF, 5), nu=10, kmax=2)


class TestQDifference:
    def test_hand_value(self):
        assert q_difference((F(1), F(1, 2), F(1, 4)), HALF) == (F(1, 2), F(1, 2))

    def test_length_shrinks(self):
        out = q_difference((F(1), F(1, 2)), HALF)
        assert len(out) == 1


class TestMonotonicity:
    def test_extreme_moments_pass(self):
        for kappa in (0, 1, 3, ZERO_POINT):
            u = moments_of(extreme_array(kappa, HALF, 12))
            assert is_q_completely_monotone(u, HALF).ok

    def test_mixture_and_process_moments_pass(self):
        arrays = [
            mixture_array(HALF_MIX, 12),
            theta_array(ThetaParams(F(1), HALF), 12),
            polya_array(PolyaParams(2, 1, HALF), 12),
        ]
        for arr in arrays:
            assert is_q_completely_monotone(moments_of(arr), HALF).ok

    def test_borderline_sequence_passes(self):
        # 9/10 point mass at x=1 plus 1/10 at x=0 is a genuine mixture
        u = MomentSequence((F(1), F(9, 10), F(9, 10)))
        assert is_q_completely_monotone(u, HALF).ok

    def test_failing_sequence_witnessed(self):
        u = MomentSequence((F(1), F(9, 10), F(41, 50)))
        res = is_q_completely_monotone(u, HALF)
        assert not res.ok
        assert res.witness == (2, 0)

    def test_requires_unit_head(self):
        with pytest.raises(ValueError):
            MomentSequence((F(2), F(1)))


class TestMomentsRoundtrip:
    def test_array_from_moments_inverts(self):
        for arr in (
            extreme_array(2, HALF, 8),
            mixture_array(HALF_MIX, 8),
            theta_array(ThetaParams(F(3), HALF), 8),
            polya_array(PolyaParams(1, 2, HALF), 8),
        ):
            rebuilt = array_from_moments(moments_of(arr), HALF)
            assert rebuilt == arr

    def test_rebuilt_array_satisfies_recursion(self):
        from qpascal import check_recursion

        u = moments_of(extreme_array(1, HALF, 10))
        assert check_recursion(array_from_moments(u, HALF)).ok
