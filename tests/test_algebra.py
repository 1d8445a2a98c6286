"""Generator basis, structure constants, and shift operators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from su4rabi.algebra import (
    DIAGONAL_NAMES,
    LADDER_COMBOS,
    LADDER_OF_TRANSITION,
    N_GENERATORS,
    TRANSITION_OF_LADDER,
    GeneratorSet,
    StructureConstants,
    build_generators,
    build_shift_operators,
    structure_constants,
    verify_algebra,
)

TOL = 1e-12

GENS = build_generators()
CONSTS = structure_constants(GENS)
OPS = build_shift_operators(GENS)


def matrix_unit(row, col):
    m = np.zeros((4, 4), dtype=complex)
    m[row, col] = 1.0
    return m


class TestGenerators:
    def test_count_and_shape(self):
        assert GENS.matrices.shape == (N_GENERATORS, 4, 4)

    def test_hermitian(self):
        for i in range(1, 16):
            m = GENS.matrix(i)
            assert np.abs(m - m.conj().T).max() < TOL

    def test_traceless(self):
        for i in range(1, 16):
            assert abs(np.trace(GENS.matrix(i))) < TOL

    def test_pair_trace_orthonormal(self):
        for i in range(1, 16):
            for j in range(1, 16):
                tr = np.trace(GENS.matrix(i) @ GENS.matrix(j))
                expected = 2.0 if i == j else 0.0
                assert abs(tr - expected) < TOL

    def test_last_generator_is_scaled_population_imbalance(self):
        # the only diagonal member touching the bottom level:
        # diag(1, 1, 1, -3) / sqrt(6)
        expected = np.diag([1.0, 1.0, 1.0, -3.0]) / math.sqrt(6.0)
        assert np.abs(GENS.matrix(15) - expected).max() < TOL

    def test_first_eight_embed_dimension_three_basis(self):
        # generators 1..8 must leave the fourth row and column empty
        for i in range(1, 9):
            m = GENS.matrix(i)
            assert np.abs(m[3, :]).max() == 0.0
            assert np.abs(m[:, 3]).max() == 0.0

    def test_matrix_index_bounds(self):
        with pytest.raises(IndexError):
            GENS.matrix(0)
        with pytest.raises(IndexError):
            GENS.matrix(16)

    def test_matrices_read_only(self):
        with pytest.raises(ValueError):
            GENS.matrices[0, 0, 0] = 5.0


class TestStructureConstants:
    def test_f_123_is_one(self):
        assert CONSTS.f_at(1, 2, 3) == pytest.approx(1.0, abs=TOL)

    def test_d_118(self):
        assert CONSTS.d_at(1, 1, 8) == pytest.approx(1.0 / math.sqrt(3.0), abs=TOL)

    def test_f_total_antisymmetry(self):
        assert CONSTS.f_at(2, 1, 3) == pytest.approx(-1.0, abs=TOL)
        assert CONSTS.f_at(3, 1, 2) == pytest.approx(1.0, abs=TOL)
        assert CONSTS.f_at(1, 1, 3) == 0.0

    def test_d_total_symmetry(self):
        reference = CONSTS.d_at(1, 1, 8)
        assert CONSTS.d_at(1, 8, 1) == pytest.approx(reference, abs=0)
        assert CONSTS.d_at(8, 1, 1) == pytest.approx(reference, abs=0)

    def test_dense_tensors_exactly_totally_antisymmetric_and_symmetric(self):
        for perm, sign in (((1, 0, 2), -1.0), ((0, 2, 1), -1.0), ((2, 1, 0), -1.0),
                           ((1, 2, 0), 1.0), ((2, 0, 1), 1.0)):
            assert np.array_equal(CONSTS.f.transpose(perm), sign * CONSTS.f)
            assert np.array_equal(CONSTS.d.transpose(perm), CONSTS.d)

    def test_dense_read_only_float_tensors_indexed_from_zero(self):
        for t in (CONSTS.f, CONSTS.d):
            assert t.shape == (N_GENERATORS,) * 3
            assert t.dtype == np.float64
            with pytest.raises(ValueError):
                t[0, 1, 2] = 5.0
        # the arrays are zero-based, the lookups take generator labels
        assert CONSTS.f[0, 1, 2] == CONSTS.f_at(1, 2, 3) == 1.0
        assert CONSTS.d[14, 14, 14] == CONSTS.d_at(15, 15, 15)

    def test_lookup_rejects_index_outside_1_to_15(self):
        # index 0 would otherwise wrap round to generator 15
        for idx in ((0, 1, 2), (1, 2, 16), (-1, 2, 3)):
            with pytest.raises(IndexError):
                CONSTS.f_at(*idx)
            with pytest.raises(IndexError):
                CONSTS.d_at(*idx)

    @given(st.tuples(
        st.integers(1, 15), st.integers(1, 15), st.integers(1, 15)))
    @settings(max_examples=200, deadline=None)
    def test_f_matches_trace_definition(self, idx):
        i, j, k = idx
        gi, gj, gk = GENS.matrix(i), GENS.matrix(j), GENS.matrix(k)
        direct = np.trace((gi @ gj - gj @ gi) @ gk) / 4.0j
        assert CONSTS.f_at(i, j, k) == pytest.approx(direct.real, abs=TOL)
        assert abs(direct.imag) < 1e-13

    @given(st.tuples(
        st.integers(1, 15), st.integers(1, 15), st.integers(1, 15)))
    @settings(max_examples=200, deadline=None)
    def test_d_matches_trace_definition(self, idx):
        i, j, k = idx
        gi, gj, gk = GENS.matrix(i), GENS.matrix(j), GENS.matrix(k)
        direct = np.trace((gi @ gj + gj @ gi) @ gk) / 4.0
        assert CONSTS.d_at(i, j, k) == pytest.approx(direct.real, abs=TOL)


class TestShiftOperators:
    def test_plus_ladders_are_matrix_units(self):
        # upper level a sits at row 4 - a; a "plus" operator is exactly the
        # unit at (row of a, row of b)
        for name, (a, b) in TRANSITION_OF_LADDER.items():
            expected = matrix_unit(4 - a, 4 - b)
            assert np.array_equal(OPS.plus[name], expected)

    def test_minus_is_plus_dagger(self):
        for name in LADDER_COMBOS:
            assert np.array_equal(OPS.minus[name], OPS.plus[name].conj().T)

    def test_ladders_cover_all_level_pairs_once(self):
        pairs = set(TRANSITION_OF_LADDER.values())
        assert pairs == {(4, 3), (3, 2), (4, 2), (4, 1), (3, 1), (2, 1)}
        assert LADDER_OF_TRANSITION[(2, 1)] == "Z"

    def test_diagonals_are_population_differences(self):
        # in level labels: each family's diagonal is |upper><upper| - |lower><lower|
        for name in DIAGONAL_NAMES:
            a, b = TRANSITION_OF_LADDER[name[0]]
            expected = np.zeros(4)
            expected[4 - a] = 1.0
            expected[4 - b] = -1.0
            diag_op = OPS.diagonal[name]
            assert np.abs(diag_op - np.diag(expected)).max() < 1e-15

    def test_commutator_of_ladder_pair_gives_diagonal(self):
        for name in LADDER_COMBOS:
            plus, minus = OPS.plus[name], OPS.minus[name]
            comm = plus @ minus - minus @ plus
            assert np.abs(comm - OPS.diagonal[name + "3"]).max() < 1e-15

    def test_w3_diagonal_in_row_order(self):
        assert np.abs(np.diag(OPS.diagonal["W3"]) - np.array([1.0, 0.0, 0.0, -1.0])).max() < 1e-15


class TestVerifyAlgebra:
    def test_clean_basis_passes(self):
        report = verify_algebra(GENS, CONSTS)
        assert report.passed
        assert report.max_residual < TOL
        assert report.first_failure is None

    def test_scaled_generator_fails_normalization_first(self):
        mats = GENS.matrices.copy()
        mats[0] *= 2.0
        bad = GeneratorSet(matrices=mats)
        report = verify_algebra(bad, structure_constants(bad))
        assert not report.passed
        assert report.first_failure == "trace-normalization"
        assert report.residuals["trace-normalization"] >= 6.0 - 1e-9  # Tr = 8 vs 2

    def test_perturbed_f_fails_commutation(self):
        f_bad = CONSTS.f.copy()
        f_bad[0, 1, 2] += 0.1
        report = verify_algebra(GENS, StructureConstants(f=f_bad, d=CONSTS.d))
        assert not report.passed
        assert "commutation" in report.failures
        # residual is 2 |delta f| times the unit generator entry
        assert report.residuals["commutation"] >= 0.1

    def test_summary_mentions_residual(self):
        assert "residual" in verify_algebra(GENS, CONSTS).summary()
