"""Configuration catalog, energies, and Hamiltonian construction."""

import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from su4rabi.algebra import build_generators, build_shift_operators
from su4rabi.errors import ConfigurationError
from su4rabi.models import (
    DriveParams,
    ModelId,
    StateVector,
    catalog,
    get_model,
    hamiltonian_shift_form,
    hamiltonian_t,
    row_of,
)

OPS = build_shift_operators(build_generators())

EXPECTED_TRANSITIONS = {
    "I": {(4, 1), (3, 2), (2, 1)},
    "II": {(4, 3), (3, 1), (2, 1)},
    "III": {(4, 3), (3, 2), (2, 1)},
    "IV": {(4, 3), (4, 1), (2, 1)},
    "V": {(4, 3), (4, 2), (2, 1)},
    "VI": {(4, 3), (4, 1), (3, 2)},
}

# the diagonal operators the catalog once listed by hand, one triple per model
EXPECTED_DIAGONAL_OPS = {
    "I": {"W3", "Z3", "U3"},
    "II": {"Z3", "T3", "X3"},
    "III": {"Z3", "T3", "U3"},
    "IV": {"Z3", "T3", "W3"},
    "V": {"Z3", "T3", "V3"},
    "VI": {"W3", "T3", "U3"},
}

# the transitions between neighbouring levels
NEAREST = {(2, 1), (3, 2), (4, 3)}


def level_trees():
    """Every set of three transitions that joins the four levels, with its
    level path from the lower end, or None for a star."""
    transitions = [(a, b) for a in range(2, 5) for b in range(1, a)]
    for edges in itertools.combinations(transitions, 3):
        degree = Counter(level for tr in edges for level in tr)
        if len(degree) < 4:
            continue  # a triangle: the fourth level is left out
        if max(degree.values()) == 3:
            yield set(edges), None
            continue
        path = [min(level for level, d in degree.items() if d == 1)]
        while len(path) < 4:
            path.append(next(b for tr in edges for a, b in (tr, tr[::-1])
                             if a == path[-1] and b not in path))
        yield set(edges), tuple(path)


omega_triples = st.tuples(
    st.floats(-5, 5, allow_nan=False), st.floats(-5, 5, allow_nan=False),
    st.floats(-5, 5, allow_nan=False))


def drive_for(model, omega=(1.0, 2.0, 3.0), kappa=0.3, freq=1.0):
    return DriveParams(
        omega=omega,
        field_freq={tr: freq for tr in model.allowed},
        coupling={tr: kappa for tr in model.allowed},
    )


class TestCatalog:
    def test_six_models_in_order(self):
        assert [m.id.value for m in catalog()] == ["I", "II", "III", "IV", "V", "VI"]

    def test_allowed_transitions(self):
        for m in catalog():
            assert set(m.allowed) == EXPECTED_TRANSITIONS[m.id.value]

    def test_each_is_a_spanning_tree(self):
        # three edges over four levels, connected <=> spanning tree
        for m in catalog():
            assert len(m.allowed) == 3
            reached = {1}
            frontier = True
            while frontier:
                frontier = False
                for a, b in m.allowed:
                    if (a in reached) != (b in reached):
                        reached.update((a, b))
                        frontier = True
            assert reached == {1, 2, 3, 4}

    def test_diagonal_ops_are_the_partners_of_the_path(self):
        for m in catalog():
            assert len(m.diagonal_ops) == 3
            assert set(m.diagonal_ops) == EXPECTED_DIAGONAL_OPS[m.id.value]

    def test_sixteen_trees_twelve_paths_four_stars(self):
        trees = list(level_trees())
        assert len(trees) == 16
        assert sum(path is None for _, path in trees) == 4
        assert len({path for _, path in trees if path}) == 12

    def test_nearest_neighbour_rule_recovers_the_six_paths(self):
        # the rule ``catalog`` states: a path that holds at least two of
        # 2-1, 3-2 and 4-3; each of the other six paths holds at most one
        chosen = {path for edges, path in level_trees()
                  if path and len(edges & NEAREST) >= 2}
        assert chosen == {min(m.path, m.path[::-1]) for m in catalog()}
        assert all(len(t & NEAREST) >= 2 for t in EXPECTED_TRANSITIONS.values())

    def test_stars_on_levels_2_and_3_also_hold_two(self):
        # the stars that the rule alone would admit; the catalog has none
        centres = {Counter(level for tr in edges for level in tr).most_common(1)[0][0]
                   for edges, path in level_trees() if path is None and len(edges & NEAREST) >= 2}
        assert centres == {2, 3}

    def test_get_model_roundtrip(self):
        assert get_model("IV").id is ModelId.IV
        assert get_model(ModelId.VI).id is ModelId.VI

    @pytest.mark.parametrize("mid", ["VII", "i", "", None])
    def test_get_model_refuses_unknown_id(self, mid):
        # an unknown id is a configuration error naming the id and the six
        # valid ones, not the enum's bare ValueError
        with pytest.raises(ConfigurationError) as exc:
            get_model(mid)
        assert str(exc.value) == f"unknown model {mid!r}; choose from I, II, III, IV, V, VI"


class TestEnergies:
    def test_chain_example(self):
        m = get_model("I")
        assert np.allclose(m.energies((1.0, 2.0, 3.0)), [-3.0, -1.0, 3.0, 1.0], atol=1e-15)

    def test_double_branch_example(self):
        m = get_model("IV")
        assert np.allclose(m.energies((1.0, 2.0, 3.0)), [-4.0, 1.0, -1.0, 4.0], atol=1e-15)

    @given(omega_triples)
    @settings(max_examples=100, deadline=None)
    def test_energies_sum_to_zero(self, omega):
        for m in catalog():
            assert abs(sum(m.energies(omega))) < 1e-12 * (1 + np.abs(omega).max())

    def test_rejects_wrong_omega_length(self):
        with pytest.raises(ConfigurationError):
            get_model("I").energies((1.0, 2.0))  # type: ignore[arg-type]


class TestDriveParams:
    def test_rejects_negative_coupling(self):
        with pytest.raises(ConfigurationError):
            DriveParams(omega=(1, 2, 3), field_freq={(2, 1): 1.0}, coupling={(2, 1): -0.1})

    def test_rejects_forbidden_transition_key(self):
        m = get_model("I")  # (4, 3) is forbidden here
        bad = DriveParams(
            omega=(1, 2, 3),
            field_freq={(4, 3): 1.0, (3, 2): 1.0, (2, 1): 1.0},
            coupling={(4, 3): 0.1, (3, 2): 0.1, (2, 1): 0.1},
        )
        with pytest.raises(ConfigurationError):
            bad.validate_for(m)

    def test_rejects_missing_transition_key(self):
        m = get_model("I")
        bad = DriveParams(omega=(1, 2, 3), field_freq={(2, 1): 1.0}, coupling={(2, 1): 0.1})
        with pytest.raises(ConfigurationError):
            bad.validate_for(m)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_splitting(self, bad):
        with pytest.raises(ConfigurationError, match="w2 is not finite"):
            DriveParams(omega=(1, bad, 3), field_freq={(2, 1): 1.0}, coupling={(2, 1): 0.1})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_field_frequency(self, bad):
        with pytest.raises(ConfigurationError, match="field_freq .* not finite"):
            DriveParams(omega=(1, 2, 3), field_freq={(2, 1): bad}, coupling={(2, 1): 0.1})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_coupling(self, bad):
        with pytest.raises(ConfigurationError, match="coupling .* not finite"):
            DriveParams(omega=(1, 2, 3), field_freq={(2, 1): 1.0}, coupling={(2, 1): bad})

    def test_zero_coupling_allowed(self):
        drive_for(get_model("I"), kappa=0.0).validate_for(get_model("I"))


class TestHamiltonian:
    def test_zero_coupling_leaves_diagonal(self):
        m = get_model("II")
        h = hamiltonian_t(m, drive_for(m, kappa=0.0), t=1.7)
        energies_rows = m.energies((1.0, 2.0, 3.0))[::-1]
        assert np.abs(h - np.diag(energies_rows)).max() < 1e-15

    def test_chain_t0_structure(self):
        m = get_model("I")
        drive = DriveParams(
            omega=(1.0, 2.0, 3.0),
            field_freq={(4, 1): 1.0, (3, 2): 1.0, (2, 1): 1.0},
            coupling={(4, 1): 0.7, (3, 2): 0.24, (2, 1): 0.24},
        )
        h = hamiltonian_t(m, drive, t=0.0)
        assert h[0, 3] == pytest.approx(0.7)   # rows of levels (4, 1)
        assert h[1, 2] == pytest.approx(0.24)  # rows of levels (3, 2)
        assert h[2, 3] == pytest.approx(0.24)  # rows of levels (2, 1)
        off = h - np.diag(np.diag(h))
        assert np.abs(off.imag).max() == 0.0
        assert np.count_nonzero(off) == 6

    def test_diagonal_is_traceless(self):
        for m in catalog():
            h = hamiltonian_t(m, drive_for(m), t=0.3)
            assert abs(np.trace(h)) < 1e-12

    @given(omega_triples, st.floats(0, 20, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_hermitian_at_all_times(self, omega, t):
        for m in catalog():
            h = hamiltonian_t(m, drive_for(m, omega=omega, kappa=0.5, freq=2.3), t)
            assert np.abs(h - h.conj().T).max() < 1e-14

    def test_row_placement_follows_level_order(self):
        # a transition (a, b) must sit at (row_of(a), row_of(b)), above diagonal
        for m in catalog():
            h = hamiltonian_t(m, drive_for(m, kappa=0.9, freq=0.0), t=0.0)
            for a, b in m.allowed:
                assert h[row_of(a), row_of(b)] == pytest.approx(0.9)
                assert row_of(a) < row_of(b)

    def test_array_of_times_stacks_single_time_matrices(self):
        times = np.linspace(0.0, 7.0, 15).reshape(3, 5)
        for m in catalog():
            drive = drive_for(m, kappa=0.4, freq=1.9)
            stacked = hamiltonian_t(m, drive, times)
            assert stacked.shape == (3, 5, 4, 4)
            for idx in np.ndindex(times.shape):
                assert np.array_equal(stacked[idx], hamiltonian_t(m, drive, float(times[idx])))

    def test_matches_complex_exponential_bit_for_bit(self):
        # the table's kappa cos(w t) and kappa sin(w t) weights give the
        # entry kappa exp(-i w t) without a rounding difference
        rng = np.random.default_rng(20261018)
        for m in catalog():
            drive = DriveParams(
                omega=tuple(rng.uniform(0.2, 3.0, size=3)),
                field_freq={tr: rng.uniform(-4.0, 4.0) for tr in m.allowed},
                coupling={tr: rng.uniform(0.0, 1.0) for tr in m.allowed},
            )
            t = rng.uniform(-1e3, 1e3, size=2000)
            literal = np.empty(t.shape + (4, 4), dtype=complex)
            literal[...] = np.diag(m.energies(drive.omega)[::-1])
            for a, b in m.allowed:
                entry = drive.coupling[(a, b)] * np.exp(-1j * drive.field_freq[(a, b)] * t)
                literal[..., row_of(a), row_of(b)] = entry
                literal[..., row_of(b), row_of(a)] = np.conj(entry)
            assert np.array_equal(hamiltonian_t(m, drive, t), literal)


class TestShiftOperatorForm:
    def test_matches_matrix_form_on_random_draws(self):
        rng = np.random.default_rng(20260821)
        worst = 0.0
        for m in catalog():
            for _ in range(100):
                omega = tuple(rng.uniform(0.2, 3.0, size=3))
                drive = DriveParams(
                    omega=omega,
                    field_freq={tr: rng.uniform(-4.0, 4.0) for tr in m.allowed},
                    coupling={tr: rng.uniform(0.0, 1.0) for tr in m.allowed},
                )
                t = rng.uniform(0.0, 20.0)
                h_direct = hamiltonian_t(m, drive, t)
                h_ops = hamiltonian_shift_form(m, drive, t, OPS)
                worst = max(worst, float(np.abs(h_direct - h_ops).max()))
        assert worst < 1e-14

    def test_free_part_lies_in_assigned_diagonal_span(self):
        # solving on the model's three assigned diagonals must be exact
        for m in catalog():
            h = hamiltonian_shift_form(m, drive_for(m, kappa=0.0), 0.0, OPS)
            assert np.abs(h - np.diag(np.diag(h))).max() < 1e-15


class TestStateVector:
    def test_basis_state(self):
        sv = StateVector.basis(2)
        assert sv.amplitudes[1] == 1.0
        assert np.abs(sv.populations() - [0, 1, 0, 0]).max() == 0.0

    @pytest.mark.parametrize("level", [0, 5, -1])
    def test_basis_rejects_level_outside_1_to_4(self, level):
        for owner in (StateVector.basis, row_of):
            with pytest.raises(ConfigurationError, match="outside 1..4"):
                owner(level)

    @pytest.mark.parametrize("level", [2.0, np.float64(3.0), 1.5, "1"])
    def test_basis_rejects_non_integer_level(self, level):
        # 2.0 == 2 passes the level test, but a float is no index; row_of
        # owns the rule, and StateVector.basis refuses through it
        for owner in (StateVector.basis, row_of):
            with pytest.raises(ConfigurationError, match="is not an integer 1..4"):
                owner(level)

    @pytest.mark.parametrize("level", [True, False, np.True_])
    def test_basis_rejects_bool_level(self, level):
        # a bool is an int to Python and True == 1, so True passed the level
        # test as level 1 (row 3); np.True_ is no np.integer and was refused
        # all along, the control case
        for owner in (StateVector.basis, row_of):
            with pytest.raises(ConfigurationError, match="level .* is not an integer 1..4"):
                owner(level)

    @pytest.mark.parametrize("level", [np.int64(2), np.int32(4), np.uint8(1)])
    def test_basis_takes_numpy_integer_levels(self, level):
        expected = StateVector.basis(int(level)).amplitudes
        assert np.array_equal(StateVector.basis(level).amplitudes, expected)
        assert row_of(level) == row_of(int(level))

    def test_rejects_nan_amplitudes(self):
        with pytest.raises(ConfigurationError):
            StateVector(np.array([np.nan, 1.0, 0.0, 0.0]))

    def test_rejects_non_normalized(self):
        with pytest.raises(ConfigurationError):
            StateVector(np.array([1.0, 1.0, 0.0, 0.0]))

    def test_amplitudes_read_only(self):
        sv = StateVector.basis(1)
        with pytest.raises(ValueError):
            sv.amplitudes[0] = 0.0
