import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plapopt.geometry import build_disk_mesh
from plapopt.rearrangement import (
    LoadField,
    best_response,
    binary_load,
    comonotonicity_defect,
    step_load,
)

from oracles import brute_force_best_pairing, same_class


def _load(values):
    return LoadField(np.array(values, dtype=float))


def pairing(f, trace):
    """The pairing sum sum_c f_c * trace_c that ``best_response``
    maximizes."""
    return float(np.sum(f.cell_values * np.asarray(trace, dtype=float)))


class TestDistribution:
    # the best response hands out f's distribution, its values in
    # ascending order, along the cells in trace order

    def test_sorts(self):
        trace = np.array([0.5, 0.1, 0.9])
        f = best_response(_load([3, 1, 2]), trace)
        assert np.array_equal(f.cell_values[np.argsort(trace)], [1, 2, 3])

    def test_keeps_multiplicity(self):
        trace = np.array([0.3, 0.2, 0.1])
        f = best_response(_load([2, 1, 2]), trace)
        assert np.array_equal(f.cell_values[np.argsort(trace)], [1, 2, 2])


class TestSameClass:
    # the oracle by which the tests check that a load stays in its class

    def test_permutation(self):
        assert same_class(_load([1, 2, 2]), _load([2, 1, 2]))

    def test_different_multiset(self):
        assert not same_class(_load([1, 2, 2]), _load([2, 2, 2]))

    def test_binary_counting(self):
        mesh = build_disk_mesh(1.0, 16, 2)
        f = binary_load(mesh, 5)
        g = binary_load(mesh, 5, start=9)
        h = binary_load(mesh, 6)
        assert same_class(f, g)
        assert not same_class(f, h)


class TestBestResponse:
    def test_three_cell_example(self):
        # frozen from brute force over all 6 permutations
        f = best_response(_load([1, 2, 3]), [0.2, 0.5, 0.1])
        assert np.array_equal(f.cell_values, [2, 3, 1])
        assert pairing(f, [0.2, 0.5, 0.1]) == pytest.approx(2.0)

    def test_constant_trace_uses_cell_order(self):
        f = best_response(_load([3, 1, 2]), [0.7, 0.7, 0.7])
        assert np.array_equal(f.cell_values, [1, 2, 3])

    def test_already_comonotone(self):
        f = best_response(_load([1, 2, 3]), [0.1, 0.2, 0.3])
        assert np.array_equal(f.cell_values, [1, 2, 3])

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            n = int(rng.integers(3, 8))
            values = rng.normal(size=n)
            trace = rng.normal(size=n)
            f = best_response(_load(values), trace)
            L = pairing(f, trace)
            assert L >= brute_force_best_pairing(values, trace)
            # Hardy-Littlewood: strictly beats the reversed assignment
            # for generic (distinct-valued) data
            reversed_f = best_response(_load(values), -trace)
            assert L > pairing(reversed_f, trace)

    def test_trace_length_checked(self):
        with pytest.raises(ValueError):
            best_response(_load([1, 2, 3]), [0.1, 0.2])


class TestLinearFunctional:
    # the pairing sum L(f) = sum_c f_c trace_c, through the permutation
    # oracle that criterion 4 and the best response are checked against

    def test_zero_load(self):
        assert brute_force_best_pairing([0.0, 0.0, 0.0], [1, 2, 3]) == 0.0

    def test_direct_sum(self):
        # [2, 3, 1] is the best pairing with this trace: L = 2.0
        f = _load([2, 3, 1])
        trace = [0.2, 0.5, 0.1]
        assert pairing(f, trace) == pytest.approx(2.0)
        assert pairing(f, trace) == brute_force_best_pairing(f.cell_values, trace)


class TestComonotonicityDefect:
    def test_comonotone_is_zero(self):
        assert comonotonicity_defect(_load([1, 2, 3]), [0.1, 0.2, 0.3]) == 0.0

    def test_two_thirds_example(self):
        # violating pairs: (0,1) and (0,2) out of 3
        assert comonotonicity_defect(_load([3, 1, 2]), [0.1, 0.2, 0.3]) == pytest.approx(2 / 3)

    def test_reversed_is_one(self):
        assert comonotonicity_defect(_load([3, 2, 1]), [0.1, 0.2, 0.3]) == 1.0

    def test_ties_not_counted(self):
        assert comonotonicity_defect(_load([2, 1]), [0.5, 0.5]) == 0.0

    @pytest.mark.parametrize("values", [[], [1.0]])
    def test_no_pairs_is_zero(self, values):
        assert comonotonicity_defect(LoadField(values), np.zeros(len(values))) == 0.0


# hypothesis property tests: best_response is pure and combinatorial

finite_floats = st.floats(-100, 100, allow_nan=False, allow_infinity=False)


@st.composite
def values_and_trace(draw, max_n=12):
    n = draw(st.integers(2, max_n))
    values = draw(st.lists(finite_floats, min_size=n, max_size=n))
    trace = draw(st.lists(finite_floats, min_size=n, max_size=n))
    return np.array(values), np.array(trace)


@given(values_and_trace())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_best_response_stays_in_class(vt):
    values, trace = vt
    f = best_response(_load(values), trace)
    assert same_class(f, _load(values))


@given(values_and_trace())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_best_response_defect_zero(vt):
    values, trace = vt
    f = best_response(_load(values), trace)
    assert comonotonicity_defect(f, trace) == 0.0


@given(values_and_trace())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_best_response_beats_reversal(vt):
    values, trace = vt
    f = best_response(_load(values), trace)
    worst = best_response(_load(values), -np.asarray(trace))
    L_best = pairing(f, trace)
    L_worst = pairing(worst, trace)
    assert L_best >= L_worst - 1e-12 * max(1.0, abs(L_best))
    if len(set(values)) >= 2 and len(set(trace)) >= 2:
        # Hardy-Littlewood ordering is strict when both sides vary,
        # unless value gaps pair with trace ties (filtered above).
        assert L_best >= L_worst


@given(values_and_trace())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_idempotent_on_comonotone_inputs(vt):
    values, trace = vt
    if len(set(trace)) != len(trace):
        return  # ties excluded: cell-index tie-breaking may reassign
    f = best_response(_load(values), trace)
    again = best_response(f, trace)
    assert np.array_equal(again.cell_values, f.cell_values)


class TestLoadConstructors:
    def test_step_load_levels(self):
        # equal shares of 16 cells round down to 5, the last takes the rest
        mesh = build_disk_mesh(1.0, 16, 2)
        f = step_load(mesh, [1.0, -1.0, 0.5])
        assert np.array_equal(f.cell_values, np.repeat([1.0, -1.0, 0.5], [5, 5, 6]))

    @pytest.mark.parametrize("k, m", [(4, 2), (20, 1), (20, 5), (21, 1), (45, 1), (47, 3)])
    def test_step_load_splits_k_times_m_cells_evenly(self, k, m):
        # an equal share of k * m cells computed in floating point can
        # round below m (k = 20, 21, 45, 47, ...); the counts are integer
        mesh = build_disk_mesh(1.0, k * m, 2)
        f = step_load(mesh, np.arange(k))
        assert np.array_equal(f.cell_values, np.repeat(np.arange(k), m))

    def test_step_load_needs_a_cell_per_level(self):
        mesh = build_disk_mesh(1.0, 16, 2)
        with pytest.raises(ValueError, match="at least one cell per level"):
            step_load(mesh, np.arange(17))

    def test_step_load_without_levels_rejected(self):
        mesh = build_disk_mesh(1.0, 16, 2)
        with pytest.raises(ValueError, match="at least one level"):
            step_load(mesh, [])

    def test_binary_load_wraps(self):
        mesh = build_disk_mesh(1.0, 16, 2)
        f = binary_load(mesh, 4, start=14)
        assert f.cell_values[[14, 15, 0, 1]].sum() == 4.0
        assert f.cell_values.sum() == 4.0

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            _load([1.0, np.nan])

    def test_column_rejected(self):
        with pytest.raises(ValueError, match="1-D"):
            LoadField(np.ones((16, 1)))

    def test_caller_array_stays_writeable(self):
        mesh = build_disk_mesh(1.0, 16, 2)
        v = np.zeros(16)
        f = LoadField.from_values(mesh, v)
        assert v.flags.writeable and not f.cell_values.flags.writeable
        v[0] = 1.0
        assert f.cell_values[0] == 0.0

    def test_wrong_length_rejected(self):
        mesh = build_disk_mesh(1.0, 16, 2)
        with pytest.raises(ValueError):
            LoadField.from_values(mesh, np.ones(5))
