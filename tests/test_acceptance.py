"""Acceptance battery: every criterion at its pinned tolerance, one
pass/fail line each (run with -s to see the lines as they complete)."""

import numpy as np
import pytest
from scipy.special import iv

from plapopt import acceptance

from oracles import radial_trace


class TestFrozenOracles:
    """The frozen reference constants must match live oracle runs."""

    def test_p2_trace_constant(self):
        assert acceptance.TRACE_ORACLE_P2 == pytest.approx(
            iv(0, 1.0) / iv(1, 1.0), abs=1e-12
        )
        assert acceptance.TRACE_ORACLE_P2 == pytest.approx(
            radial_trace(2.0), abs=1e-10
        )

    def test_p2_J_constant(self):
        assert acceptance.J_ORACLE_P2 == pytest.approx(
            2.0 * np.pi * iv(0, 1.0) / iv(1, 1.0), abs=1e-11
        )

    def test_p3_trace_constant(self):
        assert acceptance.TRACE_ORACLE_P3 == pytest.approx(
            radial_trace(3.0), abs=1e-8
        )


def _run(number):
    res = acceptance.run_criteria({number}, echo=None)[0]
    print(res.line(), res.details)
    return res


class TestNumbering:
    """A criterion's number is its place in ALL_CRITERIA."""

    def test_names_carry_numbers(self):
        assert len(acceptance.ALL_CRITERIA) == 11
        for i, fn in enumerate(acceptance.ALL_CRITERIA, start=1):
            assert fn.__name__.startswith(f"criterion_{i}_")

    def test_selection_by_number(self):
        results = acceptance.run_criteria({4, 10}, echo=None)
        assert [r.number for r in results] == [4, 10]


class TestAcceptanceCriteria:
    def test_criterion_01_duality(self):
        assert _run(1).passed

    def test_criterion_02_linear_oracle(self):
        assert _run(2).passed

    def test_criterion_03_nonlinear_oracle(self):
        assert _run(3).passed

    def test_criterion_04_best_response_exact(self):
        assert _run(4).passed

    def test_criterion_05_monotone_ascent(self):
        assert _run(5).passed

    def test_criterion_06_comonotone_fixed_point(self):
        assert _run(6).passed

    def test_criterion_07_derivative_agreement(self):
        assert _run(7).passed

    def test_criterion_08_symmetry_null(self):
        assert _run(8).passed

    def test_criterion_09_transport_convergence(self):
        assert _run(9).passed

    def test_criterion_10_flow_fidelity(self):
        assert _run(10).passed

    def test_criterion_11_square_agreement(self):
        assert _run(11).passed
