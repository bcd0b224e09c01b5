"""Acceptance battery: every criterion at its pinned tolerance, one
pass/fail line each (run with -s to see the lines as they complete)."""

import numpy as np
import pytest
from scipy.special import iv

from plapopt import acceptance
from plapopt.solver import SolveReport

from oracles import radial_trace


class TestFrozenOracles:
    """The frozen reference constants must match live oracle runs."""

    def test_p2_trace_constant(self):
        # the shooting oracle against the exact p = 2 trace I0(1)/I1(1)
        assert radial_trace(2.0) == pytest.approx(iv(0, 1.0) / iv(1, 1.0), abs=1e-10)

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


class TestVerdict:
    """gap_over_tol is the one solve check every criterion applies."""

    @staticmethod
    def _report(exit_, J, I):
        return SolveReport(final_residual=0.0, iterations_per_stage=[1],
                           eps_stages=[1e-8], stage_exits=[exit_], J=J, I=I)

    def test_ratio_of_a_converged_report(self):
        ratio = acceptance.gap_over_tol(self._report("converged", -3.0, -3.5))
        assert ratio == 0.5 / (acceptance.GAP_RTOL * 4.0)

    @pytest.mark.parametrize("exit_", ["cap", "stall"])
    def test_unconverged_report_is_inf(self, exit_):
        assert acceptance.gap_over_tol(self._report(exit_, 1.0, 1.0)) == np.inf

    @pytest.mark.parametrize("number", [1, 2, 3, 6])
    def test_unconverged_solves_fail_the_criterion(self, monkeypatch, number):
        # each solve the criterion makes itself reads as unconverged; its
        # J and trace are untouched, so only the verdict can fail it
        solve = acceptance.solve

        def unconverged(*args, **kwargs):
            state, rep = solve(*args, **kwargs)
            rep.stage_exits[-1] = "cap"
            return state, rep

        monkeypatch.setattr(acceptance, "solve", unconverged)
        assert not _run(number).passed


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
        res = _run(5)
        assert res.passed
        assert res.details["worst_I_drop_over_tol"] <= 1.0

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
