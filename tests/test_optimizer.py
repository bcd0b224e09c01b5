import dataclasses
import itertools

import numpy as np
import pytest

from plapopt.acceptance import STEP_LEVELS
from plapopt.cli import EXIT_SOLVER, main
from plapopt.fileio import write_load, write_mesh
from plapopt.geometry import DomainMesh, build_disk_mesh, unequal_cell
from plapopt import optimizer, solver
from plapopt.optimizer import (
    INNER_TOL,
    J_TOL,
    OptimizeConfig,
    maximize_over_rearrangements,
)
from plapopt.rearrangement import (
    LoadField,
    binary_load,
    comonotonicity_defect,
    step_load,
)
from plapopt.solver import EPS_STAGES, NEWTON_TOL, SolveConfig, SolverError, solve

from oracles import same_class


@pytest.fixture(scope="module")
def small_disk():
    return build_disk_mesh(1.0, 32, 5)


@pytest.fixture(scope="module")
def tiny_disk():
    return build_disk_mesh(1.0, 8, 2)


def _spy_solves(monkeypatch):
    """Record (u_init, tol, state, report) of every optimizer state solve."""
    calls = []

    def spy(mesh, f, config, u_init=None, *, tol):
        state, report = solve(mesh, f, config, u_init=u_init, tol=tol)
        calls.append((u_init, tol, state, report))
        return state, report

    monkeypatch.setattr(optimizer, "solve", spy)
    return calls


def _solves_per_record(calls):
    """The solves of each record: its loose solve and any tight re-solve."""
    groups = []
    for call in calls:
        if call[1] == INNER_TOL:
            groups.append([])
        groups[-1].append(call)
    return groups


def _config(p, restarts=1, seed=0):
    return OptimizeConfig(
        solver=SolveConfig(p=p), n_restarts=restarts, seed=seed, max_outer_iters=60
    )


class TestMaximize:
    def test_constant_load_returns_immediately(self, small_disk):
        f0 = LoadField.constant(small_disk, 2.0)
        fhat, uhat, hist = maximize_over_rearrangements(small_disk, f0, _config(2.0))
        assert np.array_equal(fhat.cell_values, f0.cell_values)
        assert len(hist.records) == 1
        assert hist.restart_results[0][2]  # fixed point on iteration 0

    def test_binary_beats_initial_and_random(self, small_disk):
        f0 = binary_load(small_disk, 8, start=2)
        cfg = _config(2.0, restarts=2, seed=9)
        fhat, uhat, hist = maximize_over_rearrangements(small_disk, f0, cfg)
        assert same_class(fhat, f0)
        assert set(np.unique(fhat.cell_values)) == {0.0, 1.0}
        assert comonotonicity_defect(fhat, uhat.boundary_trace) == 0.0

        _, rep_hat = solve(small_disk, fhat, cfg.solver)
        J_hat = rep_hat.J
        _, rep0 = solve(small_disk, f0, cfg.solver)
        assert J_hat >= rep0.J - 1e-12
        rng = np.random.default_rng(4)
        for _ in range(50):
            g = LoadField(rng.permutation(f0.cell_values))
            _, rep = solve(small_disk, g, cfg.solver)
            assert J_hat >= rep.J - 1e-6 * (1.0 + abs(J_hat))

    def test_monotone_ascent_and_class_preservation(self, small_disk):
        f0 = step_load(small_disk, [0.0, 0.5, 1.0])
        cfg = _config(3.0, restarts=2, seed=1)
        fhat, uhat, hist = maximize_over_rearrangements(small_disk, f0, cfg)
        for r, _, _ in hist.restart_results:
            Js = [rec.J for rec in hist.per_restart(r)]
            for a, b in zip(Js, Js[1:]):
                assert b >= a - 1e-5 * (1.0 + abs(a))
        assert same_class(fhat, f0)

    def test_exhaustive_tiny_global_maximum(self, tiny_disk):
        values = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 2.0])
        cfg = _config(2.0, restarts=5, seed=2)
        f0 = LoadField.from_values(tiny_disk, values)
        fhat, uhat, hist = maximize_over_rearrangements(tiny_disk, f0, cfg)
        _, rep_hat = solve(tiny_disk, fhat, cfg.solver)
        best = -np.inf
        for perm in set(itertools.permutations(values)):
            f = LoadField.from_values(tiny_disk, np.array(perm))
            _, rep = solve(tiny_disk, f, cfg.solver)
            best = max(best, rep.J)
        assert rep_hat.J == pytest.approx(best, rel=1e-6)

    def test_restarts_deterministic_given_seed(self, small_disk):
        f0 = binary_load(small_disk, 8)
        cfg = _config(2.0, restarts=3, seed=77)
        f1, _, h1 = maximize_over_rearrangements(small_disk, f0, cfg)
        f2, _, h2 = maximize_over_rearrangements(small_disk, f0, cfg)
        assert np.array_equal(f1.cell_values, f2.cell_values)
        assert [r.J for r in h1.records] == [r.J for r in h2.records]

    def test_restart_ties_go_to_the_earliest(self):
        # on the symmetric disk later restarts reach rotated copies of
        # restart 0's fixed point, whose J differ from its J by rounding
        # (one by 4e-14): no better load
        mesh = build_disk_mesh(1.0, 64, 10)
        f0 = binary_load(mesh, 16)
        one, _, _ = maximize_over_rearrangements(mesh, f0, _config(1.5, 1, 11))
        five, _, hist = maximize_over_rearrangements(mesh, f0, _config(1.5, 5, 11))
        assert np.array_equal(five.cell_values, one.cell_values)
        assert hist.returned_restart == 0
        (_, J0, _), *later = hist.restart_results
        assert sum(abs(J - J0) <= J_TOL * (1.0 + abs(J0)) for _, J, _ in later) >= 2

    def test_history_records_defect_path(self, small_disk):
        f0 = binary_load(small_disk, 8, start=11)
        fhat, uhat, hist = maximize_over_rearrangements(small_disk, f0, _config(2.0))
        last = hist.per_restart(0)[-1]
        assert last.defect == 0.0
        assert not last.changed

    def test_records_count_solver_work(self, small_disk, monkeypatch):
        # each record carries the Newton steps and factorizations of its
        # loose solve plus, where it ends the restart, those of its tight
        # re-solve, warm from the loose state; the first loose solve is
        # cold, every later one warm from the previous record's state
        calls = _spy_solves(monkeypatch)
        f0 = step_load(small_disk, [0.0, 0.5, 1.0])
        _, _, hist = maximize_over_rearrangements(small_disk, f0, _config(1.5))
        recs = hist.per_restart(0)
        assert len(recs) >= 2
        groups = _solves_per_record(calls)
        assert len(groups) == len(recs)
        for rec, group in zip(recs, groups):
            assert rec.newton_steps == sum(
                sum(rep.iterations_per_stage) for _, _, _, rep in group)
            assert rec.factorizations == sum(rep.factorizations for _, _, _, rep in group)
            if len(group) == 2:
                (_, _, loose, _), (start, tol, _, _) = group
                assert start is loose and tol == NEWTON_TOL
        assert groups[0][0][0] is None
        for prev, group in zip(groups, groups[1:]):
            assert group[0][0] is prev[-1][2]
        _, cold = solve(small_disk, f0, SolveConfig(p=1.5), tol=INNER_TOL)
        assert sum(groups[0][0][3].iterations_per_stage) == sum(cold.iterations_per_stage)
        assert len(groups[-1]) == 2  # the restart ends on a tight re-solve

    def test_duality_gap_is_derived(self, small_disk):
        fields = [f.name for f in dataclasses.fields(optimizer.IterationRecord)]
        assert "duality_gap" not in fields
        f0 = step_load(small_disk, [0.0, 0.5, 1.0])
        _, _, hist = maximize_over_rearrangements(small_disk, f0, _config(1.5, 2, 5))
        assert all(rec.duality_gap == abs(rec.J - rec.I) for rec in hist.records)

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_each_restart_ends_tight(self, small_disk, p):
        f0 = step_load(small_disk, [0.0, 0.5, 1.0])
        _, _, hist = maximize_over_rearrangements(small_disk, f0, _config(p, 3, 5))
        for r, J, fixed in hist.restart_results:
            last = hist.per_restart(r)[-1]
            assert last.tight and last.J == J
            assert last.duality_gap <= 1e-10 * (1.0 + abs(J))
            if fixed:
                assert last.defect == 0.0

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_lower_bound_I_ascends(self, small_disk, p):
        # I(u_k; f_k) <= J(f_{k+1}) at any u_k; criterion 5's tolerance
        f0 = step_load(small_disk, [0.0, 0.5, 1.0])
        _, _, hist = maximize_over_rearrangements(small_disk, f0, _config(p, 3, 5))
        for r, _, _ in hist.restart_results:
            recs = hist.per_restart(r)
            assert len(recs) >= 2
            for a, b in zip(recs, recs[1:]):
                assert b.I >= a.I - 1e-5 * (1.0 + abs(a.I))

    def test_p2_solves_once_per_record(self, small_disk, monkeypatch):
        # a p = 2 solve starts at its solution and takes no step: every
        # state is tight
        calls = _spy_solves(monkeypatch)
        f0 = step_load(small_disk, [0.0, 0.5, 1.0])
        _, _, hist = maximize_over_rearrangements(small_disk, f0, _config(2.0, 3, 5))
        assert len(calls) == len(hist.records)
        assert all(rec.tight for rec in hist.records)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("load", ["binary", "3level"])
    def test_loose_iterates_keep_the_answer(self, load, p, monkeypatch):
        # the battery's setting: the returned load and J are those of a run
        # that solves every iterate to NEWTON_TOL
        mesh = build_disk_mesh(1.0, 64, 10)
        f0 = binary_load(mesh, 16, start=5) if load == "binary" else step_load(mesh, [0.0, 0.5, 1.0])
        cfg = OptimizeConfig(solver=SolveConfig(p=p), n_restarts=5, seed=11,
                             max_outer_iters=80)
        f_loose, _, h_loose = maximize_over_rearrangements(mesh, f0, cfg)
        monkeypatch.setattr(optimizer, "INNER_TOL", NEWTON_TOL)
        f_tight, _, h_tight = maximize_over_rearrangements(mesh, f0, cfg)
        assert np.array_equal(f_loose.cell_values, f_tight.cell_values)
        (_, J_loose, _), (_, J_tight, _) = (
            h.restart_results[h.returned_restart] for h in (h_loose, h_tight))
        assert abs(J_loose - J_tight) <= 1e-10 * (1.0 + abs(J_tight))

    def test_low_p_three_level_load_completes(self):
        # restart 2's state solve met NEWTON_TOL only to rounding (2.08e-10)
        # while every iterate was solved to it, and the run raised
        # SolverError; now every restart ends tight at a fixed point
        mesh = build_disk_mesh(1.0, 64, 10)
        f0 = step_load(mesh, [0.0, 0.5, 1.0])
        cfg = OptimizeConfig(solver=SolveConfig(p=1.3), n_restarts=4, seed=11,
                             max_outer_iters=80)
        _, _, hist = maximize_over_rearrangements(mesh, f0, cfg)
        results = hist.restart_results
        assert len(results) == 4
        for r, _, fixed in results:
            last = hist.per_restart(r)[-1]
            assert last.tight and fixed and last.defect == 0.0
        assert hist.returned_restart == 2
        J_best = max(J for _, J, _ in results)
        assert abs(J_best - 4.161707855682) <= 1e-9 * (1.0 + abs(J_best))

    # 253 and 347 Newton steps measured, plus about 20 % (a warm stage
    # given a 12-step budget instead of the contraction monitor took 305
    # and 447; with loose intermediate iterates they take 211 and 305)
    @pytest.mark.parametrize("load, budget", [("binary", 304), ("3level", 416)])
    def test_newton_budget(self, load, budget):
        # the 64x10 disk at p = 1.5, 5 restarts: most solves are warm,
        # and a warm stage that stops contracting leaves for the ladder
        mesh = build_disk_mesh(1.0, 64, 10)
        f0 = binary_load(mesh, 16) if load == "binary" else step_load(mesh, [0.0, 0.5, 1.0])
        _, _, hist = maximize_over_rearrangements(mesh, f0, _config(1.5, 5, 11))
        assert sum(rec.newton_steps for rec in hist.records) <= budget

    def test_unequal_cells_refused_before_any_solve(self, tiny_disk, monkeypatch):
        verts = np.array(tiny_disk.vertices)
        # move one boundary vertex along the octagon: two cells change length
        i, j = tiny_disk.boundary_loop[2], tiny_disk.boundary_loop[3]
        verts[i] = 0.7 * verts[i] + 0.3 * verts[j]
        bad = DomainMesh(verts, tiny_disk.triangles, tiny_disk.boundary_loop)
        assert unequal_cell(bad)

        def no_solve(*args, **kwargs):
            raise AssertionError("solve called on a mesh with unequal cells")

        monkeypatch.setattr("plapopt.optimizer.solve", no_solve)
        f0 = binary_load(bad, 3)
        with pytest.raises(ValueError, match="equal"):
            maximize_over_rearrangements(bad, f0, _config(2.0))


class TestUnconvergedStateSolve:
    # Newton-starved at p = 1.5: one stage of 4 steps leaves the first
    # state solve of criterion 1's step load at residual 6.4e-5
    @pytest.fixture(autouse=True)
    def starve(self, monkeypatch):
        monkeypatch.setattr(solver, "EPS_STAGES", EPS_STAGES[:1])
        monkeypatch.setattr(solver, "MAX_NEWTON_ITERS", 4)

    @pytest.fixture(scope="class")
    def disk(self):
        return build_disk_mesh(1.0, 64, 10)

    def test_refused_naming_restart_and_iteration(self, disk):
        f0 = step_load(disk, STEP_LEVELS)
        with pytest.raises(SolverError, match=r"state solve at restart 0, iteration 0 "
                                              r"stalled at residual 6\.\d+e-05"):
            maximize_over_rearrangements(disk, f0, _config(1.5))

    def test_cli_exits_3(self, disk, tmp_path, capsys):
        write_mesh(tmp_path / "m.txt", disk)
        write_load(tmp_path / "f.txt", step_load(disk, STEP_LEVELS))
        rc = main(["optimize", "--mesh", str(tmp_path / "m.txt"),
                   "--load0", str(tmp_path / "f.txt"), "--p", "1.5",
                   "--out", str(tmp_path / "opt")])
        assert rc == EXIT_SOLVER
        err = capsys.readouterr().err
        assert err.startswith("solver failure: ") and "stalled at residual" in err
        assert not (tmp_path / "opt" / "summary.json").exists()


class TestOptimizeConfig:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            OptimizeConfig(solver=SolveConfig(p=2.0), max_outer_iters=0)
        with pytest.raises(ValueError):
            OptimizeConfig(solver=SolveConfig(p=2.0), n_restarts=0)
