import itertools

import numpy as np
import pytest

from plapopt.geometry import DomainMesh, build_disk_mesh, validate_mesh
from plapopt.optimizer import (
    J_TOL,
    OptimizeConfig,
    maximize_over_rearrangements,
)
from plapopt.rearrangement import (
    LoadField,
    binary_load,
    comonotonicity_defect,
    same_class,
    step_load,
)
from plapopt.solver import SolveConfig, solve


@pytest.fixture(scope="module")
def small_disk():
    return build_disk_mesh(1.0, 32, 5)


@pytest.fixture(scope="module")
def tiny_disk():
    return build_disk_mesh(1.0, 8, 2)


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

    def test_records_count_solver_work(self, small_disk):
        # each record carries its solve's Newton steps and factorizations;
        # the solves after the first start warm from the previous state
        f0 = step_load(small_disk, [0.0, 0.5, 1.0])
        _, _, hist = maximize_over_rearrangements(small_disk, f0, _config(1.5))
        recs = hist.per_restart(0)
        assert len(recs) >= 2
        _, cold = solve(small_disk, f0, SolveConfig(p=1.5))
        assert recs[0].newton_steps == sum(cold.iterations_per_stage)
        assert recs[0].factorizations == cold.factorizations
        for rec in recs[1:]:
            assert rec.newton_steps < recs[0].newton_steps

    # 253 and 347 Newton steps measured, plus about 20 % (a warm stage
    # given a 12-step budget instead of the contraction monitor took 305
    # and 447)
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
        assert not validate_mesh(bad).ok

        def no_solve(*args, **kwargs):
            raise AssertionError("solve called on a mesh with unequal cells")

        monkeypatch.setattr("plapopt.optimizer.solve", no_solve)
        f0 = binary_load(bad, 3)
        with pytest.raises(ValueError, match="equal"):
            maximize_over_rearrangements(bad, f0, _config(2.0))


class TestOptimizeConfig:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            OptimizeConfig(solver=SolveConfig(p=2.0), max_outer_iters=0)
        with pytest.raises(ValueError):
            OptimizeConfig(solver=SolveConfig(p=2.0), n_restarts=0)
