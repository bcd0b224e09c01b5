import dataclasses
import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse.linalg import splu
from scipy.special import iv

from plapopt import fem, solver
from plapopt.acceptance import STEP_LEVELS
from plapopt.fem import P1Space
from plapopt.geometry import build_disk_mesh, triangle_signed_areas
from plapopt.perturbation import derivative_report, tangent_field, transport_load
from plapopt.rearrangement import LoadField, random_step_load, step_load
from plapopt.solver import (
    EPS_STAGES,
    MAX_NEWTON_ITERS,
    NEWTON_TOL,
    SolveConfig,
    StateField,
    solve,
)

from oracles import (
    radial_trace,
    reference_energy,
    reference_hessian,
    reference_residual,
)


# At p = 1.1 and load scale 1e3 |u| reaches 2e29, and one rounding of u
# moves the residual norm by about 4e-10: the absolute NEWTON_TOL is then
# met only by rounding luck, although the relative duality gap is 3e-15.
ABSOLUTE_STOP_FLOOR = pytest.mark.xfail(
    reason="NEWTON_TOL is below the residual's rounding floor; "
           "needs a scale-aware stop"
)


# exponents at which the kernels are compared with the oracles
KERNEL_PS = [1.1, 1.5, 2.0, 3.0, 10.0]


def space_and_load(mesh, f):
    """The mesh's P1Space and the load vector b of the LoadField f: the
    energy E_eps(u) is ``space.energy(u, b, p, eps)``, its residual
    ``space.residual(u, b, p, eps)`` and J = b.u."""
    space = P1Space.of(mesh)
    return space, space.load_vector(f.cell_values)


def dual_I(space, u, b, p):
    """I(u) = (1/(p-1)) {p b.u - int |grad u|^p + |u|^p dx}, which is
    -(p / (p-1)) E_0(u)."""
    return -(p / (p - 1.0)) * space.energy(u, b, p, 0.0)


def assert_ladder(eps_stages):
    """The rungs a ladder ran: a strictly decreasing subsequence of
    EPS_STAGES from its first rung to its last."""
    assert eps_stages[0] == EPS_STAGES[0] and eps_stages[-1] == EPS_STAGES[-1]
    assert set(eps_stages) <= set(EPS_STAGES)
    assert all(b < a for a, b in zip(eps_stages, eps_stages[1:]))


def spy_stage_residual_norms(monkeypatch):
    """A list that gets, for each Newton stage a solve runs, the list of
    the residual norms the stage computes: its start's and each accepted
    step's."""
    norms, newton_stage, residual = [], solver._newton_stage, P1Space.residual

    def stage_spy(*args):
        norms.append([])
        return newton_stage(*args)

    def residual_spy(self, *args):
        r = residual(self, *args)
        norms[-1].append(np.linalg.norm(r))
        return r

    monkeypatch.setattr(solver, "_newton_stage", stage_spy)
    monkeypatch.setattr(P1Space, "residual", residual_spy)
    return norms


def miss_the_ray_stage(monkeypatch):
    """A warm monitor that no step can satisfy: a cold solve above p = 2
    leaves its ray stage after one step as "slow" and runs the ladder
    from u = 0."""
    monkeypatch.setattr(solver, "WARM_WINDOW", 1)
    monkeypatch.setattr(solver, "WARM_CONTRACTION", 0.0)


@pytest.fixture(scope="module")
def disk():
    return build_disk_mesh(1.0, 64, 10)


@pytest.fixture(scope="module")
def small_disk():
    """The 17-vertex disk, below PCG_MIN_VERTICES: its space holds the
    operators dense, where ``disk``'s are CSR."""
    mesh = build_disk_mesh(1.0, 8, 2)
    assert isinstance(P1Space.of(mesh).G, np.ndarray)
    return mesh


@pytest.fixture(scope="module")
def big_disk():
    """The 2561-vertex disk of criterion 7 and the benchmark's solves."""
    return build_disk_mesh(1.0, 128, 20)


@pytest.fixture(scope="module")
def disk_area(disk):
    return triangle_signed_areas(disk.vertices, disk.triangles).sum()


class TestEnergy:
    def test_zero_field(self, disk):
        u = np.zeros(disk.n_vertices)
        space, b = space_and_load(disk, LoadField.constant(disk, 0.7))
        assert space.energy(u, b, 3.0, 0.0) == 0.0

    def test_constant_field_p2(self, disk, disk_area):
        c = 1.3
        u = np.full(disk.n_vertices, c)
        space, b = space_and_load(disk, LoadField.constant(disk, 0.0))
        assert space.energy(u, b, 2.0, 0.0) == pytest.approx(
            0.5 * c * c * disk_area, rel=1e-12
        )

    def test_pure_regularization_term(self, disk, disk_area):
        u = np.zeros(disk.n_vertices)
        space, b = space_and_load(disk, LoadField.constant(disk, 0.0))
        # eps regularizes the gradient and the mass term alike
        assert space.energy(u, b, 2.0, 0.1) == pytest.approx(
            0.5 * (0.01 + 0.01) * disk_area, rel=1e-12
        )

    @pytest.mark.parametrize("eps", [0.1, 1e-8])
    @pytest.mark.parametrize("p", KERNEL_PS)
    def test_matches_reference(self, disk, small_disk, p, eps):
        for mesh in (disk, small_disk):
            rng = np.random.default_rng(14)
            u = 0.5 * rng.normal(size=mesh.n_vertices)
            b = 0.1 * rng.normal(size=mesh.n_vertices)
            E = P1Space.of(mesh).energy(u, b, p, eps)
            assert E == pytest.approx(reference_energy(mesh, u, b, p, eps), rel=1e-13)

    @pytest.mark.parametrize("p", [1.1, 1.5, 3.0])
    def test_lp_integrals_vanish_where_the_field_does(self, disk, p):
        # at eps = 0 a flat triangle and a zero value add exactly 0
        space = P1Space.of(disk)
        assert space.integrate_lp(np.zeros(disk.n_vertices), p) == (0.0, 0.0)
        u = np.maximum(disk.vertices[:, 0], 0.0)  # zero on the left half
        grad_term, mass_term = space.integrate_lp(u, p)
        zero = np.zeros(disk.n_vertices)
        assert grad_term + mass_term == pytest.approx(
            p * reference_energy(disk, u, zero, p, 0.0), rel=1e-13
        )

    def test_mesh_mismatch_rejected(self, disk):
        other = build_disk_mesh(1.0, 32, 4)
        f = LoadField.constant(other, 1.0)
        with pytest.raises(ValueError, match="load has 32 cells, mesh has 64"):
            solve(disk, f, SolveConfig(p=2.0))


class TestResidual:
    def test_zero_at_origin_with_zero_load(self, disk):
        space, b = space_and_load(disk, LoadField.constant(disk, 0.0))
        r = space.residual(np.zeros(disk.n_vertices), b, 3.0, 0.01)
        assert np.all(r == 0.0)

    def test_residual_small_at_solution(self, disk):
        f = LoadField.constant(disk, 1.0)
        cfg = SolveConfig(p=3.0)
        u, rep = solve(disk, f, cfg)
        space, b = space_and_load(disk, f)
        r = space.residual(u.nodal_values, b, 3.0, EPS_STAGES[-1])
        assert np.linalg.norm(r) <= NEWTON_TOL

    @pytest.mark.parametrize("eps", [0.1, 1e-8])
    @pytest.mark.parametrize("p", KERNEL_PS)
    def test_matches_reference(self, disk, small_disk, p, eps):
        for mesh in (disk, small_disk):
            rng = np.random.default_rng(16)
            u = 0.5 * rng.normal(size=mesh.n_vertices)
            b = 0.1 * rng.normal(size=mesh.n_vertices)
            r = P1Space.of(mesh).residual(u, b, p, eps)
            ref = reference_residual(mesh, u, b, p, eps)
            assert np.max(np.abs(r - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_matches_energy_finite_difference(self, disk):
        # central difference of the energy in random nodal directions
        rng = np.random.default_rng(3)
        u = 0.5 * rng.normal(size=disk.n_vertices)
        f = LoadField.from_values(disk, rng.normal(size=disk.n_boundary_cells))
        p, eps, h = 3.0, 0.01, 1e-5
        space, b = space_and_load(disk, f)
        r = space.residual(u, b, p, eps)
        for i in rng.choice(disk.n_vertices, size=12, replace=False):
            up, um = u.copy(), u.copy()
            up[i] += h
            um[i] -= h
            fd = (space.energy(up, b, p, eps) - space.energy(um, b, p, eps)) / (2 * h)
            assert fd == pytest.approx(r[i], rel=1e-6, abs=1e-10)


class TestHessian:
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_matches_coo_reference(self, disk, small_disk, p):
        for mesh in (disk, small_disk):
            rng = np.random.default_rng(11)
            u = 0.5 * rng.normal(size=mesh.n_vertices)
            H = P1Space.of(mesh).hessian(u, p, 0.01)
            ref = reference_hessian(mesh, u, p, 0.01)
            assert H.format == "csc" and H.shape == ref.shape
            assert abs(H - ref).max() <= 1e-13 * abs(ref).max()

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_symmetric(self, disk, p):
        rng = np.random.default_rng(12)
        u = 0.5 * rng.normal(size=disk.n_vertices)
        H = P1Space.of(disk).hessian(u, p, 0.01)
        assert abs(H - H.T).max() <= 1e-15 * abs(H).max()

    @pytest.mark.parametrize("eps", [0.1, 0.01])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_matches_residual_finite_difference(self, disk, p, eps):
        # H is the exact Jacobian of the residual, also where u changes
        # sign (a floored mass coefficient misses it there by 4e-3 at
        # p = 1.5); at p = 2 the residual is linear in u, so only
        # rounding remains
        rng = np.random.default_rng(13)
        u = 0.5 * rng.normal(size=disk.n_vertices)
        assert u.min() < 0.0 < u.max()
        f = LoadField.from_values(disk, rng.normal(size=disk.n_boundary_cells))
        h = 1e-5
        space, b = space_and_load(disk, f)
        H = space.hessian(u, p, eps)
        for _ in range(4):
            v = rng.normal(size=disk.n_vertices)
            fd = (space.residual(u + h * v, b, p, eps)
                  - space.residual(u - h * v, b, p, eps)) / (2 * h)
            Hv = H @ v
            tol = 1e-8 if p == 2.0 else 1e-5
            assert np.max(np.abs(fd - Hv)) <= tol * np.max(np.abs(Hv))

    @pytest.mark.parametrize("eps", [0.1, 0.01])
    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_exact_mass_curvature_away_from_zero(self, disk, p, eps):
        # along the constant direction only the mass term curves; its
        # coefficient must be exact whatever eps
        u = 0.05 * (2.0 + disk.vertices[:, 0])
        space, b = space_and_load(disk, LoadField.constant(disk, 0.0))
        one, h = np.ones(disk.n_vertices), 1e-6
        H1 = space.hessian(u, p, eps) @ one
        fd = (space.residual(u + h * one, b, p, eps)
              - space.residual(u - h * one, b, p, eps)) / (2 * h)
        assert np.max(np.abs(fd - H1)) <= 1e-3 * np.max(np.abs(fd))

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_zero_state_is_finite_and_definite(self, disk, p):
        # at u = 0 the mass coefficient is eps^{p-2}, so the first Hessian
        # of a cold start is finite and nonsingular
        H = P1Space.of(disk).hessian(np.zeros(disk.n_vertices), p, 0.1)
        assert np.all(np.isfinite(H.data))
        assert np.linalg.eigvalsh(H.toarray()).min() > 0.0


class TestSpaceCache:
    def test_one_space_per_mesh(self, monkeypatch):
        built = []
        init = fem.P1Space.__init__

        def counting_init(self, mesh):
            built.append(mesh)
            init(self, mesh)

        monkeypatch.setattr(fem.P1Space, "__init__", counting_init)
        mesh = build_disk_mesh(1.0, 32, 4)
        f = random_step_load(mesh, np.random.default_rng(5))
        cfg = SolveConfig(p=2.0)
        state, rep = solve(mesh, f, cfg)
        space, b = space_and_load(mesh, f)
        space.energy(state.nodal_values, b, 2.0, 0.0)
        space.residual(state.nodal_values, b, 2.0, 0.0)
        dual_I(space, state.nodal_values, b, 2.0)
        drep = derivative_report(
            mesh, f, tangent_field("sin:1", mesh.total_boundary_length), cfg
        )
        assert len(built) == 1 and built[0] is mesh
        assert drep.J == rep.J

        _, rep_again = solve(mesh, f, cfg)
        assert rep_again.J == rep.J
        assert len(built) == 1

        other = build_disk_mesh(1.0, 32, 4)
        solve(other, LoadField.from_values(other, f.cell_values), cfg)
        assert len(built) == 2 and built[1] is other
        assert P1Space.of(other) is not P1Space.of(mesh)


class TestOperators:
    def test_dense_gradient_of_columns_matches_csr(self, small_disk):
        # perturbation takes the gradient of a k-column field
        space = P1Space.of(small_disk)
        V = np.random.default_rng(20).normal(size=(small_disk.n_vertices, 3))
        ref = (sparse.csr_matrix(space.G) @ V).reshape(2, -1, 3)
        grad = space.gradient(V)
        assert grad.shape == ref.shape
        assert np.max(np.abs(grad - ref)) <= 1e-15 * np.max(np.abs(ref))

    def test_transposes_share_the_operators_arrays(self, disk, small_disk):
        # G and Q each own their arrays, and _Gt, _Qt are views of them
        for mesh in (disk, small_disk):
            space = P1Space.of(mesh)
            G, Q = space.G, space.Q
            assert sparse.issparse(G) == (mesh is disk)
            if mesh is disk:
                assert not np.shares_memory(G.data, Q.data)
                for A, At in ((G, space._Gt), (Q, space._Qt)):
                    assert np.shares_memory(At.data, A.data)
                    assert np.shares_memory(At.indices, A.indices)
            else:
                assert not np.shares_memory(G, Q)
                assert np.shares_memory(space._Gt, G) and np.shares_memory(space._Qt, Q)
            u = np.random.default_rng(21).normal(size=mesh.n_vertices)
            at = space.evaluate(u, 1.5, 1e-8)
            assert np.array_equal(at.grad.ravel(), G @ u)
            assert np.array_equal(at.uq.ravel(), Q @ u)


class TestBoundaryQuadrature:
    def test_exact_for_p1_traces(self, disk):
        # the 2-point rule is exact for a field linear on every cell
        space = P1Space.of(disk)
        u = np.random.default_rng(3).normal(size=disk.n_vertices)
        ua = u[disk.boundary_loop]
        ub = u[np.roll(disk.boundary_loop, -1)]
        exact = np.sum(disk.boundary_weights * 0.5 * (ua + ub))
        got = space.boundary_integral(space.trace_at_gauss(u))
        assert abs(got - exact) <= 1e-14


class TestStateField:
    def test_caller_arrays_stay_writeable(self):
        w, t = np.zeros(5), np.ones(3)
        state = StateField(w, t, 2.0)
        assert w.flags.writeable and t.flags.writeable
        assert not state.nodal_values.flags.writeable
        w[0] = t[0] = 7.0
        assert state.nodal_values[0] == 0.0 and state.boundary_trace[0] == 1.0


class TestSolve:
    def test_zero_load_gives_zero(self, disk):
        # b.u2 = 0: no ray start above p = 2, and every stage of the
        # ladder from 0 starts and stops at a zero residual, so each skips
        # the next rung
        f = LoadField.constant(disk, 0.0)
        u, rep = solve(disk, f, SolveConfig(p=2.5))
        assert rep.converged
        assert np.max(np.abs(u.nodal_values)) < 1e-12
        assert rep.J == 0.0
        assert rep.eps_stages == list(EPS_STAGES[::2]) + [EPS_STAGES[-1]]
        assert rep.iterations_per_stage == [0] * len(rep.eps_stages)

    def test_p2_bessel_trace(self, disk):
        f = LoadField.constant(disk, 1.0)
        u, rep = solve(disk, f, SolveConfig(p=2.0))
        oracle = iv(0, 1.0) / iv(1, 1.0)
        assert np.max(np.abs(u.boundary_trace - oracle)) / oracle < 0.01

    def test_p3_shooting_trace(self, disk):
        f = LoadField.constant(disk, 1.0)
        u, rep = solve(disk, f, SolveConfig(p=3.0))
        oracle = radial_trace(3.0)
        assert np.max(np.abs(u.boundary_trace - oracle)) / oracle < 0.01

    def test_p15_shooting_trace(self, disk):
        f = LoadField.constant(disk, 1.0)
        u, rep = solve(disk, f, SolveConfig(p=1.5))
        oracle = radial_trace(1.5)
        assert np.max(np.abs(u.boundary_trace - oracle)) / oracle < 0.01

    def test_energy_descent_within_stages(self, disk, monkeypatch):
        # a Newton stage takes the residual at its start and at every
        # accepted iterate: record E_eps there, grouped by eps
        energies = {}
        residual_of = P1Space.residual

        def spy(space, u, b, p, eps, at=None):
            energies.setdefault(eps, []).append(space.energy(u, b, p, eps))
            return residual_of(space, u, b, p, eps, at)

        monkeypatch.setattr(P1Space, "residual", spy)
        rng = np.random.default_rng(5)
        f = random_step_load(disk, rng)
        _, rep = solve(disk, f, SolveConfig(p=3.0))
        assert list(energies) == rep.eps_stages
        for stage in energies.values():
            diffs = np.diff(stage)
            assert np.all(diffs <= 1e-12 * np.maximum(1.0, np.abs(stage[:-1])))

    def test_p2_linearity_scaling(self, disk):
        rng = np.random.default_rng(8)
        f = random_step_load(disk, rng)
        c = 3.7
        fc = LoadField(c * f.cell_values)
        u1, r1 = solve(disk, f, SolveConfig(p=2.0))
        u2, r2 = solve(disk, fc, SolveConfig(p=2.0))
        assert np.allclose(u2.nodal_values, c * u1.nodal_values,
                           rtol=1e-8, atol=1e-12)
        assert r2.J == pytest.approx(c * c * r1.J, rel=1e-8)

    def test_trace_recomputable(self, disk):
        f = LoadField.constant(disk, 1.0)
        u, _ = solve(disk, f, SolveConfig(p=2.0))
        rebuilt = P1Space.of(disk).trace_average(u.nodal_values)
        assert np.max(np.abs(rebuilt - u.boundary_trace)) < 1e-12

    def test_nonconvergence_returns_partial_state(self, disk, monkeypatch):
        f = LoadField.constant(disk, 1.0)
        # a ladder of a single stage and a starved iteration budget (below
        # p = 2, where a cold solve runs the ladder)
        monkeypatch.setattr(solver, "EPS_STAGES", EPS_STAGES[:1])
        monkeypatch.setattr(solver, "MAX_NEWTON_ITERS", 2)
        u, rep = solve(disk, f, SolveConfig(p=1.5))
        assert not rep.converged
        assert rep.stage_exits == ["cap"]
        assert rep.final_residual > NEWTON_TOL
        assert np.all(np.isfinite(u.nodal_values))
        assert np.isfinite(rep.J)

    @pytest.mark.parametrize("kind", ["cold", "warm", "capped"])
    def test_final_residual_is_the_residual_of_the_state(self, disk, kind, monkeypatch):
        # the reported residual is that of the returned u
        rng = np.random.default_rng(0)
        f = random_step_load(disk, rng)
        cfg = SolveConfig(p=1.5)
        start = None
        if kind == "warm":
            start, _ = solve(disk, LoadField(1.1 * f.cell_values), cfg)
        if kind == "capped":
            monkeypatch.setattr(solver, "MAX_NEWTON_ITERS", 1)
        u, rep = solve(disk, f, cfg, u_init=start)
        assert rep.converged == (kind != "capped")
        space, b = space_and_load(disk, f)
        fresh = np.linalg.norm(space.residual(u.nodal_values, b, cfg.p, EPS_STAGES[-1]))
        assert rep.final_residual == pytest.approx(fresh, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("kind", ["cold", "warm"])
    def test_one_evaluation_per_trial_and_stage_start(self, disk, small_disk, kind,
                                                      monkeypatch):
        # every line-search trial and every stage start is evaluated once,
        # and its energy taken once; an accepted trial's evaluation serves
        # the next Newton step, and one more evaluation serves I
        evaluate, energy = P1Space.evaluate, P1Space.energy
        calls = {"evaluate": 0, "energy": 0}

        def counting(name, method):
            def spy(*args, **kwargs):
                calls[name] += 1
                return method(*args, **kwargs)
            return spy

        for mesh in (small_disk, disk):
            f = step_load(mesh, STEP_LEVELS)
            cfg = SolveConfig(p=1.5)
            start = None
            if kind == "warm":
                start, _ = solve(mesh, LoadField(1.1 * f.cell_values), cfg)
            with monkeypatch.context() as m:
                m.setattr(P1Space, "evaluate", counting("evaluate", evaluate))
                m.setattr(P1Space, "energy", counting("energy", energy))
                calls.update(evaluate=0, energy=0)
                _, rep = solve(mesh, f, cfg, u_init=start)
            assert rep.converged
            assert calls["energy"] > sum(rep.iterations_per_stage)
            assert calls["evaluate"] == calls["energy"] + 1

    def test_cold_solve_runs_the_ladder(self, disk):
        _, rep = solve(disk, LoadField.constant(disk, 1.0), SolveConfig(p=1.5))
        assert rep.converged
        assert_ladder(rep.eps_stages)

    def test_p2_ladder_is_the_last_rung_alone(self, disk):
        # criterion 1's step load times 1e6: rounding keeps the residual of
        # the p = 2 start above NEWTON_TOL, the start misses, and the ladder
        # that follows is its last rung alone (the whole ladder caps seven
        # rungs there); the absolute stop stays out of reach
        f = step_load(disk, STEP_LEVELS)
        _, rep = solve(disk, LoadField(1e6 * f.cell_values), SolveConfig(p=2.0))
        assert not rep.converged
        assert rep.eps_stages == [EPS_STAGES[-1]] * 2
        assert sum(rep.iterations_per_stage) <= 70

    # 42/19/13 steps measured, plus about 20 % (running every stage to
    # NEWTON_TOL took 67/34/23)
    @pytest.mark.parametrize("p, budget", [(1.1, 50), (1.3, 23), (1.5, 16)])
    def test_cold_start_newton_budget(self, disk, p, budget):
        # criterion 1's step load from u = 0: every stage converges well
        # within the cap (a Hessian that misjudges the mass curvature
        # damps every step and drives the first stages to the cap)
        cfg = SolveConfig(p=p)
        _, rep = solve(disk, step_load(disk, STEP_LEVELS), cfg)
        assert rep.converged
        assert rep.stage_exits == ["converged"] * len(rep.eps_stages)
        assert max(rep.iterations_per_stage) < MAX_NEWTON_ITERS
        assert sum(rep.iterations_per_stage) <= budget

    def test_skipped_rungs_save_steps_at_the_fixed_ladders_J(self, small_disk):
        # every 42nd distinct permutation of criterion 6's 4/2/2 load on the
        # 8-cell disk at p = 1.5: below PCG_MIN_VERTICES every step is
        # exact, stages beat their reduction target tenfold and skip rungs.
        # The fixed ladder took 76 Newton steps for these ten loads and
        # reached the J values below
        fixed_ladder_J = [
            2.1514444376070396, 1.8955734462090768, 1.8955734462090768,
            1.7438961654665506, 1.6389381310704347, 2.2622180831912564,
            1.6976164879060913, 1.7247035026243458, 1.7584737163115551,
            1.8358974664201773,
        ]
        values = (0.0,) * 4 + (0.5,) * 2 + (1.0,) * 2
        perms = sorted(set(itertools.permutations(values)))[::42]
        steps = 0
        for perm, J in zip(perms, fixed_ladder_J, strict=True):
            _, rep = solve(small_disk, LoadField(np.array(perm)), SolveConfig(p=1.5))
            assert rep.converged
            assert_ladder(rep.eps_stages)
            assert abs(rep.J - J) <= 1e-11 * (1.0 + abs(J))
            steps += sum(rep.iterations_per_stage)
        assert steps < 76

    @pytest.mark.parametrize("p", [1.3, 1.5, 3.0])
    def test_intermediate_stages_stop_early_at_no_cost_in_J(self, disk, p, monkeypatch):
        # with STAGE_REDUCTION = 0 every stage of the ladder runs to
        # NEWTON_TOL, and none skips a rung; above p = 2 the ray stage is
        # made to miss, so that the ladder runs after it
        miss_the_ray_stage(monkeypatch)
        f = step_load(disk, STEP_LEVELS)
        _, inexact = solve(disk, f, SolveConfig(p=p))
        monkeypatch.setattr(solver, "STAGE_REDUCTION", 0.0)
        _, exact = solve(disk, f, SolveConfig(p=p))
        ray = int(p > 2.0)  # the missed ray stage leads the report
        for rep in (inexact, exact):
            assert rep.converged
            assert rep.stage_exits[:ray] == ["slow"] * ray
            assert_ladder(rep.eps_stages[ray:])
            assert rep.stage_exits[ray:] == ["converged"] * (len(rep.eps_stages) - ray)
        assert exact.eps_stages[ray:] == list(EPS_STAGES)
        assert abs(inexact.J - exact.J) <= 1e-10 * (1.0 + abs(exact.J))
        assert sum(inexact.iterations_per_stage) < sum(exact.iterations_per_stage)

    @pytest.mark.parametrize("p, scale", [
        pytest.param(p, 10.0 ** k,
                     marks=ABSOLUTE_STOP_FLOOR if (p, k) == (1.1, 3) else ())
        for p in (1.1, 1.15, 1.2, 1.3)
        for k in range(-3, 4)
    ])
    def test_low_p_step_load_converges_at_every_scale(self, disk, p, scale):
        # criterion 1's step load, scaled over six decades, near p = 1:
        # every stage reaches NEWTON_TOL and the duality gap certifies J
        f = step_load(disk, STEP_LEVELS)
        _, rep = solve(disk, LoadField(scale * f.cell_values),
                       SolveConfig(p=p))
        assert rep.converged
        assert rep.stage_exits == ["converged"] * len(rep.eps_stages)
        assert rep.duality_gap <= 1e-6 * (1.0 + abs(rep.J))

    def test_line_search_stall_is_reported(self, disk):
        # a load beyond floating range: the Newton slope overflows to -inf,
        # which is no finite descent direction, and every stage stops after
        # one step as a stall, not at the iteration cap
        f = LoadField.constant(disk, 1e200)
        u, rep = solve(disk, f, SolveConfig(p=2.0))
        assert not rep.converged
        assert rep.stage_exits == ["stall"] * len(rep.eps_stages)
        assert rep.iterations_per_stage == [1] * len(rep.eps_stages)
        assert np.all(u.nodal_values == 0.0)

    def test_uphill_newton_direction_stalls(self):
        # 1e20 on four of the 16-cell disk's cells at p = 1.1: J is finite,
        # but after ten steps rounding turns the Newton direction uphill.
        # The first rung stalls, and the stall ends the solve
        mesh = build_disk_mesh(1.0, 16, 2)
        f = LoadField(np.array([1e20] * 4 + [0.0] * 12))
        _, rep = solve(mesh, f, SolveConfig(p=1.1))
        assert not rep.converged
        assert rep.stage_exits == ["stall"]
        assert rep.eps_stages == [EPS_STAGES[0]]
        assert sum(rep.iterations_per_stage) < MAX_NEWTON_ITERS
        assert rep.gradient_fallbacks == 0
        assert np.isfinite(rep.J)

    @pytest.mark.parametrize("seed, scale, p", [(0, 1e50, 1.2), (0, 1e175, 1.1),
                                                (2, 1e125, 2.5)])
    def test_overflow_is_reported_not_warned(self, small_disk, seed, scale, p):
        # loads far beyond the arithmetic: the first meets an exactly
        # singular Newton system, the others overflow in their first step.
        # Every stage stalls, and the solve warns of nothing
        f = random_step_load(small_disk, np.random.default_rng(seed))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, rep = solve(small_disk, LoadField(scale * f.cell_values),
                           SolveConfig(p=p))
        assert set(rep.stage_exits) == {"stall"}

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            SolveConfig(p=0.5)
        with pytest.raises(ValueError):
            SolveConfig(p=11.0)

    @pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1.0])
    def test_bad_tol_refused_before_any_work(self, tol, monkeypatch):
        # on the 49-vertex disk at p = 1.5 with a constant load, nan ran
        # every rung to the Newton cap, inf returned the start as
        # converged, and 0 and -1 capped at the last rung
        def no_stage(*args):
            raise AssertionError("a stage ran")

        monkeypatch.setattr(solver, "_newton_stage", no_stage)
        mesh = build_disk_mesh(1.0, 16, 3)
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            solve(mesh, LoadField.constant(mesh, 1.0), SolveConfig(p=1.5), tol=tol)

    def test_p_is_the_only_setting(self):
        # eps is the solver's own ladder, not a setting of a solve
        assert [f.name for f in dataclasses.fields(SolveConfig)] == ["p"]
        with pytest.raises(TypeError):
            SolveConfig(p=2.0, eps_final=1e-8)

    def test_duality_gap_is_derived(self, disk):
        # |J - I| of the report's own fields, not a stored copy of it
        assert "duality_gap" not in [f.name for f in dataclasses.fields(solver.SolveReport)]
        _, rep = solve(disk, step_load(disk, STEP_LEVELS), SolveConfig(p=1.5))
        assert rep.duality_gap > 0.0
        assert rep.duality_gap == abs(rep.J - rep.I)


class TestRayStart:
    @pytest.mark.parametrize("p", [2.5, 3.0, 4.0])
    def test_cold_solve_is_one_stage_with_the_ladders_J(self, disk, small_disk, p,
                                                         monkeypatch):
        # above p = 2 a cold solve starts on the ray of the p = 2 solution
        # and converges in one stage at the last rung; the ladder from 0,
        # run by making that stage miss, reaches the same J
        cfg = SolveConfig(p=p)
        for mesh in (disk, small_disk):
            for f in (step_load(mesh, STEP_LEVELS),
                      random_step_load(mesh, np.random.default_rng(23))):
                _, rep = solve(mesh, f, cfg)
                with monkeypatch.context() as m:
                    miss_the_ray_stage(m)
                    _, ladder = solve(mesh, f, cfg)
                assert rep.eps_stages == [EPS_STAGES[-1]]
                assert rep.stage_exits == ["converged"]
                assert ladder.eps_stages[0] == EPS_STAGES[-1]
                assert_ladder(ladder.eps_stages[1:])
                assert ladder.converged
                assert abs(rep.J - ladder.J) <= 1e-10 * (1.0 + abs(ladder.J))
                assert sum(rep.iterations_per_stage) < sum(ladder.iterations_per_stage)

    def test_ray_start_is_least_energy_on_the_p2_ray(self, disk, monkeypatch):
        # the first stage starts at s u2, u2 = (K + M)^{-1} b, where the
        # eps = 0 energy along the ray is least
        starts = []
        newton_stage = solver._newton_stage

        def spy(space, u, *args):
            starts.append(u)
            return newton_stage(space, u, *args)

        monkeypatch.setattr(solver, "_newton_stage", spy)
        f = random_step_load(disk, np.random.default_rng(24))
        p = 3.0
        solve(disk, f, SolveConfig(p=p))
        space, b = space_and_load(disk, f)
        u2 = space.stiffness_mass_factor().solve(b)
        s = starts[0] @ u2 / (u2 @ u2)
        assert np.linalg.norm(starts[0] - s * u2) <= 1e-14 * np.linalg.norm(starts[0])
        E = [space.energy(c * s * u2, b, p, 0.0) for c in (1.0 - 1e-4, 1.0, 1.0 + 1e-4)]
        assert E[1] < min(E[0], E[2])

    @pytest.mark.parametrize("n_cells, n_rings", [(8, 2), (16, 3), (64, 10)])
    def test_every_p2_solve_starts_at_its_solution(self, n_cells, n_rings):
        # at p = 2 the ray start is s* = 1: cold or warm from any start, on
        # meshes below and above PCG_MIN_VERTICES, the solve starts at
        # (K + M)^{-1} b on the mesh's K + M factor and takes no step
        mesh = build_disk_mesh(1.0, n_cells, n_rings)
        space = P1Space.of(mesh)
        cold_factor = (space.stiffness_mass_factor()
                       if mesh.n_vertices >= solver.PCG_MIN_VERTICES else None)
        cfg = SolveConfig(p=2.0)
        f = step_load(mesh, STEP_LEVELS)
        other = LoadField(np.roll(f.cell_values, 3))
        at_p2, _ = solve(mesh, other, cfg)
        at_p3, _ = solve(mesh, other, SolveConfig(p=3.0))
        _, b = space_and_load(mesh, f)
        exact = space.stiffness_mass_factor().solve(b)
        # a state at p = 2 that holds no factor, as one from a small mesh
        bare = StateField(at_p3.nodal_values, at_p3.boundary_trace, 2.0)
        for start in (None, at_p2, at_p3, bare):
            state, rep = solve(mesh, f, cfg, u_init=start)
            assert rep.converged
            assert rep.eps_stages == [EPS_STAGES[-1]]
            assert rep.iterations_per_stage == [0]
            assert rep.factorizations == rep.cg_iterations == 0
            assert state.factor is cold_factor
            assert (np.linalg.norm(state.nodal_values - exact)
                    <= 1e-12 * np.linalg.norm(exact))
        with pytest.raises(ValueError, match="state has 3 values"):
            solve(mesh, f, cfg, u_init=StateField(np.zeros(3), np.zeros(2), 2.0))
        # a zero load has no ray start: the ladder's one rung stops at u = 0
        for start in (None, at_p3):
            state, rep = solve(mesh, LoadField.constant(mesh, 0.0), cfg, u_init=start)
            assert rep.converged
            assert rep.eps_stages == [EPS_STAGES[-1]]
            assert rep.iterations_per_stage == [0]
            assert np.all(state.nodal_values == 0.0)

    @pytest.mark.parametrize("p, forced", [(3.0, True), (6.0, False)])
    def test_missed_ray_stage_runs_the_ladder_from_zero(self, disk, p, forced,
                                                        monkeypatch):
        # a ray stage that misses, forced to after one step at p = 3, or
        # at p = 6 on criterion 1's step load, where it stalls and leaves
        # after WARM_WINDOW steps, each of which factors its Hessian: the
        # ladder then runs from u = 0 on the mesh's K + M factor, as a cold
        # solve without the ray start
        if forced:
            miss_the_ray_stage(monkeypatch)
        space = P1Space.of(disk)
        stages = []
        newton_stage = solver._newton_stage

        def spy(space, u, b, p, eps, systems, *args):
            stages.append((u.copy(), systems.lu, systems.factorizations))
            return newton_stage(space, u, b, p, eps, systems, *args)

        monkeypatch.setattr(solver, "_newton_stage", spy)
        f = step_load(disk, STEP_LEVELS)
        _, rep = solve(disk, f, SolveConfig(p=p))
        assert rep.converged
        assert rep.eps_stages[0] == EPS_STAGES[-1]
        assert_ladder(rep.eps_stages[1:])
        assert rep.stage_exits == ["slow"] + ["converged"] * (len(rep.eps_stages) - 1)
        assert rep.iterations_per_stage[0] == (1 if forced else solver.WARM_WINDOW)
        assert np.any(stages[0][0] != 0.0)
        assert np.all(stages[1][0] == 0.0)
        assert stages[0][1] is stages[1][1] is space.stiffness_mass_factor()
        if not forced:
            assert stages[1][2] == solver.WARM_WINDOW

    def test_overflowing_load_keeps_the_ladder_report(self, disk):
        # s u2 overflows for a load of 1e200: no ray start, and the ladder
        # from 0 stalls after one step at its first rung, which ends the
        # solve
        f = LoadField.constant(disk, 1e200)
        u, rep = solve(disk, f, SolveConfig(p=3.0))
        assert not rep.converged
        assert rep.eps_stages == [EPS_STAGES[0]]
        assert rep.stage_exits == ["stall"]
        assert rep.iterations_per_stage == [1]
        assert (rep.factorizations, rep.cg_iterations, rep.gradient_fallbacks) == (1, 10, 0)
        assert rep.J == 0.0 and rep.final_residual == np.inf
        assert np.all(u.nodal_values == 0.0)


@given(p=st.floats(2.0, 10.0, exclude_min=True),
       log_scale=st.floats(-3.0, 3.0),
       seed=st.integers(0, 2 ** 16))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_cold_solves_above_p2_converge(small_disk, p, log_scale, seed):
    f = random_step_load(small_disk, np.random.default_rng(seed))
    _, rep = solve(small_disk, LoadField(10.0 ** log_scale * f.cell_values),
                   SolveConfig(p=p))
    assert rep.converged
    assert rep.duality_gap <= 1e-6 * (1.0 + abs(rep.J))


@pytest.fixture(scope="module", params=[1.5, 3.0])
def lagged_and_direct(request, disk):
    """Criterion 1's step load solved on the kept factor and, with
    PCG_MIN_VERTICES raised above the mesh size, by direct solves."""
    assert disk.n_vertices >= solver.PCG_MIN_VERTICES
    f, cfg = step_load(disk, STEP_LEVELS), SolveConfig(p=request.param)
    _, lagged = solve(disk, f, cfg)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "PCG_MIN_VERTICES", disk.n_vertices + 1)
        _, direct = solve(disk, f, cfg)
    return f, cfg, lagged, direct


class TestNewtonSystems:
    def test_lagged_matches_direct(self, lagged_and_direct):
        _, _, lagged, direct = lagged_and_direct
        for rep in (lagged, direct):
            assert rep.converged
            assert rep.stage_exits == ["converged"] * len(rep.eps_stages)
        assert abs(lagged.J - direct.J) <= 1e-10 * (1.0 + abs(direct.J))
        assert direct.factorizations == sum(direct.iterations_per_stage)
        assert direct.cg_iterations == 0

    def test_factor_is_reused(self, lagged_and_direct):
        # one factor serves every eps stage; CG refactors only rarely. The
        # solve starts with the mesh's K + M factor, which it does not
        # count, and factors at most once itself
        _, _, lagged, _ = lagged_and_direct
        assert lagged.cg_iterations > 0
        assert 4 * lagged.factorizations <= sum(lagged.iterations_per_stage)
        assert lagged.factorizations <= 1

    def test_refactor_path(self, disk, lagged_and_direct, monkeypatch):
        # CG gets no iteration: every step refactors and solves directly,
        # which is the direct path's arithmetic
        f, cfg, _, direct = lagged_and_direct
        monkeypatch.setattr(solver, "CG_MAX_ITERS", 0)
        _, rep = solve(disk, f, cfg)
        assert rep.converged
        assert rep.factorizations == sum(rep.iterations_per_stage)
        assert rep.cg_iterations == 0
        assert rep.J == pytest.approx(direct.J, rel=1e-13)

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_forcing_term_floored_on_the_last_rung_alone(self, disk, p, monkeypatch):
        # every CG solve of a last-rung stage gets at least
        # min(ETA_MAX, 0.5 tol / ||r||), and somewhere more than the plain
        # Eisenstat-Walker term; an intermediate stage gets exactly that
        # term, ETA_MAX at its first step
        stages, newton_stage, pcg = [], solver._newton_stage, solver._pcg

        def stage_spy(space, u, b, p, eps, systems, final, warm, tol):
            stages.append((final, []))
            return newton_stage(space, u, b, p, eps, systems, final, warm, tol)

        def pcg_spy(H, rhs, lu, rtol):
            stages[-1][1].append((rtol, np.linalg.norm(rhs)))
            return pcg(H, rhs, lu, rtol)

        monkeypatch.setattr(solver, "_newton_stage", stage_spy)
        monkeypatch.setattr(solver, "_pcg", pcg_spy)
        _, rep = solve(disk, step_load(disk, STEP_LEVELS), SolveConfig(p=p))
        assert rep.converged
        assert [final for final, _ in stages] == [
            eps == EPS_STAGES[-1] for eps in rep.eps_stages]
        floored = 0
        for final, calls in stages:
            rtols, norms = (list(c) for c in zip(*calls))
            plain = [solver.ETA_MAX] + [min(solver.ETA_MAX, 0.9 * (b / a) ** 2)
                                        for a, b in zip(norms, norms[1:])]
            if not final:
                assert rtols == plain
                continue
            for rtol, rnorm in calls:
                assert rtol >= min(solver.ETA_MAX, 0.5 * NEWTON_TOL / rnorm)
            floored += sum(r > e for r, e in zip(rtols, plain))
        assert floored > 0

    def test_pcg_gives_up_once_it_cannot_finish(self, big_disk):
        # the p = 3 Hessian at the solution of criterion 1's step load on
        # the 128x20 disk, preconditioned by the K + M factor: CG contracts
        # too slowly for rtol = 1e-3 and gives up after 4 iterations
        # (it ran all CG_MAX_ITERS before), meets rtol = 0.1 in 5, and on
        # the Hessian's own factor needs one
        space = P1Space.of(big_disk)
        state, _ = solve(big_disk, step_load(big_disk, STEP_LEVELS), SolveConfig(p=3.0))
        H = space.hessian(state.nodal_values, 3.0, EPS_STAGES[-1])
        rhs = np.random.default_rng(0).normal(size=big_disk.n_vertices)
        lu = space.stiffness_mass_factor()
        x, its = solver._pcg(H, rhs, lu, 1e-3)
        assert x is None and its < solver.CG_MAX_ITERS
        x, its = solver._pcg(H, rhs, lu, 0.1)
        assert its == 5
        assert np.linalg.norm(rhs - H @ x) <= 0.1 * np.linalg.norm(rhs)
        own = splu(H, permc_spec="MMD_AT_PLUS_A")
        x, its = solver._pcg(H, rhs, own, 1e-3)
        assert its == 1
        assert np.linalg.norm(rhs - H @ x) <= 1e-3 * np.linalg.norm(rhs)

    def test_cold_solve_benchmark_loads_factor_at_most_twice(self, big_disk):
        # the four loads of the benchmark's cold-solve workload at seed 7
        # (random step loads spread over |mean load| with the duality
        # criterion's seed, then turned along the boundary) at p = 3: each
        # solve refactored once after a failed CG solve, two of them in
        # the last Newton step (4 factorizations, 106 CG iterations in all)
        n = big_disk.n_boundary_cells
        rng = np.random.default_rng(20240601)
        pool = sorted((random_step_load(big_disk, rng) for _ in range(512)),
                      key=lambda f: abs(f.cell_values.mean()))
        turns = np.random.default_rng(7)
        factorizations = cg_iterations = 0
        for i in range(4):
            f = LoadField(np.roll(pool[int((i + 0.5) * 128)].cell_values,
                                  turns.integers(n)))
            _, rep = solve(big_disk, f, SolveConfig(p=3.0))
            assert rep.converged
            factorizations += rep.factorizations
            cg_iterations += rep.cg_iterations
        assert factorizations <= 2
        assert cg_iterations <= 95

    @pytest.mark.parametrize("n", [solver.PCG_MIN_VERTICES - 1, solver.PCG_MIN_VERTICES])
    def test_singular_system_gives_no_direction(self, n):
        # spsolve (below PCG_MIN_VERTICES) returns NaN and splu raises;
        # either way, and with no warning, the Newton loop gets a
        # non-finite direction and ends the stage as "stall"
        systems = solver._NewtonSystems(n)
        d = systems.solve(sparse.csc_matrix((n, n)), np.ones(n), 0.1)
        assert np.all(np.isnan(d))
        assert systems.factorizations == 1 and systems.lu is None

    def test_ascent_direction_ends_the_stage(self, disk):
        # systems whose every solve points uphill (d = r): the stage takes
        # no step, counts the attempted one and stalls, with u unchanged
        class Uphill:
            def solve(self, H, rhs, rtol):
                return -rhs

        space = P1Space.of(disk)
        b = space.load_vector(step_load(disk, STEP_LEVELS).cell_values)
        u0 = np.zeros(disk.n_vertices)
        eps = EPS_STAGES[-1]
        u, its, start_norm, rnorm, reason = solver._newton_stage(
            space, u0, b, 1.5, eps, Uphill(), True, False, NEWTON_TOL)
        assert (its, reason) == (1, "stall")
        assert u is u0
        assert start_norm == rnorm == np.linalg.norm(space.residual(u0, b, 1.5, eps))

    @pytest.mark.parametrize("eps", [0.1, 1e-3])
    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_kept_factor_inverts_the_zero_state_hessian(self, disk, p, eps):
        # at u = 0 the Hessian is eps^{p-2} (K + M), so
        # eps^{2-p} (K + M)^{-1} H0 is the identity
        space = P1Space.of(disk)
        H0 = space.hessian(np.zeros(disk.n_vertices), p, eps)
        x = np.random.default_rng(17).normal(size=disk.n_vertices)
        y = eps ** (2.0 - p) * space.stiffness_mass_factor().solve(H0 @ x)
        assert np.linalg.norm(y - x) <= 1e-12 * np.linalg.norm(x)

    @pytest.mark.parametrize("eps", [0.1, 1e-3])
    def test_kept_factor_inverts_every_p2_hessian(self, disk, small_disk, eps):
        # against the independent COO assembly of the p = 2 Hessian at a
        # random u: the factor that every p = 2 solve and the ray start of
        # a cold solve above p = 2 rely on
        for mesh in (disk, small_disk):
            rng = np.random.default_rng(18)
            u, x = 0.5 * rng.normal(size=(2, mesh.n_vertices))
            H = reference_hessian(mesh, u, 2.0, eps)
            y = P1Space.of(mesh).stiffness_mass_factor().solve(H @ x)
            assert np.linalg.norm(y - x) <= 1e-12 * np.linalg.norm(x)

    def test_small_systems_solve_directly(self):
        mesh = build_disk_mesh(1.0, 8, 2)
        assert mesh.n_vertices < solver.PCG_MIN_VERTICES
        _, rep = solve(mesh, step_load(mesh, STEP_LEVELS), SolveConfig(p=1.5))
        assert rep.converged
        assert rep.cg_iterations == 0
        assert rep.factorizations == sum(rep.iterations_per_stage) > 0


@pytest.fixture(scope="module", params=[1.5, 2.0, 3.0])
def neighbours(request, disk):
    """Criterion 1's step load solved cold, and the same load moved by a
    finite-difference step of derivative_report (sin:1, t = 1e-3)."""
    f = step_load(disk, STEP_LEVELS)
    ft = transport_load(disk, f, tangent_field("sin:1", disk.total_boundary_length), 1e-3)
    cfg = SolveConfig(p=request.param)
    state, rep = solve(disk, f, cfg)
    assert rep.converged
    return ft, cfg, state, solve(disk, ft, cfg)[1]


class TestWarmStart:
    def test_own_state_takes_no_step(self, disk, neighbours):
        _, cfg, state, _ = neighbours
        f = step_load(disk, STEP_LEVELS)
        again, rep = solve(disk, f, cfg, u_init=state)
        assert rep.eps_stages == [EPS_STAGES[-1]]
        assert rep.iterations_per_stage == [0]
        assert rep.factorizations == rep.cg_iterations == 0
        assert rep.J == solve(disk, f, cfg)[1].J
        assert np.array_equal(again.nodal_values, state.nodal_values)
        assert again.factor is state.factor

    # at p = 2 every solve starts at its solution and takes no step
    @pytest.mark.parametrize("neighbours", [1.5, 3.0], indirect=True)
    def test_neighbouring_load_in_one_stage(self, disk, neighbours, monkeypatch):
        # far inside the monitor: every step contracts the residual at
        # least tenfold (0.083 at most was measured), so a monitor that
        # demands that of each step still lets the stage converge
        ft, cfg, state, cold = neighbours
        monkeypatch.setattr(solver, "WARM_WINDOW", 1)
        monkeypatch.setattr(solver, "WARM_CONTRACTION", 0.1)
        _, rep = solve(disk, ft, cfg, u_init=state)
        assert rep.converged
        assert rep.eps_stages == [EPS_STAGES[-1]]
        assert rep.stage_exits == ["converged"]
        assert rep.iterations_per_stage[0] > 0
        assert abs(rep.J - cold.J) <= 1e-6 * (1.0 + abs(cold.J))
        assert rep.duality_gap <= 1e-6 * (1.0 + abs(rep.J))
        assert sum(rep.iterations_per_stage) <= sum(cold.iterations_per_stage)

    # at p = 2 every solve starts on the mesh's K + M factor
    @pytest.mark.parametrize("neighbours", [1.5, 3.0], indirect=True)
    def test_only_a_state_at_the_same_p_hands_its_factor(self, disk, neighbours):
        # a state at another p hands no factor, nor does one at the same p
        # that holds none
        ft, cfg, state, _ = neighbours
        other_p = 3.0 if cfg.p != 3.0 else 2.0
        elsewhere, _ = solve(disk, step_load(disk, STEP_LEVELS), SolveConfig(p=other_p))
        bare = StateField(state.nodal_values, state.boundary_trace, cfg.p)
        for start in (elsewhere, bare):
            _, rep = solve(disk, ft, cfg, u_init=start)
            assert rep.converged
            assert rep.factorizations >= 1  # the first step factors afresh

    # at p = 2 every solve starts at its solution, before any monitor
    @pytest.mark.parametrize("neighbours", [1.5, 3.0], indirect=True)
    def test_missed_warm_stage_runs_the_full_schedule(self, disk, neighbours, monkeypatch):
        # a monitor that no step can satisfy: the stage leaves after one
        # step, and the ladder runs as in a cold solve
        ft, cfg, state, cold = neighbours
        monkeypatch.setattr(solver, "WARM_WINDOW", 1)
        monkeypatch.setattr(solver, "WARM_CONTRACTION", 0.0)
        _, rep = solve(disk, ft, cfg, u_init=state)
        assert rep.converged
        assert rep.eps_stages[0] == EPS_STAGES[-1]
        assert_ladder(rep.eps_stages[1:])
        assert rep.stage_exits[0] == "slow"
        assert rep.iterations_per_stage[0] == 1
        assert rep.stage_exits[1:] == ["converged"] * (len(rep.eps_stages) - 1)
        assert abs(rep.J - cold.J) <= 1e-6 * (1.0 + abs(cold.J))

    def test_far_start_leaves_after_one_window(self, disk, monkeypatch):
        # at p = 1.5 the state of the load turned half-way round the
        # boundary is no start for Newton at the last rung: the stage
        # stops contracting and leaves as "slow" at the first step k >=
        # WARM_WINDOW whose residual norm is above WARM_CONTRACTION times
        # the norm WARM_WINDOW steps earlier, not at a budget, and the
        # ladder reaches the cold J
        f = step_load(disk, STEP_LEVELS)
        half = LoadField(np.roll(f.cell_values, disk.n_boundary_cells // 2))
        cfg = SolveConfig(p=1.5)
        far, _ = solve(disk, half, cfg)
        _, cold = solve(disk, f, cfg)
        norms = spy_stage_residual_norms(monkeypatch)
        _, rep = solve(disk, f, cfg, u_init=far)
        assert rep.converged
        assert rep.stage_exits[0] == "slow"
        warm, k = norms[0], rep.iterations_per_stage[0]
        assert len(warm) == k + 1 and k >= solver.WARM_WINDOW
        w, c = solver.WARM_WINDOW, solver.WARM_CONTRACTION
        assert [j for j in range(w, k + 1) if warm[j] > c * warm[j - w]] == [k]
        assert rep.eps_stages[0] == EPS_STAGES[-1]
        assert_ladder(rep.eps_stages[1:])
        assert rep.stage_exits[1:] == ["converged"] * (len(rep.eps_stages) - 1)
        assert abs(rep.J - cold.J) <= 1e-6 * (1.0 + abs(cold.J))

    def test_far_start_costs_at_most_one_cold_solve_more(self, disk, monkeypatch):
        # criterion 1's step load at p = 1.5, warm-started from the state
        # of ten times that load: the warm stage misses, and the ladder
        # runs from u = 0 on the mesh's K + M factor, as in a cold solve
        # (from the far state it took 97 Newton steps, 60 at one rung)
        f = step_load(disk, STEP_LEVELS)
        cfg = SolveConfig(p=1.5)
        far, _ = solve(disk, LoadField(10.0 * f.cell_values), cfg)
        _, cold = solve(disk, f, cfg)
        starts = []
        newton_stage = solver._newton_stage

        def spy(space, u, b, p, eps, systems, *args):
            starts.append((u.copy(), systems.lu))
            return newton_stage(space, u, b, p, eps, systems, *args)

        monkeypatch.setattr(solver, "_newton_stage", spy)
        _, rep = solve(disk, f, cfg, u_init=far)
        assert rep.converged
        assert rep.stage_exits[0] == "slow"
        assert rep.eps_stages[0] == EPS_STAGES[-1]
        assert_ladder(rep.eps_stages[1:])
        assert np.all(starts[1][0] == 0.0)
        assert starts[1][1] is P1Space.of(disk).stiffness_mass_factor()
        assert (sum(rep.iterations_per_stage)
                <= rep.iterations_per_stage[0] + sum(cold.iterations_per_stage))
        assert abs(rep.J - cold.J) <= 1e-12 * (1.0 + abs(cold.J))

    def test_loose_tol_stops_the_last_rung_early(self, disk, neighbours):
        # the last rung stops at the tol it is given, and converged means
        # that tol was met
        ft, cfg, state, cold = neighbours
        _, loose = solve(disk, ft, cfg, u_init=state, tol=1e-6)
        _, tight = solve(disk, ft, cfg, u_init=state)
        assert loose.converged and tight.converged
        assert loose.final_residual <= 1e-6
        assert tight.final_residual <= solver.NEWTON_TOL
        assert sum(loose.iterations_per_stage) <= sum(tight.iterations_per_stage)

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_neighbouring_loads_never_read_slow(self, disk, p):
        # the finite-difference steps of derivative_report (t = +-1e-3)
        # for three fields: each warm stage converges, none leaves
        f = step_load(disk, STEP_LEVELS)
        cfg = SolveConfig(p=p)
        state, _ = solve(disk, f, cfg)
        L = disk.total_boundary_length
        for spec in ("sin:1", "cos:2", f"bump:{0.3 * L},{0.4 * L}"):
            for t in (-1e-3, 1e-3):
                ft = transport_load(disk, f, tangent_field(spec, L), t)
                _, rep = solve(disk, ft, cfg, u_init=state)
                assert rep.stage_exits == ["converged"], (spec, t)

    # at p = 2 a solve takes no step, within any budget
    @pytest.mark.parametrize("neighbours", [1.5, 3.0], indirect=True)
    def test_budget_honours_the_newton_cap(self, disk, neighbours, monkeypatch):
        # the warm stage runs under MAX_NEWTON_ITERS too, read at call
        # time: it caps before its monitor can act
        ft, cfg, state, _ = neighbours
        monkeypatch.setattr(solver, "MAX_NEWTON_ITERS", 1)
        _, rep = solve(disk, ft, cfg, u_init=state)
        assert rep.stage_exits[0] == "cap"
        assert max(rep.iterations_per_stage) == 1

    def test_identical_calls_agree_bitwise(self, disk, neighbours):
        ft, cfg, state, _ = neighbours
        a, ra = solve(disk, ft, cfg, u_init=state)
        b, rb = solve(disk, ft, cfg, u_init=state)
        assert np.array_equal(a.nodal_values, b.nodal_values)
        assert ra.J == rb.J and ra.iterations_per_stage == rb.iterations_per_stage

    def test_factor_stays_out_of_repr_and_direct_states(self, neighbours):
        _, _, state, _ = neighbours
        assert "factor" not in repr(state)
        mesh = build_disk_mesh(1.0, 8, 2)
        small, _ = solve(mesh, step_load(mesh, STEP_LEVELS), SolveConfig(p=1.5))
        assert small.factor is None

    def test_wrong_size_start_rejected(self, disk):
        with pytest.raises(ValueError, match="state has 3 values"):
            solve(disk, LoadField.constant(disk, 1.0), SolveConfig(p=2.0),
                  u_init=StateField(np.zeros(3), np.zeros(2), 2.0))


class TestFunctionals:
    def test_J_zero_load(self, disk):
        _, b = space_and_load(disk, LoadField.constant(disk, 0.0))
        u = np.ones(disk.n_vertices)
        assert b @ u == 0.0

    def test_J_against_oracle(self, disk):
        f = LoadField.constant(disk, 1.0)
        u, rep = solve(disk, f, SolveConfig(p=2.0))
        J_oracle = 2 * np.pi * iv(0, 1.0) / iv(1, 1.0)
        assert rep.J == pytest.approx(J_oracle, rel=0.01)

    def test_I_zero_field(self, disk):
        space, b = space_and_load(disk, LoadField.constant(disk, 1.0))
        assert dual_I(space, np.zeros(disk.n_vertices), b, 2.0) == 0.0

    def test_I_of_wrong_field_negative(self, disk, disk_area):
        # u = 1 with zero load: I = -area < 0 = I(u_f)
        space, b = space_and_load(disk, LoadField.constant(disk, 0.0))
        val = dual_I(space, np.ones(disk.n_vertices), b, 2.0)
        assert val == pytest.approx(-disk_area, rel=1e-12)

    def test_duality_at_solution(self, disk):
        rng = np.random.default_rng(21)
        for p in (1.5, 2.0, 3.0):
            f = random_step_load(disk, rng)
            u, rep = solve(disk, f, SolveConfig(p=p))
            assert rep.duality_gap <= 1e-6 * (1.0 + abs(rep.J))

    def test_maximality_over_random_fields(self, disk):
        rng = np.random.default_rng(13)
        f = random_step_load(disk, rng)
        p = 2.5
        u, rep = solve(disk, f, SolveConfig(p=p))
        space, b = space_and_load(disk, f)
        I_star = dual_I(space, u.nodal_values, b, p)
        # the report's I is the same functional, by the solver's formula
        assert rep.I == pytest.approx(I_star, rel=1e-12)
        for _ in range(20):
            trial = rng.normal(size=disk.n_vertices)
            assert dual_I(space, trial, b, p) <= I_star + 1e-9

    def test_mesh_convergence_order(self):
        J_oracle = 2 * np.pi * iv(0, 1.0) / iv(1, 1.0)
        errs = []
        for n, m in ((64, 10), (128, 20)):
            mesh = build_disk_mesh(1.0, n, m)
            f = LoadField.constant(mesh, 1.0)
            _, rep = solve(mesh, f, SolveConfig(p=2.0))
            errs.append(abs(rep.J - J_oracle))
        assert np.log2(errs[0] / errs[1]) >= 1.8
