import numpy as np
import pytest
from scipy import sparse
from scipy.special import iv

from plapopt import fem, solver
from plapopt.acceptance import STEP_LEVELS
from plapopt.fem import TRI_QP, P1Space
from plapopt.geometry import build_disk_mesh, triangle_signed_areas
from plapopt.perturbation import derivative_report, tangent_field
from plapopt.rearrangement import LoadField, random_step_load, step_load
from plapopt.solver import (
    EPS_INITIAL,
    MAX_NEWTON_ITERS,
    NEWTON_TOL,
    SolveConfig,
    StateField,
    energy,
    functional_I,
    functional_J,
    residual,
    solve,
)

from oracles import radial_trace


# At p = 1.1 and load scale 1e3 |u| reaches 2e29, and one rounding of u
# moves the residual norm by about 4e-10: the absolute NEWTON_TOL is then
# met only by rounding luck, although the relative duality gap is 3e-15.
ABSOLUTE_STOP_FLOOR = pytest.mark.xfail(
    reason="NEWTON_TOL is below the residual's rounding floor; "
           "needs a scale-aware stop"
)


@pytest.fixture(scope="module")
def disk():
    return build_disk_mesh(1.0, 64, 10)


@pytest.fixture(scope="module")
def disk_area(disk):
    return triangle_signed_areas(disk.vertices, disk.triangles).sum()


class TestEnergy:
    def test_zero_field(self, disk):
        u = np.zeros(disk.n_vertices)
        f = LoadField.constant(disk, 0.7)
        assert energy(disk, u, f, p=3.0, eps=0.0) == 0.0

    def test_constant_field_p2(self, disk, disk_area):
        c = 1.3
        u = np.full(disk.n_vertices, c)
        f = LoadField.constant(disk, 0.0)
        assert energy(disk, u, f, p=2.0, eps=0.0) == pytest.approx(
            0.5 * c * c * disk_area, rel=1e-12
        )

    def test_pure_regularization_term(self, disk, disk_area):
        u = np.zeros(disk.n_vertices)
        f = LoadField.constant(disk, 0.0)
        # eps regularizes the gradient and the mass term alike
        assert energy(disk, u, f, p=2.0, eps=0.1) == pytest.approx(
            0.5 * (0.01 + 0.01) * disk_area, rel=1e-12
        )

    def test_mesh_mismatch_rejected(self, disk):
        other = build_disk_mesh(1.0, 32, 4)
        f = LoadField.constant(other, 1.0)
        with pytest.raises(ValueError):
            energy(disk, np.zeros(disk.n_vertices), f, 2.0, 0.0)


class TestResidual:
    def test_zero_at_origin_with_zero_load(self, disk):
        f = LoadField.constant(disk, 0.0)
        r = residual(disk, np.zeros(disk.n_vertices), f, p=3.0, eps=0.01)
        assert np.all(r == 0.0)

    def test_singular_exponent_at_flat_state(self, disk):
        # p < 2 with eps = 0: the bare |grad u|^{p-2} diverges on flat
        # triangles; the residual limit is still zero
        f = LoadField.constant(disk, 0.0)
        r = residual(disk, np.zeros(disk.n_vertices), f, p=1.5, eps=0.0)
        assert np.all(r == 0.0)

    def test_residual_small_at_solution(self, disk):
        f = LoadField.constant(disk, 1.0)
        cfg = SolveConfig(p=3.0)
        u, rep = solve(disk, f, cfg)
        r = residual(disk, u, f, p=3.0, eps=cfg.eps_final)
        assert np.linalg.norm(r) <= NEWTON_TOL

    def test_matches_energy_finite_difference(self, disk):
        # central difference of the energy in random nodal directions
        rng = np.random.default_rng(3)
        u = 0.5 * rng.normal(size=disk.n_vertices)
        f = LoadField.from_values(disk, rng.normal(size=disk.n_boundary_cells))
        p, eps, h = 3.0, 0.01, 1e-5
        r = residual(disk, u, f, p, eps)
        for i in rng.choice(disk.n_vertices, size=12, replace=False):
            up, um = u.copy(), u.copy()
            up[i] += h
            um[i] -= h
            fd = (energy(disk, up, f, p, eps) - energy(disk, um, f, p, eps)) / (2 * h)
            assert fd == pytest.approx(r[i], rel=1e-6, abs=1e-10)


def coo_reference_hessian(space, u, p, eps):
    """Plain element-by-element COO assembly of ``P1Space.hessian``,
    with the exact mass coefficient (u^2+eps^2)^{(p-4)/2}((p-1)u^2+eps^2)."""
    g = space.gradient(u)
    s = np.einsum("td,td->t", g, g) + eps * eps
    c1 = space.areas * s ** ((p - 2.0) / 2.0)
    c2 = space.areas * (p - 2.0) * s ** ((p - 4.0) / 2.0)
    bg = np.einsum("tid,td->ti", space.grads, g)
    local = c1[:, None, None] * np.einsum("tid,tjd->tij", space.grads, space.grads)
    local += c2[:, None, None] * np.einsum("ti,tj->tij", bg, bg)
    uq = space.values_at_qp(u)
    m = uq * uq + eps * eps
    w = space.qweights * m ** ((p - 4.0) / 2.0) * ((p - 1.0) * uq * uq + eps * eps)
    local += np.einsum("tq,qi,qj->tij", w, TRI_QP, TRI_QP)
    rows = np.repeat(space.triangles, 3, axis=1).ravel()
    cols = np.tile(space.triangles, (1, 3)).ravel()
    n = space.n
    return sparse.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n)).tocsc()


class TestHessian:
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_matches_coo_reference(self, disk, p):
        rng = np.random.default_rng(11)
        u = 0.5 * rng.normal(size=disk.n_vertices)
        space = P1Space.of(disk)
        H = space.hessian(u, p, 0.01)
        ref = coo_reference_hessian(space, u, p, 0.01)
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
        H = P1Space.of(disk).hessian(u, p, eps)
        for _ in range(4):
            v = rng.normal(size=disk.n_vertices)
            fd = (residual(disk, u + h * v, f, p, eps)
                  - residual(disk, u - h * v, f, p, eps)) / (2 * h)
            Hv = H @ v
            tol = 1e-8 if p == 2.0 else 1e-5
            assert np.max(np.abs(fd - Hv)) <= tol * np.max(np.abs(Hv))

    @pytest.mark.parametrize("eps", [0.1, 0.01])
    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_exact_mass_curvature_away_from_zero(self, disk, p, eps):
        # along the constant direction only the mass term curves; its
        # coefficient must be exact whatever eps
        u = 0.05 * (2.0 + disk.vertices[:, 0])
        f = LoadField.constant(disk, 0.0)
        one, h = np.ones(disk.n_vertices), 1e-6
        H1 = P1Space.of(disk).hessian(u, p, eps) @ one
        fd = (residual(disk, u + h * one, f, p, eps)
              - residual(disk, u - h * one, f, p, eps)) / (2 * h)
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
        energy(mesh, state, f, 2.0, 0.0)
        residual(mesh, state, f, 2.0, 0.0)
        functional_I(mesh, state, f, 2.0)
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


class TestSolve:
    def test_zero_load_gives_zero(self, disk):
        f = LoadField.constant(disk, 0.0)
        u, rep = solve(disk, f, SolveConfig(p=2.5))
        assert rep.converged
        assert np.max(np.abs(u.nodal_values)) < 1e-12
        assert rep.J == 0.0

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

        def spy(space, u, b, p, eps):
            energies.setdefault(eps, []).append(space.energy(u, b, p, eps))
            return residual_of(space, u, b, p, eps)

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
        fc = LoadField(c * f.cell_values, f.weights)
        u1, r1 = solve(disk, f, SolveConfig(p=2.0))
        u2, r2 = solve(disk, fc, SolveConfig(p=2.0))
        assert np.allclose(u2.nodal_values, c * u1.nodal_values,
                           rtol=1e-8, atol=1e-12)
        assert r2.J == pytest.approx(c * c * r1.J, rel=1e-8)

    def test_trace_recomputable(self, disk):
        f = LoadField.constant(disk, 1.0)
        u, _ = solve(disk, f, SolveConfig(p=2.0))
        rebuilt = StateField.from_nodal(disk, u.nodal_values, u.p, u.epsilon)
        assert np.max(np.abs(rebuilt.boundary_trace - u.boundary_trace)) < 1e-12

    def test_nonconvergence_returns_partial_state(self, disk, monkeypatch):
        f = LoadField.constant(disk, 1.0)
        # single continuation stage and a starved iteration budget
        monkeypatch.setattr(solver, "MAX_NEWTON_ITERS", 2)
        u, rep = solve(disk, f, SolveConfig(p=3.0, eps_final=EPS_INITIAL))
        assert not rep.converged
        assert rep.stage_exits == ["cap"]
        assert rep.final_residual > NEWTON_TOL
        assert np.all(np.isfinite(u.nodal_values))
        assert np.isfinite(rep.J)

    @pytest.mark.parametrize("p, budget", [(1.1, 80), (1.3, 70), (1.5, 40)])
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
        _, rep = solve(disk, LoadField(scale * f.cell_values, f.weights),
                       SolveConfig(p=p))
        assert rep.converged
        assert rep.stage_exits == ["converged"] * len(rep.eps_stages)
        assert rep.duality_gap <= 1e-6 * (1.0 + abs(rep.J))

    def test_line_search_stall_is_reported(self, disk):
        # a load beyond floating range: the Newton slope overflows to -inf,
        # no step passes the Armijo test, and every stage stops after one
        # step as a stall, not at the iteration cap
        f = LoadField.constant(disk, 1e200)
        with np.errstate(over="ignore", invalid="ignore"):
            u, rep = solve(disk, f, SolveConfig(p=2.0))
        assert not rep.converged
        assert rep.stage_exits == ["stall"] * len(rep.eps_stages)
        assert rep.iterations_per_stage == [1] * len(rep.eps_stages)
        assert np.all(u.nodal_values == 0.0)

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            SolveConfig(p=0.5)
        with pytest.raises(ValueError):
            SolveConfig(p=11.0)
        with pytest.raises(ValueError):
            SolveConfig(p=2.0, eps_final=1.0)


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
        # one factor serves every eps stage; CG refactors only rarely
        _, _, lagged, _ = lagged_and_direct
        assert lagged.cg_iterations > 0
        assert 4 * lagged.factorizations <= sum(lagged.iterations_per_stage)

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

    def test_singular_system_gives_no_direction(self):
        # splu raises where spsolve returns NaN; either way the Newton
        # loop gets a non-finite direction and falls back to the gradient
        n = solver.PCG_MIN_VERTICES
        systems = solver._NewtonSystems(n)
        d = systems.solve(sparse.csc_matrix((n, n)), np.ones(n), 0.1)
        assert np.all(np.isnan(d))
        assert systems.factorizations == 1 and systems.lu is None

    def test_small_systems_solve_directly(self):
        mesh = build_disk_mesh(1.0, 8, 2)
        assert mesh.n_vertices < solver.PCG_MIN_VERTICES
        _, rep = solve(mesh, step_load(mesh, STEP_LEVELS), SolveConfig(p=1.5))
        assert rep.converged
        assert rep.cg_iterations == 0
        assert rep.factorizations == sum(rep.iterations_per_stage) > 0


class TestFunctionals:
    def test_J_zero_load(self, disk):
        f = LoadField.constant(disk, 0.0)
        u = np.ones(disk.n_vertices)
        assert functional_J(disk, f, u) == 0.0

    def test_J_against_oracle(self, disk):
        f = LoadField.constant(disk, 1.0)
        u, rep = solve(disk, f, SolveConfig(p=2.0))
        J_oracle = 2 * np.pi * iv(0, 1.0) / iv(1, 1.0)
        assert rep.J == pytest.approx(J_oracle, rel=0.01)

    def test_I_zero_field(self, disk):
        f = LoadField.constant(disk, 1.0)
        assert functional_I(disk, np.zeros(disk.n_vertices), f, p=2.0) == 0.0

    def test_I_of_wrong_field_negative(self, disk, disk_area):
        # u = 1 with zero load: I = -area < 0 = I(u_f)
        f = LoadField.constant(disk, 0.0)
        val = functional_I(disk, np.ones(disk.n_vertices), f, p=2.0)
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
        I_star = functional_I(disk, u, f, p)
        for _ in range(20):
            trial = rng.normal(size=disk.n_vertices)
            assert functional_I(disk, trial, f, p) <= I_star + 1e-9

    def test_mesh_convergence_order(self):
        J_oracle = 2 * np.pi * iv(0, 1.0) / iv(1, 1.0)
        errs = []
        for n, m in ((64, 10), (128, 20)):
            mesh = build_disk_mesh(1.0, n, m)
            f = LoadField.constant(mesh, 1.0)
            _, rep = solve(mesh, f, SolveConfig(p=2.0))
            errs.append(abs(rep.J - J_oracle))
        assert np.log2(errs[0] / errs[1]) >= 1.8
