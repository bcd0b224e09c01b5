import warnings

import numpy as np
import pytest

from plapopt import solver
from plapopt.acceptance import STEP_LEVELS
from plapopt.fem import P1Space
from plapopt.geometry import build_disk_mesh, build_square_mesh
from plapopt.perturbation import (
    FlowMap,
    PiecewiseBoundaryFunction,
    deriv_bvjump_formula,
    deriv_finite_difference,
    deriv_surfdiv_formula,
    deriv_volume_formula,
    derivative_report,
    lq_distance,
    tangent_field,
    transport_load,
    transported_solution_check,
)
from plapopt.rearrangement import LoadField, binary_load, step_load
from plapopt.solver import EPS_INITIAL, SolveConfig, SolverError, solve

L2PI = 2.0 * np.pi


@pytest.fixture(scope="module")
def disk():
    return build_disk_mesh(1.0, 64, 10)


@pytest.fixture(scope="module")
def disk_fine():
    return build_disk_mesh(1.0, 128, 20)


class TestFlowMap:
    def test_constant_speed_translates(self):
        fld = tangent_field("constant", L2PI)
        s = np.array([0.0, 1.0, 4.5])
        out = FlowMap(fld, 0.5).forward(s)
        assert np.allclose(out, s + 0.5, atol=1e-12)

    def test_zero_field_is_identity(self):
        fld = tangent_field("constant:0", L2PI)
        s = np.linspace(0, L2PI, 11)
        assert np.allclose(FlowMap(fld, 0.7).forward(s), s, atol=1e-15)

    def test_first_order_expansion(self):
        fld = tangent_field("sin:1", L2PI)
        s = np.linspace(0, L2PI, 23, endpoint=False)
        t = 1e-3
        dev = np.max(np.abs(FlowMap(fld, t).forward(s) - (s + t * np.sin(s))))
        assert dev <= 1e-5
        dev_half = np.max(
            np.abs(FlowMap(fld, t / 2).forward(s) - (s + t / 2 * np.sin(s)))
        )
        assert 3.5 <= dev / dev_half <= 4.5  # second order in t

    def test_inverse_roundtrip(self):
        fld = tangent_field("cos:2", L2PI)
        fm = FlowMap(fld, 0.4)
        s = np.linspace(0, L2PI, 17, endpoint=False)
        assert np.max(np.abs(fm.inverse(fm.forward(s)) - s)) < 1e-11

    def test_group_property(self):
        fld = tangent_field("sin:1", L2PI)
        s = np.linspace(0, L2PI, 29, endpoint=False)
        comp = FlowMap(fld, 0.2).forward(FlowMap(fld, 0.3).forward(s))
        assert np.max(np.abs(comp - FlowMap(fld, 0.5).forward(s))) <= 1e-9


class TestTangentialJacobian:
    def test_constant_field_unit_jacobian(self):
        fld = tangent_field("constant", L2PI)
        s = np.linspace(0, L2PI, 9)
        assert np.allclose(FlowMap(fld, 0.8).jacobian(s), 1.0, atol=1e-13)

    def test_linearization(self):
        fld = tangent_field("sin:1", L2PI)
        t = 1e-3
        jac = FlowMap(fld, t).jacobian(np.array([0.0]))
        assert jac[0] == pytest.approx(1.0 + t, abs=1e-6)

    def test_measure_preserved_over_period(self):
        # a bijection of the loop preserves total length:
        # integral of the jacobian over one period equals the period
        fld = tangent_field("sin:2", L2PI)
        n = 4096
        s = (np.arange(n) + 0.5) * L2PI / n
        jac = FlowMap(fld, 0.3).jacobian(s)
        assert np.sum(jac) * L2PI / n == pytest.approx(L2PI, rel=1e-8)


class TestTransport:
    def test_t_zero_identity(self, disk):
        chart = disk.chart()
        f = step_load(disk, [1.0, 0.0])
        ft = transport_load(chart, f, tangent_field("cos:1", chart.length), 0.0)
        mids = chart.midpoint_positions()
        assert np.array_equal(ft(mids), f.cell_values)

    def test_rigid_shift_preserves_distribution(self, disk):
        chart = disk.chart()
        f = step_load(disk, [1.0, -1.0, 0.5, 0.0])
        w = disk.boundary_weights[0]
        ft = transport_load(chart, f, tangent_field("constant", chart.length), w)
        vals = ft(chart.midpoint_positions())
        assert np.array_equal(np.sort(vals), np.sort(f.cell_values))
        assert np.allclose(vals, np.roll(f.cell_values, 1))

    def test_lq_decay_rate(self, disk):
        # ||f_t - f||_q^q scales like t for a step load, so the norm
        # scales like t^{1/q}; computed with the exact quadrature oracle
        chart = disk.chart()
        f = step_load(disk, [1.0, 0.0])
        fld = tangent_field("cos:1", chart.length)
        base = PiecewiseBoundaryFunction.from_load(chart, f)
        q = 2.0
        norms = [
            lq_distance(transport_load(chart, f, fld, t), base, q)
            for t in (0.08, 0.04, 0.02)
        ]
        assert norms[0] / norms[1] == pytest.approx(2 ** (1 / q), rel=1e-3)
        assert norms[1] / norms[2] == pytest.approx(2 ** (1 / q), rel=1e-3)

    def test_exact_load_vector_matches_aligned_case(self, disk):
        # transported by exactly zero: piecewise assembly equals the
        # cellwise-constant assembly
        from plapopt.fem import P1Space

        chart = disk.chart()
        space = P1Space(disk)
        f = step_load(disk, [2.0, -1.0, 0.5, 0.25])
        ft = transport_load(chart, f, tangent_field("sin:1", chart.length), 0.0)
        b_exact = space.load_vector_from_function(ft, chart)
        b_cells = space.load_vector(f.cell_values)
        assert np.max(np.abs(b_exact - b_cells)) < 1e-13

    def test_solve_takes_transported_load(self, disk):
        # a load transported by zero is the load itself, through the
        # function route of the load vector instead of the cell route
        chart = disk.chart()
        f = step_load(disk, STEP_LEVELS)
        ft = transport_load(chart, f, tangent_field("sin:1", chart.length), 0.0)
        cfg = SolveConfig(p=3.0)
        u, rep = solve(disk, f, cfg)
        ut, rept = solve(disk, ft, cfg)
        assert rept.converged
        assert rept.J == pytest.approx(rep.J, rel=1e-12)
        scale = np.max(np.abs(u.nodal_values))
        assert np.max(np.abs(ut.nodal_values - u.nodal_values)) <= 1e-12 * scale


class TestDerivativeFormulas:
    def test_zero_field_gives_zero(self, disk):
        f = step_load(disk, [1.0, 0.0])
        cfg = SolveConfig(p=2.0)
        u0, _ = solve(disk, f, cfg)
        zero = tangent_field("constant:0", disk.total_boundary_length)
        assert deriv_volume_formula(disk, u0, f, zero) == 0.0
        assert deriv_surfdiv_formula(disk, u0, f, zero) == 0.0
        assert deriv_bvjump_formula(disk, u0, f, zero) == 0.0
        assert deriv_finite_difference(disk, f, zero, cfg, t=1e-3) == 0.0

    def test_volume_formula_finite_on_flat_state(self, disk):
        # p < 2 on a state with zero gradient: the |grad u|^{p-2} weight
        # diverges but its product with the quadratic form vanishes
        from plapopt.solver import StateField

        f = LoadField.constant(disk, 0.0)
        u0 = StateField.from_nodal(disk, np.zeros(disk.n_vertices), 1.5, 0.0)
        fld = tangent_field("sin:1", disk.total_boundary_length)
        assert deriv_volume_formula(disk, u0, f, fld) == 0.0

    def test_constant_load_kills_boundary_routes(self, disk):
        f = LoadField.constant(disk, 1.0)
        cfg = SolveConfig(p=2.0)
        u0, _ = solve(disk, f, cfg)
        fld = tangent_field("sin:1", disk.total_boundary_length)
        # no jumps at all
        assert deriv_bvjump_formula(disk, u0, f, fld) == 0.0
        # closed-curve integral of an exact derivative
        assert abs(deriv_surfdiv_formula(disk, u0, f, fld)) < 1e-10

    def test_bump_away_from_jumps_gives_zero_jump_sum(self, disk):
        L = disk.total_boundary_length
        f = binary_load(disk, 16, start=0)  # jumps at s=0 and s=L/4
        cfg = SolveConfig(p=2.0)
        u0, _ = solve(disk, f, cfg)
        fld = tangent_field(f"bump:{0.6 * L},{0.2 * L}", L)
        assert deriv_bvjump_formula(disk, u0, f, fld) == 0.0

    def test_linearity_in_field(self, disk):
        f = step_load(disk, [1.0, -0.5, 0.25, 0.0])
        u0, _ = solve(disk, f, SolveConfig(p=3.0))
        L = disk.total_boundary_length
        v1 = tangent_field("sin:1", L)
        v2 = tangent_field(f"bump:{0.4 * L},{0.3 * L}", L)
        v12 = v1 + v2
        for form in (
            lambda v: deriv_volume_formula(disk, u0, f, v),
            lambda v: deriv_surfdiv_formula(disk, u0, f, v),
            lambda v: deriv_bvjump_formula(disk, u0, f, v),
        ):
            a, b, ab = form(v1), form(v2), form(v12)
            assert ab == pytest.approx(a + b, abs=1e-10 * max(1.0, abs(a) + abs(b)))

    def test_four_way_agreement_p2(self, disk_fine):
        f = step_load(disk_fine, [1.0, -0.5, 0.25, 0.0])
        fld = tangent_field("sin:1", disk_fine.total_boundary_length)
        rep = derivative_report(disk_fine, f, fld, SolveConfig(p=2.0), t=1e-3)
        assert rep.max_discrepancy <= 1e-2
        # at p = 2 each formula matches the finite-difference route to 1e-3
        fd = rep.values["findiff"]
        for name in ("volume", "surfdiv", "bvjump"):
            assert rep.values[name] == pytest.approx(fd, rel=1e-3)

    def test_finite_difference_richardson(self, disk):
        # smooth-in-t configuration: central differences are second order,
        # so estimates at t and t/2 agree to O(t^2)
        f = step_load(disk, [1.0, -0.5, 0.25, 0.0])
        cfg = SolveConfig(p=2.0)
        fld = tangent_field("cos:1", disk.total_boundary_length)
        d1 = deriv_finite_difference(disk, f, fld, cfg, t=2e-2)
        d2 = deriv_finite_difference(disk, f, fld, cfg, t=1e-2)
        d3 = deriv_finite_difference(disk, f, fld, cfg, t=5e-3)
        assert abs(d2 - d3) < abs(d1 - d2)

    def test_rotation_null_p2(self, disk_fine):
        f = step_load(disk_fine, [1.0, -0.5, 0.25, 0.0])
        cfg = SolveConfig(p=2.0)
        u0, rep = solve(disk_fine, f, cfg)
        fld = tangent_field("constant", disk_fine.total_boundary_length)
        tol = 1e-4 * (1.0 + abs(rep.J))
        assert abs(deriv_surfdiv_formula(disk_fine, u0, f, fld)) <= tol
        assert abs(deriv_bvjump_formula(disk_fine, u0, f, fld)) <= tol
        assert abs(deriv_finite_difference(disk_fine, f, fld, cfg, 1e-3)) <= tol

    def test_rotation_null_p15_tracked_magnitude(self, disk_fine):
        # For p < 2 the volume route still vanishes exactly (its extension
        # is the rotation itself), but the surface-divergence and jump
        # routes carry the trace error at the load jumps (singular
        # operator), which decays only ~h^1.1: measured 4.8e-3 at 128
        # cells, 2.1e-3 at 256, 9.8e-4 at 512. Track the 128-cell
        # magnitude so a regression (e.g. sign/orientation bug, which
        # would produce O(1) values) is caught.
        f = step_load(disk_fine, [1.0, -0.5, 0.25, 0.0])
        cfg = SolveConfig(p=1.5)
        u0, rep = solve(disk_fine, f, cfg)
        fld = tangent_field("constant", disk_fine.total_boundary_length)
        worst = max(
            abs(deriv_volume_formula(disk_fine, u0, f, fld)),
            abs(deriv_surfdiv_formula(disk_fine, u0, f, fld)),
            abs(deriv_bvjump_formula(disk_fine, u0, f, fld)),
        )
        assert worst <= 1e-2 * (1.0 + abs(rep.J))

    def test_jump_sign_against_finite_difference(self, disk_fine):
        # the orientation sign of the jump form is frozen at -1; a +1
        # convention would flip the estimate and break the match
        f = step_load(disk_fine, [1.0, -0.5, 0.25, 0.0])
        cfg = SolveConfig(p=2.0)
        u0, _ = solve(disk_fine, f, cfg)
        fld = tangent_field("cos:1", disk_fine.total_boundary_length)
        dj = deriv_bvjump_formula(disk_fine, u0, f, fld)
        dfd = deriv_finite_difference(disk_fine, f, fld, cfg, 1e-3)
        assert dj == pytest.approx(dfd, rel=1e-2)
        assert abs(-dj - dfd) > abs(dj - dfd)  # flipped sign is worse

    def test_square_volume_matches_finite_difference(self):
        # one extension serves every mesh, corners included, and warns of
        # nothing
        mesh = build_square_mesh(1.0, 32)
        f = step_load(mesh, STEP_LEVELS)
        cfg = SolveConfig(p=2.0)
        u0, _ = solve(mesh, f, cfg)
        fld = tangent_field("sin:1", mesh.total_boundary_length)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vol = deriv_volume_formula(mesh, u0, f, fld)
            fd = deriv_finite_difference(mesh, f, fld, cfg, 1e-3)
        assert vol == pytest.approx(fd, rel=1e-2)


class TestUnconvergedSolves:
    # Newton-starved at p = 3: one stage of 4 steps leaves the base
    # residual at 2.6e-4
    STARVED = SolveConfig(p=3.0, eps_final=EPS_INITIAL)

    @pytest.fixture(autouse=True)
    def starve(self, monkeypatch):
        monkeypatch.setattr(solver, "MAX_NEWTON_ITERS", 4)

    def test_derivative_report_refuses_unconverged_base(self, disk):
        f = step_load(disk, STEP_LEVELS)
        fld = tangent_field("sin:1", disk.total_boundary_length)
        with pytest.raises(SolverError, match="base solve stalled at residual"):
            derivative_report(disk, f, fld, self.STARVED)

    def test_transport_check_refuses_unconverged_base(self, disk):
        f = step_load(disk, STEP_LEVELS)
        fld = tangent_field("sin:1", disk.total_boundary_length)
        with pytest.raises(SolverError, match="base solve stalled at residual"):
            transported_solution_check(disk, f, fld, [0.0], self.STARVED)

    def test_finite_difference_names_residual(self, disk):
        f = step_load(disk, STEP_LEVELS)
        fld = tangent_field("sin:1", disk.total_boundary_length)
        with pytest.raises(SolverError, match="t=0.001 stalled at residual"):
            deriv_finite_difference(disk, f, fld, self.STARVED)


class TestTransportedSolutionCheck:
    def test_norms_decay(self, disk):
        f = binary_load(disk, 24, start=3)
        fld = tangent_field("cos:1", disk.total_boundary_length)
        ts = [0.1 * 2.0 ** (-k) for k in range(6)]
        rec = transported_solution_check(disk, f, fld, ts, SolveConfig(p=2.0))
        assert rec.u_monotone
        assert rec.f_monotone
        assert rec.u_norms[-1] < rec.u_norms[0] / 10

    def test_zero_time_zero_norm(self, disk):
        f = binary_load(disk, 16)
        fld = tangent_field("cos:1", disk.total_boundary_length)
        rec = transported_solution_check(disk, f, fld, [0.0], SolveConfig(p=2.0))
        assert rec.u_norms == [0.0]
        assert rec.f_norms == [0.0]

    def test_zero_field_all_zero(self, disk):
        f = binary_load(disk, 16)
        fld = tangent_field("constant:0", disk.total_boundary_length)
        rec = transported_solution_check(
            disk, f, fld, [0.1, 0.05], SolveConfig(p=2.0)
        )
        assert max(rec.f_norms) == 0.0
        assert max(rec.u_norms) < 1e-9


class TestTangentFieldSpecs:
    def test_parse_errors(self):
        with pytest.raises(ValueError):
            tangent_field("spiral:3", L2PI)
        with pytest.raises(ValueError):
            tangent_field("bump:1.0", L2PI)
        with pytest.raises(ValueError):
            tangent_field(f"bump:0.0,{3 * L2PI}", L2PI)

    def test_bump_supported_and_smooth(self):
        fld = tangent_field("bump:3.0,2.0", L2PI)
        s = np.linspace(0, L2PI, 1000)
        v = fld.speed(s)
        assert v.max() <= 1.0
        assert fld.speed(np.array([3.0]))[0] == pytest.approx(1.0)
        outside = (s < 2.0) | (s > 4.0)
        assert np.all(v[outside] == 0.0)
        # derivative consistent with finite differences
        h = 1e-6
        mid = np.array([2.5, 3.0, 3.7])
        fd = (fld.speed(mid + h) - fld.speed(mid - h)) / (2 * h)
        assert np.allclose(fld.speed_prime(mid), fd, atol=1e-6)


class TestHarmonicExtension:
    def test_boundary_rows_returned_exactly(self, disk):
        space = P1Space.of(disk)
        rng = np.random.default_rng(5)
        xb = rng.normal(size=(disk.n_boundary_cells, 2))
        V = space.harmonic_extension(xb)
        assert V.shape == (disk.n_vertices, 2)
        assert np.array_equal(V[disk.boundary_loop], xb)

    def test_rotation_extends_to_rotation(self, disk_fine):
        # the constant field's boundary velocity on the unit disk is
        # (-y, x), a linear field, which the discrete extension reproduces
        fld = tangent_field("constant", disk_fine.total_boundary_length)
        tang = disk_fine.boundary_tangents
        tau = tang + np.roll(tang, 1, axis=0)
        tau /= np.linalg.norm(tau, axis=1)[:, None]
        s = disk_fine.chart().interface_positions()
        V = P1Space.of(disk_fine).harmonic_extension(fld.speed(s)[:, None] * tau)
        x, y = disk_fine.vertices.T
        assert np.max(np.abs(V - np.column_stack([-y, x]))) <= 1e-12

    def test_rotation_null_volume_p15(self, disk_fine):
        # the extension is the exact rotation, so the volume route vanishes
        # below p = 2 too, where the other routes carry the trace error
        f = step_load(disk_fine, STEP_LEVELS)
        u0, _ = solve(disk_fine, f, SolveConfig(p=1.5))
        fld = tangent_field("constant", disk_fine.total_boundary_length)
        assert abs(deriv_volume_formula(disk_fine, u0, f, fld)) <= 1e-12
