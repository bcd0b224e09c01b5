import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import periodic_spline_at, step_load_vector, step_lq_distance
from plapopt import perturbation, solver
from plapopt.acceptance import STEP_LEVELS
from plapopt.fem import P1Space
from plapopt.geometry import DomainMesh, build_disk_mesh, build_square_mesh
from plapopt.perturbation import (
    DerivativeReport,
    PiecewiseBoundaryFunction,
    TangentField,
    deriv_bvjump_formula,
    deriv_finite_difference,
    deriv_surfdiv_formula,
    deriv_volume_formula,
    derivative_report,
    flow,
    lq_distance,
    tangent_field,
    transport_load,
    transported_solution_check,
)
from plapopt.rearrangement import LoadField, binary_load, step_load
from plapopt.solver import EPS_STAGES, SolveConfig, SolverError, solve

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
        out = flow(fld, s, 0.5)
        assert np.allclose(out, s + 0.5, atol=1e-12)

    def test_zero_field_is_identity(self):
        fld = tangent_field("constant:0", L2PI)
        s = np.linspace(0, L2PI, 11)
        assert np.allclose(flow(fld, s, 0.7), s, atol=1e-15)

    def test_first_order_expansion(self):
        fld = tangent_field("sin:1", L2PI)
        s = np.linspace(0, L2PI, 23, endpoint=False)
        t = 1e-3
        dev = np.max(np.abs(flow(fld, s, t) - (s + t * np.sin(s))))
        assert dev <= 1e-5
        dev_half = np.max(
            np.abs(flow(fld, s, t / 2) - (s + t / 2 * np.sin(s)))
        )
        assert 3.5 <= dev / dev_half <= 4.5  # second order in t

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_nonfinite_time_rejected(self, t):
        with pytest.raises(ValueError, match="finite"):
            flow(tangent_field("sin:1", L2PI), np.zeros(3), t)

    def test_group_property(self):
        fld = tangent_field("sin:1", L2PI)
        s = np.linspace(0, L2PI, 29, endpoint=False)
        comp = flow(fld, flow(fld, s, 0.3), 0.2)
        assert np.max(np.abs(comp - flow(fld, s, 0.5))) <= 1e-9


def _rk4_reference(fld, s, t, n_steps):
    """psi_t(s) by n_steps classical RK4 steps."""
    h = t / n_steps
    v = fld.speed
    for _ in range(n_steps):
        k1 = v(s)
        k2 = v(s + 0.5 * h * k1)
        k3 = v(s + 0.5 * h * k2)
        k4 = v(s + h * k3)
        s = s + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return s


class TestFlowSteps:
    @pytest.mark.parametrize("spec", ["sin:1", "cos:2", "bump"])
    @pytest.mark.parametrize("t", [-1e-3, 1e-3])
    def test_short_flow_matches_fine_steps(self, spec, t):
        # a finite-difference step takes ceil(400 |t|) = 1 RK4 step, and
        # agrees with 100 steps of h = t / 100 to rounding
        if spec == "bump":
            spec = f"bump:{0.3 * L2PI},{0.4 * L2PI}"
        fld = tangent_field(spec, L2PI)
        s = np.linspace(0, L2PI, 41, endpoint=False)
        ref_s = _rk4_reference(fld, s, t, 100)
        assert np.max(np.abs(flow(fld, s, t) - ref_s)) <= 1e-14

    def test_step_length_at_most_one_400th(self):
        # count speed evaluations: four per RK4 step
        fld = tangent_field("sin:1", L2PI)
        calls = []

        def speed(x):
            calls.append(1)
            return np.sin(x)

        counted = dataclasses.replace(fld, speed=speed)
        for t, steps in ((1e-3, 1), (-0.25, 100), (0.2526, 102), (1.0, 400)):
            calls.clear()
            flow(counted, np.zeros(3), t)
            assert len(calls) == 4 * steps, t


def _midpoints(mesh):
    return mesh.cell_starts[:-1] + 0.5 * mesh.boundary_weights


class TestTransport:
    def test_t_zero_identity(self, disk):
        f = step_load(disk, [1.0, 0.0])
        L = disk.total_boundary_length
        ft = transport_load(disk, f, tangent_field("cos:1", L), 0.0)
        assert np.array_equal(ft(_midpoints(disk)), f.cell_values)

    def test_rigid_shift_preserves_distribution(self, disk):
        f = step_load(disk, [1.0, -1.0, 0.5, 0.0])
        w = disk.boundary_weights[0]
        L = disk.total_boundary_length
        ft = transport_load(disk, f, tangent_field("constant", L), w)
        vals = ft(_midpoints(disk))
        assert np.array_equal(np.sort(vals), np.sort(f.cell_values))
        assert np.allclose(vals, np.roll(f.cell_values, 1))

    def test_lq_decay_rate(self, disk):
        # ||f_t - f||_q^q scales like t for a step load, so the norm
        # scales like t^{1/q}; computed with the exact quadrature oracle
        f = step_load(disk, [1.0, 0.0])
        fld = tangent_field("cos:1", disk.total_boundary_length)
        base = PiecewiseBoundaryFunction.from_load(disk, f)
        q = 2.0
        norms = [
            lq_distance(transport_load(disk, f, fld, t), base, q)
            for t in (0.08, 0.04, 0.02)
        ]
        assert norms[0] / norms[1] == pytest.approx(2 ** (1 / q), rel=1e-3)
        assert norms[1] / norms[2] == pytest.approx(2 ** (1 / q), rel=1e-3)

    def test_exact_load_vector_matches_aligned_case(self, disk):
        # transported by exactly zero: piecewise assembly equals the
        # cellwise-constant assembly
        space = P1Space(disk)
        f = step_load(disk, [2.0, -1.0, 0.5, 0.25])
        L = disk.total_boundary_length
        ft = transport_load(disk, f, tangent_field("sin:1", L), 0.0)
        b_exact = space.load_vector_from_function(ft.breaks, ft.values)
        b_cells = space.load_vector(f.cell_values)
        assert np.max(np.abs(b_exact - b_cells)) < 1e-13

    def test_solve_takes_transported_load(self, disk):
        # a load transported by zero is the load itself, through the
        # function route of the load vector instead of the cell route
        f = step_load(disk, STEP_LEVELS)
        L = disk.total_boundary_length
        ft = transport_load(disk, f, tangent_field("sin:1", L), 0.0)
        cfg = SolveConfig(p=3.0)
        u, rep = solve(disk, f, cfg)
        ut, rept = solve(disk, ft, cfg)
        assert rept.converged
        assert rept.J == pytest.approx(rep.J, rel=1e-12)
        scale = np.max(np.abs(u.nodal_values))
        assert np.max(np.abs(ut.nodal_values - u.nodal_values)) <= 1e-12 * scale


@st.composite
def step_functions(draw, mesh):
    """A step function on the boundary of ``mesh``: random breaks, some
    snapped to cell starts, one at 0 and one at the rounding of -1e-20
    into [0, L), which is L itself; random values."""
    L = mesh.total_boundary_length
    fracs = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=12))
    cells = draw(st.lists(st.integers(0, mesh.n_boundary_cells - 1), max_size=6))
    breaks = np.concatenate(
        [np.array(fracs) * L, mesh.cell_starts[cells], [0.0, np.mod(-1e-20, L)]]
    )
    values = draw(st.lists(st.floats(-10.0, 10.0, allow_subnormal=False),
                           min_size=breaks.size, max_size=breaks.size))
    return PiecewiseBoundaryFunction(breaks, values, L)


DISK_64 = build_disk_mesh(1.0, 64, 10)


class TestStepFunctionProperties:
    @given(step_functions(DISK_64))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_load_vector_matches_cellwise_reference(self, g):
        b = P1Space.of(DISK_64).load_vector_from_function(g.breaks, g.values)
        ref = step_load_vector(DISK_64, g.breaks, g.values)
        assert np.max(np.abs(b - ref)) <= 1e-13 * np.max(np.abs(b))
        # the hats partition unity and the cells span exactly one period,
        # so b sums the integral of g over it
        lengths = np.diff(np.append(g.breaks, g.breaks[0] + g.period))
        bound = 1e-13 * g.period * np.max(np.abs(g.values))
        assert abs(b.sum() - g.values @ lengths) <= bound

    @given(step_functions(DISK_64), step_functions(DISK_64),
           st.sampled_from([1.5, 2.0, 3.0]))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_lq_distance_matches_piecewise_reference(self, g, h, q):
        d = lq_distance(g, h, q)
        assert d == pytest.approx(step_lq_distance(g, h, q), rel=1e-12, abs=0.0)
        assert lq_distance(h, g, q) == d
        assert lq_distance(g, g, q) == 0.0


def _unequal_disk():
    # the 16x3 disk with one boundary vertex slid along the polygon, as in
    # test_geometry's unequal-cell test: two cells change length
    mesh = build_disk_mesh(1.0, 16, 3)
    verts = np.array(mesh.vertices)
    i = mesh.boundary_loop[4]
    verts[i] = 0.6 * verts[i] + 0.4 * verts[mesh.boundary_loop[5]]
    return DomainMesh(verts, mesh.triangles, mesh.boundary_loop)


SPLINE_MESHES = {
    "disk8x2": lambda: build_disk_mesh(1.0, 8, 2),
    "disk128x20": lambda: build_disk_mesh(1.0, 128, 20),
    "square8": lambda: build_square_mesh(1.0, 8),
    "unequal16x3": _unequal_disk,
}


class TestTraceSpline:
    @pytest.mark.parametrize("name", SPLINE_MESHES)
    def test_matches_scipy_periodic_spline(self, name):
        mesh = SPLINE_MESHES[name]()
        space = P1Space.of(mesh)
        y = np.random.default_rng(5).standard_normal(mesh.n_boundary_cells)
        vals, slopes = perturbation._trace_spline(space, y)
        ref_vals, ref_slopes = periodic_spline_at(mesh, y, space.boundary_gauss_points())
        assert np.max(np.abs(vals - ref_vals)) <= 1e-13 * np.max(np.abs(ref_vals))
        assert np.max(np.abs(slopes - ref_slopes)) <= 1e-13 * np.max(np.abs(ref_slopes))

    @pytest.mark.parametrize("name", SPLINE_MESHES)
    @pytest.mark.parametrize("c", [1.0, -3.7e5])
    def test_constant_trace_is_flat(self, name, c):
        mesh = SPLINE_MESHES[name]()
        vals, slopes = perturbation._trace_spline(P1Space.of(mesh), np.full(mesh.n_boundary_cells, c))
        assert np.max(np.abs(slopes)) <= 1e-15 * abs(c)
        assert np.allclose(vals, c, rtol=1e-15, atol=0)


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
        u0 = StateField(np.zeros(disk.n_vertices), np.zeros(disk.n_boundary_cells), 1.5)
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
        v12 = TangentField(
            "sin:1+bump",
            speed=lambda s: v1.speed(s) + v2.speed(s),
            speed_prime=lambda s: v1.speed_prime(s) + v2.speed_prime(s),
        )
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


class TestDerivativeReport:
    NAMES = ("volume", "surfdiv", "bvjump", "findiff")

    def test_six_pairwise_discrepancies(self):
        rep = DerivativeReport(dict(zip(self.NAMES, (1.0, 2.0, -4.0, 2.0))), J=3.0)
        assert rep.discrepancies == {
            "volume-surfdiv": 0.25, "volume-bvjump": 1.25, "volume-findiff": 0.25,
            "surfdiv-bvjump": 1.5, "surfdiv-findiff": 0.0, "bvjump-findiff": 1.5,
        }
        assert rep.max_discrepancy == 1.5

    def test_all_zero_values(self):
        rep = DerivativeReport(dict.fromkeys(self.NAMES, 0.0), J=0.0)
        assert len(rep.discrepancies) == 6
        assert set(rep.discrepancies.values()) == {0.0}
        assert rep.max_discrepancy == 0.0


class TestFiniteDifferenceStep:
    # the unit disk's boundary length is just below 2 pi < 6.3
    @pytest.mark.parametrize("t", [0.0, -1e-3, 6.3, 1e300, np.inf, np.nan])
    def test_step_outside_one_period_refused_before_solving(self, disk, monkeypatch, t):
        def no_solve(*args, **kwargs):
            raise AssertionError("solve called")

        monkeypatch.setattr(perturbation, "solve", no_solve)
        f = step_load(disk, STEP_LEVELS)
        fld = tangent_field("sin:1", disk.total_boundary_length)
        with pytest.raises(ValueError, match="step t must lie in"):
            deriv_finite_difference(disk, f, fld, SolveConfig(p=2.0), t)

    def test_report_refuses_the_step_before_its_base_solve(self, disk, monkeypatch):
        calls = []

        def counting_solve(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(perturbation, "solve", counting_solve)
        f = step_load(disk, STEP_LEVELS)
        fld = tangent_field("sin:1", disk.total_boundary_length)
        with pytest.raises(ValueError, match="step t must lie in"):
            derivative_report(disk, f, fld, SolveConfig(p=1.5), t=1e300)
        assert calls == []
        # the wrapper does count: a valid step solves three times
        derivative_report(disk, f, fld, SolveConfig(p=2.0))
        assert len(calls) == 3


class TestUnconvergedSolves:
    # Newton-starved at p = 3: one stage of 4 steps leaves the base
    # residual at 2.6e-4
    STARVED = SolveConfig(p=3.0)

    @pytest.fixture(autouse=True)
    def starve(self, monkeypatch):
        monkeypatch.setattr(solver, "EPS_STAGES", EPS_STAGES[:1])
        monkeypatch.setattr(solver, "MAX_NEWTON_ITERS", 4)

    def test_derivative_report_refuses_unconverged_base(self, disk):
        f = step_load(disk, STEP_LEVELS)
        fld = tangent_field("sin:1", disk.total_boundary_length)
        with pytest.raises(SolverError, match="base solve ended as 'cap' at residual"):
            derivative_report(disk, f, fld, self.STARVED)

    def test_transport_check_refuses_unconverged_base(self, disk):
        f = step_load(disk, STEP_LEVELS)
        fld = tangent_field("sin:1", disk.total_boundary_length)
        with pytest.raises(SolverError, match="base solve ended as 'cap' at residual"):
            transported_solution_check(disk, f, fld, [0.0], self.STARVED)

    def test_finite_difference_names_residual(self, disk):
        f = step_load(disk, STEP_LEVELS)
        fld = tangent_field("sin:1", disk.total_boundary_length)
        with pytest.raises(SolverError, match="t=0.001 ended as 'cap' at residual"):
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

    def test_monotone_flags_read_the_norms(self):
        # each flag allows a rise by MONOTONE_SLACK; 2.0 after 1.0 breaks it
        rec = perturbation.TransportConvergenceRecord([1.0, 2.0], [1.0, 0.5])
        assert rec.u_monotone is False
        assert rec.f_monotone is True
        assert [f.name for f in dataclasses.fields(rec)] == ["u_norms", "f_norms"]


class TestTangentFieldSpecs:
    @pytest.mark.parametrize("kind", ["sin", "cos"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_harmonic_speeds_bitwise(self, kind, k):
        L = 2.3
        fld = tangent_field(f"{kind}:{k}", L)
        s = np.linspace(-L, 2.0 * L, 301)
        om = 2.0 * np.pi * k / L
        if kind == "sin":
            speed, prime = np.sin(om * s), om * np.cos(om * s)
        else:
            speed, prime = np.cos(om * s), -om * np.sin(om * s)
        assert fld.name == f"{kind}:{k}"
        assert np.array_equal(fld.speed(s), speed)
        assert np.array_equal(fld.speed_prime(s), prime)

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            tangent_field("spiral:3", L2PI)
        with pytest.raises(ValueError):
            tangent_field("bump:1.0", L2PI)
        with pytest.raises(ValueError):
            tangent_field(f"bump:0.0,{3 * L2PI}", L2PI)

    @pytest.mark.parametrize(
        "spec", ["constant:nan", "constant:inf", "bump:nan,1", "bump:inf,1", "bump:1,nan"]
    )
    def test_nonfinite_parameters_rejected(self, spec):
        with pytest.raises(ValueError):
            tangent_field(spec, L2PI)

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
        s = disk_fine.cell_starts[:-1]
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
