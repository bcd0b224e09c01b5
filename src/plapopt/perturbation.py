"""Tangential boundary flows, load transport, and derivative estimates of
the boundary functional under load perturbation.

A periodic speed v(s) on the arclength chart generates the boundary flow

    d/dtau psi_tau(s) = v(psi_tau(s)),    psi_0(s) = s,

which transports a load by pullback, f_t = f o psi_t^{-1}. With
I(t) = J(f_t), four independent estimates of I'(0) are provided:

* ``deriv_volume_formula``: interior integrals of the base solution
  against the Jacobian and divergence of a discrete harmonic extension V
  of the velocity v(s) tau into the domain (one P1 field, on any mesh),
      (1/(p-1)) { p int_bdry u0 f div_tau V
                  + p int |grad u0|^{p-2} <grad u0, V' grad u0>
                  - int (|grad u0|^p + |u0|^p) div V };
* ``deriv_surfdiv_formula``: boundary quadrature of
  (p/(p-1)) int (d/ds)(u0 v) f ds with a periodic spline trace;
* ``deriv_bvjump_formula``: (p/(p-1)) sum over load jumps of
  u0 v sigma (f_right - f_left), the jump-measure form for piecewise-
  constant loads;
* ``deriv_finite_difference``: central difference of full solves at the
  transported loads.

The orientation sign sigma of the jump form is a fixed configuration
constant (see JUMP_SIGN below).
"""

from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.interpolate import CubicSpline

from .fem import EDGE_QW, P1Space
from .geometry import ArclengthChart
from .rearrangement import LoadField
from .solver import SolveConfig, SolverError, StateField, solve

__all__ = [
    "TangentField",
    "tangent_field",
    "FlowMap",
    "PiecewiseBoundaryFunction",
    "transport_load",
    "lq_distance",
    "deriv_volume_formula",
    "deriv_surfdiv_formula",
    "deriv_bvjump_formula",
    "deriv_finite_difference",
    "transported_solution_check",
    "DerivativeReport",
    "derivative_report",
    "JUMP_SIGN",
]

# Orientation sign of the jump-measure derivative form. With jumps
# enumerated at increasing arclength and jump = f_right - f_left, matching
# the finite-difference route requires -1: on a closed curve,
# int div_tau(W) f ds = -int W . d[Df] in this orientation convention.
# Validated once against deriv_finite_difference (see the test suite) and
# frozen here.
JUMP_SIGN = -1.0

# transported_solution_check calls a distance sequence monotone when each
# value is at most this factor times the previous one.
MONOTONE_SLACK = 1.1


@dataclass(frozen=True)
class TangentField:
    """Periodic tangential speed v(s) on a boundary chart of length
    ``period``.

    ``speed`` and ``speed_prime`` are vectorized callables of arclength.
    The volume derivative formula extends v into the domain itself (see
    ``deriv_volume_formula``).
    """

    name: str
    period: float
    speed: callable = dc_field(repr=False)
    speed_prime: callable = dc_field(repr=False)

    def __add__(self, other):
        if not isinstance(other, TangentField):
            return NotImplemented
        if other.period != self.period:
            raise ValueError("cannot add fields with different periods")
        sa, sb = self.speed, other.speed
        pa, pb = self.speed_prime, other.speed_prime
        return TangentField(
            name=f"{self.name}+{other.name}",
            period=self.period,
            speed=lambda s: sa(s) + sb(s),
            speed_prime=lambda s: pa(s) + pb(s),
        )


def tangent_field(spec, period):
    """Build a catalog speed field from a textual spec.

    Supported specs: ``constant`` (or ``constant:c``), ``sin:k``,
    ``cos:k`` (harmonic k of the chart), ``bump:center,width``
    (smooth compactly supported bump, arclength units).
    """
    L = float(period)
    kind, _, arg = str(spec).partition(":")
    if kind == "constant":
        c = float(arg) if arg else 1.0
        return TangentField(
            name=f"constant:{c:g}",
            period=L,
            speed=lambda s: np.full_like(np.asarray(s, dtype=float), c),
            speed_prime=lambda s: np.zeros_like(np.asarray(s, dtype=float)),
        )
    if kind in ("sin", "cos"):
        k = int(arg) if arg else 1
        om = 2.0 * np.pi * k / L
        if kind == "sin":
            return TangentField(
                name=f"sin:{k}", period=L,
                speed=lambda s: np.sin(om * np.asarray(s, dtype=float)),
                speed_prime=lambda s: om * np.cos(om * np.asarray(s, dtype=float)),
            )
        return TangentField(
            name=f"cos:{k}", period=L,
            speed=lambda s: np.cos(om * np.asarray(s, dtype=float)),
            speed_prime=lambda s: -om * np.sin(om * np.asarray(s, dtype=float)),
        )
    if kind == "bump":
        try:
            center, width = (float(v) for v in arg.split(","))
        except ValueError:
            raise ValueError(f"bump spec needs 'bump:center,width', got {spec!r}")
        if not 0 < width <= L:
            raise ValueError(f"bump width must lie in (0, {L}], got {width}")

        def _xi(s):
            d = np.mod(np.asarray(s, dtype=float) - center + L / 2, L) - L / 2
            return 2.0 * d / width

        def v(s):
            xi = _xi(s)
            out = np.zeros_like(xi)
            inside = np.abs(xi) < 1.0
            out[inside] = np.exp(1.0 - 1.0 / (1.0 - xi[inside] ** 2))
            return out

        def vp(s):
            xi = _xi(s)
            out = np.zeros_like(xi)
            inside = np.abs(xi) < 1.0
            xin = xi[inside]
            out[inside] = (
                np.exp(1.0 - 1.0 / (1.0 - xin**2))
                * (-2.0 * xin / (1.0 - xin**2) ** 2)
                * (2.0 / width)
            )
            return out

        return TangentField(name=f"bump:{center:g},{width:g}", period=L, speed=v, speed_prime=vp)
    raise ValueError(f"unknown tangent field spec {spec!r}")


def _rk4(field: TangentField, s0, t, n_steps, with_jacobian=False):
    """Classical RK4 for the chart flow, vectorized over start points.

    Integrates the variational equation dM/dtau = v'(sigma) M alongside
    when the tangential Jacobian is requested.
    """
    s = np.array(s0, dtype=float)
    if t == 0.0:
        return (s, np.ones_like(s)) if with_jacobian else s
    h = t / n_steps
    v, vp = field.speed, field.speed_prime
    M = np.ones_like(s)
    for _ in range(n_steps):
        k1 = v(s)
        k2 = v(s + 0.5 * h * k1)
        k3 = v(s + 0.5 * h * k2)
        k4 = v(s + h * k3)
        if with_jacobian:
            m1 = vp(s) * M
            m2 = vp(s + 0.5 * h * k1) * (M + 0.5 * h * m1)
            m3 = vp(s + 0.5 * h * k2) * (M + 0.5 * h * m2)
            m4 = vp(s + h * k3) * (M + h * m3)
            M = M + (h / 6.0) * (m1 + 2.0 * m2 + 2.0 * m3 + m4)
        s = s + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return (s, M) if with_jacobian else s


def _default_steps(t):
    return max(100, int(np.ceil(abs(t) * 400.0)))


class FlowMap:
    """Boundary diffeomorphism psi_t generated by a tangent field."""

    def __init__(self, field: TangentField, t):
        self.field = field
        self.t = float(t)
        self.n_steps = _default_steps(t)

    def forward(self, s):
        return _rk4(self.field, s, self.t, self.n_steps)

    def inverse(self, s):
        return _rk4(self.field, s, -self.t, self.n_steps)

    def jacobian(self, s):
        """Tangential Jacobian d psi_t / ds; equals 1 + t v'(s) + O(t^2)."""
        return _rk4(self.field, s, self.t, self.n_steps, with_jacobian=True)[1]


class PiecewiseBoundaryFunction:
    """Piecewise-constant function on the periodic chart [0, L).

    ``breaks`` are the ascending piece start points in [0, L); piece i
    carries ``values[i]`` on [breaks[i], breaks[i+1]) with the last piece
    wrapping around.
    """

    def __init__(self, breaks, values, period):
        breaks = np.asarray(breaks, dtype=float)
        values = np.asarray(values, dtype=float)
        order = np.argsort(breaks, kind="stable")
        self.breaks = breaks[order]
        self.values = values[order]
        self.period = float(period)

    @classmethod
    def from_load(cls, chart: ArclengthChart, f: LoadField):
        return cls(chart.cell_starts[:-1], f.cell_values, chart.length)

    def __call__(self, s):
        sm = np.mod(np.asarray(s, dtype=float), self.period)
        idx = np.searchsorted(self.breaks, sm, side="right") - 1
        return self.values[idx]  # idx == -1 wraps to the last piece

    def piecewise_on(self, a, b):
        """Yield (lo, hi, value) subintervals of [a, b] (b - a <= period)
        on which the function is constant, in the caller's coordinates."""
        L = self.period
        a0 = float(np.mod(a, L))
        offset = a - a0
        b0 = a0 + (b - a)
        cuts = [a0]
        for shift in (0.0, L):
            for br in self.breaks + shift:
                if a0 < br < b0:
                    cuts.append(float(br))
        cuts.append(b0)
        cuts = sorted(set(cuts))
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            if hi > lo:
                yield lo + offset, hi + offset, float(self(0.5 * (lo + hi)))


def transport_load(chart: ArclengthChart, f: LoadField, field: TangentField, t):
    """Exact pullback f o psi_t^{-1} as an evaluable piecewise-constant
    function: piece start points move with the forward flow, values ride
    along unchanged (no resampling onto cells)."""
    base = PiecewiseBoundaryFunction.from_load(chart, f)
    moved = np.mod(FlowMap(field, t).forward(base.breaks), chart.length)
    return PiecewiseBoundaryFunction(moved, base.values, chart.length)


def lq_distance(g1: PiecewiseBoundaryFunction, g2: PiecewiseBoundaryFunction, q):
    """Exact L^q distance of two piecewise-constant chart functions."""
    L = g1.period
    cuts = np.unique(np.concatenate([g1.breaks, g2.breaks, [0.0, L]]))
    cuts = cuts[(cuts >= 0.0) & (cuts <= L)]
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if hi > lo:
            mid = 0.5 * (lo + hi)
            total += abs(float(g1(mid)) - float(g2(mid))) ** q * (hi - lo)
    return total ** (1.0 / q)


# ---------------------------------------------------------------------------
# derivative estimates
# ---------------------------------------------------------------------------


def deriv_volume_formula(mesh, u0: StateField, f: LoadField, field: TangentField):
    """Volume-integral estimate of I'(0) (see the module docstring).

    The velocity V is the discrete harmonic P1 field equal to v(s) tau at
    the boundary vertices, where tau at a loop vertex is the normalized
    mean of the tangents of its two cells. Its Jacobian and divergence
    are exact and constant per triangle, on every mesh.
    """
    p = u0.p
    space = P1Space.of(mesh)
    chart = mesh.chart()
    u = u0.nodal_values

    tang = mesh.boundary_tangents
    tau = tang + np.roll(tang, 1, axis=0)  # cells c-1 and c meet at vertex c
    tau /= np.linalg.norm(tau, axis=1)[:, None]
    V = space.harmonic_extension(field.speed(chart.interface_positions())[:, None] * tau)
    Jac = np.einsum("tid,tie->tde", V[space.triangles], space.grads)  # dV_d/dx_e
    divV = np.trace(Jac, axis1=1, axis2=2)

    g = space.gradient(u)  # (n_t, 2), constant per triangle
    g2 = np.einsum("td,td->t", g, g)
    # |g|^{p-2} (g . V' g) -> 0 as g -> 0 for p > 1: zero the flat triangles
    with np.errstate(divide="ignore"):
        gpm2 = np.where(g2 > 0.0, g2 ** ((p - 2.0) / 2.0), 0.0)
    # int |grad u|^{p-2} <grad u, V' grad u>
    quad_form = np.einsum("td,tde,te->t", g, Jac, g)
    t2 = float(space.areas @ (gpm2 * quad_form))
    # int (|grad u|^p + |u|^p) div V
    uq = space.values_at_qp(u)
    dens = space.areas * g2 ** (p / 2.0) + np.sum(space.qweights * np.abs(uq) ** p, axis=1)
    t3 = float(dens @ divV)
    # boundary term: int u0 f div_tau V ds, div_tau V = v'(s) on the chart
    sg = space.boundary_gauss_points(chart)
    ug = space.trace_at_gauss(u)
    vp = field.speed_prime(sg)
    bterm = float(
        np.sum(f.cell_values[:, None] * ug * vp * EDGE_QW[None, :]
               * mesh.boundary_weights[:, None])
    )
    return (p * bterm + p * t2 - t3) / (p - 1.0)


def _trace_spline(mesh, u0: StateField):
    chart = mesh.chart()
    mids = chart.midpoint_positions()
    s = np.concatenate([mids, [mids[0] + chart.length]])
    vals = np.concatenate([u0.boundary_trace, [u0.boundary_trace[0]]])
    return CubicSpline(s, vals, bc_type="periodic", extrapolate="periodic")


def deriv_surfdiv_formula(mesh, u0: StateField, f: LoadField, field: TangentField):
    """Surface-divergence estimate of I'(0):
    (p/(p-1)) int (d/ds)(u0(s) v(s)) f(s) ds, with the boundary trace
    interpolated by a periodic cubic spline of the cell averages."""
    p = u0.p
    chart = mesh.chart()
    spline = _trace_spline(mesh, u0)
    space = P1Space.of(mesh)
    sg = space.boundary_gauss_points(chart)
    integrand = spline(sg, 1) * field.speed(sg) + spline(sg) * field.speed_prime(sg)
    total = float(
        np.sum(f.cell_values[:, None] * integrand * EDGE_QW[None, :]
               * mesh.boundary_weights[:, None])
    )
    return p / (p - 1.0) * total


def deriv_bvjump_formula(mesh, u0: StateField, f: LoadField, field: TangentField):
    """Jump-measure estimate of I'(0) for piecewise-constant loads:
    (p/(p-1)) sigma sum_j u0(s_j) v(s_j) (f_j - f_{j-1}), jumps at cell
    interfaces in increasing arclength, sigma = JUMP_SIGN."""
    p = u0.p
    chart = mesh.chart()
    s_if = chart.interface_positions()
    u_if = u0.nodal_values[mesh.boundary_loop]  # interface j sits at loop[j]
    jumps = f.cell_values - np.roll(f.cell_values, 1)
    total = float(np.sum(u_if * field.speed(s_if) * jumps))
    return p / (p - 1.0) * JUMP_SIGN * total


def _converged_solve(mesh, f, config, u_init, what):
    """``solve``, raising SolverError if the residual missed NEWTON_TOL."""
    state, rep = solve(mesh, f, config, u_init)
    if not rep.converged:
        raise SolverError(f"{what} stalled at residual {rep.final_residual:.3e}")
    return state, rep


def deriv_finite_difference(mesh, f: LoadField, field: TangentField,
                            config: SolveConfig, t=1e-3, u_init=None):
    """Central difference (J(f_t) - J(f_{-t})) / (2t) with full solves at
    the exactly-transported loads."""
    if t <= 0:
        raise ValueError("finite-difference step t must be positive")
    chart = mesh.chart()
    Js = []
    for tau in (t, -t):
        ft = transport_load(chart, f, field, tau)
        _, rep = _converged_solve(
            mesh, ft, config, u_init, f"transported solve at t={tau:g}"
        )
        Js.append(rep.J)
    return (Js[0] - Js[1]) / (2.0 * t)


@dataclass
class TransportConvergenceRecord:
    ts: list
    u_norms: list          # ||u_t - u_0||_{W^{1,p}}
    f_norms: list          # ||f_t - f||_{L^q}, q = p/(p-1)
    u_monotone: bool
    f_monotone: bool


def transported_solution_check(mesh, f: LoadField, field: TangentField,
                               t_sequence, config: SolveConfig):
    """Solve along a decreasing sequence of flow times and record the
    decay of the solution and load distances to the base pair."""
    space = P1Space.of(mesh)
    chart = mesh.chart()
    p = config.p
    q = p / (p - 1.0)
    u0, _ = _converged_solve(mesh, f, config, None, "base solve")
    base = PiecewiseBoundaryFunction.from_load(chart, f)
    u_norms, f_norms = [], []
    for t in t_sequence:
        if t == 0.0:
            u_norms.append(0.0)
            f_norms.append(0.0)
            continue
        ft = transport_load(chart, f, field, t)
        ut, _ = _converged_solve(
            mesh, ft, config, u0.nodal_values, f"transported solve at t={t:g}"
        )
        diff = ut.nodal_values - u0.nodal_values
        gterm, mterm = space.integrate_lp(diff, p)
        u_norms.append((gterm + mterm) ** (1.0 / p))
        f_norms.append(lq_distance(ft, base, q))

    def monotone(vals):
        return all(b <= a * MONOTONE_SLACK for a, b in zip(vals, vals[1:]))

    return TransportConvergenceRecord(
        ts=list(t_sequence),
        u_norms=u_norms,
        f_norms=f_norms,
        u_monotone=monotone(u_norms),
        f_monotone=monotone(f_norms),
    )


@dataclass
class DerivativeReport:
    """The four I'(0) estimates with their pairwise relative discrepancies.

    Discrepancies are |d_i - d_j| / scale with scale = max |d_k| over the
    four estimates (zero if all estimates vanish). ``J`` is the functional
    J(f) of the base solve."""

    values: dict  # volume, surfdiv, bvjump, findiff, in that order
    discrepancies: dict
    t: float
    p: float
    field_name: str
    n_boundary_cells: int
    J: float

    @property
    def max_discrepancy(self):
        return max(self.discrepancies.values()) if self.discrepancies else 0.0


def pairwise_discrepancies(values):
    names = list(values)
    scale = max(abs(v) for v in values.values())
    out = {}
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            out[f"{a}-{b}"] = (
                abs(values[a] - values[b]) / scale if scale > 0 else 0.0
            )
    return out


def derivative_report(mesh, f: LoadField, field: TangentField,
                      config: SolveConfig, t=1e-3) -> DerivativeReport:
    """Solve the base problem once and assemble all four estimates."""
    u0, rep = _converged_solve(mesh, f, config, None, "base solve")
    vals = {
        "volume": deriv_volume_formula(mesh, u0, f, field),
        "surfdiv": deriv_surfdiv_formula(mesh, u0, f, field),
        "bvjump": deriv_bvjump_formula(mesh, u0, f, field),
        "findiff": deriv_finite_difference(
            mesh, f, field, config, t, u_init=u0.nodal_values
        ),
    }
    return DerivativeReport(
        values=vals,
        discrepancies=pairwise_discrepancies(vals),
        t=t,
        p=config.p,
        field_name=field.name,
        n_boundary_cells=mesh.n_boundary_cells,
        J=rep.J,
    )
