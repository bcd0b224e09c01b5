"""Tangential boundary flows, load transport, and derivative estimates of
the boundary functional under load perturbation.

A periodic speed v(s) on the arclength chart generates the boundary flow

    d/dtau psi_tau(s) = v(psi_tau(s)),    psi_0(s) = s,

which ``flow`` integrates by RK4 in ceil(400 |t|) steps of at most
1/400 and which transports a load by pullback, f_t = f o psi_t^{-1}
(``transport_load``): a step function whose breaks move with the flow
and whose values ride along. With I(t) = J(f_t), four independent
estimates of I'(0) are provided:

* ``deriv_volume_formula``: interior integrals of the base solution
  against the Jacobian and divergence of a discrete harmonic extension V
  of the velocity v(s) tau into the domain (one P1 field, on any mesh),
      (1/(p-1)) { p int_bdry u0 f div_tau V
                  + p int |grad u0|^{p-2} <grad u0, V' grad u0>
                  - int (|grad u0|^p + |u0|^p) div V };
* ``deriv_surfdiv_formula``: boundary quadrature of
  (p/(p-1)) int (d/ds)(u0 v) f ds with the trace's C2 periodic cubic
  spline through the cell averages (de Boor's slopes, one sparse solve);
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
from scipy import sparse
from scipy.sparse.linalg import spsolve

from .fem import EDGE_QP, P1Space
from .rearrangement import LoadField
from .solver import SolveConfig, StateField, solve

__all__ = [
    "TangentField",
    "tangent_field",
    "flow",
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

# TransportConvergenceRecord calls a distance sequence monotone when each
# value is at most this factor times the previous one.
MONOTONE_SLACK = 1.1


@dataclass(frozen=True)
class TangentField:
    """Periodic tangential speed v(s) on the arclength chart of a
    boundary.

    ``speed`` and ``speed_prime`` are vectorized callables of arclength.
    The volume derivative formula extends v into the domain itself (see
    ``deriv_volume_formula``).
    """

    name: str
    speed: callable = dc_field(repr=False)
    speed_prime: callable = dc_field(repr=False)


def tangent_field(spec, period):
    """Build a catalog speed field from a textual spec.

    Supported specs: ``constant`` (or ``constant:c``), ``sin:k``,
    ``cos:k`` (harmonic k of the chart of length ``period``),
    ``bump:center,width`` (smooth compactly supported bump, arclength
    units). A non-finite c, center or width raises ValueError.
    """
    L = float(period)
    kind, _, arg = str(spec).partition(":")
    if kind == "constant":
        c = float(arg) if arg else 1.0
        if not np.isfinite(c):
            raise ValueError(f"constant speed must be finite, got {spec!r}")
        return TangentField(
            name=f"constant:{c:g}",
            speed=lambda s: np.full_like(np.asarray(s, dtype=float), c),
            speed_prime=lambda s: np.zeros_like(np.asarray(s, dtype=float)),
        )
    if kind in ("sin", "cos"):
        k = int(arg) if arg else 1
        om = 2.0 * np.pi * k / L
        fn, dfn = (np.sin, np.cos) if kind == "sin" else (np.cos, lambda x: -np.sin(x))
        return TangentField(
            name=f"{kind}:{k}",
            speed=lambda s: fn(om * np.asarray(s, dtype=float)),
            speed_prime=lambda s: om * dfn(om * np.asarray(s, dtype=float)),
        )
    if kind == "bump":
        try:
            center, width = (float(v) for v in arg.split(","))
        except ValueError:
            raise ValueError(f"bump spec needs 'bump:center,width', got {spec!r}")
        if not np.isfinite(center):
            raise ValueError(f"bump center must be finite, got {spec!r}")
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

        return TangentField(name=f"bump:{center:g},{width:g}", speed=v, speed_prime=vp)
    raise ValueError(f"unknown tangent field spec {spec!r}")


def flow(field: TangentField, s, t):
    """psi_t(s) for an array of start points s, by classical RK4 with
    ceil(400 |t|) steps, each of length at most 1/400, so a
    finite-difference step t = 1e-3 is one RK4 step; a negative t flows
    backwards. A non-finite t raises ValueError."""
    t = float(t)
    if not np.isfinite(t):
        raise ValueError(f"flow time t must be finite, got {t}")
    s = np.array(s, dtype=float)
    if t == 0.0:
        return s
    n_steps = max(1, int(np.ceil(abs(t) * 400.0)))
    h = t / n_steps
    v = field.speed
    for _ in range(n_steps):
        k1 = v(s)
        k2 = v(s + 0.5 * h * k1)
        k3 = v(s + 0.5 * h * k2)
        k4 = v(s + h * k3)
        s = s + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return s


class PiecewiseBoundaryFunction:
    """Piecewise-constant function on the periodic chart [0, L).

    ``breaks`` are the ascending piece start points in [0, L]; piece i
    carries ``values[i]`` on [breaks[i], breaks[i+1]) with the last piece
    wrapping around. ``P1Space.load_vector_from_function`` integrates
    it exactly from these two arrays.
    """

    def __init__(self, breaks, values, period):
        breaks = np.asarray(breaks, dtype=float)
        values = np.asarray(values, dtype=float)
        order = np.argsort(breaks, kind="stable")
        self.breaks = breaks[order]
        self.values = values[order]
        self.period = float(period)

    @classmethod
    def from_load(cls, mesh, f: LoadField):
        return cls(mesh.cell_starts[:-1], f.cell_values, mesh.total_boundary_length)

    def __call__(self, s):
        sm = np.mod(np.asarray(s, dtype=float), self.period)
        idx = np.searchsorted(self.breaks, sm, side="right") - 1
        return self.values[idx]  # idx == -1 wraps to the last piece


def transport_load(mesh, f: LoadField, field: TangentField, t):
    """Exact pullback f o psi_t^{-1} as an evaluable piecewise-constant
    function: piece start points move with the forward flow, values ride
    along unchanged (no resampling onto cells). Any finite t is accepted;
    the flow takes ceil(400 |t|) RK4 steps (see ``flow``)."""
    base = PiecewiseBoundaryFunction.from_load(mesh, f)
    moved = np.mod(flow(field, base.breaks, t), base.period)
    return PiecewiseBoundaryFunction(moved, base.values, base.period)


def lq_distance(g1: PiecewiseBoundaryFunction, g2: PiecewiseBoundaryFunction, q):
    """Exact L^q distance of two piecewise-constant chart functions, summed
    over the common refinement of their breaks."""
    L = g1.period
    cuts = np.union1d(np.union1d(g1.breaks, g2.breaks), [0.0, L])
    cuts = cuts[(cuts >= 0.0) & (cuts <= L)]
    mid = 0.5 * (cuts[:-1] + cuts[1:])
    return float(np.sum(np.abs(g1(mid) - g2(mid)) ** q * np.diff(cuts))) ** (1.0 / q)


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
    u = u0.nodal_values

    tang = mesh.boundary_tangents
    tau = tang + np.roll(tang, 1, axis=0)  # cells c-1 and c meet at vertex c
    tau /= np.linalg.norm(tau, axis=1)[:, None]
    V = space.harmonic_extension(field.speed(mesh.cell_starts[:-1])[:, None] * tau)
    Jac = space.gradient(V).transpose(2, 0, 1)  # Jac[d, e] = dV_d/dx_e
    divV = Jac[0, 0] + Jac[1, 1]

    at = space.evaluate(u, p, 0.0)
    g, g2 = at.grad, at.s  # (2, n_t) and |grad u|^2, constant per triangle
    # |g|^{p-2} (g . V' g) -> 0 as g -> 0 for p > 1: zero the flat triangles
    with np.errstate(divide="ignore"):
        gpm2 = np.where(g2 > 0.0, g2 ** ((p - 2.0) / 2.0), 0.0)
    # int |grad u|^{p-2} <grad u, V' grad u>
    quad_form = np.einsum("dt,det,et->t", g, Jac, g)
    t2 = float(space.areas @ (gpm2 * quad_form))
    # int (|grad u|^p + |u|^p) div V
    dens = space.areas * at.sp + np.sum(space.qweights * at.mp, axis=0)
    t3 = float(dens @ divV)
    # boundary term: int u0 f div_tau V ds, div_tau V = v'(s) on the chart
    sg = space.boundary_gauss_points()
    ug = space.trace_at_gauss(u)
    vp = field.speed_prime(sg)
    bterm = space.boundary_integral(f.cell_values[:, None] * ug * vp)
    return (p * bterm + p * t2 - t3) / (p - 1.0)


def _trace_spline(space, y):
    """Values and arclength slopes, each (n_b, 2), at the boundary Gauss
    points of the C2 periodic cubic spline through the cell averages y at
    the cell midpoints. Piece i joins midpoints i and i + 1 (length h_i,
    divided difference d_i); the midpoint slopes s solve h_i s_{i-1} +
    2 (h_{i-1} + h_i) s_i + h_{i-1} s_{i+1} = 3 (h_i d_{i-1} + h_{i-1} d_i)."""
    w = space.boundary_weights
    h = 0.5 * (w + np.roll(w, -1))
    d = (np.roll(y, -1) - y) / h
    h0, i = np.roll(h, 1), np.arange(w.size)
    cols = np.r_[np.roll(i, 1), i, np.roll(i, -1)]
    s = spsolve(sparse.csc_matrix((np.r_[h, 2.0 * (h0 + h), h0], (np.r_[i, i, i], cols))),
                3.0 * (h * np.roll(d, 1) + h0 * d))
    a = np.column_stack([np.roll(i, 1), i])  # Gauss point 0 of cell c is on piece c - 1, 1 on c
    ya, yb, sa, sb, hp = y[a], np.roll(y, -1)[a], s[a], np.roll(s, -1)[a], h[a]
    t = np.column_stack([0.5 * np.roll(w, 1) + w * EDGE_QP[0], w * (EDGE_QP[1] - 0.5)]) / hp
    vals = ya + (yb - ya) * t * t * (3.0 - 2.0 * t) + hp * t * (1.0 - t) * ((1.0 - t) * sa - t * sb)
    slopes = (6.0 * t * (1.0 - t) * (yb - ya) / hp + (1.0 - t) * (1.0 - 3.0 * t) * sa
              + t * (3.0 * t - 2.0) * sb)
    return vals, slopes


def deriv_surfdiv_formula(mesh, u0: StateField, f: LoadField, field: TangentField):
    """Surface-divergence estimate of I'(0):
    (p/(p-1)) int (d/ds)(u0(s) v(s)) f(s) ds, with the boundary trace
    interpolated by the C2 periodic cubic spline of the cell averages at
    the cell midpoints: its slopes there solve one cyclic tridiagonal
    system, and each Gauss point is a Hermite cubic of its piece."""
    p = u0.p
    space = P1Space.of(mesh)
    vals, slopes = _trace_spline(space, u0.boundary_trace)
    sg = space.boundary_gauss_points()
    integrand = slopes * field.speed(sg) + vals * field.speed_prime(sg)
    total = space.boundary_integral(f.cell_values[:, None] * integrand)
    return p / (p - 1.0) * total


def deriv_bvjump_formula(mesh, u0: StateField, f: LoadField, field: TangentField):
    """Jump-measure estimate of I'(0) for piecewise-constant loads:
    (p/(p-1)) sigma sum_j u0(s_j) v(s_j) (f_j - f_{j-1}), jumps at cell
    interfaces in increasing arclength, sigma = JUMP_SIGN."""
    p = u0.p
    s_if = mesh.cell_starts[:-1]
    u_if = u0.nodal_values[mesh.boundary_loop]  # interface j sits at loop[j]
    jumps = f.cell_values - np.roll(f.cell_values, 1)
    total = float(np.sum(u_if * field.speed(s_if) * jumps))
    return p / (p - 1.0) * JUMP_SIGN * total


def _check_step(mesh, t):
    """Refuse a finite-difference step outside (0, L], L the boundary
    length, with ValueError: a flow beyond one period is no difference
    quotient at 0."""
    L = mesh.total_boundary_length
    if not 0.0 < t <= L:
        raise ValueError(f"finite-difference step t must lie in (0, {L:g}], got {t}")


def deriv_finite_difference(mesh, f: LoadField, field: TangentField,
                            config: SolveConfig, t=1e-3, u_init=None):
    """Central difference (J(f_t) - J(f_{-t})) / (2t) with full solves at
    the exactly-transported loads, both warm-started from ``u_init`` (a
    ``StateField`` also hands over its factor) if given. A step outside
    (0, L] raises ValueError before any solve (see ``_check_step``)."""
    _check_step(mesh, t)
    Js = []
    for tau in (t, -t):
        ft = transport_load(mesh, f, field, tau)
        _, rep = solve(mesh, ft, config, u_init)
        rep.require_converged(f"transported solve at t={tau:g}")
        Js.append(rep.J)
    return (Js[0] - Js[1]) / (2.0 * t)


def _monotone(vals):
    return all(b <= a * MONOTONE_SLACK for a, b in zip(vals, vals[1:]))


@dataclass
class TransportConvergenceRecord:
    u_norms: list          # ||u_t - u_0||_{W^{1,p}}
    f_norms: list          # ||f_t - f||_{L^q}, q = p/(p-1)

    @property
    def u_monotone(self):
        return _monotone(self.u_norms)

    @property
    def f_monotone(self):
        return _monotone(self.f_norms)


def transported_solution_check(mesh, f: LoadField, field: TangentField,
                               t_sequence, config: SolveConfig):
    """Solve along a decreasing sequence of flow times and record the
    decay of the solution and load distances to the base pair."""
    space = P1Space.of(mesh)
    p = config.p
    q = p / (p - 1.0)
    u0, rep = solve(mesh, f, config)
    rep.require_converged("base solve")
    base = PiecewiseBoundaryFunction.from_load(mesh, f)
    u_norms, f_norms = [], []
    for t in t_sequence:
        if t == 0.0:
            u_norms.append(0.0)
            f_norms.append(0.0)
            continue
        ft = transport_load(mesh, f, field, t)
        ut, rep = solve(mesh, ft, config, u0)
        rep.require_converged(f"transported solve at t={t:g}")
        diff = ut.nodal_values - u0.nodal_values
        gterm, mterm = space.integrate_lp(diff, p)
        u_norms.append((gterm + mterm) ** (1.0 / p))
        f_norms.append(lq_distance(ft, base, q))
    return TransportConvergenceRecord(u_norms=u_norms, f_norms=f_norms)


@dataclass
class DerivativeReport:
    """The four I'(0) estimates and J(f) of the base solve.

    ``discrepancies`` maps each pair "a-b" of estimates to
    |d_a - d_b| / scale with scale = max |d_k| over the four (zero if all
    estimates vanish)."""

    values: dict  # volume, surfdiv, bvjump, findiff, in that order
    J: float

    @property
    def discrepancies(self):
        names = list(self.values)
        scale = max(abs(v) for v in self.values.values())
        return {
            f"{a}-{b}": abs(self.values[a] - self.values[b]) / scale if scale > 0 else 0.0
            for i, a in enumerate(names)
            for b in names[i + 1:]
        }

    @property
    def max_discrepancy(self):
        return max(self.discrepancies.values(), default=0.0)


def derivative_report(mesh, f: LoadField, field: TangentField,
                      config: SolveConfig, t=1e-3) -> DerivativeReport:
    """Solve the base problem once and assemble all four estimates. A
    finite-difference step outside (0, L] raises ValueError before the
    base solve."""
    _check_step(mesh, t)
    u0, rep = solve(mesh, f, config)
    rep.require_converged("base solve")
    vals = {
        "volume": deriv_volume_formula(mesh, u0, f, field),
        "surfdiv": deriv_surfdiv_formula(mesh, u0, f, field),
        "bvjump": deriv_bvjump_formula(mesh, u0, f, field),
        "findiff": deriv_finite_difference(
            mesh, f, field, config, t, u_init=u0
        ),
    }
    return DerivativeReport(values=vals, J=rep.J)
