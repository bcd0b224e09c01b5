"""Independent reference computations used by the test suite.

These deliberately avoid the package's FEM/assembly code paths: radially
symmetric solutions come from 1D ODE shooting, the P1 energy, residual
and Hessian from per-triangle einsums over elements built from the
vertex coordinates, small maximization problems from exhaustive
enumeration, rearrangement classes from sorted cell values, boundary
step functions piece by piece in plain Python loops, the periodic trace
spline from scipy's CubicSpline.
"""

import itertools

import numpy as np
from scipy import sparse
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq


def radial_trace(p, radius=1.0, flux=1.0, r0=1e-8, rtol=1e-11, atol=1e-13):
    """Boundary value u(R) of the radial Neumann problem on a disk.

    Solves (r |u'|^{p-2} u')' = r |u|^{p-2} u on (0, R) with u'(0) = 0 and
    |u'(R)|^{p-2} u'(R) = flux (flux > 0), by shooting on the center value.
    State variables: u and the scaled flux q = r |u'|^{p-2} u'.
    """
    if flux <= 0:
        raise ValueError("shooting oracle assumes positive flux")

    def rhs(r, y):
        u, q = y
        up = np.sign(q) * (np.abs(q) / r) ** (1.0 / (p - 1.0))
        return [up, r * np.abs(u) ** (p - 2.0) * u]

    def shoot(a):
        # Series start: u' ~ k r^{1/(p-1)} with 2 k^{p-1} = |a|^{p-2} a.
        k = (np.abs(a) ** (p - 2.0) * a / 2.0) ** (1.0 / (p - 1.0))
        e = 1.0 / (p - 1.0)
        y0 = [a + k * r0 ** (e + 1.0) / (e + 1.0), k ** (p - 1.0) * r0 ** (1.0 + e * (p - 1.0))]
        sol = solve_ivp(rhs, (r0, radius), y0, method="Radau", rtol=rtol, atol=atol, dense_output=True)
        return sol.y[0, -1], sol.y[1, -1]

    target = radius * flux  # q(R) = R |u'(R)|^{p-2} u'(R)

    def gap(a):
        return shoot(a)[1] - target

    a_lo, a_hi = 1e-6, 1.0
    while gap(a_hi) < 0:
        a_hi *= 2.0
        if a_hi > 1e6:
            raise RuntimeError("shooting bracket not found")
    a_star = brentq(gap, a_lo, a_hi, xtol=1e-13, rtol=1e-13)
    return shoot(a_star)[0]


def periodic_spline_at(mesh, values, s):
    """Values and slopes at arclengths s of scipy's periodic cubic spline
    through ``values`` at the boundary cell midpoints."""
    mids = mesh.cell_starts[:-1] + 0.5 * mesh.boundary_weights
    knots = np.append(mids, mids[0] + mesh.total_boundary_length)
    spline = CubicSpline(knots, np.append(values, values[0]),
                         bc_type="periodic", extrapolate="periodic")
    return spline(s), spline(s, 1)


def brute_force_best_pairing(values, trace, weight=1.0):
    """Max of sum f_sigma(c) * trace_c * w over all permutations sigma.

    Summation matches ``pairing`` in the tests term for term so that
    exact float comparison against the sorting-based maximizer is
    meaningful.
    """
    best = -np.inf
    trace = np.asarray(trace, dtype=float)
    w = np.full_like(trace, weight)
    for perm in itertools.permutations(values):
        best = max(best, float(np.sum(np.asarray(perm) * trace * w)))
    return best


def same_class(f, g):
    """Whether the loads f and g are rearrangements of each other: their
    sorted cell values agree (on meshes of as many cells)."""
    return np.array_equal(np.sort(f.cell_values), np.sort(g.cell_values))


def distinct_permutations(values):
    """All distinct orderings of a value multiset (deduplicated)."""
    seen = set()
    for perm in itertools.permutations(values):
        if perm not in seen:
            seen.add(perm)
            yield np.array(perm)


def step_value(breaks, values, s, period):
    """Value at arclength s of the periodic step function that takes
    values[i] from breaks[i] (ascending) on, and values[-1] before
    breaks[0]."""
    s = s % period
    below = [i for i, b in enumerate(breaks) if b <= s]
    return values[below[-1]] if below else values[-1]


def step_pieces(breaks, values, period, a, b):
    """(lo, hi, value) pieces of [a, b] (0 <= a < b <= period plus a
    rounding) on which the step function is constant, cut one by one."""
    shifted = [*breaks, *(x + period for x in breaks)]
    cuts = sorted({a, b, *(float(x) for x in shifted if a < x < b)})
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        yield lo, hi, step_value(breaks, values, 0.5 * (lo + hi), period)


def step_load_vector(mesh, breaks, values):
    """Nodal load vector of a boundary step function, integrated cell by
    cell against the two hats of each boundary cell."""
    starts = mesh.cell_starts
    loop = mesh.boundary_loop
    n_b = loop.size
    b = np.zeros(mesh.n_vertices)
    for c in range(n_b):
        s0, s1 = starts[c], starts[c + 1]
        acc_a = acc_b = 0.0
        for lo, hi, val in step_pieces(
            breaks, values, mesh.total_boundary_length, s0, s1
        ):
            # the hat of loop[c] falls 1 -> 0 over [s0, s1]; loop[c+1] rises
            acc_a += val * ((s1 - lo) ** 2 - (s1 - hi) ** 2)
            acc_b += val * ((hi - s0) ** 2 - (lo - s0) ** 2)
        w = mesh.boundary_weights[c]
        b[loop[c]] += 0.5 * acc_a / w
        b[loop[(c + 1) % n_b]] += 0.5 * acc_b / w
    return b


def step_lq_distance(g1, g2, q):
    """L^q distance of two periodic step functions, summed piece by piece
    over their merged breaks."""
    L = g1.period
    merged = [*g1.breaks, *g2.breaks]
    cuts = sorted({0.0, L, *(float(x) for x in merged if 0.0 < x < L)})
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        mid = 0.5 * (lo + hi)
        v1 = step_value(g1.breaks, g1.values, mid, L)
        v2 = step_value(g2.breaks, g2.values, mid, L)
        total += abs(v1 - v2) ** q * (hi - lo)
    return total ** (1.0 / q)


# The degree-2 triangle rule: barycentric permutations of
# (2/3, 1/6, 1/6), each weighted by a third of the area.
TRIANGLE_RULE = np.array([
    [2 / 3, 1 / 6, 1 / 6],
    [1 / 6, 2 / 3, 1 / 6],
    [1 / 6, 1 / 6, 2 / 3],
])


def p1_elements(mesh):
    """Areas (n_t,) and hat gradients (n_t, 3, 2) of every triangle, read
    off the inverse of its matrix of rows [1, x_i, y_i]: column i of the
    inverse holds the coefficients (a, b, c) of hat i = a + b x + c y."""
    X = mesh.vertices[mesh.triangles]
    M = np.concatenate([np.ones(X.shape[:2] + (1,)), X], axis=2)
    grads = np.linalg.inv(M)[:, 1:, :].transpose(0, 2, 1)
    return 0.5 * np.abs(np.linalg.det(M)), grads


def _element_fields(mesh, u):
    """Per-triangle gradient (n_t, 2) and quadrature values (n_t, 3) of
    the nodal field u."""
    areas, grads = p1_elements(mesh)
    ut = u[mesh.triangles]
    return areas, grads, np.einsum("ti,tid->td", ut, grads), ut @ TRIANGLE_RULE.T


def reference_energy(mesh, u, b, p, eps):
    """(1/p) int (|grad u|^2 + eps^2)^{p/2} + (u^2 + eps^2)^{p/2} dx - b.u,
    triangle by triangle."""
    areas, _, g, uq = _element_fields(mesh, u)
    s = np.einsum("td,td->t", g, g) + eps * eps
    m = uq * uq + eps * eps
    volume = areas @ s ** (p / 2.0) + areas @ np.sum(m ** (p / 2.0), axis=1) / 3.0
    return volume / p - b @ u


def reference_residual(mesh, u, b, p, eps):
    """Nodal gradient of ``reference_energy``: each triangle adds
    area (s^{(p-2)/2} grad u . grad hat_i + mean_q m_q^{(p-2)/2} u_q hat_i(q))
    to its vertex i. Needs eps > 0."""
    areas, grads, g, uq = _element_fields(mesh, u)
    s = np.einsum("td,td->t", g, g) + eps * eps
    m = uq * uq + eps * eps
    flux = np.einsum("t,tid,td->ti", areas * s ** ((p - 2.0) / 2.0), grads, g)
    mass = (areas[:, None] / 3.0 * uq * m ** ((p - 2.0) / 2.0)) @ TRIANGLE_RULE
    r = np.zeros(mesh.n_vertices)
    np.add.at(r, mesh.triangles, flux + mass)
    return r - b


def reference_hessian(mesh, u, p, eps):
    """Element-by-element COO assembly of the Hessian of
    ``reference_energy``, with the exact mass coefficient
    (u^2+eps^2)^{(p-4)/2}((p-1)u^2+eps^2). Needs eps > 0."""
    areas, grads, g, uq = _element_fields(mesh, u)
    s = np.einsum("td,td->t", g, g) + eps * eps
    c1 = areas * s ** ((p - 2.0) / 2.0)
    c2 = areas * (p - 2.0) * s ** ((p - 4.0) / 2.0)
    bg = np.einsum("tid,td->ti", grads, g)
    local = c1[:, None, None] * np.einsum("tid,tjd->tij", grads, grads)
    local += c2[:, None, None] * np.einsum("ti,tj->tij", bg, bg)
    m = uq * uq + eps * eps
    w = areas[:, None] / 3.0 * m ** ((p - 4.0) / 2.0) * ((p - 1.0) * uq * uq + eps * eps)
    local += np.einsum("tq,qi,qj->tij", w, TRIANGLE_RULE, TRIANGLE_RULE)
    rows = np.repeat(mesh.triangles, 3, axis=1).ravel()
    cols = np.tile(mesh.triangles, (1, 3)).ravel()
    n = mesh.n_vertices
    return sparse.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n)).tocsc()
