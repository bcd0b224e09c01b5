"""Planar triangle meshes with an ordered, equal-arclength boundary loop.

A ``DomainMesh`` is valid by construction: it raises ``ValueError``
naming the first structural rule its arrays break (indices in range,
finite coordinates, no vertex outside the triangles, positive finite
triangle areas, one counter-clockwise cycle through the boundary edges).

The boundary of every mesh built here is a single closed polyline split
into cells of identical arclength. Equal cells make rearrangements of
piecewise-constant boundary data plain permutations of cell values, which
the rearrangement and optimizer modules rely on; ``unequal_cell`` states
the rule, which a valid mesh need not meet.
"""

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DomainMesh",
    "build_disk_mesh",
    "build_square_mesh",
    "unequal_cell",
]

EQUAL_WEIGHT_RTOL = 1e-12


def _freeze(a):
    a = np.array(a, order="C")  # a copy, so the caller's array stays writeable
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class DomainMesh:
    """Triangulated planar domain with an ordered closed boundary loop.

    ``DomainMesh(vertices, triangles, boundary_loop)`` derives every
    boundary cell quantity from these three arrays, once, so no stored
    value can disagree with the coordinates. It raises ``ValueError``
    naming the first rule broken, in this order: every index lies in
    [0, n_v); coordinates are finite; every vertex lies in a triangle;
    signed areas are positive and finite; the loop is non-empty; no edge
    lies in more than two triangles; the loop is one cycle, through
    exactly the edges that lie in one triangle, counter-clockwise.

    Attributes
    ----------
    vertices : (n_v, 2) float array
    triangles : (n_t, 3) int array, counter-clockwise
    boundary_loop : (n_b,) int array
        Vertex indices of the closed boundary cycle, counter-clockwise.
        Cell c is the edge from ``boundary_loop[c]`` to
        ``boundary_loop[(c+1) % n_b]``.
    boundary_weights : (n_b,) float array, cell arclengths (they may
        differ; ``unequal_cell`` states the optimizer's equal-cell rule)
    boundary_tangents : (n_b, 2) float array, unit, along the loop
    cell_starts : (n_b + 1,) float array, ``[0, cumsum(boundary_weights)]``
        Arclength s of every cell start along the loop, then of the end;
        s is periodic with period ``cell_starts[-1]``.
    total_boundary_length : float, ``cell_starts[-1]``, so the cells
        cover exactly one period

    Instances are immutable; all arrays are read-only.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_loop: np.ndarray
    boundary_weights: np.ndarray = field(init=False, repr=False)
    boundary_tangents: np.ndarray = field(init=False, repr=False)
    cell_starts: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        vertices = np.asarray(self.vertices, dtype=float)
        triangles = np.asarray(self.triangles, dtype=np.int64)
        loop = np.asarray(self.boundary_loop, dtype=np.int64)
        broken = _broken_rule(vertices, triangles, loop)
        if broken:
            raise ValueError(broken)
        edges = vertices[np.roll(loop, -1)] - vertices[loop]
        weights = np.hypot(edges[:, 0], edges[:, 1])
        derived = {
            "vertices": vertices,
            "triangles": triangles,
            "boundary_loop": loop,
            "boundary_weights": weights,
            "boundary_tangents": edges / weights[:, None],
            "cell_starts": np.concatenate([[0.0], np.cumsum(weights)]),
        }
        for name, a in derived.items():
            object.__setattr__(self, name, _freeze(a))

    @property
    def total_boundary_length(self):
        return float(self.cell_starts[-1])

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @property
    def n_triangles(self):
        return self.triangles.shape[0]

    @property
    def n_boundary_cells(self):
        return self.boundary_loop.shape[0]


def triangle_signed_areas(vertices, triangles):
    p = vertices[triangles]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def _broken_rule(vertices, triangles, loop):
    """The first structural rule of ``DomainMesh`` that the arrays break,
    described, or None."""
    n_v = vertices.shape[0]
    for what, idx in (("triangle", triangles), ("boundary loop", loop)):
        bad = idx[(idx < 0) | (idx >= n_v)]
        if bad.size:
            return f"{what} names vertex {bad[0]}, but the mesh has {n_v} vertices"
    bad = np.nonzero(~np.isfinite(vertices).all(axis=1))[0]
    if bad.size:
        return f"vertex {bad[0]} has a non-finite coordinate"
    bad = np.nonzero(np.bincount(triangles.ravel(), minlength=n_v) == 0)[0]
    if bad.size:
        return f"vertex {bad[0]} belongs to no triangle"
    with np.errstate(over="ignore", invalid="ignore"):  # huge coordinates
        areas = triangle_signed_areas(vertices, triangles)
    bad = np.nonzero(~((areas > 0) & (areas < np.inf)))[0]
    if bad.size:
        return (f"triangle {bad[0]} has signed area {areas[bad[0]]:.3e}, "
                "not positive and finite")
    if loop.size == 0:
        return "boundary loop is empty"

    # each undirected edge (a, b), a < b, as the key a * n_v + b
    a, b = triangles.ravel(), triangles[:, [1, 2, 0]].ravel()
    keys, counts = np.unique(np.minimum(a, b) * n_v + np.maximum(a, b),
                             return_counts=True)
    if counts.max() > 2:
        k = np.argmax(counts)
        return f"edge {divmod(int(keys[k]), n_v)} belongs to {counts[k]} triangles"
    if np.unique(loop).size != loop.size:
        return "boundary loop revisits a vertex (not a single cycle)"
    nxt = np.roll(loop, -1)
    loop_keys = np.minimum(loop, nxt) * n_v + np.maximum(loop, nxt)
    boundary_keys = keys[counts == 1]
    extra = np.setdiff1d(loop_keys, boundary_keys)
    if extra.size:
        return f"loop edge {divmod(int(extra[0]), n_v)} not a boundary edge"
    missing = np.setdiff1d(boundary_keys, loop_keys)
    if missing.size:
        return f"boundary edge {divmod(int(missing[0]), n_v)} missing from loop"

    # Counter-clockwise loop: the shoelace area of a simple polygon is
    # positive exactly when it is traversed counter-clockwise.
    p, q = vertices[loop], vertices[nxt]
    area = 0.5 * float(np.sum(p[:, 0] * q[:, 1] - p[:, 1] * q[:, 0]))
    if area <= 0:
        return f"boundary loop is not counter-clockwise (signed area {area:.3e})"
    return None


def build_disk_mesh(radius, n_boundary, n_radial):
    """Structured triangulation of a disk centered at the origin.

    Vertices sit on ``n_radial`` concentric rings of ``n_boundary`` points
    each, plus the center. The boundary is the inscribed regular
    ``n_boundary``-gon, so all boundary cells share the chord length
    ``2 r sin(pi/n)``.

    Parameters
    ----------
    radius : float, > 0
    n_boundary : int, >= 8, points per ring (= boundary cells)
    n_radial : int, >= 2, number of rings
    """
    if not 0 < radius < np.inf:
        raise ValueError(f"radius must be positive and finite, got {radius}")
    if n_boundary < 8:
        raise ValueError(f"n_boundary must be >= 8, got {n_boundary}")
    if n_radial < 2:
        raise ValueError(f"n_radial must be >= 2, got {n_radial}")

    n, m = int(n_boundary), int(n_radial)
    theta = 2.0 * np.pi * np.arange(n) / n
    ring = np.column_stack([np.cos(theta), np.sin(theta)])

    vertices = [np.zeros((1, 2))]
    for k in range(1, m + 1):
        vertices.append(ring * (radius * k / m))
    vertices = np.vstack(vertices)

    def ring_idx(k, j):
        # ring k in 1..m, position j mod n
        return 1 + (k - 1) * n + (j % n)

    tris = []
    for j in range(n):
        tris.append([0, ring_idx(1, j), ring_idx(1, j + 1)])
    for k in range(1, m):
        for j in range(n):
            i0, i1 = ring_idx(k, j), ring_idx(k, j + 1)
            o0, o1 = ring_idx(k + 1, j), ring_idx(k + 1, j + 1)
            tris.append([i0, o0, o1])
            tris.append([i0, o1, i1])
    triangles = np.array(tris, dtype=np.int64)

    loop = np.array([ring_idx(m, j) for j in range(n)], dtype=np.int64)
    return DomainMesh(vertices, triangles, loop)


def build_square_mesh(side, n_per_side):
    """Uniform right-triangle mesh of the square [0, side]^2.

    Produces ``4 * n_per_side`` boundary cells of length ``side / n``.
    """
    if not 0 < side < np.inf:
        raise ValueError(f"side must be positive and finite, got {side}")
    if n_per_side < 2:
        raise ValueError(f"n_per_side must be >= 2, got {n_per_side}")

    n = int(n_per_side)
    d = side / n
    ii, jj = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
    vertices = np.column_stack([ii.ravel() * d, jj.ravel() * d])

    def vid(i, j):
        return i * (n + 1) + j

    tris = []
    for i in range(n):
        for j in range(n):
            a, b = vid(i, j), vid(i + 1, j)
            c, e = vid(i + 1, j + 1), vid(i, j + 1)
            tris.append([a, b, c])
            tris.append([a, c, e])
    triangles = np.array(tris, dtype=np.int64)

    loop = (
        [vid(i, 0) for i in range(n)]
        + [vid(n, j) for j in range(n)]
        + [vid(n - i, n) for i in range(n)]
        + [vid(0, n - j) for j in range(n)]
    )
    return DomainMesh(vertices, triangles, np.array(loop))


def unequal_cell(mesh: DomainMesh):
    """The equal-cell rule: every boundary cell has the arclength L / n_b
    of an equal split of the boundary length L, to relative
    EQUAL_WEIGHT_RTOL. Returns a description of the first cell that
    breaks it, or None."""
    lengths = mesh.boundary_weights
    target = mesh.total_boundary_length / lengths.size
    rel = np.abs(lengths - target) / target
    bad = np.nonzero(rel > EQUAL_WEIGHT_RTOL)[0]
    if bad.size:
        return (
            f"boundary cell {bad[0]} length {lengths[bad[0]]:.16g} deviates "
            f"from equal-arclength value {target:.16g} (rel {rel[bad[0]]:.2e})"
        )
    return None
