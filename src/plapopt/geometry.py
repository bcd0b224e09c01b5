"""Planar triangle meshes with an ordered, equal-arclength boundary loop.

The boundary of every mesh produced here is a single closed polyline split
into cells of identical arclength. Equal cells make rearrangements of
piecewise-constant boundary data plain permutations of cell values, which
the rearrangement and optimizer modules rely on.
"""

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DomainMesh",
    "ArclengthChart",
    "MeshValidationReport",
    "build_disk_mesh",
    "build_square_mesh",
    "validate_mesh",
]

EQUAL_WEIGHT_RTOL = 1e-12
FRAME_TOL = 1e-12


def _freeze(a):
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class DomainMesh:
    """Triangulated planar domain with an ordered closed boundary loop.

    Attributes
    ----------
    vertices : (n_v, 2) float array
    triangles : (n_t, 3) int array, counter-clockwise
    boundary_loop : (n_b,) int array
        Vertex indices of the closed boundary cycle, counter-clockwise.
        Cell c is the edge from ``boundary_loop[c]`` to
        ``boundary_loop[(c+1) % n_b]``.
    boundary_weights : (n_b,) float array, cell arclengths (all equal)
    boundary_midpoints : (n_b, 2) float array
    boundary_tangents : (n_b, 2) float array, unit, along the loop
    boundary_normals : (n_b, 2) float array, unit, outward
    total_boundary_length : float

    Instances are immutable; all arrays are read-only.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_loop: np.ndarray
    boundary_weights: np.ndarray = field(repr=False)
    boundary_midpoints: np.ndarray = field(repr=False)
    boundary_tangents: np.ndarray = field(repr=False)
    boundary_normals: np.ndarray = field(repr=False)
    total_boundary_length: float

    def __post_init__(self):
        for name in (
            "vertices",
            "triangles",
            "boundary_loop",
            "boundary_weights",
            "boundary_midpoints",
            "boundary_tangents",
            "boundary_normals",
        ):
            object.__setattr__(self, name, _freeze(getattr(self, name)))

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @property
    def n_triangles(self):
        return self.triangles.shape[0]

    @property
    def n_boundary_cells(self):
        return self.boundary_loop.shape[0]

    @classmethod
    def from_arrays(cls, vertices, triangles, boundary_loop):
        """Assemble a mesh, deriving all boundary cell data from the loop."""
        vertices = np.asarray(vertices, dtype=float)
        triangles = np.asarray(triangles, dtype=np.int64)
        loop = np.asarray(boundary_loop, dtype=np.int64)
        a = vertices[loop]
        b = vertices[np.roll(loop, -1)]
        edges = b - a
        weights = np.hypot(edges[:, 0], edges[:, 1])
        tangents = edges / weights[:, None]
        # Outward normal of a CCW loop: rotate the tangent by -90 degrees.
        normals = np.column_stack([tangents[:, 1], -tangents[:, 0]])
        return cls(
            vertices=vertices,
            triangles=triangles,
            boundary_loop=loop,
            boundary_weights=weights,
            boundary_midpoints=0.5 * (a + b),
            boundary_tangents=tangents,
            boundary_normals=normals,
            total_boundary_length=float(weights.sum()),
        )

    def chart(self):
        return ArclengthChart(self)


class ArclengthChart:
    """Periodic arclength parametrization s in [0, L) of the boundary loop.

    s = 0 sits at the first loop vertex and s increases along the loop
    orientation. The chart is periodic: s and s + L map to the same point.
    """

    def __init__(self, mesh: DomainMesh):
        self.mesh = mesh
        self.length = mesh.total_boundary_length
        self.cell_starts = _freeze(
            np.concatenate([[0.0], np.cumsum(mesh.boundary_weights)])
        )

    def cell_index(self, s):
        """Boundary cell containing arclength position s (vectorized)."""
        s = np.mod(np.asarray(s, dtype=float), self.length)
        idx = np.searchsorted(self.cell_starts, s, side="right") - 1
        return np.clip(idx, 0, self.mesh.n_boundary_cells - 1)

    def point(self, s):
        """Boundary point at arclength s; shape (..., 2)."""
        s = np.asarray(s, dtype=float)
        sm = np.mod(s, self.length)
        c = self.cell_index(sm)
        loop = self.mesh.boundary_loop
        a = self.mesh.vertices[loop[c]]
        t = self.mesh.boundary_tangents[c]
        local = (sm - self.cell_starts[c])[..., None]
        return a + local * t

    def interface_positions(self):
        """Arclengths of the n_b cell interfaces (cell start points)."""
        return self.cell_starts[:-1].copy()

    def midpoint_positions(self):
        return self.cell_starts[:-1] + 0.5 * self.mesh.boundary_weights


def triangle_signed_areas(vertices, triangles):
    p = vertices[triangles]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


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
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
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
    mesh = DomainMesh.from_arrays(vertices, triangles, loop)
    assert triangle_signed_areas(mesh.vertices, mesh.triangles).min() > 0
    return mesh


def build_square_mesh(side, n_per_side):
    """Uniform right-triangle mesh of the square [0, side]^2.

    Produces ``4 * n_per_side`` boundary cells of length ``side / n``.
    """
    if side <= 0:
        raise ValueError(f"side must be positive, got {side}")
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
    mesh = DomainMesh.from_arrays(vertices, triangles, np.array(loop))
    assert triangle_signed_areas(mesh.vertices, mesh.triangles).min() > 0
    return mesh


@dataclass
class MeshValidationReport:
    violations: list

    @property
    def ok(self):
        return not self.violations

    def __str__(self):
        if self.ok:
            return "mesh valid"
        return "mesh invalid:\n" + "\n".join(f"  - {v}" for v in self.violations)


def validate_mesh(mesh: DomainMesh) -> MeshValidationReport:
    """Check every structural invariant of a DomainMesh.

    Returns a report listing violations (empty list means valid) rather
    than raising, so constructed negative cases can be inspected.
    """
    v = []

    areas = triangle_signed_areas(mesh.vertices, mesh.triangles)
    bad = np.nonzero(areas <= 0)[0]
    if bad.size:
        v.append(f"triangle {bad[0]} has non-positive signed area {areas[bad[0]]:.3e}")

    # Boundary edges (from triangles): edges appearing in exactly one triangle.
    tri = mesh.triangles
    edges = np.concatenate([tri[:, [0, 1]], tri[:, [1, 2]], tri[:, [2, 0]]])
    keys = np.sort(edges, axis=1)
    uniq, counts = np.unique(keys, axis=0, return_counts=True)
    tri_boundary = {tuple(e) for e in uniq[counts == 1]}
    over = uniq[counts > 2]
    if over.size:
        v.append(f"edge {tuple(over[0])} belongs to {counts.max()} triangles")

    loop = mesh.boundary_loop
    n_b = loop.size
    if np.unique(loop).size != n_b:
        v.append("boundary loop revisits a vertex (not a single cycle)")
    loop_edges = {
        tuple(sorted((int(loop[c]), int(loop[(c + 1) % n_b])))) for c in range(n_b)
    }
    if loop_edges != tri_boundary:
        missing = tri_boundary - loop_edges
        extra = loop_edges - tri_boundary
        if missing:
            v.append(f"boundary edge {next(iter(missing))} missing from loop")
        if extra:
            v.append(f"loop edge {next(iter(extra))} not a boundary edge")

    # Recompute cell geometry from coordinates and compare to stored data.
    a = mesh.vertices[loop]
    b = mesh.vertices[np.roll(loop, -1)]
    lengths = np.hypot(*(b - a).T)
    L = lengths.sum()
    target = L / n_b
    rel = np.abs(lengths - target) / target
    bad = np.nonzero(rel > EQUAL_WEIGHT_RTOL)[0]
    if bad.size:
        v.append(
            f"boundary cell {bad[0]} length {lengths[bad[0]]:.16g} deviates "
            f"from equal-arclength value {target:.16g} (rel {rel[bad[0]]:.2e})"
        )
    if not np.allclose(mesh.boundary_weights, lengths, rtol=1e-12, atol=0.0):
        v.append("stored boundary weights disagree with vertex coordinates")
    if abs(mesh.total_boundary_length - L) > 1e-12 * max(L, 1.0):
        v.append("stored total boundary length disagrees with cell sum")

    t, nrm = mesh.boundary_tangents, mesh.boundary_normals
    dots = np.abs(np.einsum("cd,cd->c", t, nrm))
    nt = np.abs(np.hypot(*t.T) - 1.0)
    nn = np.abs(np.hypot(*nrm.T) - 1.0)
    for name, vals in (("tangent-normal orthogonality", dots),
                       ("unit tangent", nt),
                       ("unit normal", nn)):
        i = int(np.argmax(vals))
        if vals[i] > FRAME_TOL:
            v.append(f"{name} violated at cell {i} by {vals[i]:.2e}")

    # Outward orientation: normals should point away from the centroid.
    centroid = mesh.vertices.mean(axis=0)
    outward = np.einsum("cd,cd->c", mesh.boundary_midpoints - centroid, nrm)
    if outward.min() <= 0:
        i = int(np.argmin(outward))
        v.append(f"normal at cell {i} does not point outward")

    return MeshValidationReport(v)
