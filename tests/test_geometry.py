import inspect

import numpy as np
import pytest

from plapopt.geometry import (
    DomainMesh,
    build_disk_mesh,
    build_square_mesh,
    triangle_signed_areas,
    unequal_cell,
)


class TestDiskMesh:
    def test_cell_count_and_equal_weights(self):
        mesh = build_disk_mesh(1.0, 64, 10)
        assert mesh.n_boundary_cells == 64
        target = mesh.total_boundary_length / 64
        assert np.allclose(mesh.boundary_weights, target, rtol=1e-12, atol=0)

    def test_octagon_perimeter(self):
        mesh = build_disk_mesh(1.0, 8, 2)
        expected = 8 * 2 * np.sin(np.pi / 8)  # inscribed octagon
        assert mesh.total_boundary_length == pytest.approx(expected, rel=1e-13)

    def test_scaling_similarity(self):
        m1 = build_disk_mesh(1.0, 64, 10)
        m2 = build_disk_mesh(2.0, 64, 10)
        assert np.allclose(m2.vertices, 2.0 * m1.vertices, atol=1e-14)

    def test_area_converges_to_pi(self):
        mesh = build_disk_mesh(1.0, 64, 10)
        area = triangle_signed_areas(mesh.vertices, mesh.triangles).sum()
        assert abs(area - np.pi) / np.pi < 0.005
        fine = build_disk_mesh(1.0, 256, 40)
        area_fine = triangle_signed_areas(fine.vertices, fine.triangles).sum()
        assert abs(area_fine - np.pi) < abs(area - np.pi)

    def test_weights_sum_to_total_length(self):
        mesh = build_disk_mesh(1.0, 48, 5)
        assert mesh.boundary_weights.sum() == pytest.approx(
            mesh.total_boundary_length, abs=1e-14
        )

    def test_cell_starts_accumulate_weights(self):
        mesh = build_disk_mesh(1.0, 48, 5)
        starts = mesh.cell_starts
        assert starts.shape == (49,) and starts[0] == 0.0
        assert np.allclose(np.diff(starts), mesh.boundary_weights, rtol=1e-12, atol=0)
        assert starts[-1] == mesh.total_boundary_length
        assert not starts.flags.writeable

    def test_only_coordinates_are_given(self):
        mesh = build_disk_mesh(1.0, 16, 3)
        params = list(inspect.signature(DomainMesh).parameters)
        assert params == ["vertices", "triangles", "boundary_loop"]
        with pytest.raises(TypeError):
            DomainMesh(mesh.vertices, mesh.triangles, mesh.boundary_loop,
                       boundary_weights=mesh.boundary_weights)
        with pytest.raises(AttributeError):
            mesh.total_boundary_length = 1.0

    def test_caller_arrays_stay_writeable(self):
        mesh = build_disk_mesh(1.0, 16, 3)
        arrays = [np.array(a) for a in (mesh.vertices, mesh.triangles, mesh.boundary_loop)]
        copy = DomainMesh(*arrays)
        for a in arrays:
            assert a.flags.writeable
            a[0] = a[1]
        assert np.array_equal(copy.vertices, mesh.vertices)
        assert np.array_equal(copy.triangles, mesh.triangles)
        assert np.array_equal(copy.boundary_loop, mesh.boundary_loop)

    @pytest.mark.parametrize(
        "radius,n,m", [(0.0, 64, 10), (-1.0, 64, 10), (np.nan, 64, 10),
                       (np.inf, 64, 10), (1e200, 64, 10), (1.0, 7, 10), (1.0, 64, 1)]
    )
    def test_parameter_validation(self, radius, n, m):
        with pytest.raises(ValueError):
            build_disk_mesh(radius, n, m)


class TestSquareMesh:
    def test_16_cells_quarter_length(self):
        mesh = build_square_mesh(1.0, 4)
        assert mesh.n_boundary_cells == 16
        assert np.allclose(mesh.boundary_weights, 0.25, rtol=1e-14)

    def test_3x3_grid(self):
        mesh = build_square_mesh(1.0, 2)
        assert mesh.n_boundary_cells == 8
        assert mesh.n_vertices == 9
        boundary = set(mesh.boundary_loop.tolist())
        assert len(boundary) == 8  # one interior vertex

    def test_cell_length_one(self):
        mesh = build_square_mesh(3.0, 3)
        assert np.allclose(mesh.boundary_weights, 1.0, rtol=1e-14)

    def test_valid(self):
        mesh = build_square_mesh(2.0, 5)
        DomainMesh(mesh.vertices, mesh.triangles, mesh.boundary_loop)
        assert unequal_cell(mesh) is None

    @pytest.mark.parametrize("side", [np.nan, np.inf])
    def test_nonfinite_side_rejected(self, side):
        with pytest.raises(ValueError, match=f"side must be positive and finite, got {side}"):
            build_square_mesh(side, 4)


class TestValidateMesh:
    """A DomainMesh is valid by construction: it raises ValueError naming
    the first structural rule its arrays break."""

    def test_valid_disk_mesh(self):
        mesh = build_disk_mesh(1.0, 32, 4)
        DomainMesh(mesh.vertices, mesh.triangles, mesh.boundary_loop)
        assert unequal_cell(mesh) is None

    def test_flipped_triangle_detected(self):
        mesh = build_disk_mesh(1.0, 16, 3)
        tris = np.array(mesh.triangles)
        tris[5] = tris[5][::-1]
        with pytest.raises(ValueError, match="triangle 5 has signed area .*, not positive"):
            DomainMesh(mesh.vertices, tris, mesh.boundary_loop)

    @pytest.mark.parametrize("build", [lambda: build_square_mesh(1e160, 4),
                                       lambda: build_disk_mesh(1e160, 16, 2)],
                             ids=["square", "disk"])
    def test_overflowing_area_detected(self, build):
        # finite coordinates whose cross products overflow to inf (and,
        # on the disk, to inf - inf = nan), without a RuntimeWarning
        with pytest.raises(ValueError, match="signed area inf, not positive and finite"):
            build()

    @pytest.mark.parametrize("part, index", [("loop", 999), ("loop", -1),
                                             ("triangle", 49)])
    def test_out_of_range_index_detected(self, part, index):
        mesh = build_disk_mesh(1.0, 16, 3)
        tris, loop = np.array(mesh.triangles), np.array(mesh.boundary_loop)
        (loop if part == "loop" else tris[0])[0] = index
        with pytest.raises(ValueError, match=f"names vertex {index}, but the mesh has 49"):
            DomainMesh(mesh.vertices, tris, loop)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_nonfinite_coordinate_detected(self, value):
        mesh = build_disk_mesh(1.0, 16, 3)
        verts = np.array(mesh.vertices)
        verts[4, 1] = value
        with pytest.raises(ValueError, match="vertex 4 has a non-finite coordinate"):
            DomainMesh(verts, mesh.triangles, mesh.boundary_loop)

    def test_vertex_in_no_triangle_detected(self):
        mesh = build_disk_mesh(1.0, 16, 3)
        verts = np.vstack([mesh.vertices, [[0.1, 0.1]]])
        with pytest.raises(ValueError, match="vertex 49 belongs to no triangle"):
            DomainMesh(verts, mesh.triangles, mesh.boundary_loop)

    def test_edge_in_three_triangles_detected(self):
        # three triangles above the edge (0, 1), each counter-clockwise
        verts = [[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, 2.0], [0.5, 3.0]]
        tris = [[0, 1, 2], [0, 1, 3], [0, 1, 4]]
        with pytest.raises(ValueError, match=r"edge \(0, 1\) belongs to 3 triangles"):
            DomainMesh(verts, tris, [0, 1, 4])

    def test_revisited_loop_vertex_detected(self):
        mesh = build_disk_mesh(1.0, 16, 3)
        loop = np.array(mesh.boundary_loop)
        loop[3] = loop[5]
        with pytest.raises(ValueError, match="revisits a vertex"):
            DomainMesh(mesh.vertices, mesh.triangles, loop)

    def test_loop_edge_off_the_boundary_detected(self):
        # the loop cuts inside through vertex 20 of the second ring
        mesh = build_disk_mesh(1.0, 16, 3)
        loop = np.array(mesh.boundary_loop)
        loop[4] = 20
        with pytest.raises(ValueError, match="loop edge .* not a boundary edge"):
            DomainMesh(mesh.vertices, mesh.triangles, loop)

    def test_boundary_edge_off_the_loop_detected(self):
        # two separate triangles, a loop round only the first
        verts = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 0.0], [3.0, 0.0], [2.0, 1.0]]
        with pytest.raises(ValueError, match=r"boundary edge \(3, 4\) missing from loop"):
            DomainMesh(verts, [[0, 1, 2], [3, 4, 5]], [0, 1, 2])

    def test_unequal_boundary_cells_detected(self):
        mesh = build_disk_mesh(1.0, 16, 3)
        verts = np.array(mesh.vertices)
        # slide one boundary vertex along the polygon: two cells change length
        i = mesh.boundary_loop[4]
        verts[i] = 0.6 * verts[i] + 0.4 * verts[mesh.boundary_loop[5]]
        bad = DomainMesh(verts, mesh.triangles, mesh.boundary_loop)
        assert "equal-arclength" in unequal_cell(bad)

    def test_frame_orthonormal(self):
        mesh = build_disk_mesh(1.0, 32, 4)
        t = mesh.boundary_tangents
        assert np.allclose(np.hypot(*t.T), 1.0, atol=1e-12)
        # the tangent turned by -90 degrees is the outward unit normal
        a = mesh.vertices[mesh.boundary_loop]
        b = mesh.vertices[np.roll(mesh.boundary_loop, -1)]
        assert np.allclose(t * mesh.boundary_weights[:, None], b - a,
                           rtol=0, atol=1e-15)
        normals = np.column_stack([t[:, 1], -t[:, 0]])
        assert np.einsum("cd,cd->c", 0.5 * (a + b), normals).min() > 0

    @pytest.mark.parametrize("n_vertices", [3, 0])
    def test_empty_boundary_loop_detected(self, n_vertices):
        # a triangle whose loop lists no vertex, and a mesh of nothing
        vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])[:n_vertices]
        triangles = np.arange(n_vertices).reshape(-1, 3)
        with pytest.raises(ValueError, match="^boundary loop is empty$"):
            DomainMesh(vertices, triangles, np.zeros(0, dtype=np.int64))

    @pytest.mark.parametrize("mesh", [build_disk_mesh(1.0, 16, 3),
                                      build_square_mesh(1.0, 4)],
                             ids=["disk", "square"])
    def test_clockwise_loop_detected(self, mesh):
        with pytest.raises(ValueError, match="^boundary loop is not counter-clockwise"):
            DomainMesh(mesh.vertices, mesh.triangles, mesh.boundary_loop[::-1])

    def test_mesh_immutable(self):
        mesh = build_disk_mesh(1.0, 16, 3)
        with pytest.raises(ValueError):
            mesh.vertices[0, 0] = 99.0

