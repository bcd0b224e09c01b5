import json

import numpy as np
import pytest

from plapopt.fileio import (
    MeshFormatError,
    atomic_write_text,
    fmt,
    read_load,
    read_mesh,
    write_json,
    write_load,
    write_mesh,
)
from plapopt.geometry import build_disk_mesh, build_square_mesh, unequal_cell
from plapopt.rearrangement import random_step_load


class TestMeshFormat:
    def test_roundtrip_disk(self, tmp_path):
        mesh = build_disk_mesh(1.5, 24, 3)
        path = tmp_path / "m.txt"
        write_mesh(path, mesh)
        back = read_mesh(path)
        assert np.allclose(back.vertices, mesh.vertices, atol=0, rtol=0)
        assert np.array_equal(back.triangles, mesh.triangles)
        assert np.array_equal(back.boundary_loop, mesh.boundary_loop)
        assert unequal_cell(back) is None

    def test_roundtrip_square(self, tmp_path):
        mesh = build_square_mesh(2.0, 3)
        path = tmp_path / "m.txt"
        write_mesh(path, mesh)
        assert unequal_cell(read_mesh(path)) is None

    def test_header_line(self, tmp_path):
        mesh = build_disk_mesh(1.0, 16, 2)
        path = tmp_path / "m.txt"
        write_mesh(path, mesh)
        header = path.read_text().splitlines()[0]
        assert header == f"MESH2D {mesh.n_vertices} {mesh.n_triangles} 16"

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("MESH3D 1 2 3\n")
        with pytest.raises(MeshFormatError, match="header"):
            read_mesh(path)

    def test_truncated_file_rejected(self, tmp_path):
        mesh = build_disk_mesh(1.0, 16, 2)
        path = tmp_path / "m.txt"
        write_mesh(path, mesh)
        truncated = "\n".join(path.read_text().splitlines()[:-2])
        path.write_text(truncated)
        with pytest.raises(MeshFormatError, match="malformed"):
            read_mesh(path)

    @pytest.mark.parametrize("part, index", [("loop", 999), ("loop", -1),
                                             ("triangle", 17)])
    def test_vertex_index_out_of_range_rejected(self, tmp_path, part, index):
        mesh = build_disk_mesh(1.0, 8, 2)
        assert mesh.n_vertices == 17
        path = tmp_path / "m.txt"
        write_mesh(path, mesh)
        lines = path.read_text().splitlines()
        row = -1 if part == "loop" else 1 + mesh.n_vertices
        cols = lines[row].split()
        cols[0] = str(index)
        lines[row] = " ".join(cols)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MeshFormatError,
                           match=f"names vertex {index}, but the mesh has 17"):
            read_mesh(path)

    def test_broken_rule_named_with_path(self, tmp_path):
        mesh = build_disk_mesh(1.0, 8, 2)
        path = tmp_path / "m.txt"
        write_mesh(path, mesh)
        lines = path.read_text().splitlines()
        lines[5] = "nan 0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MeshFormatError) as info:
            read_mesh(path)
        assert str(info.value) == (
            f"mesh '{path}' is invalid: vertex 4 has a non-finite coordinate")


class TestLoadFormat:
    def test_roundtrip_exact(self, tmp_path):
        mesh = build_disk_mesh(1.0, 32, 4)
        f = random_step_load(mesh, np.random.default_rng(0))
        path = tmp_path / "f.txt"
        write_load(path, f)
        back = read_load(path, mesh)
        assert np.array_equal(back.cell_values, f.cell_values)

    def test_wrong_length_rejected(self, tmp_path):
        mesh = build_disk_mesh(1.0, 32, 4)
        path = tmp_path / "f.txt"
        path.write_text("1.0\n2.0\n")
        with pytest.raises(ValueError, match="32"):
            read_load(path, mesh)


class TestJson:
    def test_numpy_scalars_are_written_as_python_values(self, tmp_path):
        path = tmp_path / "r.json"
        write_json(path, {"n": np.int64(7), "ok": np.bool_(True),
                          "x": [np.float64(0.1), np.float32(0.5)],
                          "by_p": {1.5: np.int64(-3)}})
        assert json.loads(path.read_text()) == {
            "n": 7, "ok": True, "x": [0.1, 0.5], "by_p": {"1.5": -3}}

    def test_nonfinite_floats_are_written_as_null(self, tmp_path):
        path = tmp_path / "r.json"
        write_json(path, {"a": float("inf"), "b": [np.float64("nan"), -np.inf],
                          "c": (np.float32("inf"), 1.5)})

        def refuse(name):
            raise ValueError(f"{name} is not JSON")

        assert json.loads(path.read_text(), parse_constant=refuse) == {
            "a": None, "b": [None, None], "c": [None, 1.5]}

    def test_other_objects_are_refused(self, tmp_path):
        with pytest.raises(TypeError, match="object is not JSON serializable"):
            write_json(tmp_path / "r.json", {"x": object()})
        assert list(tmp_path.iterdir()) == []


class TestAtomicWrite:
    def test_overwrite_replaces_and_leaves_no_temp(self, tmp_path):
        target = tmp_path / "out.txt"
        atomic_write_text(target, "first")
        atomic_write_text(target, "second")
        assert target.read_text() == "second"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_creates_parent_directory(self, tmp_path):
        target = tmp_path / "nested" / "dir" / "out.txt"
        atomic_write_text(target, "x")
        assert target.read_text() == "x"

    def test_fmt_is_17_digits(self):
        assert fmt(np.pi) == "3.1415926535897931"
        assert fmt(1.0) == "1"
