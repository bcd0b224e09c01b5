"""Plain-text file formats and atomic, reproducible output helpers.

Mesh format (0-based indices)::

    MESH2D <n_vertices> <n_triangles> <n_boundary_cells>
    x y                 (n_vertices lines)
    i j k               (n_triangles lines)
    v0 v1 ... v_{nb-1}  (single boundary loop line)

Load format: one cell value per line, in boundary cell order.

CSV numbers are written with 17 significant digits so identical runs
produce byte-identical files.
"""

import hashlib
import json
import os
import tempfile

import numpy as np

from .geometry import DomainMesh
from .rearrangement import LoadField

__all__ = [
    "write_mesh",
    "read_mesh",
    "write_load",
    "read_load",
    "atomic_write_text",
    "write_json",
    "write_csv",
    "fmt",
    "file_sha256",
]


def fmt(x):
    """Fixed 17-significant-digit decimal form of a float."""
    return f"{float(x):.17g}"


def atomic_write_text(path, text):
    """Write via a temp file in the target directory, then rename."""
    path = os.fspath(path)
    d = os.path.dirname(path) or "."
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        try:
            os.replace(tmp, path)
        except OSError as exc:  # it names tmp too, which is removed below
            raise type(exc)(exc.errno, exc.strerror, path) from None
    except BaseException:
        os.unlink(tmp)
        raise


def _numpy_scalar(obj):
    """``json.dumps`` default: a numpy scalar as its Python value."""
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def write_json(path, obj):
    """JSON with sorted keys; numpy scalars are written as Python numbers."""
    text = json.dumps(obj, indent=2, sort_keys=True, default=_numpy_scalar)
    atomic_write_text(path, text + "\n")


def write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(
            ",".join(fmt(v) if isinstance(v, float) else str(v) for v in row)
        )
    atomic_write_text(path, "\n".join(lines) + "\n")


def mesh_to_text(mesh: DomainMesh):
    lines = [
        f"MESH2D {mesh.n_vertices} {mesh.n_triangles} {mesh.n_boundary_cells}"
    ]
    for x, y in mesh.vertices:
        lines.append(f"{fmt(x)} {fmt(y)}")
    for i, j, k in mesh.triangles:
        lines.append(f"{i} {j} {k}")
    lines.append(" ".join(str(v) for v in mesh.boundary_loop))
    return "\n".join(lines) + "\n"


def write_mesh(path, mesh: DomainMesh):
    atomic_write_text(path, mesh_to_text(mesh))


class MeshFormatError(ValueError):
    pass


def read_mesh(path) -> DomainMesh:
    with open(path) as fh:
        tokens = fh.read().split()
    if len(tokens) < 4 or tokens[0] != "MESH2D":
        raise MeshFormatError(f"{path}: missing MESH2D header")
    try:
        n_v, n_t, n_b = (int(t) for t in tokens[1:4])
        pos = 4
        vertices = np.array(
            [float(t) for t in tokens[pos:pos + 2 * n_v]], dtype=float
        ).reshape(n_v, 2)
        pos += 2 * n_v
        triangles = np.array(
            [int(t) for t in tokens[pos:pos + 3 * n_t]], dtype=np.int64
        ).reshape(n_t, 3)
        pos += 3 * n_t
        loop = np.array([int(t) for t in tokens[pos:pos + n_b]], dtype=np.int64)
        if loop.size != n_b or pos + n_b != len(tokens):
            raise ValueError("token count mismatch")
    except ValueError as exc:
        raise MeshFormatError(f"{path}: malformed mesh file ({exc})") from exc
    for what, idx in (("triangle", triangles), ("boundary loop", loop)):
        bad = idx[(idx < 0) | (idx >= n_v)]
        if bad.size:
            raise MeshFormatError(
                f"{path}: {what} names vertex {bad[0]}, "
                f"but the mesh has {n_v} vertices"
            )
    return DomainMesh(vertices, triangles, loop)


def write_load(path, f: LoadField):
    atomic_write_text(path, "\n".join(fmt(v) for v in f.cell_values) + "\n")


def read_load(path, mesh: DomainMesh) -> LoadField:
    return LoadField.from_values(mesh, np.loadtxt(path, dtype=float, ndmin=1))


def file_sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()
