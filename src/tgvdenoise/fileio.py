"""Reading and writing meshes as plain-text OBJ or OFF.

Only the minimal grammars are supported:

* OBJ: ``v x y z`` and ``f i j k`` records (1-based indices). Anything else
  (``vn``, ``vt``, negative indices, polygons, slash-separated face tokens)
  is rejected.
* OFF: ``OFF`` header, a ``V F E`` counts line, V coordinate lines, then F
  face lines each starting with the vertex count 3 (0-based indices).

Comments (``#``) and blank lines are ignored in both formats. Coordinates
are written with 17 significant digits so a save/load round trip reproduces
float64 positions exactly.
"""

import os

import numpy as np

from .mesh import MeshError, TriMesh

__all__ = ["load_mesh", "save_mesh", "guess_format"]

_COORDS_FMT = "%.17g %.17g %.17g"
_INDEX_MAX = np.iinfo(np.int64).max


def guess_format(path) -> str:
    """Pick 'obj' or 'off' from the file extension."""
    ext = os.path.splitext(str(path))[1].lower()
    if ext == ".obj":
        return "obj"
    if ext == ".off":
        return "off"
    raise MeshError(f"cannot infer mesh format from extension of {path!r}")


def load_mesh(path, format=None) -> TriMesh:
    """Load a triangle mesh from an OBJ or OFF file.

    Raises MeshError for grammar violations (naming the offending line) and
    for meshes failing validation (degenerate faces, non-manifold edges).
    """
    fmt = format or guess_format(path)
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if fmt == "obj":
        vertices, faces = _parse_obj(text)
    elif fmt == "off":
        vertices, faces = _parse_off(text)
    else:
        raise MeshError(f"unknown mesh format {fmt!r}")
    return TriMesh(vertices, faces)


def save_mesh(mesh, path, format=None):
    """Write the mesh as OBJ or OFF (by explicit format or file extension)."""
    fmt = format or guess_format(path)
    if fmt == "obj":
        text = _format_obj(mesh)
    elif fmt == "off":
        text = _format_off(mesh)
    else:
        raise MeshError(f"unknown mesh format {fmt!r}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _content_lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _parse_obj(text):
    vertices, faces = [], []
    for lineno, line in _content_lines(text):
        tokens = line.split()
        kind = tokens[0]
        if kind == "v":
            if len(tokens) != 4:
                raise MeshError(f"line {lineno}: vertex record needs 3 coordinates")
            try:
                vertices.append([float(t) for t in tokens[1:]])
            except ValueError:
                raise MeshError(f"line {lineno}: bad vertex coordinate") from None
        elif kind == "f":
            if len(tokens) != 4:
                raise MeshError(f"line {lineno}: only triangle faces are supported")
            idx = []
            for t in tokens[1:]:
                if "/" in t:
                    raise MeshError(f"line {lineno}: face tokens with '/' are not supported")
                try:
                    i = int(t)
                except ValueError:
                    raise MeshError(f"line {lineno}: bad face index {t!r}") from None
                if i <= 0:
                    raise MeshError(f"line {lineno}: face indices must be positive (1-based)")
                if i > _INDEX_MAX:
                    raise MeshError(f"line {lineno}: face index {t!r} is out of range")
                idx.append(i - 1)
            faces.append(idx)
        else:
            raise MeshError(f"line {lineno}: unsupported OBJ record {kind!r}")
    return np.array(vertices, dtype=np.float64).reshape(-1, 3), np.array(faces, dtype=np.int64).reshape(-1, 3)


def _parse_off(text):
    lines = list(_content_lines(text))
    if not lines or lines[0][1] != "OFF":
        raise MeshError("missing OFF header")
    if len(lines) < 2:
        raise MeshError("missing OFF counts line")
    lineno, counts = lines[1]
    parts = counts.split()
    if len(parts) != 3:
        raise MeshError(f"line {lineno}: counts line must be 'V F E'")
    try:
        nv, nf, _ = (int(p) for p in parts)
    except ValueError:
        raise MeshError(f"line {lineno}: bad OFF counts") from None
    body = lines[2:]
    if len(body) != nv + nf:
        raise MeshError(f"OFF body has {len(body)} records, expected {nv + nf}")

    vertices = []
    for lineno, line in body[:nv]:
        tokens = line.split()
        if len(tokens) != 3:
            raise MeshError(f"line {lineno}: vertex record needs 3 coordinates")
        try:
            vertices.append([float(t) for t in tokens])
        except ValueError:
            raise MeshError(f"line {lineno}: bad vertex coordinate") from None

    faces = []
    for lineno, line in body[nv:]:
        tokens = line.split()
        if not tokens or tokens[0] != "3" or len(tokens) != 4:
            raise MeshError(f"line {lineno}: only triangle faces are supported")
        try:
            idx = [int(t) for t in tokens[1:]]
        except ValueError:
            raise MeshError(f"line {lineno}: bad face index") from None
        if max(abs(i) for i in idx) > _INDEX_MAX:
            raise MeshError(f"line {lineno}: face index out of range")
        faces.append(idx)
    return np.array(vertices, dtype=np.float64).reshape(-1, 3), np.array(faces, dtype=np.int64).reshape(-1, 3)


def _records(fmt, rows):
    """One line per row, all written by a single % over the Python numbers
    of ``rows.tolist()``: faster than a format per field, and it holds no
    per-row objects."""
    return ((fmt + "\n") * len(rows)) % tuple(rows.ravel().tolist())


def _format_obj(mesh):
    text = (_records("v " + _COORDS_FMT, mesh.vertices)
            + _records("f %d %d %d", mesh.faces + 1))
    return text or "\n"


def _format_off(mesh):
    return (f"OFF\n{mesh.num_vertices} {mesh.num_faces} 0\n"
            + _records(_COORDS_FMT, mesh.vertices) + _records("3 %d %d %d", mesh.faces))
