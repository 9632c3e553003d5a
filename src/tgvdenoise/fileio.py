"""Reading and writing meshes as plain-text OBJ or OFF; writing CSV tables.

Only the minimal grammars are supported:

* OBJ: ``v x y z`` and ``f i j k`` records (1-based indices). Anything else
  (``vn``, ``vt``, negative indices, polygons, slash-separated face tokens)
  is rejected.
* OFF: ``OFF`` header, a ``V F E`` counts line, V coordinate lines, then F
  face lines each starting with the vertex count 3 (0-based indices).

Comments (``#``) and blank lines are ignored in both formats, and a
leading UTF-8 byte-order mark is skipped. Lines are split as
``str.splitlines`` and ``str.split`` split them, and each value is
converted by ``np.array(tokens, dtype)``, which hands each string to
Python's ``float`` or ``int``, so the value grammar and its errors are
Python's. The reader converts a block of lines at a time; for a bad file it
names the first bad line, as a reader going record by record would.

An OBJ block that is plain (ASCII, no comment, no line break but newlines,
every line starting with ``v`` or ``f``, four tokens for each line) is split
into tokens by one ``str.split`` of the whole block: once its values
convert, its lines are all ``kind a b c`` (see ``_obj_tokens``). Any other
block is split line by line. Either way a block's tokens are converted
once; a block whose values do not convert is then split line by line to
name its first bad record. OFF files are always split line by line.

Coordinates are written with 17 significant digits so a save/load round
trip reproduces float64 positions exactly.
"""

import os
from itertools import chain
from operator import itemgetter

import numpy as np

from .mesh import MeshError, TriMesh

__all__ = ["load_mesh", "save_mesh", "save_table"]

_COORDS_FMT = "%.17g %.17g %.17g"
_INDEX_MAX = np.iinfo(np.int64).max


def _format_of(path):
    """The (reader, writer) pair of the file's extension, from _FORMATS."""
    ext = os.path.splitext(str(path))[1].lower()
    if ext not in _FORMATS:
        raise MeshError(f"cannot infer mesh format from extension of {path!r}")
    return _FORMATS[ext]


def load_mesh(path) -> TriMesh:
    """Load a triangle mesh from an OBJ or OFF file, by its extension.

    Raises MeshError for grammar violations (naming the offending line) and
    for meshes failing validation (degenerate faces, non-manifold edges).
    """
    parse, _ = _format_of(path)
    with open(path, "r", encoding="utf-8-sig") as fh:
        # the text is parsed without a name, so it is freed before validation
        vertices, faces = parse(fh.read())
    return TriMesh(vertices, faces)


def save_mesh(mesh, path):
    """Write the mesh as OBJ or OFF, by the file's extension."""
    _, format_text = _format_of(path)
    text = format_text(mesh)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def save_table(path, columns, table):
    """Write a 2-D table as CSV under a header of the ``columns`` names, the
    first column as integers and the rest with 17 significant digits."""
    fmt = ",".join(["%d"] + ["%.17g"] * (len(columns) - 1))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n" + _records(fmt, np.asarray(table)))


# The readers convert a block of lines of about this many characters at a
# time, so only one block's tokens are ever held as Python objects.
_BLOCK_CHARS = 1 << 14


def _blocks(text):
    """The text in blocks of whole lines: a block ends with a newline or
    with the text, so the lines of the blocks are those of
    ``text.splitlines()``."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + _BLOCK_CHARS) + 1 or len(text)
        yield text[start:end]
        start = end


def _line_tokens(block):
    """The tokens of each line of a block, comments removed (a blank line
    has none)."""
    lines = block.splitlines()
    if "#" in block:
        lines = [line.partition("#")[0] for line in lines]
    return list(map(str.split, lines))


def _token_blocks(text):
    """Per block: the number of its first line and the tokens of each of
    its lines."""
    lineno = 1
    for block in _blocks(text):
        rows = _line_tokens(block)
        yield lineno, rows
        lineno += len(rows)


def _widths(rows, width):
    """Raise ValueError unless every row has ``width`` tokens."""
    if set(map(len, rows)) - {width}:
        raise ValueError("record width")


# -- the one statement of each record's errors --------------------------------
#
# The block converters only detect that some record of a block is bad (by a
# ValueError or OverflowError); these name the first one, checking a record
# as the grammar reads it, token by token.

def _vertex_error(coords):
    if len(coords) != 3:
        return "vertex record needs 3 coordinates"
    try:
        for t in coords:
            float(t)
    except ValueError:
        return "bad vertex coordinate"
    return None


def _obj_record_error(tokens):
    kind = tokens[0]
    if kind == "v":
        return _vertex_error(tokens[1:])
    if kind != "f":
        return f"unsupported OBJ record {kind!r}"
    if len(tokens) != 4:
        return "only triangle faces are supported"
    for t in tokens[1:]:
        if "/" in t:
            return "face tokens with '/' are not supported"
        try:
            i = int(t)
        except ValueError:
            return f"bad face index {t!r}"
        if i <= 0:
            return "face indices must be positive (1-based)"
        if i > _INDEX_MAX:
            return f"face index {t!r} is out of range"
    return None


def _off_face_error(tokens):
    if tokens[0] != "3" or len(tokens) != 4:
        return "only triangle faces are supported"
    try:
        idx = [int(t) for t in tokens[1:]]
    except ValueError:
        return "bad face index"
    if max(map(abs, idx)) > _INDEX_MAX:
        return "face index out of range"
    return None


def _first_bad_record(lineno, rows, record_error):
    """A MeshError naming the first content line of a block (its first line
    numbered ``lineno``) that ``record_error(k, tokens)`` finds fault with,
    k counting the block's records; None if there is none."""
    records = ((lineno + i, tokens) for i, tokens in enumerate(rows) if tokens)
    for k, (n, tokens) in enumerate(records):
        message = record_error(k, tokens)
        if message:
            return MeshError(f"line {n}: {message}")
    return None


# -- OBJ ---------------------------------------------------------------------

def _obj_block(tokens):
    """The coordinates and 0-based face indices of a block's records, given
    as their tokens, four for each record with its kind first, each flat;
    ValueError or OverflowError if a record is bad."""
    kinds = tokens[::4]
    n_faces = kinds.count("f")
    if kinds.count("v") + n_faces != len(kinds):
        raise ValueError("record kind")
    if 0 < n_faces < len(kinds):
        # faces first, each kind in file order (the sort is stable); the
        # records are lists, as freed tuples would stay on a free list
        records = sorted((tokens[i:i + 4] for i in range(0, len(tokens), 4)),
                         key=itemgetter(0))
        tokens = list(chain.from_iterable(records))
    del tokens[::4]
    # int() fails on a token with a '/', and beyond int64 the cast does
    idx = np.array(tokens[:3 * n_faces], dtype=np.int64)
    if (idx <= 0).any():
        raise ValueError("face index below 1")
    return np.array(tokens[3 * n_faces:], dtype=np.float64), idx - 1


# Characters that end a line for str.splitlines (or start a comment) and
# are ASCII but not a newline; a plain block holds none of them.
_NOT_PLAIN = "#\r\x0b\x0c\x1c\x1d\x1e"


def _obj_tokens(block):
    """The tokens of a block's records, four for each record with its kind
    first, flat, and the block's line count; ValueError if a record does
    not have four tokens.

    A plain block is split by one ``block.split()``. An ASCII block with
    none of _NOT_PLAIN in it breaks lines at its newlines alone. Say every
    line starts with ``v`` or ``f``, the block has four tokens for each
    line and every fourth token is ``v`` or ``f``. If the lines did not all
    have four tokens, some line's first token would land in a number's
    place, and neither float() nor int() converts a token that starts with
    ``v`` or ``f``; so once the values convert, every line is one record.
    Any other block is split line by line."""
    if block.isascii() and block[0] in "vf" and not any(c in block for c in _NOT_PLAIN):
        n_lines = block.count("\n") + (block[-1] != "\n")
        # most blocks hold one kind of record, so one count usually tells
        first, other = ("\nv", "\nf") if block[0] == "v" else ("\nf", "\nv")
        rest = n_lines - 1 - block.count(first)
        if not rest or rest == block.count(other):
            tokens = block.split()
            if len(tokens) == 4 * n_lines:
                return tokens, n_lines
    rows = _line_tokens(block)
    records = list(filter(None, rows))
    _widths(records, 4)
    return list(chain.from_iterable(records)), len(rows)


def _parse_obj(text):
    vertices, faces = [np.empty(0)], [np.empty(0, dtype=np.int64)]
    lineno = 1
    for block in _blocks(text):
        try:
            tokens, n_lines = _obj_tokens(block)
            coords, idx = _obj_block(tokens)
        except (ValueError, OverflowError) as exc:
            error = _first_bad_record(lineno, _line_tokens(block),
                                      lambda k, tokens: _obj_record_error(tokens))
            raise (error or exc) from None
        vertices.append(coords)
        faces.append(idx)
        lineno += n_lines
    return np.concatenate(vertices).reshape(-1, 3), np.concatenate(faces).reshape(-1, 3)


# -- OFF ---------------------------------------------------------------------

def _off_head(blocks):
    """The header and counts lines, as (line number, tokens), and the rest
    of the block the counts line ends in, as (line number, rows)."""
    head = []
    for lineno, rows in blocks:
        for k, tokens in enumerate(rows):
            if tokens:
                head.append((lineno + k, tokens))
                if len(head) == 2:
                    return head, (lineno + k + 1, rows[k + 1:])
    return head, (1, [])


def _off_block(rows, n_vertices):
    """The coordinates and face indices of one block's records, the first
    ``n_vertices`` of them vertex records; ValueError or OverflowError if
    a record is bad."""
    _widths(rows[:n_vertices], 3)
    coords = np.array(list(chain.from_iterable(rows[:n_vertices])), dtype=np.float64)
    face_rows = rows[n_vertices:]
    _widths(face_rows, 4)
    tokens = list(chain.from_iterable(face_rows))
    lead = tokens[::4]
    del tokens[::4]
    if lead.count("3") != len(lead):
        raise ValueError("face size")
    idx = np.array(tokens, dtype=np.int64)        # OverflowError beyond int64
    if (idx == -_INDEX_MAX - 1).any():            # whose abs() is beyond it too
        raise ValueError("face index out of range")
    return coords, idx


def _parse_off(text):
    blocks = _token_blocks(text)
    head, rest = _off_head(blocks)
    if not head or head[0][1] != ["OFF"]:
        raise MeshError("missing OFF header")
    if len(head) < 2:
        raise MeshError("missing OFF counts line")
    lineno, parts = head[1]
    if len(parts) != 3:
        raise MeshError(f"line {lineno}: counts line must be 'V F E'")
    try:
        nv, nf, _ = (int(p) for p in parts)
    except ValueError:
        raise MeshError(f"line {lineno}: bad OFF counts") from None
    if nv < 0 or nf < 0:
        raise MeshError(f"line {lineno}: OFF counts must not be negative")
    # the body must hold nv + nf records, and its first nv are the vertices
    expected = nv + nf

    vertices, faces = [np.empty(0)], [np.empty(0, dtype=np.int64)]
    n_body, error = 0, None
    for lineno, rows in chain([rest], blocks):
        records = list(filter(None, rows))
        n_vertices = max(0, min(len(records), nv - n_body))
        n_body += len(records)
        if error is not None:
            continue
        try:
            coords, idx = _off_block(records, n_vertices)
        except (ValueError, OverflowError) as exc:
            # reported only once the body has the expected number of records
            error = _first_bad_record(
                lineno, rows, lambda k, tokens: _vertex_error(tokens)
                if k < n_vertices else _off_face_error(tokens)) or exc
            continue
        vertices.append(coords)
        faces.append(idx)
    if n_body != expected:
        raise MeshError(f"OFF body has {n_body} records, expected {expected}")
    if error is not None:
        raise error
    return np.concatenate(vertices).reshape(-1, 3), np.concatenate(faces).reshape(-1, 3)


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


_FORMATS = {".obj": (_parse_obj, _format_obj), ".off": (_parse_off, _format_off)}
