"""A differential grammar fuzzer for the OBJ / OFF reader.

Valid OBJ and OFF texts are mutated at random (numpy's seeded generator,
so every run sees the same cases). ``load_mesh`` must return the arrays the
record-at-a-time reference reader returns, or fail with the same exception
and message, line number included. On a subset, the ``denoise`` and
``metrics`` commands must end cleanly: exit 0 with finite output, or exit 1
with one ``error:`` line.
"""

import json
import warnings

import numpy as np
import pytest

from tgvdenoise import (NoiseSpec, add_gaussian_noise, fileio, load_mesh, make_cube,
                        reconstruct, save_mesh)
from tgvdenoise.cli import main

from oracles import load_mesh_reference

CASES = 150          # per test
CLI_EVERY = 8        # the commands run on every file that loads and on
                     # one case in this many of the others

# stand-ins for any token: signs, digit grouping, exponents, decimals,
# non-finite values, unicode digits, indices of 0, -1 and around int64
VALUES = ["+1", "-1", "0", "-0", "+0", "1", "2", "3", "4", "1_0", "1e3", "1.0",
          "1.", ".5", "-2.5e-3", "nan", "-nan", "inf", "-inf", "Infinity",
          "\u0663", "\uff12", "\u0661\u0660", "0x1", "1__0", "_1", "e",
          "99999999999999999999", "9223372036854775807", "9223372036854775808",
          "-9223372036854775808", "-9223372036854775809", "3/3", "2//1",
          "1/2/3", "/", "v", "f", "vn", "OFF", "#"]
# characters str.split treats as whitespace; \x0b, \x0c, \x1c and \x85
# also end a line for str.splitlines, \x1f, \xa0 and \u3000 do not
SEPARATORS = ["\t", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0", "\u3000", "  "]
LINE_ENDS = ["\r\n", "\r", "\x0b", "\x0c", "\x1e", "\x85", "\u2028", "\u2029"]
EXTRA_LINES = ["# a comment", "", "   ", "\t", "vn 0 0 1", "vt 0.5 0.5", "o part",
               "f 1 2 3 4", "f 1/1/1 2/2/2 3/3/3", "v 0 0 0", "v 1 1 1 1",
               "3 0 1 2", "4 0 1 2 3", "0 0 0", "OFF", "#", "f", "v"]
BAD_BYTES = [b"\xff", b"\xc3", b"\x80", b"\xed\xa0\x80", b"\xf8\x88\x80\x80\x80"]


def _base_lines(fmt):
    """The tokens of each line of a valid file: a noisy 48-face cube."""
    mesh = add_gaussian_noise(make_cube(2, size=0.05),
                              NoiseSpec(0.3, mode="vertex-normal", seed=3))
    if fmt == "obj":
        rows = [["v"] + ["%.17g" % c for c in p] for p in mesh.vertices]
        rows += [["f"] + [str(i + 1) for i in f] for f in mesh.faces]
    else:
        rows = [["OFF"], [str(mesh.num_vertices), str(mesh.num_faces), "0"]]
        rows += [["%.17g" % c for c in p] for p in mesh.vertices]
        rows += [["3"] + [str(i) for i in f] for f in mesh.faces]
    return rows


def _pick(rng, seq):
    return seq[int(rng.integers(len(seq)))]


def _mutate(rng, rows):
    """One random edit of the token rows, in place."""
    op = int(rng.integers(12))
    r = int(rng.integers(len(rows))) if rows else 0
    row = rows[r] if rows else None
    if op == 0 and row:                                  # drop a token
        del row[int(rng.integers(len(row)))]
    elif op == 1 and row:                                # duplicate a token
        k = int(rng.integers(len(row)))
        row.insert(k, row[k])
    elif op == 2 and rows:                               # swap two tokens
        other = _pick(rng, rows)
        if row and other:
            i, j = int(rng.integers(len(row))), int(rng.integers(len(other)))
            row[i], other[j] = other[j], row[i]
    elif op == 3 and rows:                               # drop a line
        del rows[r]
    elif op == 4 and rows:                               # duplicate a line
        rows.insert(r, list(row))
    elif op == 5 and rows:                               # swap two lines
        s = int(rng.integers(len(rows)))
        rows[r], rows[s] = rows[s], rows[r]
    elif op == 6:                                        # insert a line
        rows.insert(r, _pick(rng, EXTRA_LINES).split(" "))
    elif op == 7 and row:                                # replace a token
        row[int(rng.integers(len(row)))] = _pick(rng, VALUES)
    elif op == 8 and row:                                # a fourth index
        row.append(str(int(rng.integers(1, 5))))
    elif op == 9 and row:                                # a '/' token
        k = int(rng.integers(len(row)))
        row[k] += _pick(rng, ["/1", "//2", "/"])
    elif op == 10 and rows:                              # move a line elsewhere
        rows.insert(int(rng.integers(len(rows))), rows.pop(r))
    elif op == 11 and row is not None:                   # a trailing comment
        row.append(_pick(rng, ["#", "# note", "#v 1 2 3"]))


def _render(rng, rows):
    """The rows as bytes, mostly with spaces and newlines, sometimes with
    other whitespace, other line ends, or bytes that are not UTF-8."""
    out = []
    odd = 0.1 if rng.random() < 0.3 else 0.0
    for row in rows:
        sep = _pick(rng, SEPARATORS) if rng.random() < odd else " "
        end = _pick(rng, LINE_ENDS) if rng.random() < odd else "\n"
        lead = _pick(rng, SEPARATORS) if rng.random() < odd else ""
        out.append(lead + sep.join(row) + end)
    data = "".join(out).encode("utf-8")
    if rng.random() < 0.05:
        at = int(rng.integers(len(data) + 1))
        data = data[:at] + _pick(rng, BAD_BYTES) + data[at:]
    return data


def _recount(rows):
    """Set an OFF counts line to the number of records that follow it,
    keeping V: most edits change that number, and a file whose count
    disagrees fails before any of its records is read."""
    content = [k for k, row in enumerate(rows)
               if row and row[0] and not row[0].startswith("#")]
    if len(content) >= 2 and len(rows[content[1]]) == 3:
        counts = rows[content[1]]
        if counts[0].isdigit():
            counts[1] = str(len(content) - 2 - int(counts[0]))


def _cases(fmt, seed):
    rng = np.random.default_rng(seed)
    base = _base_lines(fmt)
    for case in range(CASES):
        rows = [list(row) for row in base]
        for _ in range(int(rng.integers(1, 4))):
            _mutate(rng, rows)
        if fmt == "off" and rng.random() < 0.7:
            _recount(rows)
        yield case, _render(rng, rows)


def _outcome(load, path):
    try:
        mesh = load(path)
    except ValueError as exc:            # MeshError, UnicodeDecodeError
        return type(exc), str(exc)
    return mesh.vertices, mesh.faces


def _same(got, want):
    if isinstance(want[0], type):
        return got == want
    return all(isinstance(g, np.ndarray) and g.dtype == w.dtype and g.shape == w.shape
               and np.array_equal(g, w) for g, w in zip(got, want))


def _exit_code_if_clean(capsys, argv):
    """Run one command in-process. Its exit code if it ended cleanly (0 with
    finite numbers in its JSON, or 1 with a single 'error:' line), else
    None; any warning is an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    out, err = capsys.readouterr()
    if code == 0:
        report = json.loads(out)
        numbers = [v for v in report.values() if isinstance(v, (int, float))]
        clean = np.isfinite(numbers).all() and err == ""
    else:
        clean = code == 1 and out == "" and len(err.splitlines()) == 1 \
            and err.startswith("error: ")
    return code if clean else None


# blocks of a few lines each put block boundaries everywhere in the cases
BLOCKS = [("obj", 11, None), ("off", 12, None), ("obj", 13, 40), ("off", 14, 40)]


@pytest.mark.parametrize("fmt, seed, block_chars", BLOCKS)
def test_reader_matches_the_reference_on_mutated_files(tmp_path, capsys, monkeypatch,
                                                      fmt, seed, block_chars):
    if block_chars:
        monkeypatch.setattr(fileio, "_BLOCK_CHARS", block_chars)
    monkeypatch.setattr(reconstruct, "_VERTEX_ITERS", 1)
    path = tmp_path / f"case.{fmt}"
    clean = tmp_path / f"clean.{fmt}"
    save_mesh(make_cube(2, size=0.05), clean)
    outcomes, codes = set(), set()
    for case, data in _cases(fmt, seed):
        path.write_bytes(data)
        want = _outcome(load_mesh_reference, path)
        got = _outcome(load_mesh, path)
        assert _same(got, want), f"case {case}: {data!r}\nreference: {want}\ngot: {got}"
        loaded = not isinstance(want[0], type)
        outcomes.add("loaded" if loaded else want[1])
        if loaded or case % CLI_EVERY == 0:
            out = tmp_path / f"out.{fmt}"
            for argv in (["denoise", str(path), "-o", str(out), "--max-iters", "1"],
                         ["metrics", str(path), str(clean)]):
                code = _exit_code_if_clean(capsys, argv)
                assert code is not None, f"case {case}: {argv[0]} on {data!r}"
                codes.add((argv[0], code))
    # the mutations reach both valid files and many distinct errors, and
    # both commands both succeed and fail
    assert "loaded" in outcomes and len(outcomes) > 20
    assert codes == {(command, code) for command in ("denoise", "metrics") for code in (0, 1)}


EDGE_TEXTS = {
    "obj": ["", "\n", "# only a comment", "v 1 2 3", "v 1 2 3\r\nv 4 5 6\r\n",
            "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3", "f 1 2 3\nv 0 0 0\nv 1 0 0\nv 0 1 0\n",
            "v 0 0 0#\nv 1 0 0 # x\nv 0 1 0\n#f 1 2 3\nf 1 2 3#\n",
            "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 -9223372036854775808\n",
            "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 9223372036854775808\n",
            "\x0bv 1 2 3\x85f\u2028v\x0c1",
            # look-alikes of a plain block (four tokens for each line, every
            # fourth a kind), which the reader must still read line by line
            "v 1 2 3 v\n1 2 3\n", "v 1 2 3 f\nf 1 2\n", "v 1 2\x0b3\nv 4 5 6\n",
            "v 1 2 3\n\nv 4 5 6\n", " v 1 2 3\n", "vv 1 2 3\n",
            # a bad record after plain blocks: its line number counts their lines
            "".join(f"v {i} 0 1\n" for i in range(2500)) + "f 1 2 3\n" * 9 + "f 1 2\n",
            "\ufeffv 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n"],
    "off": ["", "\n", "OFF", "OFF\n", "OFF 0 0 0\n", "OFF\n0 0 0\n", "OFF\n0 0 0",
            "OFF\n1 0 0\n1 2 3", "OFF\n-1 1 0\n", "OFF\n-1 2 0\n1 2 3\n",
            "OFF\n5 -2 0\n0 0 0\n1 0 0\n0 1 0\n",
            "OFF\n-2 5 0\n0 0 0\n1 0 0\n0 1 0\n",
            "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 -9223372036854775808\n",
            "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 -9223372036854775807\n",
            "OFF\n3 1 0\n0 0 0\n1 0 0 0\n0 1 0\n3 0 1 x\n",
            "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 x\n4 0 1 2 3\n",
            "OFF\n99999999999999999999 1 0\n0 0 0\n",
            "# c\n\nOFF # c\n\n3 1 0 # c\n0 0 0\n\n1 0 0\n0 1 0\n3 0 1 2\n",
            "\ufeffOFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n"],
}


@pytest.mark.parametrize("block_chars", [None, 1])
@pytest.mark.parametrize("fmt", ["obj", "off"])
def test_reader_matches_the_reference_on_edge_cases(tmp_path, monkeypatch, fmt, block_chars):
    if block_chars:
        monkeypatch.setattr(fileio, "_BLOCK_CHARS", block_chars)
    path = tmp_path / f"case.{fmt}"
    for text in EDGE_TEXTS[fmt]:
        path.write_text(text, encoding="utf-8", newline="")
        want = _outcome(load_mesh_reference, path)
        got = _outcome(load_mesh, path)
        assert _same(got, want), f"{text!r}\nreference: {want}\ngot: {got}"


@pytest.mark.parametrize("fmt", ["obj", "off"])
def test_byte_order_mark_is_skipped(tmp_path, fmt):
    # the last edge case of each format, a file that starts with a UTF-8
    # byte-order mark, loads as the same file without it
    text = EDGE_TEXTS[fmt][-1]
    assert text.startswith("\ufeff")
    marked, plain = tmp_path / f"marked.{fmt}", tmp_path / f"plain.{fmt}"
    marked.write_text(text, encoding="utf-8", newline="")
    plain.write_text(text[1:], encoding="utf-8", newline="")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    got, want = load_mesh(marked), load_mesh(plain)
    assert _same((got.vertices, got.faces), (want.vertices, want.faces))
