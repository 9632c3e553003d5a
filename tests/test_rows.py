"""The row helpers of mesh.py against the numpy forms they replace, and a
scan that keeps those slower forms out of the modules on the hot path."""

import io
import re
import tokenize
from pathlib import Path

import numpy as np
import pytest

from tgvdenoise.mesh import cross, row_dot, row_norm

SRC = Path(__file__).resolve().parents[1] / "src" / "tgvdenoise"


def _field(rng, shape):
    """Random values with zeros of both signs, subnormals and mixed signs."""
    x = rng.normal(size=shape)
    flat = x.reshape(-1)
    flat[::7] = 0.0
    flat[3::11] = -0.0
    flat[5::13] *= 1e-310
    flat[2::5] *= -1.0
    return x


def _bits_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("lead", [(500,), (4, 250)])
@pytest.mark.parametrize("width", [1, 3])
def test_row_dot_and_row_norm_match_numpy_bit_for_bit(lead, width):
    rng = np.random.default_rng(width * 10 + len(lead))
    a = _field(rng, lead + (width,))
    b = _field(rng, lead + (width,))
    assert _bits_equal(row_dot(a, b), (a * b).sum(axis=-1))
    assert _bits_equal(row_norm(a), np.linalg.norm(a, axis=-1))


def test_row_dot_of_negative_zeros_is_positive_zero():
    a = np.array([[-0.0, -0.0, -0.0], [-1.0, 0.0, 0.0]])
    b = np.array([[1.0, 1.0, 1.0], [0.0, -1.0, -1.0]])
    assert _bits_equal(row_dot(a, b), (a * b).sum(axis=-1))
    assert not np.signbit(row_dot(a, b)).any()


@pytest.mark.parametrize("lead", [(500,), (4, 250)])
def test_cross_matches_numpy_bit_for_bit(lead):
    rng = np.random.default_rng(len(lead))
    a = _field(rng, lead + (3,))
    b = _field(rng, lead + (3,))
    assert _bits_equal(cross(a, b), np.cross(a, b))
    # coordinate-major inputs give the same values, in their own layout
    a_cm, b_cm = np.moveaxis(a, -1, 0).copy(), np.moveaxis(b, -1, 0).copy()
    out = cross(np.moveaxis(a_cm, 0, -1), np.moveaxis(b_cm, 0, -1))
    assert _bits_equal(np.ascontiguousarray(out), np.cross(a, b))
    assert np.moveaxis(out, -1, 0).flags.c_contiguous


SLOW_FORMS = re.compile(r"np\.cross\(|np\.linalg\.norm\(.*axis=|\.sum\(axis=(1|2|-1)\)")


def _code_statements(text):
    """(line number, code) per logical line, with comments and strings
    (docstrings included) left out and the tokens joined without spaces."""
    statements, tokens, start = [], [], None
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.NEWLINE:
            statements.append((start, "".join(tokens)))
            tokens, start = [], None
        elif tok.type not in (tokenize.COMMENT, tokenize.STRING, tokenize.NL,
                              tokenize.INDENT, tokenize.DEDENT):
            tokens.append(tok.string)
            start = start or tok.start[0]
    return statements


def test_slow_form_scan_sees_code_only():
    code = 'x = np.linalg.norm(\n    y, axis=1)  # np.cross(\n"""(a * b).sum(axis=1)"""\n'
    assert [SLOW_FORMS.search(c) is not None for _, c in _code_statements(code)] \
        == [True, False]


@pytest.mark.parametrize("module", ["solver.py", "operators.py", "reconstruct.py", "mesh.py",
                                    "topology.py"])
def test_hot_path_modules_use_the_row_helpers(module):
    hits = [f"{module}:{line}: {code}" for line, code in _code_statements((SRC / module).read_text())
            if SLOW_FORMS.search(code)]
    assert not hits, "use row_dot / row_norm / cross instead:\n" + "\n".join(hits)


def test_row_helpers_stay_out_of_every_public_surface():
    import tgvdenoise
    from tgvdenoise import metrics, mesh, operators, reconstruct, solver
    for mod in (tgvdenoise, mesh, operators, solver, reconstruct, metrics):
        assert not {"row_dot", "row_norm", "cross"} & set(getattr(mod, "__all__", ()))
