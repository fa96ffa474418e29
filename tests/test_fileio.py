"""The field CSV format, the VTK export text and the atomic writer of
``fileio``."""

import os
import re
import warnings

import numpy as np
import pytest

from helpers import (level_mesh, reference_field_csv_text,
                     reference_read_field_csv, reference_vtk_text)
from todalab import fileio
from todalab.errors import TodaError

HARD = [5e-324, -0.0, 1.7976931348623157e308, -np.inf,
        2.2250738585072014e-308, np.inf, 0.0, 1e-300, -2.5e-310, 0.1, 1 / 3]


def _fields():
    """(name, values) of hard values and of random fields at V = 508 and
    2044, with a field of -inf everywhere (the zero-section density)."""
    rng = np.random.default_rng(0)
    yield "hard", np.array(HARD)
    for V in (508, 2044):
        yield f"random{V}", (rng.standard_normal(V)
                             * 10.0 ** rng.integers(-300, 300, V))
        yield f"bits{V}", rng.integers(0, 2**64, V, dtype=np.uint64).view(
            np.float64)
        yield f"neginf{V}", np.full(V, -np.inf)


def _write(tmp_path, text, name="field.csv"):
    path = tmp_path / name
    path.write_bytes(text.encode())
    return str(path)


@pytest.mark.parametrize("name, values", list(_fields()),
                         ids=[name for name, _ in _fields()])
def test_field_csv_round_trip(name, values, tmp_path):
    values = np.where(np.isnan(values), 0.0, values)
    path = str(tmp_path / "field.csv")
    fileio.write_field_csv(path, "u", values)
    with open(path) as handle:
        assert handle.read() == reference_field_csv_text("u", values)
    got_name, got = fileio.read_field_csv(path, "u", len(values))
    assert got_name == "u"
    assert np.array_equal(got.view(np.int64), values.view(np.int64))
    _, old = reference_read_field_csv(path, "u", len(values))
    assert np.array_equal(got.view(np.int64), old.view(np.int64))


def test_field_csv_text_takes_lists_and_integers():
    for values in ([1, 2.5, -0.0], np.arange(3), np.float32([0.1, 2.0])):
        assert (fileio.field_csv_text("f", values)
                == reference_field_csv_text("f", values))
    assert fileio.field_csv_text("f", []) == "vertex_index,f\n"


@pytest.mark.parametrize("level", [2, 5])
def test_vtk_text_matches_the_row_by_row_writer(level):
    mesh = level_mesh(level, 2)
    V = mesh.num_vertices
    rng = np.random.default_rng(level)
    channels = [
        ("hard", np.resize(np.array(HARD + [np.nan]), V)),
        ("random", (rng.standard_normal(V)
                    * 10.0 ** rng.integers(-300, 300, V))),
        ("integers", np.arange(V))]
    text = fileio.vtk_text(mesh, channels)
    assert text == reference_vtk_text(mesh, channels)
    # -inf and NaN both become the sentinel.
    lines = text.split("\n")
    start = lines.index("SCALARS hard double 1") + 2
    hard = lines[start:start + len(HARD) + 1]
    assert hard[HARD.index(-np.inf)] == hard[-1] == repr(-1e300)


def test_shuffled_rows_read_in_vertex_order(tmp_path):
    rng = np.random.default_rng(1)
    values = rng.standard_normal(508).tolist()
    order = rng.permutation(508)
    body = "".join(f"{i},{values[i]!r}\n" for i in order)
    path = _write(tmp_path, "vertex_index,v\n" + body)
    _, got = fileio.read_field_csv(path, "v", 508)
    assert got.tolist() == values


def test_crlf_rows_and_surrounding_whitespace_are_read(tmp_path):
    path = _write(tmp_path, "\n vertex_index,u\r\n1, 2.5 \r\n0,-inf\r\n\n")
    _, got = fileio.read_field_csv(path, "u", 2)
    assert got.tolist() == [-np.inf, 2.5]


@pytest.mark.parametrize("size", [None, 0])
def test_header_only_field_reads_without_a_warning(size, tmp_path):
    path = _write(tmp_path, "vertex_index,u\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        name, got = fileio.read_field_csv(path, "u", size)
    assert name == "u" and got.shape == (0,)


def test_header_only_field_of_a_mesh_is_too_short(tmp_path):
    path = _write(tmp_path, "vertex_index,u\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TodaError, match="holds 0 values for a mesh "
                                            "with 3 vertices"):
            fileio.read_field_csv(path, "u", 3)


ROWS = "vertex_index,u\n0,0.5\n{}\n2,1.5\n"
MALFORMED = [
    ("blank", ROWS.format(""), "line 3 is not an 'index,value' row: ''"),
    ("spaces", ROWS.format("   "), "line 3 is not an 'index,value' row"),
    ("float-index", ROWS.format("1.5,2"), "line 3 is not an"),
    ("one-column", ROWS.format("1"), "line 3 is not an"),
    ("three-columns", ROWS.format("1,0.5,7"), "line 3 is not an"),
    ("non-numeric", ROWS.format("1,abc"), "line 3 is not an"),
    ("comment", ROWS.format("# 1,2"), "line 3 is not an"),
    ("trailing-comma", ROWS.format("1,"), "line 3 is not an"),
    ("duplicate", ROWS.format("0,2"), "has bad vertex indexing"),
    ("out-of-range", ROWS.format("3,2"), "has bad vertex indexing"),
    ("negative", ROWS.format("-1,2"), "has bad vertex indexing"),
    ("nan", ROWS.format("1,nan"), "holds NaN at vertex 1"),
    ("underscore", ROWS.format("1,1_0"), "not a list of 'index,value' rows"),
    ("empty", "", "is empty"),
    ("whitespace", " \n\n", "is empty"),
    ("header", "index,u\n0,1\n", "bad field CSV header"),
    ("name", "vertex_index,v\n0,1\n", "holds 'v', expected 'u'"),
    ("size", "vertex_index,u\n0,1\n", "holds 1 values for a mesh with 3"),
]


@pytest.mark.parametrize("text, message", [case[1:] for case in MALFORMED],
                         ids=[case[0] for case in MALFORMED])
def test_malformed_field_csv_raises_one_error(text, message, tmp_path):
    path = _write(tmp_path, text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TodaError) as caught:
            fileio.read_field_csv(path, "u", 3)
    assert f"{path}" in str(caught.value)
    assert message in str(caught.value)


def test_atomic_write_needs_no_umask_call(tmp_path, monkeypatch):
    def umask(mask):
        raise AssertionError("os.umask called")
    monkeypatch.setattr(os, "umask", umask)
    path = str(tmp_path / "out.txt")
    fileio.atomic_write_text(path, "text\n")
    with open(path) as handle:
        assert handle.read() == "text\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_atomic_write_into_a_missing_directory(tmp_path):
    missing = tmp_path / "missing"
    message = f"output directory {missing} does not exist"
    with pytest.raises(FileNotFoundError, match=re.escape(message)):
        fileio.atomic_write_text(str(missing / "out.txt"), "text\n")


def test_failed_atomic_write_leaves_no_file(tmp_path, monkeypatch):
    def replace(src, dst):
        raise OSError("replace failed")
    monkeypatch.setattr(os, "replace", replace)
    with pytest.raises(OSError, match="replace failed"):
        fileio.atomic_write_text(str(tmp_path / "out.txt"), "text\n")
    assert os.listdir(tmp_path) == []
