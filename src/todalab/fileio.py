"""File formats and atomic output helpers.

This module reads and writes the formats below, except mesh JSON, whose
layout only the mesh module knows (mesh.mesh_to_json, and
mesh.mesh_from_json, which reads the file's text; here a mesh file is
written atomically, and json_object names a refused one that holds no
JSON object).  All writers go through an atomic temp-file + rename so a
crashed run never leaves a half-written artifact, and all serialization is
deterministic (sorted JSON keys, shortest round-trip float repr) so
identical inputs produce byte-identical outputs.

Formats:
  * field CSV         -- header ``vertex_index,<name>``, then one
                         ``index,value`` row per vertex, in any order but
                         each index once; blank rows and comments are
                         refused.  The rows are parsed in one NumPy pass
                         (read_field_csv).
  * density CSV+JSON  -- log-density field plus divisor sidecar
  * certificate JSON  -- almost-Fuchsian certificate dict
  * run manifest JSON -- input paths and their git-style blob hashes
  * VTK legacy ASCII  -- POLYDATA with point scalars for external viewers
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

from .errors import TodaError


def atomic_write_text(path, text):
    """Write text to path via a temp file in the same directory + rename.

    The temp file is created with mode 0666, which the kernel lessens by
    the process umask, so the file gets the mode open() would give it.  A
    missing directory is a FileNotFoundError: no directory is created.
    """
    directory = os.path.dirname(os.path.abspath(path))
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL
    for _ in range(100):
        tmp = os.path.join(directory, f"tmp{os.urandom(6).hex()}.tmp")
        try:
            fd = os.open(tmp, flags, 0o666)
            break
        except FileExistsError:
            continue
        except FileNotFoundError as exc:
            raise FileNotFoundError(
                f"output directory {directory} does not exist") from exc
    else:
        raise FileExistsError(f"no free temporary file name in {directory}")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def git_blob_sha1(data):
    """Content hash in git blob style: sha1(b"blob <len>\\0" + data)."""
    if isinstance(data, str):
        data = data.encode()
    h = hashlib.sha1()
    h.update(b"blob %d\0" % len(data))
    h.update(data)
    return h.hexdigest()


def file_blob_sha1(path):
    with open(path, "rb") as handle:
        return git_blob_sha1(handle.read())


def dump_json(obj):
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"


def write_json(path, obj):
    atomic_write_text(path, dump_json(obj))


def read_json(path):
    with open(path) as handle:
        return json.load(handle)


def read_json_object(path, fields):
    """(text, object) of a JSON file holding an object whose keys include
    fields, each value of the type fields gives; else a TodaError."""
    with open(path) as handle:
        text = handle.read()
    return text, json_object(path, text, fields)


def json_object(path, text, fields):
    """The object that text, read from path, holds, with keys including
    fields, each value of the type fields gives (a JSON true or false only
    where that type is bool); else a TodaError naming path."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TodaError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise TodaError(
            f"{path} holds a JSON {type(doc).__name__}, not an object")
    for key, kind in fields.items():
        value = doc.get(key)
        if not isinstance(value, kind) or (
                isinstance(value, bool) and kind is not bool):
            raise TodaError(f"{path} has no valid {key!r} field")
    return doc


# ----------------------------------------------------------------------
# Field CSV

def field_csv_text(name, values):
    rows = [f"{i},{x!r}\n"
            for i, x in enumerate(np.asarray(values, float).tolist())]
    return f"vertex_index,{name}\n" + "".join(rows)


def write_field_csv(path, name, values):
    atomic_write_text(path, field_csv_text(name, values))


# One parsed body row of a field CSV.
_ROW = np.dtype([("index", np.int64), ("value", np.float64)])


def _bad_row(path, rows, exc):
    """The TodaError of a body that the bulk parse refused with exc: it
    names the first row that is not ``index,value``.  Only this message
    is built row by row.

    Python's int() and float() also take what NumPy's reader refuses
    (digit-group underscores, non-ASCII digits, an index past int64); if
    every row passes them, the error quotes NumPy's message instead."""
    for line, row in enumerate(rows[1:], start=2):
        try:
            idx_s, val_s = row.split(",")
            int(idx_s), float(val_s)
        except ValueError:
            return TodaError(f"field CSV {path} line {line} is not an "
                             f"'index,value' row: {row!r}")
    return TodaError(f"field CSV {path} is not a list of 'index,value' "
                     f"rows: {exc}")


def read_field_csv(path, expected_name=None, size=None):
    """Returns (name, values); size, if given, is the vertex count the
    field must have.

    The format: whitespace around the file is dropped, the first line is
    the header ``vertex_index,<name>`` and every further line is one
    ``index,value`` row of an ASCII decimal integer and float (``inf``
    and ``-inf`` included, NaN refused).  Rows may come in any vertex
    order, but each index 0..n-1 appears exactly once.  Blank rows and
    comments are refused.  The body is parsed in one NumPy pass
    (np.loadtxt), whose floats are the ones float() reads from the same
    text, bit for bit.
    """
    with open(path) as handle:
        rows = handle.read().strip().splitlines()
    if not rows:
        raise TodaError(f"field CSV {path} is empty")
    header = rows[0].split(",")
    if len(header) != 2 or header[0] != "vertex_index":
        raise TodaError(f"bad field CSV header in {path}: {rows[0]!r}")
    name = header[1]
    if expected_name is not None and name != expected_name:
        raise TodaError(
            f"field CSV {path} holds {name!r}, expected {expected_name!r}")
    n = len(rows) - 1
    values = np.empty(n)
    if n:  # with no body row, loadtxt would warn that it found no data
        try:
            parsed = np.loadtxt(rows, dtype=_ROW, delimiter=",",
                                comments=None, skiprows=1, ndmin=1)
            if len(parsed) != n:  # loadtxt skips blank rows
                raise ValueError("a blank row")
        except ValueError as exc:
            raise _bad_row(path, rows, exc) from None
        index = parsed["index"]
        if not (index.min() >= 0 and index.max() < n
                and np.bincount(index, minlength=n).max() == 1):
            raise TodaError(f"field CSV {path} has bad vertex indexing")
        values[index] = parsed["value"]
    if size is not None and len(values) != size:
        raise TodaError(f"field CSV {path} holds {len(values)} values for a "
                        f"mesh with {size} vertices")
    nan = np.flatnonzero(np.isnan(values))
    if nan.size:
        raise TodaError(f"field CSV {path} holds NaN at vertex {nan[0]}")
    return name, values


# ----------------------------------------------------------------------
# Density files

# ``<prefix>.csv`` holds the field ``log_density`` (``-inf`` at every vertex
# for the zero section and at none otherwise, never NaN or ``+inf``);
# ``<prefix>.json`` holds the divisor sidecar.

def write_density(prefix, density):
    write_field_csv(prefix + ".csv", "log_density", density.log_density)
    write_json(prefix + ".json", {
        "degree": density.degree,
        "c_L": density.curvature_constant,
        "normalization": density.normalization,
        "divisor": [[int(v), int(m)] for v, m in density.divisor.entries],
    })


def read_density(prefix, mesh):
    from .sections import Divisor, SectionDensity
    path = prefix + ".csv"
    _, ld = read_field_csv(path, "log_density", mesh.num_vertices)
    posinf = np.flatnonzero(np.isposinf(ld))
    if posinf.size:
        raise TodaError(f"density {path} holds +inf at vertex {posinf[0]}")
    neginf = np.flatnonzero(np.isneginf(ld))
    if 0 < neginf.size < len(ld):
        raise TodaError(
            f"density {path} holds -inf at vertex {neginf[0]} but not at "
            f"every vertex (only the zero section may hold -inf)")
    _, sidecar = read_json_object(prefix + ".json", {
        "divisor": list, "degree": int, "c_L": (int, float),
        "normalization": str})
    for i, entry in enumerate(sidecar["divisor"]):
        if not (isinstance(entry, list) and len(entry) == 2
                and all(type(x) is int for x in entry)):
            raise TodaError(
                f"{prefix}.json divisor entry {i} is {entry!r}, not a "
                f"[vertex, multiplicity] pair of integers")
    try:
        c_L = float(sidecar["c_L"])
    except OverflowError:
        # An integer beyond the float range reads as inf, like the JSON
        # number 1e400.
        c_L = math.inf
    if not math.isfinite(c_L):
        raise TodaError(f"{prefix}.json has c_L = {c_L}, not a finite number")
    try:
        divisor = Divisor([(v, m) for v, m in sidecar["divisor"]])
    except ValueError as exc:  # a repeated vertex or a multiplicity < 1
        raise TodaError(f"{prefix}.json divisor: {exc}") from exc
    divisor.check_range(mesh.num_vertices)
    if divisor.degree != int(sidecar["degree"]):
        raise TodaError("divisor degree disagrees with sidecar degree")
    return SectionDensity(mesh=mesh, log_density=ld, divisor=divisor,
                          curvature_constant=c_L,
                          normalization=sidecar["normalization"])


# ----------------------------------------------------------------------
# Run manifest

def run_inputs(mesh_path, density_path):
    """(hash key, path) of each input file a run manifest hashes: the mesh
    file and the density's .csv and .json files."""
    return [("mesh", mesh_path),
            ("density_csv", density_path + ".csv"),
            ("density_json", density_path + ".json")]


def run_manifest(mesh_path, density_path):
    """The run's input paths and the blob hashes of its run_inputs."""
    return {
        "mesh": mesh_path,
        "density": density_path,
        "hashes": {key: file_blob_sha1(path)
                   for key, path in run_inputs(mesh_path, density_path)},
    }


# ----------------------------------------------------------------------
# VTK legacy ASCII export

def vtk_text(mesh, scalars):
    """POLYDATA with the mesh drawn at its unit-disk vertex positions.

    scalars is an ordered list of (name, values) point-data channels.
    Non-finite values (e.g. log of a vanishing density) are clamped to a
    large negative sentinel so external viewers keep working.
    """
    pos = mesh.positions
    lines = ["# vtk DataFile Version 3.0",
             "hyperbolic surface fields",
             "ASCII",
             "DATASET POLYDATA",
             f"POINTS {mesh.num_vertices} double"]
    lines += [f"{x!r} {y!r} 0.0"
              for x, y in zip(pos.real.tolist(), pos.imag.tolist())]
    F = mesh.num_faces
    lines.append(f"POLYGONS {F} {4 * F}")
    lines += [f"3 {a} {b} {c}" for a, b, c in mesh.triangles.tolist()]
    lines.append(f"POINT_DATA {mesh.num_vertices}")
    for name, values in scalars:
        clean = np.where(np.isfinite(values), values, -1e300)
        lines += [f"SCALARS {name} double 1", "LOOKUP_TABLE default"]
        lines += map(repr, clean.tolist())
    return "\n".join(lines) + "\n"


def write_vtk(path, mesh, scalars):
    atomic_write_text(path, vtk_text(mesh, scalars))
