"""Base surface construction, refinement, covers, and serialization."""

import dataclasses
import json
import re

import numpy as np
import pytest

from helpers import (NONABELIAN_SPEC, NONJSON_SPELLING, identity_meshes,
                     level_mesh, mutated_texts, reference_build_cover,
                     reference_mesh_json, reference_refine, v1_mesh_document)
from todalab import group as G
from todalab import hyperbolic as H
from todalab import mesh as mesh_module
from todalab import operators as ops
from todalab.errors import DisconnectedCoverError, MeshError, RelatorError
from todalab.mesh import (CoverSpec, build_base_surface, build_cover,
                          mesh_from_dict, mesh_from_json, mesh_to_json,
                          refine)

# (V, E, F) per refinement level, from V' = V + E, E' = 2E + 3F, F' = 4F.
LEVEL_COUNTS = {0: (2, 12, 8), 1: (14, 48, 32), 2: (62, 192, 128),
                3: (254, 768, 512)}


@pytest.fixture(scope="module")
def meshes():
    return {r: build_base_surface(refinement=r) for r in range(4)}


def test_level_counts_and_euler(meshes):
    for r, (V, E, F) in LEVEL_COUNTS.items():
        m = meshes[r]
        assert (m.num_vertices, m.num_edges, m.num_faces) == (V, E, F)
        assert m.euler_characteristic == -2
        assert m.genus == 2
        assert m.level == r


def test_validate_all_levels(meshes):
    for m in meshes.values():
        m.validate()


def test_base_edge_lengths(meshes):
    m = meshes[0]
    for e in range(8):
        assert m.edge_lengths[e] == pytest.approx(H.SPOKE_LENGTH, abs=1e-14)
    for e in range(8, 12):
        assert m.edge_lengths[e] == pytest.approx(H.SIDE_LENGTH, abs=1e-14)
    # One central and one corner vertex.
    assert m.positions[0] == 0
    assert abs(m.positions[1]) == pytest.approx(H.VERTEX_RADIUS, abs=1e-14)


def test_positions_match_lengths(meshes):
    for m in meshes.values():
        assert m._length_defects().max() < 1e-12


def test_refinement_prefix_property(meshes):
    for r in range(3):
        coarse, fine = meshes[r], meshes[r + 1]
        Vc = coarse.num_vertices
        assert fine.num_vertices == Vc + coarse.num_edges
        assert np.allclose(fine.positions[:Vc], coarse.positions)


def test_area_exact_at_every_level(meshes):
    for m in meshes.values():
        assert ops.volume(m) == pytest.approx(4 * np.pi, abs=1e-10)


def test_triangle_words_are_contractible(meshes):
    for r in (0, 1):
        m = meshes[r]
        for t in range(m.num_faces):
            assert G.is_identity(m.triangle_word(t))


def test_base_holonomy_words(meshes):
    m = meshes[0]
    # Spoke edges carry the corner lift words, boundary edges their ratios.
    lifts = H.vertex_lift_words()
    for j in range(8):
        assert m.edge_words[j] == lifts[j]
    for j in range(4):
        expected = G.free_reduce(G.concat(G.inverse_word(lifts[j]),
                                          lifts[(j + 1) % 8]))
        assert m.edge_words[8 + j] == expected


def test_cover_counts_and_genus(meshes):
    base = meshes[1]
    for n in (2, 3, 5):
        cover = build_cover(base, CoverSpec.cyclic(n))
        cover.validate()
        assert cover.num_vertices == n * base.num_vertices
        assert cover.num_edges == n * base.num_edges
        assert cover.num_faces == n * base.num_faces
        assert cover.genus == n * (base.genus - 1) + 1
        assert ops.volume(cover) == pytest.approx(n * 4 * np.pi, abs=1e-9)
        expected_base = np.tile(np.arange(base.num_vertices), n)
        assert np.array_equal(cover.base_vertex, expected_base)


def test_cover_positions_consistent(meshes):
    cover = build_cover(meshes[1], CoverSpec.cyclic(3))
    assert cover._length_defects().max() < 1e-11


def test_disconnected_cover_rejected():
    base = build_base_surface(refinement=0)
    for n in (2, 3):
        trivial = CoverSpec(degree=n, generator_images={
            k: list(range(n)) for k in range(1, 5)})
        with pytest.raises(DisconnectedCoverError, match="not transitive"):
            trivial.validate()
        with pytest.raises(DisconnectedCoverError, match="not transitive"):
            build_cover(base, trivial)


def test_relator_violating_cover_rejected():
    base = build_base_surface(refinement=0)
    # Non-commuting images of the first two pairings break the boundary
    # relation, which lives in the commutator subgroup.
    bad = CoverSpec(degree=3, generator_images={
        1: [1, 0, 2], 2: [0, 2, 1], 3: [0, 1, 2], 4: [0, 1, 2]})
    with pytest.raises(RelatorError):
        build_cover(base, bad)


def test_bad_permutation_rejected():
    with pytest.raises(ValueError):
        CoverSpec(degree=2, generator_images={
            1: [0, 0], 2: [0, 1], 3: [0, 1], 4: [0, 1]}).validate()


def test_json_round_trip(meshes):
    m = meshes[1]
    text = mesh_to_json(m)
    m2 = mesh_from_json(text)
    assert np.array_equal(m.triangles, m2.triangles)
    assert np.array_equal(m.tri_edges, m2.tri_edges)
    assert np.array_equal(m.tri_edge_signs, m2.tri_edge_signs)
    assert np.array_equal(m.edges, m2.edges)
    assert np.array_equal(m.edge_lengths, m2.edge_lengths)
    assert m.edge_words == m2.edge_words
    assert np.array_equal(m.positions, m2.positions)
    assert m2.genus == 2 and m2.level == 1
    m2.validate()
    # Deterministic: serializing again is byte-identical.
    assert mesh_to_json(m2) == text


def test_json_cover_round_trip(meshes):
    cover = build_cover(meshes[0], CoverSpec.cyclic(2))
    m2 = mesh_from_json(mesh_to_json(cover))
    assert np.array_equal(cover.base_vertex, m2.base_vertex)
    m2.validate()


# The level-0 base mesh file, byte for byte.
LEVEL_0_JSON = (
    '{"edge_lengths":[2.4484524476780756,2.4484524476780756,'
    '2.4484524476780756,2.4484524476780756,2.4484524476780756,'
    '2.4484524476780756,2.4484524476780756,2.4484524476780756,'
    '3.0571418389619964,3.0571418389619964,3.0571418389619964,'
    '3.0571418389619964],'
    '"edge_words":["","bCd","bA","d","dCbA","A","Cd","CbA","bCd","DcA",'
    '"aBd","CbA"],'
    '"edges":[0,1,0,1,0,1,0,1,0,1,0,1,0,1,0,1,1,1,1,1,1,1,1,1],'
    '"format":2,"genus":2,"level":0,'
    '"positions":[0.0,0.0,0.8408964152537145,0.0],'
    '"tri_edge_signs":[1,1,-1,1,1,-1,1,1,-1,1,1,-1,1,-1,-1,1,-1,-1,1,-1,-1,'
    '1,-1,-1],'
    '"tri_edges":[0,8,1,1,9,2,2,10,3,3,11,4,4,8,5,5,9,6,6,10,7,7,11,0]}')


def test_json_fields_match_declared_format(meshes):
    text = mesh_to_json(meshes[0])
    assert text == LEVEL_0_JSON and len(text) == 604
    m = mesh_from_json(text)
    assert (m.genus, m.level, m.num_vertices, m.num_faces) == (2, 0, 2, 8)
    assert np.array_equal(m.triangles, np.tile([0, 1, 1], (8, 1)))
    assert mesh_to_json(m) == text


def test_tampered_json_rejected(meshes):
    data = json.loads(mesh_to_json(meshes[0]))
    data["edge_lengths"][0] = 1.0  # inconsistent with positions
    with pytest.raises(MeshError):
        mesh_from_json(json.dumps(data)).validate()
    data = json.loads(mesh_to_json(meshes[0]))
    data["positions"] += [0.1, 0.2]  # a vertex no edge or triangle uses
    with pytest.raises(MeshError, match="Euler characteristic"):
        mesh_from_json(json.dumps(data)).validate()


def _slot(t, k):
    """Index of slot (t, k) in the flat slot tables."""
    return 3 * t + k


def _swap_signs(data):
    # Spoke slots (0 -> 1): a backward sign puts the slot's tail at the
    # spoke's head.  Both flipped slots fail; the earlier one is named.
    data["tri_edge_signs"][_slot(5, 0)] = -1
    data["tri_edge_signs"][_slot(2, 0)] = -1


def _reuse_edge(data):
    # Triangle 5's first slot takes spoke 4 instead of spoke 5: the slot
    # still joins vertices 0 -> 1, but spoke 4 now has three slots (and
    # spoke 5 one, later in index order).
    data["tri_edges"][_slot(5, 0)] = 4


def _first_use(data, e):
    return data["tri_edges"].index(e) // 3


def _rewrite_word(data):
    e = data["tri_edges"][_slot(10, 1)]
    data["edge_words"][e] += "a"
    return _first_use(data, e)


def _shorten_length(data):
    e = data["tri_edges"][_slot(7, 2)]
    data["edge_lengths"][e] *= 0.99
    return e


@pytest.mark.parametrize("level, edit, message", [
    (0, _swap_signs, "slot (2,0) inconsistent with edge 2"),
    (0, _reuse_edge, "edge 4 is used by 3 triangle slots, not two"),
    (1, _rewrite_word, "triangle {} has non-identity holonomy product"),
    (1, _shorten_length, "drawn length of edge {} deviates from its stored"),
])
def test_tampered_mesh_names_first_failure(meshes, level, edit, message):
    data = json.loads(mesh_to_json(meshes[level]))
    index = edit(data)
    mesh = mesh_from_json(json.dumps(data))
    with pytest.raises(MeshError, match=re.escape(message.format(index))):
        mesh.validate()


COVER_SPECS = pytest.mark.parametrize("spec", [
    CoverSpec.cyclic(1), CoverSpec.cyclic(2), CoverSpec.cyclic(3),
    NONABELIAN_SPEC],
    ids=["cyclic1", "cyclic2", "cyclic3", "nonabelian3"])


def assert_same_mesh(got, want):
    """Equal arrays (with dtypes), words, genus and level."""
    for name in ("tri_edges", "tri_edge_signs", "edges",
                 "edge_lengths", "positions", "base_vertex"):
        a, b = getattr(got, name), getattr(want, name)
        if b is None:
            assert a is None, name
        else:
            assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert got.edge_words == want.edge_words
    assert (got.genus, got.level) == (want.genus, want.level)


@pytest.mark.parametrize("level", range(4))
@COVER_SPECS
def test_cover_matches_reference_loops(meshes, level, spec):
    cover = build_cover(meshes[level], spec)
    expected, triangles = reference_build_cover(meshes[level], spec)
    assert_same_mesh(cover, expected)
    assert np.array_equal(cover.triangles, triangles)
    assert mesh_to_json(cover) == mesh_to_json(expected)
    cover.validate()


def test_refine_matches_reference_loops(meshes):
    # Base levels 1-5, and the refinement of a 2-cover, whose conjugated
    # words give more distinct slot triples than any base level.
    parents = [meshes[level] for level in range(4)]
    parents.append(build_base_surface(4))
    cover = build_cover(meshes[2], CoverSpec.cyclic(2))
    assert len(cover.slot_triples()[0]) > max(
        len(m.slot_triples()[0]) for m in parents)
    for parent in parents + [cover]:
        fine = refine(parent)
        expected, triangles = reference_refine(parent)
        assert_same_mesh(fine, expected)
        assert np.array_equal(fine.triangles, triangles)
        fine.validate()


def test_length_defects_match_edge_loop(meshes):
    def loop(mesh):
        worst = 0.0
        for e in range(mesh.num_edges):
            tail, head = mesh.edges[e]
            m = H.word_matrix(mesh.edge_words[e])
            d = float(H.disk_distance(mesh.positions[tail],
                                      H.mobius(m, mesh.positions[head])))
            worst = max(worst, abs(d - mesh.edge_lengths[e]))
        return worst

    for mesh in (meshes[3], build_cover(meshes[2], CoverSpec.cyclic(3))):
        assert mesh._length_defects().max() == loop(mesh)


def test_word_table(meshes):
    m = meshes[3]
    table = m.word_table()
    assert len(table.words) == len(set(m.edge_words))
    assert [table.words[i] for i in table.ids] == m.edge_words
    for w, mat in zip(table.words, table.matrices):
        assert np.array_equal(mat, H.word_matrix(w))
    assert m.word_table() is table


@pytest.mark.parametrize("name", list(identity_meshes()))
def test_read_back_mesh_carries_the_word_table(name):
    mesh = identity_meshes()[name]
    text = mesh_to_json(mesh)
    read = mesh_from_json(text)
    assert _read_outcome(lambda t: read, text) == _read_outcome(
        lambda t: mesh_from_dict(json.loads(t)), text)
    assert "words" in read._cache
    assert read.edge_words == mesh.edge_words
    table = read.word_table()
    fresh = dataclasses.replace(read).word_table()
    assert fresh is not table
    assert table.words == fresh.words
    assert table.ids.dtype == fresh.ids.dtype
    assert np.array_equal(table.ids, fresh.ids)
    assert table.matrices.dtype == fresh.matrices.dtype
    assert table.matrices.tobytes() == fresh.matrices.tobytes()


def test_slot_structure(meshes):
    # Every edge is used by exactly two triangle slots, once per direction.
    for m in meshes.values():
        use = np.zeros((m.num_edges, 2), dtype=int)
        for t in range(m.num_faces):
            for k in range(3):
                e = m.tri_edges[t, k]
                s = m.tri_edge_signs[t, k]
                use[e, 0 if s > 0 else 1] += 1
        assert (use == 1).all()


def assert_same_text(got, want):
    """got == want, else a failure naming the first differing line (pytest's
    own diff of two multi-megabyte texts takes minutes)."""
    if got != want:
        pairs = zip(got.split("\n") + [None], want.split("\n") + [None])
        line, (a, b) = next((i, p) for i, p in enumerate(pairs, 1)
                            if p[0] != p[1])
        pytest.fail(f"texts differ at line {line}: {a!r} != {b!r}")


def assert_matches_reference_encoder(mesh):
    """mesh_to_json gives the reference encoder's bytes, for the mesh and
    for the mesh read back from them."""
    text = mesh_to_json(mesh)
    assert_same_text(text, reference_mesh_json(mesh))
    read_back = mesh_from_json(text)
    assert_same_mesh(read_back, mesh)
    assert_same_text(mesh_to_json(read_back), text)
    assert_same_text(reference_mesh_json(read_back), text)


@pytest.mark.parametrize("level", range(5))
def test_json_matches_reference_encoder_on_bases(meshes, level):
    mesh = meshes[level] if level in meshes else build_base_surface(level)
    assert mesh.base_vertex is None
    assert_matches_reference_encoder(mesh)


@pytest.mark.parametrize("level", range(3))
@COVER_SPECS
def test_json_matches_reference_encoder_on_covers(meshes, level, spec):
    cover = build_cover(meshes[level], spec)
    assert_matches_reference_encoder(cover)
    assert_matches_reference_encoder(
        dataclasses.replace(cover, base_vertex=None))


def test_json_matches_reference_encoder_at_level_5():
    def build():
        return build_cover(build_base_surface(5), CoverSpec.cyclic(2))

    cover = build()
    assert_matches_reference_encoder(cover)
    # Deterministic: a second build gives the same bytes.
    assert_same_text(mesh_to_json(build()), mesh_to_json(cover))


def _neighbours(x):
    """x and the floats one bit below and above it."""
    return [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]


# Float values whose text is easy to get wrong when each distinct value is
# formatted once: signed zeros (equal as floats, distinct as text), the
# smallest subnormal, the magnitudes where repr switches to exponent form
# (1e16 and 1e-4), and bit neighbours, which differ only in their last
# digits.  Negative values sort apart from positive ones by bit pattern.
HARD_POSITIONS = [
    [0.0, -0.0, -0.0, 0.0],
    [5e-324, -5e-324, 0.0, -0.0],
    [1e16, 9999999999999998.0, -1e16, 1e16],
    _neighbours(1e-5) + _neighbours(-1e-5),
    _neighbours(1e-4) + [1e-4, 1.7976931348623157e308,
                         2.2250738585072014e-308],
]
HARD_LENGTHS = [
    [0.5, 0.5, 0.5, 0.5],
    _neighbours(1.0) + _neighbours(1.0) + [1.0],
    [x for x in _neighbours(np.pi) for _ in range(3)],
    _neighbours(5e-324)[1:] + _neighbours(1e16) + [0.0, 0.0],
]


@pytest.mark.parametrize("name, values", [
    *(("positions", values) for values in HARD_POSITIONS),
    *(("edge_lengths", values) for values in HARD_LENGTHS)])
def test_json_matches_reference_encoder_on_hard_values(meshes, name, values):
    mesh = dataclasses.replace(meshes[1])
    table = getattr(mesh, name).copy()
    flat = table.view(float)
    # The case twice, the second copy at the table's end, so repeats of a
    # value sit both side by side and far apart.
    flat[:len(values)] = values
    flat[-len(values):] = values
    setattr(mesh, name, table)
    assert_matches_reference_encoder(mesh)
    text = mesh_to_json(mesh)
    got = np.array(json.loads(text)[name], dtype=float)
    assert np.array_equal(got.view(np.int64), flat.view(np.int64))


@pytest.mark.parametrize("name, index, value", [
    ("positions", 3, complex(np.nan, 0.0)),
    ("positions", 0, complex(0.0, np.inf)),
    ("edge_lengths", 5, np.inf),
    ("edge_lengths", 0, -np.inf)])
def test_non_finite_mesh_data_is_not_written(monkeypatch, meshes, name, index,
                                             value):
    mesh = dataclasses.replace(meshes[1])
    setattr(mesh, name, getattr(mesh, name).copy())
    getattr(mesh, name)[index] = value
    # Nothing is formatted before the check refuses the mesh.
    monkeypatch.setattr(mesh_module, "_list_text", None)
    monkeypatch.setattr(G, "word_str", None)
    with pytest.raises(MeshError, match="not finite"):
        mesh_to_json(mesh)


def _set(key, value):
    def edit(data):
        data[key] = value
    return edit


def _edit(key, index, value):
    def edit(data):
        data[key][index] = value
    return edit


def _v1_document(data):
    document = v1_mesh_document(mesh_from_dict(data))
    data.clear()
    data.update(document)


@pytest.mark.parametrize("edit, message", [
    (lambda data: data["tri_edges"].pop(),
     "'tri_edges' is malformed: its length 23 is not a multiple of 3"),
    (_edit("tri_edges", 0, [7]), "'tri_edges' is malformed"),
    (_edit("positions", 1, "x"), "'positions' is malformed"),
    (_edit("tri_edges", 2, 1.5),
     "'tri_edges' is malformed: entry 1.5 is not an integer"),
    (_edit("edges", 1, True),
     "'edges' is malformed: entry True is not an integer"),
    (_edit("tri_edge_signs", 0, "1"),
     "'tri_edge_signs' is malformed: entry '1' is not an integer"),
    (_edit("edge_lengths", 0, False),
     "'edge_lengths' is malformed: entry False is not a number"),
    (_edit("positions", 0, "0.5"),
     "'positions' is malformed: entry '0.5' is not a number"),
    (_set("tri_edge_signs", {}), "'tri_edge_signs' is malformed"),
    (_set("base_vertex", [[0], [1]]), "'base_vertex' is malformed"),
    (_set("edge_lengths", []), "'edge_lengths' is malformed"),
    (lambda data: data.pop("edges"), "'edges' is malformed"),
    (lambda data: data.pop("genus"), "genus or level is missing"),
    (_edit("edge_words", 0, 5), "'edge_words' is malformed"),
    (_edit("edge_words", 0, ["a"]), "'edge_words' is malformed"),
    (_edit("edge_words", 0, "ax"), "invalid word string 'ax'"),
    (lambda data: data["edge_lengths"].pop(),
     "'edge_lengths' has 11 rows, not 12"),
    (_set("edge_words", [""]), "'edge_words' has 1 rows, not 12"),
    (_edit("positions", 1, None), "'positions' holds a non-finite number"),
    (_edit("edge_lengths", 2, float("nan")),
     "'edge_lengths' holds a non-finite number"),
    (lambda data: data["positions"].pop(),
     "'positions' is malformed: its length 3 is not a multiple of 2"),
    (lambda data: data.pop("format"), "mesh format None is not 2"),
    (_set("format", 3), "mesh format 3 is not 2"),
    (_v1_document, "mesh format None is not 2: rebuild the mesh"),
    (_edit("edges", 3, 2),
     "'edges' entry 3 is 2, not a vertex id in [0, 2)"),
    (_edit("edges", 0, -1),
     "'edges' entry 0 is -1, not a vertex id in [0, 2)"),
    (_edit("tri_edges", 4, 12),
     "'tri_edges' entry 4 is 12, not an edge id in [0, 12)"),
    (_edit("tri_edge_signs", 5, 0),
     "'tri_edge_signs' entry 5 is 0, not +1 or -1"),
    (_set("base_vertex", [0, -1]),
     "'base_vertex' entry 1 is -1, not a vertex id"),
    (_set("base_vertex", [0, 1, 0]), "'base_vertex' has 3 rows, not 2")],
    ids=["ragged-row", "scalar-row", "string-entry", "float-index",
         "bool-index", "string-sign", "bool-length", "string-position",
         "dict-table",
         "nested-base-vertex", "empty-table", "missing-table",
         "missing-genus", "integer-word", "list-word", "bad-letter",
         "row-disagrees", "count-disagrees", "null-position",
         "nan-length", "odd-positions", "missing-format", "format-3",
         "format-1", "edge-endpoint-above", "edge-endpoint-negative",
         "slot-edge-above", "sign-0", "negative-base-vertex",
         "long-base-vertex"])
def test_malformed_mesh_document_raises_mesh_error(meshes, edit, message):
    data = json.loads(mesh_to_json(meshes[0]))
    edit(data)
    with pytest.raises(MeshError, match=re.escape(message)):
        mesh_from_dict(data)


def test_non_object_mesh_document_raises_mesh_error():
    with pytest.raises(MeshError, match="mesh format None is not 2"):
        mesh_from_json("[1, 2]")


@pytest.mark.parametrize("value", [28, 10**6, 2**62 - 1],
                         ids=["V", "million", "2^62-1"])
def test_base_vertex_above_the_vertex_count_is_refused(meshes, value):
    # A base vertex at or above V is refused on reading, by the text
    # reader and the document reader alike; it is never written back,
    # which would format one integer string per value up to it.
    data = json.loads(mesh_to_json(build_cover(meshes[1],
                                               CoverSpec.cyclic(2))))
    assert len(data["base_vertex"]) == 28
    data["base_vertex"][3] = value
    message = (f"mesh table 'base_vertex' entry 3 is {value}, not a vertex "
               f"id in [0, 28)")
    with pytest.raises(MeshError, match=re.escape(message)):
        mesh_from_json(json.dumps(data))
    with pytest.raises(MeshError, match=re.escape(message)):
        mesh_from_dict(data)


def _spelled(key, index, spelling, layout=None):
    """The level-0 2-cover's text in layout (compact and key-sorted if
    None) with entry index of table key spelled as given."""
    def text(doc):
        doc[key][index] = "@"
        return json.dumps(doc, sort_keys=True, **layout or {
            "separators": (",", ":")}).replace('"@"', spelling)
    return text


def _prefixed(member):
    """The text with member put first in its object."""
    return lambda doc: "{" + member + "," + mesh_to_json(
        mesh_from_dict(doc))[1:]


def _last_edges(spelling):
    """The text with a second edges table, spelled as given, last."""
    return lambda doc: mesh_to_json(mesh_from_dict(doc))[:-1] + (
        f',"edges":{spelling}}}')


def _read_outcome(read, text):
    """("mesh", each table's dtype, shape and bytes, words, genus, level,
    canonical text) of the mesh read(text) gives, or ("error", type,
    message) of what it raises."""
    try:
        mesh = read(text)
    except (MeshError, ValueError) as exc:
        return "error", type(exc), str(exc)
    tables = [(a.dtype, a.shape, a.tobytes()) for a in (
        getattr(mesh, key) for key, _, _ in mesh_module.TABLES)
        if a is not None]
    return ("mesh", tables, mesh.edge_words, mesh.genus, mesh.level,
            mesh_to_json(mesh))


# (text from the level-0 2-cover's document, the JSON text whose
# json.loads + mesh_from_dict is the expected outcome (None: the same
# text), whether that outcome is a refusal).
READER_CASES = {
    "canonical": (lambda doc: mesh_to_json(mesh_from_dict(doc)), None, False),
    "format-3": (lambda doc: mesh_to_json(mesh_from_dict(doc)).replace(
        '"format":2', '"format":3'), None, True),
    "dumps-defaults": (lambda doc: json.dumps(doc), None, False),
    "indent-1": (lambda doc: json.dumps(doc, indent=1, sort_keys=True),
                 None, False),
    "trailing-comma": (_spelled("edges", -1, "0,"), None, True),
    "empty-entry": (_spelled("edges", 3, ",1"), None, True),
    "blank-entry": (_spelled("edge_lengths", 3, " ,1.5", {}), None, True),
    "lone-minus": (_spelled("tri_edge_signs", 3, "-"), None, True),
    "minus-apart": (_spelled("tri_edge_signs", 3, "- 1", {}), None, True),
    "vertical-tab": (_spelled("edges", 0, "\v0"), None, True),
    "true": (_spelled("tri_edges", 0, "true"), None, True),
    "null": (_spelled("edges", 0, "null"), None, True),
    "string": (_spelled("tri_edges", 0, '"7"'), None, True),
    "float-in-integer-table": (_spelled("tri_edges", 2, "2.5"), None, True),
    "exponent-in-integer-table": (_spelled("tri_edges", 2, "1e3"), None,
                                  True),
    "past-int64": (_spelled("edges", 1, str(2**63)), None, True),
    "below-int64": (_spelled("tri_edges", 1, str(-2**63 - 1)), None, True),
    "nan": (_spelled("edge_lengths", 1, "NaN"), None, True),
    "infinity": (_spelled("positions", 0, "Infinity"), None, True),
    "overflow": (_spelled("positions", 0, "1e999"), None, True),
    "nested-list": (_spelled("edges", 0, "[0,1]"), None, True),
    "ragged-row": (_spelled("tri_edges", -1, "0,1"), None, True),
    "key-twice": (_last_edges("[0,1]"), None, True),
    "escaped-name-in-key": (_prefixed('"\\"edges\\":[0,1]":0'), None,
                            False),
    "key-ending-in-escaped-name": (_prefixed('"a\\"edges":[0,1]'), None,
                                   False),
    "key-ending-in-name-then-nan-table": (
        lambda doc: _prefixed('"a\\"edges":[0,1]')(doc).replace(
            ',"edges":[', ',"edges":NaN,"b":['), None, True),
    # spellings NumPy reads and JSON does not: the numbers they spell
    "plus-sign": (_spelled("positions", 1, "+1"), _spelled(
        "positions", 1, "1"), False),
    "leading-zero": (_spelled("tri_edges", 1, "01"), _spelled(
        "tri_edges", 1, "1"), False),
    "no-integer-digits": (_spelled("edge_lengths", 0, ".5"), _spelled(
        "edge_lengths", 0, "0.5"), False),
    "no-fraction-digits": (_spelled("edge_lengths", 0, "1."), _spelled(
        "edge_lengths", 0, "1.0"), False),
    "plus-in-integer-table": (_spelled("tri_edges", 1, "+1"), None, True),
    # other layouts than the writer's are read by json.loads alone, so a
    # spelling JSON does not take is refused there
    "format-first": (lambda doc: json.dumps(
        {"format": 2, **doc}, separators=(",", ":")), None, False),
    "trailing-newline": (
        lambda doc: mesh_to_json(mesh_from_dict(doc)) + "\n", None, False),
    "blank-after-colon": (lambda doc: mesh_to_json(mesh_from_dict(
        doc)).replace('"edges":', '"edges": '), None, False),
    "plus-sign-indented": (_spelled("positions", 1, "+1", {"indent": 1}),
                           None, True),
}


@pytest.mark.parametrize("name", list(READER_CASES))
def test_text_reader_matches_json_reader(meshes, name):
    """mesh_from_json reads a text as mesh_from_dict(json.loads(text))
    does, table bytes and messages included, except the number spellings
    that NumPy reads and JSON does not, which it reads as the JSON
    spelling of the same number."""
    make, reference, refused = READER_CASES[name]
    doc = json.loads(mesh_to_json(build_cover(meshes[0],
                                              CoverSpec.cyclic(2))))
    text = make(json.loads(json.dumps(doc)))
    want = _read_outcome(lambda t: mesh_from_dict(json.loads(t)),
                         (reference or make)(json.loads(json.dumps(doc))))
    got = _read_outcome(mesh_from_json, text)
    assert got == want
    assert (got[0] == "error") == refused
    if reference is not None:
        with pytest.raises(json.JSONDecodeError):
            json.loads(text)
    elif got[0] == "mesh":
        assert got[-1] == mesh_to_json(mesh_from_dict(doc))


def test_null_base_vertex_reads_as_json_reads_it(meshes):
    # a cover's text with "base_vertex":null is not the writer's layout:
    # json.loads and mesh_from_dict read it as a mesh with no base vertex
    doc = json.loads(mesh_to_json(build_cover(meshes[0],
                                              CoverSpec.cyclic(2))))
    text = json.dumps({**doc, "base_vertex": None}, separators=(",", ":"),
                      sort_keys=True)
    assert mesh_module._bulk_document(text) is None
    got = _read_outcome(mesh_from_json, text)
    assert got == _read_outcome(lambda t: mesh_from_dict(json.loads(t)), text)
    assert mesh_from_json(text).base_vertex is None


def _fail(name):
    def fail(*args, **kwargs):
        raise AssertionError(f"{name} ran")
    return fail


@pytest.mark.parametrize("name", [f"l{level}{cover}" for cover in ("", "c2")
                                  for level in range(6)] + ["l2-nonabelian"])
def test_writer_layout_is_read_in_bulk(name, monkeypatch):
    """The text mesh_to_json writes is read by the walk over _KEYS alone:
    neither json.loads nor mesh_from_dict runs."""
    mesh = identity_meshes().get(name) or level_mesh(int(name[1]), 2)
    text = mesh_to_json(mesh)
    want = _read_outcome(lambda t: mesh_from_dict(json.loads(t)), text)
    monkeypatch.setattr(json, "loads", _fail("json.loads"))
    monkeypatch.setattr(mesh_module, "mesh_from_dict", _fail("mesh_from_dict"))
    read = mesh_from_json(text)
    monkeypatch.undo()
    assert _read_outcome(lambda t: read, text) == want
    assert want[-1] == text


def test_mutated_texts_read_as_json_reads_them(meshes):
    """On texts one edit away from the writer's, mesh_from_json reads what
    mesh_from_dict(json.loads(text)) reads, except where the text holds a
    number spelling that NumPy reads and JSON does not."""
    for seed, mesh in enumerate([meshes[1], build_cover(
            meshes[1], CoverSpec.cyclic(2))]):
        text = mesh_to_json(mesh)
        assert NONJSON_SPELLING.search(text) is None
        for mutated in mutated_texts(text, 150, seed):
            got = _read_outcome(mesh_from_json, mutated)
            want = _read_outcome(lambda t: mesh_from_dict(json.loads(t)),
                                 mutated)
            assert got == want or NONJSON_SPELLING.search(mutated), mutated
