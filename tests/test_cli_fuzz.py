"""Bad flag values against every subcommand that takes them, and bad mesh
files against every subcommand that reads one.

Each case must end in exit 1 (domain error) or 2 (usage error) with a
single ``error:`` or ``usage error:`` line on stderr (``verify: FAIL:``
for a run that fails verification): never a traceback, never a
non-convergence report caused by the input, never exit 0.  A tiny but
representable ``--scale`` is not a bad value: it solves, silently.
"""

import json
import os
import shutil
import warnings

import pytest

from helpers import v1_mesh_document
from todalab.cli import main
from todalab.mesh import mesh_from_json


def _set_entry(key, index, value):
    def edit(doc):
        doc[key][index] = value
        return doc
    return edit


# Mesh files every subcommand must reject on reading, each an edit of the
# level-2 base (the 2-cover for base_vertex): (edit, error message).
BAD_MESHES = {
    "slot_edge": (_set_entry("tri_edges", 0, 999),
                  "'tri_edges' entry 0 is 999, not an edge id in [0, 192)"),
    "edge_tail": (_set_entry("edges", 0, 999),
                  "'edges' entry 0 is 999, not a vertex id in [0, 62)"),
    "edge_head": (_set_entry("edges", 5, 999),
                  "'edges' entry 5 is 999, not a vertex id in [0, 62)"),
    "slot_sign": (_set_entry("tri_edge_signs", 4, 0),
                  "'tri_edge_signs' entry 4 is 0, not +1 or -1"),
    "base_vertex": (_set_entry("base_vertex", 3, -1),
                    "'base_vertex' entry 3 is -1, not a vertex id"),
    "v1_layout": (lambda doc: v1_mesh_document(mesh_from_json(
        json.dumps(doc))), "mesh format None is not 2: rebuild the mesh"),
    # genus and level are JSON integers: not a number beyond the float
    # range, a fraction or a string.
    "genus_inf": (lambda doc: {**doc, "genus": float("inf")},
                  "'genus' is inf, not an integer"),
    "level_fraction": (lambda doc: {**doc, "level": 2.5},
                       "'level' is 2.5, not an integer"),
    "genus_string": (lambda doc: {**doc, "genus": "2"},
                     "'genus' is '2', not an integer"),
}

# Density sidecars that verify --density must reject, each an edit of the
# level-2 density's divisor [[0, 1], [1, 1], [5, 1], [20, 1]].
BAD_DIVISORS = {
    "dens_repeated": [[0, 1], [0, 1], [5, 1], [20, 1]],
    "dens_mult0": [[0, 0], [1, 1], [5, 1], [20, 1]],
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Level-2 base mesh, a degree-4 density on it, its 2-cover with a
    balanced density, a level-0 mesh with a degree-4 density, background
    fields u on the base with +inf or -inf at vertex 1, the files of
    BAD_MESHES and BAD_DIVISORS, and a degree-1 density on the base whose
    sidecar states the degree as true."""
    root = tmp_path_factory.mktemp("fuzz")
    mesh, density = str(root / "base.json"), str(root / "dens")
    cover, cover_density = str(root / "cover.json"), str(root / "cdens")
    mesh0, density0 = str(root / "base0.json"), str(root / "dens0")
    assert main(["mesh", "--refine", "2", "-o", mesh]) == 0
    assert main(["section", "--mesh", mesh, "--divisor", "0:1,1:1,5:1,20:1",
                 "-o", density]) == 0
    assert main(["cover", "--mesh", mesh, "--n", "2", "-o", cover]) == 0
    assert main(["section", "--mesh", cover, "--balanced", "--base-mesh",
                 mesh, "--base-density", density, "--zero-vertex", "3",
                 "-o", cover_density]) == 0
    fields = {}
    for key, value in (("u_posinf", "inf"), ("u_neginf", "-inf")):
        fields[key] = str(root / f"{key}.csv")
        rows = [f"{i},{value if i == 1 else 0.0}" for i in range(62)]
        with open(fields[key], "w") as handle:
            handle.write("\n".join(["vertex_index,u", *rows]) + "\n")
    assert main(["mesh", "--refine", "0", "-o", mesh0]) == 0
    assert main(["section", "--mesh", mesh0, "--divisor", "0:2,1:2",
                 "-o", density0]) == 0
    bad = {}
    for name, (edit, _) in BAD_MESHES.items():
        with open(cover if name == "base_vertex" else mesh) as handle:
            doc = edit(json.load(handle))
        bad[name] = str(root / f"{name}.json")
        with open(bad[name], "w") as handle:
            json.dump(doc, handle)
    for name, divisor in BAD_DIVISORS.items():
        bad[name] = str(root / name)
        shutil.copy(density + ".csv", bad[name] + ".csv")
        with open(density + ".json") as handle:
            sidecar = json.load(handle)
        with open(bad[name] + ".json", "w") as handle:
            json.dump({**sidecar, "divisor": divisor}, handle)
    bad["dens_degree_true"] = str(root / "dens_degree_true")
    assert main(["section", "--mesh", mesh, "--divisor", "1:1",
                 "-o", bad["dens_degree_true"]]) == 0
    with open(bad["dens_degree_true"] + ".json") as handle:
        sidecar = json.load(handle)
    assert sidecar["degree"] == 1
    with open(bad["dens_degree_true"] + ".json", "w") as handle:
        json.dump({**sidecar, "degree": True}, handle)
    return {"mesh": mesh, "density": density, "cover": cover,
            "cover_density": cover_density, "mesh0": mesh0,
            "density0": density0, **fields, **bad}


def _solve(command, *flags):
    return [command, "--mesh", "{mesh}", "--density", "{density}",
            *flags, "-o", "{out}/run"]


def _gauss(*flags):
    return ["solve-gauss", "--mesh", "{mesh}", *flags, "-o", "{out}/g"]


def _section(divisor):
    return ["section", "--mesh", "{mesh}", "--divisor", divisor,
            "-o", "{out}/d"]


# (argv with {mesh}, {density} and {out} filled in, exit code, stderr text)
CASES = {
    # c = 0 against a density that does not vanish: no solution.
    "coupled-degree-0": (_solve("solve-coupled", "--degree", "0"), 1,
                         "error: c = 0 is not positive"),
    "ricci-degree-0": (_solve("solve-ricci", "--degree", "0"), 1,
                       "error: c = 0 is not positive"),
    # t lies in (0, 1] for solve-ricci as for solve-coupled, one rule with
    # one message.
    "ricci-scale-0": (_solve("solve-ricci", "--scale", "0"), 2,
                      "rescaling knob t must lie in (0, 1]"),
    "ricci-scale-nan": (_solve("solve-ricci", "--scale", "nan"), 2,
                        "rescaling knob t must lie in (0, 1]"),
    "ricci-scale-inf": (_solve("solve-ricci", "--scale", "inf"), 2,
                        "rescaling knob t must lie in (0, 1]"),
    "ricci-scale-above-1": (_solve("solve-ricci", "--scale", "1.5"), 2,
                            "rescaling knob t must lie in (0, 1]"),
    "coupled-scale-0": (
        _solve("solve-coupled", "--degree", "1", "--scale", "0"), 2,
        "rescaling knob t must lie in (0, 1]"),
    "coupled-scale-nan": (
        _solve("solve-coupled", "--degree", "1", "--scale", "nan"), 2,
        "rescaling knob t must lie in (0, 1]"),
    # A degree beyond the float range leaves c undefined.
    "ricci-degree-huge": (_solve("solve-ricci", "--degree", "1" + "0" * 400),
                          2, "int too large to convert to float"),
    # Below d t = 1.8e-309 the J ascent's matrix (2/(c Vol)) S overflows;
    # tiny scales above it solve (test_tiny_scale_solves_silently).
    "ricci-scale-below-float-range": (
        _solve("solve-ricci", "--scale", "1e-310"), 2, "d t = 1e-310 "),
    "coupled-scale-below-float-range": (
        _solve("solve-coupled", "--degree", "1", "--scale", "1e-310"), 2,
        "d t = 1e-310 "),
    # On the 2-cover, c = 2 pi d t / Vol rounds to 0 at d t = 5e-324: the
    # scale is too small, not the degree infeasible.
    "ricci-scale-c-rounds-to-0": (
        ["solve-ricci", "--mesh", "{cover}", "--density", "{cover_density}",
         "--scale", "5e-324", "-o", "{out}/run"], 2,
        "d t = 4.94066e-324 with c = 2 pi d t / Vol is too small: c rounds "
        "to 0"),
    "coupled-scale-c-rounds-to-0": (
        ["solve-coupled", "--mesh", "{cover}", "--density",
         "{cover_density}", "--degree", "1", "--scale", "5e-324", "-o",
         "{out}/run"], 2,
        "d t = 4.94066e-324 with c = 2 pi d t / Vol is too small: c rounds "
        "to 0"),
    # A background u that is not finite would give v = -inf everywhere.
    "ricci-u-posinf": (
        _solve("solve-ricci", "--u", "{u_posinf}", "--scale", "0.1"), 2,
        "u must be finite: u = inf at vertex 1"),
    "ricci-u-neginf": (
        _solve("solve-ricci", "--u", "{u_neginf}", "--scale", "0.1"), 2,
        "u must be finite: u = -inf at vertex 1"),
    "gauss-constant-nan": (_gauss("--constant", "nan"), 2,
                           "data f must be finite"),
    # Tolerances, the iteration caps, the Gauss method and the density
    # normalization are constants of the library, not flags.
    "gauss-tol-nan": (_gauss("--constant", "0.1", "--tol", "nan"), 2,
                      "unrecognized arguments: --tol"),
    "gauss-method": (_gauss("--constant", "0.1", "--method", "monotone"), 2,
                     "unrecognized arguments: --method"),
    "ricci-tol-nan": (_solve("solve-ricci", "--tol", "nan"), 2,
                      "unrecognized arguments: --tol"),
    "coupled-max-outer": (_solve("solve-coupled", "--max-outer", "5"), 2,
                          "unrecognized arguments: --max-outer"),
    "coupled-tol-outer-inf": (_solve("solve-coupled", "--tol-outer", "inf"),
                              2, "unrecognized arguments: --tol-outer"),
    # The coupled solve is one Newton loop: there is no damping to set.
    "coupled-theta": (_solve("solve-coupled", "--theta", "0.5"), 2,
                      "unrecognized arguments: --theta"),
    "verify-tol-nan": (["verify", "--mesh", "{mesh}", "--density",
                        "{density}", "--tol", "nan"], 2,
                       "unrecognized arguments: --tol"),
    "section-normalization": ([*_section("0:1"), "--normalization",
                               "unit_sup"], 2,
                              "unrecognized arguments: --normalization"),
    "probe-samples-negative": (["probe", "--mesh", "{mesh}", "--samples",
                                "-1"], 2, "--samples must be at least 1"),
    "probe-seed-negative": (["probe", "--mesh", "{mesh}", "--seed", "-1"], 2,
                            "--seed must be >= 0, got -1"),
    "probe-samples-0": (["probe", "--mesh", "{mesh}", "--samples", "0"], 2,
                        "--samples must be at least 1"),
    "mesh-missing-directory": (["mesh", "-o", "{out}/missing/base.json"], 2,
                               "does not exist"),
    # --seed is a flag of probe alone, the one subcommand it changes.
    "mesh-seed": (["mesh", "--seed", "1", "-o", "{out}/base.json"], 2,
                  "unrecognized arguments: --seed 1"),
    # Flags are the one way to set a value: there is no config file.
    "mesh-config": (["mesh", "--config", "x.json", "-o", "{out}/base.json"],
                    2, "unrecognized arguments: --config"),
    # A malformed --divisor names the flag and its form.
    "divisor-no-colon": (_section("abc"), 2,
                         "--divisor expects integer vertex:mult pairs"),
    "divisor-bad-mult": (_section("0:x"), 2,
                         "--divisor expects integer vertex:mult pairs"),
    # A divisor the sidecar states but Divisor refuses names the file.
    "density-divisor-repeated": (
        ["verify", "--mesh", "{mesh}", "--density", "{dens_repeated}"], 1,
        "dens_repeated.json divisor: divisor vertices must be distinct"),
    "density-divisor-mult-0": (
        ["verify", "--mesh", "{mesh}", "--density", "{dens_mult0}"], 1,
        "dens_mult0.json divisor: divisor multiplicities must be >= 1"),
    # A JSON true is not an integer, though Python's bool is an int.
    "density-degree-true": (
        ["verify", "--mesh", "{mesh}", "--density", "{dens_degree_true}"], 1,
        "dens_degree_true.json has no valid 'degree' field"),
    # A density comes from one source: a divisor, a balanced lift or the
    # zero section.
    "section-divisor-zero": ([*_section("0:1"), "--zero"], 2,
                             "argument --zero: not allowed with argument "
                             "--divisor"),
    "section-divisor-balanced": ([*_section("0:1"), "--balanced"], 2,
                                 "argument --balanced: not allowed with "
                                 "argument --divisor"),
    "section-zero-balanced": (["section", "--mesh", "{mesh}", "--zero",
                               "--balanced", "-o", "{out}/d"], 2,
                              "argument --balanced: not allowed with "
                              "argument --zero"),
    # The cover's vertex count is a multiple of the base's, but its
    # covering map names vertices the base mesh does not have.
    "balanced-base-mismatch": (
        ["section", "--mesh", "{cover}", "--balanced", "--base-mesh",
         "{mesh0}", "--base-density", "{density0}", "--zero-vertex", "3",
         "-o", "{out}/d"], 1,
        "the cover mesh (124 vertices) does not cover the base mesh "
        "(2 vertices)"),
}

# Every subcommand that reads a mesh, with {bad} for the mesh file.
MESH_READERS = {
    "cover": ["cover", "--mesh", "{bad}", "--n", "2", "-o", "{out}/c.json"],
    "section": ["section", "--mesh", "{bad}", "--divisor", "0:1",
                "-o", "{out}/d"],
    "solve-gauss": ["solve-gauss", "--mesh", "{bad}", "--constant", "0.1",
                    "-o", "{out}/g"],
    "solve-ricci": ["solve-ricci", "--mesh", "{bad}", "--density",
                    "{density}", "-o", "{out}/r"],
    "solve-coupled": ["solve-coupled", "--mesh", "{bad}", "--density",
                      "{density}", "-o", "{out}/run"],
    "verify": ["verify", "--mesh", "{bad}"],
    "export": ["export", "--mesh", "{bad}", "--run", "{out}/run",
               "-o", "{out}/f.vtk"],
    "probe": ["probe", "--mesh", "{bad}"],
}


def _assert_one_error_line(argv, code, message, tmp_path, capsys):
    assert main(argv) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1, err
    assert lines[0].startswith("error:" if code == 1 else "usage error:")
    assert message in lines[0]
    # Output directories are never created on the way (only solve-coupled
    # makes its run directory, after a successful solve).
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("name", CASES)
def test_bad_input_is_one_error_line(name, workspace, tmp_path, capsys):
    argv, code, message = CASES[name]
    argv = [arg.format(out=tmp_path, **workspace) for arg in argv]
    _assert_one_error_line(argv, code, message, tmp_path, capsys)


@pytest.mark.parametrize("scale", ["1e-155", "1e-200"])
@pytest.mark.parametrize("command", ["solve-ricci", "solve-coupled"])
def test_tiny_scale_solves_silently(command, scale, workspace, tmp_path,
                                    capsys):
    # A tiny --scale is a valid input: the J ascent's Newton matrix, about
    # 1e199 S at 1e-200, is solved scaled down, so the run exits 0 with
    # nothing on stderr and no floating-point warning.
    argv = [arg.format(out=tmp_path, **workspace)
            for arg in _solve(command, "--degree", "1", "--scale", scale)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("mesh", BAD_MESHES)
@pytest.mark.parametrize("command", MESH_READERS)
def test_bad_mesh_file_is_one_error_line(command, mesh, workspace, tmp_path,
                                         capsys):
    argv = [arg.format(out=tmp_path, bad=workspace[mesh], **workspace)
            for arg in MESH_READERS[command]]
    _assert_one_error_line(argv, 1, BAD_MESHES[mesh][1], tmp_path, capsys)


@pytest.fixture(scope="module")
def run_dir(workspace, tmp_path_factory):
    """A solved run on the workspace mesh and density."""
    out = tmp_path_factory.mktemp("fuzz_run")
    argv = [arg.format(out=out, **workspace)
            for arg in _solve("solve-coupled")]
    assert main(argv) == 0
    return str(out / "run")


def _replace_row(path, row):
    """Overwrite the row of vertex 1 (line 3) of a field CSV."""
    with open(path) as handle:
        rows = handle.read().splitlines()
    rows[2] = row
    with open(path, "w") as handle:
        handle.write("\n".join(rows) + "\n")


def _verify_failure(run, capsys):
    """The one stderr line of a ``verify --run`` that must exit 1."""
    assert main(["verify", "--run", run]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1, err
    assert lines[0].startswith("verify: FAIL:")
    return lines[0]


@pytest.mark.parametrize("row", ["1,abc", "1,0.5,7", "x,0.5"])
def test_malformed_field_row_fails_verify(row, run_dir, tmp_path, capsys):
    run = str(tmp_path / "run")
    shutil.copytree(run_dir, run)
    path = os.path.join(run, "u.csv")
    _replace_row(path, row)
    assert f"{path} line 3 " in _verify_failure(run, capsys)


def test_changed_density_fails_on_its_hash(run_dir, workspace, tmp_path,
                                           capsys):
    # The hashes are checked before the density is parsed, so a corrupted
    # density file reports its hash, not a parse error.
    run = str(tmp_path / "run")
    shutil.copytree(run_dir, run)
    density = str(tmp_path / "dens")
    for ext in (".csv", ".json"):
        shutil.copy(workspace["density"] + ext, density + ext)
    _replace_row(density + ".csv", "1,abc")
    manifest_path = os.path.join(run, "manifest.json")
    with open(manifest_path) as handle:
        manifest = json.load(handle)
    manifest["density"] = density
    with open(manifest_path, "w") as handle:
        json.dump(manifest, handle)
    assert "density_csv file hash changed" in _verify_failure(run, capsys)


@pytest.mark.parametrize("field", ["degree", "outer_iters", "eta", "t"])
def test_true_certificate_number_fails_verify(field, run_dir, tmp_path,
                                              capsys):
    # A JSON true in a number field of the certificate is refused by name,
    # before anything is recomputed.
    run = str(tmp_path / "run")
    shutil.copytree(run_dir, run)
    path = os.path.join(run, "certificate.json")
    with open(path) as handle:
        certificate = json.load(handle)
    with open(path, "w") as handle:
        json.dump({**certificate, field: True}, handle)
    assert _verify_failure(run, capsys) == (
        f"verify: FAIL: {path} has no valid {field!r} field")
