"""End-to-end exercises of the command-line front end (in-process)."""

import json
import os
import re
import shlex
import shutil

import numpy as np
import pytest

from helpers import reference_read_field_csv
from todalab import cli, fileio
from todalab.cli import main
from todalab.errors import TodaError
from todalab.mesh import mesh_from_json


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Base mesh, 2-cover, base density, and a lifted balanced density."""
    root = tmp_path_factory.mktemp("cli")
    paths = {
        "base": str(root / "base.json"),
        "cover": str(root / "cover.json"),
        "base_dens": str(root / "base_dens"),
        "cover_dens": str(root / "cover_dens"),
        "root": root,
    }
    assert main(["mesh", "--genus2", "--refine", "2",
                 "-o", paths["base"]]) == 0
    assert main(["cover", "--mesh", paths["base"], "--n", "2",
                 "-o", paths["cover"]]) == 0
    assert main(["section", "--mesh", paths["base"],
                 "--divisor", "0:1,1:1,5:1,20:1",
                 "-o", paths["base_dens"]]) == 0
    assert main(["section", "--mesh", paths["cover"], "--balanced",
                 "--base-mesh", paths["base"],
                 "--base-density", paths["base_dens"],
                 "--zero-vertex", "3",
                 "-o", paths["cover_dens"]]) == 0
    return paths


def test_mesh_and_cover_files(workspace):
    with open(workspace["base"]) as handle:
        base = mesh_from_json(handle.read())
    assert base.genus == 2
    assert base.num_vertices == 62
    with open(workspace["cover"]) as handle:
        cover = mesh_from_json(handle.read())
    assert cover.genus == 3
    assert cover.num_vertices == 124


def test_section_files(workspace):
    with open(workspace["cover_dens"] + ".json") as handle:
        sidecar = json.load(handle)
    assert sidecar["degree"] == 9
    assert len(sidecar["divisor"]) == 9


def test_solve_gauss_constant(workspace, tmp_path):
    out = str(tmp_path / "g")
    assert main(["solve-gauss", "--mesh", workspace["base"],
                 "--constant", "0.1", "-o", out]) == 0
    _, u = fileio.read_field_csv(out + "_u.csv", "u")
    expected = 0.5 * np.log(0.5 * (1 + np.sqrt(1 - 0.4)))
    assert np.abs(u - expected).max() < 1e-10
    report = fileio.read_json(out + "_gauss.json")
    assert report["residual"] <= 1e-10


def test_solve_gauss_rejects_inadmissible(workspace, tmp_path, capsys):
    # Both numbers print as round-trip floats, so a value just above the
    # bound does not read as equal to it.
    out = str(tmp_path / "g")
    for constant in ("0.3", "0.2500001"):
        code = main(["solve-gauss", "--mesh", workspace["base"],
                     "--constant", constant, "-o", out])
        assert code == 1
        assert (f"sup f = {constant} exceeds the admissible bound 0.25 for "
                f"eta = 1.0") in capsys.readouterr().err


def test_solve_gauss_rejects_empty_data(workspace, tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    code = main(["solve-gauss", "--mesh", workspace["base"],
                 "--data", str(empty), "-o", str(tmp_path / "g")])
    assert code == 1
    assert "is empty" in capsys.readouterr().err


def test_solve_ricci_and_zero_density_error(workspace, tmp_path):
    out = str(tmp_path / "r")
    assert main(["solve-ricci", "--mesh", workspace["base"],
                 "--density", workspace["base_dens"],
                 "--scale", "0.1", "--degree", "1", "-o", out]) == 0
    report = fileio.read_json(out + "_ricci.json")
    assert report["grad_norm"] <= 1e-9

    zero_prefix = str(tmp_path / "zero")
    assert main(["section", "--mesh", workspace["base"], "--zero",
                 "-o", zero_prefix]) == 0
    code = main(["solve-ricci", "--mesh", workspace["base"],
                 "--density", zero_prefix, "-o", str(tmp_path / "rz")])
    assert code == 1


@pytest.mark.parametrize("command", ["solve-ricci", "solve-coupled"])
def test_rho_at_8_pi_is_refused(workspace, tmp_path, capsys, command):
    # Degree 2 at scale 1 puts rho = 2 c Vol at 8 pi, where J has no
    # maximizer: one line naming rho/8pi, exit 1, no output written.
    out = str(tmp_path / "out")
    code = main([command, "--mesh", workspace["base"], "--density",
                 workspace["base_dens"], "--degree", "2", "--scale", "1",
                 "-o", out])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: rho/8pi = 1 ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert os.listdir(tmp_path) == []


def test_coupled_run_verify_export_deterministic(workspace, tmp_path,
                                                 monkeypatch):
    run1 = str(tmp_path / "run1")
    run2 = str(tmp_path / "run2")
    cli_args = ["solve-coupled", "--mesh", workspace["cover"],
                "--density", workspace["cover_dens"], "--degree", "1"]
    assert main(cli_args + ["-o", run1]) == 0
    assert main(cli_args + ["-o", run2]) == 0

    # Determinism: both runs produce byte-identical artifacts.
    for name in ("u.csv", "v.csv", "certificate.json", "manifest.json"):
        with open(os.path.join(run1, name), "rb") as h1, \
             open(os.path.join(run2, name), "rb") as h2:
            assert h1.read() == h2.read(), name

    cert = fileio.read_json(os.path.join(run1, "certificate.json"))
    assert cert["converged"] is True
    assert cert["almost_fuchsian"] is True
    assert cert["sup_af"] < 0.5

    assert main(["verify", "--run", run1]) == 0

    # With --mesh, the run is checked against the mesh already parsed.
    reads = []
    read_mesh = cli._read_mesh
    monkeypatch.setattr(cli, "_read_mesh",
                        lambda path: reads.append(path) or read_mesh(path))
    assert main(["verify", "--mesh", workspace["cover"],
                 "--density", workspace["cover_dens"], "--run", run1]) == 0
    assert reads == [workspace["cover"]]

    # ... and the density read for --density is the one the run uses.
    density_reads = []
    read_density = fileio.read_density
    monkeypatch.setattr(
        fileio, "read_density",
        lambda prefix, mesh: density_reads.append(prefix)
        or read_density(prefix, mesh))
    assert main(["verify", "--mesh", workspace["cover"],
                 "--density", workspace["cover_dens"], "--run", run1]) == 0
    assert density_reads == [workspace["cover_dens"]]

    # Tampering with the certificate must fail verification.
    cert_path = os.path.join(run1, "certificate.json")
    cert["sup_af"] = 0.0
    fileio.write_json(cert_path, cert)
    assert main(["verify", "--run", run1]) == 1

    vtk = str(tmp_path / "fields.vtk")
    assert main(["export", "--mesh", workspace["cover"], "--run", run2,
                 "-o", vtk]) == 0
    with open(vtk) as handle:
        text = handle.read()
    assert text.startswith("# vtk DataFile Version 3.0")
    assert "SCALARS af_integrand double 1" in text
    assert "np.float64" not in text


def _corrupt_density(workspace, tmp_path, vertex, value):
    """Copy of the cover density with one row's value replaced."""
    prefix = str(tmp_path / "bad_dens")
    with open(workspace["cover_dens"] + ".csv") as handle:
        rows = handle.read().splitlines()
    rows[vertex + 1] = f"{vertex},{value}"
    with open(prefix + ".csv", "w") as handle:
        handle.write("\n".join(rows) + "\n")
    with open(workspace["cover_dens"] + ".json") as src, \
         open(prefix + ".json", "w") as dst:
        dst.write(src.read())
    return prefix


@pytest.mark.parametrize("value, message", [
    ("nan", "holds NaN at vertex 7"), ("inf", "holds +inf at vertex 7")])
@pytest.mark.parametrize("command", ["solve-coupled", "verify"])
def test_non_finite_density_is_rejected(workspace, tmp_path, capsys,
                                        command, value, message):
    prefix = _corrupt_density(workspace, tmp_path, 7, value)
    argv = [command, "--mesh", workspace["cover"], "--density", prefix]
    if command == "solve-coupled":
        argv += ["--degree", "1", "-o", str(tmp_path / "run")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert prefix + ".csv" in err and message in err


@pytest.mark.parametrize("command", ["solve-coupled", "verify"])
def test_partial_neg_inf_density_is_rejected(workspace, tmp_path, capsys,
                                             command):
    # -inf at every vertex is the zero section; at some vertices only it
    # is no density at all.
    prefix = _corrupt_density(workspace, tmp_path, 7, "-inf")
    argv = [command, "--mesh", workspace["cover"], "--density", prefix]
    if command == "solve-coupled":
        argv += ["--degree", "1", "-o", str(tmp_path / "run")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert prefix + ".csv" in err and "holds -inf at vertex 7" in err
    assert not os.path.exists(tmp_path / "run")


def test_verify_mesh_and_density(workspace):
    assert main(["verify", "--mesh", workspace["base"],
                 "--density", workspace["base_dens"]]) == 0


def test_probe_report(workspace, tmp_path):
    out = str(tmp_path / "probe.json")
    assert main(["probe", "--mesh", workspace["base"], "--samples", "2",
                 "-o", out]) == 0
    report = fileio.read_json(out)
    assert set(report) == {"spectral", "mt_constant", "samples", "seed"}
    assert report["spectral"]["lambda0"] <= 1e-10
    assert report["spectral"]["lambda1"] > 0
    assert report["mt_constant"] > 0


def test_output_files_follow_the_umask(tmp_path):
    path = str(tmp_path / "base.json")
    old = os.umask(0o027)
    try:
        assert main(["mesh", "-o", path]) == 0
    finally:
        os.umask(old)
    assert os.stat(path).st_mode & 0o777 == 0o640


def readme_commands():
    """Every ``toda`` command of the README's sh blocks, in order, with
    backslash continuations joined."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path) as handle:
        blocks = re.findall(r"^```sh\n(.*?)^```", handle.read(),
                            re.DOTALL | re.MULTILINE)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line, comments=True) for line in lines]
    return [argv[1:] for argv in commands if argv[:1] == ["toda"]]


def test_readme_commands_run(tmp_path, monkeypatch):
    # The docs show no flag the CLI does not have: each command runs.
    commands = readme_commands()
    assert {argv[0] for argv in commands} == {
        "mesh", "cover", "section", "solve-coupled", "verify", "export",
        "solve-gauss", "solve-ricci", "probe"}
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == 0, argv


def test_usage_errors(workspace, tmp_path):
    # Unknown subcommand -> argparse exit 2.
    assert main(["frobnicate"]) == 2
    # Missing input file -> usage error 2.
    assert main(["cover", "--mesh", str(tmp_path / "nope.json"),
                 "--n", "2", "-o", str(tmp_path / "x.json")]) == 2
    # Section without a mode -> ValueError -> 2.
    assert main(["section", "--mesh", workspace["base"],
                 "-o", str(tmp_path / "d")]) == 2
    # Degree out of range -> domain error 1.
    code = main(["solve-coupled", "--mesh", workspace["base"],
                 "--density", workspace["base_dens"], "--degree", "5",
                 "-o", str(tmp_path / "bad")])
    assert code == 1


@pytest.mark.parametrize("argv, vertex, V", [
    (["--mesh", "base", "--divisor", "99999:1"], 99999, 62),
    (["--mesh", "base", "--divisor=-1:1"], -1, 62),
    (["--mesh", "cover", "--balanced", "--zero-vertex", "5000"], 5000, 124),
    (["--mesh", "cover", "--balanced", "--zero-vertex=-2"], -2, 124)])
def test_section_rejects_divisor_vertex_outside_mesh(workspace, tmp_path,
                                                     capsys, argv, vertex, V):
    argv = [workspace.get(arg, arg) for arg in argv]
    if "--balanced" in argv:
        argv += ["--base-mesh", workspace["base"],
                 "--base-density", workspace["base_dens"]]
    out = str(tmp_path / "d")
    assert main(["section"] + argv + ["-o", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert f"divisor vertex {vertex} " in err and f"V = {V}" in err
    assert not os.path.exists(out + ".csv")


@pytest.mark.parametrize("vertex", [-1, 124])
def test_read_density_rejects_divisor_vertex_outside_mesh(workspace, tmp_path,
                                                          vertex):
    prefix = str(tmp_path / "dens")
    for ext in (".csv", ".json"):
        shutil.copy(workspace["cover_dens"] + ext, prefix + ext)
    sidecar = fileio.read_json(prefix + ".json")
    sidecar["divisor"][0][0] = vertex
    fileio.write_json(prefix + ".json", sidecar)
    with open(workspace["cover"]) as handle:
        cover = mesh_from_json(handle.read())
    with pytest.raises(TodaError, match=f"divisor vertex {vertex} "):
        fileio.read_density(prefix, cover)


@pytest.fixture(scope="module")
def run_dir(workspace):
    run = str(workspace["root"] / "run")
    assert main(["solve-coupled", "--mesh", workspace["cover"],
                 "--density", workspace["cover_dens"], "--degree", "1",
                 "-o", run]) == 0
    return run


def test_field_files_read_as_the_row_by_row_reader_reads_them(
        workspace, run_dir, tmp_path):
    out = str(tmp_path / "out")
    assert main(["solve-gauss", "--mesh", workspace["base"],
                 "--constant", "0.1", "-o", out]) == 0
    assert main(["solve-ricci", "--mesh", workspace["base"],
                 "--density", workspace["base_dens"], "--scale", "0.1",
                 "--degree", "1", "-o", out]) == 0
    paths = [workspace["base_dens"] + ".csv", workspace["cover_dens"] + ".csv",
             os.path.join(run_dir, "u.csv"), os.path.join(run_dir, "v.csv"),
             out + "_u.csv", out + "_v.csv"]
    for path in paths:
        name, values = fileio.read_field_csv(path)
        old_name, old = reference_read_field_csv(path)
        assert name == old_name
        assert values.tobytes() == old.tobytes()


def _drop_key(key):
    def edit(doc):
        del doc[key]
        return doc
    return edit


def _set_key(key, value):
    def edit(doc):
        doc[key] = value
        return doc
    return edit


@pytest.mark.parametrize("name, edit, message", [
    ("manifest.json", _drop_key("hashes"), "has no valid 'hashes' field"),
    ("manifest.json", lambda doc: [doc], "holds a JSON list, not an object"),
    ("certificate.json", _drop_key("eta"), "has no valid 'eta' field"),
    ("u.csv", None, "holds 4 values for a mesh with 124 vertices"),
    ("manifest.json", "{not json", "is not valid JSON"),
    # Every input's hash is checked: a missing one is no hash to skip.
    pytest.param("manifest.json", _set_key("hashes", {}),
                 "mesh file hash changed since the run",
                 id="manifest-no-hashes"),
    # An eta outside (0, 1] is bad run data, not a bad command line.
    pytest.param("certificate.json", _set_key("eta", 5),
                 "eta must lie in (0, 1]", id="certificate-eta-5"),
    pytest.param("certificate.json", _set_key("eta", 0),
                 "eta must lie in (0, 1]", id="certificate-eta-0"),
    pytest.param("certificate.json", _set_key("t", 10 ** 400),
                 "int too large to convert to float",
                 id="certificate-t-huge-int"),
    # A missing run file fails the run, it is no bad command line.
    *[pytest.param(name, os.remove, "No such file or directory",
                   id=f"{name}-missing")
      for name in ("u.csv", "v.csv", "certificate.json", "manifest.json")],
    # So does a run input the manifest names that is gone.
    pytest.param("manifest.json", _set_key("mesh", "gone.json"),
                 "mesh file gone.json: No such file or directory",
                 id="manifest-mesh-gone")])
def test_verify_reports_malformed_run_files(run_dir, tmp_path, capsys,
                                            name, edit, message):
    run = str(tmp_path / "run")
    shutil.copytree(run_dir, run)
    path = os.path.join(run, name)
    if edit is None:
        fileio.write_field_csv(path, "u", np.zeros(4))
    elif edit is os.remove:
        os.remove(path)
    elif isinstance(edit, str):
        fileio.atomic_write_text(path, edit)
    else:
        fileio.write_json(path, edit(fileio.read_json(path)))
    assert main(["verify", "--run", run]) == 1
    err = capsys.readouterr().err
    assert err.startswith("verify: FAIL:")
    assert path in err and message in err


def test_verify_fails_converged_run_with_nan_residuals(run_dir, workspace,
                                                      tmp_path, capsys):
    from todalab.coupled import certify
    with open(workspace["cover"]) as handle:
        cover = mesh_from_json(handle.read())
    density = fileio.read_density(workspace["cover_dens"], cover)
    cases = [
        # Infinite fields give NaN residuals, which no "> tol" test catches.
        ("nan", {"u": (5, -np.inf), "v": (5, np.inf)}, True),
        # A run certified as not converged fails whatever its residuals
        # (here both exceed 4).
        ("unconverged", {"u": (slice(None), -0.1), "v": (slice(None), 0.0)},
         False)]
    for case, edits, converged in cases:
        run = str(tmp_path / case)
        shutil.copytree(run_dir, run)
        fields = {}
        for name, (index, value) in edits.items():
            path = os.path.join(run, name + ".csv")
            _, fields[name] = fileio.read_field_csv(path, name)
            fields[name][index] = value
            fileio.write_field_csv(path, name, fields[name])
        path = os.path.join(run, "certificate.json")
        stored = fileio.read_json(path)
        with np.errstate(invalid="ignore", over="ignore"):
            cert = certify(cover, fields["u"], fields["v"], density,
                           eta=stored["eta"], degree=stored["degree"],
                           t=stored["t"], outer_iters=stored["outer_iters"],
                           converged=converged).to_dict()
            for key in ("gauss_residual", "ricci_residual"):
                assert np.isnan(cert[key]) if converged else cert[key] > 4
            fileio.write_json(path, cert)
            assert main(["verify", "--mesh", workspace["cover"], "--density",
                         workspace["cover_dens"], "--run", run]) == 1, case
        assert "the run is not converged" in capsys.readouterr().err, case


@pytest.mark.parametrize("c_L, shown", [
    pytest.param(float("nan"), "nan", id="nan"),
    pytest.param(float("inf"), "inf", id="inf"),
    # float() of an integer this large overflows; it reads as inf, like the
    # JSON number 1e400.
    pytest.param(10 ** 400, "inf", id="huge-int")])
def test_read_density_rejects_non_finite_c_L(workspace, tmp_path, capsys,
                                             c_L, shown):
    # A NaN c_L makes the curvature residual NaN, which no "> tol" catches.
    prefix = str(tmp_path / "dens")
    for ext in (".csv", ".json"):
        shutil.copy(workspace["base_dens"] + ext, prefix + ext)
    sidecar = fileio.read_json(prefix + ".json")
    sidecar["c_L"] = c_L
    fileio.write_json(prefix + ".json", sidecar)
    assert main(["verify", "--mesh", workspace["base"],
                 "--density", prefix]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert prefix + ".json" in err and f"c_L = {shown}, not a finite" in err


@pytest.mark.parametrize("entry", [5, [0], [0, 1.5], ["0", 1], [0, True]])
def test_read_density_rejects_malformed_divisor_entry(workspace, tmp_path,
                                                      capsys, entry):
    prefix = str(tmp_path / "dens")
    for ext in (".csv", ".json"):
        shutil.copy(workspace["base_dens"] + ext, prefix + ext)
    sidecar = fileio.read_json(prefix + ".json")
    sidecar["divisor"][0] = entry
    fileio.write_json(prefix + ".json", sidecar)
    assert main(["verify", "--mesh", workspace["base"],
                 "--density", prefix]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert prefix + ".json" in err and "divisor entry 0 " in err


@pytest.mark.parametrize("name, message", [
    ("manifest.json", "has no valid 'density' field"),
    ("u.csv", "holds 4 values for a mesh with 124 vertices")])
def test_export_reports_malformed_run_files(run_dir, workspace, tmp_path,
                                            capsys, name, message):
    run = str(tmp_path / "run")
    shutil.copytree(run_dir, run)
    path = os.path.join(run, name)
    if name == "u.csv":
        fileio.write_field_csv(path, "u", np.zeros(4))
    else:
        fileio.write_json(path, _drop_key("density")(fileio.read_json(path)))
    vtk = str(tmp_path / "fields.vtk")
    assert main(["export", "--mesh", workspace["cover"], "--run", run,
                 "-o", vtk]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert path in err and message in err
    assert not os.path.exists(vtk)


@pytest.mark.parametrize("name", ["manifest.json", "u.csv", "v.csv"])
def test_export_reports_missing_run_files(run_dir, workspace, tmp_path,
                                          capsys, name):
    # A missing run file fails the run, as in verify: it is no bad
    # command line.
    run = str(tmp_path / "run")
    shutil.copytree(run_dir, run)
    path = os.path.join(run, name)
    os.remove(path)
    vtk = str(tmp_path / "fields.vtk")
    assert main(["export", "--mesh", workspace["cover"], "--run", run,
                 "-o", vtk]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {path}: No such file or directory"]
    assert not os.path.exists(vtk)


def test_export_with_density_reads_no_manifest(run_dir, workspace, tmp_path):
    run = str(tmp_path / "run")
    shutil.copytree(run_dir, run)
    os.remove(os.path.join(run, "manifest.json"))
    vtks = [str(tmp_path / "a.vtk"), str(tmp_path / "b.vtk")]
    for source, vtk in zip((run_dir, run), vtks):
        assert main(["export", "--mesh", workspace["cover"], "--run", source,
                     "--density", workspace["cover_dens"], "-o", vtk]) == 0
    with open(vtks[0], "rb") as h1, open(vtks[1], "rb") as h2:
        assert h1.read() == h2.read()


def _ragged_triangles(doc):
    doc["tri_edges"].pop()
    return doc


def _integer_word(doc):
    doc["edge_words"][0] = 7
    return doc


@pytest.mark.parametrize("edit, message", [
    (lambda doc: [1, 2], "holds a JSON list, not an object"),
    (lambda doc: {"genus": 2}, "mesh format None is not 2"),
    (_integer_word, "'edge_words' is malformed"),
    (_ragged_triangles, "'tri_edges' is malformed")],
    ids=["list", "genus-only", "integer-word", "ragged-triangles"])
def test_malformed_mesh_file_is_a_domain_error(workspace, tmp_path, capsys,
                                               edit, message):
    path = str(tmp_path / "mesh.json")
    fileio.write_json(path, edit(fileio.read_json(workspace["base"])))
    assert main(["probe", "--mesh", path, "--samples", "2"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    assert path in err and message in err
