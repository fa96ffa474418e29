"""The package root and the CLI load submodules only when used."""

import os
import subprocess
import sys

import todalab


def test_every_export_resolves_and_is_listed():
    listed = dir(todalab)
    for name in todalab.__all__:
        assert getattr(todalab, name) is not None, name
        assert name in listed, name
    assert todalab.errors.TodaError is todalab.TodaError


def test_mesh_and_cover_run_without_scipy(tmp_path):
    # So does export, which reads a mesh, a density and a run's fields and
    # writes VTK: a density file needs the sections module's data types,
    # not SciPy.
    from todalab.cli import main
    assert main(["mesh", "--refine", "1", "-o", str(tmp_path / "b.json")]) == 0
    assert main(["section", "--mesh", str(tmp_path / "b.json"), "--divisor",
                 "0:1,1:1,5:1,9:1", "-o", str(tmp_path / "dens")]) == 0
    assert main(["solve-coupled", "--mesh", str(tmp_path / "b.json"),
                 "--density", str(tmp_path / "dens"), "-o",
                 str(tmp_path / "run")]) == 0
    script = (
        "import sys\n"
        "from todalab.cli import main\n"
        "assert main(['mesh', '--refine', '1', '-o', 'base.json']) == 0\n"
        "assert main(['cover', '--mesh', 'base.json', '--n', '2',\n"
        "             '-o', 'cover.json']) == 0\n"
        "assert main(['export', '--mesh', 'b.json', '--run', 'run',\n"
        "             '-o', 'fields.vtk']) == 0\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m == 'scipy' or m.startswith('scipy.')))\n")
    src = os.path.dirname(os.path.dirname(todalab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
