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
    script = (
        "import sys\n"
        "from todalab.cli import main\n"
        "assert main(['mesh', '--refine', '1', '-o', 'base.json']) == 0\n"
        "assert main(['cover', '--mesh', 'base.json', '--n', '2',\n"
        "             '-o', 'cover.json']) == 0\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m == 'scipy' or m.startswith('scipy.')))\n")
    src = os.path.dirname(os.path.dirname(todalab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
