"""Importing froblat leaves sympy and mpmath unloaded."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_import_does_not_load_sympy_or_mpmath():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = ("import sys, froblat, froblat.cli, froblat.regression; "
            "print(sorted(m for m in ('sympy', 'mpmath') "
            "if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
