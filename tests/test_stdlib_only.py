"""The package runs on the standard library alone.

``pyproject.toml`` declares no runtime dependencies; an isolated
interpreter (``-I``: no environment variables or user site, ``-S``: no
site-packages) must import every ``repro`` module.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

IMPORT_ALL = """
import importlib, pkgutil, sys
sys.path.insert(0, {src!r})
import repro
for module in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(module.name)
    print(module.name)
"""


def test_every_module_imports_without_site_packages():
    out = subprocess.run(
        [sys.executable, "-I", "-S", "-c", IMPORT_ALL.format(src=str(SRC))],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    imported = out.stdout.split()
    assert "repro.networks.analysis" in imported
    assert "repro.analytics.kernels" in imported
    assert "repro.serve.handlers" in imported
