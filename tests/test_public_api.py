import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import kan_ausculta

MODULES = sorted(info.name for info in pkgutil.iter_modules(kan_ausculta.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"kan_ausculta.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from kan_ausculta.{name} import *", namespace)
    assert set(exported) <= set(namespace)


def test_package_reexports_resolve():
    assert [n for n in kan_ausculta.__all__ if not hasattr(kan_ausculta, n)] == []
    namespace = {}
    exec("from kan_ausculta import *", namespace)
    assert set(kan_ausculta.__all__) <= set(namespace)


def scipy_modules_after(code):
    """The ``scipy`` modules a fresh interpreter holds after running ``code``."""
    src = str(Path(kan_ausculta.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = code + "\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", "import sys\n" + probe], capture_output=True,
                         text=True, check=True, env=dict(os.environ, PYTHONPATH=path)).stdout
    return ast.literal_eval(out.splitlines()[-1])


def test_cli_starts_without_scipy():
    assert scipy_modules_after("import kan_ausculta.cli") == []
    version = (
        "import runpy\n"
        "sys.argv = ['kan-ausculta', '--version']\n"
        "try:\n"
        "    runpy.run_module('kan_ausculta.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit:\n"
        "    pass"
    )
    assert scipy_modules_after(version) == []


def test_audio_path_imports_scipy_when_called():
    loaded = scipy_modules_after(
        "import numpy as np\n"
        "from kan_ausculta.features import AudioSignal, preprocess\n"
        "preprocess(AudioSignal(np.ones(4096), 22050))"
    )
    assert "scipy.signal" in loaded
