"""The CLI entry starts OpenBLAS on one thread; the package imports lazily.

``scdselect/__main__.py`` sets ``OPENBLAS_NUM_THREADS=1`` before numpy is
loaded, which it can only do because ``import scdselect`` loads no numpy. A
program that imports the package as a library keeps its own BLAS setting.
Each check runs in a fresh child interpreter, since the thread count is
fixed when numpy is first loaded.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import scdselect
from scdselect import discretizer

needs_openblas = pytest.mark.skipif(
    discretizer._openblas_thread_calls() is None,
    reason="no loaded OpenBLAS exports openblas_{get,set}_num_threads here",
)

READ_COUNT = "from scdselect.discretizer import _openblas_thread_calls; print(_openblas_thread_calls()[0]())"


def child(code, **env):
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, **env), capture_output=True, text=True, check=True
    )
    return out.stdout.strip()


@needs_openblas
@pytest.mark.parametrize(
    "entry",
    ["import scdselect.__main__", "from scdselect.__main__ import main"],  # python -m; console script
)
def test_entry_starts_one_blas_thread(entry):
    assert child(f"{entry}; {READ_COUNT}", OPENBLAS_NUM_THREADS="2") == "1"


@needs_openblas
def test_library_import_keeps_the_callers_count():
    # OpenBLAS caps the count at the CPUs it sees, so the reference is what
    # numpy alone starts with under the same setting.
    numpy_alone = child(f"import numpy; {READ_COUNT}", OPENBLAS_NUM_THREADS="2")
    if numpy_alone != "2":
        pytest.skip(f"OpenBLAS starts {numpy_alone} thread(s) here when asked for 2")
    assert child(f"import scdselect, scdselect.cli; {READ_COUNT}", OPENBLAS_NUM_THREADS="2") == "2"


def test_bare_import_loads_no_numpy():
    assert child("import sys, scdselect; print('numpy' in sys.modules)") == "False"


def test_public_names_are_their_submodules_objects():
    assert scdselect.__version__ == "0.1.0"
    assert len(set(scdselect.__all__)) == len(scdselect.__all__)
    for name in scdselect.__all__:
        module = importlib.import_module(f"scdselect.{scdselect._SUBMODULE_OF[name]}")
        assert getattr(scdselect, name) is getattr(module, name), name
    with pytest.raises(AttributeError, match="no_such_name"):
        scdselect.no_such_name


def test_module_entry_runs():
    out = subprocess.run([sys.executable, "-m", "scdselect", "--version"], capture_output=True, text=True)
    assert out.returncode == 0
    assert out.stdout.strip() == f"scdselect {scdselect.__version__}"


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_console_script_is_the_module_entry():
    import tomllib

    pyproject = tomllib.loads((Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8"))
    assert pyproject["project"]["scripts"] == {"scdselect": "scdselect.__main__:main"}
