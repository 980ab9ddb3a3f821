"""The package surface: every name in grothsnp.__all__ loads with its home
module on first use, and importing the package loads no math layer."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import grothsnp

ROOT = Path(__file__).resolve().parent.parent


def loaded_after(code: str) -> list[str]:
    """The grothsnp modules a fresh interpreter holds after running code."""
    probe = (
        f"{code}\nimport json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'grothsnp')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        check=True,
    )
    return json.loads(proc.stdout)


@pytest.mark.parametrize("name", grothsnp.__all__)
def test_each_name_is_the_object_of_its_home_module(name):
    value = getattr(grothsnp, name)
    home = value.__module__
    assert home.startswith("grothsnp.")
    assert value is getattr(importlib.import_module(home), name)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from grothsnp import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(grothsnp.__all__)
    assert all(namespace[name] is getattr(grothsnp, name) for name in namespace)


def test_dir_lists_all():
    assert set(grothsnp.__all__) <= set(dir(grothsnp))


def test_unknown_name_raises_the_standard_error():
    with pytest.raises(AttributeError) as err:
        grothsnp.frobnicate
    assert str(err.value) == "module 'grothsnp' has no attribute 'frobnicate'"
    with pytest.raises(ImportError, match="cannot import name 'frobnicate'"):
        exec("from grothsnp import frobnicate", {})


def test_submodules_still_import_by_name():
    namespace = {}
    exec("from grothsnp import battery, exactlp", namespace)
    assert namespace["exactlp"] is importlib.import_module("grothsnp.exactlp")
    assert namespace["battery"] is importlib.import_module("grothsnp.battery")


def test_importing_the_package_loads_no_submodule():
    assert loaded_after("import grothsnp") == ["grothsnp"]


def test_a_name_loads_its_home_module_and_what_it_imports():
    assert loaded_after("from grothsnp import Partition") == [
        "grothsnp", "grothsnp.partitions"
    ]
    assert loaded_after("import grothsnp; grothsnp.SparsePolynomial") == [
        "grothsnp", "grothsnp.partitions", "grothsnp.polynomials"
    ]


def test_verify_loads_no_random():
    # Every check is exact, so no seeded generator is loaded. -S keeps site
    # out, since a .pth file may import a module that loads random.
    probe = (
        "import sys\n"
        "from grothsnp.cli import main\n"
        "status = main(['verify', '--lambda', '3,2,1', '--n', '4'])\n"
        "print('random' in sys.modules, status)"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        check=True,
    )
    assert proc.stdout.splitlines()[-1] == "False 0"


def test_loading_battery_freezes_the_heap_at_exit():
    # Exit handlers run last in, first out, so the handler registered before
    # the import runs after the freeze that the import registers.
    probe = (
        "import atexit, gc\n"
        "atexit.register(lambda: print(gc.get_freeze_count() > 0))\n"
        "import grothsnp.battery"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        check=True,
    )
    assert proc.stdout == "True\n"
