"""The package surface: every name in grothsnp.__all__ loads with its home
module on first use, and importing the package loads no math layer."""

import ast
import importlib
import json
import subprocess
import sys

import pytest
from conftest import ROOT, child_env

import grothsnp


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
        env=child_env(),
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
        env=child_env(),
        check=True,
    )
    assert proc.stdout.splitlines()[-1] == "False 0"


@pytest.mark.parametrize(
    "main,argv",
    [
        ("from grothsnp.cli import main", ["verify", "--lambda", "3,2,1", "--n", "4"]),
        (
            "import runpy\n"
            f"main = runpy.run_path({str(ROOT / 'scripts' / 'desk_sweep.py')!r})['main']",
            ["--max-part", "2", "--max-rows", "2", "--n-values", "2,3"],
        ),
    ],
    ids=["verify", "desk_sweep"],
)
def test_children_load_no_fractions(main, argv):
    # Every check decides and reports in integers. -S keeps site out, since a
    # .pth file may import fractions.
    probe = (
        f"import sys\n{main}\n"
        f"status = main({argv!r})\n"
        "print('fractions' in sys.modules, status)"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        capture_output=True,
        text=True,
        env=child_env(),
        check=True,
    )
    assert proc.stdout.splitlines()[-1] == "False 0"


def _non_integer(node: ast.AST) -> str | None:
    """What node brings in that is not integer arithmetic, or None."""
    if isinstance(node, ast.Import):
        modules = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        modules = [node.module or ""]
    else:
        modules = []
    rational = [m for m in modules if m.split(".")[0] in ("fractions", "decimal")]
    if rational:
        return f"imports {rational[0]}"
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return f"float constant {node.value!r}"
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
        return "true division"
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float":
        return "float() call"
    return None


def test_the_package_holds_no_rational_and_no_float():
    # Every layer computes and reports in integers.
    found = [
        f"{path.name}:{node.lineno}: {what}"
        for path in sorted((ROOT / "src" / "grothsnp").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (what := _non_integer(node))
    ]
    assert not found


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
        env=child_env(),
        check=True,
    )
    assert proc.stdout == "True\n"


def test_the_benchmark_tracer_installs_over_the_package():
    # perfbench/tracing.py looks each traced function up by name and rebinds
    # it wherever a loaded grothsnp module binds it, so it runs in a child: a
    # name the package no longer has fails here, not only in a traced run.
    # Its Lenart term count takes len() of the polynomial, so
    # SparsePolynomial.__len__ is pinned here too.
    probe = (
        "import sys\n"
        "import tracing\n"
        "from grothsnp import Partition, grothendieck, tableaux\n"
        "modules = [m for name, m in list(sys.modules.items())\n"
        "           if name == 'grothsnp' or name.startswith('grothsnp.')]\n"
        "tracer = tracing.Tracer()\n"
        "tracing.install(tracer, modules)\n"
        "fills = list(tableaux.enumerate_ssyt(Partition((2, 1)), 3))\n"
        "print(len(fills), tracer.counts['tableaux.enumerate_ssyt.yielded'])\n"
        "g = grothendieck.grothendieck_lenart(Partition((2, 1)), 3)\n"
        "print(len(g.support()), tracer.counts['grothendieck.grothendieck_lenart.terms'])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=child_env(ROOT / "perfbench"),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "8 8\n17 17\n"
