"""The package surface: every name in grothsnp.__all__ loads with its home
module on first use, and each program loads at start-up only the layers it
uses, as the table LOADS pins."""

import argparse
import ast
import importlib
import shlex
import subprocess
import sys
from typing import NamedTuple

import pytest
from conftest import ROOT, adopt, child_env

import grothsnp


class Load(NamedTuple):
    name: str
    argv: str
    loads: str
    stdout: str = ""


# Each row runs `python -S -X importtime` with argv from the repository's
# root and gives, as names under grothsnp, the exact set of the package's
# modules the run imports besides grothsnp itself, and how its stdout starts.
# Every row must exit 0 and import none of UNLOADED. -S keeps site out, since
# a .pth file may import random. WRAPPER is what the installed console script
# runs. A row that replaced an earlier test is named by that test's id and
# collected there (see adopt in conftest.py): tests/test_cli.py collects the
# TestEntryPoint rows, this module the others.
HELP = "battery cli"
DOMINANT = "battery cli grothendieck partitions"
ORBITS = f"{DOMINANT} polytopes"
FULL = f"{ORBITS} polynomials tableaux"
SWEEP = "battery grothendieck partitions polynomials polytopes tableaux"
USAGE = "usage: "
WRAPPER = "'import sys; from grothsnp.cli import main; sys.argv[0] = \"grothsnp\"; sys.exit(main())'"
E = "TestEntryPoint::"
NO_POOL = f"{E}test_no_multiprocessing_import_without_a_pool"
HELPS = f"{E}test_help_loads_no_math_layer"
DOMINANT_COMMAND = f"{E}test_dominant_commands_load_no_full_expansion"

LOADS = [
    Load("test_importing_the_package_loads_no_submodule", "-c 'import grothsnp'", ""),
    Load("test_a_name_loads_its_home_module_and_what_it_imports",
         "-c 'from grothsnp import Partition'", "partitions"),
    Load("SparsePolynomial", "-c 'import grothsnp; grothsnp.SparsePolynomial'",
         "partitions polynomials"),
    Load(f"{HELPS}[grothsnp]", "-m grothsnp --help", HELP, USAGE),
    Load("console-script --help", f"-c {WRAPPER} --help", HELP, USAGE),
    Load(f"{HELPS}[grothsnp-snp]", "-m grothsnp snp --help", HELP, USAGE),
    Load(f"{HELPS}[desk_sweep]", "scripts/desk_sweep.py --help", "battery", USAGE),
    Load(f"{NO_POOL}[argv1]", "scripts/desk_sweep.py -h", "battery", USAGE),
    Load(f"{HELPS}[export_figure_data]", "scripts/export_figure_data.py --help", "battery",
         USAGE),
    Load(f"{NO_POOL}[argv0]", "-m grothsnp chain --lambda 1 --n 2", DOMINANT),
    Load(f"{DOMINANT_COMMAND}[expand]", "-m grothsnp expand --lambda 2,1 --n 3", DOMINANT),
    Load(f"{DOMINANT_COMMAND}[chain]", "-m grothsnp chain --lambda 2,1 --n 3", DOMINANT),
    Load(f"{DOMINANT_COMMAND}[groth]", "-m grothsnp groth --lambda 2,1 --n 3", ORBITS),
    Load(f"{DOMINANT_COMMAND}[newton]", "-m grothsnp newton --lambda 2,1 --n 3", ORBITS),
    Load(f"{DOMINANT_COMMAND}[snp]", "-m grothsnp snp --lambda 2,1 --n 3", ORBITS),
    Load(f"{DOMINANT_COMMAND}[figure-data]", "-m grothsnp figure-data --lambda 2,1 --n 3",
         ORBITS),
    Load(f"{E}test_snp_brute_loads_the_full_expansions",
         "-m grothsnp snp --brute --lambda 2,1 --n 3", FULL),
    # verify runs brute-snp at n <= 3 only, and never reaches the simplex
    Load(f"{E}test_verify_with_brute_snp_in_a_child",
         "-m grothsnp verify --lambda 2,1 --n 3 --trials 5", FULL),
    Load("test_verify_loads_no_random", "-m grothsnp verify --lambda 3,2,1 --n 4", ORBITS),
    Load("test_children_load_no_fractions[verify]",
         "-m grothsnp verify --lambda 3,2,1 --n 4 --lemmas", ORBITS),
    Load(f"{NO_POOL}[argv2]", "-m grothsnp verify --lambda 3,2,1 --n 5", ORBITS),
    Load(f"{E}test_verify_without_brute_snp_loads_no_simplex",
         "-m grothsnp verify --lambda 3,2,1 --n 5 --trials 1", ORBITS),
    Load(f"{NO_POOL}[argv3]", "-m grothsnp verify --lambda 3,2,1 --n 5 --trials 1 --jobs 2",
         ORBITS),
    Load(f"{NO_POOL}[argv4]", "scripts/desk_sweep.py --n-values 2 --jobs 2", SWEEP),
    Load("test_children_load_no_fractions[desk_sweep]",
         "scripts/desk_sweep.py --max-part 2 --max-rows 2 --n-values 2,3", SWEEP),
]
UNLOADED = {"fractions", "random", "multiprocessing", "dataclasses"}


def spawn(row, request=None):
    """Run row in a child and assert what it must load and print."""
    proc = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", *shlex.split(row.argv)],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=child_env(),
    )
    imported = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert {name for name in imported if name.split(".")[0] == "grothsnp"} == {
        "grothsnp", *(f"grothsnp.{name}" for name in row.loads.split())
    }
    assert not imported & UNLOADED
    assert proc.stdout.startswith(row.stdout)


@pytest.mark.parametrize(
    "row",
    [
        pytest.param(row, id=row.name)
        for row in LOADS
        if "::" not in row.name and not row.name.startswith("test_")
    ],
)
def test_loads(row):
    spawn(row)


adopt(globals(), [row for row in LOADS if row.name.startswith("test_")], spawn)


def test_every_subcommand_has_a_row():
    from grothsnp.cli import _build_parser

    (commands,) = (
        action.choices
        for action in _build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    assert set(commands) <= {row.argv.split()[2] for row in LOADS if row.argv.startswith("-m ")}


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
