"""What the test modules share: the repository's root, the environment and
loader for the programs they run, the helpers run_cli and is_symmetric, the
collection of table rows under the ids of the tests they replaced, the
flipped_top_sign fixture, and a terminal summary with one line per
acceptance criterion after every run."""

import importlib.util
import os
import re
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

ACCEPTANCE_PATTERN = re.compile(r"^test_a([1-9])(_|$)")


def child_env(*paths) -> dict:
    """os.environ for a child, with src, then paths, ahead of its PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), *map(str, paths), env.get("PYTHONPATH")])
    )
    return env


def load(path: str):
    """The module at path, relative to the repository's root, loaded afresh."""
    spec = importlib.util.spec_from_file_location(Path(path).stem, ROOT / path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_cli(capsys, *argv):
    """grothsnp's exit status on argv, run in-process, and its stdout."""
    from grothsnp.cli import main

    status = main(list(argv))
    return status, capsys.readouterr().out


def is_symmetric(f):
    """Invariance of f under all adjacent variable swaps (hence under S_n)."""
    terms = dict(f.items())
    for i in range(f.n - 1):
        for exp, coeff in terms.items():
            swapped = list(exp)
            swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
            if terms.get(tuple(swapped), 0) != coeff:
                return False
    return True


def adopt(namespace, rows, check, marks=lambda row: ()):
    """Collect each row under the id of the test it replaced, which is its
    name: Class::test[param] as a test of that class in namespace (the class
    made anew if it is gone), test[param] as a function of namespace, each
    without [param] where the test took none. check(row, request) runs a row."""
    groups = defaultdict(list)
    for row in rows:
        owner, _, test = row.name.rpartition("::")
        name, bracket, param = test.partition("[")
        groups[owner, name].append((row, param[:-1] if bracket else None))
    for (owner, name), members in groups.items():
        if members[0][1] is not None:
            def test(row, request):
                check(row, request)

            params = [pytest.param(row, id=param, marks=marks(row)) for row, param in members]
            test = pytest.mark.parametrize("row", params)(test)
        else:
            def test(request, row=members[0][0]):
                check(row, request)

            for mark in marks(members[0][0]):
                test = mark(test)
        if owner:
            setattr(namespace.setdefault(owner, type(owner, (), {})), name, staticmethod(test))
        else:
            namespace[name] = test


@pytest.fixture
def flipped_top_sign(monkeypatch):
    """The top Schur shape's count with its sign flipped, which SchurExpansion
    refuses: at (3, 3, 3, 3) for (3,2,1) in 4 variables. The (lambda, n)
    memos are cleared before and after, so no plant leaks into the next test."""
    from grothsnp import grothendieck

    counts = grothendieck.lenart_shape_counts

    def flipped(lam, n):
        terms = counts(lam, n)
        top = max(terms)
        return {**terms, top: -terms[top]}

    memos = (grothendieck.schur_expansion, grothendieck.grothendieck_lenart_dominant)
    for memo in memos:
        memo.cache_clear()
    monkeypatch.setattr(grothendieck, "lenart_shape_counts", flipped)
    yield
    for memo in memos:
        memo.cache_clear()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes = {}
    for status in ("passed", "failed", "error", "skipped"):
        for report in terminalreporter.stats.get(status, []):
            location = getattr(report, "location", None)
            if location is None:
                continue
            base = location[2].split("[")[0].rsplit(".", 1)[-1]
            match = ACCEPTANCE_PATTERN.match(base)
            if match is None:
                continue
            if status == "passed" and getattr(report, "when", "call") != "call":
                continue
            label = f"A{match.group(1)}"
            if status in ("failed", "error"):
                outcomes[label] = "FAIL"
            else:
                outcomes.setdefault(label, "PASS" if status == "passed" else "SKIP")
    if not outcomes:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for label in sorted(outcomes, key=lambda name: int(name[1:])):
        terminalreporter.write_line(f"{label}: {outcomes[label]}")
