"""What the test modules share: the repository's root, the environment and
loader for the programs they run, the flipped_top_sign fixture, and a
terminal summary with one line per acceptance criterion after every run."""

import importlib.util
import os
import re
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
