"""The checks at scale: one table of runs, each in a child, bounded and asserted.

Each case names its run as the output manifest does (`grothsnp ...` or a
script path), and may give a timeout, a bound on the child's peak RSS in MiB,
whether its stdout digest is pinned in tests/output_manifest.json, and a
predicate on the parsed JSON of its stdout. Its label gives the reason for
the case. Every case must also exit 0.

Run from the repository root, with nothing installed:

    python tests/at_scale.py

The runner spawns the children one at a time with PYTHONPATH=src, from the
repository root, and prints one JSON line per case:

    {"case": "grothsnp snp --lambda 1 --n 300", "ok": true, "wall_s": 2.709, "peak_mib": 25.5, "detail": ""}

It exits 1 if any case fails, and `detail` names each cause.

Each peak is the child's own, read from os.wait4. Linux carries a parent's
RSS high-water mark into every child it spawns afterwards, so the runner
stays small: it imports the standard library only, sends each stdout to a
file, and reads no output until the last child has exited.
"""

import json
import os
import shlex
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Mapping, NamedTuple, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = Path(__file__).with_name("output_manifest.json")
OUT = "OUT"  # an export run's --out-dir, a fresh temporary directory


class Case(NamedTuple):
    label: str
    argv: str  # the output manifest's key form
    check: Optional[Callable[[Any], bool]] = None  # on the parsed stdout
    timeout: Optional[float] = None  # seconds
    peak_mib: Optional[int] = None  # the child's peak RSS stays under this
    digest: bool = False  # stdout digest pinned in the output manifest


def snp_holds(doc) -> bool:
    return doc["snp"] is True


def total_is_one(count: int) -> Callable[[Any], bool]:
    """`count` terms whose coefficients sum to G(1, ..., 1) = 1."""
    return lambda doc: len(doc["terms"]) == count and sum(t["coeff"] for t in doc["terms"]) == 1


def every_check_ok(doc) -> bool:
    checks = [(c["name"], c["ok"]) for c in doc["checks"]]
    return doc["ok"] is True and len(checks) == 6 and all(ok for _, ok in checks)


def degrees_10_to_32(doc) -> bool:
    return [c["degree"] for c in doc["components"]] == list(range(10, 33))


CASES = [
    Case("verify smoke run",
         "grothsnp verify --lambda 3,2,1 --n 4"),
    Case("verify smoke run with brute-snp",
         "grothsnp verify --lambda 3,2,1 --n 3"),
    Case("brute-force hull sweep at (3,1), n = 5 (0/±1 inequalities before the simplex)",
         "grothsnp snp --brute --lambda 3,1 --n 5", snp_holds),
    Case("brute-force hull sweep at (3,2,1), n = 6 under 32 MiB"
         " (2^(n+1) directional sums per support point, not 3^n)",
         "grothsnp snp --brute --lambda 3,2,1 --n 6", snp_holds, timeout=60, peak_mib=32),
    Case("brute-force hull sweep at (4,2,1), n = 6 under 32 MiB ((lambda_1 + 1)^n * 2^(n+1)"
         " = 2,000,000 sums, within the work bound, folded 64 support points at a time)",
         "grothsnp snp --brute --lambda 4,2,1 --n 6", snp_holds, timeout=60, peak_mib=32),
    Case("verify at (4,2,1), n = 7 (both models at dominant contents only)",
         "grothsnp verify --lambda 4,2,1 --n 7 --trials 1"),
    Case("exact claim c and lemmas at (4,3,2,1), n = 8 (a chain of 22 boxes)",
         "grothsnp verify --lambda 4,3,2,1 --n 8 --claim c --lemmas"),
    Case("fast saturation check at (4,3,2,1), n = 8"
         " (23 components, degrees 10 to 32, each weight in 8 variables)",
         "grothsnp snp --lambda 4,3,2,1 --n 8",
         lambda doc: snp_holds(doc) and degrees_10_to_32(doc)
         and all(len(c["weight"]) == 8 for c in doc["components"]),
         digest=True),
    Case("desk sweep smoke run (--jobs is accepted; the pairs run in one process)",
         "scripts/desk_sweep.py --max-part 2 --max-rows 2 --n-values 2,3 --trials 20 --jobs 2"),
    Case("groth at (1000), n = 1 (a fill of 1000 boxes, past the recursion limit)",
         "grothsnp groth --lambda 1000 --n 1",
         lambda doc: doc == {"n": 1, "terms": [{"exp": [1000], "coeff": 1}]}),
    Case("groth at (4,2,1), n = 7 (the dominant terms spread over their orbits; G(1,...,1) = 1)",
         "grothsnp groth --lambda 4,2,1 --n 7", total_is_one(43354), timeout=60),
    Case("groth at (4,3,2,1), n = 8 (420 dominant terms over their orbits,"
         " no Schur polynomial; G(1,...,1) = 1)",
         "grothsnp groth --lambda 4,3,2,1 --n 8", total_is_one(369295), timeout=30,
         digest=True),
    Case("verify at (120), n = 3 skips brute-snp past the work bound",
         "grothsnp verify --lambda 120 --n 3 --trials 5",
         lambda doc: len(doc["checks"]) == 6
         and "brute-snp" not in [c["name"] for c in doc["checks"]],
         timeout=60),
    Case("verify at (1), n = 320 (claims b and c decided exactly from the chain shapes)",
         "grothsnp verify --lambda 1 --n 320 --trials 1", every_check_ok, timeout=60),
    Case("claim a at (1), n = 1000 (the chain by its closed form, chain shapes by lookup)",
         "grothsnp verify --lambda 1 --n 1000 --claim a",
         lambda doc: [(c["name"], c["ok"]) for c in doc["checks"]] == [("claim-a", True)],
         timeout=60),
    Case("expand at (1), n = 1000 (one rook-strip pass over 999 labels,"
         " shapes retiring as they stop growing)",
         "grothsnp expand --lambda 1 --n 1000", lambda doc: len(doc["terms"]) == 1000,
         timeout=60),
    Case("expand at (6,5,4,3,2,1), n = 12 (the rook-strip pass, no filling per shape)",
         "grothsnp expand --lambda 6,5,4,3,2,1 --n 12", lambda doc: len(doc["terms"]) == 9996,
         timeout=60, digest=True),
    Case("verify at (5,4,3,2,1), n = 10 (every check ok)",
         "grothsnp verify --lambda 5,4,3,2,1 --n 10 --trials 1", every_check_ok, timeout=60),
    Case("verify at (6,5,4,3,2,1), n = 12 under 100 MiB"
         " (the set-valued kernel makes only states that can complete)",
         "grothsnp verify --lambda 6,5,4,3,2,1 --n 12", every_check_ok, timeout=60,
         peak_mib=100, digest=True),
    Case("snp at (200), n = 4 (lattice points by one walk under each weight's prefix sums)",
         "grothsnp snp --lambda 200 --n 4", snp_holds, timeout=60),
    Case("snp at (1), n = 300 under 64 MiB (one top-down Gelfand-Tsetlin pass, two levels alive)",
         "grothsnp snp --lambda 1 --n 300", snp_holds, timeout=60, peak_mib=64),
    Case("desk sweep over (0)..(90), n = 4 under 48 MiB (memos keyed by (lambda, n) hold one pair)",
         "scripts/desk_sweep.py --max-part 90 --max-rows 1 --n-values 4",
         lambda doc: doc["ok"] is True, timeout=120, peak_mib=48),
    Case("newton at (4,3,2,1), n = 8 (23 components, degrees 10 to 32)",
         "grothsnp newton --lambda 4,3,2,1 --n 8", degrees_10_to_32, timeout=60, digest=True),
    Case("newton smoke run at n = 9 (distinct orbits, not 9! orderings)",
         "grothsnp newton --lambda 2,1 --n 9"),
    Case("figure export smoke run",
         f"scripts/export_figure_data.py --n 2 --max-part 2 --out-dir {OUT}"),
]


def child_argv(case: Case, out_dir: str) -> list[str]:
    prog, *args = shlex.split(case.argv)
    head = ["-m", "grothsnp"] if prog == "grothsnp" else [prog]
    return [sys.executable, *head, *(out_dir if arg == OUT else arg for arg in args)]


def spawn(case: Case, work: Path) -> dict:
    """Run one case's child to its end or its timeout. Its stdout and stderr
    go to files in `work`; its peak comes from wait4, which Popen.wait would
    drop."""
    out_dir = work / "out"
    out_dir.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": "src"}
    with open(work / "stdout", "wb") as stdout, open(work / "stderr", "wb") as stderr:
        start = time.monotonic()
        child = subprocess.Popen(child_argv(case, str(out_dir)), cwd=ROOT, env=env,
                                 stdin=subprocess.DEVNULL, stdout=stdout, stderr=stderr)
        timed_out = False
        while True:
            pid, status, usage = os.wait4(child.pid, os.WNOHANG)
            if pid:
                break
            if case.timeout is not None and time.monotonic() - start > case.timeout:
                child.kill()
                _, status, usage = os.wait4(child.pid, 0)
                timed_out = True
                break
            time.sleep(0.005)
        wall = time.monotonic() - start
    child.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return {"wall_s": wall, "peak_mib": usage.ru_maxrss / 1024,  # ru_maxrss is in KiB
            "exit": child.returncode, "timed_out": timed_out}


def failures(case: Case, run: dict, work: Path, pinned: Mapping[str, str]) -> list[str]:
    """The causes for which one finished case fails, each named."""
    causes = []
    if case.peak_mib is not None and run["peak_mib"] >= case.peak_mib:
        causes.append(f"peak {run['peak_mib']:.1f} MiB not under {case.peak_mib} MiB")
    if run["timed_out"]:
        return [f"timed out after {case.timeout} s", *causes]
    if run["exit"] != 0:
        lines = (work / "stderr").read_bytes().decode("utf-8", "replace").splitlines()
        return [f"exit {run['exit']}" + (f": {lines[-1]}" if lines else ""), *causes]
    if not case.digest and case.check is None:
        return causes
    data = (work / "stdout").read_bytes()
    if case.digest:
        # Loaded only now that every child has exited: OpenSSL adds about
        # 3.5 MiB to the runner, which every later child's peak would carry.
        import hashlib

        got = hashlib.sha256(data).hexdigest()[:16]
        if got != pinned[case.argv]:
            causes.append(f"stdout digest {got}, pinned {pinned[case.argv]}")
    if case.check is not None:
        try:
            holds = case.check(json.loads(data))
        except Exception as exc:  # a malformed report fails, named
            causes.append(f"output check raised {type(exc).__name__}: {exc}")
        else:
            if not holds:
                causes.append("output check is false")
    return causes


def run(cases: Sequence[Case], pinned: Optional[Mapping[str, str]] = None) -> int:
    """Run every case, print one JSON line each, and return 1 if any failed.

    `pinned` maps a digest case's key to its stdout digest; by default it is
    read from the output manifest."""
    if pinned is None:
        manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
        pinned = {case.argv: manifest[case.argv]["stdout"] for case in cases if case.digest}
    with tempfile.TemporaryDirectory() as tmp:
        works = [Path(tmp, str(i)) for i in range(len(cases))]
        runs = [spawn(case, work) for case, work in zip(cases, works)]
        # Every child has exited: only now is any output read.
        status = 0
        for case, work, result in zip(cases, works, runs):
            causes = failures(case, result, work, pinned)
            status |= bool(causes)
            print(json.dumps({"case": case.argv, "ok": not causes,
                              "wall_s": round(result["wall_s"], 3),
                              "peak_mib": round(result["peak_mib"], 1),
                              "detail": "; ".join(causes)}), flush=True)
    return status


if __name__ == "__main__":
    if sys.argv[1:]:
        sys.exit(f"usage: python {sys.argv[0]}")
    sys.exit(run(CASES))
