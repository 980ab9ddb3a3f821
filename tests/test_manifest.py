"""Output manifest: the bytes of a fixed set of runs, pinned against history.

tests/output_manifest.json holds, for each run, its exit status and the first
16 hex digits of the SHA-256 of its stdout and of its stderr (UTF-8). The
runs, each named by its command line and run in-process:

- expand, groth, chain, newton, snp, snp --brute and verify on the 74 pairs of
  the 3 x 3 box at n <= 5, and figure-data on the 34 of them at n <= 3;
- the ten verify operations of the verify-n45 and models-n6 benchmark
  workloads, with their flags at --seed 1;
- the sweep-n3 desk sweep, with each pair's wall-clock seconds masked;
- four shapes with more rows than variables, each refused as a usage error;
- the figure export at --n 2 and --n 3 (--max-part 3), each into a fresh
  temporary directory that its key and its stdout name as OUT; its record
  also holds one digest over the name and bytes of every file written there.

The file also holds the digests of five runs at scale, which CI compares
from a child and this test does not run: `groth` at (4,3,2,1), n = 8, a
53 MB report; `expand` and `verify` at (6,5,4,3,2,1), n = 12; and the
degreewise `snp` and `newton` at (4,3,2,1), n = 8, the second a 46 MB report.
A second test checks that the CI workflow reads each of those digests.

The tests that pin output against the mathematics stay where they are; this
one pins it against the commit that wrote the file. A change that alters
output on purpose regenerates the file, the runs at scale included, and names
the changed keys, which the command prints, one line each:

    PYTHONPATH=src python tests/test_manifest.py --write
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import re
import shlex
import sys
import tempfile
from pathlib import Path

from grothsnp import partitions_in_box
from grothsnp.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = Path(__file__).with_name("output_manifest.json")
SWEEP = "scripts/desk_sweep.py"
EXPORT = "scripts/export_figure_data.py"
OUT = "OUT"  # an export run's --out-dir, a fresh temporary directory
AT_SCALE = [
    ["grothsnp", "groth", "--lambda", "4,3,2,1", "--n", "8"],
    ["grothsnp", "expand", "--lambda", "6,5,4,3,2,1", "--n", "12"],
    ["grothsnp", "verify", "--lambda", "6,5,4,3,2,1", "--n", "12"],
    ["grothsnp", "snp", "--lambda", "4,3,2,1", "--n", "8"],
    ["grothsnp", "newton", "--lambda", "4,3,2,1", "--n", "8"],
]

BOX_COMMANDS = (
    ["expand"], ["groth"], ["chain"], ["newton"], ["snp"], ["snp", "--brute"],
    ["verify"], ["figure-data"],
)
# (lambda, n, --trials) of the verify-n45 and models-n6 operations in perfbench/run.py
BENCHMARK_VERIFY = [
    ("3,1", 4, 1000), ("3,2,1", 4, 1000), ("2,2,1", 5, 1000), ("3,2,1", 5, 1000),
    ("4,2,1", 5, 1000),
    ("3,1", 6, 1), ("2,2,1", 6, 1), ("3,3", 6, 1), ("4,2", 6, 1), ("3,2,1", 6, 1),
]
SWEEP_N3 = "--max-part 3 --max-rows 3 --n-values 2,3 --trials 20 --seed 1 --jobs 1"


def runs() -> list[list[str]]:
    """The argv of every run the test checks, program first, in manifest order."""
    argvs = [
        ["grothsnp", *command, "--lambda", ",".join(map(str, lam.parts)), "--n", str(n)]
        for n in range(1, 6)
        for lam in partitions_in_box(3, 3)
        if len(lam) <= n
        for command in BOX_COMMANDS
        if command != ["figure-data"] or n <= 3
    ]
    argvs += [
        ["grothsnp", "verify", "--lambda", lam, "--n", str(n), "--trials", str(trials),
         "--seed", "1", "--jobs", "1"]
        for lam, n, trials in BENCHMARK_VERIFY
    ]
    argvs.append([SWEEP, *SWEEP_N3.split()])
    argvs += [
        ["grothsnp", command, "--lambda", "1,1,1", "--n", "2"]
        for command in ("snp", "chain", "expand", "newton")
    ]
    argvs += [[EXPORT, "--n", n, "--max-part", "3", "--out-dir", OUT] for n in ("2", "3")]
    return argvs


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def record(argv: list[str]) -> dict:
    """The exit status and the stdout and stderr digests of one in-process
    run, and for an export the digest of the files it wrote."""
    prog, *args = argv
    if prog in (SWEEP, EXPORT):
        spec = importlib.util.spec_from_file_location(Path(prog).stem, ROOT / prog)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        main = module.main
    else:
        main = cli_main
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as out_dir:
        args = [out_dir if arg == OUT else arg for arg in args]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                status = main(args)
            except SystemExit as exc:  # a usage error, raised by argparse
                status = exc.code
        stdout = out.getvalue()
        if prog == SWEEP:
            stdout = re.sub(r'"seconds": [0-9.e-]+', '"seconds": 0', stdout)
        entry = {"status": status, "stdout": digest(stdout.replace(out_dir, OUT)),
                 "stderr": digest(err.getvalue().replace(out_dir, OUT))}
        if prog == EXPORT:
            files = sorted(Path(out_dir).iterdir())
            blob = b"".join(f.name.encode() + b"\0" + f.read_bytes() + b"\0" for f in files)
            entry["files"] = hashlib.sha256(blob).hexdigest()[:16]
    return entry


def test_outputs_match_the_manifest():
    pinned = json.loads(MANIFEST.read_text(encoding="utf-8"))
    for argv in AT_SCALE:
        del pinned[shlex.join(argv)]  # compared by CI, from a child
    seen = {shlex.join(argv): record(argv) for argv in runs()}
    assert len(seen) == 552 + 10 + 1 + 4 + 2
    assert seen.keys() == pinned.keys()
    changed = [key for key in seen if seen[key] != pinned[key]]
    assert not changed, f"{len(changed)} runs changed output, first: {changed[:10]}"


def test_every_run_at_scale_has_its_ci_step():
    """The test above skips the runs at scale, so a run at scale that no CI
    step compares would be pinned by nothing."""
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    for argv in AT_SCALE:
        assert f'["{shlex.join(argv)}"]["stdout"]' in workflow, argv


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: PYTHONPATH=src python {sys.argv[0]} --write")
    old = json.loads(MANIFEST.read_text(encoding="utf-8"))
    new = {shlex.join(argv): record(argv) for argv in [*runs(), *AT_SCALE]}
    for key in sorted(old.keys() - new.keys()):
        print(f"removed: {key}")
    for key, entry in new.items():
        if key not in old:
            print(f"added: {key}")
        elif entry != old[key]:
            print(f"changed: {key}")
    lines = [f"  {json.dumps(key)}: {json.dumps(entry)}" for key, entry in new.items()]
    MANIFEST.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
