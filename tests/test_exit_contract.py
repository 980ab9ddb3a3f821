"""The exit contract of the three programs, as one table.

grothsnp, scripts/desk_sweep.py and scripts/export_figure_data.py exit 0
when their work is done, 1 when a value breaks an invariant of the layers,
and 2 on a usage error or an environment they cannot work in: an --out they
cannot write, a stdout that takes no text, exhausted memory or Ctrl-C. Each
failure is one stderr line; a usage error prints the usage before it.

Each row of ROWS runs one program with its arguments and one fault, and
gives what the run must leave: its exit status, its stdout (None: not read),
its stderr lines (one ending in "..." is a prefix), and the names of the
files it makes in its directory. A row runs in a fresh temporary directory,
its working directory, which TMP stands for in its arguments and lines. A
report that --out writes and files names must hold the bytes the same run
prints on stdout without --out and --jobs.

In-process faults, planted on the program's work (grothsnp.cli.run,
desk_sweep.sweep or export_figure_data.export_shape) or around it:

- none: nothing planted;
- usage, out-refused: the work raises AssertionError, so a refusal must come
  before it; out-refused makes the export's --out-dir a file first;
- write-fails: the file written first, --out or the export's first CSV, is
  a symlink to /dev/full;
- stdout-enospc, stdout-epipe: every write to stdout raises that OSError;
- stdout-closed: sys.stdout is None, as when fd 1 is closed at start-up;
- interrupt, memory, invariant, oserror: the work raises KeyboardInterrupt,
  MemoryError, ValueError("planted") or an OSError that names no file,
  whose traceback the program keeps (status OSError);
- flipped-sign: the flipped_top_sign fixture, which SchurExpansion refuses.

Child faults, each run as a new interpreter:

- pipe, pipe-unbuffered: stdout is a pipe whose read end is closed, with
  stdout buffered (so the failure shows in the flush at exit) or not;
- fd1-closed: fd 1 is closed; dev-full: stdout is /dev/full;
- rlimit:M: an address-space limit of M MiB;
- hog:M: the same, with battery.run_checks replaced by a loop that fills it;
- sigint: battery.run_check sleeps, and SIGINT reaches the process group of
  the busy sweep, which must have no worker process.

A row that replaced an earlier test of tests/test_cli.py is named by that
test's id, and test_cli.py collects it there (see adopt in conftest.py), so
each id's history reads on; this module collects the other rows.
"""

from __future__ import annotations

import errno
import functools
import importlib.util
import io
import os
import re
import shlex
import shutil
import signal
import subprocess
import sys
import time
from typing import NamedTuple

import pytest
from conftest import ROOT, child_env, load

G, S, E = "grothsnp", "desk_sweep.py", "export_figure_data.py"
SCRIPTS = {S: "scripts/desk_sweep.py", E: "scripts/export_figure_data.py"}
WORK = {G: "run", S: "sweep", E: "export_shape"}

ENOSPC, EPIPE, EBADF, EISDIR, EEXIST = map(
    os.strerror, (errno.ENOSPC, errno.EPIPE, errno.EBADF, errno.EISDIR, errno.EEXIST)
)


class Row(NamedTuple):
    name: str
    program: str
    argv: str
    fault: str
    status: int | type[BaseException]
    stdout: str | None
    stderr: tuple[str, ...]
    files: tuple[str, ...] = ()


def stdout_fails(prog, strerror):
    return (f"{prog}: error: cannot write stdout: {strerror}",)


VERIFY = "verify --lambda 2,1 --n 3 --trials 5"
SMALL_SWEEP = "--max-part 1 --max-rows 1 --n-values 2 --trials 5"
SWEEP = "--max-part 2 --max-rows 2 --n-values 2,3 --trials 5"
EXPORT = "--n 2 --max-part 1 --out-dir TMP"
EXPORTED = ("lam_1-1_n2.csv", "lam_1_n2.csv", "lam_empty_n2.csv", "manifest.json")
BROKEN_SIGN = ("grothsnp: verification failed: coefficient sign broken at (3, 3, 3, 3)",)
NO_DIRECTORY = "cannot write --out TMP/missing/report.json: no directory TMP/missing"

ROWS = [
    # exit 0: a report on stdout, or in --out with its bytes
    Row("TestOutputFile::test_out_writes_the_same_bytes",
        G, "chain --lambda 3,1,0 --n 3 --out TMP/chain.json", "none", 0, "", (),
        ("chain.json",)),
    Row("TestOutputFile::test_repeated_runs_are_byte_identical",
        G, "verify --lambda 3,1,0 --n 3 --claim c --trials 30 --seed 9 --out TMP/v.json",
        "none", 0, "", (), ("v.json",)),
    Row("TestDeskSweepOut::test_file_is_the_stdout_report",
        S, f"{SWEEP} --jobs 2 --out TMP/sweep.json", "none", 0,
        "12 pairs swept, all checks passed; report in TMP/sweep.json\n", (), ("sweep.json",)),
    Row("TestDeskSweepOut::test_stdout_is_one_summary_line",
        S, f"{SWEEP} --out TMP/sweep.json", "none", 0,
        "12 pairs swept, all checks passed; report in TMP/sweep.json\n", (), ("sweep.json",)),
    # exit 1: a broken invariant, with no report
    *[
        Row(f"TestBrokenInvariant::test_one_line_and_exit_one[{command}-{where}]",
            G, f"{command} --lambda 3,2,1 --n 4" + (" --out TMP/report.json" * (where == "out")),
            "flipped-sign", 1, "", BROKEN_SIGN)
        for command in ("expand", "groth", "snp")
        for where in ("stdout", "out")
    ],
    Row("export-invariant", E, EXPORT, "invariant", 1, "",
        ("export_figure_data.py: verification failed: planted",)),
    # exit 2: usage errors
    Row("TestUsageErrors::test_malformed_lambda", G, "expand --lambda 1,3 --n 3", "usage", 2, "",
        ("grothsnp expand: error: argument --lambda: partition parts must be weakly "
         "decreasing: (1, 3)",)),
    Row("TestUsageErrors::test_non_integer_lambda", G, "expand --lambda a,b --n 3", "usage", 2,
        "", ("grothsnp expand: error: argument --lambda: expected a comma-separated integer "
             "list, got 'a,b'",)),
    Row("TestUsageErrors::test_missing_n", G, "expand --lambda 1", "usage", 2, "",
        ("grothsnp expand: error: the following arguments are required: --n",)),
    Row("TestUsageErrors::test_unknown_command", G, "frobnicate --n 2", "usage", 2, "",
        ("grothsnp: error: argument command: invalid choice: 'frobnicate'...",)),
    Row("TestUsageErrors::test_jobs_belongs_to_verify",
        G, "groth --lambda 2,1 --n 2 --jobs 2", "usage", 2, "",
        ("grothsnp: error: unrecognized arguments: --jobs 2",)),
    *[
        Row(f"TestUsageErrors::test_validation_message[{param}]", G, argv, "usage", 2, "",
            (line,))
        for param, argv, line in [
            ("n=0", "expand --lambda '' --n 0",
             "grothsnp expand: error: argument --n: must be at least 1"),
            ("rows>n", "expand --lambda 3,1,1 --n 2",
             "grothsnp: error: lambda has 3 rows but n = 2"),
            ("jobs=0", "verify --lambda 3,1 --n 3 --jobs 0",
             "grothsnp verify: error: argument --jobs: must be at least 1"),
            ("trials=0", "verify --lambda 3,1 --n 3 --trials 0",
             "grothsnp verify: error: argument --trials: must be at least 1"),
            ("figure-n>3", "figure-data --lambda 1,0 --n 4",
             "grothsnp: error: figure export limited to n ≤ 3"),
            # Several bad values: a range (battery.count) is refused while
            # parsing, in the subcommand's line, before any check across
            # arguments; of those, figure-data n comes before rows.
            ("figure-n-first", "figure-data --lambda 1,1,1,1,1 --n 4",
             "grothsnp: error: figure export limited to n ≤ 3"),
            ("n-before-rows", "figure-data --lambda 1 --n 0",
             "grothsnp figure-data: error: argument --n: must be at least 1"),
            ("rows-before-jobs", "verify --lambda 3,1,1 --n 2 --jobs 0",
             "grothsnp verify: error: argument --jobs: must be at least 1"),
            ("jobs-before-trials", "verify --lambda 3,1 --n 3 --jobs 0 --trials 0",
             "grothsnp verify: error: argument --jobs: must be at least 1"),
            # argparse names the type in the line that refuses a non-integer.
            ("jobs=x", "verify --lambda 3,1 --n 3 --jobs x",
             "grothsnp verify: error: argument --jobs: invalid count value: 'x'"),
        ]
    ],
    *[
        Row(f"TestDeskSweepBattery::test_empty_sweep_is_a_usage_error[{param}]",
            S, argv, "usage", 2, "", (f"desk_sweep.py: error: {reason}",))
        for param, argv, reason in [
            ("", "--n-values ''",
             "argument --n-values: names no variable count; nothing to sweep"),
            (",", "--n-values ,",
             "argument --n-values: names no variable count; nothing to sweep"),
            # A repeated n would sweep its pairs twice; it is refused like an
            # empty sweep, while parsing.
            ("2,2", "--n-values 2,2",
             "argument --n-values: repeats a variable count; name each n once"),
            ("3,2,3", "--n-values 3,2,3",
             "argument --n-values: repeats a variable count; name each n once"),
            ("0", "--n-values 0", "argument --n-values: must be at least 1"),
            ("x", "--n-values x", "argument --n-values: invalid counts value: 'x'"),
            # An empty token beside an n is refused, as --lambda 3,,1 is.
            ("2,,3", "--n-values 2,,3", "argument --n-values: empty entry in '2,,3'"),
            ("2,3,", "--n-values 2,3,", "argument --n-values: empty entry in '2,3,'"),
            ("max-part=-1", "--max-part -1", "argument --max-part: must be at least 0"),
            ("max-rows=-1", "--max-rows -1", "argument --max-rows: must be at least 0"),
            ("trials=0", "--trials 0", "argument --trials: must be at least 1"),
            ("jobs=0", "--jobs 0", "argument --jobs: must be at least 1"),
        ]
    ],
    Row("TestUnwritableOut::test_figure_export_usage_error[max-part=-1]",
        E, "--max-part -1 --out-dir figures", "usage", 2, "",
        ("export_figure_data.py: error: argument --max-part: must be at least 0",)),
    Row("TestUnwritableOut::test_figure_export_usage_error[empty-out-dir]",
        E, "--out-dir ''", "usage", 2, "",
        ("export_figure_data.py: error: argument --out-dir: must name a directory",)),
    # exit 2: an --out refused before the work runs
    Row("TestUnwritableOut::test_missing_directory_is_refused_before_computing",
        G, "verify --lambda 2,1 --n 2 --out missing/report.json", "out-refused", 2, "",
        ("grothsnp: error: cannot write --out missing/report.json: no directory TMP/missing",)),
    Row("grothsnp-out-directory", G, "verify --lambda 2,1 --n 2 --out .", "out-refused", 2, "",
        (f"grothsnp: error: cannot write --out .: {EISDIR}",)),
    *[
        Row(f"{prog.removesuffix('.py')}-out-{label}", prog, f"{argv} --out {out}",
            "out-refused", 2, "",
            (f"{prog}: error: cannot write --out {shlex.split(out)[0]}: names no file",))
        for prog, argv in ((G, "verify --lambda 2,1 --n 2"), (S, SMALL_SWEEP))
        for label, out in (("empty", "''"), ("trailing-separator", "missing/"))
    ],
    *[
        Row(f"TestFillLimit::test_refused_before_filling[{param}]",
            G, f"{argv} --out TMP/missing/report.json", "out-refused", 2, "",
            (f"grothsnp: error: {NO_DIRECTORY}",))
        for param, argv in (("verify-n3", "verify --lambda 798 --n 3"),
                            ("groth-out", "groth --lambda 1000 --n 1"))
    ],
    Row("TestUnwritableOut::test_desk_sweep_refuses_a_missing_directory",
        S, "--out TMP/missing/report.json", "out-refused", 2, "",
        (f"desk_sweep.py: error: {NO_DIRECTORY}",)),
    Row("TestDeskSweepOut::test_directory_as_out_is_refused",
        S, f"{SWEEP} --out TMP", "out-refused", 2, "",
        (f"desk_sweep.py: error: cannot write --out TMP: {EISDIR}",)),
    Row("TestUnwritableOut::test_figure_export_refuses_a_file_as_out_dir",
        E, "--n 2 --max-part 1 --out-dir TMP/taken", "out-refused", 2, "",
        (f"export_figure_data.py: error: cannot write TMP/taken: {EEXIST}",)),
    # exit 2: a file the run writes takes no bytes
    Row("TestUnwritableOut::test_failed_write_is_refused",
        G, "chain --lambda 1 --n 2 --out TMP/chain.json", "write-fails", 2, "",
        (f"grothsnp: error: cannot write --out TMP/chain.json: {ENOSPC}",)),
    Row("desk_sweep-write-fails", S, f"{SMALL_SWEEP} --out TMP/sweep.json", "write-fails", 2,
        "", (f"desk_sweep.py: error: cannot write --out TMP/sweep.json: {ENOSPC}",)),
    Row("TestUnwritableOut::test_figure_export_names_a_csv_whose_flush_fails",
        E, EXPORT, "write-fails", 2, "",
        (f"export_figure_data.py: error: cannot write TMP/lam_empty_n2.csv: {ENOSPC}",)),
    # exit 2: stdout takes no bytes
    *[
        Row(f"{name}[exc{i}]", prog, argv, fault, 2, "", stdout_fails(prog, strerror), files)
        for name, prog, argv, files in [
            ("TestUnwritableStdout::test_cli_exits_two_with_one_line", G, VERIFY, ()),
            ("TestUnwritableStdout::test_desk_sweep_exits_two_with_one_line", S, SMALL_SWEEP,
             ()),
        ]
        for i, (fault, strerror) in enumerate((("stdout-enospc", ENOSPC),
                                               ("stdout-epipe", EPIPE)))
    ],
    Row("export-stdout-enospc", E, EXPORT, "stdout-enospc", 2, "", stdout_fails(E, ENOSPC),
        EXPORTED),
    Row("export-stdout-epipe", E, EXPORT, "stdout-epipe", 2, "", stdout_fails(E, EPIPE),
        EXPORTED),
    *[
        Row(f"TestUnwritableStdout::test_cli_help_exits_two_with_one_line[argv{i}-exc{j}]",
            G, argv, fault, 2, "", stdout_fails(G, strerror))
        for i, argv in enumerate(("--help", "verify --help"))
        for j, (fault, strerror) in enumerate((("stdout-enospc", ENOSPC),
                                               ("stdout-epipe", EPIPE)))
    ],
    Row("TestClosedStdout::test_cli_exits_two_with_one_line", G, VERIFY, "stdout-closed", 2, "",
        stdout_fails(G, EBADF)),
    Row("TestClosedStdout::test_cli_help_exits_two_with_one_line", G, "--help", "stdout-closed",
        2, "", stdout_fails(G, EBADF)),
    Row("TestClosedStdout::test_cli_out_needs_no_stdout",
        G, "chain --lambda 1 --n 2 --out TMP/chain.json", "stdout-closed", 0, "", (),
        ("chain.json",)),
    Row("TestClosedStdout::test_desk_sweep_exits_two_with_one_line",
        S, "--max-part 1 --n-values 2 --trials 5 --out TMP/sweep.json", "stdout-closed", 2, "",
        stdout_fails(S, EBADF), ("sweep.json",)),
    Row("TestClosedStdout::test_figure_export_exits_two_with_one_line",
        E, EXPORT, "stdout-closed", 2, "", stdout_fails(E, EBADF), EXPORTED),
    # exit 2: Ctrl-C and exhausted memory
    Row("TestInterrupt::test_cli_interrupt_exits_two_with_one_line",
        G, "verify --lambda 2,1 --n 2", "interrupt", 2, "", ("grothsnp: error: interrupted",)),
    Row("TestInterrupt::test_desk_sweep_interrupt_exits_two_with_one_line",
        S, "--n-values 2", "interrupt", 2, "", ("desk_sweep.py: error: interrupted",)),
    Row("export-interrupt", E, EXPORT, "interrupt", 2, "",
        ("export_figure_data.py: error: interrupted",)),
    Row("TestOutOfMemory::test_cli_exits_two_with_one_line",
        G, "verify --lambda 2,1 --n 2", "memory", 2, "", ("grothsnp: error: out of memory",)),
    Row("TestOutOfMemory::test_desk_sweep_out_of_memory",
        S, "--max-part 1 --max-rows 1 --n-values 2 --jobs 2", "memory", 2, "",
        ("desk_sweep.py: error: out of memory",)),
    Row("export-memory", E, EXPORT, "memory", 2, "",
        ("export_figure_data.py: error: out of memory",)),
    # an OSError that names no file: no line could name it, so it keeps its traceback
    Row("TestOutOfMemory::test_an_os_error_that_names_no_file_keeps_its_traceback",
        G, "verify --lambda 2,1 --n 2", "oserror", OSError, "", ()),
    # children
    *[
        Row(f"TestUnwritableStdout::test_closed_pipe_prints_no_second_line[argv{i}-{prog}]",
            prog, argv, "pipe", 2, None, stdout_fails(prog, EPIPE), files)
        for i, (prog, argv, files) in enumerate(((G, VERIFY, ()), (S, SMALL_SWEEP, ()),
                                                 (E, EXPORT, EXPORTED)))
    ],
    *[
        Row(f"TestUnwritableStdout::test_help_on_a_closed_pipe[argv{i}-{prog}-{unbuffered}]",
            prog, argv, "pipe-unbuffered" if unbuffered else "pipe", 2, None,
            stdout_fails(prog, EPIPE))
        for i, (prog, argv) in enumerate(((G, "--help"), (G, "verify --help"), (S, "--help"),
                                          (E, "--help")))
        for unbuffered in (False, True)
    ],
    Row("TestClosedStdout::test_in_a_child[help]", G, "--help", "fd1-closed", 2, None,
        stdout_fails(G, EBADF)),
    Row("TestClosedStdout::test_in_a_child[verify]", G, VERIFY, "fd1-closed", 2, None,
        stdout_fails(G, EBADF)),
    Row("TestClosedStdout::test_in_a_child[chain-out]",
        G, "chain --lambda 1 --n 2 --out TMP/chain.json", "fd1-closed", 0, None, (),
        ("chain.json",)),
    Row("grothsnp-dev-full", G, VERIFY, "dev-full", 2, None, stdout_fails(G, ENOSPC)),
    Row("desk_sweep-dev-full", S, SMALL_SWEEP, "dev-full", 2, None, stdout_fails(S, ENOSPC)),
    # (300) in 4 variables needs more than 200 MiB.
    Row("TestOutOfMemory::test_verify_under_an_address_space_limit",
        G, "verify --lambda 300 --n 4", "rlimit:200", 2, "", ("grothsnp: error: out of memory",)),
    Row("desk_sweep-address-space-limit",
        S, "--max-part 200 --max-rows 1 --n-values 4 --jobs 2", "rlimit:40", 2, "",
        ("desk_sweep.py: error: out of memory",)),
    # The MemoryError is raised in the hog's frame, with the full memory still
    # held; the one line is printed once that frame is freed.
    Row("TestOutOfMemory::test_desk_sweep_that_fills_its_memory",
        S, "--n-values 2 --jobs 2", "hog:96", 2, "", ("desk_sweep.py: error: out of memory",)),
    # --jobs 2 is accepted, and the pairs run in the one process: no child.
    Row("TestInterrupt::test_ctrl_c_in_the_sweep", S, "--n-values 2 --jobs 2", "sigint", 2, "",
        ("desk_sweep.py: error: interrupted",)),
]

CHILD_FAULTS = {"pipe", "pipe-unbuffered", "fd1-closed", "dev-full", "rlimit", "hog", "sigint"}
NO_DEV_FULL = not os.path.exists("/dev/full"), "needs /dev/full"
NO_RLIMITS = importlib.util.find_spec("resource") is None, "needs POSIX rlimits"
SKIPS = {
    "write-fails": NO_DEV_FULL,
    "dev-full": NO_DEV_FULL,
    "rlimit": NO_RLIMITS,
    "hog": NO_RLIMITS,
    "sigint": (not hasattr(os, "killpg") or shutil.which("ps") is None,
               "needs POSIX process groups and ps"),
}

# The work each in-process fault makes raise.
RAISES = {
    "usage": functools.partial(AssertionError, "the work ran"),
    "out-refused": functools.partial(AssertionError, "the work ran before the refusal"),
    "interrupt": KeyboardInterrupt,
    "memory": MemoryError,
    "invariant": functools.partial(ValueError, "planted"),
    "oserror": functools.partial(OSError, errno.EAGAIN, os.strerror(errno.EAGAIN)),
}

# The heads of `python -c` wrappers that plant a battery function of the
# child's and then run the script named after them.
PLANTS = {
    "hog": (
        "def hog(lam, n, names=None):\n"
        "    pieces = []\n"
        "    while True:\n"
        "        pieces.append(bytearray(4096))\n"
        "grothsnp.battery.run_checks = hog\n"
    ),
    "sigint": (
        "def slow_check(name, lam, n):\n"
        "    time.sleep(60)\n"
        "grothsnp.battery.run_check = slow_check\n"
    ),
}


class FailingStdout(io.StringIO):
    """A stdout whose every write fails with one OSError."""

    def __init__(self, exc):
        super().__init__()
        self.exc = exc

    def write(self, text):
        raise self.exc


STDOUTS = {
    "stdout-enospc": lambda: FailingStdout(OSError(errno.ENOSPC, ENOSPC)),
    "stdout-epipe": lambda: FailingStdout(BrokenPipeError(errno.EPIPE, EPIPE)),
    "stdout-closed": lambda: None,
}


def option(args, name):
    """The value of option name in args, or None."""
    return args[args.index(name) + 1] if name in args else None


def without(args, *names):
    """args without the options names and their values."""
    return [arg for arg, previous in zip(args, [None, *args])
            if arg not in names and previous not in names]


def entry(program):
    """The module whose main is program: grothsnp.cli, or the script afresh."""
    if program in SCRIPTS:
        return load(SCRIPTS[program])
    from grothsnp import cli

    return cli


def run_in_process(row, args, monkeypatch, capsys, request):
    module = entry(row.program)
    if row.fault == "flipped-sign":
        request.getfixturevalue("flipped_top_sign")
    if row.fault in RAISES:
        def work(*ignored):
            raise RAISES[row.fault]()

        monkeypatch.setattr(module, WORK[row.program], work)
    if row.fault == "out-refused" and "--out-dir" in args:
        open(option(args, "--out-dir"), "w").close()
    if row.fault == "write-fails":
        out_dir = option(args, "--out-dir")
        os.symlink("/dev/full", option(args, "--out") or os.path.join(out_dir, "lam_empty_n2.csv"))
    if row.fault in STDOUTS:
        monkeypatch.setattr(sys, "stdout", STDOUTS[row.fault]())
    monkeypatch.setattr(sys, "argv", [SCRIPTS.get(row.program, G)])  # argparse's prog
    before = set(os.listdir())
    if isinstance(row.status, type):
        with pytest.raises(row.status):
            module.main(args)
        status = row.status
    else:
        try:
            status = module.main(args)
        except SystemExit as exc:
            status = exc.code
    out, err = capsys.readouterr()
    return status, out, err, before


def run_child(row, args):
    fault, _, mib = row.fault.partition(":")
    program = [str(ROOT / SCRIPTS[row.program])] if row.program in SCRIPTS else ["-m", G]
    if fault in PLANTS:
        head = ("import runpy, sys, time\nimport grothsnp.battery\n" + PLANTS[fault]
                + "sys.argv = sys.argv[1:]\nrunpy.run_path(sys.argv[0], run_name='__main__')")
        program = ["-c", head, *program]
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if fault == "pipe-unbuffered":
        env["PYTHONUNBUFFERED"] = "1"

    def preexec():
        # A SIGINT that the parent ignores would be ignored by the child too.
        signal.signal(signal.SIGINT, signal.SIG_DFL)
        if mib:
            import resource

            limit = int(mib) * 1024 * 1024
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
        if fault == "fd1-closed":
            os.close(1)

    stdout = None if fault == "fd1-closed" else subprocess.PIPE
    if fault.startswith("pipe"):
        read_end, stdout = os.pipe()
        os.close(read_end)
    elif fault == "dev-full":
        stdout = os.open("/dev/full", os.O_WRONLY)
    proc = subprocess.Popen(
        [sys.executable, *program, *args],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        start_new_session=True,
        preexec_fn=preexec,
    )
    if stdout not in (None, subprocess.PIPE):
        os.close(stdout)
    try:
        if fault == "sigint":
            time.sleep(1.5)
            listing = subprocess.run(
                ["ps", "-o", "pid=", "--ppid", str(proc.pid)], capture_output=True, text=True
            )
            assert listing.stdout.split() == []
            # Ctrl-C reaches the whole foreground process group.
            os.killpg(proc.pid, signal.SIGINT)
        out, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    return proc.returncode, out, err, set()


def reference(row, args, capsys):
    """The stdout of row's program on args without --out and --jobs."""
    assert entry(row.program).main(without(args, "--out", "--jobs")) == 0
    return capsys.readouterr().out


def check(row, request):
    """Run row and assert what it must leave."""
    tmp = request.getfixturevalue("tmp_path")
    monkeypatch = request.getfixturevalue("monkeypatch")
    capsys = request.getfixturevalue("capsys")
    monkeypatch.chdir(tmp)
    args = [arg.replace("TMP", str(tmp)) for arg in shlex.split(row.argv)]
    report = option(args, "--out")
    compared = report is not None and os.path.basename(report) in row.files
    if compared:
        expected = reference(row, args, capsys)
    if row.fault.partition(":")[0] in CHILD_FAULTS:
        status, out, err, before = run_child(row, args)
    else:
        status, out, err, before = run_in_process(row, args, monkeypatch, capsys, request)
    assert status == row.status
    if row.stdout is not None:
        assert out == row.stdout.replace("TMP", str(tmp))
    lines = err.splitlines()
    if row.fault == "usage":
        assert lines[0].startswith(f"usage: {row.stderr[0].split(':')[0]} ")
        lines = lines[-1:]
    expected_lines = [line.replace("TMP", str(tmp)) for line in row.stderr]
    assert len(lines) == len(expected_lines), err
    for line, want in zip(lines, expected_lines):
        assert line.startswith(want[:-3]) if want.endswith("...") else line == want
    assert sorted(set(os.listdir()) - before) == sorted(row.files)
    if compared:
        written = (tmp / report).read_text(encoding="utf-8")
        assert mask_seconds(written) == mask_seconds(expected)


def mask_seconds(report):
    """report with each sweep pair's wall-clock seconds masked."""
    return re.sub(r'"seconds": [0-9.e-]+', '"seconds": 0', report)


def marks(row):
    skip = SKIPS.get(row.fault.partition(":")[0])
    return [pytest.mark.skipif(skip[0], reason=skip[1])] if skip else []


@pytest.mark.parametrize(
    "row",
    [pytest.param(row, id=row.name, marks=marks(row)) for row in ROWS if "::" not in row.name],
)
def test_row(row, request):
    check(row, request)
