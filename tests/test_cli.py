"""Command-line surface: golden outputs, exit codes, determinism."""

import errno
import importlib.util
import io
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from grothsnp.cli import RunConfig, main
from grothsnp.partitions import Partition


ROOT = Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr().out
    return status, out


def env_with_src() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return env


class TestExpand:
    def test_displayed_expansion(self, capsys):
        status, out = run_cli(capsys, "expand", "--lambda", "3,1,0", "--n", "3")
        assert status == 0
        doc = json.loads(out)
        assert doc["lambda"] == [3, 1]
        assert doc["n"] == 3
        assert doc["terms"] == [
            {"mu": [3, 1], "coeff": 1},
            {"mu": [3, 1, 1], "coeff": -2},
            {"mu": [3, 2], "coeff": -1},
            {"mu": [3, 2, 1], "coeff": 2},
            {"mu": [3, 2, 2], "coeff": -1},
        ]

    def test_trailing_zeros_are_optional(self, capsys):
        _, bare = run_cli(capsys, "expand", "--lambda", "3,1", "--n", "3")
        _, padded = run_cli(capsys, "expand", "--lambda", "3,1,0", "--n", "3")
        assert bare == padded


class TestGroth:
    def test_monomial_output_in_graded_lex_order(self, capsys):
        status, out = run_cli(capsys, "groth", "--lambda", "1", "--n", "2")
        assert status == 0
        doc = json.loads(out)
        assert doc == {
            "n": 2,
            "terms": [
                {"exp": [0, 1], "coeff": 1},
                {"exp": [1, 0], "coeff": 1},
                {"exp": [1, 1], "coeff": -1},
            ],
        }


class TestChain:
    def test_displayed_chain(self, capsys):
        status, out = run_cli(capsys, "chain", "--lambda", "3,1,0", "--n", "3")
        assert status == 0
        assert json.loads(out) == {
            "mus": [[3, 1, 0], [3, 2, 0], [3, 2, 1], [3, 2, 2]],
            "rows": [2, 3, 3],
        }


class TestNewton:
    def test_segment_plus_point(self, capsys):
        status, out = run_cli(capsys, "newton", "--lambda", "1,0", "--n", "2")
        assert status == 0
        doc = json.loads(out)
        assert doc["lambda"] == [1]
        assert [c["degree"] for c in doc["components"]] == [1, 2]
        assert doc["components"][0]["lattice_points"] == [[0, 1], [1, 0]]
        assert doc["components"][1]["lattice_points"] == [[1, 1]]


class TestSnp:
    def test_fast_route(self, capsys):
        status, out = run_cli(capsys, "snp", "--lambda", "3,1,0", "--n", "3")
        assert status == 0
        doc = json.loads(out)
        assert doc["method"] == "fast"
        assert doc["snp"] is True
        assert doc["violation"] is None
        assert [c["weight"] for c in doc["components"]] == [
            [3, 1, 0],
            [3, 2, 0],
            [3, 2, 1],
            [3, 2, 2],
        ]

    def test_brute_route(self, capsys):
        status, out = run_cli(capsys, "snp", "--lambda", "3,1,0", "--n", "3", "--brute")
        assert status == 0
        doc = json.loads(out)
        assert doc["method"] == "brute"
        assert doc["snp"] is True
        assert len(doc["hull_lattice_points"]) == 34


class TestVerify:
    def test_all_checks_pass_on_the_smallest_case(self, capsys):
        status, out = run_cli(
            capsys, "verify", "--lambda", "1,0", "--n", "2", "--all", "--trials", "50"
        )
        assert status == 0
        doc = json.loads(out)
        assert doc["ok"] is True
        names = [c["name"] for c in doc["checks"]]
        assert names == [
            "cross-oracle",
            "component-snp",
            "claim-a",
            "claim-b",
            "claim-c",
            "lemmas",
            "brute-snp",
        ]

    def test_single_claim_selection(self, capsys):
        status, out = run_cli(
            capsys, "verify", "--lambda", "3,1,0", "--n", "3", "--claim", "a"
        )
        assert status == 0
        doc = json.loads(out)
        assert [c["name"] for c in doc["checks"]] == ["claim-a"]

    def test_lemmas_selection(self, capsys):
        status, out = run_cli(
            capsys,
            "verify", "--lambda", "3,1,0", "--n", "3",
            "--lemmas", "--trials", "25",
        )
        assert status == 0
        assert [c["name"] for c in json.loads(out)["checks"]] == ["lemmas"]

    def test_brute_snp_is_skipped_beyond_three_variables(self, capsys):
        status, out = run_cli(
            capsys,
            "verify", "--lambda", "2,1", "--n", "4", "--all", "--trials", "25",
        )
        assert status == 0
        names = [c["name"] for c in json.loads(out)["checks"]]
        assert "brute-snp" not in names
        assert "component-snp" in names

    def test_failure_reports_exit_one(self, capsys, monkeypatch):
        def forced_failure(task):
            name = task[0]
            return {"name": name, "ok": False, "detail": "forced"}

        monkeypatch.setattr("grothsnp.battery.run_check", forced_failure)
        status, out = run_cli(
            capsys, "verify", "--lambda", "1,0", "--n", "2", "--claim", "b"
        )
        assert status == 1
        assert json.loads(out)["ok"] is False

    def test_jobs_flag_does_not_change_the_output(self, capsys):
        args = ("verify", "--lambda", "2,1,0", "--n", "3", "--all", "--trials", "40")
        _, serial = run_cli(capsys, *args)
        _, parallel = run_cli(capsys, *args, "--jobs", "3")
        assert serial == parallel


class TestFigureData:
    def test_empty_shape_two_variables(self, capsys):
        status, out = run_cli(capsys, "figure-data", "--lambda", "", "--n", "2")
        assert status == 0
        assert out == "0,0,-,0\n"

    def test_one_box_two_variables(self, capsys):
        status, out = run_cli(capsys, "figure-data", "--lambda", "1,0", "--n", "2")
        assert status == 0
        assert out == "0,1,-,1\n1,0,-,1\n1,1,-,2\n"

    def test_displayed_case_row_counts(self, capsys):
        status, out = run_cli(capsys, "figure-data", "--lambda", "3,1,0", "--n", "3")
        assert status == 0
        lines = out.strip().split("\n")
        assert len(lines) == 34
        by_degree = {}
        for line in lines:
            by_degree.setdefault(line.rsplit(",", 1)[1], []).append(line)
        assert {k: len(v) for k, v in by_degree.items()} == {
            "4": 12,
            "5": 12,
            "6": 7,
            "7": 3,
        }

    def test_too_many_variables_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["figure-data", "--lambda", "1,0", "--n", "4"])
        assert err.value.code == 2
        assert "figure export limited to n" in capsys.readouterr().err


class TestUsageErrors:
    def test_malformed_lambda(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["expand", "--lambda", "1,3", "--n", "3"])
        assert err.value.code == 2

    def test_non_integer_lambda(self):
        with pytest.raises(SystemExit) as err:
            main(["expand", "--lambda", "a,b", "--n", "3"])
        assert err.value.code == 2

    def test_more_rows_than_variables(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["expand", "--lambda", "3,1,1", "--n", "2"])
        assert err.value.code == 2
        assert "rows" in capsys.readouterr().err

    def test_missing_n(self):
        with pytest.raises(SystemExit) as err:
            main(["expand", "--lambda", "1"])
        assert err.value.code == 2

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate", "--n", "2"])
        assert err.value.code == 2

    def test_jobs_belongs_to_verify(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["groth", "--lambda", "2,1", "--n", "2", "--jobs", "2"])
        assert err.value.code == 2
        assert capsys.readouterr().err.startswith("usage: grothsnp ")


class TestOutputFile:
    def test_out_writes_the_same_bytes(self, capsys, tmp_path):
        target = tmp_path / "chain.json"
        status = main(
            ["chain", "--lambda", "3,1,0", "--n", "3", "--out", str(target)]
        )
        assert status == 0
        assert capsys.readouterr().out == ""
        _, streamed = run_cli(capsys, "chain", "--lambda", "3,1,0", "--n", "3")
        assert target.read_text(encoding="utf-8") == streamed

    def test_repeated_runs_are_byte_identical(self, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            main(
                [
                    "verify", "--lambda", "3,1,0", "--n", "3",
                    "--claim", "c", "--trials", "30", "--seed", "9",
                    "--out", str(path),
                ]
            )
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestUnwritableOut:
    def test_missing_directory_is_refused_before_computing(
        self, capsys, tmp_path, monkeypatch
    ):
        def no_run(config):
            raise AssertionError("computed before checking --out")

        monkeypatch.setattr("grothsnp.cli.run", no_run)
        target = tmp_path / "missing" / "report.json"
        status = main(["verify", "--lambda", "2,1", "--n", "2", "--out", str(target)])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"grothsnp: error: cannot write --out {target}: ")

    def test_failed_write_is_refused(self, capsys, tmp_path):
        status = main(["chain", "--lambda", "1", "--n", "2", "--out", str(tmp_path)])
        lines = capsys.readouterr().err.splitlines()
        assert status == 2
        assert len(lines) == 1
        assert lines[0].startswith(f"grothsnp: error: cannot write --out {tmp_path}: ")

    def test_desk_sweep_refuses_a_missing_directory(self, tmp_path):
        target = tmp_path / "missing" / "sweep.json"
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "desk_sweep.py"), "--out", str(target)],
            capture_output=True,
            text=True,
            env=env_with_src(),
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"desk_sweep.py: error: cannot write --out {target}: ")

    def test_figure_export_refuses_a_file_as_out_dir(self, tmp_path):
        target = tmp_path / "taken"
        target.write_text("", encoding="utf-8")
        proc = subprocess.run(
            [
                sys.executable, str(ROOT / "scripts" / "export_figure_data.py"),
                "--n", "2", "--max-part", "1", "--out-dir", str(target),
            ],
            capture_output=True,
            text=True,
            env=env_with_src(),
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"export_figure_data.py: error: cannot write {target}: ")


class FailingStdout(io.StringIO):
    """A stdout whose every write fails with one OSError."""

    def __init__(self, exc):
        super().__init__()
        self.exc = exc

    def write(self, text):
        raise self.exc


STDOUT_FAILURES = [
    OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)),
    BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE)),
]


class TestUnwritableStdout:
    @pytest.mark.parametrize("exc", STDOUT_FAILURES)
    def test_cli_exits_two_with_one_line(self, capsys, monkeypatch, exc):
        monkeypatch.setattr(sys, "stdout", FailingStdout(exc))
        status = main(["verify", "--lambda", "2,1", "--n", "3", "--trials", "5"])
        assert status == 2
        assert capsys.readouterr().err.splitlines() == [
            f"grothsnp: error: cannot write stdout: {exc.strerror}"
        ]

    @pytest.mark.parametrize("exc", STDOUT_FAILURES)
    def test_desk_sweep_exits_two_with_one_line(self, capsys, monkeypatch, exc):
        desk_sweep = load_desk_sweep(monkeypatch)
        monkeypatch.setattr(sys, "stdout", FailingStdout(exc))
        status = desk_sweep.main(
            ["--max-part", "1", "--max-rows", "1", "--n-values", "2", "--trials", "5"]
        )
        assert status == 2
        assert capsys.readouterr().err.splitlines() == [
            f"desk_sweep.py: error: cannot write stdout: {exc.strerror}"
        ]

    @pytest.mark.parametrize(
        "argv, prog",
        [
            (["-m", "grothsnp", "verify", "--lambda", "2,1", "--n", "3",
              "--trials", "5"],
             "grothsnp"),
            ([str(ROOT / "scripts" / "desk_sweep.py"), "--max-part", "1",
              "--max-rows", "1", "--n-values", "2", "--trials", "5"],
             "desk_sweep.py"),
            ([str(ROOT / "scripts" / "export_figure_data.py"), "--n", "2",
              "--max-part", "1", "--out-dir"],
             "export_figure_data.py"),
        ],
    )
    def test_closed_pipe_prints_no_second_line(self, tmp_path, argv, prog):
        # The interpreter flushes stdout once more at exit; that flush must
        # neither print "Exception ignored" nor change the exit status. Stdout
        # stays buffered, as by default, so the failed text is still pending.
        if argv[-1] == "--out-dir":
            argv = [*argv, str(tmp_path)]
        env = env_with_src()
        env.pop("PYTHONUNBUFFERED", None)
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, *argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            f"{prog}: error: cannot write stdout: {os.strerror(errno.EPIPE)}"
        ]

    @pytest.mark.parametrize("exc", STDOUT_FAILURES)
    @pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]])
    def test_cli_help_exits_two_with_one_line(self, capsys, monkeypatch, exc, argv):
        monkeypatch.setattr(sys, "stdout", FailingStdout(exc))
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"grothsnp: error: cannot write stdout: {exc.strerror}"
        ]

    @pytest.mark.parametrize("unbuffered", [False, True])
    @pytest.mark.parametrize(
        "argv, prog",
        [
            (["-m", "grothsnp", "--help"], "grothsnp"),
            (["-m", "grothsnp", "verify", "--help"], "grothsnp"),
            ([str(ROOT / "scripts" / "desk_sweep.py"), "--help"], "desk_sweep.py"),
            ([str(ROOT / "scripts" / "export_figure_data.py"), "--help"],
             "export_figure_data.py"),
        ],
    )
    def test_help_on_a_closed_pipe(self, argv, prog, unbuffered):
        # Buffered, argparse's help text is still pending at exit; unbuffered,
        # its write fails at once, which argparse alone would swallow.
        env = env_with_src()
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, *argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            f"{prog}: error: cannot write stdout: {os.strerror(errno.EPIPE)}"
        ]


def load_desk_sweep(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "desk_sweep", ROOT / "scripts" / "desk_sweep.py"
    )
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "desk_sweep", module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


class TestDeskSweepBattery:
    @pytest.mark.parametrize("n", [3, 4])
    def test_pair_runs_the_verify_battery(self, capsys, monkeypatch, n):
        desk_sweep = load_desk_sweep(monkeypatch)
        swept = desk_sweep.run_battery(((2, 1), n, 30, 7))["checks"]
        _, out = run_cli(
            capsys,
            "verify", "--lambda", "2,1", "--n", str(n), "--all",
            "--trials", "30", "--seed", "7",
        )
        assert swept == json.loads(out)["checks"]
        assert ("brute-snp" in [c["name"] for c in swept]) == (n <= 3)

    def test_failed_check_exits_one(self, capsys, monkeypatch):
        def forced_failure(task):
            return {"name": task[0], "ok": False, "detail": "forced"}

        desk_sweep = load_desk_sweep(monkeypatch)
        monkeypatch.setattr("grothsnp.battery.run_check", forced_failure)
        status = desk_sweep.main(
            ["--max-part", "1", "--max-rows", "2", "--n-values", "2", "--trials", "5"]
        )
        report = json.loads(capsys.readouterr().out)
        assert status == 1
        assert report["ok"] is False
        assert report["pairs"] == 3
        assert report["failures"] == report["pairs"]

    @pytest.mark.parametrize("n_values", ["", ",", "2,2", "3,2,3"])
    def test_empty_sweep_is_a_usage_error(self, n_values):
        # A repeated n would sweep its pairs twice; it is refused like an
        # empty sweep, before any check runs.
        reason = (
            "--n-values repeats a variable count; name each n once"
            if n_values.strip(",")
            else "--n-values names no variable count; nothing to sweep"
        )
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "desk_sweep.py"), "--n-values", n_values],
            capture_output=True,
            text=True,
            env=env_with_src(),
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("usage: desk_sweep.py ")
        assert proc.stderr.splitlines()[-1] == f"desk_sweep.py: error: {reason}"


def interrupted():
    raise KeyboardInterrupt


class TestInterrupt:
    def test_cli_interrupt_exits_two_with_one_line(self, capsys, monkeypatch):
        monkeypatch.setattr("grothsnp.cli.run", lambda config: interrupted())
        status = main(["verify", "--lambda", "2,1", "--n", "2"])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert captured.err.splitlines() == ["grothsnp: error: interrupted"]

    def test_desk_sweep_interrupt_exits_two_with_one_line(self, capsys, monkeypatch):
        desk_sweep = load_desk_sweep(monkeypatch)
        monkeypatch.setattr(desk_sweep, "sweep", lambda config: interrupted())
        status = desk_sweep.main(["--n-values", "2"])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert captured.err.splitlines() == ["desk_sweep.py: error: interrupted"]

    @pytest.mark.skipif(
        not hasattr(os, "killpg") or shutil.which("ps") is None,
        reason="needs POSIX process groups and ps",
    )
    @pytest.mark.parametrize(
        "argv, prog",
        [
            (
                ["-m", "grothsnp", "verify", "--lambda", "3,1", "--n", "3",
                 "--claim", "b", "--lemmas", "--trials", "100000000", "--jobs", "2"],
                "grothsnp",
            ),
            (
                [str(ROOT / "scripts" / "desk_sweep.py"), "--n-values", "2",
                 "--trials", "100000000", "--jobs", "2"],
                "desk_sweep.py",
            ),
        ],
    )
    def test_ctrl_c_in_the_worker_pool(self, argv, prog):
        proc = subprocess.Popen(
            [sys.executable, *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env_with_src(),
            start_new_session=True,
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
        )
        try:
            time.sleep(1.5)
            # The workers alone first: they must ignore SIGINT and stay silent.
            listing = subprocess.run(
                ["ps", "-o", "pid=", "--ppid", str(proc.pid)],
                capture_output=True,
                text=True,
            )
            workers = [int(pid) for pid in listing.stdout.split()]
            assert len(workers) == 2
            for pid in workers:
                os.kill(pid, signal.SIGINT)
            time.sleep(0.5)
            # Then Ctrl-C, which reaches the whole foreground process group.
            os.killpg(proc.pid, signal.SIGINT)
            out, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
        assert proc.returncode == 2
        assert out == ""
        assert err.splitlines() == [f"{prog}: error: interrupted"]


class TestRunConfig:
    def test_validation(self):
        lam = Partition((3, 1))
        with pytest.raises(ValueError):
            RunConfig(command="nope", lam=lam, n=3)
        with pytest.raises(ValueError):
            RunConfig(command="expand", lam=lam, n=0)
        with pytest.raises(ValueError):
            RunConfig(command="expand", lam=lam, n=1)
        with pytest.raises(ValueError):
            RunConfig(command="expand", lam=lam, n=3, jobs=0)
        with pytest.raises(ValueError):
            RunConfig(command="verify", lam=lam, n=3, trials=0)


class TestEntryPoint:
    def test_installed_console_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "grothsnp", "chain", "--lambda", "1,0", "--n", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == {"mus": [[1, 0], [1, 1]], "rows": [2]}
