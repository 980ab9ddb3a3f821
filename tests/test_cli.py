"""Command-line surface: golden outputs, exit codes, determinism."""

import errno
import importlib.util
import io
import json
import multiprocessing
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from grothsnp import MuChain, Partition, battery, mu_chain
from grothsnp.cli import main


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

    def test_brute_route_within_the_work_limit(self, capsys):
        # (3+1)^5 * 3^5 = 248,832: the size of the CI run.
        status, out = run_cli(capsys, "snp", "--lambda", "3,1", "--n", "5", "--brute")
        assert status == 0
        assert json.loads(out)["snp"] is True

    @pytest.mark.parametrize(
        "parts, n, work",
        [("2,1", 8, "43,046,721"), ("2,1", 7, "4,782,969"),
         ("3,1", 7, "35,831,808"), ("4,2,1", 6, "11,390,625")],
    )
    def test_brute_route_refuses_oversized_inputs(self, capsys, monkeypatch, parts, n, work):
        def no_expansion(lam, n):
            raise AssertionError("G_lambda expanded before the refusal")

        monkeypatch.setattr("grothsnp.grothendieck.grothendieck_lenart", no_expansion)
        with pytest.raises(SystemExit) as err:
            main(["snp", "--lambda", parts, "--n", str(n), "--brute"])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: grothsnp ")
        assert captured.err.splitlines()[-1] == (
            "grothsnp: error: snp --brute limited to (lambda_1 + 1)^n * 3^n ≤ 3,000,000, "
            f"got {work}; drop --brute for the degreewise check"
        )
        assert sum(line.startswith("grothsnp: error:")
                   for line in captured.err.splitlines()) == 1

    def test_fast_route_has_no_work_limit(self, capsys):
        status, out = run_cli(capsys, "snp", "--lambda", "2,1", "--n", "8")
        assert status == 0
        assert json.loads(out)["snp"] is True


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

    @pytest.mark.parametrize("planted", [False, True], ids=["chain", "planted-chain"])
    def test_trials_and_seed_leave_claim_c_and_lemmas_alone(
        self, capsys, monkeypatch, planted
    ):
        if planted:
            # (3,2,1) with its row-3 box moved to row 1, so both checks fail
            chain = mu_chain(Partition((3, 1)), 3)
            bad = object.__new__(MuChain)
            for name in ("lam", "n", "rows"):
                object.__setattr__(bad, name, getattr(chain, name))
            mus = chain.mus[:2] + (Partition((4, 2)),) + chain.mus[3:]
            object.__setattr__(bad, "mus", mus)
            monkeypatch.setattr("grothsnp.grothendieck.mu_chain", lambda lam, n: bad)
        records = []
        for trials, seed in (("1", "0"), ("1000", "0"), ("1", "7"), ("1000", "7")):
            status, out = run_cli(
                capsys, "verify", "--lambda", "3,1", "--n", "3",
                "--claim", "c", "--lemmas", "--trials", trials, "--seed", seed,
            )
            assert status == (1 if planted else 0)
            records.append(json.loads(out)["checks"])
        assert all(checks == records[0] for checks in records)
        assert [c["ok"] for c in records[0]] == [not planted] * 2

    def test_brute_snp_is_skipped_beyond_three_variables(self, capsys):
        status, out = run_cli(
            capsys,
            "verify", "--lambda", "2,1", "--n", "4", "--all", "--trials", "25",
        )
        assert status == 0
        names = [c["name"] for c in json.loads(out)["checks"]]
        assert "brute-snp" not in names
        assert "component-snp" in names

    @pytest.mark.parametrize(
        "parts, n, brute",
        [((47,), 3, True), ((48,), 3, False), ((576,), 2, True), ((577,), 2, False)],
    )
    def test_brute_snp_runs_within_the_work_limit(self, monkeypatch, parts, n, brute):
        # (47 + 1)^3 * 3^3 = 2,985,984 and (576 + 1)^2 * 3^2 = 2,996,361 are
        # within 3,000,000; one more in lambda_1 passes it. Nothing is expanded.
        monkeypatch.setattr(battery, "run_check", lambda task: task[0])
        expected = [name for name in battery.CHECKS if name != "brute-snp" or brute]
        assert battery.run_checks(parts, n, 1, 0) == expected

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


class TestUsageErrors:
    def test_malformed_lambda(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["expand", "--lambda", "1,3", "--n", "3"])
        assert err.value.code == 2

    def test_non_integer_lambda(self):
        with pytest.raises(SystemExit) as err:
            main(["expand", "--lambda", "a,b", "--n", "3"])
        assert err.value.code == 2

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

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["expand", "--lambda", "", "--n", "0"], "n must be at least 1"),
            (["expand", "--lambda", "3,1,1", "--n", "2"], "lambda has 3 rows but n = 2"),
            (["verify", "--lambda", "3,1", "--n", "3", "--jobs", "0"],
             "jobs must be at least 1"),
            (["verify", "--lambda", "3,1", "--n", "3", "--trials", "0"],
             "trials must be at least 1"),
            (["figure-data", "--lambda", "1,0", "--n", "4"],
             "figure export limited to n ≤ 3"),
            # Several bad values: the first in the order figure-data n, n,
            # rows, jobs, trials is the one reported.
            (["figure-data", "--lambda", "1,1,1,1,1", "--n", "4"],
             "figure export limited to n ≤ 3"),
            (["figure-data", "--lambda", "1", "--n", "0"], "n must be at least 1"),
            (["verify", "--lambda", "3,1,1", "--n", "2", "--jobs", "0"],
             "lambda has 3 rows but n = 2"),
            (["verify", "--lambda", "3,1", "--n", "3", "--jobs", "0", "--trials", "0"],
             "jobs must be at least 1"),
        ],
        ids=[
            "n=0", "rows>n", "jobs=0", "trials=0", "figure-n>3",
            "figure-n-first", "n-before-rows", "rows-before-jobs", "jobs-before-trials",
        ],
    )
    def test_validation_message(self, capsys, argv, message):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        stderr = capsys.readouterr().err
        assert stderr.startswith("usage: grothsnp ")
        assert stderr.splitlines()[-1] == f"grothsnp: error: {message}"


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
        def no_run(args):
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
        desk_sweep = load_desk_sweep()
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


def no_expansion(lam, n):
    raise AssertionError("G_lambda expanded before the refusal")


class TestFillLimit:
    """Shapes of 800 boxes or more, which a fill with one recursive call per
    box would take past Python's recursion limit: they run, and each output
    is checked against a value found without filling the shape."""

    def test_groth_of_one_row_in_one_variable(self, capsys):
        status, out = run_cli(capsys, "groth", "--lambda", "1000", "--n", "1")
        assert status == 0
        assert json.loads(out) == {"n": 1, "terms": [{"exp": [1000], "coeff": 1}]}

    def test_groth_agrees_with_the_dominant_set_valued_count(self, capsys):
        from grothsnp.grothendieck import grothendieck_setvalued_dominant

        status, out = run_cli(capsys, "groth", "--lambda", "500,490", "--n", "2")
        assert status == 0
        dominant = {
            tuple(term["exp"]): term["coeff"]
            for term in json.loads(out)["terms"]
            if term["exp"][0] >= term["exp"][1]
        }
        expected = grothendieck_setvalued_dominant(Partition((500, 490)), 2)
        assert dominant == dict(expected.items())
        assert len(dominant) > 1

    def test_snp_brute_passes(self, capsys):
        status, out = run_cli(capsys, "snp", "--brute", "--lambda", "1000", "--n", "1")
        assert status == 0
        doc = json.loads(out)
        assert doc["snp"] is True
        assert doc["hull_lattice_points"] == [[1000]]

    def test_verify_passes_with_brute_snp(self, capsys):
        status, out = run_cli(capsys, "verify", "--lambda", "1000", "--n", "1")
        assert status == 0
        doc = json.loads(out)
        assert doc["ok"] is True
        assert [c["name"] for c in doc["checks"]] == list(battery.CHECKS)

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--lambda", "798", "--n", "3"],
            ["groth", "--lambda", "1000", "--n", "1"],
        ],
        ids=["verify-n3", "groth-out"],
    )
    def test_refused_before_filling(self, capsys, monkeypatch, tmp_path, argv):
        missing = tmp_path / "missing"
        monkeypatch.setattr("grothsnp.grothendieck.grothendieck_lenart", no_expansion)
        assert main([*argv, "--out", str(missing / "report.json")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"grothsnp: error: cannot write --out {missing / 'report.json'}: "
            f"no directory {missing}"
        ]

    @pytest.mark.parametrize(
        "argv",
        [
            ["groth", "--lambda", "800", "--n", "1"],
            ["snp", "--brute", "--lambda", "800", "--n", "1"],
            ["verify", "--lambda", "800", "--n", "1", "--trials", "5"],
            ["verify", "--lambda", "1000", "--n", "1", "--claim", "a", "--lemmas"],
            ["expand", "--lambda", "1000", "--n", "1"],
            ["chain", "--lambda", "1000", "--n", "1"],
            ["newton", "--lambda", "1000", "--n", "1"],
            ["figure-data", "--lambda", "1000", "--n", "1"],
            ["snp", "--lambda", "1000", "--n", "1"],
        ],
        ids=" ".join,
    )
    def test_runs_within_the_limit_or_without_a_fill(self, capsys, argv):
        status, out = run_cli(capsys, *argv)
        assert status == 0
        assert out

    def test_desk_sweep_runs_the_box(self, capsys):
        status = load_desk_sweep().main(
            ["--max-part", "1000", "--max-rows", "1", "--n-values", "1", "--trials", "1"]
        )
        assert status == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["pairs"], doc["failures"]) == (1001, 0)
        assert [entry["lambda"] for entry in doc["results"]] == [[]] + [
            [part] for part in range(1, 1001)
        ]
        assert all(
            [c["name"] for c in entry["checks"]] == list(battery.CHECKS)
            for entry in doc["results"]
        )

    def test_desk_sweep_box_without_brute_snp_is_accepted(self):
        args = load_desk_sweep().parse_args(
            ["--max-part", "1000", "--max-rows", "1", "--n-values", "4"]
        )
        assert args.n_values == (4,)


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BAD_FD = os.strerror(errno.EBADF)
CLOSED_STDOUT = f"grothsnp: error: cannot write stdout: {BAD_FD}"


class TestClosedStdout:
    """With fd 1 closed at start-up (`>&-`), sys.stdout is None."""

    def test_cli_exits_two_with_one_line(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdout", None)
        status = main(["verify", "--lambda", "2,1", "--n", "3", "--trials", "5"])
        assert status == 2
        assert capsys.readouterr().err.splitlines() == [CLOSED_STDOUT]

    def test_cli_help_exits_two_with_one_line(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdout", None)
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == 2
        assert capsys.readouterr().err.splitlines() == [CLOSED_STDOUT]

    def test_cli_out_needs_no_stdout(self, capsys, monkeypatch, tmp_path):
        target = tmp_path / "chain.json"
        monkeypatch.setattr(sys, "stdout", None)
        assert main(["chain", "--lambda", "1", "--n", "2", "--out", str(target)]) == 0
        assert capsys.readouterr().err == ""
        assert json.loads(target.read_text(encoding="utf-8"))["rows"] == [2]

    def test_desk_sweep_exits_two_with_one_line(self, capsys, monkeypatch, tmp_path):
        desk_sweep = load_desk_sweep()
        target = tmp_path / "sweep.json"
        monkeypatch.setattr(sys, "stdout", None)
        status = desk_sweep.main(
            ["--max-part", "1", "--n-values", "2", "--trials", "5", "--out", str(target)]
        )
        assert status == 2
        assert capsys.readouterr().err.splitlines() == [
            f"desk_sweep.py: error: cannot write stdout: {BAD_FD}"
        ]
        assert json.loads(target.read_text(encoding="utf-8"))["ok"] is True

    def test_figure_export_exits_two_with_one_line(self, capsys, monkeypatch, tmp_path):
        export = load_script("export_figure_data")
        monkeypatch.setattr(sys, "stdout", None)
        status = export.main(["--n", "2", "--max-part", "1", "--out-dir", str(tmp_path)])
        assert status == 2
        assert capsys.readouterr().err.splitlines() == [
            f"export_figure_data.py: error: cannot write stdout: {BAD_FD}"
        ]
        assert (tmp_path / "manifest.json").is_file()

    @pytest.mark.parametrize(
        "argv, status, err",
        [
            (["-m", "grothsnp", "--help"], 2, CLOSED_STDOUT),
            (["-m", "grothsnp", "verify", "--lambda", "2,1", "--n", "3", "--trials", "5"],
             2, CLOSED_STDOUT),
            (["-m", "grothsnp", "chain", "--lambda", "1", "--n", "2", "--out"], 0, None),
        ],
        ids=["help", "verify", "chain-out"],
    )
    def test_in_a_child(self, tmp_path, argv, status, err):
        if argv[-1] == "--out":
            argv = [*argv, str(tmp_path / "chain.json")]
        proc = subprocess.run(
            [sys.executable, *argv],
            stderr=subprocess.PIPE,
            text=True,
            env=env_with_src(),
            preexec_fn=lambda: os.close(1),
        )
        assert proc.returncode == status
        assert proc.stderr.splitlines() == ([err] if err else [])


def load_desk_sweep():
    return load_script("desk_sweep")


class TestDeskSweepBattery:
    @pytest.mark.parametrize("n", [3, 4])
    def test_pair_runs_the_verify_battery(self, capsys, n):
        desk_sweep = load_desk_sweep()
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

        desk_sweep = load_desk_sweep()
        monkeypatch.setattr("grothsnp.battery.run_check", forced_failure)
        status = desk_sweep.main(
            ["--max-part", "1", "--max-rows", "2", "--n-values", "2", "--trials", "5"]
        )
        report = json.loads(capsys.readouterr().out)
        assert status == 1
        assert report["ok"] is False
        assert report["pairs"] == 3
        assert report["failures"] == report["pairs"]

    @pytest.mark.parametrize(
        "argv, reason",
        [
            pytest.param(["--n-values", n_values], reason, id=n_values)
            for n_values, reason in [
                ("", "--n-values names no variable count; nothing to sweep"),
                (",", "--n-values names no variable count; nothing to sweep"),
                # A repeated n would sweep its pairs twice; it is refused
                # like an empty sweep, before any check runs.
                ("2,2", "--n-values repeats a variable count; name each n once"),
                ("3,2,3", "--n-values repeats a variable count; name each n once"),
                ("0", "every n must be a positive integer"),
                ("x", "could not parse --n-values 'x'"),
            ]
        ]
        + [
            pytest.param(["--max-part", "-1"], "box dimensions must be nonnegative",
                         id="max-part=-1"),
            pytest.param(["--max-rows", "-1"], "box dimensions must be nonnegative",
                         id="max-rows=-1"),
            pytest.param(["--trials", "0"], "trials must be a positive integer",
                         id="trials=0"),
            pytest.param(["--jobs", "0"], "jobs must be a positive integer", id="jobs=0"),
        ],
    )
    def test_empty_sweep_is_a_usage_error(self, argv, reason):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "desk_sweep.py"), *argv],
            capture_output=True,
            text=True,
            env=env_with_src(),
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("usage: desk_sweep.py ")
        assert proc.stderr.splitlines()[-1] == f"desk_sweep.py: error: {reason}"


SWEEP_ARGV = ["--max-part", "2", "--max-rows", "2", "--n-values", "2,3", "--trials", "5"]


def without_seconds(report: str) -> str:
    return re.sub(r'"seconds": [0-9.e-]+', '"seconds": 0', report)


class TestDeskSweepOut:
    def test_file_is_the_stdout_report(self, capsys, tmp_path):
        desk_sweep = load_desk_sweep()
        target = tmp_path / "sweep.json"
        assert desk_sweep.main([*SWEEP_ARGV, "--out", str(target)]) == 0
        capsys.readouterr()
        assert desk_sweep.main(SWEEP_ARGV) == 0
        streamed = capsys.readouterr().out
        assert json.loads(streamed)["ok"] is True
        assert without_seconds(target.read_text(encoding="utf-8")) == without_seconds(
            streamed
        )

    def test_stdout_is_one_summary_line(self, capsys, tmp_path):
        desk_sweep = load_desk_sweep()
        target = tmp_path / "sweep.json"
        status = desk_sweep.main([*SWEEP_ARGV, "--out", str(target)])
        captured = capsys.readouterr()
        assert status == 0
        assert captured.out == f"12 pairs swept, all checks passed; report in {target}\n"
        assert captured.err == ""

    def test_directory_as_out_is_refused(self, capsys, tmp_path):
        desk_sweep = load_desk_sweep()
        status = desk_sweep.main([*SWEEP_ARGV, "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"desk_sweep.py: error: cannot write --out {tmp_path}: ")


def interrupted():
    raise KeyboardInterrupt


class TestInterrupt:
    def test_cli_interrupt_exits_two_with_one_line(self, capsys, monkeypatch):
        monkeypatch.setattr("grothsnp.cli.run", lambda args: interrupted())
        status = main(["verify", "--lambda", "2,1", "--n", "2"])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert captured.err.splitlines() == ["grothsnp: error: interrupted"]

    def test_desk_sweep_interrupt_exits_two_with_one_line(self, capsys, monkeypatch):
        desk_sweep = load_desk_sweep()
        monkeypatch.setattr(desk_sweep, "sweep", lambda args: interrupted())
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


MATH_LAYERS = {
    f"grothsnp.{name}"
    for name in ("partitions", "polynomials", "tableaux", "grothendieck", "polytopes", "exactlp")
}


def run_importtime(argv):
    """The finished child and the names of the modules it imported, which
    -X importtime lists on stderr."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *argv],
        capture_output=True,
        text=True,
        env=env_with_src(),
    )
    imported = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    return proc, imported


class TestEntryPoint:
    def test_installed_console_script(self):
        # The [project.scripts] target, read without tomllib (Python 3.10 has none).
        section = (ROOT / "pyproject.toml").read_text().split("\n[project.scripts]\n")[1]
        entry = re.search(r'^grothsnp = "([\w.]+):(\w+)"$', section.split("\n[")[0], re.M)
        module, func = entry.groups()
        # What the installed wrapper does: argv[0] is the script name.
        wrapper = (
            f"import sys; from {module} import {func}; "
            f"sys.argv[0] = 'grothsnp'; sys.exit({func}())"
        )
        proc = subprocess.run(
            [sys.executable, "-c", wrapper, "chain", "--lambda", "1,0", "--n", "2"],
            capture_output=True,
            text=True,
            env=env_with_src(),
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == {"mus": [[1, 0], [1, 1]], "rows": [2]}

    @pytest.mark.parametrize(
        "argv",
        [
            ["-m", "grothsnp", "chain", "--lambda", "1", "--n", "2"],
            [str(ROOT / "scripts" / "desk_sweep.py"), "--help"],
            ["-m", "grothsnp", "verify", "--lambda", "3,2,1", "--n", "5", "--trials", "1"],
        ],
    )
    def test_no_multiprocessing_import_without_a_pool(self, argv):
        # Neither dataclasses (which loads inspect) nor fractions is part of
        # start-up: the value types are __slots__ classes, and Fraction is
        # imported by the few functions that build one.
        proc, imported = run_importtime(argv)
        assert proc.returncode == 0
        assert "grothsnp.battery" in imported
        assert "multiprocessing" not in imported
        assert "dataclasses" not in imported
        assert "fractions" not in imported

    @pytest.mark.parametrize(
        "argv",
        [
            ["-m", "grothsnp", "--help"],
            ["-m", "grothsnp", "snp", "--help"],
            [str(ROOT / "scripts" / "desk_sweep.py"), "--help"],
        ],
        ids=["grothsnp", "grothsnp-snp", "desk_sweep"],
    )
    def test_help_loads_no_math_layer(self, argv):
        proc, imported = run_importtime(argv)
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: ")
        assert {name for name in imported if name.split(".")[0] == "grothsnp"} <= {
            "grothsnp", "grothsnp.__main__", "grothsnp.cli", "grothsnp.battery"
        }
        assert not imported & MATH_LAYERS

    def test_verify_without_brute_snp_loads_no_simplex(self):
        argv = ["-m", "grothsnp", "verify", "--lambda", "3,2,1", "--n", "5", "--trials", "1"]
        proc, imported = run_importtime(argv)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["ok"] is True
        assert MATH_LAYERS - imported == {"grothsnp.exactlp"}

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="workers inherit the parent's modules only when forked",
    )
    def test_pool_workers_inherit_the_check_layers(self):
        # A worker's imports show up on the stderr it shares with the parent:
        # the layers are imported once, in the parent, before the pool forks.
        argv = ["-m", "grothsnp", "verify", "--lambda", "2,1", "--n", "3",
                "--trials", "5", "--jobs", "2"]
        proc, _ = run_importtime(argv)
        assert proc.returncode == 0
        for layer in ("grothsnp.grothendieck", "grothsnp.polytopes"):
            lines = [line for line in proc.stderr.splitlines()
                     if line.startswith("import time:")
                     and line.rsplit("|", 1)[1].strip() == layer]
            assert len(lines) == 1, layer

    def test_verify_with_brute_snp_in_a_child(self):
        argv = ["-m", "grothsnp", "verify", "--lambda", "2,1", "--n", "3", "--trials", "5"]
        proc, _ = run_importtime(argv)
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["ok"] is True
        assert doc["checks"][-1] == {"name": "brute-snp", "ok": True, "detail": ""}
