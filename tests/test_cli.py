"""Command-line surface: golden outputs, determinism, shapes past Python's
recursion limit and the desk sweep's battery. The exit codes are pinned by
tests/test_exit_contract.py and what each program loads at start-up by the
table LOADS of tests/test_package.py; the rows of both that replaced tests of
this module are collected here under their old ids (adopt, at the end)."""

import json
import re
import subprocess
import sys

import pytest
import test_exit_contract
from conftest import ROOT, adopt, child_env, load, run_cli
from test_package import LOADS, spawn

from grothsnp import MuChain, Partition, battery, mu_chain
from grothsnp.cli import main


def graded_lex(poly):
    """The terms of poly in graded-lex order, the order of the groth report."""
    return sorted(poly.items(), key=lambda term: (sum(term[0]), term[0]))


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

    def test_json_shape(self, capsys):
        status, out = run_cli(capsys, "expand", "--lambda", "1", "--n", "2")
        assert status == 0
        assert out == battery.dump_json(
            {
                "lambda": [1],
                "n": 2,
                "terms": [{"mu": [1], "coeff": 1}, {"mu": [1, 1], "coeff": -1}],
            }
        )


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

    def test_graded_lex_order(self, capsys):
        # Degree 3 of (2,1)/3 interleaves the orbits of (2,1,0) and (1,1,1).
        _, out = run_cli(capsys, "groth", "--lambda", "2,1", "--n", "3")
        exps = [tuple(term["exp"]) for term in json.loads(out)["terms"]]
        assert exps == sorted(exps, key=lambda exp: (sum(exp), exp))
        assert [exp for exp in exps if sum(exp) == 3][2:5] == [
            (1, 0, 2), (1, 1, 1), (1, 2, 0)
        ]

    def test_bit_exact_across_runs(self):
        argv = [sys.executable, "-m", "grothsnp", "groth", "--lambda", "3,1", "--n", "3"]
        outs = {
            subprocess.run(
                argv, env={**child_env(), "PYTHONHASHSEED": seed},
                capture_output=True, check=True,
            ).stdout
            for seed in ("1", "2")
        }
        assert len(outs) == 1

    def test_orbits_match_the_full_expansion(self, capsys):
        """The dominant terms spread over their orbits print what the full
        Schur assembly prints."""
        from grothsnp import grothendieck_lenart, partitions_in_box

        pairs = [
            (lam, n)
            for lam in partitions_in_box(3, 3)
            for n in range(max(1, len(lam)), 6)
        ]
        assert len(pairs) == 74
        for lam, n in [*pairs, (Partition((4, 2, 1)), 7)]:
            terms = graded_lex(grothendieck_lenart(lam, n))
            expected = battery.dump_json(
                {"n": n, "terms": [{"exp": list(e), "coeff": c} for e, c in terms]}
            )
            parts = ",".join(map(str, lam.parts))
            assert run_cli(capsys, "groth", "--lambda", parts, "--n", str(n)) == (
                0, expected
            ), (lam, n)

    def test_builds_no_schur_polynomial(self, capsys, monkeypatch):
        from grothsnp import grothendieck_setvalued

        def no_schur_polynomial(mu, n):
            raise AssertionError("groth expanded a Schur polynomial")

        terms = graded_lex(grothendieck_setvalued(Partition((3, 1)), 4))
        expected = battery.dump_json(
            {"n": 4, "terms": [{"exp": list(e), "coeff": c} for e, c in terms]}
        )
        monkeypatch.setattr(
            "grothsnp.grothendieck.schur_polynomial", no_schur_polynomial
        )
        assert run_cli(capsys, "groth", "--lambda", "3,1", "--n", "4") == (0, expected)


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

    def test_json_is_sorted(self, capsys):
        _, out = run_cli(capsys, "newton", "--lambda", "1,1", "--n", "2")
        assert json.loads(out)["components"] == [
            {
                "degree": 2,
                "weight": [1, 1],
                "n": 2,
                "vertices": [[1, 1]],
                "lattice_points": [[1, 1]],
            }
        ]
        _, out = run_cli(capsys, "newton", "--lambda", "2", "--n", "2")
        first = json.loads(out)["components"][0]
        assert first["vertices"] == [[0, 2], [2, 0]]
        assert first["lattice_points"] == [[0, 2], [1, 1], [2, 0]]

    def test_components_match_the_full_expansion(self, capsys):
        """Each component prints the support of G_lambda in its degree as its
        lattice points, and the orbit of that support's lexicographic maximum,
        the dominant weight, as its vertices."""
        from itertools import permutations

        from grothsnp import grothendieck_lenart, partitions_in_box

        pairs = [
            (lam, n)
            for lam in partitions_in_box(3, 3)
            for n in range(max(1, len(lam)), 6)
        ]
        assert len(pairs) == 74
        for lam, n in pairs:
            support = {}
            for exp, _ in graded_lex(grothendieck_lenart(lam, n)):
                support.setdefault(sum(exp), []).append(list(exp))
            components = [
                {
                    "degree": degree,
                    "weight": points[-1],
                    "n": n,
                    "vertices": [list(v) for v in sorted(set(permutations(points[-1])))],
                    "lattice_points": points,
                }
                for degree, points in support.items()
            ]
            expected = battery.dump_json(
                {"lambda": list(lam.parts), "n": n, "components": components}
            )
            parts = ",".join(map(str, lam.parts))
            assert run_cli(capsys, "newton", "--lambda", parts, "--n", str(n)) == (
                0, expected
            ), (lam, n)


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

    def test_fast_route_matches_the_full_expansion(self, capsys):
        """Each component prints its degree of G_lambda and, as its weight, the
        lexicographic maximum of the support in that degree."""
        from grothsnp import grothendieck_lenart, partitions_in_box

        pairs = [
            (lam, n)
            for lam in partitions_in_box(3, 3)
            for n in range(max(1, len(lam)), 6)
        ]
        assert len(pairs) == 74
        for lam, n in pairs:
            top = {}
            for exp, _ in graded_lex(grothendieck_lenart(lam, n)):
                top[sum(exp)] = list(exp)  # graded-lex order: the last is the max
            expected = battery.dump_json(
                {
                    "lambda": list(lam.parts),
                    "n": n,
                    "method": "fast",
                    "snp": True,
                    "violation": None,
                    "components": [
                        {"degree": degree, "weight": weight}
                        for degree, weight in top.items()
                    ],
                    "detail": "",
                }
            )
            parts = ",".join(map(str, lam.parts))
            assert run_cli(capsys, "snp", "--lambda", parts, "--n", str(n)) == (
                0, expected
            ), (lam, n)

    def test_brute_route(self, capsys):
        status, out = run_cli(capsys, "snp", "--lambda", "3,1,0", "--n", "3", "--brute")
        assert status == 0
        doc = json.loads(out)
        assert doc["method"] == "brute"
        assert doc["snp"] is True
        assert len(doc["hull_lattice_points"]) == 34

    def test_brute_route_within_the_work_limit(self, capsys):
        # (3+1)^5 * 2^6 = 65,536: the size of the CI run.
        status, out = run_cli(capsys, "snp", "--lambda", "3,1", "--n", "5", "--brute")
        assert status == 0
        assert json.loads(out)["snp"] is True

    @pytest.mark.parametrize(
        "parts, n, work",
        [("2,1", 8, "3,359,232"), ("3,1", 7, "4,194,304")],
    )
    def test_brute_route_refuses_oversized_inputs(self, capsys, monkeypatch, parts, n, work):
        def no_expansion(lam, n):
            raise AssertionError("G_lambda expanded before the refusal")

        monkeypatch.setattr("grothsnp.grothendieck.grothendieck_setvalued", no_expansion)
        with pytest.raises(SystemExit) as err:
            main(["snp", "--lambda", parts, "--n", str(n), "--brute"])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: grothsnp ")
        assert captured.err.splitlines()[-1] == (
            "grothsnp: error: snp --brute limited to (lambda_1 + 1)^n * 2^(n+1) ≤ 3,000,000, "
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
            capsys, "verify", "--lambda", "1,0", "--n", "2", "--trials", "50"
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
        # every check of the full battery, claim b included, reads neither option
        if planted:
            # the chain's shape (3,2,1) with its row-3 box moved to row 1,
            # planted at both lookups of mu_chain, so every check that reads
            # the chain sees it: all but cross-oracle and claim b fail
            chain = mu_chain(Partition((3, 1)), 3)
            bad = object.__new__(MuChain)
            for name in ("lam", "n", "rows"):
                object.__setattr__(bad, name, getattr(chain, name))
            mus = chain.mus[:2] + (Partition((4, 2)),) + chain.mus[3:]
            object.__setattr__(bad, "mus", mus)
            monkeypatch.setattr("grothsnp.grothendieck.mu_chain", lambda lam, n: bad)
            monkeypatch.setattr("grothsnp.polytopes.mu_chain", lambda lam, n: bad)
        records = []
        for trials, seed in (("1", "0"), ("1000", "0"), ("1", "7"), ("1000", "7")):
            status, out = run_cli(
                capsys, "verify", "--lambda", "3,1", "--n", "3",
                "--trials", trials, "--seed", seed,
            )
            assert status == (1 if planted else 0)
            records.append(json.loads(out)["checks"])
        assert all(checks == records[0] for checks in records)
        assert [c["name"] for c in records[0]] == list(battery.CHECKS)
        failed = [c["name"] for c in records[0] if not c["ok"]]
        planted_failures = ["component-snp", "claim-a", "claim-c", "lemmas", "brute-snp"]
        assert failed == (planted_failures if planted else [])

    def test_brute_snp_is_skipped_beyond_three_variables(self, capsys):
        status, out = run_cli(
            capsys,
            "verify", "--lambda", "2,1", "--n", "4", "--trials", "25",
        )
        assert status == 0
        names = [c["name"] for c in json.loads(out)["checks"]]
        assert "brute-snp" not in names
        assert "component-snp" in names

    @pytest.mark.parametrize(
        "parts, n, brute",
        [((56,), 3, True), ((57,), 3, False), ((611,), 2, True), ((612,), 2, False),
         ((749999,), 1, True), ((750000,), 1, False)],
    )
    def test_brute_snp_runs_within_the_work_limit(self, monkeypatch, parts, n, brute):
        # (56 + 1)^3 * 2^4 = 2,963,088, (611 + 1)^2 * 2^3 = 2,996,352 and
        # (749,999 + 1) * 2^2 = 3,000,000 are within 3,000,000; one more in
        # lambda_1 passes it. Nothing is expanded.
        monkeypatch.setattr(battery, "run_check", lambda name, lam, n: name)
        expected = [name for name in battery.CHECKS if name != "brute-snp" or brute]
        assert battery.run_checks(Partition(parts), n) == expected

    def test_failure_reports_exit_one(self, capsys, monkeypatch):
        def forced_failure(name, lam, n):
            return {"name": name, "ok": False, "detail": "forced"}

        monkeypatch.setattr("grothsnp.battery.run_check", forced_failure)
        status, out = run_cli(
            capsys, "verify", "--lambda", "1,0", "--n", "2", "--claim", "b"
        )
        assert status == 1
        assert json.loads(out)["ok"] is False

    def test_a_broken_invariant_is_a_failure_in_the_report(
        self, capsys, tmp_path, flipped_top_sign
    ):
        # verify still writes the report and exits 1.
        target = tmp_path / "verify.json"
        status = main(["verify", "--lambda", "3,2,1", "--n", "4", "--out", str(target)])
        assert status == 1
        assert capsys.readouterr().err == ""
        doc = json.loads(target.read_text())
        failed = {c["name"]: c["detail"] for c in doc["checks"] if not c["ok"]}
        names = ("cross-oracle", "component-snp", "claim-a")
        assert failed == dict.fromkeys(names, "coefficient sign broken at (3, 3, 3, 3)")
        assert doc["ok"] is False

    def test_jobs_flag_does_not_change_the_output(self, capsys):
        args = ("verify", "--lambda", "2,1,0", "--n", "3", "--trials", "40")
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
        status = load("scripts/desk_sweep.py").main(
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
        args = load("scripts/desk_sweep.py").parse_args(
            ["--max-part", "1000", "--max-rows", "1", "--n-values", "4"]
        )
        assert args.n_values == (4,)


class TestDeskSweepBattery:
    @pytest.mark.parametrize("n", [3, 4])
    def test_pair_runs_the_verify_battery(self, capsys, n):
        desk_sweep = load("scripts/desk_sweep.py")
        swept = desk_sweep.run_battery(Partition((2, 1)), n)["checks"]
        _, out = run_cli(
            capsys,
            "verify", "--lambda", "2,1", "--n", str(n),
            "--trials", "30", "--seed", "7",
        )
        assert swept == json.loads(out)["checks"]
        assert ("brute-snp" in [c["name"] for c in swept]) == (n <= 3)

    def test_failed_check_exits_one(self, capsys, monkeypatch):
        def forced_failure(name, lam, n):
            return {"name": name, "ok": False, "detail": "forced"}

        desk_sweep = load("scripts/desk_sweep.py")
        monkeypatch.setattr("grothsnp.battery.run_check", forced_failure)
        status = desk_sweep.main(
            ["--max-part", "1", "--max-rows", "2", "--n-values", "2", "--trials", "5"]
        )
        report = json.loads(capsys.readouterr().out)
        assert status == 1
        assert report["ok"] is False
        assert report["pairs"] == 3
        assert report["failures"] == report["pairs"]


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
            env=child_env(),
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == {"mus": [[1, 0], [1, 1]], "rows": [2]}


adopt(
    globals(),
    [row for row in test_exit_contract.ROWS if "::" in row.name],
    test_exit_contract.check,
    test_exit_contract.marks,
)
adopt(globals(), [row for row in LOADS if "::" in row.name], spawn)
