"""Benchmark of the grothsnp command line: three workloads, checked outputs.

    python3 perfbench/run.py --workload verify-n45 --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout. Every operation is one child process
of the checked-out tree (`python -m grothsnp ...` or `scripts/desk_sweep.py`
with PYTHONPATH=src and --jobs 1), run one at a time. Rounds of the
workload's operations repeat until --seconds have passed; every round is
whole. Each output is checked by perfbench/oracles.py, untimed.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, with times
rescaled to a reference host speed (see perfbench/README.md); --trace 1 runs
the same operations in this process, first plain and then with spans
around each layer's public functions, and reports the per-layer metrics.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics. Progress and the aggregated spans go to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable

import oracles
import tracing

ROOT = Path(__file__).resolve().parent.parent
SWEEP_SCRIPT = "scripts/desk_sweep.py"
SETUP_REPEATS = 15
# Host speed on a shared machine swings by up to 1.8x for seconds to minutes at
# a time. Timings are rescaled by calibrations interleaved with the children
# to the speed at which one calibration takes CALIBRATION_S.
CALIBRATION_S = 0.035
CALIBRATIONS_PER_OP = 3

# (lambda, n) cases of the two `verify` workloads; their seeds come from --seed.
VERIFY_N45 = [((3, 1), 4), ((3, 2, 1), 4), ((2, 2, 1), 5), ((3, 2, 1), 5), ((4, 2, 1), 5)]
MODELS_N6 = [((3, 1), 6), ((2, 2, 1), 6), ((3, 3), 6), ((4, 2), 6), ((3, 2, 1), 6)]
SWEEP_BOX = {"max_part": 3, "max_rows": 3, "n_values": [2, 3], "trials": 20}


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    check: Callable[[dict, int], list[str]]  # (parsed stdout, exit status) -> errors


@dataclass(frozen=True)
class Workload:
    entry: str  # "cli" (python -m grothsnp) or "sweep" (scripts/desk_sweep.py)
    ops: tuple[Op, ...]
    cases: tuple  # (lambda, n) pairs whose `groth` output is checked
    refusal: bool = False  # add the out-unwritable operation to every round


def verify_op(lam: tuple[int, ...], n: int, trials: int, seed: int) -> Op:
    argv = ("verify", "--lambda", ",".join(map(str, lam)), "--n", str(n),
            "--trials", str(trials), "--seed", str(seed), "--jobs", "1")
    return Op(argv, lambda payload, status: oracles.check_verify(
        payload, status, lam, n, trials, seed))


def sweep_op(seed: int) -> Op:
    box = SWEEP_BOX
    argv = ("--max-part", str(box["max_part"]), "--max-rows", str(box["max_rows"]),
            "--n-values", ",".join(map(str, box["n_values"])), "--trials", str(box["trials"]),
            "--seed", str(seed), "--jobs", "1")
    return Op(argv, lambda payload, status: oracles.check_sweep(
        payload, status, box["max_part"], box["max_rows"], box["n_values"], box["trials"], seed))


def workload(name: str, seed: int) -> Workload:
    if name == "verify-n45":
        ops = tuple(verify_op(lam, n, 1000, seed) for lam, n in VERIFY_N45)
        return Workload("cli", ops, tuple(VERIFY_N45), refusal=True)
    if name == "models-n6":
        ops = tuple(verify_op(lam, n, 1, seed) for lam, n in MODELS_N6)
        return Workload("cli", ops, tuple(MODELS_N6))
    return Workload("sweep", (sweep_op(seed),), ())


@dataclass
class Child:
    status: int
    wall: float
    rss_mib: float
    stdout: str
    stderr: str


def command(entry: str, argv) -> list[str]:
    head = ["-m", "grothsnp"] if entry == "cli" else [SWEEP_SCRIPT]
    return [sys.executable, *head, *argv]


def run_child(cmd: list[str], work: Path) -> Child:
    """Run one child to its end; wall clock and its own peak RSS from wait4."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out_path, err_path = work / "stdout", work / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024,
                 out_path.read_text(encoding="utf-8"), err_path.read_text(encoding="utf-8"))


def checked(stdout: str, check: Callable[[dict], list[str]]) -> tuple[dict | None, list[str]]:
    """Parse a child's JSON output and check it; malformed output is an error too."""
    try:
        payload = json.loads(stdout)
        return payload, check(payload)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return None, [f"malformed output ({exc!r})"]


class Run:
    """Counts and evidence gathered over one benchmark run."""

    def __init__(self, wl: Workload, work: Path) -> None:
        self.wl = wl
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.samples: dict[int, tuple] = {}  # op index -> (check, payload, status) that passed

    def record(self, index: int, op: Op, stdout: str, status: int) -> None:
        self.attempted += 1
        payload, errors = checked(stdout, lambda payload: op.check(payload, status))
        self.errors += [f"{' '.join(op.argv)}: {e}" for e in errors]
        if not errors and index not in self.samples:
            self.samples[index] = (op.check, payload, status)

    def refuse_unwritable(self) -> None:
        """verify --out into a missing directory must end in exit 2 with one line."""
        if not self.wl.refusal:
            return
        target = self.work / "missing" / "report.json"
        child = run_child(command("cli", ["verify", "--lambda", "2,1", "--n", "2",
                                          "--out", str(target)]), self.work)
        self.attempted += 1
        self.failed += bool(oracles.check_clean_refusal(child.status, child.stderr))

    def check_untimed(self) -> None:
        """Untimed: `groth` for every case, then the corruption self-check."""
        groth = []
        for lam, n in self.wl.cases:
            child = run_child(command("cli", ["groth", "--lambda", ",".join(map(str, lam)),
                                              "--n", str(n)]), self.work)
            payload, errors = checked(child.stdout, lambda payload: oracles.check_groth(payload, lam, n))
            if child.status != 0:
                errors.append(f"exit status {child.status}")
            self.errors += [f"groth {lam}/{n}: {e}" for e in errors]
            if not errors:
                groth.append((payload, lam, n))
        escaped = oracles.self_check(groth, list(self.samples.values()))
        if escaped:
            raise SystemExit(f"perfbench: the output checks accepted corrupted outputs: {escaped}")

    def result(self, metrics: dict[str, float], declared: list[dict]) -> dict:
        names = [m["name"] for m in declared]
        if sorted(metrics) != sorted(names):
            raise SystemExit(f"perfbench: computed metrics {sorted(metrics)} != declared {sorted(names)}")
        for error in self.errors[:20]:
            print(f"incorrect: {error}", file=sys.stderr)
        return {
            "correct": not self.errors,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
        }


def calibrate() -> float:
    """Seconds taken by a fixed slice of pure-Python work of the program's kind:
    a set of small tuples, a sort, and a dict of Fractions summed exactly."""
    start = perf_counter()
    points = {(i % 7, i % 11, i % 13, i % 5) for i in range(30000)}
    weights = {p: Fraction(sum(p), 1 + p[0]) for p in sorted(points)}
    sum(weights.values(), Fraction(0))
    return perf_counter() - start


def at_reference_speed(walls: list[float], calibrations: list[float]) -> float:
    """Median wall time rescaled from the host speed seen by the interleaved
    calibrations to the speed at which one calibration takes CALIBRATION_S."""
    return statistics.median(walls) * CALIBRATION_S / statistics.median(calibrations)


def end_to_end(run: Run, seconds: float) -> dict[str, float]:
    """Untraced: set-up children, then whole rounds of child processes."""
    wl = run.wl
    help_cmd = command(wl.entry, ["--help"])
    run_child(help_cmd, run.work)  # leaves compiled bytecode behind, as any first run does
    setup, setup_speed = [], []
    for _ in range(SETUP_REPEATS):
        setup_speed.append(calibrate())
        setup.append(run_child(help_cmd, run.work).wall)
    rounds, speed, peak = [], [], 0.0
    start = perf_counter()
    while not rounds or perf_counter() - start < seconds:
        wall = 0.0
        for index, op in enumerate(wl.ops):
            speed += [calibrate() for _ in range(CALIBRATIONS_PER_OP)]
            child = run_child(command(wl.entry, op.argv), run.work)
            wall += child.wall
            peak = max(peak, child.rss_mib)
            run.record(index, op, child.stdout, child.status)
        run.refuse_unwritable()
        rounds.append(wall)
        print(f"round {len(rounds)}: {wall:.3f} s", file=sys.stderr)
    speed += [calibrate() for _ in range(CALIBRATIONS_PER_OP)]
    print(f"raw medians: setup {statistics.median(setup):.4f} s, round {statistics.median(rounds):.3f} s; "
          f"calibration {statistics.median(setup_speed):.4f} s / {statistics.median(speed):.4f} s",
          file=sys.stderr)
    return {"setup_s": at_reference_speed(setup, setup_speed),
            "wall_s": at_reference_speed(rounds, speed),
            "peak_rss_mib": peak}


def traced(run: Run, seconds: float) -> dict[str, float]:
    """In-process rounds: plain ones first, then with spans installed."""
    sys.path.insert(0, str(ROOT / "src"))
    import grothsnp
    from grothsnp import cli, grothendieck

    if not Path(grothsnp.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"perfbench: grothsnp imported from {grothsnp.__file__}, not the checkout")
    modules = [m for name, m in list(sys.modules.items())
               if name == "grothsnp" or name.startswith("grothsnp.")]
    main = cli.main
    if run.wl.entry == "sweep":
        spec = importlib.util.spec_from_file_location("desk_sweep", ROOT / SWEEP_SCRIPT)
        sweep_module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = sweep_module  # dataclasses look their module up here
        spec.loader.exec_module(sweep_module)
        modules.append(sweep_module)
        main = sweep_module.main
    caches = {id(f): f for m in modules for f in vars(m).values() if hasattr(f, "cache_clear")}
    schur_cache = grothendieck.schur_polynomial
    tracer = tracing.Tracer()
    hits = misses = 0

    def one_round(tracing_on: bool) -> float:
        nonlocal hits, misses
        wall = 0.0
        for index, op in enumerate(run.wl.ops):
            for cached in caches.values():  # the state of a fresh process
                cached.cache_clear()
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                start = perf_counter()
                status = main(list(op.argv))
                wall += perf_counter() - start
            run.record(index, op, buffer.getvalue(), status)
            if tracing_on:
                info = schur_cache.cache_info()
                hits, misses = hits + info.hits, misses + info.misses
        run.refuse_unwritable()
        return wall

    start = perf_counter()
    plain = [one_round(False)]
    while perf_counter() - start < seconds / 2:
        plain.append(one_round(False))
    tracing.install(tracer, modules)
    spanned = [one_round(True)]
    while perf_counter() - start < seconds:
        spanned.append(one_round(True))
    print(json.dumps({"spans": tracer.spans(), "counts": dict(tracer.counts),
                      "rounds": len(spanned)}), file=sys.stderr)
    values = tracing.layer_metrics(tracer, len(spanned), hits, misses)
    values["trace.overhead_ratio"] = statistics.mean(spanned) / statistics.mean(plain)
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="grothsnp benchmark")
    parser.add_argument("--workload", required=True, choices=["verify-n45", "models-n6", "sweep-n3"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/grothsnp/__main__.py", SWEEP_SCRIPT) if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a grothsnp source checkout, missing {missing}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    # One CPU for this process, its calibrations and every child: host load
    # differs between CPUs, so a calibration only speaks for the CPU it ran on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    wl = workload(args.workload, args.seed)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        run = Run(wl, Path(tmp))
        if args.trace:
            metrics, declared = traced(run, args.seconds), spec["per_layer"]
        else:
            metrics, declared = end_to_end(run, args.seconds), spec["end_to_end"]
        run.check_untimed()
        result = run.result(metrics, declared)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
