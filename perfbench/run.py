"""Benchmark of the deformed-u2 CLI: end-to-end numbers, or per-layer spans.

Usage (from the repository root):

    python3 perfbench/run.py --workload verify_deep --seed 1 --seconds 24 --trace 0

One client in a closed loop runs one CLI command at a time, each in a fresh
interpreter, through the workload's round of commands (see `workloads.py`).
A run makes whole rounds only, as many as take about `--seconds` at a
nominal speed (`workloads.rounds`), so the same `--seconds` and `--seed`
always attempt the same ops.  Every child gets one BLAS thread.  CPUs are
not pinned and clock frequency is not controlled.

--trace 0 prints the end-to-end metrics.  Set-up (`setup_s`) is the median
of several fresh `import deformed_u2.cli` probes made before the loop.
Times are scaled to a nominal machine speed, measured inside each child
process by `speed.py`; the unscaled values are in the record.

--trace 1 runs every command twice, untraced and then traced, and prints
the per-layer metrics of the traced runs (per round of the workload) and
the tracing overhead.  Traced children run with `-X importtime` for the
import breakdown.  No end-to-end metric comes from a traced run.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  Full records (inputs, environment, every op, and
for --trace 1 every span) go to `.perfbench_out/` in the repository.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
CHILD = Path(__file__).resolve().parent / "child.py"

SETUP_PROBES = 3
TAIL_BEYOND = 10
THREAD_LIMITS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# per-layer metrics, in the order BENCHMARK.json lists them
SPAN_METRICS = (
    ("angular.bisection_eigenvalues", ("calls", "s", "self_s")),
    ("angular.hermite_sequence", ("calls", "s", "self_s")),
    ("angular.angular_eigenvector", ("calls", "s", "self_s")),
    ("angular.angular_eigenvalues", ("s",)),
    ("angular.build_l0", ("s",)),
    ("structure.phi", ("calls", "s", "self_s")),
    ("structure.commutator_polynomial", ("calls", "s", "self_s")),
    ("structure.parafermionic_decompose", ("s",)),
    ("representation.build_irrep", ("calls", "s", "self_s")),
    ("representation.verify_algebra", ("self_s",)),
    ("representation.w32_check", ("s",)),
    ("oracle.build_oracle", ("s",)),
    ("oracle.oracle_compare", ("calls", "s", "self_s")),
    ("core.enumerate_levels", ("calls", "s", "self_s")),
    ("core.irrep_members", ("s",)),
    ("cli.spectrum", ("self_s",)),
    ("cli.irrep", ("self_s",)),
    ("cli.angular", ("self_s",)),
    ("cli.verify", ("self_s",)),
)
# waste ratios over the verify commands: (metric, span name, denominator)
WASTE_METRICS = (
    ("representation.build_irrep_per_irrep", "representation.build_irrep", "irreps"),
    ("structure.phi_per_irrep", "structure.phi", "irreps"),
    ("structure.commutator_per_ratio", "structure.commutator_polynomial", "ratios"),
)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(dict.fromkeys(THREAD_LIMITS, "1"))
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(cmd: list[str], stdout: Path, stderr: Path) -> tuple[float, int, int]:
    """Run `cmd` to completion: (wall seconds, exit code, peak RSS in KiB)."""
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss


class Runner:
    """Runs ops one at a time and keeps what each left behind."""

    def __init__(self, scratch: Path) -> None:
        self.stdout = scratch / "stdout"
        self.stderr = scratch / "stderr"
        self.record = scratch / "record.json"

    def child(self, mode: str, args: list[str]) -> dict:
        """Run child.py in `mode` (see there) to completion and read its record."""
        importtime = ["-X", "importtime"] if mode == "traced" else []
        cmd = [sys.executable, *importtime, str(CHILD), str(self.record), mode, *args]
        self.record.unlink(missing_ok=True)
        wall, code, rss = spawn(cmd, self.stdout, self.stderr)
        if not self.record.exists():
            raise RuntimeError(f"op runner failed on {args}:\n{self.stderr.read_text()}")
        record = json.loads(self.record.read_text())
        if not Path(record.pop("module")).is_relative_to(SRC):
            raise RuntimeError("deformed_u2 was not imported from this checkout's src/")
        result = {"mode": mode, "exit_code": code, "wall_s": wall, "maxrss_kb": rss, **record}
        if mode in ("sampled", "import"):
            # the probes' own time is taken out, the rest scaled to the nominal speed
            scale = record["scale"]
            result["scaled_wall_s"] = (wall - record["probe_s"]) * scale
            result["scaled_import_s"] = (record["import_s"] - record["import_probe_s"]) * scale
            result["scaled_command_s"] = (record["command_s"] - record["command_probe_s"]) * scale
        return result

    def run(self, op: workloads.Op, mode: str) -> dict:
        """mode: 'sampled', 'plain' or 'traced' (see child.py)."""
        result = {"input": op.key, **self.child(mode, op.args)}
        result["problems"] = workloads.check(op, result["exit_code"], self.stdout.read_text())
        if mode == "traced":
            lines = self.stderr.read_text().splitlines()
            start = lines.index(tracing.IMPORT_MARK) + 1
            result["imports"] = tracing.import_breakdown(lines[start:])
            result["layers"] = tracing.self_times(result["spans"])
            # the self times of an op's spans add up to its root span, so
            # this is what neither the import nor any span covers
            result["unaccounted_s"] = (
                result["in_process_s"]
                - result["import_s"]
                - sum(own for _, _, own in result["layers"].values())
            )
        return result


def loop(ops: list[workloads.Op], rounds: int, step) -> list:
    """Closed loop: `rounds` passes over the round, one op at a time."""
    return [step(op) for _ in range(rounds) for op in ops]


def failed(result: dict) -> bool:
    return result["exit_code"] != 0 or bool(result["problems"])


def per_input(results: list[dict], field: str, average) -> dict[str, float]:
    by_input = defaultdict(list)
    for result in results:
        by_input[result["input"]].append(result[field])
    return {key: average(values) for key, values in by_input.items()}


def tail(values: list[float]) -> dict | None:
    """Highest percentile with TAIL_BEYOND samples beyond it, if there is one."""
    n = len(values)
    if n <= TAIL_BEYOND:
        return None
    return {
        "percentile": 100.0 * (n - TAIL_BEYOND) / n,
        "value_s": sorted(values)[n - TAIL_BEYOND - 1],
        "samples": n,
    }


def timings(workload: str, ops: list[workloads.Op], setup: list, results: list,
            prefix: str) -> dict[str, float]:
    """setup_s, irreps_per_s and op_p50_s from the `prefix`ed time fields."""
    # a cli_cold op is a whole CLI invocation, as a user waits for it
    command = "wall_s" if workload == "cli_cold" else "command_s"
    command_s = per_input(results, prefix + command, statistics.fmean)
    wall_s = per_input(results, prefix + "wall_s", statistics.median)
    return {
        "setup_s": statistics.median(probe[prefix + "import_s"] for probe in setup),
        "irreps_per_s": sum(op.irreps for op in ops) / sum(command_s.values()),
        "op_p50_s": statistics.median(wall_s.values()),
    }


def end_to_end(workload: str, ops: list[workloads.Op], rounds: int, runner: Runner) -> tuple:
    setup = [runner.child("import", []) for _ in range(SETUP_PROBES)]
    results = loop(ops, rounds, lambda op: runner.run(op, "sampled"))
    scaled = timings(workload, ops, setup, results, "scaled_")
    metrics = {
        "setup_s": (scaled["setup_s"], "s"),
        "irreps_per_s": (scaled["irreps_per_s"], "1/s"),
        "op_p50_s": (scaled["op_p50_s"], "s"),
        "peak_rss_mb": (max(r["maxrss_kb"] for r in results) / 1024, "MB"),
    }
    details = {
        "unscaled": timings(workload, ops, setup, results, ""),
        "setup_probes": setup,
        "rounds": rounds,
        "op_tail": tail([r["scaled_wall_s"] for r in results]),
        "fail_ratio": sum(failed(r) for r in results) / len(results),
    }
    return results, metrics, details


def per_layer(ops: list[workloads.Op], rounds: int, runner: Runner) -> tuple:
    def pair(op):
        return runner.run(op, "plain"), runner.run(op, "traced")

    pairs = loop(ops, rounds, pair)
    irreps = {op.key: op.irreps for op in ops}
    commands = {op.key: op.command for op in ops}
    traced = [t for _, t in pairs]

    totals = defaultdict(lambda: [0, 0.0, 0.0])
    verify_calls = defaultdict(int)
    for result in traced:
        for name, (calls, inclusive, own) in result["layers"].items():
            entry = totals[name]
            entry[0] += calls
            entry[1] += inclusive
            entry[2] += own
            if commands[result["input"]] == "verify":
                verify_calls[name] += calls
    field = {"calls": 0, "s": 1, "self_s": 2}
    metrics = {}
    for name, kinds in SPAN_METRICS:
        for kind in kinds:
            unit = "count" if kind == "calls" else "s"
            metrics[f"{name}.{kind}"] = (totals[name][field[kind]] / rounds, unit)

    verify_runs = [r for r in traced if commands[r["input"]] == "verify"]
    denominators = {
        "irreps": sum(irreps[r["input"]] for r in verify_runs),
        "ratios": len(verify_runs),
    }
    for metric, span, per in WASTE_METRICS:
        value = verify_calls[span] / denominators[per] if verify_runs else 0.0
        metrics[metric] = (value, f"calls/{per[:-1]}")

    for package in ("total", *tracing.IMPORT_PACKAGES):
        value = statistics.median(r["imports"][package] for r in traced)
        metrics[f"import.{package}_s"] = (value, "s")
    metrics["cli.exit_nonzero.count"] = (sum(r["exit_code"] != 0 for r in traced) / rounds, "count")

    # tracing cost = the traced op's in-process time after import (tracer
    # set-up and command) minus the same for its untraced twin
    untraced_s = sum(u["in_process_s"] - u["import_s"] for u, _ in pairs)
    traced_s = sum(t["in_process_s"] - t["import_s"] for t in traced)
    unaccounted_s = sum(t["unaccounted_s"] for t in traced)
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    metrics["trace.unaccounted_ratio"] = (
        unaccounted_s / sum(t["in_process_s"] for t in traced), "ratio"
    )
    details = {
        "rounds": rounds,
        "overhead_s": traced_s - untraced_s,
        "unaccounted_s": unaccounted_s,
        "all_spans": {name: dict(zip(("calls", "s", "self_s"), v)) for name, v in totals.items()},
    }
    results = [r for p in pairs for r in p]
    return results, metrics, details


def environment() -> dict:
    versions = {}
    for package in ("numpy", "scipy", "sympy", "click"):
        try:
            versions[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            versions[package] = None
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        **versions,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "cpu_pinning": "none",
        "frequency_control": "none",
        "blas_threads": 1,
        "clients": "1, closed loop",
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "deformed_u2" / "cli.py").is_file():
        print(f"no deformed_u2 source under {SRC}", file=sys.stderr)
        return 2

    ops = workloads.make_round(args.workload, args.seed)
    scratch = OUT / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    runner = Runner(scratch)
    rounds = workloads.rounds(args.workload, args.seconds, bool(args.trace))
    if args.trace:
        results, metrics, details = per_layer(ops, rounds, runner)
    else:
        results, metrics, details = end_to_end(args.workload, ops, rounds, runner)

    problems = [(r["input"], p) for r in results for p in r["problems"]]
    summary = {
        "correct": not problems,
        "attempted": len(results),
        "failed": sum(failed(r) for r in results),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = []
    for op_id, result in enumerate(results):
        for span in result.pop("spans", []):
            spans.append([op_id, *span])
    if spans:
        with open(OUT / f"{stem}-spans.jsonl", "w", encoding="utf-8") as handle:
            handle.write('# [op_id, span_id, name, start_ns, end_ns, parent_span_id]\n')
            for span in spans:
                handle.write(json.dumps(span) + "\n")
    record = {
        "workload": args.workload,
        "why": workloads.WORKLOADS[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": [op.args for op in ops],
        "environment": environment(),
        "details": details,
        "problems": problems,
        "ops": results,
        "result": summary,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"workload {args.workload}, seed {args.seed}: {rounds} rounds of {len(ops)} inputs")
    for op in ops:
        print("  deformed-u2 " + " ".join(op.args))
    for input_key, problem in problems:
        print(f"WRONG OUTPUT  {input_key}: {problem}")
    print(f"record: {OUT / (stem + '.json')}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
