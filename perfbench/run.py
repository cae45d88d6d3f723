#!/usr/bin/env python3
"""Seeded, offline benchmark of the causal-rag pipeline.

Run from the repository root (no install needed; the package is imported
from ./src):

    python3 perfbench/run.py --workload replay-pattern-extract --seed 1
    python3 perfbench/run.py --workload all --seconds 10 --trace 1

Each run generates its inputs from --seed, sets up several times (building
the repository, and recording the answers a replay workload will need),
then repeats the workload's measured library call for --seconds and checks
every call's outputs against the planted answers. With --trace 0 it reports
the end-to-end metrics; with --trace 1 it also makes one traced call and
reports the per-layer metrics instead. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}; the exit
status is 1 when a check failed. The line before it stamps the environment.
Scratch files live under .perfbench-work/ and are removed when the run ends;
traced runs leave their spans there.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SETUPS = 3  # set-ups per run, at least; setup_s is their slow quartile
SETUP_MIN_S = 5.0  # and more while their wall time adds up to less than this
HELDOUT_SEED = 9001  # a claim made on other seeds must also hold on this one

END_TO_END = (
    ("queries_per_s", "1/s"),
    ("setup_s", "s"),
    ("chat_calls_per_query", "count"),
    ("prompt_chars_per_query", "chars"),
    ("peak_rss_mb", "MiB"),
    ("correct_query_share", "ratio"),
)


def _import_program():
    """Import causal_rag from this checkout's src/ and nowhere else."""
    if not (SRC / "causal_rag" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC / 'causal_rag'}")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import causal_rag

    if Path(causal_rag.__file__).resolve().parent != (SRC / "causal_rag").resolve():
        raise SystemExit(f"perfbench: imported causal_rag from {causal_rag.__file__}")
    return causal_rag


def _loadavg() -> list[float]:
    try:
        return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
    except (OSError, ValueError):
        return []


def _git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def environment(program, load_before: list[float]) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "loadavg_before": load_before,
        "loadavg_after": _loadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(ROOT),
        "kernel_backend": program.KERNEL_BACKEND,
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _slow_quartile(walls: list[float]) -> float:
    """The time that a quarter of the run's calls (or set-ups) exceed.

    The host these figures come from switches between a slow and a fast
    state (about 2x apart) for seconds to minutes at a time. A run's median
    lands in whichever state held most of the run, so runs split between
    the two; this quartile stays in the slow state unless three quarters of
    the run were fast, and moves with the program as the median does."""
    if len(walls) == 1:
        return walls[0]
    return statistics.quantiles(walls, n=4, method="inclusive")[2]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from time import perf_counter

    from perfbench import workloads
    from perfbench.spans import Tracer, per_layer_metrics

    workload = workloads.BY_NAME[name]
    hooks = workloads.Hooks()
    work = WORK / f"{name}-s{seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    tracer = Tracer() if trace else None
    try:
        prep = workloads.generate(workload, seed, work)
        inputs_rss_mb = _peak_rss_mb()  # the benchmark's own share of peak_rss_mb
        setup_s: list[float] = []
        while len(setup_s) < (1 if trace else SETUPS) or (
            not trace and sum(setup_s) < SETUP_MIN_S
        ):
            gc.collect()
            directory = work / f"setup-{len(setup_s)}"
            if tracer is None:
                setup_s.append(workloads.setup(prep, directory, hooks))
            else:
                tracer.install()
                try:
                    setup_s.append(workloads.setup(prep, directory, tracer))
                finally:
                    tracer.uninstall()
            shutil.rmtree(work / f"setup-{len(setup_s) - 2}", ignore_errors=True)

        calls = []
        deadline = perf_counter() + seconds
        while not calls or perf_counter() < deadline:
            gc.collect()
            call_dir = work / f"call-{len(calls)}"
            calls.append(workloads.measure(prep, call_dir, hooks))
            shutil.rmtree(call_dir)
            if len(calls) == 1:
                # taken here, the peak does not depend on how many calls fit
                # in --seconds: with worker threads, each later call can add
                # a little heap fragmentation (up to 1.4 MiB on the sweep)
                peak_rss_mb = _peak_rss_mb()
        traced = None
        if tracer is not None:
            gc.collect()
            tracer.phase = "measure"
            tracer.install()
            try:
                traced = workloads.measure(prep, work / "call-traced", tracer)
            finally:
                tracer.uninstall()
            calls.append(traced)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # every call must repeat the first one's output bytes
    for call in calls[1:]:
        if call.digest != calls[0].digest:
            call.problems.append("output bytes differ from the run's first call")
    attempted = sum(c.queries for c in calls)
    failed = sum(c.queries if c.problems else len(c.failed_ids) for c in calls)
    untraced = [c for c in calls if c is not traced]
    walls = [c.wall_s for c in untraced]
    first = calls[0]
    e2e = {
        "queries_per_s": first.queries / _slow_quartile(walls),
        "setup_s": _slow_quartile(setup_s),
        "chat_calls_per_query": first.chat_calls / first.queries,
        "prompt_chars_per_query": first.prompt_chars / first.queries,
        "peak_rss_mb": peak_rss_mb,
        "correct_query_share": 1.0 - failed / attempted,
    }
    info = {
        "calls": len(untraced),
        "inputs_rss_mb": inputs_rss_mb,
        "queries_per_call": first.queries,
        "call_wall_s": walls,
        "setup_s": setup_s,
        "embed_calls_per_query": first.embed_calls / first.queries,
        "calls_by_kind": first.calls_by_kind,
        "output_sha256": first.digest,
    }
    result = {
        "e2e": e2e,
        "info": info,
        "attempted": attempted,
        "failed": failed,
        "problems": [p for c in calls for p in c.problems],
    }
    if tracer is not None:
        result["per_layer"] = per_layer_metrics(tracer, traced, statistics.median(walls))
        trace_path = WORK / f"trace-{name}-s{seed}.jsonl"
        tracer.write(trace_path)
        info["trace_file"] = str(trace_path.relative_to(ROOT))
    return result


def _print_metric(name: str, value, unit: str) -> None:
    print(f"  {name:<44} {value:>16.6g} {unit}")


def main_one(args, program) -> int:
    load_before = _loadavg()
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    units = dict(END_TO_END)
    for name, value in result["e2e"].items():
        _print_metric(name, value, units[name])
    if args.trace:
        print("  per layer (traced call):")
        for name, (value, unit) in result["per_layer"].items():
            _print_metric(name, value, unit)
    for problem in result["problems"][:20]:
        print(f"  FAILED CHECK: {problem}")
    info = dict(result["info"], workload=args.workload, seed=args.seed,
                heldout_seed=HELDOUT_SEED)
    print("info " + json.dumps(info, sort_keys=True))
    print("env " + json.dumps(environment(program, load_before), sort_keys=True))
    if args.trace:
        metrics = {n: {"value": v, "unit": u} for n, (v, u) in result["per_layer"].items()}
    else:
        metrics = {n: {"value": result["e2e"][n], "unit": u} for n, u in END_TO_END}
    correct = result["failed"] == 0 and not result["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


def main_all(args, names) -> int:
    """Run every workload in its own process, one after the other."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 and not (lines and lines[-1].startswith("{")):
            print(f"perfbench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        one = json.loads(lines[-1])
        summary["correct"] &= one["correct"]
        summary["attempted"] += one["attempted"]
        summary["failed"] += one["failed"]
        for metric, entry in one["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    program = _import_program()
    from perfbench.workloads import BY_NAME

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(BY_NAME) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return main_all(args, list(BY_NAME))
    return main_one(args, program)


if __name__ == "__main__":
    sys.exit(main())
