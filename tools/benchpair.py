#!/usr/bin/env python3
"""Paired runs of one perfbench workload: this checkout against a git revision.

Run from anywhere in the checkout (stdlib only, nothing to install):

    python3 tools/benchpair.py --against HEAD~1 --workload record-sweep-50ms \\
        --seeds 3 9001 --pairs 10 --seconds 10

The revision is exported with `git archive` into a temporary directory
outside the tree, which is removed when the run ends; nothing is added to
the repository's `.git`. For each seed and each of `--pairs` pairs, both
trees run `perfbench/run.py --workload W --seed S --seconds T` as a fresh
process, the revision first in even pairs and this checkout first in odd
ones. Each run's exit status, its `info` line (with `output_sha256`), its
`env` line and its last line (metrics, `correct`, `failed`) are kept.

`BENCH_<workload>.json` (in `--out-dir`, by default the checkout's root)
holds every run, and for each end-to-end metric of `BENCHMARK.json` and
each seed: both sides' values, medians and quartiles, the pairs each side
won (ties count for neither; the direction is the metric's `better`), and
a verdict:

- "worse": this checkout's median is worse than the revision's by more
  than the metric's bound, a share of the revision's median;
- "improved": at least `CLAIM_SHARE` of at least `CLAIM_PAIRS` pairs won,
  a median gap larger than the revision's own quartile spread, and no more
  failures on this checkout's side than on the revision's for that seed:
  neither more failed queries (`failed`, summed over its runs) nor more
  runs that failed perfbench's correctness gate (`correct` false, or a
  non-zero exit status). A gain with more failures reads "unchanged";
- "unresolved": neither, and a side's quartile spread is wider than the
  bound, unless every run of this checkout reads better than every run of
  the revision;
- "unchanged": otherwise.

A metric's overall verdict is "worse" if any seed's is, "improved" if every
seed's is, else "unresolved" if any seed's is, else "unchanged". The exit
status is 0 once the file is written, whatever the verdicts; a run that
prints no result line stops the tool with status 1.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import statistics
import subprocess
import sys
import tarfile
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Sequence

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")  # the --against revision, and this checkout
CLAIM_PAIRS = 10
CLAIM_SHARE = 0.9


def parse_run(stdout: str) -> dict:
    """One perfbench run's `info` and `env` objects and its last line's
    result, with each metric reduced to its value."""
    lines = stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise ValueError("no result line")
    result = json.loads(lines[-1])
    stamps = {}
    for line in lines[:-1]:
        tag, _, rest = line.partition(" ")
        if tag in ("info", "env") and rest.startswith("{"):
            stamps[tag] = json.loads(rest)
    for tag in ("info", "env"):
        if tag not in stamps:
            raise ValueError(f"no {tag} line")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: entry["value"] for name, entry in result["metrics"].items()},
        "output_sha256": stamps["info"].get("output_sha256"),
        "info": stamps["info"],
        "env": stamps["env"],
    }


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=False)
    try:
        return dict(parse_run(proc.stdout), returncode=proc.returncode)
    except (ValueError, KeyError) as exc:
        tail = "\n".join(proc.stderr.strip().splitlines()[-10:])
        raise RuntimeError(
            f"{' '.join(cmd)} in {tree} exited {proc.returncode}: {exc}\n{tail}"
        ) from exc


def run_pairs(trees: dict[str, Path], workload: str, seeds: Sequence[int], pairs: int,
              seconds: float) -> dict[str, list[dict]]:
    """Per seed, `pairs` pairs of runs, one in each tree, alternating which
    side runs first."""
    runs: dict[str, list[dict]] = {}
    for seed in seeds:
        runs[str(seed)] = []
        for number in range(pairs):
            order = SIDES if number % 2 == 0 else SIDES[::-1]
            pair: dict = {"first": order[0]}
            for side in order:
                pair[side] = run_once(trees[side], workload, seed, seconds)
                print(f"benchpair: seed {seed} pair {number + 1}/{pairs} {side}: "
                      f"{json.dumps(pair[side]['metrics'], sort_keys=True)}", file=sys.stderr)
            runs[str(seed)].append(pair)
    return runs


def quartiles(values: Sequence[float]) -> tuple[float, float]:
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def compare(base: Sequence[float], change: Sequence[float], better: str, bound: float) -> dict:
    """One seed's comparison of one metric, run i of each side forming pair i."""
    sign = 1.0 if better == "higher" else -1.0
    base_median = statistics.median(base)
    change_median = statistics.median(change)
    base_q = quartiles(base)
    change_q = quartiles(change)
    gap = sign * (change_median - base_median)  # > 0: this checkout is better
    won = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    lost = sum(sign * (c - b) < 0 for b, c in zip(base, change))
    allowed = bound * abs(base_median)
    spread = max(base_q[1] - base_q[0], change_q[1] - change_q[0])
    if -gap > allowed:
        verdict = "worse"
    elif (len(base) >= CLAIM_PAIRS and won >= CLAIM_SHARE * len(base)
          and gap > base_q[1] - base_q[0]):
        verdict = "improved"
    elif spread > allowed and not min(sign * c for c in change) > max(sign * b for b in base):
        verdict = "unresolved"
    else:
        verdict = "unchanged"
    return {
        "base": list(base),
        "change": list(change),
        "base_median": base_median,
        "change_median": change_median,
        "base_quartiles": list(base_q),
        "change_quartiles": list(change_q),
        "change_vs_base": (change_median - base_median) / base_median if base_median else None,
        "pairs": len(base),
        "pairs_won": won,
        "pairs_lost": lost,
        "verdict": verdict,
    }


def overall(verdicts: Sequence[str]) -> str:
    if "worse" in verdicts:
        return "worse"
    if all(v == "improved" for v in verdicts):
        return "improved"
    if "unresolved" in verdicts:
        return "unresolved"
    return "unchanged"


def failures(pairs: Sequence[dict], side: str) -> dict:
    """One side's failed queries and the runs that failed the gate."""
    return {
        "failed": sum(p[side]["failed"] for p in pairs),
        "gate_failures": sum(not p[side]["correct"] or p[side]["returncode"] != 0
                             for p in pairs),
    }


def summarize(runs: dict[str, list[dict]], end_to_end: Sequence[dict]) -> dict:
    """The metrics, failures and digests blocks of `BENCH_<workload>.json`."""
    counted = {}
    for seed, pairs in runs.items():
        sides = {side: failures(pairs, side) for side in SIDES}
        more = any(sides["change"][key] > sides["base"][key] for key in sides["base"])
        counted[seed] = dict(sides, change_fails_more=more)
    metrics = {}
    for spec in end_to_end:
        name = spec["name"]
        seeds = {}
        for seed, pairs in runs.items():
            result = compare([p["base"]["metrics"][name] for p in pairs],
                             [p["change"]["metrics"][name] for p in pairs],
                             spec["better"], spec["bound"])
            if result["verdict"] == "improved" and counted[seed]["change_fails_more"]:
                result["verdict"] = "unchanged"
            seeds[seed] = result
        metrics[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "bound": spec["bound"],
            "verdict": overall([s["verdict"] for s in seeds.values()]),
            "seeds": seeds,
        }
    digests = {}
    for seed, pairs in runs.items():
        sides = {side: sorted({p[side]["output_sha256"] for p in pairs}) for side in SIDES}
        digests[seed] = dict(sides, same=sides["base"] == sides["change"])
    return {"metrics": metrics, "failures": counted, "digests": digests}


def _git(root: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=root, capture_output=True, text=True,
                          check=True).stdout.strip()


@contextmanager
def exported(root: Path, rev: str) -> Iterator[Path]:
    """The files of `rev`, extracted from `git archive` into a temporary
    directory outside the tree, which is removed on exit."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=root,
                             capture_output=True, check=True).stdout
    with tempfile.TemporaryDirectory(prefix="benchpair-") as scratch:
        tree = Path(scratch) / "tree"
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            if hasattr(tarfile, "data_filter"):
                tar.extractall(tree, filter="data")
            else:  # Python < 3.12 without the filter backport
                tar.extractall(tree)
        yield tree


def main(argv: Sequence[str] | None = None, root: Path = ROOT) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, metavar="REV",
                        help="git revision to compare this checkout with")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=[3])
    parser.add_argument("--pairs", type=int, default=CLAIM_PAIRS)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--out-dir", type=Path, default=root)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    if not math.isfinite(args.seconds) or args.seconds <= 0:
        parser.error("--seconds must be > 0")
    end_to_end = json.loads((root / "BENCHMARK.json").read_text())["end_to_end"]
    try:
        base_commit = _git(root, "rev-parse", "--verify", f"{args.against}^{{commit}}")
    except subprocess.CalledProcessError as exc:
        parser.error(f"--against {args.against}: {exc.stderr.strip()}")
    sides = {
        "base": {"rev": args.against, "commit": base_commit},
        # this checkout: its HEAD, plus any uncommitted edits when dirty
        "change": {"head": _git(root, "rev-parse", "HEAD"),
                   "dirty": bool(_git(root, "status", "--porcelain"))},
    }
    with exported(root, base_commit) as base_tree:
        try:
            runs = run_pairs({"base": base_tree, "change": root}, args.workload, args.seeds,
                             args.pairs, args.seconds)
        except RuntimeError as exc:
            print(f"benchpair: {exc}", file=sys.stderr)
            return 1
    report = {
        "workload": args.workload,
        "command": f"python3 perfbench/run.py --workload {args.workload} --seed S "
                   f"--seconds {args.seconds:g}",
        "seeds": args.seeds,
        "pairs": args.pairs,
        "seconds": args.seconds,
        "sides": sides,
        **summarize(runs, end_to_end),
        "runs": runs,
    }
    out = args.out_dir / f"BENCH_{args.workload}.json"
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    for name, metric in report["metrics"].items():
        print(f"{name:<24} {metric['verdict']}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
