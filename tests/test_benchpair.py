"""`tools/benchpair.py`: its parser, its verdicts, and a whole paired run
against a revision of a small git repository whose `perfbench/run.py` is a
stub printing recorded lines. No test exports the real repository."""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("benchpair", ROOT / "tools" / "benchpair.py")
benchpair = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(benchpair)

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

# the lines a 1 s seed-3 replay-bulk-extract run printed, its `info` list shortened
INFO = {"call_wall_s": [0.9926732530002482], "calls": 1, "calls_by_kind": {"extract": 5000},
        "embed_calls_per_query": 0.0, "heldout_seed": 9001, "inputs_rss_mb": 38.8515625,
        "output_sha256": "1fb4b8953608da5b8c96eb1bc0d2ac2dab1aae25e5ddb0e9b75a3b59c34aef5f",
        "queries_per_call": 5000, "seed": 3, "setup_s": [1.5552541329961969],
        "workload": "replay-bulk-extract"}
ENV = {"cpus_allowed": 2, "git_commit": "unknown", "kernel_backend": "python",
       "loadavg_after": [0.46, 0.17, 0.06], "loadavg_before": [0.36, 0.14, 0.05], "nproc": 2,
       "numpy": "2.4.6", "python": "3.11.7"}
METRICS = {"queries_per_s": 5036.9041221651105, "setup_s": 1.5556397537475277,
           "chat_calls_per_query": 1.0, "prompt_chars_per_query": 1523.6874,
           "peak_rss_mb": 52.125, "correct_query_share": 1.0}
UNITS = {spec["name"]: spec["unit"] for spec in END_TO_END}


def recorded_stdout(info: dict, metrics: dict) -> str:
    lines = ["workload replay-bulk-extract  seed 3  seconds 1.0  trace 0"]
    lines += [f"  {name:<44} {value:>16.6g} {UNITS[name]}" for name, value in metrics.items()]
    lines.append("info " + json.dumps(info, sort_keys=True))
    lines.append("env " + json.dumps(ENV, sort_keys=True))
    lines.append(json.dumps({
        "correct": True, "attempted": 5000, "failed": 0,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }))
    return "\n".join(lines) + "\n"


def test_parse_run_keeps_the_info_env_and_result_lines():
    run = benchpair.parse_run(recorded_stdout(INFO, METRICS))
    assert run["metrics"] == METRICS
    assert run["output_sha256"] == INFO["output_sha256"]
    assert run["info"] == INFO
    assert run["env"] == ENV
    assert (run["correct"], run["attempted"], run["failed"]) == (True, 5000, 0)


@pytest.mark.parametrize("stdout, missing", [
    ("", "no result line"),
    ("Traceback (most recent call last):\n", "no result line"),
    (recorded_stdout(INFO, METRICS).replace("\nenv ", "\nenvironment "), "no env line"),
    (recorded_stdout(INFO, METRICS).replace("\ninfo ", "\n"), "no info line"),
])
def test_parse_run_refuses_a_run_without_its_lines(stdout, missing):
    with pytest.raises(ValueError, match=missing):
        benchpair.parse_run(stdout)


def spread(center: float, width: float, n: int = 10) -> list[float]:
    return [center + width * (i - (n - 1) / 2) / n for i in range(n)]


@pytest.mark.parametrize("base, change, better, bound, verdict", [
    # 10 of 10 won by more than the base's quartile spread
    (spread(100, 2), spread(110, 2), "higher", 0.25, "improved"),
    (spread(2.0, 0.02), spread(1.8, 0.02), "lower", 0.25, "improved"),
    # won, but on fewer than 10 pairs: no claim
    (spread(100, 2, 9), spread(110, 2, 9), "higher", 0.25, "unchanged"),
    # 10 pairs won, but the gap is inside the base's quartile spread
    (spread(100, 40), spread(101, 40), "higher", 0.5, "unchanged"),
    # median worse by more than the bound, whatever the spread
    (spread(1.0, 0.01), spread(1.5, 0.01), "lower", 0.25, "worse"),
    (spread(100, 2), spread(70, 2), "higher", 0.25, "worse"),
    # worse, but inside the bound
    (spread(50, 0.1), spread(50.5, 0.1), "lower", 0.06, "unchanged"),
    # a spread wider than the bound hides any answer
    ([1000.0, 2000.0] * 5, [2000.0, 1000.0] * 5, "lower", 0.15, "unresolved"),
    # unless every run of the change reads better than every run of the base
    ([100.0, 300.0] * 2, [301.0, 400.0] * 2, "higher", 0.01, "unchanged"),
    ([1.0] * 10, [1.0] * 10, "lower", 0.1, "unchanged"),
])
def test_compare_gives_each_verdict(base, change, better, bound, verdict):
    result = benchpair.compare(base, change, better, bound)
    assert result["verdict"] == verdict
    assert result["pairs"] == len(base)
    assert result["pairs_won"] + result["pairs_lost"] <= len(base)


def test_compare_counts_pairs_in_the_metrics_direction():
    result = benchpair.compare([3.0, 3.0, 3.0], [2.0, 3.0, 4.0], "lower", 0.5)
    assert (result["pairs_won"], result["pairs_lost"]) == (1, 1)
    assert result["base_median"] == result["change_median"] == 3.0
    assert result["change_vs_base"] == 0.0


@pytest.mark.parametrize("verdicts, verdict", [
    (["improved", "improved"], "improved"),
    (["improved", "unchanged"], "unchanged"),
    (["improved", "unresolved"], "unresolved"),
    (["improved", "worse"], "worse"),
    (["unresolved", "worse"], "worse"),
    (["unchanged"], "unchanged"),
])
def test_a_metric_is_improved_only_on_every_seed(verdicts, verdict):
    assert benchpair.overall(verdicts) == verdict


def stub_runs(side: str, failed=(), gate_failed=(), exit_1=()) -> list[dict]:
    """One seed's 10 pairs of parsed runs, the change side's queries_per_s
    10% above the base side's; the pair numbers in `failed`, `gate_failed`
    and `exit_1` name `side`'s runs with a failed query, a failed gate or
    exit status 1."""
    values = {"base": spread(100, 2), "change": spread(110, 2)}
    return [{s: {"metrics": {"queries_per_s": values[s][n]}, "output_sha256": "a" * 64,
                 "failed": int(s == side and n in failed),
                 "correct": not (s == side and n in gate_failed),
                 "returncode": int(s == side and n in exit_1)}
             for s in ("base", "change")}
            for n in range(10)]


@pytest.mark.parametrize("side, failed, gate_failed, exit_1, verdict", [
    ("change", (), (), (), "improved"),
    ("change", (4,), (), (), "unchanged"),
    ("change", (), (7,), (), "unchanged"),
    ("change", (), (), (0,), "unchanged"),
    # failures on the base side hold no gain back
    ("base", (2,), (2,), (2,), "improved"),
])
def test_a_gain_with_more_failures_is_not_improved(side, failed, gate_failed, exit_1, verdict):
    qps = [spec for spec in END_TO_END if spec["name"] == "queries_per_s"]
    summary = benchpair.summarize({"3": stub_runs(side, failed, gate_failed, exit_1)}, qps)
    assert summary["metrics"]["queries_per_s"]["seeds"]["3"]["verdict"] == verdict
    assert summary["metrics"]["queries_per_s"]["verdict"] == verdict
    counted = summary["failures"]["3"]
    assert counted[side] == {"failed": len(failed),
                             "gate_failures": len(set(gate_failed) | set(exit_1))}
    assert counted["change_fails_more"] is (verdict != "improved")


STUB = """\
import json, sys
from pathlib import Path

here = Path(__file__).resolve().parent
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
count = here / "count"
n = int(count.read_text()) if count.exists() else 0
count.write_text(str(n + 1))
recorded = json.loads((here / "recorded.json").read_text())
with open(recorded["log"], "a") as log:
    print(recorded["side"], here.parent, args["--workload"], args["--seed"], args["--seconds"],
          file=log)
print(recorded["stdout"][n], end="")
"""


def write_recorded(repo: Path, side: str, log: Path, metrics: dict, digest: str) -> None:
    """The stub's stdout for each of its runs, one value of each series a run."""
    info = dict(INFO, output_sha256=digest)
    runs = [{name: series[n] for name, series in metrics.items()}
            for n in range(len(metrics["queries_per_s"]))]
    (repo / "perfbench" / "recorded.json").write_text(json.dumps({
        "side": side, "log": str(log), "stdout": [recorded_stdout(info, run) for run in runs],
    }))


def git(repo: Path, *args: str) -> str:
    return subprocess.run(
        ["git", "-c", "user.name=bench", "-c", "user.email=bench@localhost", *args],
        cwd=repo, capture_output=True, text=True, check=True,
    ).stdout


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_a_paired_run_against_a_revision_writes_its_verdicts(tmp_path):
    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", repo / "BENCHMARK.json")
    (repo / "perfbench" / "run.py").write_text(STUB)
    log = tmp_path / "runs.log"
    pairs = 10
    base = {
        "queries_per_s": spread(100, 2),
        "setup_s": spread(1.0, 0.01),
        "chat_calls_per_query": [1.0] * pairs,
        "prompt_chars_per_query": [1000.0, 2000.0] * 5,
        "peak_rss_mb": spread(50, 0.1),
        "correct_query_share": [1.0] * pairs,
    }
    change = dict(base, queries_per_s=spread(110, 2), setup_s=spread(1.5, 0.01),
                  prompt_chars_per_query=[2000.0, 1000.0] * 5, peak_rss_mb=spread(50.5, 0.1))
    write_recorded(repo, "base", log, base, "a" * 64)
    git(repo, "init", "-q")
    git(repo, "add", "-A")
    git(repo, "commit", "-qm", "base")
    write_recorded(repo, "change", log, change, "b" * 64)  # left uncommitted

    out = tmp_path / "out"
    out.mkdir()
    argv = ["--against", "HEAD", "--workload", "w", "--seeds", "3", "--pairs", str(pairs),
            "--seconds", "0.5", "--out-dir", str(out)]
    assert benchpair.main(argv, root=repo) == 0

    calls = [line.split() for line in log.read_text().splitlines()]
    assert [side for side, *_ in calls] == ["base", "change", "change", "base"] * 5
    assert {tuple(rest) for _, _, *rest in calls} == {("w", "3", "0.5")}
    trees = {side: Path(tree) for side, tree, *_ in calls}
    assert trees["change"] == repo
    assert not trees["base"].exists()  # the exported revision is removed
    assert git(repo, "worktree", "list").count("\n") == 1

    report = json.loads((out / "BENCH_w.json").read_text())
    assert report["sides"]["base"] == {"rev": "HEAD", "commit": git(repo, "rev-parse",
                                                                    "HEAD").strip()}
    assert report["sides"]["change"]["dirty"] is True
    assert (report["seeds"], report["pairs"], report["seconds"]) == ([3], 10, 0.5)
    assert report["digests"] == {"3": {"base": ["a" * 64], "change": ["b" * 64], "same": False}}
    assert [p["first"] for p in report["runs"]["3"]] == ["base", "change"] * 5
    assert report["runs"]["3"][0]["base"]["env"] == ENV
    assert report["runs"]["3"][0]["base"]["returncode"] == 0
    assert report["failures"]["3"]["change_fails_more"] is False
    verdicts = {name: metric["verdict"] for name, metric in report["metrics"].items()}
    assert verdicts == {
        "queries_per_s": "improved",
        "setup_s": "worse",
        "chat_calls_per_query": "unchanged",
        "prompt_chars_per_query": "unresolved",
        "peak_rss_mb": "unchanged",
        "correct_query_share": "unchanged",
    }
    qps = report["metrics"]["queries_per_s"]["seeds"]["3"]
    assert (qps["base"], qps["change"]) == (base["queries_per_s"], change["queries_per_s"])
    assert (qps["pairs_won"], qps["pairs_lost"]) == (10, 0)


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_a_run_without_a_result_line_stops_the_tool(tmp_path, capsys):
    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", repo / "BENCHMARK.json")
    (repo / "perfbench" / "run.py").write_text("raise SystemExit('no such workload')\n")
    git(repo, "init", "-q")
    git(repo, "add", "-A")
    git(repo, "commit", "-qm", "base")
    argv = ["--against", "HEAD", "--workload", "w", "--pairs", "1", "--seconds", "1",
            "--out-dir", str(tmp_path)]
    assert benchpair.main(argv, root=repo) == 1
    assert "no such workload" in capsys.readouterr().err
    assert not (tmp_path / "BENCH_w.json").exists()
