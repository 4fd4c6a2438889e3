"""The README's library example and the scripts, run as a user runs them."""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys

import pytest

import ctxkit

from test_golden import GOLDEN

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(ctxkit.__file__)))


def test_readme_library_example_prints_the_three_paradoxes():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        (snippet,) = re.findall(r"## Library use\n\n```python\n(.*?)```", fh.read(), re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(snippet, {"__name__": "readme"})
    assert out.getvalue().splitlines() == ["vA 1/9", "vB 1/9", "vC 1/9"]


def run_script(name: str, *args: str) -> bytes:
    """The stdout of ``scripts/NAME`` run with ``ctxkit`` importable, which must exit 0."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", name), *args], capture_output=True, env=env)
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_reproduce_tables_prints_the_golden_report(fmt):
    stdout = run_script("reproduce_tables.py", *([] if fmt == "text" else ["--format", "json"]))
    assert hashlib.sha256(stdout).hexdigest() == GOLDEN["report", fmt]


def test_estimate_success_probability_prints_the_twelve_paradoxes():
    stdout = run_script("estimate_success_probability.py", "--shots", "2000", "--seed", "0")
    rows = stdout.decode().splitlines()[2:]
    assert len(rows) == 12 and all(row.split()[2] == "1/9" for row in rows)
    # the seeded xoshiro256** draw makes the whole table byte-stable
    assert hashlib.sha256(stdout).hexdigest() == "6a39a61be1930a6e0c951714053d4f6757530c816c9f3974263da76d56811022"


def test_check_phases_times_the_first_ops_of_a_seed():
    # five cycles of the check stream: per scenario, two normals and a generic state (pure) and a mixture
    lines = run_script("check_phases.py", "1", "--ops", "40", "--repeat", "2").decode().splitlines()
    head, lines = lines[:2], lines[2:]
    assert head == ["box-d3-m2-n32: 1024 events, 8 core events", "box-d4-m1-n32: 216 events, 18 core events"]
    assert lines[0] == "seed 1: 40 ops"
    counts = {"all": 40, "density d3": 5, "density d4": 5, "pure d3": 15, "pure d4": 15}
    for line, (label, count) in zip(lines[1:6], counts.items()):
        assert re.fullmatch(rf"  {label} +{count} ops  p50 +\d+\.\d  p98 +\d+\.\d  build +\d+\.\d  model +\d+\.\d", line), line
    phases = "  ".join(rf"{phase} \d+\.\d" for phase in ("build", "model", "verdict", "oracle", "derive", "replay"))
    assert re.fullmatch(rf"  slowest 1 ops, mean per phase: {phases}  \(1 (pure|density) d[34]\)", lines[6]), lines[6]
    assert re.fullmatch(r"  slowest 1 ops: \d+\.\d paradoxes per op, derive (\d+\.\d\d|-) per paradox", lines[7]), lines[7]
    # the ops repeat zero sets; the last of an op's runs reads the analyses kept before the op, not those its first
    # run stored, so the share stays below every op
    kept = re.fullmatch(r"  zero set already kept: (\d+) of 40 ops \((\d+\.\d)%\)", lines[8])
    assert kept and 0 < int(kept[1]) < 40 and kept[2] == f"{int(kept[1]) / 40:.1%}"[:-1], lines[8]
    assert len(lines) == 9


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", os.path.join(ROOT, "scripts", "bench_pairs.py"))
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    return bench_pairs


def test_bench_pairs_counts_a_win_in_each_metric_direction():
    bench_pairs = load_bench_pairs()
    metrics = [{"name": "latency_p50_s", "better": "lower"}, {"name": "ops_per_s", "better": "higher"}]
    pairs = [
        {"parent": {"latency_p50_s": 2.0, "ops_per_s": 10.0}, "change": {"latency_p50_s": 1.0, "ops_per_s": 10.0}},
        {"parent": {"latency_p50_s": 2.0, "ops_per_s": 10.0}, "change": {"latency_p50_s": 3.0, "ops_per_s": 12.0}},
        {"parent": {"latency_p50_s": 4.0, "ops_per_s": 8.0}, "change": {"latency_p50_s": 1.0, "ops_per_s": 9.0}},
    ]
    summary = bench_pairs.summary(pairs, metrics)
    assert summary["change_wins"] == {"latency_p50_s": 2, "ops_per_s": 2}  # a tie counts for neither side
    assert summary["median"] == {
        "parent": {"latency_p50_s": 2.0, "ops_per_s": 10.0},
        "change": {"latency_p50_s": 1.0, "ops_per_s": 10.0},
    }
    # first and third quartiles, inclusive method: the parent's 2, 2, 4 give 2 and 3
    assert summary["quartiles"] == {
        "parent": {"latency_p50_s": [2.0, 3.0], "ops_per_s": [9.0, 10.0]},
        "change": {"latency_p50_s": [1.0, 2.0], "ops_per_s": [9.5, 11.0]},
    }
    assert summary["pairs"] == 3


def test_bench_pairs_rejects_a_single_seed_before_any_run(monkeypatch, tmp_path, capsys):
    # the quartiles need two runs a side: with one seed, every pair would run and then no output be written
    bench_pairs = load_bench_pairs()
    runs = []
    monkeypatch.setattr(bench_pairs, "run_once", lambda *args: runs.append(args))
    out = tmp_path / "bench.json"
    argv = [str(tmp_path), str(tmp_path), "--workload", "check-stream", "--seeds", "11", "--out", str(out)]
    with pytest.raises(SystemExit) as caught:
        bench_pairs.main(argv)
    assert caught.value.code == 2
    assert "--seeds needs at least two seeds" in capsys.readouterr().err
    assert runs == [] and not out.exists()


def test_bench_pairs_stops_on_a_run_that_failed_its_check(monkeypatch, tmp_path):
    # the run exits 0, but its own benchmark check failed: its metrics must not enter the medians
    bench_pairs = load_bench_pairs()
    last = json.dumps({"correct": False, "attempted": 5, "failed": 1, "metrics": {"ops_per_s": {"value": 1.0}}})
    done = subprocess.CompletedProcess([], 0, stdout=f'{{"diagnostics": {{}}}}\n{last}\n', stderr="")
    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda *args, **kwargs: done)
    with pytest.raises(SystemExit) as caught:
        bench_pairs.run_once(tmp_path, "check-stream", 11, 1.0, ["ops_per_s"])
    assert "failed its benchmark check" in caught.value.code and caught.value.code.endswith(last)
    done.stdout = done.stdout.replace('"correct": false', '"correct": true')
    assert bench_pairs.run_once(tmp_path, "check-stream", 11, 1.0, ["ops_per_s"]) == {
        "ops_per_s": 1.0, "attempted": 5, "failed": 1, "correct": True
    }
