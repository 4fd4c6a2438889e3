"""Command line behaviour: outputs, exit codes, determinism."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

import ctxkit.assignments
import ctxkit.hardy
from ctxkit import cli, enumerate_assignments, load_bundled, support_labels


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "ctxkit", *args],
        capture_output=True,
        text=True,
        **kwargs,
    )


def test_report_json_is_byte_identical(tmp_path):
    first = tmp_path / "r1.json"
    second = tmp_path / "r2.json"
    for out in (first, second):
        result = run_cli("report", "--scenario", "yu-oh", "--format", "json", "--seed", "0", "--out", str(out))
        assert result.returncode == 0, result.stderr
    assert first.read_bytes() == second.read_bytes()


def test_report_text_covers_all_sections():
    result = run_cli("report", "--scenario", "yu-oh")
    assert result.returncode == 0, result.stderr
    out = result.stdout
    assert "contexts (16): 4 basis, 12 deficient" in out
    assert "assignments (24):" in out
    assert "S_Λ(vA) = {v1,v5,v6,vA}, {v2,v6,v7,vA}, {v3,v5,v7,vA}" in out
    assert "logically contextual pure states (4):" in out
    assert "no logically contextual mixed states: yes" in out
    assert "paradoxes (12):" in out
    assert "errata rows: 4, 5, 6, 7" in out


def test_contexts_table():
    result = run_cli("contexts", "--scenario", "yu-oh")
    assert result.returncode == 0
    assert "contexts (16): 4 basis, 12 deficient" in result.stdout
    assert "{v4,vA} | (2,1,1)" in result.stdout
    assert "pair complements pairwise distinct: yes" in result.stdout


def test_states_command():
    result = run_cli("states", "--scenario", "yu-oh")
    assert result.returncode == 0
    assert "logically contextual pure states (4):" in result.stdout
    assert "all witnesses basis-free: yes" in result.stdout


def test_check_contextual_state():
    result = run_cli("check", "--scenario", "yu-oh", "--state", "1,1,1")
    assert result.returncode == 0
    assert "logically contextual" in result.stdout
    assert "witness: vA" in result.stdout
    assert "marginal-distribution oracle agrees: yes" in result.stdout


def test_check_noncontextual_state():
    result = run_cli("check", "--scenario", "yu-oh", "--state", "1,0,0")
    assert result.returncode == 0
    assert "logically non-contextual" in result.stdout


def test_check_density(tmp_path):
    density = tmp_path / "mixed.density"
    density.write_text("1/3 0 0\n0 1/3 0\n0 0 1/3\n", encoding="utf-8")
    result = run_cli("check", "--scenario", "yu-oh", "--density", str(density))
    assert result.returncode == 0
    assert "logically non-contextual" in result.stdout


def test_assignment_report_line():
    result = run_cli("assignments", "--scenario", "yu-oh")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    lam2 = next(l for l in lines if l.strip().startswith("λ2:"))
    assert "support={v1,v5,v6,vA}" in lam2
    assert "1000110001000" in lam2


def test_assignments_json_round_trip():
    result = run_cli("assignments", "--scenario", "yu-oh", "--format", "json")
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["schema"] == "ctxkit-report/1"
    scenario = load_bundled("yu-oh")
    expected = [list(support_labels(scenario, a)) for a in enumerate_assignments(scenario)]
    assert [row["support"] for row in doc["assignments"]["rows"]] == expected
    assert doc["assignments"]["columns"] == list(scenario.labels)


def test_paradox_header_format():
    result = run_cli("paradoxes", "--scenario", "yu-oh", "--state", "1,1,1")
    assert result.returncode == 0
    assert "ρ(vA)>0, ρ(v5)=ρ(v6)=0, SP=1/9 (11.1%)" in result.stdout


def test_paradoxes_for_noncontextual_state():
    result = run_cli("paradoxes", "--scenario", "yu-oh", "--state", "1,0,0")
    assert result.returncode == 0
    assert "paradoxes: none" in result.stdout
    assert "not logically contextual" in result.stdout


def test_observables_output():
    result = run_cli("observables", "--scenario", "yu-oh", "--state", "1,1,1")
    assert result.returncode == 0
    assert "P1 = 1/2 * [[1,0,-1],[0,0,0],[-1,0,1]]" in result.stdout
    assert "P2 = 1/6 * [[1,-2,1],[-2,4,-2],[1,-2,1]]" in result.stdout
    assert "P3 = 1/3 * [[1,1,1],[1,1,1],[1,1,1]]" in result.stdout
    assert "verification: ok" in result.stdout
    assert "errata rows: 4, 5, 6, 7" in result.stdout


def test_observables_custom_eigenvalues():
    result = run_cli(
        "observables", "--scenario", "yu-oh", "--state", "1,1,1", "--eigenvalues", "0,1/2,1"
    )
    assert result.returncode == 0
    assert "eigenvalues 0,1/2,1" in result.stdout


def test_simulate_certain_outcome():
    result = run_cli(
        "simulate", "--scenario", "yu-oh", "--state", "1,1,1", "--witness", "vA",
        "--shots", "5000", "--seed", "0",
    )
    assert result.returncode == 0
    assert "a3=3: count=5000" in result.stdout


def test_simulate_is_seed_deterministic():
    args = (
        "simulate", "--scenario", "yu-oh", "--state", "1,1,1", "--witness", "vA",
        "--shots", "20000", "--seed", "42", "--format", "json",
    )
    a, b = run_cli(*args), run_cli(*args)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    doc = json.loads(a.stdout)
    assert doc["witness_measurement"]["prng"] == "xoshiro256**"
    assert sum(o["count"] for o in doc["witness_measurement"]["outcomes"]) == 20000


def test_report_stable_under_comment_shuffle(tmp_path):
    bundled_lines = [
        "scenario yu-oh dim 3 field rational",
        "v1: 1,0,0", "v2: 0,1,0", "v3: 0,0,1", "v4: 0,1,-1", "v5: 1,0,-1",
        "v6: 1,-1,0", "v7: 0,1,1", "v8: 1,0,1", "v9: 1,1,0",
        "vA: -1,1,1", "vB: 1,-1,1", "vC: 1,1,-1", "vD: 1,1,1",
    ]
    plain = tmp_path / "plain.scenario"
    plain.write_text("\n".join(bundled_lines) + "\n", encoding="utf-8")
    commented = tmp_path / "commented.scenario"
    with_comments = [bundled_lines[0], "# a comment", *bundled_lines[1:7], "", "# another", *bundled_lines[7:]]
    commented.write_text("\n".join(with_comments) + "\n", encoding="utf-8")
    out_a, out_b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert run_cli("report", "--scenario", str(plain), "--out", str(out_a)).returncode == 0
    assert run_cli("report", "--scenario", str(commented), "--out", str(out_b)).returncode == 0
    assert out_a.read_bytes() == out_b.read_bytes()


# --- work done per command --------------------------------------------------------


def count_calls(monkeypatch, function) -> list:
    """Wrap ``function`` wherever a ctxkit module binds it; the list grows by one per call."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return function(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("ctxkit") and getattr(module, function.__name__, None) is function:
            monkeypatch.setattr(module, function.__name__, counted)
    return calls


@pytest.mark.parametrize("command", ["observables", "report"])
def test_command_enumerates_once_and_derives_each_state_once(monkeypatch, tmp_path, command):
    enumerations = count_calls(monkeypatch, ctxkit.assignments.enumerate_assignments)
    derivations = count_calls(monkeypatch, ctxkit.hardy.derive_paradoxes)
    assert cli.main([command, "--scenario", "yu-oh", "--out", str(tmp_path / "out")]) == 0
    assert len(enumerations) == 1
    # 4 contextual states, each derived once by the command and once by the crosscheck
    assert len(derivations) <= 8


# --- exit codes ----------------------------------------------------------------


def test_missing_file_exits_5():
    result = run_cli("contexts", "--scenario", "missing.txt")
    assert result.returncode == 5
    assert "error" in result.stderr


def test_parse_error_exits_2(tmp_path):
    bad = tmp_path / "bad.scenario"
    bad.write_text("scenario bad dim 3 field rational\na: 1,1/0,0\n", encoding="utf-8")
    result = run_cli("contexts", "--scenario", str(bad))
    assert result.returncode == 2
    assert "line 2" in result.stderr


def test_validation_error_exits_3(tmp_path):
    dup = tmp_path / "dup.scenario"
    dup.write_text("scenario dup dim 3 field rational\na: 1,0,0\nb: 2,0,0\n", encoding="utf-8")
    result = run_cli("contexts", "--scenario", str(dup))
    assert result.returncode == 3


def test_invalid_state_exits_3():
    result = run_cli("check", "--scenario", "yu-oh", "--state", "0,0,0")
    assert result.returncode == 3
    result = run_cli("check", "--scenario", "yu-oh", "--state", "1,1")
    assert result.returncode == 3


def test_bad_state_literal_exits_2():
    result = run_cli("check", "--scenario", "yu-oh", "--state", "1,x,1")
    assert result.returncode == 2


def test_unknown_label_exits_4():
    result = run_cli(
        "simulate", "--scenario", "yu-oh", "--state", "1,1,1", "--witness", "vX"
    )
    assert result.returncode == 4


def test_indistinct_eigenvalues_exit_3():
    result = run_cli(
        "observables", "--scenario", "yu-oh", "--state", "1,1,1", "--eigenvalues", "1,1,2"
    )
    assert result.returncode == 3


def test_malformed_eigenvalues_exit_2():
    result = run_cli(
        "observables", "--scenario", "yu-oh", "--state", "1,1,1", "--eigenvalues", "1,2.5,3"
    )
    assert result.returncode == 2


def test_missing_state_exits_3():
    result = run_cli("check", "--scenario", "yu-oh")
    assert result.returncode == 3


def test_usage_error_exits_2():
    result = run_cli("frobnicate", "--scenario", "yu-oh")
    assert result.returncode == 2


def test_help_documents_exit_codes():
    result = run_cli("--help")
    assert result.returncode == 0
    assert "exit codes" in result.stdout
    assert "unknown ray label" in result.stdout
