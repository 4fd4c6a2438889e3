"""Command line behaviour: outputs, exit codes, determinism."""

from __future__ import annotations

import json
import subprocess
import sys
from itertools import product
from math import gcd

import pytest

import ctxkit.assignments
import ctxkit.contextuality
import ctxkit.exact
import ctxkit.hardy
import ctxkit.scenario
from ctxkit import (
    QuantumState,
    cli,
    derive_paradoxes,
    enumerate_assignments,
    load_bundled,
    load_scenario_path,
    vec,
)
from ctxkit.contextuality import TRIPLE_LISTING_BOUND, PureStateSearch, WitnessedState
from ctxkit.report import render_text

from oracles import support_labels


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


def box_prefix_text(d: int, m: int, n: int) -> str:
    """The first ``n`` rays of the integer box {-m..m}^d (primitive, leading entry positive)."""
    rays = [
        v
        for v in product(range(-m, m + 1), repeat=d)
        if any(v) and gcd(*v) == 1 and next(x for x in v if x) > 0
    ][:n]
    lines = [f"r{i}: {','.join(map(str, v))}" for i, v in enumerate(rays, start=1)]
    return "\n".join([f"scenario box-d{d}-m{m}-n{n} dim {d} field rational", *lines]) + "\n"


def box_d3_m2_prefix_text(n: int) -> str:
    return box_prefix_text(3, 2, n)


@pytest.mark.parametrize("n, states", [(26, 54), (38, 172)])
def test_report_on_box_prefixes_lists_no_selections(tmp_path, n, states):
    # a search over one pick per global event of each witness walked about 10^355
    # selections at 26 rays and was killed for memory at 38
    path = tmp_path / "box.scenario"
    path.write_text(box_d3_m2_prefix_text(n), encoding="utf-8")
    text = run_cli("report", "--scenario", str(path), timeout=60)
    assert text.returncode == 0, text.stderr
    assert f"logically contextual pure states ({states}):" in text.stdout
    assert f"mixed-state analysis: more than {TRIPLE_LISTING_BOUND} selection systems, not listed" in text.stdout
    result = run_cli("report", "--scenario", str(path), "--format", "json", timeout=60)
    assert result.returncode == 0, result.stderr
    doc = json.loads(result.stdout)
    assert len(doc["states"]["states"]) == states
    assert doc["mixed_analysis"]["triples"] == [] and "triples_skipped" in doc["mixed_analysis"]
    assert render_text(doc) == text.stdout


@pytest.mark.parametrize("state", ["0,0,1", "2,1,0"])
def test_one_zero_paradoxes_skip_only_their_observables(tmp_path, state):
    # (0,0,1) has 21 paradoxes, all with one zero ray; (2,1,0) has 6 such and 5 with two
    path = tmp_path / "box.scenario"
    path.write_text(box_d3_m2_prefix_text(38), encoding="utf-8")
    args = ("--scenario", str(path), "--state", state)
    paradoxes = json.loads(run_cli("paradoxes", *args, "--format", "json").stdout)["paradoxes"]
    one_zero = [p["index"] for p in paradoxes if len(p["zeros"]) == 1]
    two_zero = [p["index"] for p in paradoxes if len(p["zeros"]) == 2]
    assert one_zero and len(one_zero) + len(two_zero) == len(paradoxes)
    reason = "witness observable needs exactly 2 zero rays, got 1"

    text = run_cli("observables", *args)
    assert text.returncode == 0, text.stderr
    assert [line for line in text.stdout.splitlines() if "skipped" in line] == [
        f"observable {i}: skipped ({reason})" for i in one_zero
    ]
    assert text.stdout.count("verification: ok") == len(two_zero)
    assert "FAILED" not in text.stdout

    result = run_cli("observables", *args, "--format", "json")
    assert result.returncode == 0, result.stderr
    doc = json.loads(result.stdout)
    assert doc["skipped"] == [f"observable {i}: {reason}" for i in one_zero]
    assert [o["index"] for o in doc["observables"]] == two_zero
    assert all(o["verified"] for o in doc["observables"])


@pytest.mark.parametrize("state", ["0,0,1", "2,1,0"])
def test_observables_text_with_skips_is_rendered_from_the_json_document(tmp_path, state):
    path = tmp_path / "box.scenario"
    path.write_text(box_d3_m2_prefix_text(38), encoding="utf-8")
    args = ("observables", "--scenario", str(path), "--state", state)
    text, doc = run_cli(*args), run_cli(*args, "--format", "json")
    assert text.returncode == doc.returncode == 0
    assert "skipped" in text.stdout
    assert render_text(json.loads(doc.stdout)) == text.stdout


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_report_skips_one_zero_paradoxes(monkeypatch, tmp_path, fmt):
    # the report is given one state found by hand, whose paradoxes are counted below
    path, out = tmp_path / "box.scenario", tmp_path / "report"
    path.write_text(box_d3_m2_prefix_text(38), encoding="utf-8")
    scenario = load_scenario_path(path)
    state = WitnessedState(witness=scenario.ray_index("r16"), state=vec(2, 1, 0), selection=(9, 11))
    monkeypatch.setattr(cli, "find_contextual_pure_states", lambda s, a: PureStateSearch((state,), ()))
    paradoxes = derive_paradoxes(scenario, QuantumState.pure(state.state), enumerate_assignments(scenario)).paradoxes
    one_zero = [i for i, p in enumerate(paradoxes, start=1) if len(p.zero_set) == 1]
    two_zero = [i for i, p in enumerate(paradoxes, start=1) if len(p.zero_set) == 2]
    assert len(one_zero) == 6 and len(two_zero) == 5
    reason = "witness observable needs exactly 2 zero rays, got 1"

    assert cli.main(["report", "--scenario", str(path), "--format", fmt, "--out", str(out)]) == 0
    if fmt == "text":
        text = out.read_text(encoding="utf-8")
        assert [line for line in text.splitlines() if "skipped" in line] == [
            f"observable {i}: skipped ({reason})" for i in one_zero
        ]
        assert text.count("verification: ok") == len(two_zero)
    else:
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["skipped"] == [f"observable {i}: {reason}" for i in one_zero]
        assert [o["index"] for o in doc["observables"]] == two_zero
        assert all(o["verified"] for o in doc["observables"])


def test_report_text_with_skips_is_rendered_from_the_json_document(monkeypatch, tmp_path):
    # the same stubbed search as above: skip lines sit between the built observables
    path = tmp_path / "box.scenario"
    path.write_text(box_d3_m2_prefix_text(38), encoding="utf-8")
    state = WitnessedState(witness=load_scenario_path(path).ray_index("r16"), state=vec(2, 1, 0), selection=(9, 11))
    monkeypatch.setattr(cli, "find_contextual_pure_states", lambda s, a: PureStateSearch((state,), ()))
    out = {}
    for fmt in ("text", "json"):
        assert cli.main(["report", "--scenario", str(path), "--format", fmt, "--out", str(tmp_path / fmt)]) == 0
        out[fmt] = (tmp_path / fmt).read_text(encoding="utf-8")
    assert "skipped" in out["text"]
    assert render_text(json.loads(out["json"])) == out["text"]


@pytest.mark.parametrize("command", ["paradoxes", "observables", "report"])
def test_no_contextual_pure_state_is_stated_with_its_reason(tmp_path, command):
    # one orthonormal basis: the search finds no state, so there is nothing to derive
    path = tmp_path / "basis.scenario"
    path.write_text("scenario basis dim 3 field rational\na: 1,0,0\nb: 0,1,0\nc: 0,0,1\n", encoding="utf-8")
    out = {}
    for fmt in ("text", "json"):
        assert cli.main([command, "--scenario", str(path), "--format", fmt, "--out", str(tmp_path / fmt)]) == 0
        out[fmt] = (tmp_path / fmt).read_text(encoding="utf-8")
    reason = "no logically contextual pure state on 'basis'"
    assert json.loads(out["json"])["skipped"] == [reason]
    if command == "report":
        assert f"paradoxes: none ({reason})" in out["text"].splitlines()
    else:
        assert out["text"] == f"{command}: none ({reason})\n"
    assert render_text(json.loads(out["json"])) == out["text"]


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
    """Wrap ``function`` wherever a ctxkit module binds it; the list grows by one per call, by its positional arguments."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
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
    # 4 contextual states, each derived once; the crosscheck derives none
    assert len(derivations) == 4


def test_report_scans_the_flats_once(monkeypatch, tmp_path):
    # the mixed analysis reads its blocking flats from the search's undetermined families
    scans = count_calls(monkeypatch, ctxkit.contextuality._blocking_flats)
    assert cli.main(["report", "--scenario", "yu-oh", "--out", str(tmp_path / "out")]) == 0
    assert len(scans) == 1


def test_crosscheck_derives_no_paradoxes(monkeypatch, tmp_path):
    derivations = count_calls(monkeypatch, ctxkit.hardy.derive_paradoxes)
    argv = ["observables", "--scenario", "yu-oh", "--state", "1,1,1", "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 0
    # the command derives its own state once; the crosscheck replays the reference rows instead
    assert len(derivations) == 1


def test_witness_observables_make_no_rank_test(monkeypatch, yu_oh, yu_oh_assignments):
    # gram_schmidt rejects a dependent triple itself, so the construction ranks nothing
    paradoxes = [
        p
        for coords in ((1, 1, 1), (-1, 1, 1), (1, -1, 1), (1, 1, -1))
        for p in derive_paradoxes(yu_oh, QuantumState.pure(vec(*coords)), yu_oh_assignments).paradoxes
    ]
    ranks = count_calls(monkeypatch, ctxkit.exact.rank)
    observables = [ctxkit.hardy.build_witness_observable(yu_oh, p) for p in paradoxes]
    assert len(observables) == 12
    assert len(ranks) == 0


@pytest.mark.parametrize("command, models", [("check", 2), ("paradoxes", 1)])
def test_command_computes_the_model_once_per_consumer(monkeypatch, tmp_path, command, models):
    # check: the verdict and the independent oracle; paradoxes: the derivation
    computed = count_calls(monkeypatch, ctxkit.contextuality.possibilistic_model)
    argv = [command, "--scenario", "yu-oh", "--state", "1,1,1", "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 0
    assert len(computed) == models


def test_check_makes_one_born_pass(monkeypatch, tmp_path):
    # the verdict and the oracle share the model kept on the state: one packed pass over the rays of yu-oh,
    # and no orthogonality test of a single ray once the scenario, whose edges are such tests, is loaded
    scenario = load_bundled("yu-oh")
    monkeypatch.setattr(cli, "_load_scenario", lambda path: scenario)
    passes = count_calls(monkeypatch, ctxkit.scenario._packed_rays)
    tests = count_calls(monkeypatch, ctxkit.exact.orthogonal)
    argv = ["check", "--scenario", "yu-oh", "--state", "1,1,1", "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 0
    assert len(passes) == 1 and len(tests) == 0


def test_paradoxes_read_their_sps_off_the_one_born_pass(monkeypatch, tmp_path):
    # the derivation reads each witness's SP from the slots of the model's packed pass: no per-witness Born probability
    scenario = load_bundled("yu-oh")
    monkeypatch.setattr(cli, "_load_scenario", lambda path: scenario)
    passes = count_calls(monkeypatch, ctxkit.scenario._packed_rays)
    overlaps = count_calls(monkeypatch, ctxkit.exact.overlap)
    expectations = count_calls(monkeypatch, ctxkit.exact.expectation)
    argv = ["paradoxes", "--scenario", "yu-oh", "--state", "1,1,1", "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 0
    assert "SP=1/9" in (tmp_path / "out").read_text(encoding="utf-8")
    assert len(passes) == 1 and len(overlaps) == 0 and len(expectations) == 0


def test_mixed_analysis_ranks_each_selection_once(monkeypatch, yu_oh, yu_oh_assignments, yu_oh_search):
    # yu-oh's 108 triples pick 71 distinct selections, each ranked by one call
    ranks = count_calls(monkeypatch, ctxkit.exact.rank)
    assert len(ctxkit.contextuality.analyze_mixed_states(yu_oh, yu_oh_assignments, yu_oh_search).triples) == 108
    assert len(ranks) == 71


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


def test_every_option_default_is_the_documented_value(tmp_path, capsys):
    def output(*argv):
        assert cli.main([*argv, "--out", str(tmp_path / "out")]) == 0
        return (tmp_path / "out").read_bytes()

    simulate = ("simulate", "--scenario", "yu-oh", "--state", "1,1,1", "--witness", "vA")
    assert output(*simulate) == output(*simulate, "--shots", "100000", "--seed", "0")
    observables = ("observables", "--scenario", "yu-oh", "--state", "1,1,1")
    assert output(*observables) == output(*observables, "--eigenvalues", "1,2,3")
    assert json.loads(output("report", "--scenario", "yu-oh", "--format", "json"))["seed"] == 0
    assert cli.main(["report", "--scenario", "yu-oh", "--seed", "-1"]) == 3
    assert capsys.readouterr().err == "ctxkit: error: seed must fit in 64 unsigned bits\n"


def test_options_are_accepted_only_where_they_act():
    assert run_cli("contexts", "--scenario", "yu-oh", "--shots", "5").returncode == 2
    assert run_cli("check", "--scenario", "yu-oh", "--state", "1,1,1", "--seed", "1").returncode == 2
    assert run_cli("states", "--scenario", "yu-oh", "--eigenvalues", "1,2,3").returncode == 2
    assert run_cli("report", "--scenario", "yu-oh", "--shots", "5").returncode == 2
    result = run_cli("report", "--scenario", "yu-oh", "--seed", "0")
    assert result.returncode == 0, result.stderr
    assert "paradoxes (12):" in result.stdout


def test_usage_error_exits_2():
    result = run_cli("frobnicate", "--scenario", "yu-oh")
    assert result.returncode == 2


def test_help_documents_exit_codes():
    result = run_cli("--help")
    assert result.returncode == 0
    assert "exit codes" in result.stdout
    assert "unknown ray label" in result.stdout
