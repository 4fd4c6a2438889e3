"""Command line front end.

Every command loads a scenario (a file path or the name of a bundled
scenario such as ``yu-oh``) and writes a deterministic text or JSON
report to stdout or ``--out``.  Each run builds one cached analysis of
the scenario (:class:`_Analysis`), whose pipeline stages are computed on
first use and then kept; every command is a view of that object, so no
stage runs twice in one command.

Exit codes (also in ``--help``): 0 success, 2 parse/usage error, 3
validation error, 4 unknown ray label, 5 I/O error, 1 anything else.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace
from functools import cached_property
from fractions import Fraction
from pathlib import Path

from . import report as rp
from .assignments import KSAssignment, enumerate_assignments
from .contextuality import (
    PureStateSearch,
    QuantumState,
    analyze_mixed_states,
    check_witnesses_basis_free,
    find_contextual_pure_states,
    is_logically_contextual,
    noncontextuality_oracle,
    parse_density,
    parse_state,
    possibilistic_model,
)
from .errors import CtxkitError, UnknownLabelError, ValidationError
from .exact import ExactMatrix, parse_scalar, rank1_projector
from .hardy import (
    HardyParadox,
    ObservableVerification,
    ParadoxDerivation,
    ReferenceCrossCheck,
    WitnessObservable,
    build_witness_observable,
    crosscheck_reference_observables,
    derive_paradoxes,
    verify_observable,
)
from .sampling import simulate_measurement
from .scenario import (
    ComplementCheck,
    Scenario,
    basis_membership,
    bundled_scenario_names,
    check_distinct_complements,
    enumerate_contexts,
    load_bundled,
    load_scenario_path,
)

_EPILOG = """\
exit codes:
  0  success
  2  parse or usage error
  3  validation error (zero vector, duplicate ray, invalid state, ...)
  4  unknown ray label
  5  I/O error (missing or unreadable file)
"""


@dataclass(frozen=True)
class RunConfig:
    """One CLI invocation, fully resolved."""

    command: str
    scenario_path: str
    state_spec: str | None = None
    density_path: str | None = None
    fmt: str = "text"
    seed: int = 0
    shots: int = 100_000
    out_path: str | None = None
    eigenvalues: tuple[Fraction, Fraction, Fraction] = (Fraction(1), Fraction(2), Fraction(3))
    witness: str | None = None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctxkit",
        description="Exact contexts, assignments, contextuality verdicts and Hardy-type paradoxes for finite ray sets.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, needs_state in (
        ("contexts", False),
        ("assignments", False),
        ("states", False),
        ("check", True),
        ("paradoxes", True),
        ("observables", True),
        ("simulate", True),
        ("report", False),
    ):
        p = sub.add_parser(name, epilog=_EPILOG, formatter_class=argparse.RawDescriptionHelpFormatter)
        p.add_argument("--scenario", required=True, help="scenario file path or bundled name (e.g. yu-oh)")
        p.add_argument("--format", choices=("text", "json"), default="text", dest="fmt")
        p.add_argument("--out", default=None, help="write the report to this file instead of stdout")
        p.add_argument("--seed", type=int, default=0, help="64-bit unsigned PRNG seed (default 0)")
        p.add_argument("--shots", type=int, default=100_000, help="measurement repetitions (default 100000)")
        p.add_argument(
            "--eigenvalues",
            default="1,2,3",
            help="three distinct rationals, e.g. 1,2,3 (write --eigenvalues=-1,0,1 for a leading minus)",
        )
        if needs_state:
            p.add_argument("--state", default=None, help='pure state coordinates, e.g. "1,1,1"')
            p.add_argument("--density", default=None, help="density matrix file (dim lines of dim literals)")
        if name == "simulate":
            p.add_argument("--witness", required=True, help="witness ray label selecting the paradox")
    return parser


def _parse_eigenvalues(text: str) -> tuple[Fraction, Fraction, Fraction]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise ValidationError("exactly three eigenvalues are required")
    eigs = tuple(parse_scalar(p, field="rational").as_fraction() for p in parts)
    if len(set(eigs)) != 3:
        raise ValidationError("eigenvalues must be distinct")
    return eigs  # type: ignore[return-value]


def _load_scenario(config: RunConfig) -> Scenario:
    path = Path(config.scenario_path)
    if path.exists():
        return load_scenario_path(path)
    if config.scenario_path in bundled_scenario_names():
        return load_bundled(config.scenario_path)
    raise FileNotFoundError(f"scenario file not found: {config.scenario_path}")


def _emit(config: RunConfig, text_output: str):
    if config.out_path is not None:
        Path(config.out_path).write_text(text_output, encoding="utf-8")
    else:
        sys.stdout.write(text_output)


def _text(*blocks: list[str]) -> str:
    """Text report: the blocks' lines, with one blank line between blocks."""
    return "\n\n".join("\n".join(block) for block in blocks) + "\n"


class _Analysis:
    """The pipeline of one run; each stage is computed on first use, then kept."""

    def __init__(self, config: RunConfig, scenario: Scenario):
        self.config = config
        self.scenario = scenario

    def json(self, **sections) -> str:
        """JSON report: the sections under the common schema/command/scenario envelope."""
        return rp.render_json(
            {
                "schema": rp.SCHEMA,
                "command": self.config.command,
                "scenario": rp.scenario_json(self.scenario),
                **sections,
            }
        )

    @cached_property
    def state(self) -> QuantumState:
        config, scenario = self.config, self.scenario
        if config.state_spec is not None and config.density_path is not None:
            raise ValidationError("--state and --density are mutually exclusive")
        if config.state_spec is not None:
            return parse_state(config.state_spec, scenario.dim, scenario.field)
        if config.density_path is not None:
            text = Path(config.density_path).read_text(encoding="utf-8")
            return parse_density(text, scenario.dim, scenario.field)
        raise ValidationError("a state is required: pass --state or --density")

    @cached_property
    def complement_check(self) -> ComplementCheck | None:
        enumerate_contexts(self.scenario)
        return check_distinct_complements(self.scenario) if self.scenario.dim == 3 else None

    @cached_property
    def assignments(self) -> list[KSAssignment]:
        return enumerate_assignments(self.scenario)

    @cached_property
    def search(self) -> PureStateSearch:
        return find_contextual_pure_states(self.scenario, self.assignments)

    @cached_property
    def derivations(self) -> list[ParadoxDerivation]:
        """One derivation for the given state, or one per contextual pure state."""
        if self.config.state_spec is None and self.config.density_path is None:
            states = [QuantumState.pure(w.state) for w in self.search.states]
        else:
            states = [self.state]
        return [derive_paradoxes(self.scenario, s, self.assignments) for s in states]

    @cached_property
    def numbered(self) -> list[tuple[int, HardyParadox]]:
        return list(enumerate((p for d in self.derivations for p in d.paradoxes), start=1))

    @cached_property
    def skipped(self) -> list[str]:
        return [d.reason for d in self.derivations if d.reason is not None]

    @property
    def none_reason(self) -> str | None:
        return "; ".join(self.skipped) if self.skipped and not self.numbered else None

    @cached_property
    def observables(self) -> list[tuple[int, HardyParadox, WitnessObservable, ObservableVerification]]:
        out = []
        for idx, paradox in self.numbered:
            observable = build_witness_observable(self.scenario, paradox, self.config.eigenvalues)
            out.append((idx, paradox, observable, verify_observable(paradox, observable)))
        return out

    @cached_property
    def crosscheck(self) -> ReferenceCrossCheck | None:
        """The reference crosscheck, or None where the scenario has no reference rows."""
        try:
            return crosscheck_reference_observables(self.scenario, self.assignments)
        except (ValidationError, UnknownLabelError):
            return None

    def crosscheck_json(self) -> dict:
        if self.crosscheck is None:
            return {}
        return {"reference_crosscheck": rp.crosscheck_json(self.crosscheck)}


def run(config: RunConfig) -> int:
    """Execute one command; returns the process exit status."""
    scenario = _load_scenario(config)
    handler = {
        "contexts": _cmd_contexts,
        "assignments": _cmd_assignments,
        "states": _cmd_states,
        "check": _cmd_check,
        "paradoxes": _cmd_paradoxes,
        "observables": _cmd_observables,
        "simulate": _cmd_simulate,
        "report": _cmd_report,
    }[config.command]
    output = handler(config, scenario)
    _emit(config, output)
    return 0


def _cmd_contexts(config: RunConfig, scenario: Scenario) -> str:
    a = _Analysis(config, scenario)
    if config.fmt == "json":
        return a.json(contexts=rp.contexts_json(scenario, a.complement_check))
    return _text(rp.scenario_lines(scenario), rp.contexts_lines(scenario, a.complement_check))


def _cmd_assignments(config: RunConfig, scenario: Scenario) -> str:
    a = _Analysis(config, scenario)
    if config.fmt == "json":
        return a.json(assignments=rp.assignments_json(scenario, a.assignments))
    return _text(rp.assignments_lines(scenario, a.assignments))


def _cmd_states(config: RunConfig, scenario: Scenario) -> str:
    a = _Analysis(config, scenario)
    basis_free = check_witnesses_basis_free(scenario, a.search)
    if config.fmt == "json":
        return a.json(search={**rp.states_json(scenario, a.search), "witnesses_basis_free": basis_free})
    basis_free_line = f"all witnesses basis-free: {'yes' if basis_free else 'NO'}"
    return _text(rp.states_lines(scenario, a.search) + [basis_free_line])


def _cmd_check(config: RunConfig, scenario: Scenario) -> str:
    a = _Analysis(config, scenario)
    state = a.state
    verdict = is_logically_contextual(scenario, state, a.assignments)
    oracle = noncontextuality_oracle(scenario, state, a.assignments)
    model = possibilistic_model(scenario, state)
    if config.fmt == "json":
        obj = rp.verdict_json(scenario, state, verdict, oracle)
        obj["model"] = {scenario.rays[i].label: v for i, v in enumerate(model.values)}
        return a.json(verdict=obj)
    return _text(rp.model_lines(scenario, model) + rp.verdict_lines(scenario, state, verdict, oracle))


def _cmd_paradoxes(config: RunConfig, scenario: Scenario) -> str:
    a = _Analysis(config, scenario)
    if config.fmt == "json":
        return a.json(
            paradoxes=[rp.paradox_json(scenario, i, p) for i, p in a.numbered],
            skipped=a.skipped,
        )
    return _text(rp.paradox_lines(scenario, a.numbered, a.none_reason))


def _cmd_observables(config: RunConfig, scenario: Scenario) -> str:
    a = _Analysis(config, scenario)
    if config.fmt == "json":
        return a.json(
            observables=[rp.observable_json(scenario, *o) for o in a.observables],
            skipped=a.skipped,
            **a.crosscheck_json(),
        )
    lines = [] if a.none_reason is None else [f"observables: none ({a.none_reason})"]
    for o in a.observables:
        lines += rp.observable_lines(scenario, *o)
    if a.crosscheck is not None:
        lines += ["", *rp.crosscheck_lines(a.crosscheck)]
    return _text(lines)


def _cmd_simulate(config: RunConfig, scenario: Scenario) -> str:
    a = _Analysis(config, scenario)
    state = a.state
    witness_idx = scenario.ray_index(config.witness)
    (derivation,) = a.derivations
    paradox = next((p for p in derivation.paradoxes if p.witness == witness_idx), None)
    if paradox is None:
        detail = derivation.reason or f"no paradox with witness {config.witness!r} for this state"
        raise ValidationError(detail)
    observable = build_witness_observable(scenario, paradox, config.eigenvalues)
    witness_proj = rank1_projector(scenario.rays[witness_idx].vector)
    rest = ExactMatrix.identity(scenario.dim) - witness_proj
    witness_sim = simulate_measurement(state, [witness_proj, rest], config.shots, config.seed)
    observable_sim = simulate_measurement(state, list(observable.projectors), config.shots, config.seed)
    witness_names = [config.witness, "complement"]
    outcome_names = [f"a{i}={rp.fraction_str(e)}" for i, e in enumerate(observable.eigenvalues, start=1)]
    if config.fmt == "json":
        return a.json(
            paradox=rp.paradox_json(scenario, 1, paradox),
            witness_measurement=rp.simulation_json(witness_names, witness_sim),
            observable_measurement=rp.simulation_json(outcome_names, observable_sim),
        )
    return _text(
        [f"paradox: {rp.paradox_header(scenario, paradox)}"]
        + rp.simulation_lines("witness-event measurement", witness_names, witness_sim)
        + rp.simulation_lines("witness-observable measurement", outcome_names, observable_sim)
    )


def _cmd_report(config: RunConfig, scenario: Scenario) -> str:
    a = _Analysis(config, scenario)
    mixed = analyze_mixed_states(scenario, a.assignments)
    basis_free_rays = [i for i, count in enumerate(basis_membership(scenario)) if count == 0]
    if config.fmt == "json":
        return a.json(
            seed=config.seed,
            contexts=rp.contexts_json(scenario, a.complement_check),
            assignments=rp.assignments_json(scenario, a.assignments),
            global_events=rp.global_events_json(scenario, a.assignments, basis_free_rays),
            states=rp.states_json(scenario, a.search),
            witnesses_basis_free=check_witnesses_basis_free(scenario, a.search),
            mixed_analysis=rp.mixed_json(scenario, mixed),
            paradoxes=[rp.paradox_json(scenario, i, p) for i, p in a.numbered],
            observables=[rp.observable_json(scenario, *o) for o in a.observables],
            **a.crosscheck_json(),
        )
    return _text(
        rp.scenario_lines(scenario),
        rp.contexts_lines(scenario, a.complement_check),
        rp.assignments_lines(scenario, a.assignments),
        rp.global_event_lines(scenario, a.assignments, basis_free_rays),
        rp.states_lines(scenario, a.search),
        rp.mixed_lines(scenario, mixed),
        rp.paradox_lines(scenario, a.numbered, a.none_reason),
        *(rp.observable_lines(scenario, *o) for o in a.observables),
        *([] if a.crosscheck is None else [rp.crosscheck_lines(a.crosscheck)]),
    )


def main(argv: list[str] | None = None) -> int:
    try:
        sys.stdout.reconfigure(encoding="utf-8")
    except AttributeError:
        pass
    parser = _build_parser()
    args = parser.parse_args(argv)
    config = RunConfig(
        command=args.command,
        scenario_path=args.scenario,
        state_spec=getattr(args, "state", None),
        density_path=getattr(args, "density", None),
        fmt=args.fmt,
        seed=args.seed,
        shots=args.shots,
        out_path=args.out,
        eigenvalues=(Fraction(1), Fraction(2), Fraction(3)),
        witness=getattr(args, "witness", None),
    )
    try:
        config = replace(config, eigenvalues=_parse_eigenvalues(args.eigenvalues))
        if config.seed < 0 or config.seed > (1 << 64) - 1:
            raise ValidationError("seed must fit in 64 unsigned bits")
        if config.shots < 0:
            raise ValidationError("shots must be non-negative")
        return run(config)
    except CtxkitError as exc:
        print(f"ctxkit: error: {exc}", file=sys.stderr)
        return exc.exit_code
    except BrokenPipeError:
        return 0
    except OSError as exc:
        print(f"ctxkit: error: {exc}", file=sys.stderr)
        return 5
    except Exception as exc:  # pragma: no cover - defensive
        print(f"ctxkit: internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
