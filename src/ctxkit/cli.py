"""Command line front end.

Every command loads a scenario (a file path or the name of a bundled
scenario such as ``yu-oh``) and writes a deterministic text or JSON
report to stdout or ``--out``.  Each run builds one cached analysis of
the scenario (:class:`_Analysis`) that reads the parsed arguments, with
the defaults :func:`_build_parser` gives; its pipeline stages are
computed on first use and then kept, so no stage runs twice in one
command.  Every command turns that analysis into one document
(:func:`_command`); the JSON output is the document and the text output
is rendered from it.

Exit codes (also in ``--help``): 0 success, 2 parse/usage error, 3
validation error, 4 unknown ray label, 5 I/O error, 1 anything else.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cached_property
from fractions import Fraction

from . import report as rp
from .assignments import GlobalEvents, enumerate_assignments
from .contextuality import (
    MixedAnalysisReport,
    PureStateSearch,
    QuantumState,
    analyze_mixed_states,
    check_witnesses_basis_free,
    find_contextual_pure_states,
    is_logically_contextual,
    noncontextuality_oracle,
    parse_density,
    parse_state,
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
    _rays,
    _read_text,
    bundled_scenario_names,
    check_distinct_complements,
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctxkit",
        description="Exact contexts, assignments, contextuality verdicts and Hardy-type paradoxes for finite ray sets.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    # report has no --state option: it derives the paradoxes of every contextual pure state
    parser.set_defaults(state=None, density=None)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (options, _) in _COMMANDS.items():
        p = sub.add_parser(name, epilog=_EPILOG, formatter_class=argparse.RawDescriptionHelpFormatter)
        p.add_argument("--scenario", required=True, help="scenario file path or bundled name (e.g. yu-oh)")
        p.add_argument("--format", choices=("text", "json"), default="text", dest="fmt")
        p.add_argument("--out", default=None, help="write the report to this file instead of stdout")
        if "state" in options:
            p.add_argument("--state", default=None, help='pure state coordinates, e.g. "1,1,1"')
            p.add_argument("--density", default=None, help="density matrix file (dim lines of dim literals)")
        if "eigenvalues" in options:
            p.add_argument(
                "--eigenvalues",
                type=_parse_eigenvalues,
                default="1,2,3",
                help="three distinct rationals, e.g. 1,2,3 (write --eigenvalues=-1,0,1 for a leading minus)",
            )
        if "witness" in options:
            p.add_argument("--witness", required=True, help="witness ray label selecting the paradox")
        if "seed" in options:
            p.add_argument("--seed", type=int, default=0, help="64-bit unsigned PRNG seed (default 0)")
        if "shots" in options:
            p.add_argument("--shots", type=int, default=100_000, help="measurement repetitions (default 100000)")
    return parser


def _parse_eigenvalues(text: str) -> tuple[Fraction, Fraction, Fraction]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise ValidationError("exactly three eigenvalues are required")
    eigs = tuple(parse_scalar(p, field="rational").as_fraction() for p in parts)
    if len(set(eigs)) != 3:
        raise ValidationError("eigenvalues must be distinct")
    return eigs  # type: ignore[return-value]


def _load_scenario(path: str) -> Scenario:
    if os.path.exists(path):
        return load_scenario_path(path)
    if path in bundled_scenario_names():
        return load_bundled(path)
    raise FileNotFoundError(f"scenario file not found: {path}")


class _Analysis:
    """The pipeline of one run on its parsed arguments; each stage is computed on first use, then kept."""

    def __init__(self, args: argparse.Namespace, scenario: Scenario):
        self.args = args
        self.scenario = scenario

    @cached_property
    def state(self) -> QuantumState:
        args, scenario = self.args, self.scenario
        if args.state is not None and args.density is not None:
            raise ValidationError("--state and --density are mutually exclusive")
        if args.state is not None:
            return parse_state(args.state, scenario.dim, scenario.field)
        if args.density is not None:
            return parse_density(_read_text(args.density), scenario.dim, scenario.field)
        raise ValidationError("a state is required: pass --state or --density")

    @cached_property
    def complement_check(self) -> ComplementCheck | None:
        return check_distinct_complements(self.scenario) if self.scenario.dim == 3 else None

    @cached_property
    def assignments(self) -> GlobalEvents:
        return enumerate_assignments(self.scenario)

    @cached_property
    def search(self) -> PureStateSearch:
        return find_contextual_pure_states(self.scenario, self.assignments)

    @cached_property
    def mixed(self) -> MixedAnalysisReport:
        return analyze_mixed_states(self.scenario, self.assignments, self.search)

    @cached_property
    def derivations(self) -> list[ParadoxDerivation]:
        """One derivation for the given state, or one per contextual pure state."""
        if self.args.state is None and self.args.density is None:
            states = [QuantumState.pure(w.state) for w in self.search.states]
        else:
            states = [self.state]
        return [derive_paradoxes(self.scenario, s, self.assignments) for s in states]

    @cached_property
    def numbered(self) -> list[tuple[int, HardyParadox]]:
        return list(enumerate((p for d in self.derivations for p in d.paradoxes), start=1))

    @cached_property
    def skipped(self) -> list[str]:
        if not self.derivations:  # no state given, and the search found none
            return [f"no logically contextual pure state on {self.scenario.name!r}"]
        return [d.reason for d in self.derivations if d.reason is not None]

    @cached_property
    def observables(
        self,
    ) -> list[tuple[int, HardyParadox, WitnessObservable | None, ObservableVerification | str]]:
        """Each numbered paradox with its observable and verification, or ``None`` and the reason.

        A paradox of a shape the construction does not cover is skipped on
        its own; the other observables are still built and verified.
        """
        out = []
        for idx, paradox in self.numbered:
            try:
                observable = build_witness_observable(self.scenario, paradox, self.args.eigenvalues)
            except ValidationError as exc:
                out.append((idx, paradox, None, str(exc)))
                continue
            out.append((idx, paradox, observable, verify_observable(paradox, observable)))
        return out

    @cached_property
    def crosscheck(self) -> ReferenceCrossCheck | None:
        """The reference crosscheck, or None where the scenario has no reference rows."""
        try:
            return crosscheck_reference_observables(self.scenario, self.assignments)
        except (ValidationError, UnknownLabelError):
            return None


def run(args: argparse.Namespace) -> int:
    """Execute the command of the parsed arguments; returns the process exit status."""
    scenario = _load_scenario(args.scenario)
    _, handler = _COMMANDS[args.command]
    output = handler(args, scenario)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(output)
    else:
        sys.stdout.write(output)
    return 0


# command name -> (its options beyond --scenario, --format and --out; its handler)
_COMMANDS: dict[str, tuple] = {}


def _command(*options: str):
    """Register ``_cmd_NAME``, which gives its document's sections, as the command NAME.

    The registered handler ``(args, scenario) -> output`` builds the
    document, the common schema/command/scenario envelope plus the
    sections, and returns it as JSON or as its text rendering.
    """

    def register(sections):
        def handler(args: argparse.Namespace, scenario: Scenario) -> str:
            document = {
                "schema": rp.SCHEMA,
                "command": args.command,
                "scenario": rp.scenario_json(scenario),
                **sections(_Analysis(args, scenario)),
            }
            return rp.render_json(document) if args.fmt == "json" else rp.render_text(document)

        _COMMANDS[sections.__name__.removeprefix("_cmd_")] = (options, handler)
        return handler

    return register


@_command()
def _cmd_contexts(a: _Analysis) -> dict:
    return {"contexts": rp.contexts_json(a.scenario, a.complement_check)}


@_command()
def _cmd_assignments(a: _Analysis) -> dict:
    return {"assignments": rp.assignments_json(a.scenario, a.assignments)}


@_command()
def _cmd_states(a: _Analysis) -> dict:
    basis_free = check_witnesses_basis_free(a.scenario, a.search)
    return {"search": {**rp.states_json(a.scenario, a.search), "witnesses_basis_free": basis_free}}


@_command("state")
def _cmd_check(a: _Analysis) -> dict:
    verdict = is_logically_contextual(a.scenario, a.state, a.assignments)
    oracle = noncontextuality_oracle(a.scenario, a.state, a.assignments)
    return {"verdict": rp.verdict_json(a.scenario, a.assignments, a.state, verdict, oracle)}


@_command("state")
def _cmd_paradoxes(a: _Analysis) -> dict:
    return {"paradoxes": [rp.paradox_json(a.scenario, i, p) for i, p in a.numbered], "skipped": a.skipped}


@_command("state", "eigenvalues")
def _cmd_observables(a: _Analysis) -> dict:
    return rp.observables_json(a.scenario, a.skipped, a.observables, a.crosscheck)


@_command("state", "eigenvalues", "witness", "seed", "shots")
def _cmd_simulate(a: _Analysis) -> dict:
    scenario, args, state = a.scenario, a.args, a.state
    witness_idx = scenario.ray_index(args.witness)
    (derivation,) = a.derivations
    paradox = next((p for p in derivation.paradoxes if p.witness == witness_idx), None)
    if paradox is None:
        detail = derivation.reason or f"no paradox with witness {args.witness!r} for this state"
        raise ValidationError(detail)
    observable = build_witness_observable(scenario, paradox, args.eigenvalues)
    witness_proj = rank1_projector(scenario.rays[witness_idx].vector)
    rest = ExactMatrix.identity(scenario.dim) - witness_proj
    witness_sim = simulate_measurement(state, [witness_proj, rest], args.shots, args.seed)
    observable_sim = simulate_measurement(state, list(observable.projectors), args.shots, args.seed)
    outcome_names = [f"a{i}={e}" for i, e in enumerate(observable.eigenvalues, start=1)]
    return {
        "paradox": rp.paradox_json(scenario, 1, paradox),
        "witness_measurement": rp.simulation_json([args.witness, "complement"], witness_sim),
        "observable_measurement": rp.simulation_json(outcome_names, observable_sim),
    }


@_command("eigenvalues", "seed")
def _cmd_report(a: _Analysis) -> dict:
    scenario = a.scenario
    observables = rp.observables_json(scenario, a.skipped, a.observables, a.crosscheck)
    if not observables["skipped"]:
        del observables["skipped"]  # absent when nothing is skipped, as in every yu-oh report
    return {
        "seed": a.args.seed,
        "contexts": rp.contexts_json(scenario, a.complement_check),
        "assignments": rp.assignments_json(scenario, a.assignments),
        "global_events": rp.global_events_json(scenario, a.assignments, _rays(scenario.free)),
        "states": rp.states_json(scenario, a.search),
        "witnesses_basis_free": check_witnesses_basis_free(scenario, a.search),
        "mixed_analysis": rp.mixed_json(scenario, a.mixed),
        "paradoxes": [rp.paradox_json(scenario, i, p) for i, p in a.numbered],
        **observables,
    }


def main(argv: list[str] | None = None) -> int:
    try:
        sys.stdout.reconfigure(encoding="utf-8")
    except AttributeError:
        pass
    try:
        # argparse parses --eigenvalues, so an eigenvalue error maps to its exit code here
        args = _build_parser().parse_args(argv)
        if "seed" in args and not 0 <= args.seed <= (1 << 64) - 1:
            raise ValidationError("seed must fit in 64 unsigned bits")
        if "shots" in args and args.shots < 0:
            raise ValidationError("shots must be non-negative")
        return run(args)
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
