"""The value records against their dataclass twins, and what a CLI process imports."""

from __future__ import annotations

import copy
import dataclasses
import inspect
import pickle
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxkit import ExactMatrix, ExactScalar, ExactVector, KSAssignment, Scenario
from ctxkit.exact import _Record

import oracles

RECORDS = list(oracles.RECORD_FIELDS)

rationals = st.fractions(min_value=-2, max_value=2, max_denominator=3)
# small domains, so that two draws are often equal
values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 2),
    rationals,
    st.text("ab", max_size=2),
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
)


def _matrix_args(rows: int, cols: int):
    pairs = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
    return st.tuples(
        st.just(rows), st.just(cols), st.integers(1, 4), st.lists(pairs, min_size=rows * cols, max_size=rows * cols)
    )


def _scenario_args(n: int):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return st.tuples(
        st.text("ab", max_size=2),
        st.integers(2, 3),
        st.sampled_from(["rational", "gaussian"]),
        st.just(tuple(f"r{i}" for i in range(n))),
        st.frozensets(st.sampled_from(pairs)) if pairs else st.just(frozenset()),
        st.sampled_from([None, ()]),
        st.just(()),
    )


# constructor arguments of the records whose constructors check or normalise them
ARGS = {
    ExactScalar: st.tuples(rationals | st.integers(-2, 2), rationals | st.integers(-2, 2)),
    ExactVector: st.tuples(st.lists(st.builds(ExactScalar, rationals, rationals), min_size=2, max_size=3)),
    ExactMatrix: st.tuples(st.integers(1, 2), st.integers(1, 2)).flatmap(lambda shape: _matrix_args(*shape)),
    KSAssignment: st.tuples(st.lists(st.integers(0, 1), max_size=4).map(tuple)),
    Scenario: st.integers(0, 3).flatmap(_scenario_args),
}


def _arguments(record, twin):
    return ARGS.get(record, st.tuples(*[values for f in dataclasses.fields(twin) if f.init]))


def _twin_of(twin, record_value):
    """The twin holding the record's fields, as its constructor left them."""
    return twin(*(getattr(record_value, f.name) for f in dataclasses.fields(twin) if f.init))


def _parameters(callable_) -> list[tuple]:
    return [(p.name, p.kind, p.default) for p in inspect.signature(callable_).parameters.values()]


def test_every_record_has_a_dataclass_twin():
    # a record missing from RECORD_FIELDS would skip the twin test below
    import ctxkit.cli  # noqa: F401  (loads every module that defines records)

    found, todo = set(), [_Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub.__module__.startswith("ctxkit."):
                found.add(sub)
    assert found == set(RECORDS)


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: r.__name__)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_record_behaves_as_its_dataclass_twin(record, data):
    twin = oracles.dataclass_twin(record)
    strategy = _arguments(record, twin)
    first = data.draw(strategy)
    second = data.draw(st.one_of(st.just(first), strategy))
    a, b = record(*first), record(*second)
    ta, tb = _twin_of(twin, a), _twin_of(twin, b)

    assert (a == b) == (ta == tb) and (a != b) == (ta != tb)
    assert a.__eq__(ta) is NotImplemented and a != ta
    assert repr(a) == repr(ta)
    if record is Scenario:
        for value in (a, ta):
            with pytest.raises(TypeError):
                hash(value)
    else:
        assert hash(a) == hash(ta)

    # positional, keyword and default construction
    parameters = _parameters(record)
    assert parameters == _parameters(twin)
    assert record(**{name: value for (name, _, _), value in zip(parameters, first)}) == a
    defaults = [default for _, _, default in parameters if default is not inspect.Parameter.empty]
    required = len(parameters) - len(defaults)
    assert record(*first[:required]) == record(*first[:required], *defaults)
    # a missing required argument, one too many positional arguments and an unknown keyword
    assert len(first) == len(parameters)
    for args, kwargs in ((first[: required - 1], {}), ((*first, None), {}), (first, {"not_a_field": None})):
        messages = []
        for make in (record, twin):
            with pytest.raises(TypeError) as caught:
                make(*args, **kwargs)
            messages.append(str(caught.value))
        assert messages[0] == messages[1]

    if record is Scenario:
        a.contexts = ()
        ta.contexts = ()
        assert a.contexts == ta.contexts == ()
    else:
        for name in [f.name for f in dataclasses.fields(twin)] + ["not_a_field"]:
            for value in (a, ta):
                with pytest.raises(AttributeError):
                    setattr(value, name, None)
                with pytest.raises(AttributeError):
                    delattr(value, name)

    assert copy.copy(b) == b and copy.deepcopy(b) == b
    assert pickle.loads(pickle.dumps(b)) == b


@pytest.mark.parametrize("fmt, loaded", [("text", []), ("json", ["json"])])
def test_cli_process_loads_neither_dataclasses_nor_inspect(fmt, loaded):
    # pytest itself loads dataclasses, so the modules are read in a fresh interpreter; -S keeps site's out
    code = (
        "import sys, ctxkit.cli; ctxkit.cli.main(sys.argv[1:]); "
        "banned = {'dataclasses', 'inspect', 'json', 'pathlib', 'typing'}; "
        "print(*sorted(banned & set(sys.modules)), file=sys.stderr)"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", code, "report", "--scenario", "yu-oh", "--format", fmt],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr.split() == loaded
