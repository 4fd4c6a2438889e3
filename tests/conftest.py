from __future__ import annotations

import pytest

from ctxkit import enumerate_assignments, enumerate_contexts, find_contextual_pure_states, load_bundled


@pytest.fixture(scope="session")
def yu_oh():
    scenario = load_bundled("yu-oh")
    enumerate_contexts(scenario)
    return scenario


@pytest.fixture(scope="session")
def yu_oh_assignments(yu_oh):
    return enumerate_assignments(yu_oh)


@pytest.fixture(scope="session")
def yu_oh_search(yu_oh, yu_oh_assignments):
    return find_contextual_pure_states(yu_oh, yu_oh_assignments)
