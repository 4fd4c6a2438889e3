"""ctxkit: exact contextuality analysis for finite ray scenarios.

Enumerate contexts and Kochen-Specker assignments of a finite vector set,
decide logical contextuality of quantum states, exhaust the logically
contextual pure states, derive Hardy-type paradoxes with exact success
probabilities and build the single-observable witnesses, all in exact
Gaussian-rational arithmetic.
"""

from .assignments import (
    KSAssignment,
    enumerate_assignments,
    enumerate_assignments_by_basis_choices,
    events_containing,
    support_labels,
    verify_assignment,
)
from .contextuality import (
    ContextualityVerdict,
    MixedAnalysisReport,
    PossibilisticModel,
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
from .errors import (
    CtxkitError,
    DimensionMismatchError,
    InvalidDensityError,
    LinearDependenceError,
    ParseError,
    UnknownLabelError,
    ValidationError,
)
from .exact import (
    ExactMatrix,
    ExactScalar,
    ExactVector,
    canonical_ray,
    gram_schmidt,
    inner_product,
    mixture,
    nullspace,
    parse_scalar,
    parse_vector,
    rank,
    rank1_projector,
    vec,
)
from .hardy import (
    HardyParadox,
    ParadoxDerivation,
    ReferenceCrossCheck,
    WitnessObservable,
    build_witness_observable,
    crosscheck_reference_observables,
    derive_paradoxes,
    replay_contradiction,
    verify_observable,
)
from .sampling import SimulationResult, Xoshiro256StarStar, simulate_measurement
from .scenario import (
    ComplementCheck,
    Context,
    ContextKind,
    Ray,
    Scenario,
    check_distinct_complements,
    classify_rays,
    enumerate_contexts,
    load_bundled,
    load_scenario,
    load_scenario_path,
)

__version__ = "0.1.0"
