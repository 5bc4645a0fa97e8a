"""Probability-amplitude mechanics of a coupled spin-1/2 pair.

The package builds the generalized singlet and triplet states of two
spin-1/2 systems referred to an arbitrary quantization axis, the matching
observable operators for dichotomic measurements along arbitrary directions,
and the joint outcome statistics connecting the two, with every quantity
assembled from closed-form direction-change amplitudes.
"""

__version__ = "0.1.0"

from .directions import Direction, Z_AXIS, angle_between, unit_vector
from .kernels import (
    B_INDEX_ORDER,
    MINUS,
    PLUS,
    CompoundLabel,
    SpinHalfLabel,
    chi,
    clebsch_gordan_half_half,
    xi_half,
    zeta_spin1,
)
from .states import (
    StateAssembly,
    StateTerm,
    assemble_state,
    gram_matrix,
    reduce_axis_aligned,
)
from .operators import (
    SPIN_PROJECTION_VALUES,
    MeasurementSpec,
    OutcomeValues,
    operator_pair,
    r_matrix,
)
from .expectation import (
    ExpectationReport,
    InternalConsistencyError,
    amplitude_psi,
    chsh_value,
    expectation_matrix,
    expectation_oracle,
    outcome_probabilities,
    singlet_expectation,
    verify_basis_invariance,
)
from .verify import CheckResult, DEFAULT_TOLERANCES, run_verification

__all__ = [
    "__version__",
    "Direction",
    "Z_AXIS",
    "angle_between",
    "unit_vector",
    "B_INDEX_ORDER",
    "PLUS",
    "MINUS",
    "SpinHalfLabel",
    "CompoundLabel",
    "xi_half",
    "zeta_spin1",
    "clebsch_gordan_half_half",
    "chi",
    "StateTerm",
    "StateAssembly",
    "assemble_state",
    "reduce_axis_aligned",
    "gram_matrix",
    "OutcomeValues",
    "SPIN_PROJECTION_VALUES",
    "MeasurementSpec",
    "r_matrix",
    "operator_pair",
    "ExpectationReport",
    "InternalConsistencyError",
    "amplitude_psi",
    "outcome_probabilities",
    "expectation_oracle",
    "expectation_matrix",
    "verify_basis_invariance",
    "singlet_expectation",
    "chsh_value",
    "CheckResult",
    "DEFAULT_TOLERANCES",
    "run_verification",
]
