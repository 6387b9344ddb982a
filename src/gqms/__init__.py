"""Gaussian quantum Markov semigroup toolkit.

Builds GKLS generators from Gaussian matrix data on truncated Fock
spaces, constructs and certifies the Kossakowski matrix, and probes
irreducibility and positivity improvement numerically at desk scale.
"""

__version__ = "0.1.0"

from .fock import (
    BoundaryContaminationError,
    DimensionCapError,
    EmptyInteriorError,
    LadderOperators,
    TruncatedFockSpace,
    build_ladders,
    build_space,
    coherent_vector,
    interior_projector,
)
from .model import (
    BogoliubovPair,
    GaussianModel,
    KossakowskiMatrix,
    TwoBosonParams,
    bogoliubov_transform,
    build_kossakowski,
    check_minimality,
    generate_bogoliubov,
    mix_kraus,
    quadratic_free_model,
    two_boson_model,
)
from .generator import (
    Superoperator,
    TruncatedOperators,
    build_lindbladian,
    build_operators,
    dissipation_quadratic_identity,
)
from .evolution import (
    DensityMatrix,
    EvolutionResult,
    IntegrationError,
    evolve_density,
    evolve_vector,
)
from .commutators import (
    AdjointActionMatrix,
    LinearForm,
    adjoint_action,
    iterated_commutator,
    support_span,
    validate_action_oracle,
)
from .diagnostics import (
    BoundReport,
    DomainComparisonReport,
    InvariantSubspaceReport,
    SampleStatistics,
    SectorReport,
    SupportReport,
    domain_comparison_constants,
    invariant_subspace_search,
    number_operator_bound,
    positivity_improving_probe,
    sample_statistics,
    sector_estimate,
)
from .finite_dim import (
    FiniteGKLSModel,
    build_fd_generators,
    fd_derivative_check,
    fd_positivity_probe,
    gellmann_basis,
    initial_derivative,
)
