"""Numerical laboratory for linear-quadratic optimal control and the turnpike property.

The package solves finite- and infinite-horizon linear-quadratic tracking
problems on matrix system triples (A, B, C), solves the associated
stationary optimization problem and Riccati equations, and verifies, as
executable checks, the identities that connect them: the stationary KKT
system, the state-adjoint Riccati relations, the semigroup propagation of
the turnpike deviation, the integration-by-parts duality identity, the
pre-Cauchy-Schwarz energy identity, and the exponential turnpike estimate
itself, including its behavior under Yosida smoothing of the control
operator.
"""

from .errors import (
    ConfigError,
    ConvergenceError,
    DimensionError,
    GridMismatchError,
    IntegrationError,
    LqTurnpikeError,
    NonFiniteError,
    NotStabilizableError,
    ProblemSizeError,
    ResolventError,
    TruncationError,
    UndefinedRateError,
    UniquenessError,
)
from .lq import (
    LqProblem,
    Trajectory,
    adjoint_from_control,
    cost,
    duality_residual,
    simulate_forward,
    solve_infinite_horizon,
    solve_riccati_sweep,
    solve_transcription,
)
from .operators import (
    HypothesisReport,
    LtiSystem,
    approx_control_operator,
    check_hypotheses,
    make_system,
    observability_gramian,
    semigroup,
    yosida,
)
from .riccati import (
    AreSolution,
    DreSolution,
    solve_are,
    solve_dre,
    value_function_check,
)
from .stationary import (
    StationaryTriple,
    solve_stationary,
    solve_stationary_approx,
    stationary_convergence_study,
)
from .turnpike import (
    TurnpikeReport,
    energy_diagnostics,
    fit_decay_rate,
    h_trajectory,
    propagation_residual,
    verify_turnpike,
    yosida_dynamic_study,
)
from .scenarios import (
    ExperimentConfig,
    heat_1d,
    load_config,
    random_stable,
    scalar_example,
)

__version__ = "0.1.0"
