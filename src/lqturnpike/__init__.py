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
    InputError,
    IntegrationError,
    LqTurnpikeError,
    NonFiniteError,
    NotStabilizableError,
    ProblemSizeError,
    ResolventError,
    UndefinedRateError,
    UniquenessError,
)
from .lq import (
    LqProblem,
    Trajectory,
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
    check_hypotheses,
    make_system,
    observability_gramian,
    yosida,
    yosida_system,
)
from .riccati import (
    AreSolution,
    DreSolution,
    solve_are,
    solve_dre,
)
from .stationary import (
    StationaryTriple,
    solve_stationary,
    stationary_convergence_study,
)
from .turnpike import (
    EnergyReport,
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
    build_scenario,
    heat_1d,
    load_config,
    random_stable,
    scalar_example,
)

__version__ = "0.1.0"
