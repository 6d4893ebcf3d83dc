"""Risk-averse equilibria of routing games with uncertain travel times:
CVaR estimation, variational-inequality and complementarity solvers,
sample-complexity constants, and Monte Carlo convergence experiments."""

from .bounds import (
    BoundReport,
    covering_number_compact,
    covering_number_convex,
    covering_number_flow_polytope,
    covering_number_simplex,
    delta_strongly_monotone,
    exponential_bound_general,
    exponential_bound_routing,
    exponential_bound_separable,
    flow_polytope_cover,
    pointwise_deviation_bound,
    set_deviation,
    simplex_lattice_cover,
)
from .cvar import (
    CvarEstimate,
    DiscreteDistribution,
    RiskLevel,
    SampleBatch,
    cvar_discrete,
    cvar_uniform_interval,
    empirical_cvar,
    empirical_cvar_lp,
    optimizer_bounds,
)
from .harness import (
    ExperimentConfig,
    ExperimentResult,
    build_configured_game,
    compare_bounds,
    load_config,
    parse_config,
    routing_bound,
    run_experiment,
)
from .lcp import (
    AffineLcp,
    LcpRayTermination,
    LcpSolution,
    assemble_lcp,
    solve_lcp_lemke,
    solve_lcp_qp,
)
from .routing import (
    Network,
    OdPair,
    OdSpec,
    PathSet,
    RoutingGame,
    TntpParseError,
    build_game,
    builtin_network,
    enumerate_paths,
    load_tntp,
    parse_tntp,
    path_cost_field,
    sample_path_kappa,
    solve_cwe,
    true_path_kappa,
    wardrop_gap,
)
from .vi import (
    Box,
    MonotonicityReport,
    SimplexProduct,
    VectorField,
    ViSolution,
    affine_field,
    check_monotone,
    extragradient_solve,
    natural_residual,
    project_simplex,
    spectral_norm,
)

__version__ = "0.1.0"
