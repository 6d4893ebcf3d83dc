"""Risk-averse equilibria of routing games with uncertain travel times:
CVaR estimation, variational-inequality and complementarity solvers,
sample-complexity constants, and Monte Carlo convergence experiments."""

from .bounds import (
    BoundReport,
    covering_number_flow_polytope,
    covering_number_simplex,
    exponential_bound_general,
    exponential_bound_routing,
    exponential_bound_separable,
    flow_polytope_cover,
    pointwise_deviation_bound,
    simplex_lattice_cover,
)
from .cvar import (
    CvarEstimate,
    RiskLevel,
    SampleBatch,
    cvar_uniform_interval,
    empirical_cvar,
    empirical_cvar_lp,
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
    SimplexProduct,
    ViSolution,
    extragradient_solve,
    natural_residual,
    spectral_norm,
)

__version__ = "0.1.0"
