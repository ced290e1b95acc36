"""Submodular minimization under two-variable inequality constraints.

Exact solving for monotone constraint systems through closed-set reduction,
and a certified factor-2 approximation for general systems through the
plus/minus duplication relaxation, rounding, and 2-SAT feasibility.
"""

from .config import DEFAULT_CONFIG, SolverConfig
from .core import (
    Complement,
    ConcaveCardinality,
    Coverage,
    Embed,
    GraphCut,
    GroundSet,
    Modular,
    SubmodularOracle,
    Sum,
    embed_oracle,
    enumerate_box,
    make_family,
    reflect_complement,
    verify_monotone,
    verify_submodular,
)
from .errors import (
    ChainViolation,
    ConvergenceError,
    EnumerationCapExceeded,
    GuaranteeUnavailable,
    InfeasibleSystem,
    RoundUpViolation,
    SolverError,
    ValidationError,
)
from .sfm import (
    SetFunctionOracle,
    greedy_base_vertex,
    sfm_bruteforce,
    sfm_minnorm,
)
from .closure import (
    ClosureInstance,
    StClosureGraph,
    bisubmodular_vc_bipartite,
    sm_cut_to_closure,
    solve_linear_closure_mincut,
    solve_sm_closure,
)
from .reductions import (
    Constraint,
    ConstraintKind,
    Instance,
    LevelSystem,
    Monotonized,
    build_level_system,
    decode_levels,
    monotonize,
    monotonized_system,
)
from .solver import (
    MODE_APPROX,
    MODE_BRUTE,
    MODE_EXACT,
    RelaxationOutcome,
    SolveResult,
    brute_force_solve,
    check_feasibility_2sat,
    round_ell,
    round_up,
    solve_approx,
    solve_auto,
    solve_exact_monotone,
    solve_relaxation,
)
from .problems import (
    CnfSpec,
    GraphSpec,
    build_biclique_node_delete,
    build_clique_edge_delete,
    build_min2sat,
    build_minsat,
    build_vertex_cover,
)

__version__ = "0.1.0"
