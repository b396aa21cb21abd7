"""Budget allocation for minimizing average delay at routing equilibrium.

Networks carry flow that settles into a Wardrop equilibrium; every edge
has a congestible delay that an improvement budget can flatten.  This
package computes equilibria, solves the allocation problem exactly on
parallel-link and parallel-path graphs, approximately everywhere else (a
convex relaxation with a 4/3 guarantee for affine delays, and a
discretization scheme with a (1+eps)^2 certificate on series-parallel
graphs), and ships brute-force oracles plus hard-instance generators for
validation.
"""

from .core import (
    Allocation,
    Commodity,
    Edge,
    FlowState,
    Instance,
    edge_delay,
    parse_instance,
    instance_to_json,
    parse_allocation,
    path_decompose,
)
from .copt import CoptResult, solve_copt
from .equilibrium import (
    EquilibriumResult,
    beckmann_potential,
    solve_equilibrium,
    solve_parallel_links_equilibrium,
)
from .errors import (
    DiscretizationError,
    GridTooLarge,
    Infeasible,
    InapplicableError,
    NetimproveError,
    NotParallelPaths,
    NotSeriesParallel,
    UnsupportedDelay,
    ValidationError,
)
from .fptas import FptasResult, choose_discretization, run_dp, solve_fptas
from .gadgets import (
    build_2ddp_instance,
    build_partition_instance,
    dipole_delay_curve,
    verify_dipole_claim,
)
from .oracle import GridSpec, OracleResult, grid_search, sweep_segment
from .parallelpaths import (
    ParallelPathsInstance,
    as_parallel_paths,
    best_single_edge_allocation,
    max_path_conductance,
    solve_parallel_paths,
)
from .seriesparallel import (
    DecompositionTree,
    Leaf,
    Parallel,
    Series,
    decompose_series_parallel,
)

__version__ = "0.1.0"
