"""Rough differential equations and recovery of their drivers from flow data.

The package has five layers over one file-format module:

* roughpath    -- level-2 weakly geometric rough paths on grids (Chen algebra,
                  lifts of sampled and Brownian signals, norms, CSV I/O)
* vectorfields -- batched field sets with Jacobians, Lie brackets, compositions
* rde          -- second-order Euler and batched log-ODE integrators, flow observation
* reconstruct  -- rank test, batched recovery of local (increment, area), stitching
* systems      -- named example systems addressable from the CLI
* io           -- the CSV table syntax that every file format shares
"""

from .errors import (
    DegenerateField,
    DimensionMismatch,
    DomainViolation,
    IndexOutOfRange,
    InvalidGrid,
    InvalidParameter,
    NonFinite,
    NotConverged,
    OutOfNeighborhood,
    RankDeficient,
    RdeinvError,
)
from .rde import (
    ObservationSet,
    Trajectory,
    euler2_step,
    logode_step,
    observe_flow,
    observe_flows,
    solve,
)
from .reconstruct import (
    ReconstructionMatrix,
    ReconstructionResult,
    doss_sussmann_1d,
    flow_map,
    local_reconstruct_flow,
    local_reconstruct_taylor,
    reconstruct_many,
    reconstruction_matrix,
    search_points,
    stitch,
    taylor_map,
    trust_region,
)
from .roughpath import (
    GridRoughPath,
    HolderNorms,
    RoughIncrement,
    chen_mul,
    coarsen,
    holder_norms,
    lift_piecewise_linear,
    make_linear_rough_path,
    refine,
    sample_brownian_fine,
    sample_brownian_lift,
)
from .systems import (
    NamedSystem,
    constant_fields,
    cvt,
    kohn,
    rolling_ball,
    triple_product,
    unicycle,
)
from .vectorfields import VectorFieldSet, bracket, fd_jacobian

__version__ = "0.1.0"

__all__ = [
    "DegenerateField",
    "DimensionMismatch",
    "DomainViolation",
    "GridRoughPath",
    "HolderNorms",
    "IndexOutOfRange",
    "InvalidGrid",
    "InvalidParameter",
    "NamedSystem",
    "NonFinite",
    "NotConverged",
    "ObservationSet",
    "OutOfNeighborhood",
    "RankDeficient",
    "RdeinvError",
    "ReconstructionMatrix",
    "ReconstructionResult",
    "RoughIncrement",
    "Trajectory",
    "VectorFieldSet",
    "bracket",
    "chen_mul",
    "coarsen",
    "constant_fields",
    "cvt",
    "doss_sussmann_1d",
    "euler2_step",
    "fd_jacobian",
    "flow_map",
    "holder_norms",
    "kohn",
    "lift_piecewise_linear",
    "local_reconstruct_flow",
    "local_reconstruct_taylor",
    "logode_step",
    "make_linear_rough_path",
    "observe_flow",
    "observe_flows",
    "reconstruct_many",
    "reconstruction_matrix",
    "refine",
    "rolling_ball",
    "sample_brownian_fine",
    "sample_brownian_lift",
    "search_points",
    "solve",
    "stitch",
    "taylor_map",
    "triple_product",
    "trust_region",
    "unicycle",
]
