"""Numerics for Lipschitz-function projections and free-space norms over l1.

Modules:

* :mod:`lipfree.geometry` - dyadic hypercube tilings, clamps, sparse l1 points
* :mod:`lipfree.interpolation` - multilinear corner interpolation on cubes
* :mod:`lipfree.operators` - finite-rank projections of Lipschitz functions
* :mod:`lipfree.freespace` - molecules, exact norms by LP, grid projections
* :mod:`lipfree.extension` - restrict/extend operators on finite metric spaces
* :mod:`lipfree.lp` - the box-constrained simplex backing the norm programs
* :mod:`lipfree.verify` - seeded self-verification suites
* :mod:`lipfree.cli` - the ``lipfree`` command line
"""

from .extension import (
    FinitePointedMetricSpace,
    GentlePartition,
    GentlenessEstimate,
    approximation_operator,
    build_partition,
    chain_table,
    covering_radius,
    doubling_estimate,
    extend,
    farthest_point_chain,
    gentleness,
    restrict,
    space_function,
)
from .freespace import (
    FddReport,
    Molecule,
    NormCertificate,
    check_certificate,
    decomposition_report,
    free_norm,
    line_norm,
    molecule_projection,
    molecules_close,
    pairing,
    projection_bound,
    transport_norm,
)
from .geometry import (
    DyadicCubeIndex,
    FiniteSupportPoint,
    Hypercube,
    clamp_to_cube,
    embed_finite,
    l1_distance,
    locate_cube,
    sign_vectors,
    tiling_vertex_count,
    tiling_vertices,
)
from .interpolation import (
    AffinityReport,
    TabulatedFunction,
    VertexData,
    check_axis_affinity,
    interpolate,
    interpolate_batch,
    interpolate_recursive,
    interpolation_weights,
    lip_constant,
)
from .lp import LpResult, SimplexError, solve_box_lp
from .operators import (
    CommutingReport,
    ConvergenceCheck,
    GridLevel,
    LipFunction,
    ProjectedLipFunction,
    commuting_check,
    convergence_check,
    convergence_checks,
    coordinate_function,
    l1_norm_function,
    lip_function,
    lip_projection,
    max_coordinate_function,
    mcshane_extension,
    random_lattice_function,
    tabulated_lip_function,
)
from .verify import run_verification

__version__ = "0.1.0"
