"""Numerics for Lipschitz-function projections and free-space norms over l1.

Modules:

* :mod:`lipfree.geometry` - dyadic tilings named by int64 lattice keys, sparse
  l1 points and their batch layout
* :mod:`lipfree.interpolation` - tensor-product corner weights, the recursive
  interpolation oracle, exact Lipschitz constants of tabulated data
* :mod:`lipfree.operators` - finite-rank projections of Lipschitz functions
* :mod:`lipfree.freespace` - molecules, exact norms (relay pruning plus one
  HiGHS solve per batch), grid projections
* :mod:`lipfree.extension` - restrict/extend operators on finite metric spaces
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
    SolverError,
    check_certificate,
    decomposition_report,
    free_norm,
    free_norms,
    line_norm,
    molecule_projection,
    molecules_close,
    pairing,
    transport_norm,
)
from .geometry import (
    FiniteSupportPoint,
    GridCell,
    Hypercube,
    embed_finite,
    l1_distance,
    locate_cube,
    sign_vectors,
)
from .interpolation import (
    TabulatedFunction,
    VertexData,
    interpolate_recursive,
    lip_constant,
)
from .operators import (
    CommutingReport,
    ConvergenceCheck,
    ConvergenceChecks,
    GridLevel,
    LipFunction,
    ProjectedLipFunction,
    commuting_check,
    convergence_check,
    convergence_checks,
    coordinate_function,
    l1_norm_function,
    lip_projection,
    max_coordinate_function,
    mcshane_extension,
    random_lattice_function,
    tabulated_lip_function,
)
from .verify import run_verification

__version__ = "0.1.0"
