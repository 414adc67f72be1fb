"""qpolar: hbar-polar duality, symplectic capacities, and quantum covariance analysis."""

from types import ModuleType as _ModuleType

from .bodies import (
    ConvexBody,
    Ellipsoid,
    HPolytope,
    PairVerdict,
    VPolytope,
    contains,
    enclosing_ellipsoid,
    gauge,
    inclusion_scale,
    is_quantum_pair,
    linear_image,
    polar_dual,
    scale,
    support,
)
from .capacities import (
    CapacityReport,
    ellipsoid_capacity,
    product_capacity,
    product_projection_area,
)
from .cloud import (
    AnalysisReport,
    DiskDemoReport,
    MeasurementCloud,
    cloud_analyze,
    cloud_generate_disk,
    disk_demo,
)
from .errors import (
    BoundaryDecayWarning,
    ConvergenceError,
    DegenerateBodyError,
    DimensionError,
    GridError,
    HardyInconsistencyWarning,
    InvalidCovarianceError,
    NotPositiveDefiniteError,
    NotSymmetricError,
    QPolarError,
    SingularMatrixError,
    UndecidedError,
)
from .hardy import (
    HardyInput,
    HardyVerdict,
    MinkowskiExperiment,
    hardy_check,
    hardy_envelope_verify,
    hbar_fourier_1d,
    minkowski_envelope_experiment,
)
from .quantum import (
    CovarianceMatrix,
    capacity_criterion,
    covariance_ellipsoid,
    heisenberg_eigen_check,
    is_quantum_covariance,
    project_xp,
    random_quantum_covariance,
    rs_check,
    section_area,
    theorem2_check,
)
from .sections import emit_section_plot
from .symplectic import (
    block_diagonalize,
    is_symplectic,
    random_symplectic,
    standard_symplectic_matrix,
    symplectic_eigenvalues,
    symplectic_form,
)

__version__ = "0.1.0"

# The public names are the package's own non-underscore, non-module globals.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
