"""Structure-preserving exterior calculus on triangulated manifolds with
boundary: Whitney metrics, harmonic field bases, Hodge-Morrey-Friedrichs
splittings, Stokes-Dirac port systems with exact power balance, and a
conservative midpoint time stepper."""

from .errors import (
    AmbiguousKernel,
    ComplexMismatch,
    DanglingVertexIndex,
    DegreeMismatch,
    DegreeOutOfRange,
    DuplicateSimplex,
    FactorizationFailure,
    HarmonicPortsError,
    InvalidDegrees,
    IsolatedVertex,
    NonManifold,
    NonOrientable,
    NotInHarmonicComplement,
    NumericalFailure,
    OverflowInExactArithmetic,
    SolverFailure,
    UnsupportedResolution,
    UsageError,
    WrongDimension,
)
from .mesh import (
    BoundaryComplex,
    SimplicialComplex,
    betti_numbers,
    build_complex,
    euler_characteristic,
    extract_boundary,
    integer_matrix_rank,
    validate_manifold,
)
from .generators import SHAPES, gen_mesh
from .metric import (
    Cochain,
    Metric,
    codifferential,
    codifferential_constrained,
    extend_by_zero,
    exterior_derivative,
    green_defect,
    green_defect_constrained,
    inner_product,
    norm,
    random_cochain,
    stokes_check,
    tangential_trace,
)
from .hodge import (
    HarmonicBasis,
    HMFDecomposition,
    decompose_vector_field_3d,
    harmonic_basis,
    harmonic_projection,
    hodge_morrey_friedrichs,
    potential_for_exact,
    validate_degree_pair,
)
from .stokesdirac import (
    ExtendedPowerBalance,
    IntegrabilityReport,
    PowerBalance,
    StokesDiracSystem,
    efforts,
    extended_power_balance,
    flows,
    hamiltonian,
    harmonic_flow_identity,
    integrability_check,
    power_balance,
    system_operators,
)
from .sim import (
    SimulationConfig,
    Trace,
    initial_state,
    run,
    step_implicit_midpoint,
)
from .io import (
    read_cochain,
    read_mesh,
    read_state,
    write_cochain,
    write_mesh,
    write_snapshots,
    write_state,
    write_trace_csv,
)

__version__ = "0.1.0"
