"""Self/anti-self charge-conjugate momentum-space spinors for spin 1/2 and
spin 1, their discrete-symmetry and basis-rotation operators, and a seeded
verification suite for every algebraic identity they satisfy."""

__version__ = "0.1.0"

from .config import TOLERANCES
from .errors import (
    AmbiguousIntertwinerError,
    CoordinateSingularityError,
    DimensionError,
    DirectionUndefinedError,
    DomainError,
    ElkoError,
    UsageError,
)
from .kinematics import (
    FourMomentum,
    MomentumBatch,
    boost_half,
    boost_half_pair,
    boost_one,
    make_momenta,
    make_momentum,
    parity_reflect,
)
from .matrices import (
    adjoint,
    gamma0,
    gamma1,
    gamma2,
    gamma3,
    gamma5,
    sigma_x,
    sigma_y,
    sigma_z,
    theta_half,
    theta_one,
)
from .spinors import (
    Bispinor,
    PhaseConfig,
    bar_product,
    chiral_helicity_sign,
    dirac_components,
    dirac_spinor,
    index_flip_unitary,
    lambda_components,
    lambda_spinor,
    rest_lambda,
    rest_rho,
    rho_components,
    rho_spinor,
)
from .operators import (
    ActionClassification,
    SymmetryOperator,
    charge_conjugation,
    chiral_gauge_transform,
    chiral_helicity_operator,
    chirality,
    classify_cp_action,
    helicity_operator,
    lambda_basis_transforms,
    parity_operator,
    su2_phase_transform,
    u1,
    u2,
    u3,
    xi_matrix,
)
from .dynamics import (
    FrequencyConvention,
    coupled_equations,
    coupled_system_residual,
    dirac_matrix,
    discover_convention,
    eight_component_residual,
    lagrangian_mass_term,
    markov_superposition,
    sen_gupta_equivalence,
    sen_gupta_null_space,
    sen_gupta_residual,
)
from .spin_one import (
    ConjugacyScan,
    gamma5_one,
    gamma5_sc_one,
    sc_one,
    spin1_conjugacy_scan,
    spin1_pair,
    ss_one,
)
from .suite import VerificationReport, diff_reports, run_suite
