"""oplip: a matrix/FFT-scale laboratory for operator-Lipschitz estimates.

Commuting Hermitian tuples and their joint spectra, double operator integrals
as Schur multipliers, weak-L1 quasi-norms on singular value profiles,
homogeneous Fourier multipliers on torus grids, and the exact transference
identity tying them together -- plus seeded ratio experiments over all of it.
"""

from .errors import (
    AliasRiskError,
    BadExponentError,
    BadLawError,
    DimMismatchError,
    DomainError,
    GuardViolationError,
    NoConvergenceError,
    NonFiniteError,
    OplipError,
)
from .spectral import (
    CommutingTuple,
    HermitianMatrix,
    JointSpectrum,
    apply_function,
    commutator,
    discretize_tuple,
    haar_unitary,
    joint_diagonalize,
    planted_commuting_tuple,
)
from .doi import (
    Symbol,
    block_difference_embed,
    divided_difference_symbol,
    doi_apply,
    doi_l2_norm,
    doi_operator_matrix,
    perturbation_residual,
    symbol_product,
    symbol_product_check,
)
from .norms import (
    SingularValueProfile,
    matrix_trace_norm,
    matrix_weak_l1,
    mu_at,
    schatten_norm,
    singular_values,
    tensor_profile,
    weak_l1,
)
from .torus import (
    HomogeneousSymbol,
    TorusSignal,
    coefficients,
    fejer,
    fourier_multiplier_apply,
    frequencies,
    periodization_probe,
    signal_from_coefficients,
    signal_norms,
    smoothing_eval,
    symbol_eval,
)
from .transference import (
    IntegerTuple,
    build_embedding,
    contraction_check,
    discretization_report,
    integer_tuple,
    round_contraction,
    verify_conjugation,
)
from .functions import builtin_function
from .experiments import (
    ExperimentConfig,
    RatioRecord,
    commutator_ratio,
    difference_ratio,
    doi_ratio,
    lp_ratio,
    normal_ratio,
)
from .suite import run_identity_suite

__version__ = "0.1.0"
