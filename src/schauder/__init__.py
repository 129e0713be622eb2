"""Basis expansions of vector-valued functions with verified projection algebra.

Six basis families (Haar, Faber-Schauder hats, C^k iterated hats, Hermite,
Fourier, Taylor) behind one coefficient/element contract, deterministic
quadrature with a fixed accumulation order, weighted sequence spaces for the
coefficient side, and a CLI (``schauder``) for tables and verification runs.
"""

from .basis_core import (
    BasisFamily,
    ExpansionOperator,
    FiniteRankElement,
    biorthogonality_matrix,
    coefficient_sweep,
    convergence_report,
    distinctness_check,
    materialize,
    partial_sum,
    projection_algebra_check,
    semigroup_discrepancies,
    semigroup_max_discrepancy,
    vector_scalar_consistency,
)
from .errors import InputError, NumericError
from .functions import (
    FunctionBundle,
    SampledFunction,
    as_bundle,
)
from .indexing import IndexSet
from .interval_bases import (
    CkBasis,
    DenseSequence,
    HaarBasis,
    HatBasis,
    PiecewisePolynomial,
    antiderivative,
    ck_basis_element,
    haar_constancy_intervals,
    haar_eval,
    hat_coefficients,
    hat_function,
    lp_error,
    schauder_hat,
)
from .quadrature import (
    IntegralBoundReport,
    QuadratureRule,
    box_rule,
    gauss_hermite_rule,
    gauss_legendre_rule,
    integral_bound_check,
    integrate_gauss_hermite,
    integrate_periodic,
    periodic_rule,
    weighted_sum,
)
from .sequence_spaces import (
    KotheMatrix,
    TruncatedSequence,
    c0_seminorm,
    en_seminorm,
    projection_error_profile,
    reassemble,
    s_membership_diagnostic,
    s_seminorm,
    unit_decomposition,
)
from .spectral_bases import (
    DiscContext,
    FourierBasis,
    HermiteBasis,
    PeriodicContext,
    TailBoundReport,
    TaylorBasis,
    cr_residual,
    fourier_coefficient,
    hermite_function,
    hermite_polynomial,
    hermite_tail_bound_check,
    schwartz_seminorm,
    taylor_coefficients,
    to_s_space,
)
from .value_space import SeminormSpec, ValueSpace, axpy, coordinate_functional

__version__ = "0.1.0"
