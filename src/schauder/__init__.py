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
    convergence_report,
    materialize,
    partial_sum,
    projection_algebra_check,
    semigroup_discrepancies,
    semigroup_max_discrepancy,
    vector_scalar_consistency,
    vector_scalar_gap,
)
from .errors import InputError, NumericError
from .functions import FunctionBundle, SampledFunction
from .indexing import IndexSet
from .interval_bases import (
    CkBasis,
    DenseSequence,
    HaarBasis,
    HatBasis,
    PiecewisePolynomial,
    ck_basis_element,
    haar_constancy_intervals,
    hat_coefficients,
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
    projection_error_profile,
    reassemble,
    unit_decomposition,
)
from .spectral_bases import (
    DiscContext,
    FourierBasis,
    HermiteBasis,
    TailBoundReport,
    TaylorBasis,
    fourier_coefficient,
    hermite_function,
    hermite_tail_bound_check,
    taylor_coefficients,
    to_s_space,
)
from .value_space import SeminormSpec, ValueSpace

__version__ = "0.1.0"
