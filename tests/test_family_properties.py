"""Property tests of the projection algebra (C01) and the vector lifting (C04)
for the Haar, C^k, Hermite, Fourier and Taylor families.

Inputs are finite-rank elements with random coefficient vectors on a random
number of leading basis elements, so P_j f differs from f for the ranks
drawn; the hat family has its own properties in ``test_hat_properties.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schauder import (
    CkBasis,
    FiniteRankElement,
    FourierBasis,
    HaarBasis,
    HermiteBasis,
    TaylorBasis,
    projection_algebra_check,
    semigroup_max_discrepancy,
    vector_scalar_consistency,
)

PROPS = settings(max_examples=25, deadline=None, derandomize=True, database=None)

KMAX = 12
FAMILIES = {
    "haar": HaarBasis(),
    "ck": CkBasis(k=2),
    "hermite": HermiteBasis(n_max=KMAX + 4),
    "fourier": FourierBasis(n_max=KMAX + 4),
    "taylor": TaylorBasis(n_max=KMAX + 4),
}
# gap of a vector coefficient to its scalar components: every family runs
# the same scalar operations on each component, so there is none
VECTOR_TOL = {"haar": 0.0, "ck": 0.0, "hermite": 0.0, "fourier": 0.0, "taylor": 0.0}

unit = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def elements(draw, basis, components=None):
    """sum_n c_n f_n over the first few indices of grade <= KMAX + 4."""
    idxs = basis.indices(KMAX + 4)
    size = draw(st.integers(1, len(idxs)))
    shape = (size,) if components is None else (size, components)
    count = int(np.prod(shape))
    coeffs = np.array(draw(st.lists(unit, min_size=count, max_size=count)))
    if basis.field == "complex":
        coeffs = coeffs + 1j * np.array(draw(st.lists(unit, min_size=count, max_size=count)))
    coeffs = coeffs.reshape(shape)
    return FiniteRankElement([(basis.element(n), c) for n, c in zip(idxs, coeffs)])


ranks = st.integers(0, KMAX)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_c01_projections_compose_on_random_elements(name):
    basis = FAMILIES[name]

    @PROPS
    @given(elements(basis), ranks, ranks)
    def check(f, k, j):
        assert projection_algebra_check(basis, f, k, j) <= 1e-10
        assert semigroup_max_discrepancy(basis, f, max(k, j, 1)) <= 1e-10

    check()


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_c04_vector_coefficients_match_scalar_ones(name):
    basis = FAMILIES[name]

    @PROPS
    @given(elements(basis, components=3), st.integers(0, len(basis.indices(KMAX)) - 1))
    def check(f, pos):
        n = basis.indices(KMAX)[pos]
        assert vector_scalar_consistency(basis, f, n, 3) <= VECTOR_TOL[name]

    check()
