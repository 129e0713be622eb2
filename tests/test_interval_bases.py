"""Interval families: piecewise polynomials, step functions, hats, smooth lifts.

The frozen numbers here come from exact rational arithmetic (Fraction piece
overlap for the step family, a triangular interpolation solve for the hats)
or from closed-form integrals checked by hand.
"""

import math
from fractions import Fraction as F

import numpy as np
import pytest

from schauder import (
    CkBasis,
    FunctionBundle,
    HaarBasis,
    HatBasis,
    InputError,
    NumericError,
    PiecewisePolynomial,
    SeminormSpec,
    ValueSpace,
    ck_basis_element,
    convergence_report,
    haar_constancy_intervals,
    hat_coefficients,
    lp_error,
    materialize,
    schauder_hat,
)
from schauder.interval_bases import DenseSequence
from schauder.registry import get as reg


# -- piecewise polynomials ---------------------------------------------------


def _pp_oracle(pp, x):
    # independent evaluation: locate the piece by bisection, then Horner
    import bisect

    bp = list(pp.breakpoints)
    i = bisect.bisect_right(bp, x) - 1
    i = min(max(i, 0), len(bp) - 2)
    acc = 0.0
    for c in reversed(pp.coefficients[i]):
        acc = acc * (x - bp[i]) + c
    return acc


def test_pp_eval_matches_bisect_horner():
    rng = np.random.default_rng(5)
    bp = np.array([0.0, 0.3, 0.7, 1.0])
    coeffs = rng.standard_normal((3, 4))
    p = PiecewisePolynomial(bp, coeffs)
    for x in rng.uniform(0.0, 1.0, 40):
        assert p(float(x)) == pytest.approx(_pp_oracle(p, float(x)), abs=1e-14)


def test_pp_domain_guard():
    p = PiecewisePolynomial([0.0, 1.0], [[1.0, 2.0]])
    with pytest.raises(InputError):
        p(1.5)
    with pytest.raises(InputError):
        p(-0.1)


def test_pp_antiderivative_is_continuous_and_inverts_derivative():
    # d/dx of the antiderivative recovers the piece values everywhere inside
    p = PiecewisePolynomial([0.0, 0.5, 1.0], [[1.0, -1.0], [0.5, -1.0]])
    a = p.antiderivative()
    assert a(0.0) == 0.0
    widths = np.diff(a.breakpoints)
    for i in range(a.npieces - 1):
        left_end = sum(c * widths[i] ** q for q, c in enumerate(a.coefficients[i]))
        assert abs(left_end - a.coefficients[i + 1, 0]) <= 1e-12
    b = a.derivative()
    for x in np.linspace(0.01, 0.99, 23):
        assert abs(b(float(x)) - p(float(x))) <= 1e-13


def test_pp_antiderivative_closed_form():
    # integral of 1 - x from 0 to 1 is 1/2
    p = PiecewisePolynomial([0.0, 1.0], [[1.0, -1.0]])
    assert abs(p.antiderivative()(1.0) - 0.5) <= 1e-15


# -- dense sequences ---------------------------------------------------------


def test_dyadic_sequence_head():
    pts = DenseSequence.dyadic().points
    assert list(pts[:9]) == [0.0, 1.0, 0.5, 0.25, 0.75, 0.125, 0.375, 0.625, 0.875]


def test_dyadic_levels_are_capped():
    assert len(DenseSequence.dyadic(1)) == 3
    for bad in (0, 21):
        with pytest.raises(InputError, match="1..20"):
            DenseSequence.dyadic(bad)


def test_dense_sequence_validation():
    with pytest.raises(InputError):
        DenseSequence([0.0, 0.5, 1.0])  # second point must be the right endpoint
    with pytest.raises(InputError):
        DenseSequence([0.0, 1.0, 0.5, 0.5])
    with pytest.raises(InputError):
        DenseSequence([0.0, 1.0, 1.5])
    # non-finite points are refused before any neighbour search
    for points in ([0.0, 1.0, np.nan], [-np.inf, 1.0, 0.5], [0.0, np.inf, 0.5, 2.0]):
        with pytest.raises(InputError, match="finite"):
            DenseSequence(points)


# -- step family -------------------------------------------------------------


def _step_pieces(n):
    # exact supports of the n-th mean-zero step (n >= 2), or the constant
    if n == 1:
        return [(F(0), F(1), 1)]
    k = (n - 1).bit_length() - 1
    j = n - 1 - 2 ** k
    lo = F(j, 2 ** k)
    mid = F(2 * j + 1, 2 ** (k + 1))
    hi = F(j + 1, 2 ** k)
    return [(lo, mid, 1), (mid, hi, -1)]


def _exact_product_integral(n, m):
    total = F(0)
    for lo1, hi1, s1 in _step_pieces(n):
        for lo2, hi2, s2 in _step_pieces(m):
            lo, hi = max(lo1, lo2), min(hi1, hi2)
            if hi > lo:
                total += (hi - lo) * s1 * s2
    return total


def _step(n):
    return HaarBasis().element(n)


def test_step_point_values():
    assert _step(1)(0.0) == 1.0
    assert _step(1)(1.0) == 1.0
    assert _step(2)(0.25) == 1.0
    assert _step(2)(0.5) == -1.0
    assert _step(2)(1.0) == 0.0  # the right endpoint belongs to no half-open piece
    assert _step(3)(0.125) == 1.0
    assert _step(3)(0.25) == -1.0
    assert _step(3)(0.5) == 0.0
    assert _step(4)(0.5) == 1.0
    assert _step(4)(0.75) == -1.0


def test_step_element_is_haar_eval():
    # the element against a literal scan of its half-open constancy pieces
    basis = HaarBasis()
    xs = np.linspace(0.0, 1.0, 1025)
    for n in range(1, 70):
        want = np.zeros_like(xs)
        for lo, hi, sign in haar_constancy_intervals(n):
            want[(lo <= xs) & (xs < hi)] = sign
        if n == 1:
            want[-1] = 1.0  # the constant function covers the right endpoint too
        assert np.array_equal(basis.element(n)(xs), want)
        assert basis.element(n)(0.5) == want[512]
        with pytest.raises(InputError, match=r"\[0, 1\]"):
            basis.element(n)(np.array([0.5, 1.5]))


def test_step_constancy_intervals():
    assert haar_constancy_intervals(3) == [(0.0, 0.25, 1), (0.25, 0.5, -1)]
    assert haar_constancy_intervals(1) == [(0.0, 1.0, 1)]


def _raw_step_integral(f, n):
    # the family's functional is 2^k times the raw integral of f h_n, n = 2^k + j
    k = (n - 1).bit_length() - 1 if n > 1 else 0
    return HaarBasis().coefficient(f, n) / 2 ** k


def test_step_raw_coefficients_match_exact_rational_oracle():
    for n in range(1, 13):
        for m in range(1, 13):
            want = float(_exact_product_integral(n, m))
            got = _raw_step_integral(_step(m), n)
            assert abs(got - want) <= 1e-14, (n, m)


def test_step_raw_coefficient_of_identity():
    # first mean-zero step against f(x) = x: left mass 1/8 + right mass -3/8
    got = _raw_step_integral(lambda x: np.asarray(x, dtype=float), 2)
    assert abs(got + 0.25) <= 1e-13


def test_step_family_functional_is_normalized():
    basis = HaarBasis()
    for n in (1, 2, 3, 5, 8, 13):
        val = basis.coefficient(basis.element(n), n)
        assert abs(val - 1.0) <= 1e-12


def test_step_partial_sum_is_cell_average():
    # the rank-2^m projection of f(x)=x is the midpoint of each dyadic cell
    basis = HaarBasis()
    f = reg("x")
    el = materialize(basis, f, 8)
    for j in range(8):
        mid = (j + 0.5) / 8.0
        assert abs(el(j / 8.0 + 1e-9) - mid) <= 1e-9


def test_step_breakpoints_hold_every_jump_above_rank_4096():
    k = 8192
    bps = HaarBasis().segment_breakpoints(k)
    jumps = {e for n in range(1, k + 1) for lo, hi, _ in haar_constancy_intervals(n) for e in (lo, hi)}
    assert np.all(np.isin(np.array(sorted(jumps)), bps))


# -- hat family --------------------------------------------------------------


def test_seed_hats_are_the_boundary_lines():
    T = DenseSequence.dyadic()
    phi0, phi1 = schauder_hat(T, 0), schauder_hat(T, 1)
    for x in (0.0, 0.3, 1.0):
        assert abs(phi0(x) - (1.0 - x)) <= 1e-15
        assert phi1(x) == x


def test_hats_have_compact_dyadic_support():
    T = DenseSequence.dyadic()
    # node 5 is 0.125, so the support is [0, 0.25]
    phi = schauder_hat(T, 5)
    assert phi(0.125) == 1.0
    assert phi(0.3) == 0.0
    assert phi(0.9) == 0.0


def test_hat_coefficients_match_triangular_solve():
    T = DenseSequence.dyadic()
    f = lambda x: np.sin(np.pi * np.asarray(x)) + 0.25 * np.asarray(x)
    n = 20
    pts = np.array(T.points[: n + 1])
    phi = [schauder_hat(T, j) for j in range(n + 1)]
    mat = np.array([[phi[j](float(t)) for j in range(n + 1)] for t in pts])
    want = np.linalg.solve(mat, f(pts))
    got = hat_coefficients(T, f, n)
    assert np.max(np.abs(np.asarray(got) - want)) <= 1e-12


def test_hat_coefficient_frozen_values():
    T = DenseSequence.dyadic()
    f = lambda x: np.asarray(x) ** 2
    # interpolation defect of x^2 at the first midpoint: 1/4 - 1/2
    assert HatBasis(T).coefficient(f, 2) == -0.25
    assert hat_coefficients(T, f, 4) == [0.0, 1.0, -0.25, -0.0625, -0.0625]


def test_hat_coefficient_out_of_range_is_an_input_error():
    T = DenseSequence.dyadic(3)
    f = lambda x: np.asarray(x) ** 2
    for n in (-1, len(T)):
        with pytest.raises(InputError):
            HatBasis(T).coefficient(f, n)
    with pytest.raises(InputError):
        hat_coefficients(T, f, -1)
    with pytest.raises(InputError):
        HatBasis([0.0, 1.0, 0.5])


@pytest.mark.parametrize("make", [
    lambda T: schauder_hat(T, 2.5),
    lambda T: schauder_hat(T, "3"),
    lambda T: schauder_hat(T, True),
    lambda T: schauder_hat(T, len(T)),
    lambda T: ck_basis_element(T, 2, 2.5),
    lambda T: ck_basis_element(T, 2, "3"),
    lambda T: ck_basis_element(T, 2, True),
    lambda T: ck_basis_element(T, 2.5, 3),
    lambda T: ck_basis_element(T, True, 3),
    lambda T: CkBasis(k=2.5, seq=T),
    lambda T: CkBasis(k=True, seq=T),
    lambda T: CkBasis(k=-1, seq=T),
], ids=["hat-float", "hat-str", "hat-bool", "hat-past-end", "ck-n-float", "ck-n-str",
        "ck-n-bool", "ck-k-float", "ck-k-bool", "ckbasis-k-float", "ckbasis-k-bool",
        "ckbasis-k-negative"])
def test_non_integer_hat_and_ck_indices_are_input_errors(make):
    with pytest.raises(InputError):
        make(DenseSequence.dyadic(3))


def test_hat_coefficient_evaluates_at_most_three_points():
    seen = []

    def f(x):
        seen.append(np.asarray(x).size)
        return np.sin(np.pi * np.asarray(x))

    T = DenseSequence.dyadic()
    for n in (0, 1, 2, 3, 17, 500, len(T) - 1):
        seen.clear()
        HatBasis(T).coefficient(f, n)
        assert seen and sum(seen) <= 3, (n, seen)


def test_hat_projection_interpolates_prefix_nodes():
    basis = HatBasis()
    T = DenseSequence.dyadic()
    f = reg("sin-pi")
    el = materialize(basis, f, 12)
    for t in T.points[:13]:
        assert abs(el(float(t)) - f(float(t))) <= 1e-13


def test_hat_biorthogonality_is_exact():
    basis = HatBasis()
    eye = np.array(
        [[basis.coefficient(basis.element(n), m) for n in range(9)] for m in range(9)]
    )
    assert np.array_equal(eye, np.eye(9))


# -- smooth lifts ------------------------------------------------------------


def test_ck_leading_elements_are_scaled_monomials():
    b = CkBasis(k=2)
    f0, f1 = b.element(0), b.element(1)
    assert f0(0.3) == 1.0
    assert f1(0.3) == 0.3
    # double antiderivatives of the boundary lines
    f2, f3 = b.element(2), b.element(3)
    assert abs(f2(1.0) - 1.0 / 3.0) <= 1e-15
    assert abs(f3(1.0) - 1.0 / 6.0) <= 1e-15
    assert f2(0.0) == 0.0 and f3(0.0) == 0.0


def test_ck_elements_have_flat_jets_beyond_their_order():
    # derivative orders below k vanish at 0 for the lifted elements
    b = CkBasis(k=2)
    f4 = b.element(4)
    assert f4(0.0) == 0.0
    assert f4.derivative()(0.0) == 0.0


def test_ck_jet_coefficients_of_parabola_are_exact():
    b = CkBasis(k=2)
    f = reg("x2")
    mu = [b.coefficient(f, n) for n in range(6)]
    assert mu == [0.0, 0.0, 2.0, 2.0, 0.0, 0.0]


def test_ck_linear_function():
    b = CkBasis(k=2)
    mu = [b.coefficient(reg("x"), n) for n in range(5)]
    assert mu == [0.0, 1.0, 0.0, 0.0, 0.0]


def test_ck_rank_three_reconstruction_of_parabola():
    b = CkBasis(k=2)
    el = materialize(b, reg("x2"), 3)
    xs = np.linspace(0.0, 1.0, 41)
    err = max(abs(el(float(x)) - x * x) for x in xs)
    assert err <= 1e-12


def test_ck_needs_derivative_handles():
    b = CkBasis(k=2)
    with pytest.raises(InputError):
        b.coefficient(lambda x: np.asarray(x), 1)


def test_ck_cubic_terminates():
    b = CkBasis(k=2)
    mu = [b.coefficient(reg("cubic"), n) for n in range(12)]
    assert all(m == 0.0 for m in mu[4:])
    # and the first four rebuild the cubic exactly
    el = materialize(b, reg("cubic"), 3)
    for x in np.linspace(0.0, 1.0, 17):
        assert abs(el(float(x)) - reg("cubic")(float(x))) <= 1e-13


def test_ck_first_coefficient_works_on_bare_callables():
    b = CkBasis(k=2)
    assert b.coefficient(lambda x: np.asarray(x) * 0.0 + 5.0, 0) == 5.0


def test_ck_non_finite_jet_is_a_numeric_error_at_a():
    # the jets f^(n)(a) are samples like any other: a non-finite one is
    # refused with the node, never returned as a coefficient
    one = lambda x: np.ones_like(np.asarray(x, dtype=float))
    f = FunctionBundle(one, [lambda x: np.full(np.shape(x), np.inf), one])
    with pytest.raises(NumericError) as err:
        CkBasis(2).coefficients(f, [0, 1, 2, 3])
    assert err.value.node == 0.0


# -- L^p error ---------------------------------------------------------------


def test_lp_error_linear_vs_zero():
    f = lambda x: np.asarray(x, dtype=float)
    g = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    assert abs(lp_error(f, g, 1, [0.0, 1.0]) - 0.5) <= 1e-13
    assert abs(lp_error(f, g, 2, [0.0, 1.0]) - 1.0 / np.sqrt(3.0)) <= 1e-13


def test_lp_error_kink_needs_matching_breakpoint():
    f = lambda x: np.abs(np.asarray(x) - 0.5)
    g = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    got = lp_error(f, g, 1, [0.0, 0.5, 1.0])
    assert abs(got - 0.25) <= 1e-14


def test_lp_error_vector_with_space():
    space = ValueSpace(2, seminorms=(SeminormSpec("sup"),))
    f = lambda x: np.stack([np.asarray(x, dtype=float), np.zeros_like(np.asarray(x, dtype=float))], axis=-1)
    g = lambda x: np.zeros(np.asarray(x).shape + (2,))
    assert abs(lp_error(f, g, 1, [0.0, 1.0], space=space) - 0.5) <= 1e-13


def test_lp_error_validates_p():
    f = lambda x: np.asarray(x, dtype=float)
    with pytest.raises(InputError):
        lp_error(f, f, 0.5, [0.0, 1.0])


@pytest.mark.parametrize("p", [math.inf, np.inf, math.nan, True, np.bool_(True), "2", 2j, None])
def test_lp_error_refuses_exponents_that_are_not_finite_reals(p):
    # refused before f runs, from lp_error and from convergence_report's L^p mode
    points = []

    def f(x):
        points.append(np.size(x))
        return np.asarray(x, dtype=float)

    with pytest.raises(InputError, match="exponent p"):
        lp_error(f, f, p, [0.0, 0.5, 1.0])
    with pytest.raises(InputError, match="exponent p"):
        convergence_report(HaarBasis(), f, [1, 4], mode="lp", p=p)
    assert points == []


@pytest.mark.parametrize("breakpoints", [
    [0, "a", 1], [False, True], [0.0, math.nan, 1.0], [0.0, math.inf],
    [None, 1.0], [[0.0], [0.5, 1.0]], [0.0, 1j],
], ids=["string", "bools", "nan", "inf", "none", "ragged", "complex"])
def test_lp_error_refuses_breakpoints_that_are_not_finite_reals(breakpoints):
    points = []

    def f(x):
        points.append(np.size(x))
        return np.asarray(x, dtype=float)

    with pytest.raises(InputError, match="breakpoints|interval"):
        lp_error(f, f, 1, breakpoints)
    assert points == []


def test_lp_error_takes_integer_breakpoints_as_floats():
    f = lambda x: np.asarray(x, dtype=float)
    g = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    assert lp_error(f, g, 1, [0, 1]) == lp_error(f, g, 1, [0.0, 1.0])
    assert lp_error(f, g, 2, np.array([0, 1, 3], dtype=np.int32)) == lp_error(f, g, 2, [0.0, 1.0, 3.0])


def test_basis_lp_hook():
    basis = HaarBasis()
    err = basis.lp_error(reg("x"), materialize(basis, reg("x"), 4), 1, 4)
    assert abs(err - 0.0625) <= 1e-10
