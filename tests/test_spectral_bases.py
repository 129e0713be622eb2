"""Hermite, periodic exponential, and disc families plus their diagnostics."""

import numpy as np
import pytest
from numpy.polynomial.hermite import hermval

from schauder import (
    DiscContext,
    FourierBasis,
    HermiteBasis,
    InputError,
    NumericError,
    PeriodicContext,
    TaylorBasis,
    cr_residual,
    fourier_coefficient,
    hermite_function,
    hermite_polynomial,
    hermite_tail_bound_check,
    materialize,
    partial_sum,
    schwartz_seminorm,
    taylor_coefficients,
    to_s_space,
)
from schauder.registry import corpus, vector_stack
from schauder.registry import get as reg

PI_Q = np.pi ** 0.25


# -- hermite -----------------------------------------------------------------


def test_physicist_polynomials_match_numpy():
    rng = np.random.default_rng(23)
    xs = rng.uniform(-3.0, 3.0, 25)
    for n in range(13):
        want = hermval(xs, [0.0] * n + [1.0])
        got = hermite_polynomial(n, xs)
        scale = np.max(np.abs(want)) + 1.0
        assert np.max(np.abs(got - want)) / scale <= 1e-12


def test_polynomial_frozen_values():
    assert hermite_polynomial(1, np.array([3.0]))[0] == 6.0
    assert hermite_polynomial(2, np.array([1.0]))[0] == 2.0


def test_function_normalization():
    # the n-th function has unit L^2 norm; check by Gauss-Hermite with the
    # weight restored
    from schauder import integrate_gauss_hermite

    for n in range(6):
        val = integrate_gauss_hermite(
            lambda x, n=n: hermite_function(n, x) ** 2 * np.exp(x * x), 40
        )
        assert abs(val - 1.0) <= 1e-12


def test_function_values():
    assert abs(hermite_function(0, np.array([0.0]))[0] - 1.0 / PI_Q) <= 1e-15
    got = hermite_function((0, 0), np.array([[0.0, 0.0]]), d=2)[0]
    assert abs(got - 1.0 / np.sqrt(np.pi)) <= 1e-15


def test_coefficient_picks_out_own_function():
    basis = HermiteBasis(n_max=4, quad_size=40)
    for n in (0, 2, 3):
        coeffs = [basis.coefficient(reg(f"h{n}"), m) for m in range(5)]
        for m in range(5):
            want = 1.0 if m == n else 0.0
            assert abs(coeffs[m] - want) <= 1e-13


def test_gaussian_is_the_ground_mode():
    # e^{-x^2/2} = pi^{1/4} h_0
    basis = HermiteBasis(n_max=2, quad_size=40)
    assert abs(basis.coefficient(reg("gauss"), 0) - PI_Q) <= 1e-13
    assert abs(basis.coefficient(reg("gauss"), 2)) <= 1e-13


def test_two_dim_coefficient():
    f = lambda p: np.exp(-0.5 * np.sum(np.asarray(p) ** 2, axis=-1))
    got = HermiteBasis(d=2, n_max=1, quad_size=40).coefficient(f, (0, 0))
    assert abs(got - np.sqrt(np.pi)) <= 1e-12


def test_basis_round_trip_small_span():
    basis = HermiteBasis(n_max=10)
    a = np.array([0.7, -0.3, 0.0, 0.5, 0.2])

    def f(x):
        x = np.asarray(x, dtype=float)
        acc = np.zeros_like(x)
        for n, an in enumerate(a):
            acc = acc + an * hermite_function(n, x)
        return acc

    for n in range(5):
        assert abs(basis.coefficient(f, n) - a[n]) <= 1e-12
    el = materialize(basis, f, 6)
    xs = np.linspace(-4.0, 4.0, 41)
    assert max(abs(el(float(x)) - f(np.array([x]))[0]) for x in xs) <= 1e-10


def test_n_max_is_validated_before_the_rule_is_built():
    # the default rule size is 2 n_max + 10, capped at 300 like quad_size
    assert HermiteBasis(n_max=145).quad_size == 300
    assert HermiteBasis(n_max=0).quad_size == 40
    for bad in (146, 181, -1):
        with pytest.raises(InputError, match="n_max"):
            HermiteBasis(n_max=bad)
    assert HermiteBasis(n_max=181, quad_size=300).quad_size == 300


def test_tail_bound_examples_pass():
    rep = hermite_tail_bound_check(reg("h0"), 0, 2.0, 4.0)
    assert rep.passed()
    assert rep.lhs[0] < rep.rhs[0]
    rep = hermite_tail_bound_check(reg("gauss"), 2, 1.0, 3.0)
    assert rep.passed()


def test_tail_bound_two_dim():
    f = lambda p: np.exp(-0.5 * np.sum(np.asarray(p) ** 2, axis=-1))
    rep = hermite_tail_bound_check(f, (1, 0), 1.0, 2.0, d=2, grid_points=161, panels_per_unit=2, order=6)
    assert rep.passed()
    assert rep.inner == 1.0 and rep.outer == 2.0


def test_tail_bound_validates_radii():
    with pytest.raises(InputError):
        hermite_tail_bound_check(reg("h0"), 0, 3.0, 2.0)


def test_schwartz_seminorm_gaussian():
    g = reg("gauss")
    assert schwartz_seminorm(g, 0) == 1.0
    grid = np.linspace(-10.0, 10.0, 2001)
    got = schwartz_seminorm(g, 2, grid=grid)
    # independent scan over the same grid and derivative orders
    want = 0.0
    for beta in range(3):
        vals = np.abs(g.derivative(beta)(grid)) * (1.0 + grid * grid)
        want = max(want, float(np.max(vals)))
    assert abs(got - want) <= 1e-12
    assert schwartz_seminorm(g, 1) <= got + 1e-12


# -- periodic exponentials ---------------------------------------------------


def test_periodic_context_max_mode():
    assert PeriodicContext(1, 64).max_mode == 31
    assert PeriodicContext(1, 3).max_mode == 1
    with pytest.raises(InputError):
        PeriodicContext(4, 64)
    with pytest.raises(InputError):
        PeriodicContext(1, 0)


def test_cosine_coefficients():
    for n, want in ((1, 0.5), (-1, 0.5), (0, 0.0), (2, 0.0)):
        got = fourier_coefficient(reg("cos"), n)
        assert abs(got - want) <= 1e-12, n


def test_sine_coefficients_are_imaginary():
    got = fourier_coefficient(reg("sin"), 1)
    assert abs(got - (-0.5j)) <= 1e-12
    got = fourier_coefficient(reg("sin"), -1)
    assert abs(got - 0.5j) <= 1e-12


def test_trig_polynomial_recovery_property():
    rng = np.random.default_rng(31)
    deg = 6
    coeffs = {n: complex(rng.standard_normal(), rng.standard_normal()) for n in range(-deg, deg + 1)}

    def f(x):
        x = np.asarray(x, dtype=float)
        acc = np.zeros(x.shape, dtype=complex)
        for n, c in sorted(coeffs.items()):
            acc = acc + c * np.exp(1j * n * x)
        return acc

    ctx = PeriodicContext(1, 64)
    for n in range(-deg, deg + 1):
        assert abs(fourier_coefficient(f, n, ctx) - coeffs[n]) <= 1e-12


def test_aliasing_guard():
    ctx = PeriodicContext(1, 64)
    with pytest.raises(InputError):
        fourier_coefficient(reg("cos"), 40, ctx)


def test_partial_sum_reconstructs_cosine():
    got = partial_sum(FourierBasis(n_max=1, grid_size=64), reg("cos"), 1, 0.0)
    assert abs(got - 1.0) <= 1e-12


def test_fourier_rule_is_built_once_per_basis(monkeypatch):
    import schauder.spectral_bases as sb

    calls = []
    original = sb.periodic_rule

    def counted(n, d=1):
        calls.append((n, d))
        return original(n, d=d)

    monkeypatch.setattr(sb, "periodic_rule", counted)
    basis = FourierBasis(d=2, n_max=3)
    first = basis.coefficients(reg("cos"), basis.indices(2))
    again = basis.coefficients(reg("cos"), basis.indices(3))
    assert calls == [(basis.ctx.grid_size, 2)]
    assert np.array_equal(again[: len(first)], first)


def test_basis_indices_are_graded_ints():
    basis = FourierBasis(n_max=4)
    assert basis.indices(2) == [0, -1, 1, -2, 2]


def test_two_dim_mode_recovery():
    ctx = PeriodicContext(2, 32)
    f = lambda p: np.exp(1j * (np.asarray(p)[..., 0] - 2.0 * np.asarray(p)[..., 1]))
    assert abs(fourier_coefficient(f, (1, -2), ctx) - 1.0) <= 1e-12
    assert abs(fourier_coefficient(f, (0, 0), ctx)) <= 1e-12


# -- disc family -------------------------------------------------------------


def test_exponential_series():
    got = taylor_coefficients(reg("exp-z"), 8)
    fact = 1.0
    for n in range(9):
        if n:
            fact *= n
        assert abs(got[n] - 1.0 / fact) <= 1e-13


def test_constant_leading_coefficient_is_exact():
    got = taylor_coefficients(reg("one-z"), 2)
    assert got[0] == 1.0 + 0.0j
    assert abs(got[1]) <= 1e-15


def test_geometric_series_on_shrunk_disc():
    ctx = DiscContext(0.0, 0.9, 0.5, 64)
    got = np.asarray(taylor_coefficients(reg("geo-z"), 8, ctx))
    assert np.max(np.abs(got - 1.0)) <= 1e-10


def test_contour_radius_independence():
    a = taylor_coefficients(reg("geo-z"), 8, DiscContext(0.0, 0.9, 0.3, 64))
    b = taylor_coefficients(reg("geo-z"), 8, DiscContext(0.0, 0.9, 0.6, 64))
    assert np.max(np.abs(np.asarray(a) - np.asarray(b))) <= 1e-9


def test_recentred_series():
    ctx = DiscContext(1.0 + 0.0j, np.inf, 1.0, 64)
    got = taylor_coefficients(reg("poly-z"), 1, ctx)[1]
    # d/dz (z^3 + 2z + 1) at 1
    assert abs(got - 5.0) <= 1e-12


def _contour_loop(f, n_max, ctx):
    """c_0..c_{n_max} by one scalar complex product per contour node."""
    npts = ctx.contour_points
    angles = 2.0 * np.pi * np.arange(npts) / npts
    samples = np.asarray(f(ctx.center + ctx.contour_radius * np.exp(1j * angles)))
    out = []
    for n in range(n_max + 1):
        phase = np.exp(-1j * (n * angles))
        acc = np.zeros((), dtype=complex)
        for j in range(npts):
            acc = acc + phase[j] * samples[j]
        out.append(acc * (1.0 / (npts * ctx.contour_radius ** n)))
    return np.array(out)


@pytest.mark.parametrize("ctx", [DiscContext(), DiscContext(0.3 + 0.1j, 5.0, 0.7, 256)],
                         ids=["unit", "shifted"])
def test_taylor_coefficients_equal_scalar_contour_loop(ctx):
    n_max = ctx.contour_points // 4
    funcs = [f for _, f in corpus("taylor")]
    for f in funcs:
        got = np.array(taylor_coefficients(f, n_max, ctx))
        assert np.array_equal(got, _contour_loop(f, n_max, ctx))
    stack = np.array(taylor_coefficients(vector_stack(funcs[:3]), n_max, ctx))
    assert stack.shape == (n_max + 1, 3)
    for i, f in enumerate(funcs[:3]):
        assert np.array_equal(stack[:, i], taylor_coefficients(f, n_max, ctx))


def test_contour_must_resolve_requested_order():
    ctx = DiscContext(0.0, np.inf, 1.0, 16)
    with pytest.raises(InputError):
        taylor_coefficients(reg("exp-z"), 8, ctx)


def test_non_finite_contour_sample_carries_its_node():
    # contour radius 1 around 0: node 0 is z = 1, where the handle blows up
    ctx = DiscContext(0.0, np.inf, 1.0, 64)
    f = lambda z: np.where(z == 1.0, np.nan, z)
    with pytest.raises(NumericError) as info:
        taylor_coefficients(f, 4, ctx)
    assert info.value.node == 1.0 + 0.0j


def test_context_validation():
    with pytest.raises(InputError):
        DiscContext(0.0, 1.0, 2.0, 64)  # contour outside the disc
    with pytest.raises(InputError):
        DiscContext(0.0, 1.0, 0.5, 60)  # not a power of two


def test_cauchy_riemann_residuals():
    assert abs(cr_residual(lambda z: z * z, 0.3 + 0.2j)) <= 1e-10
    assert abs(cr_residual(np.conj, 0.3 + 0.2j) - 1.0) <= 1e-10
    got = cr_residual(lambda z: z * np.conj(z), 2.0 + 0.0j)
    assert abs(got - 2.0) <= 1e-8


def test_taylor_basis_monomial_elements():
    basis = TaylorBasis(center=0.5, n_max=6)
    el = basis.element(3)
    assert el(0.5 + 0.1j) == (0.1j) ** 3


# -- sequence export ---------------------------------------------------------


def test_hermite_export_lands_in_s():
    basis = HermiteBasis(n_max=12)
    seq = to_s_space(basis, reg("gauss"), 8)
    assert seq.space == "s"
    assert abs(seq.values[0] - PI_Q) <= 1e-12
    assert np.max(np.abs(seq.values[1:])) <= 1e-10


def test_fourier_export_grading():
    basis = FourierBasis(n_max=8)
    seq = to_s_space(basis, reg("cos"), 4)
    idx = list(seq.indices)
    assert idx[0] in (0, (0,))
    assert len(idx) == 9
