"""Hermite, periodic exponential, and disc families plus their diagnostics."""

import math
import warnings

import numpy as np
import pytest
from numpy.polynomial.hermite import herm2poly, hermgauss, hermval

from schauder import (
    DiscContext,
    FourierBasis,
    HermiteBasis,
    InputError,
    NumericError,
    PeriodicContext,
    TaylorBasis,
    biorthogonality_matrix,
    fourier_coefficient,
    hermite_function,
    hermite_tail_bound_check,
    materialize,
    partial_sum,
    taylor_coefficients,
    to_s_space,
)
from schauder.quadrature import accumulate
from schauder.registry import corpus, vector_stack
from schauder.registry import get as reg
from schauder.spectral_bases import _abs_coeff_sum

PI_Q = np.pi ** 0.25


# -- hermite -----------------------------------------------------------------


def _norm(n):
    return 1.0 / math.sqrt(2.0 ** n * math.factorial(n) * math.sqrt(math.pi))


def test_functions_match_numpy_hermval():
    # h_n = (2^n n! sqrt(pi))^(-1/2) H_n e^(-x^2/2), H_n from numpy's Clenshaw sum
    xs = np.linspace(-6.0, 6.0, 241)
    for n in range(41):
        want = _norm(n) * hermval(xs, [0.0] * n + [1.0]) * np.exp(-0.5 * xs * xs)
        assert np.max(np.abs(hermite_function(n, xs) - want)) <= 1e-12, n


def test_abs_coeff_sum_carries_the_norm_constant():
    for n in range(21):
        want = _norm(n) * float(np.sum(np.abs(herm2poly([0.0] * n + [1.0]))))
        assert abs(_abs_coeff_sum(n) - want) <= 1e-13 * want, n


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
    got = HermiteBasis(n_max=64).coefficients(reg("gauss"), list(range(65)))
    assert abs(got[0] - PI_Q) <= 1e-13
    assert np.max(np.abs(got[1:])) <= 1e-13


def test_two_dim_coefficients_are_products_of_line_coefficients():
    # a large rule: its corner nodes have |x|^2 near 1140, where the weight
    # e^{-|x|^2} underflows but the dx-weights and the h_n table do not
    g = [lambda x: np.exp(-0.5 * (x - 0.3) ** 2), lambda x: np.exp(-0.4 * (x + 0.2) ** 2)]
    f = lambda p: g[0](p[:, 0]) * g[1](p[:, 1])
    line = HermiteBasis(n_max=4, quad_size=300)
    c = [line.coefficients(gi, list(range(5))) for gi in g]
    basis = HermiteBasis(d=2, n_max=4, quad_size=300)
    idxs = basis.indices(4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = basis.coefficients(f, idxs)
    want = np.array([c[0][n1] * c[1][n2] for n1, n2 in idxs])
    assert np.max(np.abs(got - want)) <= 1e-13
    assert np.min(np.abs(want)) > 1e-4


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
    # the default rule size is 2 n_max + 10, capped at 1000 like quad_size
    assert HermiteBasis(n_max=495).quad_size == 1000
    assert HermiteBasis(n_max=0).quad_size == 40
    for bad in (496, 600, -1):
        with pytest.raises(InputError, match="n_max"):
            HermiteBasis(n_max=bad)
    assert HermiteBasis(n_max=181, quad_size=300).quad_size == 300
    with pytest.raises(InputError, match="quad_size"):
        HermiteBasis(n_max=181, quad_size=1001)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_two_dim_high_order_coefficient_is_finite():
    # no factor of the coefficient exceeds pi^(-1/4), so no product overflows
    f = lambda p: np.exp(-0.5 * np.sum(p * p, axis=-1))
    got = HermiteBasis(d=2, n_max=145).coefficients(f, [(0, 0), (100, 100)])
    assert np.all(np.isfinite(got))
    assert abs(got[0] - np.sqrt(np.pi)) <= 1e-12
    assert abs(got[1]) <= 1e-12


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_high_order_rule_is_biorthogonal():
    basis = HermiteBasis(n_max=400)
    gap = np.max(np.abs(biorthogonality_matrix(basis, 401) - np.eye(401)))
    assert gap <= basis.coefficient_tol


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_corpus_coefficients_match_the_rescaled_gauss_hermite_path():
    # the former formula: numpy's e^{-x^2} Gauss-Hermite weights, each h_n
    # rescaled by e^{x^2}, at the default rule size 2 n_max + 10 = 138
    x, w = hermgauss(138)
    basis = HermiteBasis(n_max=64)
    for name, f in corpus("hermite"):
        fx = f(x)
        old = [math.fsum(w * fx * hermite_function(n, x) * np.exp(x * x)) for n in range(65)]
        new = basis.coefficients(f, range(65))
        assert np.max(np.abs(new - old)) <= 1e-13, name


def test_orders_past_n_max_are_refused():
    basis = HermiteBasis(n_max=4)
    assert basis.coefficients(reg("h4"), [4])[0] == pytest.approx(1.0, abs=1e-13)
    with pytest.raises(InputError, match="n_max = 4"):
        basis.coefficients(reg("h4"), [0, 5])
    plane = HermiteBasis(d=2, n_max=3)
    plane.coefficients(lambda p: np.exp(-0.5 * np.sum(p * p, axis=-1)), [(3, 0), (0, 3)])
    with pytest.raises(InputError, match="n_max = 3"):
        plane.coefficients(lambda p: p[:, 0], [(0, 4)])


def test_rule_needs_n_max_plus_one_nodes():
    assert HermiteBasis(n_max=4, quad_size=5).quad_size == 5
    with pytest.raises(InputError, match="quad_size"):
        HermiteBasis(n_max=5, quad_size=5)
    with pytest.raises(InputError, match="quad_size"):
        HermiteBasis(n_max=0, quad_size=0)


def test_hermite_tensor_rule_is_built_on_first_coefficient(monkeypatch):
    import schauder.spectral_bases as sb

    calls = []
    original = sb.tensor_rule

    def counted(line, d):
        calls.append((len(line), d))
        return original(line, d)

    monkeypatch.setattr(sb, "tensor_rule", counted)
    HermiteBasis(d=3)  # the 138^3-node rule of the default n_max is never built
    basis = HermiteBasis(d=3, n_max=2)
    assert calls == []
    f = lambda p: np.exp(-0.5 * np.sum(p * p, axis=-1))
    first = basis.coefficients(f, [(0, 0, 0)])
    again = basis.coefficients(f, [(0, 0, 0), (2, 0, 0)])
    assert calls == [(basis.quad_size, 3)]
    assert again[0] == first[0]
    assert abs(first[0] - np.sqrt(np.pi) ** 1.5) <= 1e-12


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


def test_three_dim_phase_fold_is_close_to_the_matmul_phase():
    basis = FourierBasis(d=3, n_max=2, grid_size=32)
    f = lambda p: np.exp(np.cos(p[:, 0]) + 0.5 * np.sin(p[:, 1] - p[:, 2]))
    idxs = basis.indices(2)
    got = basis.coefficients(f, idxs)
    rule = basis.rule
    fv = f(rule.nodes)
    want = [accumulate(rule.weights, fv * np.exp(-1j * (rule.nodes @ np.asarray(n, dtype=float))))
            / (2.0 * np.pi) ** 3 for n in idxs]
    assert np.max(np.abs(got - np.array(want))) <= 1e-13


def test_two_dim_basis_stays_biorthogonal():
    basis = FourierBasis(d=2, n_max=3)
    count = len(basis.indices(3))
    bio = biorthogonality_matrix(basis, count)
    assert np.max(np.abs(bio - np.eye(count))) <= 1e-13


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


@pytest.mark.parametrize("rho, n_max, bad", [(1e100, 4, 4), (1e-200, 4, 2), (1e-160, 2, 2)])
def test_contour_scale_out_of_range_is_refused_before_f_runs(rho, n_max, bad):
    # 1 / (N rho^n) overflows, underflows or is inf at order ``bad``
    calls = []
    f = lambda z: calls.append(z) or z
    with pytest.raises(InputError, match=f"contour_radius .* order {bad}"):
        taylor_coefficients(f, n_max, DiscContext(0.0, np.inf, rho, 64))
    assert calls == []
    # the orders below it stay within range
    assert len(taylor_coefficients(f, bad - 1, DiscContext(0.0, np.inf, rho, 64))) == bad


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_contour_sum_raises_numeric_error():
    # each sample of z^3 + 2z + 1 is finite on the contour; their sum is not
    with pytest.raises(NumericError, match="overflows"):
        taylor_coefficients(reg("poly-z"), 2, DiscContext(0.0, np.inf, 4e102, 64))


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
    for center in (complex(np.nan, 0.0), complex(0.0, np.inf)):
        with pytest.raises(InputError, match="center must be finite"):
            DiscContext(center, np.inf, 1.0, 64)


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
