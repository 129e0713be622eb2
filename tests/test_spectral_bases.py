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
    SeminormSpec,
    TaylorBasis,
    ValueSpace,
    biorthogonality_matrix,
    box_rule,
    fourier_coefficient,
    hermite_function,
    hermite_tail_bound_check,
    materialize,
    partial_sum,
    taylor_coefficients,
    to_s_space,
    weighted_sum,
)
from schauder import spectral_bases
from schauder.quadrature import NODE_BLOCK
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


@pytest.mark.parametrize("bad", [True, np.bool_(True), 2.5, 2.0, np.float64(2.0), "3", None])
def test_hermite_function_refuses_non_integer_orders(bad):
    x = np.linspace(-1.0, 1.0, 5)
    with pytest.raises(InputError, match="non-integer"):
        hermite_function(bad, x)
    with pytest.raises(InputError, match="non-integer"):
        hermite_function((1, bad), np.zeros((5, 2)), d=2)
    assert np.array_equal(hermite_function(np.int64(2), x), hermite_function(2, x))


def test_hermite_orders_past_495_are_refused_before_any_table(monkeypatch):
    # 495 is the largest n_max of HermiteBasis; past it the recurrence table
    # alone would be (order + 1) x points
    x = np.linspace(-1.0, 1.0, 5)
    assert np.all(np.isfinite(hermite_function(495, x)))
    monkeypatch.setattr(spectral_bases, "_hermite_rows",
                        lambda n, x: pytest.fail(f"a table of order {n} was allocated"))
    with pytest.raises(InputError, match="order 496 of index 496 exceeds 495"):
        hermite_function(496, x)
    with pytest.raises(InputError, match=r"order 496 of index \(1, 496\) exceeds 495"):
        hermite_function((1, 496), np.zeros((5, 2)), d=2)


def test_hermite_function_owns_its_values():
    # a view of the last row would keep the whole (n + 1, k) recurrence table alive
    for n, x, d in ((40, np.linspace(-3.0, 3.0, 7), 1), (0, np.array([0.5]), 1),
                    ((3, 2), np.full((5, 2), 0.25), 2)):
        vals = hermite_function(n, x, d=d)
        assert vals.base is None and vals.flags.owndata


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
    original = sb.tensor_grid

    def counted(axis, d):
        calls.append((len(axis), d))
        return original(axis, d)

    monkeypatch.setattr(sb, "tensor_grid", counted)
    HermiteBasis(d=3)  # the 138^3-node grid of the default n_max is never built
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


def _tail_bound_reference(f, ns, inner, outer, d, space, grid_points, order, panels_per_unit):
    # both sides by the whole-grid formula: each box integral a weighted_sum
    # over the whole box rule, the weighted sup over the whole grid at once
    def integrand(pts):
        fv = np.asarray(f(pts))
        hv = hermite_function(ns, pts, d=d)
        return fv * hv if fv.ndim == 1 else fv * hv[:, None]

    vals = {}
    for c in (inner, outer):
        rule = box_rule(c, d, panels=max(4, int(math.ceil(2.0 * c * panels_per_unit))), order=order)
        vals[c] = np.atleast_1d(weighted_sum(rule.nodes, rule.weights, integrand))
    gap = vals[outer] - vals[inner]
    lhs = np.array([float(np.max(np.abs(gap)))]) if space is None else space.seminorm_values(gap)
    axis = np.linspace(-10.0, 10.0, grid_points)
    if d == 1:
        pts, sq = axis, axis * axis
    else:
        grids = np.meshgrid(*([axis] * d), indexing="ij")
        pts = np.stack([g.reshape(-1) for g in grids]).T  # column-major
        sq = np.sum(pts * pts, axis=1)
    weight = (1.0 + sq) ** (0.5 * sum(ns))
    fv = np.asarray(f(pts))
    rows = fv[:, None] if fv.ndim == 1 else fv
    if space is None:
        fnorm = np.array([float(np.max(np.max(np.abs(rows), axis=1) * weight))])
    else:
        fnorm = np.max(space.seminorm_table(rows) * weight[:, None], axis=0)
    cgrow = math.prod(_abs_coeff_sum(ni) for ni in ns)
    boxes = (1.0 - math.exp(-0.5 * outer * outer)) ** d - (1.0 - math.exp(-0.5 * inner * inner)) ** d
    return lhs, (2.0 ** d) * cgrow * fnorm * boxes


def _tail_scalar(p):
    q = np.reshape(p, (len(p), -1))
    return np.exp(-0.3 * np.sum(q * q, axis=1)) * (1.0 + q[:, 0])


def _tail_vector(p):
    q = np.reshape(p, (len(p), -1))
    r = np.sum(q * q, axis=1)
    return np.stack([np.exp(-0.3 * r), np.cos(q[:, 0]) * np.exp(-0.2 * r), q[:, -1] * np.exp(-r)], axis=-1)


@pytest.mark.parametrize("given", [False, True], ids=["sup", "space"])
@pytest.mark.parametrize("f", [_tail_scalar, _tail_vector], ids=["scalar", "vector"])
@pytest.mark.parametrize("d, ns, grid_points, rows", [
    (1, (2,), 2001, 2001),
    (2, (1, 2), 201, 40401),  # two blocks of the sup grid
    (3, (1, 0, 1), 41, 68921),  # three
], ids=["d1", "d2", "d3"])
def test_tail_bound_blockwise_sup_equals_the_whole_grid(d, ns, grid_points, rows, f, given):
    space = None
    if given:
        kinds = [SeminormSpec("sup"), SeminormSpec("euclidean")]
        space = ValueSpace(1) if f is _tail_scalar else ValueSpace(3, seminorms=kinds + [
            SeminormSpec("weighted-sup", (1.0, 2.0, 0.5))])
    seen = []

    def recorded(p):
        seen.append(len(p))
        return f(p)

    rep = hermite_tail_bound_check(recorded, ns, 1.0, 2.0, d=d, space=space,
                                   grid_points=grid_points, order=4, panels_per_unit=1)
    assert max(seen) <= NODE_BLOCK
    # the inner and the outer box, 4 panels of 4 nodes per axis each, then the sup grid
    assert seen[:2] == [16 ** d] * 2 and sum(seen[2:]) == rows
    lhs, rhs = _tail_bound_reference(f, ns, 1.0, 2.0, d, space, grid_points, 4, 1)
    for got, want in ((rep.lhs, lhs), (rep.rhs, rhs)):
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def test_tail_bound_validates_radii():
    with pytest.raises(InputError):
        hermite_tail_bound_check(reg("h0"), 0, 3.0, 2.0)


# -- periodic exponentials ---------------------------------------------------


def test_periodic_context_max_mode():
    basis = FourierBasis(d=2, grid_size=64)
    assert (basis.d, basis.grid_size, basis.max_mode) == (2, 64, 31)
    assert FourierBasis(grid_size=3).max_mode == 1
    assert FourierBasis(n_max=40).grid_size == 161
    with pytest.raises(InputError):
        FourierBasis(d=4, grid_size=64)


@pytest.mark.parametrize("make", [
    lambda: FourierBasis(grid_size=0),
    lambda: FourierBasis(grid_size=True),
    lambda: FourierBasis(grid_size=2.5),
    lambda: FourierBasis(grid_size="64"),
    lambda: FourierBasis(d=True),
    lambda: TaylorBasis(contour_points=0),
    lambda: TaylorBasis(contour_points=64.0),
    lambda: HermiteBasis(quad_size=80.5),
], ids=["fourier-grid-0", "fourier-grid-true", "fourier-grid-float",
        "fourier-grid-str", "fourier-d-true", "taylor-contour-0", "taylor-contour-float",
        "hermite-quad-float"])
def test_explicit_sizes_are_refused_at_construction(make):
    # an explicit 0 is a value, not a request for the default
    with pytest.raises(InputError):
        make()


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

    for n in range(-deg, deg + 1):
        assert abs(fourier_coefficient(f, n) - coeffs[n]) <= 1e-12


def test_aliasing_guard():
    with pytest.raises(InputError):
        fourier_coefficient(reg("cos"), 40)


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
    assert calls == [(basis.grid_size, 2)]
    assert np.array_equal(again[: len(first)], first)


def test_three_dim_phase_fold_is_close_to_the_matmul_phase():
    basis = FourierBasis(d=3, n_max=2, grid_size=32)
    f = lambda p: np.exp(np.cos(p[:, 0]) + 0.5 * np.sin(p[:, 1] - p[:, 2]))
    idxs = basis.indices(2)
    got = basis.coefficients(f, idxs)
    rule = basis.rule
    fv = f(rule.nodes)
    terms = [rule.weights * fv * np.exp(-1j * (rule.nodes @ np.asarray(n, dtype=float))) for n in idxs]
    want = [complex(math.fsum(t.real), math.fsum(t.imag)) / (2.0 * np.pi) ** 3 for t in terms]
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
    basis = FourierBasis(d=2, grid_size=32)
    f = lambda p: np.exp(1j * (np.asarray(p)[..., 0] - 2.0 * np.asarray(p)[..., 1]))
    assert abs(basis.coefficient(f, (1, -2)) - 1.0) <= 1e-12
    assert abs(basis.coefficient(f, (0, 0))) <= 1e-12


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
    """c_0..c_{n_max} by ``math.fsum`` of the products f(z_j) w^(-jn), each
    phase read from one table of w^-k at index jn mod N, and the rounding
    estimate sqrt(N) eps max_j |f(z_j)| / rho^n of each."""
    npts, rho = ctx.contour_points, ctx.contour_radius
    angles = 2.0 * np.pi * np.arange(npts) / npts
    samples = np.asarray(f(ctx.center + rho * np.exp(1j * angles)))
    table = np.exp(-1j * angles)
    out = []
    for n in range(n_max + 1):
        terms = samples * table[np.arange(npts) * n % npts]
        out.append(complex(math.fsum(terms.real), math.fsum(terms.imag)) / (npts * rho ** n))
    bound = math.sqrt(npts) * np.finfo(float).eps * np.max(np.abs(samples)) / rho ** np.arange(n_max + 1)
    return np.array(out), bound


@pytest.mark.parametrize("ctx", [DiscContext(), DiscContext(0.3 + 0.1j, 5.0, 0.7, 256)],
                         ids=["unit", "shifted"])
def test_taylor_coefficients_equal_scalar_contour_loop(ctx):
    # close to the fsum loop within the rounding estimate of ``_check_rounding``,
    # and every column of a stack wider than 512 the bits of its scalar run
    n_max = ctx.contour_points // 4
    funcs = [f for _, f in corpus("taylor")]
    for f in funcs:
        got = np.array(taylor_coefficients(f, n_max, ctx))
        want, bound = _contour_loop(f, n_max, ctx)
        assert np.all(np.abs(got - want) <= bound)
    cols = funcs * (512 // len(funcs) + 1)
    stack = np.array(taylor_coefficients(vector_stack(cols), n_max, ctx))
    assert stack.shape == (n_max + 1, len(cols))
    for f in funcs:
        want = taylor_coefficients(f, n_max, ctx)
        for i in [i for i, g in enumerate(cols) if g is f]:
            assert np.array_equal(stack[:, i], want)


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
    for bad in (64.0, np.float64(64.0), "64"):  # not an integer
        with pytest.raises(InputError, match="contour_points"):
            DiscContext(0.0, 1.0, 0.5, bad)
    for center in (complex(np.nan, 0.0), complex(0.0, np.inf)):
        with pytest.raises(InputError, match="center must be finite"):
            DiscContext(center, np.inf, 1.0, 64)


@pytest.mark.parametrize("key,value", [
    ("center", "1+2j"), ("center", True), ("center", None), ("center", complex(0.0, np.nan)),
    ("contour_radius", "0.5"), ("contour_radius", True), ("contour_radius", np.inf),
    ("radius", "inf"), ("radius", True), ("radius", 2j),
])
def test_disc_numbers_that_are_not_numbers_are_refused(key, value):
    # the library refuses them itself, not only the CLI's config checks
    with pytest.raises(InputError, match=key):
        DiscContext(**{key: value})
    with pytest.raises(InputError, match=key):
        TaylorBasis(**{key: value})


@pytest.mark.parametrize("bad", [2.5, 2.0, True, "2"])
def test_non_integer_taylor_order_is_refused_before_f_runs(bad):
    calls = []
    f = lambda z: calls.append(z) or z
    with pytest.raises(InputError, match="n_max"):
        taylor_coefficients(f, bad)
    assert calls == []


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
