"""Quadrature rules and the deterministic weighted-sum primitive."""

import numpy as np
import pytest

from schauder import (
    InputError,
    NumericError,
    SeminormSpec,
    ValueSpace,
    box_rule,
    gauss_hermite_rule,
    gauss_legendre_rule,
    integral_bound_check,
    integrate_gauss_hermite,
    integrate_periodic,
    periodic_rule,
    weighted_sum,
)
from schauder.quadrature import ACCUMULATE_BLOCK, ACCUMULATE_ENTRIES, accumulate, tensor_rule

SQRT_PI = 1.7724538509055159


def _loop_sum(nodes, weights, f):
    # independent restatement of the accumulation contract: one vectorized
    # evaluation, then a single left-to-right pass in node order
    samples = np.asarray(f(np.asarray(nodes, dtype=float)))
    acc = np.zeros(samples.shape[1:], dtype=samples.dtype)
    for i in range(len(weights)):
        acc = acc + weights[i] * samples[i]
    return acc if acc.ndim else acc[()]


def test_weighted_sum_matches_explicit_loop_bitwise():
    rng = np.random.default_rng(3)
    nodes = np.sort(rng.uniform(-1.0, 1.0, 33))
    weights = rng.uniform(0.0, 1.0, 33)
    f = lambda x: np.sin(3.0 * x) + x * x
    assert weighted_sum(nodes, weights, f) == _loop_sum(nodes, weights, f)
    # longer than one accumulation block, so the running sum crosses blocks
    n = 2 * ACCUMULATE_BLOCK + 123
    nodes = rng.uniform(-2.0, 2.0, n)
    weights = rng.uniform(0.0, 1.0, n)
    for f in (
        lambda x: np.exp(-x * x) * np.cos(9.0 * x),
        lambda x: np.stack([np.sin(x), x ** 3, np.exp(x)], axis=-1),
        lambda x: np.exp(1j * 5.0 * x) * (1.0 + x),
    ):
        got, want = weighted_sum(nodes, weights, f), _loop_sum(nodes, weights, f)
        assert np.asarray(got).dtype == np.asarray(want).dtype
        assert np.array_equal(got, want)


def test_accumulate_carries_wide_rows_across_blocks():
    # rows so wide that each block holds two of them
    rng = np.random.default_rng(4)
    weights = rng.uniform(0.0, 1.0, 7)
    terms = rng.standard_normal((7, ACCUMULATE_ENTRIES // 2))
    want = np.zeros(terms.shape[1])
    for w, t in zip(weights, terms):
        want = want + w * t
    got = accumulate(weights, terms)
    assert np.array_equal(got, want)
    assert got.base is None  # no table of running sums is kept alive


def test_weighted_sum_repeat_bitwise_identical():
    nodes = np.linspace(0.0, 1.0, 17)
    weights = np.full(17, 1.0 / 17)
    f = lambda x: np.exp(x) * np.cos(5.0 * x)
    assert weighted_sum(nodes, weights, f) == weighted_sum(nodes, weights, f)


def test_weighted_sum_vector_component_matches_scalar_exactly():
    nodes = np.linspace(-2.0, 2.0, 25)
    weights = np.linspace(0.1, 0.3, 25)

    def stack(x):
        return np.stack([np.sin(x), np.cos(x), x ** 3], axis=-1)

    vec = weighted_sum(nodes, weights, stack)
    assert vec.shape == (3,)
    assert vec[0] == weighted_sum(nodes, weights, np.sin)
    assert vec[1] == weighted_sum(nodes, weights, np.cos)
    assert vec[2] == weighted_sum(nodes, weights, lambda x: x ** 3)


def test_weighted_sum_reports_offending_node():
    nodes = np.array([0.5, 1.0, 2.0])
    weights = np.array([1.0, 1.0, 1.0])
    with np.errstate(divide="ignore"):
        with pytest.raises(NumericError) as err:
            weighted_sum(nodes, weights, lambda x: 1.0 / (x - 1.0))
    assert err.value.node == 1.0


def test_weighted_sum_shape_mismatch():
    with pytest.raises(InputError):
        weighted_sum(np.zeros(3), np.zeros(4), lambda x: x)


def test_gauss_legendre_polynomial_exactness():
    rule = gauss_legendre_rule(0.0, 1.0, panels=1, order=8)
    # an 8-point rule integrates degree 15 exactly
    for k in range(16):
        got = weighted_sum(rule.nodes, rule.weights, lambda x, k=k: x ** k)
        assert abs(got - 1.0 / (k + 1)) <= 1e-14


def test_gauss_legendre_composite_layout():
    rule = gauss_legendre_rule(-1.0, 3.0, panels=16, order=4)
    assert rule.nodes.shape == (64,)
    assert np.all(np.diff(rule.nodes) > 0)
    assert abs(np.sum(rule.weights) - 4.0) <= 1e-13
    with pytest.raises(InputError):
        gauss_legendre_rule(1.0, 0.0)
    with pytest.raises(InputError):
        gauss_legendre_rule(0.0, 1.0, panels=0)


def test_integrate_interval_sin():
    rule = gauss_legendre_rule(0.0, np.pi)
    got = weighted_sum(rule.nodes, rule.weights, np.sin)
    assert abs(got - 2.0) <= 1e-12


def test_box_rule_2d():
    # centered box [-1, 1]^2: area 4, and x^2 y^2 integrates to 4/9
    rule = box_rule(1.0, 2, panels=4, order=4)
    assert rule.nodes.shape == (256, 2)
    assert abs(np.sum(rule.weights) - 4.0) <= 1e-13
    got = weighted_sum(rule.nodes, rule.weights, lambda p: p[..., 0] ** 2 * p[..., 1] ** 2)
    assert abs(got - 4.0 / 9.0) <= 1e-13


def test_box_rule_rejects_bad_arguments():
    with pytest.raises(InputError):
        box_rule(-1.0, 2)
    with pytest.raises(InputError):
        box_rule(1.0, 0)


def test_gauss_hermite_weight_integrals():
    got = integrate_gauss_hermite(lambda x: np.ones_like(x), 24)
    assert abs(got - SQRT_PI) <= 1e-13
    got = integrate_gauss_hermite(lambda x: x * x, 24)
    assert abs(got - SQRT_PI / 2.0) <= 1e-13


def test_gauss_hermite_2d_constant():
    got = integrate_gauss_hermite(lambda p: np.ones(p.shape[:-1]), 16, d=2)
    assert abs(got - np.pi) <= 1e-12


@pytest.mark.parametrize("d", [0, -1, 2.0, "2"])
def test_gauss_hermite_rule_rejects_bad_dimensions(d):
    with pytest.raises(InputError, match="dimension"):
        gauss_hermite_rule(5, d=d)
    with pytest.raises(InputError, match="dimension"):
        integrate_gauss_hermite(lambda x: np.ones(len(x)), 5, d=d)


def test_gauss_hermite_rule_shapes():
    rule = gauss_hermite_rule(10, d=2)
    assert rule.nodes.shape == (100, 2)
    assert rule.weights.shape == (100,)


def test_periodic_rule_layout():
    rule = periodic_rule(8)
    assert rule.nodes[0] == -np.pi
    assert np.allclose(np.diff(rule.nodes), 2.0 * np.pi / 8.0)
    assert np.all(rule.weights == rule.weights[0])


def test_periodic_integrals():
    assert abs(integrate_periodic(lambda x: np.cos(x) ** 2, 64) - np.pi) <= 1e-13
    assert abs(integrate_periodic(lambda x: np.ones_like(x), 32) - 2.0 * np.pi) <= 1e-13
    got = integrate_periodic(lambda p: np.ones(p.shape[:-1]), 16, d=2)
    assert abs(got - (2.0 * np.pi) ** 2) <= 1e-12
    with pytest.raises(InputError):
        periodic_rule(16, d=4)


def _meshgrid_rule(line, d):
    # the meshgrid construction of a tensor rule, kept as the reference
    grids = np.meshgrid(*([line.nodes] * d), indexing="ij")
    nodes = np.stack([g.reshape(-1) for g in grids], axis=1)
    weights = np.ones(nodes.shape[0])
    for g in np.meshgrid(*([line.weights] * d), indexing="ij"):
        weights = weights * g.reshape(-1)
    return nodes, weights


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("line", [
    gauss_legendre_rule(-1.5, 2.0, panels=3, order=5),
    gauss_hermite_rule(9),
    periodic_rule(7),
], ids=["gauss-legendre", "gauss-hermite", "periodic"])
def test_tensor_rule_matches_meshgrid_construction(line, d):
    rule = tensor_rule(line, d)
    nodes, weights = _meshgrid_rule(line, d)
    assert rule.nodes.shape == (len(line) ** d, d)
    # column-major: each coordinate column is contiguous
    assert rule.nodes.flags.f_contiguous
    assert np.array_equal(rule.nodes, nodes)
    assert np.array_equal(rule.weights, weights)


@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("d", [2, 3])
def test_tensor_rule_sums_keep_their_bits_in_either_layout(d, m):
    rule = tensor_rule(gauss_hermite_rule(20), d)

    def f(x):
        base = np.exp(-0.2 * np.sum(x * x, axis=1))
        first = base * np.cos(1.5 * x[:, 0])
        if m == 1:
            return first
        return np.stack([first, base * np.sin(x[:, 1]) ** 2, base * x[:, 0] * x[:, d - 1]], axis=-1)

    c_nodes = np.ascontiguousarray(rule.nodes)
    assert c_nodes.flags.c_contiguous and not rule.nodes.flags.c_contiguous
    got = np.atleast_1d(weighted_sum(rule.nodes, rule.weights, f))
    want = np.atleast_1d(weighted_sum(c_nodes, rule.weights, f))
    assert [float(v).hex() for v in got] == [float(v).hex() for v in want]


def test_accumulate_refuses_an_overflowing_sum():
    # every term finite, the products or the running sum overflow
    with pytest.raises(NumericError, match="overflows"):
        accumulate(np.full(4, 2.0), np.full(4, 1e308))
    with pytest.raises(NumericError, match="overflows"):
        accumulate(np.ones(3), np.array([1e308, 1e308, -1e308]))
    with pytest.raises(NumericError, match="overflows"):
        accumulate(np.ones(2), np.full((2, 3), 1e308 + 1e308j))
    # a running sum that reaches 1e308 and cancels stays finite
    assert accumulate(np.ones(2), np.array([1e308, -1e308])) == 0.0


def test_integral_bound_positive_rules_property():
    # discrete triangle inequality: |sum w_i f_i| <= sum w_i |f_i| for w >= 0
    space = ValueSpace(
        2,
        seminorms=(SeminormSpec("sup"), SeminormSpec("euclidean"), SeminormSpec("weighted-sup", (2.0, 1.0))),
    )

    def f(x):
        return np.stack([np.sin(3.0 * x), np.cos(x) - 0.5], axis=-1)

    rng = np.random.default_rng(29)
    for _ in range(25):
        n = int(rng.integers(3, 40))
        nodes = np.sort(rng.uniform(-3.0, 3.0, n))
        weights = rng.uniform(0.0, 1.0, n)
        report = integral_bound_check(f, nodes, weights, space)
        assert report.passed
        assert report.total_weight == pytest.approx(float(np.sum(weights)))
        assert report.lhs.shape == report.rhs.shape == (3,)


def test_integral_bound_rejects_negative_weights():
    space = ValueSpace(1)
    with pytest.raises(InputError):
        integral_bound_check(lambda x: x, np.array([0.0, 1.0]), np.array([0.5, -0.5]), space)


@pytest.mark.parametrize("weights", [
    [0.5, np.nan, 0.5], [0.5, np.inf, 0.5], [0.5, 0.5], [0.5, 0.5, 0.5, 0.5],
], ids=["nan", "inf", "fewer", "more"])
def test_integral_bound_rejects_bad_weights_before_f_runs(weights):
    calls = []

    def f(x):
        calls.append(len(x))
        return x

    with pytest.raises(InputError):
        integral_bound_check(f, np.array([0.0, 0.5, 1.0]), np.array(weights), ValueSpace(1))
    assert calls == []


def test_integral_bound_slack_absorbs_equality():
    # f constant and positive makes both sides equal up to rounding
    space = ValueSpace(1)
    nodes = np.linspace(0.0, 1.0, 7)
    weights = np.full(7, 1.0 / 7.0)
    report = integral_bound_check(lambda x: np.ones_like(x), nodes, weights, space)
    assert report.passed
    assert report.slack == 1e-12
