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
from schauder.quadrature import (
    ACCUMULATE_BLOCK,
    ACCUMULATE_ENTRIES,
    NODE_BLOCK,
    _tensor_blocks,
    accumulate,
    psi_weighted_rule,
    tensor_rule,
)

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
    # a mismatch once raised only after f ran on every node, a NaN or inf
    # weight came back as the sum, and a NaN node was evaluated
    calls = []

    def f(x):
        calls.append(len(x))
        return np.ones(len(x))

    for nodes, weights in (
        (np.zeros(3), np.zeros(4)),
        (np.linspace(0.0, 1.0, 5), np.full(4, 0.25)),
        (np.linspace(0.0, 1.0, 4), np.full((4, 1), 0.25)),
        (np.linspace(0.0, 1.0, 3), np.array([0.5, np.nan, 0.5])),
        (np.linspace(0.0, 1.0, 3), np.array([0.5, np.inf, 0.5])),
        (np.array([0.0, np.nan, 1.0]), np.full(3, 0.5)),
        (np.array([[0.0, 1.0], [np.inf, 1.0]]), np.full(2, 0.5)),
    ):
        with pytest.raises(InputError):
            weighted_sum(nodes, weights, f)
        assert calls == []


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


def _rows_shape(k, d):
    # d = 1 is the one-axis case, with (k,) nodes like every 1-D rule
    return (k,) if d == 1 else (k, d)


def _meshgrid_rule(line, d):
    # the meshgrid construction of a tensor rule, kept as the reference
    grids = np.meshgrid(*([line.nodes] * d), indexing="ij")
    nodes = np.stack([g.reshape(-1) for g in grids], axis=1)
    weights = np.ones(nodes.shape[0])
    for g in np.meshgrid(*([line.weights] * d), indexing="ij"):
        weights = weights * g.reshape(-1)
    return nodes.reshape(_rows_shape(len(weights), d)), weights


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("line", [
    gauss_legendre_rule(-1.5, 2.0, panels=3, order=5),
    gauss_hermite_rule(9),
    periodic_rule(7),
], ids=["gauss-legendre", "gauss-hermite", "periodic"])
def test_tensor_rule_matches_meshgrid_construction(line, d):
    rule = tensor_rule(line, d)
    nodes, weights = _meshgrid_rule(line, d)
    assert rule.nodes.shape == _rows_shape(len(line) ** d, d)
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


@pytest.mark.parametrize("nodes, weights, slack", [
    ([], [], 1e-12),
    ([0.0, np.nan], [0.5, 0.5], 1e-12),
    ([0.0, np.inf], [0.5, 0.5], 1e-12),
    ([0.0, 1.0], [0.5, 0.5], np.nan),
    ([0.0, 1.0], [0.5, 0.5], -1.0),
    ([0.0, 1.0], [0.5, 0.5], np.inf),
    ([0.0, 1.0], [0.5, 0.5], "0"),
], ids=["empty", "nan-node", "inf-node", "nan-slack", "negative-slack", "inf-slack",
        "string-slack"])
def test_integral_bound_refuses_bad_rules_and_slack_before_f_runs(nodes, weights, slack):
    # an empty rule once raised a bare ValueError, a NaN node was evaluated
    # into a passing report, and a NaN or negative slack made ``passed`` False
    points = []

    def f(x):
        points.append(len(x))
        return x

    with pytest.raises(InputError):
        integral_bound_check(f, np.array(nodes), np.array(weights), ValueSpace(1), slack=slack)
    assert points == []


@pytest.mark.parametrize("m", [1, 3])
def test_integral_bound_blockwise_sup_equals_the_whole_table_sup(m):
    # the sup is folded over NODE_BLOCK-row blocks; a last, partial block
    # holds the largest sample
    n = 3 * NODE_BLOCK + 5
    space = ValueSpace(m, seminorms=(
        SeminormSpec("sup"), SeminormSpec("euclidean"),
        SeminormSpec("weighted-sup", tuple(range(1, m + 1))),
    ))
    rng = np.random.default_rng(11)
    samples = rng.standard_normal((n, m))
    samples[n - 2] = 80.0
    samples[NODE_BLOCK // 2, 0] = -60.0
    nodes = np.arange(n, dtype=float)
    weights = rng.uniform(0.0, 1.0, n)
    f = lambda x: samples[x.astype(int)] if m > 1 else samples[x.astype(int), 0]
    report = integral_bound_check(f, nodes, weights, space)
    total = float(np.sum(weights))
    sup = np.max(space.seminorm_table(samples), axis=0)
    assert report.rhs.tobytes() == (total * sup).tobytes()
    assert report.lhs.tobytes() == space.seminorm_table(
        accumulate(weights, f(nodes)).reshape(1, -1))[0].tobytes()


def test_integral_bound_slack_absorbs_equality():
    # f constant and positive makes both sides equal up to rounding
    space = ValueSpace(1)
    nodes = np.linspace(0.0, 1.0, 7)
    weights = np.full(7, 1.0 / 7.0)
    report = integral_bound_check(lambda x: np.ones_like(x), nodes, weights, space)
    assert report.passed
    assert report.slack == 1e-12


# -- integrands evaluated in node blocks --------------------------------------


def _recording(f, seen):
    # records every node block the integrand is called on
    def g(x):
        seen.append(np.array(x))
        return f(x)
    return g


def _vector(x):
    x = np.asarray(x, dtype=float)
    r = x * x if x.ndim == 1 else np.sum(x * x, axis=1)
    first = x if x.ndim == 1 else x[:, 0]
    return np.stack([np.exp(-0.1 * r), np.cos(first) * np.exp(-0.2 * r), first ** 3], axis=-1)


def test_weighted_sum_across_node_blocks_matches_explicit_loop_bitwise():
    n = 2 * NODE_BLOCK + 123
    rng = np.random.default_rng(5)
    nodes = rng.uniform(-2.0, 2.0, n)
    weights = rng.uniform(0.0, 1.0, n)
    for f in (
        lambda x: np.exp(-x * x) * np.cos(9.0 * x),
        lambda x: np.stack([np.sin(x), x ** 3, np.exp(x)], axis=-1),
        lambda x: np.exp(1j * 5.0 * x) * (1.0 + x),
    ):
        seen = []
        got, want = weighted_sum(nodes, weights, _recording(f, seen)), _loop_sum(nodes, weights, f)
        assert [len(x) for x in seen] == [NODE_BLOCK, NODE_BLOCK, 123]
        assert np.asarray(got).dtype == np.asarray(want).dtype
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("block", [1, 5, 7, 50, 10 ** 6])
def test_tensor_blocks_are_the_rows_of_tensor_rule(d, block):
    # blocks below, between and above the powers 9, 81, 729 of the 9-node line
    line = gauss_legendre_rule(-1.5, 2.0, panels=3, order=3)
    rule = tensor_rule(line, d)
    blocks = list(_tensor_blocks(line, d, block))
    assert all(1 <= len(w) <= block and x.shape == _rows_shape(len(w), d) for x, w in blocks)
    assert all(x.flags.f_contiguous for x, _ in blocks)
    assert np.concatenate([x for x, _ in blocks]).tobytes() == rule.nodes.tobytes()
    assert np.concatenate([w for _, w in blocks]).tobytes() == rule.weights.tobytes()


def test_one_axis_rules_are_their_lines():
    # d = 1 is the one-axis tensor case: (k,) nodes, the bits of the 1-D rule
    line = gauss_legendre_rule(-1.5, 1.5, panels=3, order=5)
    x, w, _ = psi_weighted_rule(9)
    periodic = -np.pi + 2.0 * np.pi * np.arange(7) / 7
    for rules, nodes, weights in (
        ((box_rule(1.5, 1, panels=3, order=5), tensor_rule(line, 1)), line.nodes, line.weights),
        ((gauss_hermite_rule(9, 1), tensor_rule(gauss_hermite_rule(9), 1)), x, w * np.exp(-x * x)),
        ((periodic_rule(7, 1), tensor_rule(periodic_rule(7), 1)), periodic, np.full(7, 2.0 * np.pi / 7)),
    ):
        for rule in rules:
            assert rule.nodes.shape == np.shape(nodes)
            assert rule.nodes.tobytes() == nodes.tobytes()
            assert rule.weights.tobytes() == weights.tobytes()


def test_a_one_axis_integral_runs_in_node_blocks():
    seen = []
    got = integrate_periodic(_recording(_vector, seen), 70000, 1)
    assert [len(x) for x in seen] == [NODE_BLOCK, NODE_BLOCK, 4464]
    assert all(x.shape == (len(x),) for x in seen)
    rule = periodic_rule(70000)
    assert np.concatenate(seen).tobytes() == rule.nodes.tobytes()
    assert got.tobytes() == weighted_sum(rule.nodes, rule.weights, _vector).tobytes()


@pytest.mark.parametrize("d", [2, 3])
def test_tensor_blocks_of_node_block_rows(d):
    # the 40-node Gauss-Hermite line: 1,600 rows and 64,000 rows
    line = gauss_hermite_rule(40)
    rule = tensor_rule(line, d)
    blocks = list(_tensor_blocks(line, d))
    assert max(len(w) for _, w in blocks) <= NODE_BLOCK
    assert len(blocks) == (1 if d == 2 else 2)
    assert np.concatenate([x for x, _ in blocks]).tobytes() == rule.nodes.tobytes()
    assert np.concatenate([w for _, w in blocks]).tobytes() == rule.weights.tobytes()


@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_integrate_equals_weighted_sum_over_the_whole_rule(d, m):
    g = (lambda x: _vector(x)[:, 1]) if m == 1 else _vector
    size = {1: 40, 2: 200, 3: 40}[d]  # the d = 2, 3 rules span two node blocks
    rule = gauss_hermite_rule(size, d)
    got = integrate_gauss_hermite(g, size, d)
    want = weighted_sum(rule.nodes, rule.weights, g)
    assert np.asarray(got).dtype == np.asarray(want).dtype
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    rule = periodic_rule(size, d)
    assert (np.asarray(integrate_periodic(g, size, d)).tobytes()
            == np.asarray(weighted_sum(rule.nodes, rule.weights, g)).tobytes())


def test_integrate_vector_columns_keep_their_scalar_bits():
    vec = integrate_periodic(_vector, 40, d=3)
    for i in range(3):
        assert vec[i].tobytes() == integrate_periodic(lambda x, i=i: _vector(x)[:, i], 40, d=3).tobytes()


def test_every_node_is_evaluated_once_in_bounded_blocks():
    n = 2 * NODE_BLOCK + NODE_BLOCK // 2
    nodes = np.linspace(-1.0, 1.0, n)
    rule = box_rule(1.0, 2, panels=40, order=8)
    box_seen, bound_seen = [], []
    weighted_sum(rule.nodes, rule.weights, _recording(_vector, box_seen))
    integral_bound_check(_recording(_vector, bound_seen), nodes, np.full(n, 1.0 / n), ValueSpace(3))
    for seen, want in (
        (box_seen, rule.nodes),
        (bound_seen, nodes),
    ):
        assert max(len(x) for x in seen) <= NODE_BLOCK
        assert np.concatenate(seen).tobytes() == np.ascontiguousarray(want).tobytes()
    for integrate, build, size in ((integrate_gauss_hermite, gauss_hermite_rule, 40),
                                   (integrate_periodic, periodic_rule, 64)):
        seen = []
        integrate(_recording(_vector, seen), size, d=3)
        rule = build(size, 3)
        assert max(len(x) for x in seen) <= NODE_BLOCK
        assert np.concatenate(seen).tobytes() == np.ascontiguousarray(rule.nodes).tobytes()


def test_numeric_error_carries_the_first_bad_node_of_a_later_block():
    n = NODE_BLOCK + 100
    nodes = np.arange(n, dtype=float)
    bad = {NODE_BLOCK + 7, NODE_BLOCK + 50}

    def f(x):
        return np.where(np.isin(x, list(bad)), np.nan, 1.0)

    with pytest.raises(NumericError) as err:
        weighted_sum(nodes, np.ones(n), f)
    assert err.value.node == float(NODE_BLOCK + 7)
    rule = gauss_hermite_rule(40, 3)
    first = rule.nodes[NODE_BLOCK + 3]

    def g(x):
        return np.where(np.all(x == first, axis=1), np.inf, 0.0)

    with pytest.raises(NumericError) as err:
        integrate_gauss_hermite(g, 40, d=3)
    assert err.value.node == first.tolist()


@pytest.mark.parametrize("widths", [(None, 3), (3, None), (2, 3)])
def test_a_value_shape_change_between_blocks_is_refused(widths):
    n = NODE_BLOCK + 10
    calls = []

    def f(x):
        width = widths[min(len(calls), 1)]
        calls.append(len(x))
        return np.ones(len(x)) if width is None else np.ones((len(x), width))

    with pytest.raises(InputError, match="shape"):
        weighted_sum(np.zeros(n), np.ones(n), f)
    assert calls == [NODE_BLOCK, 10]


def test_a_complex_block_after_a_real_one_promotes_the_sum():
    n = NODE_BLOCK + 10
    rng = np.random.default_rng(8)
    nodes = rng.uniform(-1.0, 1.0, n)
    weights = rng.uniform(0.0, 1.0, n)
    f = lambda x: np.cos(x) if len(x) == NODE_BLOCK else np.exp(1j * x)
    acc = 0.0
    for x, w in ((nodes[:NODE_BLOCK], weights[:NODE_BLOCK]), (nodes[NODE_BLOCK:], weights[NODE_BLOCK:])):
        for s, wi in zip(f(x), w):
            acc = acc + wi * s
    got = weighted_sum(nodes, weights, f)
    assert got.dtype == np.complex128
    assert got.tobytes() == np.complex128(acc).tobytes()


@pytest.mark.parametrize("m", [None, 3])
def test_an_empty_rule_calls_f_once_and_keeps_its_shape(m):
    calls = []

    def f(x):
        calls.append(x.shape)
        return np.ones(len(x)) if m is None else np.ones((len(x), m))

    got = weighted_sum(np.zeros(0), np.zeros(0), f)
    assert calls == [(0,)]
    assert np.shape(got) == (() if m is None else (m,))
    assert np.all(got == 0.0)


def test_a_tensor_rule_past_intp_is_refused_before_f_runs():
    calls = []

    def f(x):
        calls.append(len(x))
        return np.ones(len(x))

    with pytest.raises(InputError, match="too many nodes"):
        integrate_gauss_hermite(f, 40, d=20)
    with pytest.raises(InputError, match="too many nodes"):
        gauss_hermite_rule(40, d=20)
    assert calls == []
