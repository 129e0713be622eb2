"""Property tests for the hat family on random non-dyadic dense sequences.

Interior points are distinct multiples of 1/997 of [a, b] in random
insertion order, so chord weights round and cells are split off-center;
the dyadic tests elsewhere see neither.
"""

import bisect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schauder import (
    CkBasis,
    HatBasis,
    biorthogonality_matrix,
    hat_coefficients,
    schauder_hat,
)
from schauder.interval_bases import DenseSequence
from schauder.registry import vector_stack

PROPS = settings(max_examples=25, deadline=None, derandomize=True, database=None)

FUNCS = (
    lambda x: np.sin(3.0 * x) + 0.25 * x,
    lambda x: np.exp(-x * x),
    lambda x: x ** 3 - x,
    lambda x: 1.0 / (1.0 + 25.0 * x * x),
)


@st.composite
def sequences(draw, max_interior=30):
    a = draw(st.floats(-2.0, 2.0))
    width = draw(st.floats(0.5, 3.0))
    ks = draw(st.lists(st.integers(1, 996), min_size=1, max_size=max_interior, unique=True))
    return DenseSequence([a, a + width] + [a + width * k / 997 for k in ks])


def _handle(i):
    return lambda x: FUNCS[i](np.asarray(x, dtype=float))


@PROPS
@given(sequences(), st.integers(0, len(FUNCS) - 1))
def test_coefficients_match_triangular_solve(seq, i):
    f = _handle(i)
    n = len(seq) - 1
    pts = seq.points
    phi = [schauder_hat(seq, j) for j in range(n + 1)]
    mat = np.array([[phi[j](float(t)) for j in range(n + 1)] for t in pts])
    want = np.linalg.solve(mat, f(pts))
    got = np.asarray(hat_coefficients(seq, f, n))
    assert np.max(np.abs(got - want)) <= 1e-12


@PROPS
@given(sequences(max_interior=14))
def test_biorthogonality_gap(seq):
    count = len(seq)
    gap = np.max(np.abs(biorthogonality_matrix(HatBasis(seq), count) - np.eye(count)))
    assert gap <= 1e-12


@PROPS
@given(sequences(), st.integers(0, len(FUNCS) - 1))
def test_single_coefficient_equals_prefix_entry(seq, i):
    f = _handle(i)
    n = len(seq) - 1
    prefix = hat_coefficients(seq, f, n)
    for m in range(n + 1):
        assert np.array_equal(HatBasis(seq).coefficient(f, m), prefix[m])


@PROPS
@given(sequences())
def test_stacked_coefficients_equal_scalar_ones(seq):
    handles = [_handle(i) for i in range(len(FUNCS))]
    stack = lambda x: np.stack([h(x) for h in handles], axis=-1)
    n = len(seq) - 1
    vec = np.asarray(hat_coefficients(seq, stack, n))
    scalar = np.stack([np.asarray(hat_coefficients(seq, h, n)) for h in handles], axis=-1)
    assert np.array_equal(vec, scalar)
    for m in range(n + 1):
        assert np.array_equal(HatBasis(seq).coefficient(stack, m), scalar[m])


# -- insertion-time neighbours -------------------------------------------------


def _neighbours_by_insertion(points):
    """left/right by inserting the points one at a time into a sorted list."""
    left, right = [-1, -1], [-1, -1]
    values, order = [float(points[0]), float(points[1])], [0, 1]
    for n, t in enumerate(points[2:], start=2):
        pos = bisect.bisect(values, float(t))
        left.append(order[pos - 1])
        right.append(order[pos])
        values.insert(pos, float(t))
        order.insert(pos, n)
    return left, right


@st.composite
def raw_sequences(draw):
    """Distinct interior points of [0, 1] in random order, 0 to 200 of them."""
    ks = draw(st.lists(st.integers(1, 99_999), max_size=200, unique=True))
    return [0.0, 1.0] + [k / 100_000 for k in ks]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(raw_sequences())
def test_neighbours_match_insertion_loop(points):
    seq = DenseSequence(points)
    left, right = _neighbours_by_insertion(points)
    assert seq.left.tolist() == left
    assert seq.right.tolist() == right


def _insertion_orders():
    """Interior points k / 4097 of [0, 1] inserted in ascending, descending
    and zig-zag (outermost first) order, one point near b and then the rest
    ascending (one long climb for that point), and 4,096 shuffled."""
    ks = list(range(1, 4097))
    zigzag = [k for pair in zip(ks[:2048], ks[::-1][:2048]) for k in pair]
    shuffled = np.random.default_rng(11).permutation(ks).tolist()
    orders = {"ascending": ks, "descending": ks[::-1], "zigzag": zigzag,
              "near-b-then-ascending": ks[-1:] + ks[:-1], "shuffled": shuffled}
    return {name: [0.0, 1.0] + [k / 4097 for k in order] for name, order in orders.items()}


@pytest.mark.parametrize("name", sorted(_insertion_orders()))
def test_neighbour_search_matches_insertion_loop(name):
    points = _insertion_orders()[name]
    seq = DenseSequence(points)
    assert (seq.left.tolist(), seq.right.tolist()) == _neighbours_by_insertion(points)


@pytest.mark.parametrize("points", [[0.0, 1.0], [0.0, 1.0, 0.5], [-1.0, 2.0, 1.9],
                                    [0.0, 1.0, 0.5, 0.25], [0.0, 1.0, 0.9, 0.1, 0.5]])
def test_neighbours_of_short_sequences(points):
    seq = DenseSequence(points)
    assert (seq.left.tolist(), seq.right.tolist()) == _neighbours_by_insertion(points)


@pytest.mark.parametrize("levels, a, b", [
    pytest.param(levels, 0.0, 1.0, id=str(levels)) for levels in (1, 2, 5, 11, 12)
] + [pytest.param(9, -3.0, 5.0, id="9-mapped"), pytest.param(9, 1e-3, 2e-3, id="9-narrow")])
def test_dyadic_neighbours_match_insertion_loop(levels, a, b):
    seq = DenseSequence.dyadic(levels, a, b)
    assert (seq.left.tolist(), seq.right.tolist()) == _neighbours_by_insertion(seq.points)


def test_dyadic_neighbours_match_the_general_search():
    # ``dyadic`` reads its neighbours off the dyadic parents; the constructor
    # given the same points searches for them (``_nearest_smaller``)
    for levels in range(1, 21):
        seq = DenseSequence.dyadic(levels)
        general = DenseSequence(seq.points)
        assert np.array_equal(seq.left, general.left), levels
        assert np.array_equal(seq.right, general.right), levels


@pytest.mark.parametrize("seq", [
    DenseSequence.dyadic(5),
    DenseSequence([-1.0, 2.0] + [-1.0 + 3.0 * k / 997 for k in (500, 123, 877, 3, 640, 991, 250)]),
], ids=["dyadic", "non-dyadic"])
def test_hats_are_the_ck_family_at_k_0(seq):
    # one implementation: hat coefficients, tables and handles are C^k's at k = 0, bit for bit
    hat, ck0 = HatBasis(seq), CkBasis(0, seq)
    assert isinstance(hat, CkBasis) and hat.k == 0
    batch = np.random.default_rng(5).permutation(len(seq)).tolist()
    batch += batch[::3]  # repeats
    for f in (_handle(0), vector_stack([_handle(i) for i in range(len(FUNCS))])):
        got = hat.coefficients(f, batch)
        assert got.tobytes() == ck0.coefficients(f, batch).tobytes()
        assert got.tobytes() == np.asarray(hat_coefficients(seq, f, len(seq) - 1))[batch].tobytes()
    pts = np.linspace(seq.a, seq.b, 101)
    for order in range(3):
        for want, mine in zip(ck0.element_table(batch, pts, order), hat.element_table(batch, pts, order)):
            assert mine.tobytes() == want.tobytes()
    for n in batch:
        assert hat.element(n)(pts).tobytes() == ck0.element(n)(pts).tobytes()
        assert hat.element(n)(pts).tobytes() == schauder_hat(seq, n)(pts).tobytes()
