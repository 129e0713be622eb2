"""The batched coefficient path: one evaluation per node set, same bits per index."""

import numpy as np
import pytest

from schauder import (
    CkBasis,
    FiniteRankElement,
    FourierBasis,
    HaarBasis,
    HatBasis,
    HermiteBasis,
    TaylorBasis,
    biorthogonality_matrix,
    gauss_legendre_rule,
    lp_error,
    projection_algebra_check,
    semigroup_discrepancies,
    semigroup_max_discrepancy,
    weighted_sum,
)
from schauder.registry import corpus, vector_stack


def _families():
    return [HaarBasis(), HatBasis(), CkBasis(k=2), HermiteBasis(n_max=12),
            FourierBasis(n_max=8), TaylorBasis(n_max=12)]


def _handles(basis):
    funcs = [f for _, f in corpus(basis.name)]
    return [funcs[1], funcs[4], vector_stack(funcs[:3])]


@pytest.mark.parametrize("basis", _families(), ids=lambda b: b.name)
def test_batch_equals_single_index_calls(basis):
    idxs = basis.indices(8)
    # any order, with repeats: a row never depends on the rest of the batch
    mixed = idxs[::-1] + idxs[: len(idxs) // 2]
    for f in _handles(basis):
        for batch in (idxs, mixed, []):
            got = basis.coefficients(f, batch)
            if not batch:
                assert got.shape[0] == 0  # an empty list gives an empty array
                continue
            want = np.array([basis.coefficients(f, [n])[0] for n in batch])
            assert got.shape == want.shape
            assert np.array_equal(got, want)
            assert np.array_equal(basis.coefficient(f, batch[0]), want[0])


def _count_element_calls(monkeypatch):
    calls = []
    original = FiniteRankElement.__call__

    def counted(self, x):
        calls.append(self)
        return original(self, x)

    monkeypatch.setattr(FiniteRankElement, "__call__", counted)
    return calls


@pytest.mark.parametrize("basis", _families(), ids=lambda b: b.name)
def test_semigroup_evaluates_each_partial_sum_once_per_function(basis, monkeypatch):
    kmax = 6
    f = corpus(basis.name)[4][1]
    calls = _count_element_calls(monkeypatch)
    semigroup_max_discrepancy(basis, f, kmax)
    # all the P_j f are one lifted element; C^k functionals read k jets and
    # the k-th derivative of it, one element each
    evaluations = basis.k + 1 if isinstance(basis, CkBasis) else 1
    assert 0 < len(calls) <= evaluations
    assert len({id(el) for el in calls}) == len(calls)


@pytest.mark.parametrize("basis", _families(), ids=lambda b: b.name)
def test_semigroup_equals_max_of_pairwise_checks(basis):
    kmax = 6
    for _, f in corpus(basis.name)[:4]:
        pairwise = max(projection_algebra_check(basis, f, k, j)
                       for k in range(kmax + 1) for j in range(kmax + 1))
        assert semigroup_max_discrepancy(basis, f, kmax) == pairwise


@pytest.mark.parametrize("basis", _families(), ids=lambda b: b.name)
def test_semigroup_of_a_stack_is_the_max_over_its_components(basis):
    # the whole corpus as one vector-valued function, as verify runs it
    funcs = [f for _, f in corpus(basis.name)]
    scalar = [semigroup_max_discrepancy(basis, f, 6) for f in funcs]
    stack = vector_stack(funcs)
    assert semigroup_discrepancies(basis, stack, 6).tolist() == scalar
    assert semigroup_max_discrepancy(basis, stack, 6) == max(scalar)


@pytest.mark.parametrize("basis", _families(), ids=lambda b: b.name)
def test_partial_sums_equal_the_zero_padded_lift(basis):
    kmax = 6
    idxs = basis.indices(kmax)
    grades = [basis.index_set.grade(n) for n in idxs]
    ranks = sorted({int(np.ceil(g)) for g in grades} | {0, kmax})
    counts = np.array([sum(1 for g in grades if g <= r) for r in ranks])
    pts = basis.sample_points()
    for f in _handles(basis)[1:]:
        coeffs = basis.coefficients(f, idxs)
        sums = FiniteRankElement(
            [(basis.element(n), c) for n, c in zip(idxs, coeffs)]
        ).partial_sums(counts)
        # term i carries c_i in block r when i < counts[r], and 0 there otherwise
        keep = np.arange(len(idxs))[:, None, None] < counts[None, :, None]
        padded = np.where(keep, coeffs.reshape(len(idxs), 1, -1), 0).reshape(len(idxs), -1)
        lift = FiniteRankElement([(basis.element(n), c) for n, c in zip(idxs, padded)])
        assert np.array_equal(sums(pts), lift(pts))
        assert np.array_equal(basis.coefficients(sums, idxs), basis.coefficients(lift, idxs))


@pytest.mark.parametrize("basis", _families(), ids=lambda b: b.name)
def test_biorthogonality_matrix_equals_per_element_loop(basis):
    count = 8
    enum = basis.indices(count)[:count]
    want = np.array([[basis.coefficient(basis.element(n), m) for n in enum] for m in enum])
    got = biorthogonality_matrix(basis, count)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def test_lp_error_matches_segment_by_segment_loop():
    f = lambda x: np.sin(7.0 * np.asarray(x))
    g = lambda x: np.asarray(x) ** 2
    bps = np.sort(np.random.default_rng(5).uniform(0.0, 1.0, 40))
    for p in (1, 2):
        acc = None
        for a, b in zip(bps[:-1], bps[1:]):
            rule = gauss_legendre_rule(a, b, panels=2, order=8)
            piece = weighted_sum(rule.nodes, rule.weights,
                                 lambda x: np.abs(f(x) - g(x))[:, None] ** p)
            acc = piece if acc is None else acc + piece
        want = float(np.maximum(acc, 0.0)[0] ** (1.0 / p))
        assert lp_error(f, g, p, bps) == want
