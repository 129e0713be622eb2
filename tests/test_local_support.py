"""Local-support synthesis: Haar, hat and C^k terms are added only where
they can be nonzero, with the values of adding every term everywhere.

The reference in these tests is the plain term loop: every handle on every
point, added in term order from zero.  Skipping a term can only change the
sign of a zero, which ``np.array_equal`` does not see.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schauder import (
    CkBasis,
    FiniteRankElement,
    HaarBasis,
    HatBasis,
    InputError,
    PiecewisePolynomial,
    materialize,
    semigroup_discrepancies,
)
from schauder.quadrature import segment_rules
from schauder.registry import get as reg

PROPS = settings(max_examples=40, deadline=None, derandomize=True, database=None)

FAMILIES = {"haar": HaarBasis(), "hat": HatBasis(), "ck": CkBasis(k=2)}
TOP = 80  # indices drawn from the first TOP + 1 of each family


def dense_sum(terms, pts):
    """sum_n f_n(pts) * c_n with every handle on every point."""
    acc = 0.0
    for handle, coeff in terms:
        vals = np.asarray(handle(pts))
        coeff = np.asarray(coeff)
        acc = acc + (vals * coeff if coeff.ndim == 0 else vals[:, None] * coeff[None, :])
    return acc


# dyadic grid points sit exactly on support ends; the rest fall anywhere
point = st.one_of(st.integers(0, 128).map(lambda j: j / 128), st.floats(0.0, 1.0))
unit = st.floats(-4.0, 4.0, allow_nan=False)


@st.composite
def cases(draw, names=tuple(sorted(FAMILIES))):
    """(basis, terms, points): a random element and a random point layout."""
    basis = FAMILIES[draw(st.sampled_from(names))]
    idxs = basis.indices(TOP)
    chosen = sorted(draw(st.sets(st.sampled_from(idxs), min_size=1, max_size=24)))
    components = draw(st.sampled_from([None, 3]))
    coeffs = [draw(unit) if components is None
              else np.array(draw(st.lists(unit, min_size=3, max_size=3)))
              for _ in chosen]
    pts = draw(st.lists(point, min_size=1, max_size=40))
    layout = draw(st.sampled_from(["ascending", "unsorted", "repeated"]))
    if layout == "ascending":
        pts = sorted(pts)
    elif layout == "repeated":
        pts = pts + pts[: draw(st.integers(1, len(pts)))]
        pts = sorted(pts) if draw(st.booleans()) else pts
    terms = [(basis.element(n), c) for n, c in zip(chosen, coeffs)]
    return basis, terms, np.array(pts)


@PROPS
@given(cases())
def test_synthesis_equals_the_dense_term_loop(case):
    _, terms, pts = case
    elem = FiniteRankElement(terms)
    assert np.array_equal(elem(pts), dense_sum(terms, pts))
    # a 0-d point gives the value at that point
    assert np.array_equal(elem(pts[0]), dense_sum(terms, pts[:1])[0])


@PROPS
@given(cases(), st.lists(st.integers(0, 24), min_size=1, max_size=5))
def test_partial_sums_equal_dense_prefix_sums(case, counts):
    _, terms, pts = case
    counts = [min(c, len(terms)) for c in counts]
    got = FiniteRankElement(terms).partial_sums(counts)(pts)
    width = np.size(terms[0][1])
    for r, c in enumerate(counts):
        want = np.zeros((len(pts), width))
        if c:
            want = want + np.reshape(dense_sum(terms[:c], pts), (len(pts), -1))
        assert np.array_equal(got[:, r * width:(r + 1) * width], want)


@PROPS
@given(cases(names=("ck",)), st.integers(1, 2))
def test_ck_derivatives_equal_the_dense_term_loop(case, order):
    _, terms, pts = case
    deriv = [(handle.derivative(order), c) for handle, c in terms]
    assert np.array_equal(FiniteRankElement(terms).derivative(order)(pts),
                          dense_sum(deriv, pts))
    sums = FiniteRankElement(terms).partial_sums([len(terms)]).derivative(order)(pts)
    assert np.array_equal(sums.reshape(dense_sum(deriv, pts).shape), dense_sum(deriv, pts))


@pytest.mark.parametrize("counts", [[4], [0, 4], [-1]])
def test_partial_sum_counts_beyond_the_terms_are_rejected(counts):
    elem = FiniteRankElement([(FAMILIES["hat"].element(n), 1.0) for n in range(3)])
    with pytest.raises(InputError, match="counts"):
        elem.partial_sums(counts)


def test_supports():
    haar, hat, ck = FAMILIES["haar"], FAMILIES["hat"], FAMILIES["ck"]
    assert haar.element(1).support == (0.0, 1.0)
    assert haar.element(6).support == (0.25, 0.5)
    assert hat.element(0).support == (0.0, 1.0)
    assert hat.element(6).support == (0.25, 0.5)
    # the k-fold antiderivative of a hat is constant, not zero, to its right
    assert ck.element(8).support == (0.25, 1.0)
    assert ck.element(8).derivative(2).support == (0.25, 0.5)
    assert PiecewisePolynomial([0.0, 1.0], [[0.0, 0.0]]).support is None


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_points_outside_the_domain_still_raise(name):
    basis = FAMILIES[name]
    idxs = basis.indices(16)
    full = FiniteRankElement([(basis.element(n), 1.0) for n in idxs])
    # only terms living right of 0.25
    narrow = FiniteRankElement([(basis.element(n), 1.0) for n in idxs
                                if (basis.element(n).support or (0.0,))[0] >= 0.25])
    assert len(narrow)
    for elem in (full, narrow):
        for bad in ([0.3, 1.5], [-0.1, 0.3], [2.0], 1.5):
            with pytest.raises(InputError):
                elem(np.array(bad))
            with pytest.raises(InputError):
                elem.partial_sums([1])(np.array(bad))
    # inside the domain but outside every support: exact zeros
    assert np.array_equal(narrow(np.array([0.2, 0.1])), [0.0, 0.0])


class _Bump:
    """A handle with a support that, unlike the family handles, evaluates a
    NaN (to NaN)."""

    def __init__(self, lo, hi):
        self.support = lo, hi

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        lo, hi = self.support
        return np.where((x < lo) | (x > hi), 0.0, (x - lo) * (hi - x))


def test_non_finite_points_take_the_dense_path():
    terms = [(_Bump(j / 8, (j + 2) / 8), 1.0 + j) for j in range(7)]
    pts = np.array([0.5, np.nan, 0.25])
    got = FiniteRankElement(terms)(pts)
    want = dense_sum(terms, pts)
    assert np.array_equal(got, want, equal_nan=True) and np.isnan(got[1])
    # there every hat handle sees the NaN, and refuses it
    with pytest.raises(InputError, match="finite points of"):
        FiniteRankElement([(FAMILIES["hat"].element(n), 1.0) for n in range(9)])(pts)


def test_rank_256_hat_element_evaluates_only_where_its_terms_live(monkeypatch):
    basis = FAMILIES["hat"]
    elem = materialize(basis, reg("sin-pi"), 256)
    bps = basis.segment_breakpoints(256)
    nodes, _ = segment_rules(bps[:-1], bps[1:], panels=2, order=8)
    pts = nodes.ravel()
    want = dense_sum(elem.terms, pts)
    evaluated = []
    call = PiecewisePolynomial.__call__
    monkeypatch.setattr(PiecewisePolynomial, "__call__",
                        lambda self, x: evaluated.append(np.size(x)) or call(self, x))
    got = elem(pts)
    assert np.array_equal(got, want)
    # 257 terms on 4,096 nodes; about (levels + 2) * 4,096 term-points are needed
    assert sum(evaluated) < len(elem) * len(pts) / 10


@pytest.mark.parametrize("name", ["haar", "hat", "ck"])
def test_semigroup_check_reads_the_same_on_shuffled_points(name):
    basis = FAMILIES[name]
    pts = basis.sample_points()
    f = reg("runge")
    ascending = semigroup_discrepancies(basis, f, 12, points=pts)
    shuffled = semigroup_discrepancies(basis, f, 12,
                                       points=np.random.default_rng(3).permutation(pts))
    assert np.array_equal(ascending, shuffled)
