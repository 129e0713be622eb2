"""Element tables: synthesis from ``BasisFamily.element_table`` and one
running sum over its terms, against the term loops it replaced.

The reference ``term_loop`` is the synthesis loop, kept literally: every
element handle evaluated on the points of its support, each term's products
added by ``acc[lo:hi] += contrib`` in term order, a first term covering
every point starting the sum.  ``semigroup_loop`` is the semigroup check's
own per-term loop, kept literally too: one sum of the coefficient defects
lambda_n(P_j f) - c_n [n counted in P_j], whose partial sums are
P_k P_j f - P_min(k,j) f.  Both orders are recursive summation in
enumeration order, as in ``basis_core._running``.  Results are compared by
``tobytes()``, so the sign of every zero counts too.  ``two_sum_loop`` is
the check as it ran before, two sums P_k P_j f and P_k f compared with
P_min(k,j) f; it differs from the defect sum only by rounding, and the tests
hold the two within Higham's recursive-summation bound (``summation_bound``).
"""

import json
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schauder import (
    CkBasis,
    DenseSequence,
    FourierBasis,
    HaarBasis,
    HatBasis,
    HermiteBasis,
    InputError,
    NumericError,
    TaylorBasis,
    hermite_tail_bound_check,
    materialize,
    partial_sum,
    projection_algebra_check,
)
from schauder import basis_core, interval_bases
from schauder.basis_core import FiniteRankElement, _ascending, _element, _rows, semigroup_discrepancies
from schauder.cli import FAMILIES as CLI_FAMILIES
from schauder.cli import build_basis, main
from schauder.quadrature import tensor_grid
from schauder.registry import corpus, vector_stack
from schauder.registry import get as reg

PROPS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def _layout(handles, pts):
    """The support layout of the term loop (see the module docstring)."""
    n = len(pts)
    supports = [getattr(handle, "support", None) for handle in handles]
    dense = None, pts, [(0, n)] * len(handles)
    if pts.ndim != 1 or n == 0 or np.iscomplexobj(pts) or all(s is None for s in supports):
        return dense
    order = None if np.all(pts[1:] >= pts[:-1]) else np.argsort(pts, kind="stable")
    spts = pts if order is None else pts[order]
    if not (np.isfinite(spts[0]) and np.isfinite(spts[-1])):
        return dense
    lo = np.searchsorted(spts, [-np.inf if s is None else s[0] for s in supports], side="left")
    hi = np.searchsorted(spts, [np.inf if s is None else s[1] for s in supports], side="right")
    first, last = lo.min(), hi.max()
    if first > 0 or last < n:
        handles[0](np.concatenate([spts[:first], spts[last:]]))
    return order, spts, list(zip(lo.tolist(), hi.tolist()))


def term_loop(terms, counts, pts):
    """The partial sums of ``terms`` (``(handle, coefficient)`` pairs) by the term loop."""
    width = np.size(terms[0][1]) if terms else 1  # of the coefficients, kept or not
    terms = terms if counts is None else terms[:max(counts, default=0)]
    order, spts, bounds = _layout([handle for handle, _ in terms], pts)
    n = len(pts)
    blocks = {}
    for r, c in enumerate(counts or ()):
        blocks.setdefault(c, []).append(r)
    out = None if counts is None else np.zeros((n, len(counts) * width))
    acc = None
    for i, ((handle, coeff), (lo, hi)) in enumerate(zip(terms, bounds)):
        if lo < hi:
            vals = np.asarray(handle(spts[lo:hi]))
            coeff = np.asarray(coeff)
            contrib = vals * coeff if coeff.ndim == 0 else vals[:, None] * coeff[None, :]
            if acc is None and hi - lo == n:
                acc = contrib
            else:
                if acc is None:
                    acc = np.zeros((n,) + contrib.shape[1:], dtype=contrib.dtype)
                elif np.result_type(acc, contrib) != acc.dtype:
                    acc = acc.astype(np.result_type(acc, contrib))
                acc[lo:hi] += contrib
        if acc is not None and i + 1 in blocks:
            if out.dtype != acc.dtype:
                out = out.astype(np.result_type(out, acc))
            for r in blocks[i + 1]:
                out[:, r * width:(r + 1) * width] = acc.reshape(n, -1)
    if out is None:
        out = acc if acc is not None else np.zeros((n,) + np.shape(terms[0][1] if terms else 0))
    if order is None:
        return out
    unsorted = np.empty_like(out)
    unsorted[order] = out
    return unsorted


def _same(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


unit = st.floats(-4.0, 4.0, allow_nan=False)


@st.composite
def sequences(draw):
    """The dyadic sequence on [0, 1], or random distinct points on a random [a, b]."""
    if draw(st.booleans()):
        return DenseSequence.dyadic(6)
    return draw(general_sequences())


@st.composite
def general_sequences(draw):
    """Random distinct points on a random [a, b]."""
    a = draw(st.sampled_from([0.0, -1.5, 0.25]))
    b = a + draw(st.sampled_from([1.0, 3.0, 0.7]))
    points = [a, b]
    for t in draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40)):
        x = a + (b - a) * t
        if a < x < b and x not in points:
            points.append(x)
    return DenseSequence(points)


@st.composite
def cases(draw):
    """(basis, derivative order, points): a local family and a point layout."""
    family = draw(st.sampled_from(["haar", "hat", "ck"]))
    if family == "haar":
        basis, order = HaarBasis(), 0
    elif family == "hat":
        basis = HatBasis(draw(sequences()))
        order = draw(st.integers(0, 2))
    else:
        k = draw(st.integers(0, 3))
        basis = CkBasis(k, draw(sequences()))
        order = draw(st.integers(0, k + 2))
    lo, hi = (0.0, 1.0) if family == "haar" else (basis.seq.a, basis.seq.b)
    nodes = [lo, hi] + ([j / 64 for j in range(65)] if family == "haar"
                        else basis.seq.points.tolist())
    pts = draw(st.lists(st.one_of(st.sampled_from(nodes), st.floats(lo, hi)),
                        min_size=1, max_size=50))
    pts = pts + draw(st.lists(st.sampled_from(pts), max_size=10))  # duplicates
    if draw(st.booleans()):
        pts = pts + [lo, hi]
    if draw(st.booleans()):
        pts = sorted(pts)
    return basis, order, np.array(pts)


@st.composite
def coefficients(draw, count):
    """A scalar, vector, complex scalar or complex vector coefficient per term."""
    width = draw(st.sampled_from([None, 1, 3]))
    shape = (count,) if width is None else (count, width)
    size = int(np.prod(shape))
    coeffs = np.array(draw(st.lists(unit, min_size=size, max_size=size))).reshape(shape)
    if draw(st.booleans()):
        imag = np.array(draw(st.lists(unit, min_size=size, max_size=size))).reshape(shape)
        coeffs = coeffs + 1j * imag
    return coeffs


def _terms(basis, idxs, coeffs, order):
    handles = [basis.element(n) for n in idxs]
    return [(h.derivative(order) if order else h, c) for h, c in zip(handles, coeffs)]


@st.composite
def syntheses(draw):
    """A case of ``cases`` with term indices, coefficients and partial-sum counts."""
    basis, order, pts = draw(cases())
    top = basis.indices(80 if isinstance(basis, HaarBasis) else len(basis.seq) - 1 + basis.k)
    idxs = draw(st.lists(st.sampled_from(top), min_size=1, max_size=30))
    coeffs = draw(coefficients(len(idxs)))
    counts = draw(st.none() | st.lists(st.integers(0, len(idxs)), min_size=1, max_size=6))
    return basis, order, pts, idxs, coeffs, counts


@PROPS
@given(syntheses())
# rank 0 alone with vector coefficients: one all-zero block of width 3
@example((HaarBasis(), 0, np.linspace(0.0, 1.0, 5), [1, 2], np.ones((2, 3)), [0]))
def test_table_synthesis_equals_the_term_loop(case):
    basis, order, pts, idxs, coeffs, counts = case
    elem = _element(basis, idxs, coeffs)
    elem = elem if counts is None else elem.partial_sums(counts)
    got = elem.derivative(order)(pts)
    _same(got, term_loop(_terms(basis, idxs, coeffs, order), counts, pts))
    # a 0-d point gives the value at that point
    _same(elem.derivative(order)(pts[0]), term_loop(_terms(basis, idxs, coeffs, order),
                                                    counts, pts[:1])[0])


GLOBAL = {"hermite": HermiteBasis(n_max=24), "fourier": FourierBasis(n_max=24),
          "taylor": TaylorBasis(n_max=24)}


@PROPS
@given(st.sampled_from(sorted(GLOBAL)), st.data())
def test_global_tables_equal_the_term_loop(name, data):
    basis = GLOBAL[name]
    top = basis.indices(24)
    idxs = data.draw(st.lists(st.sampled_from(top), min_size=1, max_size=30), label="idxs")
    coeffs = data.draw(coefficients(len(idxs)), label="coeffs")
    counts = data.draw(st.none() | st.lists(st.integers(0, len(idxs)), min_size=1, max_size=6),
                       label="counts")
    pts = basis.sample_points()
    pts = pts[data.draw(st.permutations(range(len(pts))), label="order")][:60]
    elem = _element(basis, idxs, coeffs)
    elem = elem if counts is None else elem.partial_sums(counts)
    _same(elem(pts), term_loop(_terms(basis, idxs, coeffs, 0), counts, pts))


def test_partial_sums_go_into_the_caller_order_without_a_second_copy():
    # 64 Haar partial sums of 4-vector coefficients on 20,001 shuffled
    # points: each block is written straight into the caller's rows, so the
    # traced peak stays near the result's own bytes; a copy of the whole
    # result back into the caller's order would double it
    basis = HaarBasis()
    idxs = basis.indices(64)
    coeffs = np.random.default_rng(0).standard_normal((len(idxs), 4))
    pts = np.random.default_rng(1).permutation(np.linspace(0.0, 1.0, 20001))
    sums = _element(basis, idxs, coeffs).partial_sums(range(1, 65))
    tracemalloc.start()
    try:
        got = sums(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.shape == (20001, 256)
    assert peak < 1.5 * got.nbytes
    _same(got[:, -4:], _element(basis, idxs, coeffs)(pts))


@pytest.mark.parametrize("values, coeff", [
    (np.ones_like, 2), (lambda x: np.ones_like(x, dtype=np.float32), np.float32(2)),
    (lambda x: np.ones_like(x, dtype=complex), 2.0),
], ids=["int", "float32", "complex"])
def test_a_plain_call_is_its_one_partial_sum(values, coeff):
    # dtype too: a plain call and its partial sums share one output path
    elem = FiniteRankElement([(values, coeff), (values, coeff)])
    pts = np.array([2, 0, 1])
    _same(elem(pts), elem.partial_sums([2])(pts).reshape(3))
    _same(elem(1), elem.partial_sums([2])(1)[0])


def test_scatter_adds_repeated_points_in_term_order():
    # (1e16 + 1) - 1e16 is 0 in order, 1 if the big terms met first
    pts = np.array([0.5, 0.5, 0.25])
    for basis in (HatBasis(), HaarBasis(), CkBasis(k=0)):
        n = 1 if isinstance(basis, HaarBasis) else 2  # h_1 is 1 everywhere, hat 2 at 0.5
        elem = _element(basis, [n, n, n], [1e16, 1.0, -1e16])
        assert elem(pts)[0] == 0.0 and elem(pts)[1] == 0.0
        assert elem.partial_sums([2, 3, 1])(pts)[0].tolist() == [1e16, 0.0, 1e16]


def _semigroup_tables(basis, f, kmax, points):
    """The grid, the rank counts and the tables the semigroup loops share:
    ``(pts, counts, coeffs, lifted, values)`` with ``coeffs`` (K, 1, m),
    ``lifted`` (K, ranks, m) and the element table on the sorted grid split
    per term as ``(lo, hi, values)``, None for a term with no points there."""
    pts = basis.sample_points() if points is None else np.asarray(points)
    idxs = basis.indices(kmax)
    coeffs = basis.coefficients(f, idxs)
    grades = [basis.index_set.grade(n) for n in idxs]
    ranks = sorted({int(np.ceil(g)) for g in grades} | {0, kmax})
    counts = np.searchsorted(np.sort(grades), ranks, side="right").tolist()  # grades <= r
    sums = _element(basis, idxs, coeffs).partial_sums(counts)
    lifted = basis.coefficients(sums, idxs).reshape(len(idxs), len(ranks), -1)
    coeffs = coeffs.reshape(len(idxs), 1, -1)
    _, spts = _ascending(pts)
    lo, hi, table = basis.element_table(idxs, spts)
    starts = np.cumsum(hi - lo) - (hi - lo)
    values = [(a, b, table[s:s + b - a, None, None]) if a < b else None  # (hi - lo, 1, 1)
              for s, a, b in zip(starts.tolist(), lo.tolist(), hi.tolist())]
    return pts, counts, coeffs, lifted, values


def semigroup_loop(basis, f, kmax, points=None):
    """``semigroup_discrepancies`` by its own term loop (see the module docstring)."""
    pts, counts, coeffs, lifted, values = _semigroup_tables(basis, f, kmax, points)
    defect = lifted.copy()  # lambda_n(P_j f) - c_n [n < count of j]
    for r, c in enumerate(counts):
        defect[:c, r] -= coeffs[:c, 0]
    dtype = np.result_type(defect, *{v[2].dtype for v in values if v})
    acc = np.zeros((len(pts),) + defect.shape[1:], dtype=dtype)  # P_k P_j f - P_min(k,j) f, all j
    worst = np.zeros(defect.shape[1:])  # max over the ranks k reached
    hull = len(pts), 0  # rows changed since the last rank
    for i, term in enumerate(values):
        if term is not None:
            lo, hi, vals = term
            acc[lo:hi] += vals * defect[i]
            hull = min(hull[0], lo), max(hull[1], hi)
        if i + 1 in counts:
            if hull[0] < hull[1]:
                np.maximum(worst, np.abs(acc[slice(*hull)]).max(axis=0), out=worst)
            hull = len(pts), 0
    return worst.max(axis=0)


def two_sum_loop(basis, f, kmax, points=None):
    """The semigroup check as two sums, P_k P_j f and P_k f, and their
    difference against P_min(k,j) f at every rank k: the reference the
    defect sum of ``semigroup_loop`` replaced."""
    pts, counts, coeffs, lifted, values = _semigroup_tables(basis, f, kmax, points)
    dtype = np.result_type(lifted, coeffs, *{v[2].dtype for v in values if v})
    outer = np.zeros((len(pts),) + lifted.shape[1:], dtype=dtype)  # P_k P_j f, all j
    direct = np.zeros((len(pts), 1, coeffs.shape[2]), dtype=dtype)  # P_k f
    target = np.zeros_like(outer)  # P_min(k,j) f, all j
    worst = np.zeros(outer.shape)  # entrywise max over the ranks k reached
    hull = len(pts), 0  # rows changed since the last comparison
    for i, term in enumerate(values):
        if term is not None:
            lo, hi, vals = term
            outer[lo:hi] += vals * lifted[i]
            direct[lo:hi] += vals * coeffs[i]
            hull = min(hull[0], lo), max(hull[1], hi)
        if i + 1 in counts:
            # ranks j whose count is not below this one: P_min(k,j) f = P_k f;
            # rows outside the hull already hold that, and their max
            rows = slice(*hull)
            target[rows, counts.index(i + 1):] = direct[rows]
            np.maximum(worst[rows], np.abs(outer[rows] - target[rows]), out=worst[rows])
            hull = len(pts), 0
    return worst.reshape(-1, worst.shape[2]).max(axis=0)


def summation_bound(basis, f, kmax, points=None):
    """Per component, a bound on |defect sum - two sums| from Higham's
    recursive-summation bound (Accuracy and Stability of Numerical
    Algorithms, 2nd ed., section 4.2).

    With the same lifted coefficients lambda_n(P_j f) and coefficients c_n,
    each form is within gamma_(K+4) S of the exact residual, where
    S = sum_n |f_n(x)| (|lambda_n(P_j f)| + |c_n|) over the K terms:
    gamma_(K-1) for the K-term sums, one rounding for the products (sqrt(2)
    gamma_2 <= gamma_3 for complex ones) and one for the subtraction, of
    the coefficients or of the sums.  A max moves by no more than its
    entries, so the discrepancies differ by at most 2 gamma_(K+4) max S.
    """
    pts, _, coeffs, lifted, values = _semigroup_tables(basis, f, kmax, points)
    dense = np.zeros((len(pts), len(values)))  # |f_n| on the sorted grid
    for i, term in enumerate(values):
        if term is not None:
            dense[term[0]:term[1], i] = np.abs(term[2][:, 0, 0])
    weight = (np.abs(lifted) + np.abs(coeffs)).reshape(len(values), -1)
    total = (dense @ weight).reshape(len(pts), *lifted.shape[1:]).max(axis=(0, 1))
    u = np.finfo(float).eps / 2
    terms = len(values) + 4
    return 2 * terms * u / (1 - terms * u) * total


def _semigroup_forms_agree(basis, f, kmax, points=None):
    """The defect sum equals its term loop bit for bit, and the two-sum
    reference within ``summation_bound``; returns the defect sum."""
    got = semigroup_discrepancies(basis, f, kmax, points)
    _same(got, semigroup_loop(basis, f, kmax, points))
    gap = np.abs(got - two_sum_loop(basis, f, kmax, points))
    assert np.all(gap <= summation_bound(basis, f, kmax, points))
    return got


@pytest.mark.parametrize("shuffled", [False, True])
@pytest.mark.parametrize("name", ["haar", "hat-dyadic", "ck-dyadic", "hermite", "fourier",
                                  "taylor"])
def test_semigroup_equals_its_term_loop(name, shuffled):
    basis = build_basis(name, {"n_max": 16} if "n_max" in CLI_FAMILIES[name].params else None)
    f = vector_stack([fn for _, fn in corpus(basis.name)])
    pts = basis.sample_points()
    if shuffled:
        pts = pts[np.random.default_rng(0).permutation(len(pts))]
    got = _semigroup_forms_agree(basis, f, 16, pts)
    assert got.shape == (8,)


def _chunk_counts(patch, entries=None):
    """The partial-sum counts of each rank chunk of ``semigroup_discrepancies``,
    recorded as it runs; ``entries`` replaces its chunk budget."""
    chunks = []
    original = FiniteRankElement.partial_sums

    def spied(self, counts):
        chunks.append(list(counts))
        return original(self, counts)

    patch.setattr(FiniteRankElement, "partial_sums", spied)
    if entries is not None:
        patch.setattr(basis_core, "_SEMIGROUP_ENTRIES", entries)
    return chunks


@pytest.mark.parametrize("name", ["haar", "hat-dyadic", "ck-dyadic", "hermite", "fourier",
                                  "taylor"])
def test_semigroup_rank_chunks_keep_every_bit(name):
    # a budget of one entry makes each chunk one rank; the default budget
    # takes kmax 16 in one chunk
    basis = build_basis(name, {"n_max": 16} if "n_max" in CLI_FAMILIES[name].params else None)
    funcs = [fn for _, fn in corpus(basis.name)]
    for f in (funcs[4], vector_stack(funcs)):
        with pytest.MonkeyPatch.context() as patch:
            whole = _chunk_counts(patch)
            want = semigroup_discrepancies(basis, f, 16)
        with pytest.MonkeyPatch.context() as patch:
            ranks = _chunk_counts(patch, entries=1)
            got = semigroup_discrepancies(basis, f, 16)
        assert len(whole) == 1 and [[c] for c in whole[0]] == ranks
        _same(got, want)


@PROPS
@given(general_sequences(), st.integers(0, 2), st.integers(0, 12), st.integers(1, 5))
def test_semigroup_rank_chunks_keep_every_bit_on_general_sequences(seq, k, kmax, entries):
    # hats (k = 0) and C^k elements on non-dyadic sequences, in chunks of
    # one to five ranks against one chunk and the term loop
    basis = CkBasis(k, seq)
    kmax = min(kmax, len(seq) + k - 1)  # the last index
    f = vector_stack([fn for _, fn in corpus("ck")])
    pts = basis.sample_points()
    want = semigroup_discrepancies(basis, f, kmax, pts)
    with pytest.MonkeyPatch.context() as patch:
        chunks = _chunk_counts(patch, entries=entries * len(pts) * 8)
        got = semigroup_discrepancies(basis, f, kmax, pts)
    assert max(map(len, chunks)) <= entries
    _same(got, want)
    _same(got, _semigroup_forms_agree(basis, f, kmax, pts))


@pytest.mark.parametrize("make", [HatBasis, lambda: HermiteBasis(n_max=16)], ids=["hat", "hermite"])
def test_a_perturbed_functional_is_reported_at_its_size(make):
    # lambda_5 off by 1e-6: then P_k P_j f - P_min(k,j) f is 1e-6 f_5 for
    # every k of grade >= 5, up to rounding, and no term adds more
    basis = make()
    coefficients = basis.coefficients

    def perturbed(f, idxs):
        out = coefficients(f, idxs)
        out[np.asarray(idxs) == 5] += 1e-6
        return out

    basis.coefficients = perturbed
    f = corpus(basis.name)[4][1]
    size = 1e-6 * np.max(np.abs(basis.element(5)(basis.sample_points())))
    got = _semigroup_forms_agree(basis, f, 16)
    assert abs(got[0] - size) <= 1e-12
    assert abs(two_sum_loop(basis, f, 16)[0] - size) <= 1e-12


@pytest.mark.parametrize("call", [
    lambda f: projection_algebra_check(HaarBasis(), f, -1, 2),
    lambda f: projection_algebra_check(HaarBasis(), f, True, 2),
    lambda f: semigroup_discrepancies(HatBasis(), f, 4, [0.1, np.nan]),
    lambda f: hermite_tail_bound_check(f, 1, 2.0, 4.0, grid_points=0),
    lambda f: hermite_tail_bound_check(f, 1, 2.0, 4.0, grid_points=2.5),
    lambda f: hermite_tail_bound_check(f, 1, 2.0, 4.0, grid_points=True),
    lambda f: hermite_tail_bound_check(f, 1, True, 4.0),
    lambda f: hermite_tail_bound_check(f, 1, 2.0, np.inf),
    lambda f: hermite_tail_bound_check(f, 1, 2.0, 4.0, panels_per_unit=0),
    lambda f: hermite_tail_bound_check(f, 1, 2.0, 4.0, panels_per_unit=np.nan),
], ids=["negative-k", "bool-k", "nan-point", "zero-grid", "float-grid", "bool-grid",
        "bool-inner", "inf-outer", "zero-panels", "nan-panels"])
def test_bad_arguments_are_refused_before_f_runs(call):
    points = []

    def f(x):
        points.append(len(x))
        return np.asarray(x)

    with pytest.raises(InputError):
        call(f)
    assert points == []


@pytest.mark.parametrize("basis", [HaarBasis(), HatBasis(), CkBasis(k=2),
                                   HatBasis(DenseSequence([-1.0, 2.0, 0.3, 1.7]))])
def test_points_outside_the_domain_raise(basis):
    elem = materialize(basis, reg("x"), 3)
    a, b = (0.0, 1.0) if isinstance(basis, HaarBasis) else (basis.seq.a, basis.seq.b)
    for bad in ([b + 0.5], [a - 0.1, a], [a, b, b + 1e-9], b + 1.0):
        with pytest.raises(InputError):
            elem(np.array(bad))
        with pytest.raises(InputError):
            elem.partial_sums([1, 3])(np.array(bad))
        if not isinstance(basis, HaarBasis):
            with pytest.raises(InputError):
                elem.derivative(1)(np.array(bad))


def test_haar_refuses_non_finite_points():
    # a NaN once switched the range test off: element(1) at [nan, 2, -1, 0.5]
    # gave [1, 1, 1, 1], and P_4 cos at nan the finite value 0.8415
    basis = HaarBasis()
    elem = materialize(basis, reg("cos"), 4)
    handles = [basis.element(1), basis.element(2), elem, elem.partial_sums([1, 3])]
    for bad in ([np.nan, 2.0, -1.0, 0.5], [np.nan], [0.25, np.nan, 0.75], [0.5, np.inf], np.nan):
        for handle in handles:
            with pytest.raises(InputError, match="finite points of"):
                handle(np.array(bad))
    with pytest.raises(InputError, match="finite points of"):
        basis.element_table([1, 2], np.array([0.25, np.nan, 0.75]))


@pytest.mark.parametrize("basis, n", [(HatBasis(), 3), (CkBasis(k=2), 5),
                                      (HatBasis(DenseSequence([-1.0, 2.0, 0.3, 1.7])), 3)])
def test_hat_and_ck_refuse_non_finite_points(basis, n):
    # a NaN once passed the range test of ``PiecewisePolynomial``: hat element
    # 3 at [nan, 2] gave [nan, 0], C^2 element 5 there [nan, 0.4375]
    elem = materialize(basis, reg("cos"), 3)
    handles = [basis.element(n), elem, elem.partial_sums([1, 3]), elem.derivative(1)]
    for bad in ([np.nan, 2.0], [np.nan], [0.25, np.nan, 0.75], [0.5, np.inf], np.nan):
        for handle in handles:
            with pytest.raises(InputError, match="finite points of"):
                handle(np.array(bad))


def test_haar_and_hermite_elements_have_no_derivative():
    for basis in (HaarBasis(), GLOBAL["hermite"]):
        with pytest.raises(InputError, match="derivative support"):
            materialize(basis, reg("x") if isinstance(basis, HaarBasis) else reg("gauss"),
                        4).derivative(1)


def test_synthesis_makes_no_element_handles(monkeypatch):
    made = []
    original = interval_bases.schauder_hat

    def counted(seq, n):
        made.append(n)
        return original(seq, n)

    monkeypatch.setattr(interval_bases, "schauder_hat", counted)
    basis = HatBasis()
    elem = materialize(basis, reg("sin-pi"), 256)
    pts = np.linspace(0.0, 1.0, 1001)
    elem.partial_sums([16, 256]).derivative(1)(pts)
    elem(pts)
    assert len(elem.terms) == 257 and made == []
    handle, coeff = elem.terms[3]
    assert made == [3] and coeff == elem.coeffs[3]
    assert np.array_equal(handle(pts), basis.element(3)(pts))


# -- piece reuse --------------------------------------------------------------


@pytest.mark.parametrize("k", [0, 2, 3])
def test_reused_pieces_equal_a_fresh_basis(k):
    # one instance reads lists A, B (A's entries in another order), A again,
    # a prefix of A and a superset of A; a stale reuse of the pieces kept
    # for an earlier list would differ from a fresh instance's table
    seq = DenseSequence.dyadic(5)
    shared = CkBasis(k, seq)
    a = [0, 5, 1, 17, 2, 30, 9, k + 1]
    lists = [a, a[::-1], a, a[:5], a + [3, 31, 4]]
    point_sets = [np.linspace(seq.a, seq.b, 101), np.sort(seq.points)]
    for idxs in lists:
        for pts in point_sets:
            for order in range(k + 3):
                got = shared.element_table(idxs, pts, order)
                want = CkBasis(k, seq).element_table(idxs, pts, order)
                for mine, fresh in zip(got, want):
                    _same(mine, fresh)


@pytest.mark.parametrize("k", [0, 2])
def test_point_checks_build_no_pieces(k, monkeypatch):
    # value_rows checks C^k points by the tables' rule without a table of its
    # own, so it builds the piece sets the rows build and no other
    basis = CkBasis(k)
    sums = materialize(basis, reg("cos"), 4).partial_sums([2, 4])
    pts = basis.sample_points()
    builds = []
    monkeypatch.setattr(interval_bases, "_hat_pieces",
                        lambda *a, build=interval_bases._hat_pieces: builds.append(a) or build(*a))
    counts = []
    for rows in (basis._value_rows, basis.value_rows):
        basis._pieces = None
        builds.clear()
        rows(sums, pts)
        counts.append(len(builds))
    basis._checked_points(pts)
    assert counts[1] == counts[0] and len(builds) == counts[0]


def test_threads_sharing_a_basis_read_their_own_pieces():
    # each thread reads its own index list on one instance, whose kept pieces
    # the others keep replacing; every table must still be its own list's
    seq = DenseSequence.dyadic(5)
    shared = CkBasis(2, seq)
    pts = np.linspace(seq.a, seq.b, 65)
    lists = [[0, 5, 1, 17], [17, 1, 5, 0], [0, 5, 1], [3, 30, 2, 8, 9], [0, 5, 1, 17, 4], [33]]
    want = {i: [CkBasis(2, seq).element_table(idxs, pts, order) for order in range(4)]
            for i, idxs in enumerate(lists)}
    wrong = []

    def read(i):
        for _ in range(40):
            for order in range(4):
                got = shared.element_table(lists[i], pts, order)
                if any(a.tobytes() != b.tobytes() for a, b in zip(got, want[i][order])):
                    wrong.append((i, order))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(i,)) for i in range(len(lists))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


# -- index checks ----------------------------------------------------------

FAMILIES = {
    "haar": (HaarBasis(), "x"), "hat": (HatBasis(), "x"), "ck": (CkBasis(k=2), "x"),
    "hermite": (GLOBAL["hermite"], "gauss"), "fourier": (GLOBAL["fourier"], "cos"),
    "taylor": (GLOBAL["taylor"], "exp-z"),
}


@pytest.mark.parametrize("name", sorted(FAMILIES))
@pytest.mark.parametrize("bad", [2.7, 2.0, np.float64(2.0), "3", True, np.bool_(True), None])
def test_non_integer_indices_are_refused(name, bad):
    basis, fn = FAMILIES[name]
    named = re.escape(f"index {bad!r}")
    with pytest.raises(InputError, match=named):
        basis.coefficients(reg(fn), [3, bad])
    with pytest.raises(InputError, match=named):
        basis.element(bad)
    with pytest.raises(InputError, match=named):
        basis.element_table([3, bad], np.linspace(0.0, 1.0, 5) if name != "taylor"
                            else np.exp(1j * np.linspace(0.0, 1.0, 5)))


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_numpy_integer_indices_are_members(name):
    basis, fn = FAMILIES[name]
    idxs = basis.indices(3)
    assert np.array_equal(basis.coefficients(reg(fn), [np.int64(n) for n in idxs]),
                          basis.coefficients(reg(fn), idxs))


@pytest.mark.parametrize("name", ["haar", "hat", "ck"])
def test_indices_past_int64_or_the_sequence_are_refused_by_name(name):
    # IndexSet.check names the first bad entry: one past the int64 range,
    # or, for the hats and C^k elements, one past the dense sequence
    basis = FAMILIES[name][0]
    f, calls = _counting(name)
    unit = np.linspace(0.0, 1.0, 5)
    bads = [2 ** 63, 2 ** 70, np.uint64(2 ** 63)]
    if name != "haar":
        size = len(basis.seq) + basis.k  # C^k: k jets, then one hat per sequence point
        bads += [size, np.int64(size + 5)]
        assert len(basis.coefficients(reg("x"), [size - 1])) == 1  # the last index is a member
    for bad in bads:
        why = "past the int64 range" if bad >= 2 ** 63 else "out of range"
        named = re.escape(f"index {bad!r} is {why}")
        with pytest.raises(InputError, match=named):
            basis.coefficients(f, [3, bad, -1])
        with pytest.raises(InputError, match=named):
            basis.element_table([bad, 3], unit)
    assert calls == []


def test_fourier_aliasing_names_the_callers_index():
    one, two = FourierBasis(n_max=4), FourierBasis(d=2, n_max=4)  # 64-point grids: modes to 31
    calls = []

    def f(x):
        calls.append(len(x))
        return np.cos(np.sum(np.reshape(x, (len(x), -1)), axis=1))

    for basis, idxs, named in (
            (one, [3, -32, 40], "mode -32 exceeds"),
            (one, [np.int64(40)], "mode np.int64(40) exceeds"),
            (one, [2, -2 ** 63], f"mode {-2 ** 63} exceeds"),  # |-2^63| is no int64
            (two, [(1, 1), (0, 32)], "mode (0, 32) exceeds"),
            (two, [(-32, 0)], "mode (-32, 0) exceeds")):
        with pytest.raises(InputError, match=re.escape(named) + " the aliasing guard 31"):
            basis.coefficients(f, idxs)
    assert calls == []
    # the guard's edges are valid modes
    assert np.allclose(one.coefficients(f, [-31, 31]), 0.0, atol=1e-12)
    assert np.allclose(two.coefficients(f, [(-31, 31), (31, -31)]), 0.0, atol=1e-12)


EMPTY = {**{name: basis for name, (basis, _) in FAMILIES.items()},
         "hermite-d2": HermiteBasis(d=2, n_max=4), "fourier-d2": FourierBasis(d=2, n_max=4)}


@pytest.mark.parametrize("name", sorted(EMPTY))
def test_empty_index_lists_give_zero_rows(name):
    basis = EMPTY[name]
    d = getattr(basis, "d", 1)
    index_set = basis.index_set
    shape = (0,) if index_set.kind == "linear" else (0, index_set.dim)
    for empty in ([], (), iter([]), np.zeros(0, dtype=np.int64)):
        got = index_set.check(empty)
        assert got.shape == shape and got.dtype == np.int64
    f = (lambda x: np.exp(-0.5 * np.sum(np.reshape(x, (len(x), -1)) ** 2, axis=1))) if d > 1 \
        else reg(FAMILIES[name][1])
    assert len(basis.coefficients(f, [])) == 0
    pts = basis.sample_points()[:7]
    lo, hi, values = basis.element_table([], np.sort(pts) if pts.ndim == 1 and name != "taylor" else pts)
    assert len(lo) == len(hi) == len(values) == 0


@pytest.mark.parametrize("d, grade", [(2, 8), (3, 6)])
def test_hermite_tables_at_d_2_and_3_equal_the_term_loop(d, grade):
    # one recurrence table per axis, rows multiplied in from the left: the
    # bits of every handle, on shuffled points, in every partial sum
    basis = HermiteBasis(d=d, n_max=grade)
    rng = np.random.default_rng(2026 + d)
    pts = basis.sample_points()
    pts = pts[rng.permutation(len(pts))[:700]]
    idxs = basis.indices(grade)
    rng.shuffle(idxs)
    lo, hi, values = basis.element_table(idxs, pts)
    assert np.all(lo == 0) and np.all(hi == len(pts))
    want = np.concatenate([basis.element(n)(pts) for n in idxs])
    assert values.tobytes() == want.tobytes()
    for coeffs in (rng.standard_normal(len(idxs)), rng.standard_normal((len(idxs), 3)) * (1 + 1j)):
        for counts in (None, [0, 1, len(idxs) // 2, len(idxs)]):
            elem = _element(basis, idxs, coeffs)
            elem = elem if counts is None else elem.partial_sums(counts)
            _same(elem(pts), term_loop(_terms(basis, idxs, coeffs, 0), counts, pts))


# -- point checks ----------------------------------------------------------

BAD_POINTS = {
    "k-by-1": np.array([[0.25], [0.5], [0.75]]),
    "k-by-2": np.array([[0.25, 0.5], [0.5, 0.75]]),
    "complex": [0.25 + 1j, 0.5],
    "nan": [0.25, np.nan, 0.5],
    "bool-entry": [0.25, True],
    "string": ["0.25", "0.5"],
}


def _counting(name):
    """The family's test function, counting its evaluations."""
    f, calls = reg(FAMILIES[name][1]), []

    def counted(x):
        calls.append(len(x))
        return f(x)

    return counted, calls


@pytest.mark.parametrize("name, kind", [
    # Taylor monomials are defined on the complex plane
    (name, kind) for name in sorted(FAMILIES) for kind in sorted(BAD_POINTS)
    if (name, kind) != ("taylor", "complex")])
def test_unreadable_points_are_refused_before_f_runs(name, kind):
    # (k, 1) points once crashed Haar, hat, C^k and Fourier sums in the
    # running sum after f had run, and complex points lost their imaginary
    # part with a ComplexWarning
    basis, bad = FAMILIES[name][0], BAD_POINTS[kind]
    f, calls = _counting(name)
    elem = materialize(basis, reg(FAMILIES[name][1]), 4)
    if (name, kind) == ("hermite", "k-by-1"):
        # d = 1 Hermite reads (k, 1) points as (k,), as hermite_function does
        column = bad[:, 0]
        assert partial_sum(basis, f, 4, bad).tobytes() == partial_sum(basis, f, 4, column).tobytes()
        assert elem(bad).tobytes() == elem(column).tobytes()
        return
    with pytest.raises(InputError):
        partial_sum(basis, f, 4, bad)
    assert calls == []
    for handle in (elem, elem.partial_sums([1, 3])):
        with pytest.raises(InputError):
            handle(bad)


@pytest.mark.parametrize("basis", [HermiteBasis(d=2, n_max=4), FourierBasis(d=2, n_max=4)],
                         ids=["hermite-d2", "fourier-d2"])
def test_complex_and_non_finite_points_are_refused_in_the_handle_loop(basis):
    # the handles once cast complex points to float, dropping the imaginary part
    calls = []

    def f(x):
        calls.append(len(x))
        return np.exp(-0.5 * np.sum(np.asarray(x) ** 2, axis=1))

    elem = materialize(basis, f, 2)
    calls.clear()
    for bad in (np.array([[0.25 + 1j, 0.5], [0.5, 0.25]]), np.array([[0.25, np.nan], [0.5, 0.25]])):
        with pytest.raises(InputError, match="finite points of"):
            partial_sum(basis, f, 2, bad)
        with pytest.raises(InputError, match="finite points of"):
            elem(bad)
        with pytest.raises(InputError, match="finite points of"):
            basis.element(basis.indices(1)[1])(bad)
    assert calls == []


def test_interval_and_hermite_tables_never_reach_the_handle_loop(monkeypatch):
    # the Haar, hat, C^k and d = 1 Hermite tables are their families' only
    # synthesis path: sums, derivative tables and refusals all come from them
    def refuse(*args, **kwargs):
        raise AssertionError("the handle loop was reached")

    monkeypatch.setattr(basis_core, "_handle_table", refuse)
    unit = np.linspace(0.0, 1.0, 33)
    line = np.linspace(-4.0, 4.0, 33)

    def gauss(x):
        return np.exp(-0.5 * np.sum(np.asarray(x) ** 2, axis=1))

    line_bad = [BAD_POINTS["k-by-2"], BAD_POINTS["complex"], BAD_POINTS["nan"]]
    for basis, f, pts, bads in (
            (HaarBasis(), reg("x"), unit, line_bad + [[0.0, np.inf]]),
            (HatBasis(), reg("cos"), unit, line_bad + [[0.0, np.inf]]),
            (CkBasis(k=2), reg("cos"), unit, line_bad + [[0.0, np.inf]]),
            # d = 1 Hermite reads (k, 1) points as (k,)
            (GLOBAL["hermite"], reg("gauss"), line, line_bad + [[-4.0, np.inf]]),
            (HermiteBasis(d=2, n_max=8), gauss, tensor_grid(np.linspace(-4.0, 4.0, 6), 2),
             [np.zeros((3, 3)), np.zeros(3), [[0.25 + 1j, 0.5]], [[0.25, np.nan]]]),
            (HermiteBasis(d=3, n_max=8), gauss, tensor_grid(np.linspace(-4.0, 4.0, 4), 3),
             [np.zeros((3, 2)), [[0.25, 0.5, np.inf]]])):
        elem = materialize(basis, f, 8)
        assert np.all(np.isfinite(elem(pts)))
        assert elem.partial_sums([1, 4, len(elem)])(pts[::-1]).shape == (len(pts), 3)
        d = getattr(basis, "d", 1)
        assert partial_sum(basis, f, 8, pts[:, None] if pts.ndim == 1 and basis.name == "hermite"
                           else pts).shape == (len(pts),)
        if isinstance(basis, CkBasis):
            assert np.all(np.isfinite(elem.derivative(1)(pts)))
            assert np.all(np.isfinite(elem.partial_sums([2, 5]).derivative(2)(pts)))
        else:
            with pytest.raises(InputError, match="derivative support"):
                elem.derivative(1)
        for bad in bads:
            with pytest.raises(InputError):
                elem(bad)
        assert d == 1 or basis.element_table(basis.indices(2), pts)[2].size == len(basis.indices(2)) * len(pts)


# -- Taylor contour rounding ----------------------------------------------------


@pytest.mark.parametrize("rho", [100.0, 1000.0])
def test_taylor_contour_lost_to_rounding_is_refused(tmp_path, capsys, rho):
    cfg = tmp_path / "rho.json"
    cfg.write_text(f'{{"basis": {{"name": "taylor", "contour_radius": {rho}}}}}')
    assert main(["expand", "--fn", "poly-z", "--max-n", "4", "--config", str(cfg)]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == "numeric"
    assert f"contour_radius {rho!r}" in doc["message"] and "order-0" in doc["message"]
    with pytest.raises(NumericError, match="order-0"):
        TaylorBasis(contour_radius=rho).coefficients(reg("poly-z"), range(5))


def test_taylor_rounding_gate_reads_the_requested_orders():
    # at rho = 1000 order 0 may lose 1.8e-6 to rounding, order 4 only 1.8e-18
    basis = TaylorBasis(contour_radius=1000.0)
    assert abs(basis.coefficients(reg("poly-z"), [4])[0]) < 1e-15
    with pytest.raises(NumericError, match="order-0"):
        basis.coefficients(reg("poly-z"), [4, 0])


def test_taylor_contour_within_tolerance_is_kept():
    # the radius 1 estimate is 8 eps max|f| = 7.1e-15 for poly-z
    basis = TaylorBasis(contour_radius=1.0)
    coeffs = basis.coefficients(reg("poly-z"), range(5))
    assert np.max(np.abs(coeffs - [1.0, 2.0, 0.0, 1.0, 0.0])) < 1e-14

