import math
import re

import numpy as np
import pytest

from schauder import (
    DenseSequence,
    ExpansionOperator,
    FiniteRankElement,
    HaarBasis,
    HatBasis,
    IndexSet,
    InputError,
    ValueSpace,
    biorthogonality_matrix,
    haar_constancy_intervals,
)
from schauder.quadrature import box_rule, gauss_hermite_rule, gauss_legendre_rule, periodic_rule


def test_linear_grades_and_enumeration():
    s = IndexSet("linear", origin=1)
    assert s.grade(7) == 7
    assert s.up_to(4) == [1, 2, 3, 4]
    assert s.validate_member(1) == 1
    with pytest.raises(InputError):
        s.validate_member(0)


def test_multi_index_l1_grade():
    s = IndexSet("multi", dim=2)
    assert s.grade((2, 3)) == 5
    # graded order, lexicographic within a grade
    assert s.up_to(1) == [(0, 0), (0, 1), (1, 0)]
    assert s.up_to(2)[3:] == [(0, 2), (1, 1), (2, 0)]


def test_lattice_euclidean_grade():
    s = IndexSet("lattice", dim=2)
    assert s.grade((1, 1)) == pytest.approx(2.0 ** 0.5)
    assert s.up_to(1) == [(0, 0), (-1, 0), (0, -1), (0, 1), (1, 0)]


def test_lattice_one_dim_accepts_bare_ints():
    s = IndexSet("lattice", dim=1)
    assert s.grade(-3) == 3.0
    assert s.up_to(2) == [(0,), (-1,), (1,), (-2,), (2,)]
    assert s.validate_member(-2) == -2


def test_validate_member_errors():
    s = IndexSet("multi", dim=2)
    with pytest.raises(InputError):
        s.validate_member((1,))
    with pytest.raises(InputError):
        s.validate_member((-1, 0))
    lin = IndexSet("linear", origin=1)
    with pytest.raises(InputError):
        lin.validate_member(0)


def test_check_gives_one_int64_array():
    # (k,) for a linear set, (k, dim) otherwise, numpy integers and bare
    # ints of a one-dimensional lattice included
    for index_set, idxs, want in (
            (IndexSet("linear", origin=1), [3, 1, np.int64(2)], [3, 1, 2]),
            (IndexSet("multi", dim=2), [(1, 2), (0, np.uint8(0))], [[1, 2], [0, 0]]),
            (IndexSet("lattice", dim=1), [-2, (3,), np.int32(-1)], [[-2], [3], [-1]]),
            (IndexSet("lattice", dim=2), [(-2 ** 63, 2 ** 63 - 1)], [[-2 ** 63, 2 ** 63 - 1]])):
        got = index_set.check(idxs)
        assert got.dtype == np.int64 and got.tolist() == want


@pytest.mark.parametrize("index_set, idxs, below, named", [
    # the first bad entry is named, whatever makes it bad
    (IndexSet("linear"), [1, 5, 7, -1], 5, "index 5 is out of range"),
    (IndexSet("linear"), [1, -1, 5], 5, "index -1 not in linear"),
    (IndexSet("linear"), [1, 2 ** 63, -1], None, f"index {2 ** 63} is past the int64 range"),
    (IndexSet("linear"), [1, np.uint64(2 ** 64 - 1)], None, "past the int64 range"),
    (IndexSet("multi", dim=2), [(0, 1), (4, 0)], 4, "index (4, 0) is out of range"),
    (IndexSet("multi", dim=2), [(0, 1), (0, 2 ** 63), (0, -1)], None, "index (0, 9223372036854775808) is past"),
    (IndexSet("lattice", dim=2), [(0, 1), (-2 ** 63 - 1, 0)], None, "past the int64 range"),
    (IndexSet("lattice", dim=1), [2, [3]], None, "index [3] not in lattice"),
])
def test_check_refuses_the_first_bad_entry_by_name(index_set, idxs, below, named):
    with pytest.raises(InputError, match=re.escape(named)):
        index_set.check(idxs, below=below)
    # the bound itself is the first index refused
    if below is not None:
        assert len(index_set.check(idxs[:1], below=below)) == 1


def test_bad_kind():
    with pytest.raises(InputError):
        IndexSet("tree")


def _partial_sums(counts):
    return FiniteRankElement([(HatBasis().element(n), 1.0) for n in range(3)]).partial_sums(counts)


@pytest.mark.parametrize("call", [
    lambda: box_rule(1.0, True),
    lambda: gauss_hermite_rule(5, d=True),
    lambda: periodic_rule(8, d=True),
    lambda: (gauss_legendre_rule(0, 1, panels=1), gauss_legendre_rule(0, 1, panels=True)),
    lambda: (gauss_legendre_rule(0, 1, order=1), gauss_legendre_rule(0, 1, order=True)),
    lambda: (gauss_legendre_rule(0, 1, order=2), gauss_legendre_rule(0, 1, order=2.0)),
    lambda: ValueSpace(True),
    lambda: DenseSequence.dyadic(True),
    lambda: DenseSequence.dyadic(2.5),
    lambda: haar_constancy_intervals(True),
    lambda: _partial_sums([True]),
    lambda: _partial_sums([1.5]),
    lambda: (gauss_hermite_rule(1), gauss_hermite_rule(True)),
    lambda: periodic_rule(True),
    lambda: biorthogonality_matrix(HatBasis(), 2.5),
    lambda: biorthogonality_matrix(HatBasis(), -1),
    lambda: biorthogonality_matrix(HatBasis(), np.bool_(True)),
], ids=["box-d", "hermite-d", "periodic-d", "panels", "order", "order-float", "value-space",
        "dyadic-bool", "dyadic-float", "haar-interval", "counts-bool", "counts-float",
        "hermite-m", "periodic-n", "biorth-float", "biorth-negative", "biorth-np-bool"])
def test_sizes_and_counts_are_integers(call):
    # a bool is not 1 and a float is not truncated, even after the integer's rule is cached
    with pytest.raises(InputError, match="must be an integer in"):
        call()


@pytest.mark.parametrize("index_set, k", [
    (IndexSet("linear"), math.nan), (IndexSet("linear"), math.inf),
    (IndexSet("multi", dim=2), math.inf), (IndexSet("lattice", dim=2), np.nan),
    (IndexSet("multi", dim=2), -math.inf),
    (IndexSet("linear"), True), (IndexSet("multi", dim=2), np.bool_(False)),
    (IndexSet("linear"), "2"), (IndexSet("lattice", dim=2), 1 + 0j), (IndexSet("linear"), None),
])
def test_up_to_refuses_non_finite_thresholds(index_set, k):
    # a threshold is a finite real: not a bool, a string or a complex
    with pytest.raises(InputError, match="truncation threshold"):
        index_set.up_to(k)
    with pytest.raises(InputError, match="truncation rank"):
        ExpansionOperator(HaarBasis(), k)
    # numpy ints and floats are reals
    for n in (np.int64(2), np.float64(2.5), np.float32(2.5)):
        assert index_set.up_to(n) == index_set.up_to(n.item())
        assert ExpansionOperator(HaarBasis(), n).k == n
