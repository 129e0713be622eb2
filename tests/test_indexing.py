import pytest

from schauder import IndexSet, InputError


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


def test_bad_kind():
    with pytest.raises(InputError):
        IndexSet("tree")
