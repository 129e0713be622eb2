"""Weighted sequence spaces: seminorms, unit decompositions, tail profiles."""

import numpy as np
import pytest

from schauder import (
    InputError,
    KotheMatrix,
    SeminormSpec,
    TruncatedSequence,
    ValueSpace,
    projection_error_profile,
    reassemble,
    unit_decomposition,
)


def _seq(values, indices=None, **kw):
    values = np.asarray(values, dtype=float)
    if indices is None:
        indices = tuple(range(1, len(values) + 1))
    return TruncatedSequence(tuple(indices), values, **kw)


def _seminorm(x, kind, **kw):
    # the rank-0 tail of a sequence with positive indices is all of it
    return projection_error_profile(x, kind, [0], **kw)[0][1]


# -- containers --------------------------------------------------------------


def test_truncated_sequence_validation():
    with pytest.raises(InputError):
        TruncatedSequence((1, 1), np.array([1.0, 2.0]))
    with pytest.raises(InputError):
        TruncatedSequence((1,), np.array([1.0, 2.0]))


def test_values_are_read_only():
    x = _seq([1.0, 2.0])
    with pytest.raises(ValueError):
        x.values[0] = 5.0


def test_kothe_matrix_validation_and_entry():
    km = KotheMatrix([[1.0, 2.0, 4.0], [1.0, 3.0, 9.0]])
    assert km.entry(2, 3) == 9.0
    with pytest.raises(InputError):
        KotheMatrix([[1.0, -1.0]])


def test_kothe_from_function_is_one_based():
    km = KotheMatrix.from_function(lambda k, j: float(k) ** j, 4, 3)
    assert km.rows == 4 and km.cols == 3
    assert km.entry(3, 2) == 9.0


# -- seminorms ---------------------------------------------------------------


def test_null_sequence_seminorm_frozen():
    # weights k^j against x_k = 1/k: the j=1 row tops out at exactly 1
    km = KotheMatrix.from_function(lambda k, j: float(k) ** (j - 1), 30, 3)
    x = _seq([1.0 / k for k in range(1, 31)], space="c0")
    assert _seminorm(x, "c0", matrix=km, j=2) == 1.0
    assert _seminorm(x, "c0", matrix=km, j=1) == 1.0  # j=1 row is all ones, sup is x_1


def test_rapid_decay_seminorm_matches_scan():
    x = _seq([2.0 ** (-k) for k in range(1, 41)], space="s")
    got = _seminorm(x, "s", j=2)
    want = max((1.0 + k * k) * abs(v) for k, v in zip(range(1, 41), x.values))
    assert got == want
    assert abs(got - 1.25) <= 0.0  # attained at k = 2 and k = 3


def test_rapid_decay_seminorm_order_zero():
    x = _seq([2.0 ** (-k) for k in range(1, 11)], space="s")
    assert _seminorm(x, "s", j=0) == 0.5


def test_coordinate_seminorm():
    x = _seq([3.0, 1.0, 4.0, 1.0, 5.0], space="en")
    assert _seminorm(x, "en", l=3) == 4.0
    assert _seminorm(x, "en", l=1) == 3.0
    with pytest.raises(InputError):
        _seminorm(x, "en", l=0)
    with pytest.raises(InputError):
        _seminorm(_seq([1.0, 2.0], indices=(0, 1), space="en"), "en", l=1)


def test_vector_valued_seminorm_with_space():
    space = ValueSpace(2, seminorms=(SeminormSpec("sup"), SeminormSpec("euclidean")))
    vals = np.array([[1.0, 0.0], [0.0, 2.0], [0.5, 0.5]])
    x = TruncatedSequence((1, 2, 3), vals, space="s")
    got = _seminorm(x, "s", j=0, space=space)
    assert got.shape == (2,)
    assert got[0] == 2.0


# -- decomposition and reassembly --------------------------------------------


def test_null_space_decomposition_reassembles_bitwise():
    x = _seq([1.0 / 3.0 ** k for k in range(1, 9)], space="c0")
    terms = unit_decomposition(x, "c0")
    assert [i for i, _ in terms] == list(x.indices)
    back = reassemble(terms, x.indices, "c0")
    assert np.array_equal(back, x.values)


def test_convergent_sequence_decomposition_puts_limit_first():
    # x_n = 1 + 1/n with declared limit 1; subtracting the limit is exact
    # here (Sterbenz), so the round trip must be bit for bit
    idx = tuple(range(1, 9))
    x = TruncatedSequence(idx, np.array([1.0 + 1.0 / n for n in idx]), limit=1.0, space="c")
    terms = unit_decomposition(x, "c")
    assert terms[0][0] == "inf"
    assert terms[0][1] == 1.0
    back = reassemble(terms, idx, "c")
    assert np.array_equal(back, x.values)


def test_constant_sequence_decomposition_is_exact():
    idx = tuple(range(1, 6))
    x = TruncatedSequence(idx, np.full(5, 0.7), limit=0.7, space="c")
    terms = unit_decomposition(x, "c")
    assert all(t == 0.0 for _, t in terms[1:])
    assert np.array_equal(reassemble(terms, idx, "c"), x.values)


def test_limit_bookkeeping_is_enforced():
    with pytest.raises(InputError):
        unit_decomposition(_seq([1.0, 2.0], space="c"), "c")
    with pytest.raises(InputError):
        unit_decomposition(_seq([1.0, 2.0], limit=0.5, space="c0"), "c0")


def test_spike_decomposition():
    x = _seq([0.0, 0.0, 2.5, 0.0], space="en")
    terms = unit_decomposition(x, "en")
    assert terms[2] == (3, 2.5)
    assert np.array_equal(reassemble(terms, x.indices, "en"), x.values)


# -- projection profiles -----------------------------------------------------


def test_null_space_profile_matches_tail_scan():
    km = KotheMatrix.from_function(lambda k, j: float(k) ** (j - 1), 40, 2)
    x = _seq([1.0 / k ** 2 for k in range(1, 41)], space="c0")
    prof = projection_error_profile(x, "c0", [0, 1, 5, 10], matrix=km, j=2)
    for rank, err in prof:
        want = max((k * abs(v) for k, v in zip(range(1, 41), x.values) if k > rank), default=0.0)
        assert err == want
    # known closed form: the tail sup of k * 1/k^2 is 1/(rank+1)
    assert prof[2][1] == pytest.approx(1.0 / 6.0, abs=1e-15)


def test_profiles_are_non_increasing():
    x = _seq([2.0 ** (-k) for k in range(1, 21)], space="s")
    prof = projection_error_profile(x, "s", [0, 2, 4, 8, 16, 20], j=1)
    errs = [e for _, e in prof]
    assert all(b <= a for a, b in zip(errs, errs[1:]))
    assert errs[-1] == 0.0  # empty tail must give exactly zero


def test_coordinate_profile_hits_zero_at_the_window():
    x = _seq([0.0, 1.0, 0.0, 3.0, 0.0, 0.0], space="en")
    prof = projection_error_profile(x, "en", [0, 2, 4, 6], l=4)
    assert prof[0][1] == 3.0
    assert prof[1][1] == 3.0  # the spike at index 4 survives rank 2
    assert prof[2][1] == 0.0  # ranks past the window see nothing
    assert prof[3][1] == 0.0


def test_c0_profile_rejects_multi_indices_as_the_seminorm_does():
    km = KotheMatrix.from_function(lambda k, j: float(k) ** (j - 1), 4, 2)
    multi = _seq([1.0, 2.0], indices=((1, 0), (0, 1)), space="c0")
    with pytest.raises(InputError):
        _seminorm(multi, "c0", matrix=km, j=2)
    with pytest.raises(InputError):
        projection_error_profile(multi, "c0", [0, 1], matrix=km, j=2)


def test_en_profile_rejects_what_the_seminorm_rejects():
    negative = _seq([1.0, 2.0, 3.0], indices=(-1, 1, 2), space="en")
    with pytest.raises(InputError):
        _seminorm(negative, "en", l=2)
    with pytest.raises(InputError):
        projection_error_profile(negative, "en", [0, 1], l=2)
    with pytest.raises(InputError):
        projection_error_profile(_seq([1.0, 2.0], space="en"), "en", [0], l=0)


@pytest.mark.parametrize("kind,kw,ranks,name", [
    ("s", {"j": True}, [0], "weight order j"),
    ("s", {"j": np.nan}, [0], "weight order j"),
    ("s", {"j": "2"}, [0], "weight order j"),
    ("s", {"j": -1}, [0], "weight order j"),
    ("c0", {"j": 1.0}, [0], "column j"),
    ("c0", {"j": 3}, [0], "column j"),
    ("en", {"l": 2.0}, [0], "coordinate cutoff l"),
    ("en", {"l": True}, [0], "coordinate cutoff l"),
    ("s", {"j": 1}, [0, np.nan], "rank"),
    ("s", {"j": 1}, [True], "rank"),
    ("s", {"j": 1}, ["2"], "rank"),
    ("s", {"j": 1}, [-1], "rank"),
])
def test_profile_numbers_are_checked_before_the_scan(kind, kw, ranks, name):
    x = _seq([1.0, 0.5, 0.25], space=kind)
    if kind == "c0":
        kw = dict(kw, matrix=KotheMatrix.from_function(lambda k, j: float(k), 3, 2))
    with pytest.raises(InputError, match=name):
        projection_error_profile(x, kind, ranks, **kw)


def test_convergent_profile_uses_distance_to_limit():
    idx = tuple(range(1, 11))
    x = TruncatedSequence(idx, np.array([1.0 + 1.0 / n for n in idx]), limit=1.0, space="c")
    prof = projection_error_profile(x, "c", [0, 5, 10])
    assert prof[0][1] == pytest.approx(1.0)
    assert prof[1][1] == pytest.approx(1.0 / 6.0)
    assert prof[2][1] == 0.0
