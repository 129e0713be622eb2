import numpy as np
import pytest

from schauder import InputError, SeminormSpec, ValueSpace


def test_invalid_construction():
    with pytest.raises(InputError):
        ValueSpace(0)
    with pytest.raises(InputError):
        ValueSpace(2, field="quaternion")
    with pytest.raises(InputError):
        SeminormSpec("lp")
    with pytest.raises(InputError):
        ValueSpace(2, seminorms=(SeminormSpec("weighted-sup", (1.0,)),))


def test_default_space_is_single_sup():
    vs = ValueSpace(2)
    assert vs.seminorm_labels() == ["p0_sup"]
    assert vs.seminorm_values(np.asarray([-3.0, 2.0]))[0] == 3.0


def test_weighted_sup_value():
    vs = ValueSpace(2, seminorms=(SeminormSpec("weighted-sup", (2.0, 1.0)),))
    assert vs.seminorm_values(np.asarray([1.0, 1.0]))[0] == 2.0
    assert vs.seminorm_values(np.asarray([0.5, 3.0]))[0] == 3.0


def test_euclidean_value():
    vs = ValueSpace(2, seminorms=(SeminormSpec("euclidean"),))
    got = vs.seminorm_values(np.asarray([1.0, 1.0]))[0]
    assert abs(got - np.sqrt(2.0)) <= 1e-15


def test_coordinate_subset_mask():
    # mask length must equal the dimension; only unmasked entries count
    vs = ValueSpace(3, seminorms=(SeminormSpec("coordinate-subset-sup", (1.0, 0.0, 1.0)), SeminormSpec("sup")))
    assert vs.seminorm_values(np.asarray([1.0, 9.0, 2.0])).tolist() == [2.0, 9.0]


def test_family_must_separate_points():
    # a mask that never sees the second coordinate cannot tell e_1 from 0
    with pytest.raises(InputError):
        ValueSpace(2, seminorms=(SeminormSpec("coordinate-subset-sup", (1.0, 0.0)),))


def test_seminorm_values_and_table_agree():
    vs = ValueSpace(
        2,
        seminorms=(SeminormSpec("sup"), SeminormSpec("weighted-sup", (2.0, 1.0)), SeminormSpec("euclidean")),
    )
    rows = np.array([[1.0, 1.0], [0.0, -2.0], [3.0, 4.0]])
    table = vs.seminorm_table(rows)
    assert table.shape == (3, 3)
    for i in range(rows.shape[0]):
        assert np.array_equal(table[i], vs.seminorm_values(rows[i]))


def test_homogeneity_exact_for_dyadic_scalars():
    vs = ValueSpace(3, seminorms=(SeminormSpec("sup"), SeminormSpec("euclidean")))
    rng = np.random.default_rng(7)
    for _ in range(20):
        v = rng.standard_normal(3)
        for a in (0.5, 2.0, 4.0, 0.125):
            # scaling by a power of two is exact in binary arithmetic
            assert np.array_equal(vs.seminorm_values(a * v), a * vs.seminorm_values(v))


def test_homogeneity_general_scalar_close():
    vs = ValueSpace(3, seminorms=(SeminormSpec("euclidean"),))
    rng = np.random.default_rng(11)
    for _ in range(20):
        v = rng.standard_normal(3)
        a = float(rng.uniform(0.1, 3.0))
        lhs = vs.seminorm_values(a * v)[0]
        rhs = abs(a) * vs.seminorm_values(v)[0]
        assert abs(lhs - rhs) <= 4 * np.spacing(rhs)


def test_subadditivity_property():
    vs = ValueSpace(
        4,
        seminorms=(SeminormSpec("sup"), SeminormSpec("weighted-sup", (1.0, 2.0, 0.5, 1.5)), SeminormSpec("euclidean")),
    )
    rng = np.random.default_rng(13)
    for _ in range(50):
        x = rng.standard_normal(4)
        y = rng.standard_normal(4)
        assert np.all(vs.seminorm_values(x + y)
                      <= vs.seminorm_values(x) + vs.seminorm_values(y) + 1e-12)


def _row_wise_table(space, rows):
    # the row-reduction construction: numpy's reduction over each row, one
    # seminorm at a time (pairwise sums from 8 coordinates up)
    a = np.ascontiguousarray(np.abs(rows))
    cols = []
    for s in space.seminorms:
        w = None if s.weights is None else np.asarray(s.weights)
        if s.kind == "sup":
            cols.append(np.max(a, axis=1))
        elif s.kind == "weighted-sup":
            cols.append(np.max(w[None, :] * a, axis=1))
        elif s.kind == "euclidean":
            cols.append(np.sqrt(np.sum(a * a, axis=1)))
        else:
            cols.append(np.max(a[:, w > 0], axis=1))
    return np.stack(cols, axis=1)


def _layouts(rows):
    strided = np.zeros((2 * rows.shape[0], 2 * rows.shape[1]), dtype=rows.dtype)
    strided[::2, ::2] = rows
    return {"C": rows, "F": np.asfortranarray(rows), "strided": strided[::2, ::2]}


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 7, 8, 9, 12])
@pytest.mark.parametrize("field", ["real", "complex"])
def test_seminorm_table_matches_row_wise_reductions(m, field):
    rng = np.random.default_rng(100 + m)
    weights = rng.uniform(0.0, 3.0, m)
    weights[m // 2] = 0.0 if m > 1 else weights[0]
    vs = ValueSpace(m, field=field, seminorms=(
        SeminormSpec("sup"), SeminormSpec("weighted-sup", tuple(weights)),
        SeminormSpec("euclidean"), SeminormSpec("coordinate-subset-sup", tuple(weights)),
    ))
    rows = rng.standard_normal((257, m)) * np.exp(rng.uniform(-20.0, 20.0, (257, m)))
    if field == "complex":
        rows = rows + 1j * rng.standard_normal((257, m))
    want = _row_wise_table(vs, rows)
    for layout, r in _layouts(rows).items():
        table = vs.seminorm_table(r)
        assert table.shape == (257, 4), layout
        assert all(table[:, j].flags.c_contiguous for j in range(4)), layout
        if m <= 7:
            assert np.array_equal(table, want), layout
        else:
            # the left-to-right sum of squares and numpy's pairwise one differ in rounding only
            assert np.array_equal(table[:, [0, 1, 3]], want[:, [0, 1, 3]]), layout
            assert np.allclose(table[:, 2], want[:, 2], rtol=1e-15, atol=0.0), layout
