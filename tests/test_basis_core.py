"""Family-agnostic expansion machinery and the shared diagnostics."""

import numpy as np
import pytest

from schauder import (
    CkBasis,
    ExpansionOperator,
    FourierBasis,
    FunctionBundle,
    HaarBasis,
    HatBasis,
    HermiteBasis,
    InputError,
    TaylorBasis,
    biorthogonality_matrix,
    convergence_report,
    hermite_function,
    lp_error,
    materialize,
    partial_sum,
    projection_algebra_check,
    semigroup_max_discrepancy,
    vector_scalar_consistency,
    vector_scalar_gap,
)
from schauder.registry import get as reg, vector_stack


def test_coefficient_sweep_layout():
    basis = HatBasis()
    idxs = basis.indices(4)
    assert idxs == [0, 1, 2, 3, 4]
    assert basis.coefficients(reg("x2"), idxs).tolist() == [0.0, 1.0, -0.25, -0.0625, -0.0625]


def test_materialized_element_matches_manual_sum():
    basis = HatBasis()
    f = reg("sin-pi")
    el = materialize(basis, f, 10)
    lam = basis.coefficients(f, basis.indices(10))
    for x in np.linspace(0.0, 1.0, 29):
        acc = 0.0
        for n in range(11):
            acc = acc + lam[n] * basis.element(n)(float(x))
        assert el(float(x)) == acc  # same ascending accumulation, same bits


def test_partial_sum_equals_operator_call():
    basis = HatBasis()
    f = reg("x2")
    el = ExpansionOperator(basis, 6)(f)
    for x in (0.0, 0.3, 0.875, 1.0):
        assert el(x) == partial_sum(basis, f, 6, x)


def _counted(f, points):
    def g(x):
        points.append(np.size(x))
        return f(x)
    return g


@pytest.mark.parametrize("basis", [HaarBasis(), HatBasis(), HermiteBasis(n_max=8)],
                         ids=["haar", "hat", "hermite"])
@pytest.mark.parametrize("x", [["a"], [None], [True], np.array([False, True]), "0.5", [[0.1], [0.2, 0.3]]],
                         ids=["string", "none", "bool", "bools", "string-scalar", "ragged"])
def test_partial_sum_refuses_points_that_are_not_numbers_before_f_runs(basis, x):
    points = []
    with pytest.raises(InputError, match="points"):
        partial_sum(basis, _counted(reg("x"), points), 4, x)
    assert points == []


@pytest.mark.parametrize("basis", [HaarBasis(), HatBasis(), CkBasis(2)], ids=["haar", "hat", "ck"])
@pytest.mark.parametrize("x", [[np.nan], [0.25, np.nan, 0.5], [0.5, np.inf], [0.5, -0.25], 1.5],
                         ids=["nan", "inner-nan", "inf", "outside", "outside-scalar"])
def test_partial_sum_refuses_points_off_the_domain_before_f_runs(basis, x):
    # x and its derivatives, each counted: the C^k coefficients read f''
    points = []
    f = FunctionBundle(_counted(reg("x"), points), [_counted(np.ones_like, points),
                                                    _counted(np.zeros_like, points)])
    assert partial_sum(basis, f, 4, [0.25, 0.5]).shape == (2,) and points
    points.clear()
    with pytest.raises(InputError):
        partial_sum(basis, f, 4, x)
    assert points == []


@pytest.mark.parametrize("call", [
    lambda f: hermite_function(0, [[0.0, 5.0, 7.0], [1.0, 2.0, 3.0]], d=1),
    lambda f: partial_sum(HermiteBasis(n_max=4), f, 2, [[0.0, 5.0], [1.0, 2.0]]),
    lambda f: partial_sum(HaarBasis(), f, 4, [0.25, True]),
    lambda f: partial_sum(HatBasis(), f, 4, (0.5, np.False_)),
    lambda f: partial_sum(HaarBasis(), f, 4, [[0.25], [True]]),
    lambda f: lp_error(f, f, 1, [0.0, True, 2.0]),
], ids=["hermite-function-2d", "hermite-2d-points", "haar-bool-entry", "hat-numpy-bool-entry",
        "haar-nested-bool", "lp-bool-breakpoint"])
def test_point_shapes_and_bool_entries_are_refused_before_f_runs(call):
    points = []
    with pytest.raises(InputError, match="points|breakpoints"):
        call(_counted(reg("x"), points))
    assert points == []


@pytest.mark.parametrize("basis, f, x", [
    (HaarBasis(), reg("sin-pi"), np.array([0.9, 0.1, 0.5, 0.0, 1.0])),
    (HatBasis(), reg("x2"), [1, 0, 0.3]),
    (HermiteBasis(n_max=8), reg("gauss"), np.array([-1.5, 0.0, 2, 0.25])),
    (FourierBasis(n_max=3), reg("cos"), 0.5),
    (TaylorBasis(n_max=6), lambda z: np.exp(z), np.array([0.1 + 0.2j, -0.3j, 0.5])),
], ids=["haar", "hat", "hermite", "fourier", "taylor-complex"])
def test_partial_sum_of_valid_points_is_the_materialized_sum(basis, f, x):
    got = np.asarray(partial_sum(basis, f, 4, x))
    want = np.asarray(materialize(basis, f, 4)(x))
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_expansion_is_linear_in_the_function():
    rng = np.random.default_rng(17)
    basis = HatBasis()
    f, g = reg("sin-pi"), reg("x2")
    for _ in range(10):
        a, b = rng.uniform(-2.0, 2.0, 2)
        combo = lambda x, a=a, b=b: a * f(x) + b * g(x)
        idxs = basis.indices(8)
        lam, laf, lag = (basis.coefficients(h, idxs) for h in (combo, f, g))
        assert np.max(np.abs(lam - (a * laf + b * lag))) <= 1e-10


def test_projection_algebra_small():
    got = projection_algebra_check(HaarBasis(), reg("x"), 3, 7)
    assert got <= 1e-12


@pytest.mark.parametrize("basis", [HaarBasis(), HatBasis()], ids=["haar", "hat"])
def test_projection_algebra_runs_f_only_to_rank_j(basis):
    # a rank k above j is checked on the zero element, so f is read on the
    # nodes of P_j f and on no other
    def seen(log):
        return lambda x: log.append(np.size(x)) or reg("x")(x)
    direct, checked = [], []
    materialize(basis, seen(direct), 2)
    projection_algebra_check(basis, seen(checked), 9, 2)
    assert checked == direct


def test_semigroup_discrepancy_small_rank():
    assert semigroup_max_discrepancy(HatBasis(), reg("sin-pi"), 8) <= 1e-12


def test_biorthogonality_check_values():
    basis = HatBasis()
    assert basis.coefficient(basis.element(3), 3) == 1.0
    assert basis.coefficient(basis.element(2), 3) == 0.0


def test_biorthogonality_matrix_real_and_complex():
    m = biorthogonality_matrix(HatBasis(), 8)
    assert np.max(np.abs(m - np.eye(8))) <= 1e-12
    mz = biorthogonality_matrix(TaylorBasis(n_max=8), 6)
    assert np.max(np.abs(mz - np.eye(6))) <= 1e-12


def test_vector_scalar_consistency_is_bit_exact_for_interval_families():
    stack = vector_stack([reg("x"), reg("sin-pi")])
    assert vector_scalar_consistency(HatBasis(), stack, 5, 2) == 0.0


def test_vector_scalar_consistency_fourier():
    stack = vector_stack([reg("cos"), reg("sin")])
    gap = vector_scalar_consistency(FourierBasis(n_max=8), stack, 1, 2)
    assert gap == 0.0


def test_convergence_report_shape_and_monotonicity():
    basis = HaarBasis()
    rep = convergence_report(basis, reg("x"), [1, 2, 4, 8, 16], mode="lp", p=1)
    ranks = [r for r, _ in rep]
    errs = [float(e[0]) for _, e in rep]
    assert ranks == [1, 2, 4, 8, 16]
    assert all(b <= a + 1e-15 for a, b in zip(errs, errs[1:]))
    # full dyadic levels: each refinement halves the L^1 defect
    for a, b in zip(errs[1:], errs[2:]):
        assert abs(b / a - 0.5) <= 0.05


def test_convergence_report_sup_mode():
    rep = convergence_report(HatBasis(), reg("sin-pi"), [2, 4, 8], mode="sup")
    errs = [float(e[0]) for _, e in rep]
    assert errs[-1] <= errs[0]


def test_lp_mode_rejected_for_spectral_families():
    with pytest.raises(InputError):
        convergence_report(FourierBasis(n_max=4), reg("cos"), [1, 2], mode="lp", p=2)


def _cos_pair(x):
    return np.stack([np.cos(x), np.sin(x)], axis=1)


@pytest.mark.parametrize("call", [
    lambda f: convergence_report(HaarBasis(), f, [4, -1]),
    lambda f: convergence_report(HaarBasis(), f, [4, "a"]),
    lambda f: convergence_report(HaarBasis(), f, [4, float("inf")], mode="lp"),
    lambda f: convergence_report(HaarBasis(), f, [True]),
    lambda f: convergence_report(HermiteBasis(), f, [4, 16], mode="lp"),
    lambda f: convergence_report(FourierBasis(n_max=4), f, [1, 2], mode="lp"),
    lambda f: convergence_report(TaylorBasis(), f, [1, 2], mode="lp"),
    lambda f: HaarBasis().lp_error(f, f, 1, -3),
    lambda f: HaarBasis().lp_error(f, f, 1, "a"),
    lambda f: HermiteBasis().lp_error(f, f, 1, 4),
    lambda f: vector_scalar_gap(HaarBasis(), lambda x: _cos_pair(f(x)), [1, 2], 0),
    lambda f: vector_scalar_gap(HaarBasis(), lambda x: _cos_pair(f(x)), [1, 2], 2.0),
    lambda f: vector_scalar_gap(HaarBasis(), lambda x: _cos_pair(f(x)), [1, 2], True),
], ids=["negative-rank", "string-rank", "inf-rank", "bool-rank", "hermite-lp",
        "fourier-lp", "taylor-lp", "lp-negative-rank", "lp-string-rank", "lp-hermite",
        "zero-components", "float-components", "bool-components"])
def test_bad_ranks_and_counts_are_refused_before_f_runs(call):
    points = []

    def f(x):
        points.append(len(x))
        return np.asarray(x)

    with pytest.raises(InputError):
        call(f)
    assert points == []


@pytest.mark.parametrize("basis, fns", [
    (HaarBasis(), ("x", "cos")), (HatBasis(), ("x", "cos")),
    (HermiteBasis(n_max=8), ("gauss", "h3")), (FourierBasis(n_max=8), ("cos", "sin")),
    (TaylorBasis(n_max=8), ("exp-z", "sin-z")),
], ids=["haar", "hat", "hermite", "fourier", "taylor"])
@pytest.mark.parametrize("components", [1, 3])
def test_a_wrong_component_count_is_refused_after_one_evaluation_of_f(basis, fns, components):
    # f's width is known only from its values: the one refusal after f runs,
    # and the vector call runs f exactly once before it (C^k at k > 0 reads
    # derivative handles too, and is left out)
    stack, calls = vector_stack([reg(fn) for fn in fns]), []

    def f(x):
        calls.append(len(x))
        return stack(x)

    with pytest.raises(InputError, match=rf"vector coefficient has shape \(2,\), expected \({components},\)"):
        vector_scalar_gap(basis, f, basis.indices(4), components)
    assert len(calls) == 1
