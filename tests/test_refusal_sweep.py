"""One sweep of the public surface: every name exported from ``schauder``
that takes a function handle refuses each bad numeric or point argument with
``InputError`` before the handle runs once.

A case is one parameter of one exported call.  Its call runs first with a
valid value, which must succeed, then with every bad value of the
parameter's kind: a bool, a string, None, NaN, +-inf, a negative number and
the values out of the family's range, each with a fresh handle that counts
its evaluations (and those of its derivative handles), a refused evaluation
included.  Fractional ranks are valid grade thresholds, and negative Fourier
modes are valid modes; both are checked to stay accepted.  The handles of a
hand-built ``FiniteRankElement`` judge their own domain, so its points case
tries only the values that are not an array of numbers.
"""

import inspect
import math
from dataclasses import dataclass

import numpy as np
import pytest

import schauder
from schauder import (
    CkBasis,
    ExpansionOperator,
    FiniteRankElement,
    FourierBasis,
    FunctionBundle,
    HaarBasis,
    HatBasis,
    HermiteBasis,
    InputError,
    KotheMatrix,
    TaylorBasis,
    ValueSpace,
    convergence_report,
    fourier_coefficient,
    hat_coefficients,
    hermite_tail_bound_check,
    integral_bound_check,
    integrate_gauss_hermite,
    integrate_periodic,
    lp_error,
    materialize,
    partial_sum,
    projection_algebra_check,
    semigroup_discrepancies,
    semigroup_max_discrepancy,
    taylor_coefficients,
    to_s_space,
    vector_scalar_consistency,
    vector_scalar_gap,
    weighted_sum,
)
from schauder.quadrature import HERMITE_MAX_SIZE
from schauder.registry import corpus, vector_stack


class Counting:
    """A handle counting its evaluations, and those of the derivative
    handles it gives, in one shared list."""

    def __init__(self, f, calls=None):
        self.f, self.calls = f, [] if calls is None else calls

    def __call__(self, *args):
        self.calls.append(args)  # counted before it runs, so a refused one counts too
        return self.f(*args)

    def derivative(self, order=1):
        return Counting(self.f.derivative(order), self.calls)


# bad values of each kind of parameter
REAL = {"bool": True, "np-bool": np.bool_(True), "str": "2", "none": None,
        "nan": math.nan, "inf": math.inf, "-inf": -math.inf, "complex": 2 + 0j}
RANK = dict(REAL, negative=-1)  # a truncation threshold: fractions are valid
INTEGER = dict(RANK, float=2.0, fraction=1.5)
SIGNED = {kind: v for kind, v in INTEGER.items() if kind != "negative"}  # Fourier modes
POINTS = {"bool": [0.25, True], "np-bool": np.array([True, False]), "str": ["0.25"],
          "none": [0.25, None], "nan": [0.25, math.nan], "inf": [0.25, math.inf],
          "-inf": [-math.inf, 0.25], "ragged": [[0.25], [0.5, 0.75]]}
UNIT_POINTS = dict(POINTS, negative=[-0.25, 0.5], beyond=[0.5, 1.5])


@dataclass
class Case:
    surface: str  # the exported name, ``Class.method`` for a method
    param: str
    handle: object  # makes the handle to count
    call: object  # call(f, value)
    valid: object  # None: the call has no valid value
    bad: dict
    family: str = ""  # the family of the basis the call takes, if any

    @property
    def id(self):
        return ":".join(filter(None, (self.family, self.surface, self.param)))


def _family_cases(name, basis, points, rank_out, index_out, signed=False):
    """The cases of the calls that take ``basis`` and a handle."""
    fns = [f for _, f in corpus(name)[:2]]
    scalar = lambda: Counting(fns[1])  # noqa: E731
    vector = lambda: Counting(vector_stack(fns))  # noqa: E731
    pts = np.asarray(points[1])
    bad_points = points[0]
    ranks = dict(RANK, **{f"out-{r}": r for r in rank_out})
    index = dict(SIGNED if signed else INTEGER, **{f"out-{n}": n for n in index_out})
    first = basis.indices(4)[0]
    kind = type(basis).__name__
    cases = [
        Case("materialize", "k", scalar, lambda f, v: materialize(basis, f, v)(pts), 4, ranks),
        Case("ExpansionOperator", "k", scalar, lambda f, v: ExpansionOperator(basis, v)(f), 4, ranks),
        Case("partial_sum", "k", scalar, lambda f, v: partial_sum(basis, f, v, pts), 4, ranks),
        Case("partial_sum", "x", scalar, lambda f, v: partial_sum(basis, f, 4, v), pts, bad_points),
        Case("projection_algebra_check", "k", scalar,
             lambda f, v: projection_algebra_check(basis, f, v, 2), 4, ranks),
        Case("projection_algebra_check", "j", scalar,
             lambda f, v: projection_algebra_check(basis, f, 2, v), 4, ranks),
        Case("semigroup_discrepancies", "kmax", scalar,
             lambda f, v: semigroup_discrepancies(basis, f, v, pts), 4, ranks),
        Case("semigroup_discrepancies", "points", scalar,
             lambda f, v: semigroup_discrepancies(basis, f, 4, v), pts, bad_points),
        Case("semigroup_max_discrepancy", "kmax", scalar,
             lambda f, v: semigroup_max_discrepancy(basis, f, v, pts), 4, ranks),
        Case("semigroup_max_discrepancy", "points", scalar,
             lambda f, v: semigroup_max_discrepancy(basis, f, 4, v), pts, bad_points),
        Case("convergence_report", "ranks", scalar,
             lambda f, v: convergence_report(basis, f, [1, v]), 4, ranks),
        Case(f"{kind}.coefficients", "idxs", scalar,
             lambda f, v: basis.coefficients(f, [first, v]), first, index),
        Case(f"{kind}.coefficient", "n", scalar, lambda f, v: basis.coefficient(f, v), first, index),
        Case(f"{kind}.value_rows", "pts", scalar, lambda f, v: basis.value_rows(f, v), pts, bad_points),
        Case("vector_scalar_gap", "idxs", vector,
             lambda f, v: vector_scalar_gap(basis, f, [first, v], 2), first, index),
        Case("vector_scalar_gap", "components", vector,
             lambda f, v: vector_scalar_gap(basis, f, [first], v), 2, dict(INTEGER, zero=0)),
        Case("vector_scalar_consistency", "n", vector,
             lambda f, v: vector_scalar_consistency(basis, f, v, 2), first, index),
        Case("vector_scalar_consistency", "components", vector,
             lambda f, v: vector_scalar_consistency(basis, f, first, v), 2, dict(INTEGER, zero=0)),
    ]
    if basis.segment_breakpoints(2) is not None:  # the families with an L^p error mode
        cases += [
            Case("convergence_report", "p", scalar,
                 lambda f, v: convergence_report(basis, f, [2], mode="lp", p=v), 1, dict(RANK, below=0.5)),
            Case(f"{kind}.lp_error", "p", scalar, lambda f, v: basis.lp_error(f, f, v, 2), 1,
                 dict(RANK, below=0.5)),
            Case(f"{kind}.lp_error", "rank", scalar, lambda f, v: basis.lp_error(f, f, 1, v), 2, RANK),
        ]
    else:  # every call is refused, a valid rank too
        cases.append(Case(f"{kind}.lp_error", "rank", scalar, lambda f, v: basis.lp_error(f, f, 1, v),
                          None, dict(RANK, valid=2)))
    if isinstance(basis, (HermiteBasis, FourierBasis)):
        cases.append(Case("to_s_space", "n_max", scalar, lambda f, v: to_s_space(basis, f, v), 4, ranks))
    for case in cases:
        case.family = name
    return cases


def _unit_points(seq):
    return UNIT_POINTS, np.linspace(seq.a, seq.b, 9)


FAMILY_CASES = [
    *_family_cases("haar", HaarBasis(), (UNIT_POINTS, np.linspace(0.0, 1.0, 9)), [], [2 ** 63]),
    # dyadic sequences of 2^11 + 1 points: hat indices 0..2048, C^2 ones 0..2050
    *_family_cases("hat", HatBasis(), _unit_points(HatBasis().seq), [2049], [2049, 2 ** 63]),
    *_family_cases("ck", CkBasis(2), _unit_points(CkBasis(2).seq), [2051], [2051, 2 ** 63]),
    # n_max 8: orders past 8 are refused
    *_family_cases("hermite", HermiteBasis(n_max=8), (POINTS, np.linspace(-3.0, 3.0, 9)), [9], [9]),
    # a 64-point grid: modes past 31 alias
    *_family_cases("fourier", FourierBasis(n_max=8), (POINTS, np.linspace(-3.0, 3.0, 9)), [32],
                   [32, -32, 2 ** 63], signed=True),
    # a 64-point contour: orders past 16 are refused
    *_family_cases("taylor", TaylorBasis(n_max=8), (POINTS, TaylorBasis().sample_points()[:9]), [17],
                   [17]),
]


def _bundle(f):
    return FunctionBundle(f, derivatives=(f.derivative(1),))


def _pieces():
    """A C^2 element, a piecewise polynomial on [0, 1] with derivatives."""
    return Counting(CkBasis(2).element(5))


def _element(f):
    return FiniteRankElement([(f, 1.0), (f.derivative(0), 2.0)])


UNIT = np.linspace(0.0, 1.0, 9)
RULE = (np.linspace(0.0, 1.0, 5), np.full(5, 0.25))
HAT_SEQ = HatBasis().seq
sin = corpus("haar")[4][1]
gauss = corpus("hermite")[0][1]
cos = corpus("fourier")[2][1]
exp_z = corpus("taylor")[0][1]

MODULE_CASES = [
    Case("hat_coefficients", "n", lambda: Counting(sin), lambda f, v: hat_coefficients(HAT_SEQ, f, v),
         4, dict(INTEGER, out=2049)),
    Case("lp_error", "p", lambda: Counting(sin), lambda f, v: lp_error(f, f, v, [0.0, 0.5, 1.0]),
         1, dict(RANK, below=0.5)),
    Case("lp_error", "breakpoints", lambda: Counting(sin), lambda f, v: lp_error(f, f, 1, v),
         [0.0, 0.5, 1.0], dict(POINTS, descending=[1.0, 0.0], one=[0.5])),
    Case("weighted_sum", "nodes", lambda: Counting(sin), lambda f, v: weighted_sum(v, [0.5, 0.5], f),
         [0.25, 0.75], dict(POINTS, ragged=[[0.25], [0.5, 0.75]], count=[0.25])),
    Case("weighted_sum", "weights", lambda: Counting(sin), lambda f, v: weighted_sum([0.25, 0.75], v, f),
         [0.5, 0.5], dict(POINTS, count=[0.5], table=[[0.5], [0.5]])),
    Case("integral_bound_check", "nodes", lambda: Counting(sin),
         lambda f, v: integral_bound_check(f, v, [0.5, 0.5], ValueSpace(1)), [0.25, 0.75],
         dict(POINTS, count=[0.25])),
    Case("integral_bound_check", "weights", lambda: Counting(sin),
         lambda f, v: integral_bound_check(f, [0.25, 0.75], v, ValueSpace(1)), [0.5, 0.5],
         dict(POINTS, negative=[-0.5, 0.5], count=[0.5])),
    Case("integral_bound_check", "slack", lambda: Counting(sin),
         lambda f, v: integral_bound_check(f, *RULE, ValueSpace(1), slack=v), 0.0, RANK),
    Case("integrate_gauss_hermite", "m", lambda: Counting(gauss),
         lambda f, v: integrate_gauss_hermite(f, v), 8, dict(INTEGER, zero=0, out=HERMITE_MAX_SIZE + 1)),
    Case("integrate_gauss_hermite", "d", lambda: Counting(gauss),
         lambda f, v: integrate_gauss_hermite(f, 4, d=v), 1, dict(INTEGER, zero=0)),
    Case("integrate_periodic", "n", lambda: Counting(cos), lambda f, v: integrate_periodic(f, v),
         8, dict(INTEGER, zero=0)),
    Case("integrate_periodic", "d", lambda: Counting(cos), lambda f, v: integrate_periodic(f, 4, d=v),
         1, dict(INTEGER, zero=0, out=4)),
    Case("fourier_coefficient", "n", lambda: Counting(cos), lambda f, v: fourier_coefficient(f, v),
         -3, dict(SIGNED, out=32, below=-32)),
    Case("hermite_tail_bound_check", "n", lambda: Counting(gauss),
         lambda f, v: hermite_tail_bound_check(f, v, 1.0, 2.0), 1, dict(INTEGER, tuple=(1, 0))),
    Case("hermite_tail_bound_check", "inner", lambda: Counting(gauss),
         lambda f, v: hermite_tail_bound_check(f, 1, v, 2.0), 1.0, dict(RANK, zero=0.0, out=3.0)),
    Case("hermite_tail_bound_check", "outer", lambda: Counting(gauss),
         lambda f, v: hermite_tail_bound_check(f, 1, 1.0, v), 2.0, dict(RANK, out=0.5)),
    Case("hermite_tail_bound_check", "d", lambda: Counting(gauss),
         lambda f, v: hermite_tail_bound_check(f, 1, 1.0, 2.0, d=v), 1, dict(INTEGER, zero=0)),
    Case("hermite_tail_bound_check", "grid_points", lambda: Counting(gauss),
         lambda f, v: hermite_tail_bound_check(f, 1, 1.0, 2.0, grid_points=v), 101,
         {kind: v for kind, v in dict(INTEGER, zero=0).items() if kind != "none"}),  # None: the default
    Case("hermite_tail_bound_check", "order", lambda: Counting(gauss),
         lambda f, v: hermite_tail_bound_check(f, 1, 1.0, 2.0, order=v), 8, dict(INTEGER, zero=0)),
    Case("hermite_tail_bound_check", "panels_per_unit", lambda: Counting(gauss),
         lambda f, v: hermite_tail_bound_check(f, 1, 1.0, 2.0, panels_per_unit=v), 4, dict(RANK, zero=0)),
    Case("taylor_coefficients", "n_max", lambda: Counting(exp_z), lambda f, v: taylor_coefficients(f, v),
         8, dict(INTEGER, out=17)),
    Case("KotheMatrix.from_function", "rows", lambda: Counting(lambda k, j: float(k * j)),
         lambda f, v: KotheMatrix.from_function(f, v, 3), 2, dict(INTEGER, zero=0)),
    Case("KotheMatrix.from_function", "cols", lambda: Counting(lambda k, j: float(k * j)),
         lambda f, v: KotheMatrix.from_function(f, 2, v), 3, dict(INTEGER, zero=0)),
    Case("FunctionBundle", "derivative order", lambda: Counting(sin),
         lambda f, v: _bundle(f).derivative(v)(UNIT), 1, dict(INTEGER, out=2)),
    # the handles of a hand-built element are the only judge of their domain,
    # so NaN, +-inf and points off [0, 1] are theirs to refuse, which counts
    Case("FiniteRankElement", "points", _pieces, lambda f, v: _element(f)(v), UNIT,
         {kind: v for kind, v in POINTS.items() if kind not in ("nan", "inf", "-inf")}),
    Case("FiniteRankElement", "partial-sum counts", _pieces,
         lambda f, v: _element(f).partial_sums([1, v])(UNIT), 2, dict(INTEGER, out=3)),
    Case("FiniteRankElement", "derivative order", _pieces,
         lambda f, v: _element(f).derivative(v)(UNIT), 1, INTEGER),
]

CASES = FAMILY_CASES + MODULE_CASES


@pytest.mark.parametrize("case", CASES, ids=[case.id for case in CASES])
def test_bad_arguments_are_refused_before_the_handle_runs(case):
    if case.valid is not None:
        case.call(case.handle(), case.valid)
    not_refused = []
    for kind, bad in case.bad.items():
        f = case.handle()
        try:
            case.call(f, bad)
        except InputError:
            if f.calls:
                not_refused.append(f"{kind}: refused after {len(f.calls)} evaluations")
        except Exception as exc:  # noqa: BLE001 - any other error is what the sweep looks for
            not_refused.append(f"{kind}: {type(exc).__name__}: {exc}")
        else:
            not_refused.append(f"{kind}: accepted")
    assert not_refused == []


# parameters named so take a handle; ``reassemble`` takes coefficient terms
HANDLE_PARAMS = {"f", "g", "func", "fn", "terms"}
NOT_HANDLES = {"reassemble", "FiniteRankElement.__call__"}


def _handle_surfaces():
    """Every exported function, and method of an exported class, with a
    parameter that takes a handle."""
    found = set()
    for name in dir(schauder):
        obj = getattr(schauder, name)
        if name.startswith("_") or inspect.ismodule(obj) or not callable(obj):
            continue
        members = {name: obj}
        if inspect.isclass(obj):
            members = {f"{name}.{m}": getattr(obj, m) for m in dir(obj)
                       if m in ("__init__", "__call__") or not m.startswith("_")}
        for label, member in members.items():
            try:
                params = set(inspect.signature(member).parameters)
            except (TypeError, ValueError):
                continue
            if params & HANDLE_PARAMS and label not in NOT_HANDLES:
                found.add(label.removesuffix(".__init__").removesuffix(".__call__"))
    return found


def test_the_sweep_covers_every_exported_name_that_takes_a_handle():
    covered = {case.surface for case in CASES}
    families = {"HaarBasis", "HatBasis", "CkBasis", "HermiteBasis", "FourierBasis", "TaylorBasis"}
    # the abstract family's methods are swept through each family
    want = {s for s in _handle_surfaces() if not s.startswith("BasisFamily.")}
    assert want - covered == set()
    assert {s.split(".")[0] for s in covered if "." in s} >= families


@pytest.mark.parametrize("basis", [HaarBasis(), HatBasis(), CkBasis(2), HermiteBasis(n_max=8),
                                   FourierBasis(n_max=8), TaylorBasis(n_max=8)],
                         ids=lambda b: b.name)
def test_fractional_ranks_stay_accepted(basis):
    f = corpus(basis.name)[1][1]
    pts = basis.sample_points()[:9]
    for rank in (2.5, np.float64(2.5), 2.0):
        assert partial_sum(basis, f, rank, pts).tobytes() == partial_sum(basis, f, 2, pts).tobytes()
        assert np.array_equal(semigroup_discrepancies(basis, f, rank, pts),
                              semigroup_discrepancies(basis, f, 2, pts))


def test_negative_fourier_modes_stay_accepted():
    f = corpus("fourier")[2][1]  # cos: modes -1 and 1 of 1/2
    basis = FourierBasis(n_max=8)
    assert np.allclose(basis.coefficients(f, [-1, 1, -31]), [0.5, 0.5, 0.0], atol=1e-12)
    assert abs(fourier_coefficient(f, -1) - 0.5) < 1e-12
    two = FourierBasis(d=2, n_max=4)
    g = Counting(lambda x: np.cos(np.asarray(x)[:, 0] - np.asarray(x)[:, 1]))
    assert np.allclose(two.coefficients(g, [(-1, 1), (1, -1), (-31, -31)]), [0.5, 0.5, 0.0], atol=1e-12)
    assert len(g.calls) == 1
