"""The uniform basis-family contract and projection-operator checks.

A basis family supplies graded index enumeration, element evaluation and a
coefficient functional.  Everything else here is generic: partial sums,
materialized finite-rank elements, the projection semigroup check
P_k P_j = P_min(k,j), biorthogonality, convergence reports, and the
vector/scalar coefficient consistency check.

Accumulation order is part of the contract: partial sums and finite-rank
applications always run in the family's enumeration order (grade, then
lexicographic), so results are reproducible to the bit and component i of a
vector computation matches the scalar computation of component i exactly.
"""

from abc import ABC, abstractmethod

import numpy as np

from .errors import InputError
from .value_space import ValueSpace

__all__ = [
    "BasisFamily",
    "FiniteRankElement",
    "ExpansionOperator",
    "coefficient_sweep",
    "materialize",
    "partial_sum",
    "projection_algebra_check",
    "semigroup_max_discrepancy",
    "biorthogonality_matrix",
    "vector_scalar_consistency",
    "distinctness_check",
    "convergence_report",
]


class BasisFamily(ABC):
    """Abstract contract shared by all basis families.

    Attributes
    ----------
    name : str
        Stable identifier used by reports and the CLI.
    index_set : IndexSet
        Enumeration and grading of the family's indices.
    field : str
        ``"real"`` or ``"complex"`` scalars for coefficients.
    coefficient_tol : float
        Accuracy class of the coefficient functional: 1e-12 for families
        whose functionals are exact point/recursion evaluations, 1e-8 for
        quadrature-backed ones.
    """

    name = "abstract"
    field = "real"
    coefficient_tol = 1e-12

    @abstractmethod
    def element(self, n):
        """Vectorized handle for the n-th basis element."""

    @abstractmethod
    def coefficients(self, f, idxs):
        """The coefficient functionals of a nonempty index list applied to ``f``.

        Returns an array whose row i is lambda_{idxs[i]}(f): a scalar for
        scalar-valued ``f`` and a length-m vector for vector-valued ``f``;
        components of the vector result are computed by exactly the scalar
        component computations.  ``f`` is evaluated once on the union of the
        nodes the indices need, and each row is accumulated in the same order
        whatever else is in the batch, so every batch gives the same bits.
        """

    def coefficient(self, f, n):
        """The n-th coefficient functional applied to ``f``: ``coefficients(f, [n])[0]``.

        Each family binds this in its own class body, so the single-index
        calls of each family can be wrapped (traced) separately.
        """
        return self.coefficients(f, [n])[0]

    def indices(self, k):
        """All indices of grade <= k in accumulation order."""
        return self.index_set.up_to(k)

    def sample_points(self):
        """Default evaluation grid for sup-norm reports on this family."""
        raise NotImplementedError

    def segment_breakpoints(self, k):
        """Breakpoints splitting the domain into smooth pieces of rank-k sums.

        ``None`` means the domain needs no special splitting.  Families with
        discontinuous or kinked elements override this so that L^p error
        quadrature can place panel edges on the kinks.
        """
        return None

    def residual_rows(self, f, g, pts):
        """Rows of f - g on ``pts`` in the family's own topology.

        The default is plain value rows.  Families whose natural seminorms
        involve derivatives (the C^k family) override this to stack
        derivative residuals as extra rows.
        """
        return _rows(f(pts)) - _rows(g(pts))

    def lp_error(self, f, g, p, rank, space=None):
        raise InputError(f"basis family {self.name!r} has no L^p error mode")

    def scalar_space(self):
        return ValueSpace(1, field=self.field)

    def __repr__(self):
        return f"<{type(self).__name__} {self.name!r}>"


def _rows(values):
    """Normalize handle output to a 2-D (points, coords) array."""
    values = np.asarray(values)
    if values.ndim == 1:
        return values[:, None]
    if values.ndim == 2:
        return values
    raise InputError(f"handle output has shape {values.shape}; expected (k,) or (k, m)")


class FiniteRankElement:
    """A finite sum of simple tensors sum_n f_n (x) e_n.

    ``terms`` is an ordered list of ``(handle, coefficient)`` pairs;
    coefficients are scalars or equal-length vectors.  Called at x, the
    element is sum_n f_n(x) * e_n, added in term order: the action of the
    point evaluation at x.
    """

    def __init__(self, terms):
        self.terms = list(terms)

    def __len__(self):
        return len(self.terms)

    def __call__(self, x):
        x = np.asarray(x)
        scalar_input = x.ndim == 0
        pts = x[None] if scalar_input else x
        acc = None
        for handle, coeff in self.terms:
            vals = np.asarray(handle(pts))
            coeff = np.asarray(coeff)
            contrib = vals * coeff if coeff.ndim == 0 else vals[:, None] * coeff[None, :]
            acc = contrib if acc is None else acc + contrib
        if acc is None:
            acc = np.zeros(pts.shape[0] if pts.ndim >= 1 else 1)
        return acc[0] if scalar_input else acc

    def derivative(self, order=1):
        """Termwise derivative handle, when every term handle supports one."""
        if order == 0:
            return self
        handles = []
        for handle, coeff in self.terms:
            deriv = getattr(handle, "derivative", None)
            if deriv is None:
                raise InputError(
                    "finite-rank element has a term without derivative support"
                )
            handles.append((deriv(order), coeff))
        return FiniteRankElement(handles)


class ExpansionOperator:
    """The rank-k partial-sum operator P_k of a basis family."""

    def __init__(self, basis, k):
        if k < 0:
            raise InputError("truncation rank must be >= 0")
        self.basis = basis
        self.k = k

    def __call__(self, f):
        return materialize(self.basis, f, self.k)

    def __repr__(self):
        return f"ExpansionOperator({self.basis.name}, k={self.k})"


def coefficient_sweep(basis, f, k):
    """[(n, coefficient)] for every index of grade <= k, in order."""
    idxs = basis.indices(k)
    return list(zip(idxs, basis.coefficients(f, idxs))) if idxs else []


def materialize(basis, f, k):
    """P_k f as a finite-rank element (element handles paired with coefficients)."""
    return _element(basis, coefficient_sweep(basis, f, k))


def _element(basis, sweep):
    return FiniteRankElement([(basis.element(n), c) for n, c in sweep])


def partial_sum(basis, f, k, x):
    """Evaluate P_k f at point(s) ``x``: coefficients times elements, in order."""
    return materialize(basis, f, k)(x)


def projection_algebra_check(basis, f, k, j, points=None, space=None):
    """Max discrepancy of P_k(P_j f) against P_min(k,j) f on a point grid.

    Each partial sum is an honest expansion: P_j f is materialized, then fed
    back through the coefficient functionals.  Returns the sup over the grid
    of all seminorms of the residual.
    """
    pts = basis.sample_points() if points is None else np.asarray(points)
    inner = materialize(basis, f, j)
    outer = materialize(basis, inner, k)
    direct = materialize(basis, f, min(k, j))
    rows = _rows(outer(pts)) - _rows(direct(pts))
    if space is None:
        return float(np.max(np.abs(rows))) if rows.size else 0.0
    return float(np.max(space.seminorm_table(rows))) if rows.size else 0.0


def semigroup_max_discrepancy(basis, f, kmax, points=None):
    """Max over all pairs k, j <= kmax of the projection-algebra discrepancy.

    All the P_j f are lifted into one vector-valued finite-rank element:
    term i carries c_i in column block r if it is among the first
    counts[r] terms and 0 otherwise, so block r is P_{ranks[r]} f to the
    bit.  The functionals act componentwise, so one batched coefficient
    call gives every lambda_m(P_j f).  Per rank j, a zero-prefixed
    cumulative table of element values gives P_k P_j f for all k at once.
    """
    pts = basis.sample_points() if points is None else np.asarray(points)
    idxs = basis.indices(kmax)
    if not idxs:
        return 0.0
    coeffs = basis.coefficients(f, idxs)
    values = np.stack([_rows(basis.element(n)(pts)) for n in idxs])  # (N, P, 1)
    grades = [basis.index_set.grade(n) for n in idxs]
    ranks = sorted({int(np.ceil(g)) for g in grades} | {0, kmax})
    counts = np.array([sum(1 for g in grades if g <= r) for r in ranks])
    size = len(idxs)
    keep = np.arange(size)[:, None, None] < counts[None, :, None]
    stacked = np.where(keep, coeffs.reshape(size, 1, -1), 0).reshape(size, -1)
    lifted = basis.coefficients(_element(basis, zip(idxs, stacked)), idxs)
    lifted = lifted.reshape(size, len(ranks), -1)  # block r: lambda(P_{ranks[r]} f)

    def prefix_table(cs):
        # row i is the sum of the first i terms, added in enumeration order
        terms = values * cs.reshape(size, 1, -1)
        return np.cumsum(np.concatenate([np.zeros_like(terms[:1]), terms]), axis=0)

    direct = prefix_table(coeffs)
    worst = 0.0
    for r, nj in enumerate(counts):
        diff = np.abs(prefix_table(lifted[:, r])[counts] - direct[np.minimum(counts, nj)])
        if diff.size:
            worst = max(worst, float(np.max(diff)))
    return worst


def biorthogonality_matrix(basis, count):
    """Matrix [lambda_m(f_n)] over the first ``count`` enumerated indices.

    The elements are lifted into one K^count-valued finite-rank element
    whose term a carries row a of the identity, so column a is f_{n_a}
    exactly and one batched coefficient call gives the whole matrix.
    """
    enum = _first_indices(basis, count)
    dtype = np.complex128 if basis.field == "complex" else float
    out = np.zeros((count, count), dtype=dtype)
    if count:
        out[:] = basis.coefficients(_element(basis, zip(enum, np.eye(count))), enum)
    return out


def _first_indices(basis, count):
    """The first ``count`` indices in enumeration order."""
    k = max(count, 1)
    idxs = basis.indices(k)
    while len(idxs) < count:
        k *= 2
        idxs = basis.indices(k)
    return idxs[:count]


def vector_scalar_consistency(basis, f, n, components):
    """Max gap between vector coefficients and componentwise scalar ones.

    ``f`` is a vector-valued handle with the given component count.  Shared
    evaluation points and accumulation order make the two routes agree to
    the bit; the check still computes both honestly.
    """
    vec = np.asarray(basis.coefficients(f, [n])[0])
    if vec.shape != (components,):
        raise InputError(
            f"vector coefficient has shape {vec.shape}, expected ({components},)"
        )
    gaps = []
    for i in range(components):
        fi = _component_handle(f, i)
        gaps.append(abs(basis.coefficients(fi, [n])[0] - vec[i]))
    return float(max(gaps))


def _component_handle(f, i):
    def fi(pts, f=f, i=i):
        return np.asarray(f(pts))[:, i]

    deriv = getattr(f, "derivative", None)
    if deriv is not None:
        fi = _ComponentBundle(f, i)
    return fi


class _ComponentBundle:
    """Component i of a vector bundle, preserving derivative access."""

    def __init__(self, f, i):
        self.f = f
        self.i = i

    def __call__(self, pts):
        return np.asarray(self.f(pts))[:, self.i]

    def derivative(self, order=1):
        if order == 0:
            return self
        g = self.f.derivative(order)
        return lambda pts, g=g, i=self.i: np.asarray(g(pts))[:, i]


def distinctness_check(basis, kmax, points=None):
    """Smallest witness seminorm separating P_j from P_k for k < j <= kmax.

    Witness for the pair (k, j): the j-th enumerated element f_j, for which
    P_j f_j - P_k f_j = f_j up to coefficient tolerance.  Both sides are
    honest expansions.  Returns the min over pairs of the sup residual;
    anything comfortably above zero certifies that all P_k differ.
    """
    pts = basis.sample_points() if points is None else np.asarray(points)
    idxs = basis.indices(kmax)
    worst = np.inf
    for pos in range(1, len(idxs)):
        n = idxs[pos]
        grade = basis.index_set.grade(n)
        sweep = coefficient_sweep(basis, basis.element(n), grade)
        prev_grade = basis.index_set.grade(idxs[pos - 1])
        # indices are graded in order, so the lower rank's sweep is a prefix
        cut = len(basis.indices(min(prev_grade, grade - 1)))
        full, trunc = _element(basis, sweep), _element(basis, sweep[:cut])
        rows = basis.residual_rows(full, trunc, pts)
        worst = min(worst, float(np.max(np.abs(rows))))
    return worst


def convergence_report(basis, f, ranks, space=None, mode="sup", points=None, p=1):
    """Error of P_k f against f for each rank k, one row per rank.

    Parameters
    ----------
    ranks : sequence of int
        Truncation thresholds, reported in the given order.
    mode : str
        ``"sup"`` for grid sup of the residual rows (derivative-aware for
        families that override ``residual_rows``), ``"lp"`` for the family's
        L^p error with panel edges on element kinks.
    space : ValueSpace, optional
        Seminorm family for vector-valued f; defaults to the scalar space.

    Returns
    -------
    list of (rank, errors) with ``errors`` a float array, one entry per
    seminorm of the space.
    """
    sp = space if space is not None else basis.scalar_space()
    pts = basis.sample_points() if points is None else np.asarray(points)
    # one sweep to the largest rank; each rank's indices are a prefix of it
    sweep = coefficient_sweep(basis, f, max(ranks)) if ranks else []
    out = []
    for k in ranks:
        g = _element(basis, sweep[:len(basis.indices(k))])
        if mode == "sup":
            rows = basis.residual_rows(f, g, pts)
            errs = np.max(sp.seminorm_table(rows), axis=0) if rows.size else np.zeros(len(sp.seminorms))
        elif mode == "lp":
            errs = basis.lp_error(f, g, p, k, space=sp)
        else:
            raise InputError(f"unknown convergence mode {mode!r}")
        out.append((k, np.asarray(errs, dtype=float)))
    return out
