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
An element handle may report a closed ``support`` interval outside which it
is exactly zero (Haar steps, hats and the C^k elements do; Hermite, Fourier
and Taylor elements are global).  Each term is then added, in enumeration
order, at every point where it can be nonzero and skipped elsewhere; a
skipped term would only have added an exact zero, so only the sign of a zero
result can differ from adding every term everywhere.
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
    "semigroup_discrepancies",
    "biorthogonality_matrix",
    "vector_scalar_consistency",
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

        ``None`` means the family has no L^p error mode.  Families with
        discontinuous or kinked elements override this so that L^p error
        quadrature can place panel edges on the kinks.
        """
        return None

    def value_rows(self, f, pts):
        """Rows of ``f`` on ``pts`` in the family's own topology.

        The default is plain value rows.  Families whose natural seminorms
        involve derivatives (the C^k family) override this to stack
        derivative rows below them; residuals are differences of such rows.
        """
        return _rows(f(pts))

    def lp_error(self, f, g, p, rank, space=None):
        """``interval_bases.lp_error`` of ``g`` against ``f``, panel edges on
        ``segment_breakpoints(rank)``; without breakpoints there is no L^p mode."""
        breakpoints = self.segment_breakpoints(rank)
        if breakpoints is None:
            raise InputError(f"basis family {self.name!r} has no L^p error mode")
        from . import interval_bases  # imports this module; read at call time
        return interval_bases.lp_error(f, g, p, breakpoints, space=space)

    def scalar_space(self):
        return ValueSpace(1, field=self.field)

    def __repr__(self):
        return f"<{type(self).__name__} {self.name!r}>"


def _layout(handles, pts):
    """Where each handle needs evaluating: ``(order, spts, bounds)``.

    ``spts`` is ``pts`` in ascending order (``pts[order]``, sorted stably;
    ``order`` is None when ``pts`` already ascends), and handle i is evaluated
    on ``spts[lo:hi]`` for ``(lo, hi) = bounds[i]``, the points in its closed
    ``support``.  A handle without one gets every point, and so does every
    handle when the points are not finite 1-D reals.  Points outside every
    support go to the first handle, which rejects them if they lie outside
    its domain, as evaluating it everywhere would.
    """
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

    With ``counts`` the element is instead the K^(R*m)-valued element whose
    block r (columns r*m .. r*m + m - 1, m the coefficient length, 1 for
    scalars) is the partial sum of the first ``counts[r]`` terms; see
    ``partial_sums``.
    """

    def __init__(self, terms, counts=None):
        self.terms = list(terms)
        self.counts = None if counts is None else [int(c) for c in counts]

    def __len__(self):
        return len(self.terms)

    def partial_sums(self, counts):
        """The partial sums of the first ``counts[r]`` terms, side by side.

        Evaluating the result takes one running sum over the terms, each
        handle evaluated once; block r is the running sum as it stands after
        ``counts[r]`` terms (zero for a count of 0).  Since the functionals
        act componentwise, one coefficient call on it gives the coefficients
        of every partial sum.
        """
        counts = [int(c) for c in counts]
        if any(not 0 <= c <= len(self.terms) for c in counts):
            raise InputError(f"partial-sum counts must lie in 0..{len(self.terms)}")
        return FiniteRankElement(self.terms, counts)

    def __call__(self, x):
        x = np.asarray(x)
        scalar_input = x.ndim == 0
        pts = x[None] if scalar_input else x
        acc = self._sums(pts)
        return acc[0] if scalar_input else acc

    def _sums(self, pts):
        """One running sum over the terms on ``pts``, in term order.

        Term i is added only on the points of its support (see ``_layout``).
        Without ``counts`` the result is the sum of all terms; with them,
        block r is the sum as it stands after ``counts[r]`` terms.
        """
        counts = self.counts
        terms = self.terms if counts is None else self.terms[:max(counts, default=0)]
        order, spts, bounds = _layout([handle for handle, _ in terms], pts)
        n = len(pts)
        width = np.size(self.terms[0][1]) if self.terms else 1
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
                    acc = contrib  # as the sum over global terms always began
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
        return FiniteRankElement(handles, self.counts)


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
    """Max over all pairs k, j <= kmax of the projection-algebra discrepancy
    (the max of ``semigroup_discrepancies`` over the components of f)."""
    return float(np.max(semigroup_discrepancies(basis, f, kmax, points)))


def semigroup_discrepancies(basis, f, kmax, points=None):
    """Per component of f, the max over k, j <= kmax of |P_k P_j f - P_min(k,j) f|.

    Every P_j f is a prefix of the one series of f up to kmax, so the
    partial sums of that series at the rank counts
    (``FiniteRankElement.partial_sums``) form one vector-valued element,
    and one batched coefficient call on it gives every lambda_n(P_j f).
    On the grid, one running sum over the terms, from zero and in
    enumeration order, then builds P_k P_j f for every j at once; each time
    it reaches the term count of a rank k it is compared with P_min(k,j) f,
    read off a running sum of the terms of f.  Functionals and sums act
    componentwise, so entry i is the scalar result for component i of f.
    """
    pts = basis.sample_points() if points is None else np.asarray(points)
    idxs = basis.indices(kmax)
    if not idxs:
        return np.zeros(_rows(f(pts)).shape[1])
    coeffs = basis.coefficients(f, idxs)
    grades = [basis.index_set.grade(n) for n in idxs]
    ranks = sorted({int(np.ceil(g)) for g in grades} | {0, kmax})
    counts = [sum(1 for g in grades if g <= r) for r in ranks]
    sums = _element(basis, zip(idxs, coeffs)).partial_sums(counts)
    lifted = basis.coefficients(sums, idxs).reshape(len(idxs), len(ranks), -1)
    coeffs = coeffs.reshape(len(idxs), 1, -1)
    handles = [basis.element(n) for n in idxs]
    _, spts, bounds = _layout(handles, pts)
    values = [_rows(h(spts[lo:hi]))[:, :, None] if lo < hi else None  # (hi - lo, 1, 1)
              for h, (lo, hi) in zip(handles, bounds)]
    dtype = np.result_type(lifted, coeffs, *{v.dtype for v in values if v is not None})
    outer = np.zeros((len(pts), len(ranks), lifted.shape[2]), dtype=dtype)  # P_k P_j f, all j
    direct = np.zeros((len(pts), 1, coeffs.shape[2]), dtype=dtype)  # P_k f
    target = np.zeros_like(outer)  # P_min(k,j) f, all j
    worst = np.zeros(outer.shape)  # entrywise max over the ranks k reached
    hull = len(pts), 0  # rows changed since the last comparison
    for i, (vals, (lo, hi)) in enumerate(zip(values, bounds)):
        if vals is not None:
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
    if hasattr(f, "derivative"):
        return _ComponentBundle(f, i)
    return lambda pts: np.asarray(f(pts))[:, i]


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


def convergence_report(basis, f, ranks, space=None, mode="sup", points=None, p=1):
    """Error of P_k f against f for each rank k, one row per rank.

    Parameters
    ----------
    ranks : sequence of int
        Truncation thresholds, reported in the given order.
    mode : str
        ``"sup"`` for grid sup of the residual rows (derivative-aware for
        families that override ``value_rows``), ``"lp"`` for the family's
        L^p error with panel edges on element kinks.
    space : ValueSpace, optional
        Seminorm family for vector-valued f; defaults to the scalar space.

    Returns
    -------
    list of (rank, errors) with ``errors`` a float array, one entry per
    seminorm of the space.
    """
    if mode not in ("sup", "lp"):
        raise InputError(f"unknown convergence mode {mode!r}")
    sp = space if space is not None else basis.scalar_space()
    # one sweep to the largest rank; each rank's indices are a prefix of it
    sweep = coefficient_sweep(basis, f, max(ranks)) if ranks else []
    counts = [len(basis.indices(k)) for k in ranks]
    if mode == "sup" and ranks:
        # f once, and every P_k f read off one running sum as block r
        pts = basis.sample_points() if points is None else np.asarray(points)
        frows = basis.value_rows(f, pts)
        sums = basis.value_rows(_element(basis, sweep).partial_sums(counts), pts)
        width = sums.shape[1] // len(ranks)
    out = []
    for r, k in enumerate(ranks):
        if mode == "sup":
            rows = frows - sums[:, r * width:(r + 1) * width]
            errs = np.max(sp.seminorm_table(rows), axis=0) if rows.size else np.zeros(len(sp.seminorms))
        else:
            errs = basis.lp_error(f, _element(basis, sweep[:counts[r]]), p, k, space=sp)
        out.append((k, np.asarray(errs, dtype=float)))
    return out
