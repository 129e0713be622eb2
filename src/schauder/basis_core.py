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
Synthesis reads element values from one ``element_table`` per call: each
element's values on the points of its closed support (Haar steps, hats and
the C^k elements are local; Hermite, Fourier and Taylor elements are
global), term-major.  One running sum, ``_running``, then adds the products
with the coefficients term by term in enumeration order, each on its own
points (recursive summation; Higham, Accuracy and Stability of Numerical
Algorithms, 2nd ed., section 4.2), so every entry is its own sequential sum
over the terms.  Finite-rank elements, their partial sums and the semigroup
check all read it.  A term is added only where it can be nonzero; a skipped
term would only have added an exact zero, so only the sign of a zero result
can differ from adding every term everywhere.
"""

import copy
from abc import ABC, abstractmethod

import numpy as np

from .errors import InputError
from .indexing import _finite_at_least, _int_in, _numbers
from .value_space import ValueSpace

__all__ = [
    "BasisFamily",
    "FiniteRankElement",
    "ExpansionOperator",
    "materialize",
    "partial_sum",
    "projection_algebra_check",
    "semigroup_max_discrepancy",
    "semigroup_discrepancies",
    "biorthogonality_matrix",
    "vector_scalar_consistency",
    "vector_scalar_gap",
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

    def element_table(self, idxs, pts, order=0):
        """Elements ``idxs`` (their ``order``-th derivatives) on ``pts``, term-major.

        Returns ``(lo, hi, values)``: element i is exactly zero on ``pts``
        outside ``pts[lo[i]:hi[i]]``, and its values there are the next
        ``hi[i] - lo[i]`` entries of ``values``, after those of the elements
        before it.  When ``pts`` are finite 1-D reals they must ascend, and
        the ranges are the points in each element's closed support;
        otherwise every element gets every point.  The default evaluates
        each handle once; the Haar, hat, C^k and d = 1 Hermite families
        override it with the same float operations as their handles, and
        refuse what those tables cannot read.  A term without the
        derivative is refused, and so is a point outside the domain.
        """
        return _handle_table([self.element(n) for n in idxs], pts, order)

    @abstractmethod
    def coefficients(self, f, idxs):
        """The coefficient functionals of an index list applied to ``f``.

        Returns an array whose row i is lambda_{idxs[i]}(f) (no rows for an
        empty list): a scalar for scalar-valued ``f`` and a length-m vector
        for vector-valued ``f``; components of the vector result are computed
        by exactly the scalar component computations.  ``f`` is evaluated
        once on the union of the nodes the indices need, and each row is
        accumulated in the same order whatever else is in the batch, so every
        batch gives the same bits.
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
        involve derivatives (the C^k family) override ``_value_rows`` to
        stack derivative rows below them; residuals are differences of such
        rows.  Points the family's elements refuse are refused before ``f``
        runs.
        """
        return self._value_rows(f, self._checked_points(pts))

    def _value_rows(self, f, pts):
        """``value_rows`` on points already checked."""
        return _rows(f(pts))

    def _checked_points(self, x):
        """``x`` as an array, refused with ``InputError`` unless its entries
        are integers, floats or complex numbers that the family's elements
        read: the elements of a family share one domain, so the table of its
        first element refuses what the table of all would."""
        x = _numbers("points", x, "iufc")
        self.element_table(self.indices(1)[:1], _ascending(np.atleast_1d(x))[1])
        return x

    def lp_error(self, f, g, p, rank, space=None):
        """``interval_bases.lp_error`` of ``g`` against ``f``, panel edges on
        ``segment_breakpoints(rank)``; without breakpoints there is no L^p mode."""
        from . import interval_bases  # imports this module; read at call time
        return interval_bases.lp_error(f, g, p, self._lp_breakpoints(rank), space=space)

    def _lp_breakpoints(self, rank):
        """``segment_breakpoints`` of a rank checked as a finite real >= 0,
        refused with ``InputError`` if the family has no L^p error mode."""
        breakpoints = self.segment_breakpoints(_finite_at_least("truncation rank", rank, 0))
        if breakpoints is None:
            raise InputError(f"basis family {self.name!r} has no L^p error mode")
        return breakpoints

    def scalar_space(self):
        return ValueSpace(1, field=self.field)

    def __repr__(self):
        return f"<{type(self).__name__} {self.name!r}>"


def _ascending(pts):
    """``(order, pts[order])``: 1-D real ``pts`` sorted stably; ``order`` is
    ``slice(None)`` when they already ascend or are not 1-D reals."""
    if pts.ndim != 1 or np.iscomplexobj(pts) or np.all(pts[1:] >= pts[:-1]):
        return slice(None), pts
    order = np.argsort(pts, kind="stable")
    return order, pts[order]


def _on_line(pts):
    """Whether ``pts`` are finite 1-D reals (ascending ones: only the ends are read)."""
    return pts.ndim == 1 and not np.iscomplexobj(pts) and (
        not len(pts) or bool(np.isfinite(pts[0]) and np.isfinite(pts[-1])))


def _real_points(x, lo=-np.inf, hi=np.inf):
    """``x`` as a float array, refused unless its dtype is real (integers or
    floats) and every point is a finite point of [lo, hi].  Each point is
    compared, and the test negated, so a NaN anywhere is refused too."""
    x = np.asarray(x)
    if x.dtype.kind not in "iuf" or not np.all(np.isfinite(x) & (lo <= x) & (x <= hi)):
        raise InputError(f"evaluation needs real numbers that are finite points of [{lo:.15g}, {hi:.15g}]")
    return x.astype(float, copy=False)


def _handle_table(handles, pts, order=0):
    """``BasisFamily.element_table`` of explicit handles: each handle (or its
    ``order``-th derivative) evaluated once, on the points ``_layout`` gives
    it, and refused unless it gives one scalar per point."""
    if order:
        if not all(hasattr(handle, "derivative") for handle in handles):
            raise InputError("finite-rank element has a term without derivative support")
        handles = [handle.derivative(order) for handle in handles]
    lo, hi = _layout(handles, pts)
    values = []
    for handle, a, b in zip(handles, lo.tolist(), hi.tolist()):
        if a < b:
            values.append(np.asarray(handle(pts[a:b])))
            if values[-1].shape != (b - a,):
                raise InputError(f"an element gave values of shape {values[-1].shape} "
                                 f"on {b - a} points; expected one scalar per point")
    return lo, hi, np.concatenate(values) if values else np.zeros(0)


def _layout(handles, pts):
    """Where each handle needs evaluating: the points ``pts[lo[i]:hi[i]]``.

    On ascending finite 1-D reals these are the points in handle i's closed
    ``support``; a handle without one gets every point, and so does every
    handle on other points.  Points outside every support go to the first
    handle, which rejects them if they lie outside its domain, as evaluating
    it everywhere would.
    """
    n = len(pts)
    supports = [getattr(handle, "support", None) for handle in handles]
    if not n or not _on_line(pts) or all(s is None for s in supports):
        return np.zeros(len(handles), dtype=np.intp), np.full(len(handles), n, dtype=np.intp)
    lo = np.searchsorted(pts, [-np.inf if s is None else s[0] for s in supports], side="left")
    hi = np.searchsorted(pts, [np.inf if s is None else s[1] for s in supports], side="right")
    first, last = lo.min(), hi.max()
    if first > 0 or last < n:
        handles[0](np.concatenate([pts[:first], pts[last:]]))
    return lo, hi


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

    The element is ``(basis, idxs, coeffs)``: row i of ``coeffs`` (a scalar
    or a vector, the same length for every row) multiplies element
    ``idxs[i]`` of ``basis``.  ``FiniteRankElement(terms)`` takes an ordered
    list of ``(handle, coefficient)`` pairs instead, and ``terms`` lists the
    pairs of any element, each handle made when it is read.  Called at x,
    the element is sum_n f_n(x) * e_n: the action of the point evaluation
    at x, which must be numbers (``indexing._numbers``: no string, no bool
    among them) that the family's table reads.  Its values come from one
    ``element_table`` call on the sorted points, and ``_running`` adds the
    terms in term order, each on the points of its support.  A plain call
    is the partial sum of every term, and every sum is written straight
    into the caller's point order, with no second copy of the result.

    ``partial_sums`` makes the K^(R*m)-valued element whose block r
    (columns r*m .. r*m + m - 1, m the coefficient length, 1 for scalars)
    is the partial sum of the first ``counts[r]`` terms, and ``derivative``
    the element whose every f_n is replaced by its ``order``-th derivative.
    """

    def __init__(self, terms):
        terms = list(terms)
        self.basis = _Handles([handle for handle, _ in terms])
        self.idxs = list(range(len(terms)))
        self.coeffs = np.asarray([coeff for _, coeff in terms])
        self.counts = None
        self.order = 0

    @property
    def terms(self):
        """The ``(handle, coefficient)`` pairs, in term order."""
        return _Terms(self)

    def __len__(self):
        return len(self.idxs)

    def _with(self, **changes):
        out = copy.copy(self)
        vars(out).update(changes)
        return out

    def partial_sums(self, counts):
        """The partial sums of the first ``counts[r]`` terms, side by side.

        Evaluating the result takes one running sum over the terms, each
        element tabulated once; block r is the running sum as it stands
        after ``counts[r]`` terms (zero for a count of 0).  Since the
        functionals act componentwise, one coefficient call on it gives the
        coefficients of every partial sum.
        """
        counts = [_int_in("partial-sum counts", c, 0, len(self.idxs)) for c in counts]
        return self._with(counts=counts)

    def __call__(self, x):
        x = _numbers("points", x, "iufc")
        pts = x[None] if x.ndim == 0 else x
        if self.counts is None:  # the partial sum of every term
            out = self._with(counts=[len(self.idxs)])._sums(pts)
            out = out.reshape((len(pts),) + self.coeffs.shape[1:])
        else:
            out = self._sums(pts)
        return out[0] if x.ndim == 0 else out

    def _sums(self, pts):
        """Block r of the running sum over the terms as it stands after
        ``counts[r]`` terms (zero while no term has been added), in the
        caller's row order: the table and the sum run on the sorted points,
        and each block is written straight into the rows its points came
        from."""
        rows, spts = _ascending(pts)
        n, total = len(pts), max(self.counts, default=0)
        width = int(np.prod(self.coeffs.shape[1:]))
        out = np.zeros((n, len(self.counts) * width))
        if total:
            table = self.basis.element_table(self.idxs[:total], spts, self.order)
            for c, acc, _ in _running(table, n, self.coeffs[:total], self.counts):
                out = out.astype(np.result_type(out, acc), copy=False)
                for r, k in enumerate(self.counts):
                    if k == c:
                        out[rows, r * width:(r + 1) * width] = acc.reshape(n, width)
        return out

    def derivative(self, order=1):
        """The termwise ``order``-th derivative, read off the family's
        derivative tables; a term without that derivative is refused here,
        before anything is evaluated.  ``order`` is an integer >= 0."""
        order = _int_in("derivative order", order, 0)
        if not order:
            return self
        order += self.order
        self.basis.element_table(self.idxs, np.zeros(0), order)
        return self._with(order=order)


def _running(table, n, coeffs, stops):
    """The running sum over the terms of an ``element_table`` result on n
    points, added term by term in term order.

    Row i of ``coeffs`` multiplies term i, whose products are added only on
    its own points: ``acc[lo:hi] += values * coeffs[i]``.  A first term
    covering every point starts the sum.  At each count of ``stops``, in
    ascending order, yields ``(count, acc, rows)``: the sum of the first
    ``count`` terms, updated in place by later terms, and the slice of the
    points changed since the last yield.  Counts reached before any term has
    been added are skipped, as the sum is zero there.
    """
    lo, hi, values = table
    stops = set(stops)
    acc, changed, start = None, (n, 0), 0
    for i, a, b in zip(range(max(stops, default=0)), lo.tolist(), hi.tolist()):
        if a < b:
            vals, coeff = values[start:start + b - a], coeffs[i]
            start += b - a
            if acc is None:
                acc = np.zeros((n,) + coeff.shape, dtype=np.result_type(vals, coeff))
                if b - a == n:
                    acc = -acc  # -0 is the additive identity: the term's bits start the sum
            acc[a:b] += vals * coeff if coeff.ndim == 0 else vals[:, None] * coeff[None, :]
            changed = min(changed[0], a), max(changed[1], b)
        if i + 1 in stops and acc is not None:
            yield i + 1, acc, slice(*changed)
            changed = n, 0


class _Terms:
    """The ``(handle, coefficient)`` pairs of an element, a sequence whose
    handles are made when read."""

    def __init__(self, element):
        self.element = element

    def __len__(self):
        return len(self.element.idxs)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        el = self.element
        handle = el.basis.element(el.idxs[i])
        return (handle.derivative(el.order) if el.order else handle), el.coeffs[i]


class _Handles:
    """Explicit handles as a family of elements: element i is ``handles[i]``."""

    def __init__(self, handles):
        self.handles = handles

    def element(self, i):
        return self.handles[i]

    element_table = BasisFamily.element_table


class ExpansionOperator:
    """The rank-k partial-sum operator P_k of a basis family."""

    def __init__(self, basis, k):
        self.basis = basis
        self.k = _finite_at_least("truncation rank", k, 0)

    def __call__(self, f):
        return materialize(self.basis, f, self.k)

    def __repr__(self):
        return f"ExpansionOperator({self.basis.name}, k={self.k})"


def _sweep(basis, f, k):
    """The indices of grade <= k and their coefficient array."""
    idxs = basis.indices(k)
    return idxs, basis.coefficients(f, idxs) if idxs else np.zeros(0)


def materialize(basis, f, k):
    """P_k f as a finite-rank element over ``basis`` (indices and coefficients)."""
    return _element(basis, *_sweep(basis, f, k))


def _element(basis, idxs, coeffs):
    """sum_i coeffs[i] f_(idxs[i]), synthesised from ``basis.element_table``."""
    out = FiniteRankElement(())
    out.basis, out.idxs, out.coeffs = basis, list(idxs), np.asarray(coeffs)
    return out


def partial_sum(basis, f, k, x):
    """Evaluate P_k f at point(s) ``x``: coefficients times elements, in order.

    Points that are not integers, floats or complex numbers, and points the
    family's elements refuse (``BasisFamily._checked_points``), raise
    ``InputError`` before ``f`` runs.
    """
    x = basis._checked_points(x)
    return materialize(basis, f, k)(x)


def projection_algebra_check(basis, f, k, j):
    """Max discrepancy of P_k(P_j f) against P_min(k,j) f on the family's
    sample points: P_j f is materialized, fed back through the coefficient
    functionals, and the residual synthesised from the defects of
    ``semigroup_discrepancies``.  Returns the sup over the grid and the
    components of the residual."""
    k, j = (_finite_at_least("truncation rank", r, 0) for r in (k, j))
    # the functionals of grade in (j, k] read the zero element, so a rank k
    # past the family's range is refused before f runs
    basis.coefficients(_element(basis, [], np.zeros(0)), basis.indices(k)[len(basis.indices(j)):])
    inner = materialize(basis, f, j)
    outer = materialize(basis, inner, k)  # P_k P_j f; its coefficients become the defects
    shared = min(len(outer), len(inner))  # the indices of grade <= min(k, j)
    outer.coeffs[:shared] -= inner.coeffs[:shared]
    rows = _rows(outer(basis.sample_points()))
    return float(np.max(np.abs(rows))) if rows.size else 0.0


def semigroup_max_discrepancy(basis, f, kmax, points=None):
    """Max over all pairs k, j <= kmax of the projection-algebra discrepancy
    (the max of ``semigroup_discrepancies`` over the components of f)."""
    return float(np.max(semigroup_discrepancies(basis, f, kmax, points)))


# entries of one rank chunk of ``semigroup_discrepancies``: ranks times
# max(points, indices) times components
_SEMIGROUP_ENTRIES = 1 << 20


def semigroup_discrepancies(basis, f, kmax, points=None):
    """Per component of f, the max over k, j <= kmax of |P_k P_j f - P_min(k,j) f|.

    Every P_j f is a prefix of the one series of f up to kmax, so the
    partial sums of that series at the rank counts
    (``FiniteRankElement.partial_sums``) form one vector-valued element,
    and one batched coefficient call on it gives every lambda_n(P_j f).
    By linearity P_k P_j f - P_min(k,j) f is the sum over n of grade <= k
    of the defect (lambda_n(P_j f) - c_n [grade n <= j]) f_n, c_n the
    coefficients of f.  The defects replace the lifted coefficients in
    place, and one running sum of them (``_running``) over the grid's
    element table, which is made before f runs, gives the residual of every
    j; at the term count of each rank k, its max modulus on the points
    changed since the last count joins the max.  Functionals and sums act
    componentwise, so entry i is the scalar result for component i of f.

    The ranks j run in equal chunks of at most ``_SEMIGROUP_ENTRIES`` /
    (max(points, indices) * m) ranks, m the component count, each with its
    own coefficient call and running sum, so its defects and its sum on
    the grid hold about 2^20 entries at most, beside the lifted element on
    the family's coefficient nodes, which may outnumber the grid.  A max
    is exact, and by the batch contract of ``coefficients`` each column
    has the bits it has alone, so the chunks leave every bit.
    """
    pts = basis.sample_points() if points is None else _numbers("points", points, "iufc")
    idxs = basis.indices(kmax)
    if not idxs:  # no table refuses bad points before f runs
        return np.zeros(_rows(f(basis._checked_points(pts))).shape[1])
    table = basis.element_table(idxs, _ascending(pts)[1])
    coeffs = basis.coefficients(f, idxs)
    grades = [basis.index_set.grade(n) for n in idxs]
    ranks = sorted({int(np.ceil(g)) for g in grades} | {0, kmax})
    counts = np.searchsorted(np.sort(grades), ranks, side="right").tolist()  # grades <= r
    series = _element(basis, idxs, coeffs)
    n, width = len(pts), int(np.prod(coeffs.shape[1:]))
    coeffs = coeffs.reshape(len(idxs), width)
    chunks = -(-len(ranks) // max(1, _SEMIGROUP_ENTRIES // (max(n, len(idxs)) * width)))
    size = -(-len(ranks) // chunks)  # ceilings: as few chunks as fit, of equal size
    out = np.zeros(width)  # max over the chunks done
    for r0 in range(0, len(ranks), size):
        part = counts[r0:r0 + size]
        defect = basis.coefficients(series.partial_sums(part), idxs).reshape(len(idxs), -1, width)
        for r, c in enumerate(part):  # lambda_n(P_j f) - c_n [n < count of j]
            defect[:c, r] -= coeffs[:c]
        worst = np.zeros(len(part) * width)  # max over the ranks k reached
        for _, acc, rows in _running(table, n, defect.reshape(len(idxs), -1), counts):
            # P_k P_j f - P_min(k,j) f; rows outside ``rows`` are unchanged
            np.maximum(worst, np.abs(acc[rows]).max(axis=0, initial=0.0), out=worst)
        np.maximum(out, worst.reshape(-1, width).max(axis=0), out=out)
    return out


def biorthogonality_matrix(basis, count):
    """Matrix [lambda_m(f_n)] over the first ``count`` enumerated indices.

    The elements are lifted into one K^count-valued finite-rank element
    whose term a carries row a of the identity, so column a is f_{n_a}
    exactly and one batched coefficient call gives the whole matrix.
    """
    count = _int_in("biorthogonality count", count, 0)
    enum = _first_indices(basis, count)
    dtype = np.complex128 if basis.field == "complex" else float
    out = np.zeros((count, count), dtype=dtype)
    if count:
        out[:] = basis.coefficients(_element(basis, enum, np.eye(count)), enum)
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
    """Max gap between the vector coefficient n of ``f`` and its componentwise
    scalar ones: ``vector_scalar_gap`` of the one index n."""
    return vector_scalar_gap(basis, f, [n], components)


def vector_scalar_gap(basis, f, idxs, components):
    """Max gap between vector coefficients and componentwise scalar ones.

    ``f`` is a vector-valued handle with the given component count.  One
    batched call gives the vector coefficients of every index and one call
    per component the scalar ones; by the batch contract of ``coefficients``
    each row has the bits it has alone.  Shared evaluation points and
    accumulation order make the two routes agree to the bit; the check
    still computes both honestly.
    """
    idxs = list(idxs)
    components = _int_in("component count", components, 1)
    vec = np.asarray(basis.coefficients(f, idxs))
    if vec.shape[1:] != (components,):
        raise InputError(
            f"vector coefficient has shape {vec.shape[1:]}, expected ({components},)"
        )
    scalar = np.stack([basis.coefficients(_component_handle(f, i), idxs)
                       for i in range(components)], axis=1)
    return float(np.max(np.abs(scalar - vec)))


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


def convergence_report(basis, f, ranks, space=None, mode="sup", p=1):
    """Error of P_k f against f for each rank k, one row per rank.

    Parameters
    ----------
    ranks : sequence of int
        Truncation thresholds, reported in the given order.
    mode : str
        ``"sup"`` for the sup of the residual rows over ``sample_points()``
        (the family's ``value_rows``, derivative-aware for C^k),
        ``"lp"`` for the family's L^p error with panel edges on element
        kinks.
    space : ValueSpace, optional
        Seminorm family for vector-valued f; defaults to the scalar space.

    Returns
    -------
    list of (rank, errors) with ``errors`` a float array, one entry per
    seminorm of the space.
    """
    if mode not in ("sup", "lp"):
        raise InputError(f"unknown convergence mode {mode!r}")
    # refused before the sweep runs f
    ranks = [_finite_at_least("truncation rank", k, 0) for k in ranks]
    if mode == "lp":
        _finite_at_least("exponent p", p, 1)
        if ranks:
            basis._lp_breakpoints(max(ranks))
    sp = space if space is not None else basis.scalar_space()
    # one sweep to the largest rank; each rank's indices are a prefix of it
    idxs, coeffs = _sweep(basis, f, max(ranks)) if ranks else ([], np.zeros(0))
    counts = [len(basis.indices(k)) for k in ranks]
    if mode == "sup" and ranks:
        # f once, and every P_k f read off one running sum as block r
        pts = basis.sample_points()
        frows = basis._value_rows(f, pts)
        sums = basis._value_rows(_element(basis, idxs, coeffs).partial_sums(counts), pts)
        width = sums.shape[1] // len(ranks)
    out = []
    for r, k in enumerate(ranks):
        if mode == "sup":
            rows = frows - sums[:, r * width:(r + 1) * width]
            errs = np.max(sp.seminorm_table(rows), axis=0) if rows.size else np.zeros(len(sp.seminorms))
        else:
            partial = _element(basis, idxs[:counts[r]], coeffs[:counts[r]])
            errs = basis.lp_error(f, partial, p, k, space=sp)
        out.append((k, np.asarray(errs, dtype=float)))
    return out
