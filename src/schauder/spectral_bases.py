"""Spectral basis families: Hermite functions, Fourier exponentials, Taylor
monomials, plus the weighted tail bound for Hermite integrals and the bridge
of Hermite/Fourier coefficients into the rapid-decay sequence space.

Coefficients are quadrature-backed: the rule of ``psi_weighted_rule`` on
each axis, the uniform rectangle rule on the torus, and uniform contour
averaging on a circle.  Hermite sums run one axis at a time, each in the
fixed accumulation order of ``quadrature.accumulate``; the rectangle rule
and the contour average of equispaced samples are discrete Fourier
transforms, taken by one ``numpy.fft`` call that transforms each column on
its own.  So repeated runs are byte-stable and vector components match
scalar runs bit for bit.
"""

import cmath
import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .basis_core import BasisFamily, _real_points, _rows
from .errors import InputError, NumericError
from .indexing import IndexSet, _finite_at_least, _int_in, _is_int
from .quadrature import (
    HERMITE_MAX_SIZE,
    QuadratureRule,
    _hermite_rows,
    _overflow_checked,
    _tensor_blocks,
    _tensor_sum,
    gauss_legendre_rule,
    node_major,
    periodic_rule,
    psi_weighted_rule,
    samples_of,
    tensor_grid,
)
from .sequence_spaces import TruncatedSequence
from .value_space import ValueSpace

__all__ = [
    "hermite_function",
    "HermiteBasis",
    "hermite_tail_bound_check",
    "TailBoundReport",
    "fourier_coefficient",
    "FourierBasis",
    "DiscContext",
    "taylor_coefficients",
    "TaylorBasis",
    "to_s_space",
]


# ---------------------------------------------------------------------------
# Hermite functions
# ---------------------------------------------------------------------------


def _as_multi(n, d, signed=False):
    """Index ``n`` as a d-tuple of ints; negative entries only if ``signed``.
    Entries must be integers, as for ``indexing._int_in``: a bool, a float
    or a string is refused."""
    entries = n if isinstance(n, tuple) else (n,) if np.ndim(n) == 0 else tuple(n)
    if len(entries) != d:
        raise InputError(f"index {n!r} has length {len(entries)}, expected {d}")
    if not all(map(_is_int, entries)):
        raise InputError(f"index {n!r} has a non-integer entry")
    ns = tuple(map(int, entries))
    if not signed and any(c < 0 for c in ns):
        raise InputError(f"Hermite indices must be nonnegative, got {n!r}")
    return ns


# the n_max of the largest rule; past it the recurrence table of one order
# alone is (order + 1) x points
HERMITE_MAX_ORDER = (HERMITE_MAX_SIZE - 10) // 2

# the largest ``verify --max-n`` of the Fourier and Taylor families, each set
# from a budget of about 10 s and 300 MB peak RSS for one ``verify --basis B
# --max-n cap`` run (2-core VM, Python 3.11, numpy 2.4): Fourier took 6.5 s
# and 158 MB at 512, 30 s and 333 MB at 1024; Taylor took 2.0 s and 187 MB
# at 512, 10.0 s and 266 MB at 1024
FOURIER_MAX_N = 512
TAYLOR_MAX_N = 1024


def _hermite_orders(n, d):
    """``_as_multi`` of a Hermite index, refused if an entry exceeds
    ``HERMITE_MAX_ORDER``."""
    ns = _as_multi(n, d)
    if max(ns) > HERMITE_MAX_ORDER:
        raise InputError(f"Hermite order {max(ns)} of index {n!r} exceeds {HERMITE_MAX_ORDER}")
    return ns


def hermite_function(n, x, d=1):
    """L^2-normalized Hermite function, tensorized over axes for d > 1.

    h_n(x) = (2^n n! sqrt(pi))^(-1/2) H_n(x) e^(-x^2/2), the last row of
    ``_hermite_rows``; for multi-indices the product over coordinates, taken
    from the left.  ``x`` has shape (k,) or (k, 1) for d = 1 and (k, d)
    otherwise; any other shape is refused, and so is a point that is not
    a finite real, and an order above ``HERMITE_MAX_ORDER`` (495).
    """
    ns = _hermite_orders(n, d)
    x = np.asarray(x)
    scalar = x.ndim == 0 and d == 1
    cols = _hermite_points(x, d)
    # an owned row: a view would keep the whole (n + 1, k) table alive
    vals = _hermite_rows(ns[0], cols[:, 0])[ns[0]].copy()
    for axis, ni in enumerate(ns[1:], start=1):
        vals = vals * _hermite_rows(ni, cols[:, axis])[ni]
    return vals[0] if scalar else vals


def _hermite_points(x, d):
    """Points ``x`` as a (k, d) float array, (k,) read as (k, 1) for d = 1,
    refused unless finite reals of that shape."""
    x = _real_points(x)
    pts = np.atleast_1d(x)
    cols = pts[:, None] if d == 1 and pts.ndim == 1 else pts
    if cols.ndim != 2 or cols.shape[1] != d:
        raise InputError(f"points must have shape (k, {d}){' or (k,)' if d == 1 else ''}, got {pts.shape}")
    return cols


class HermiteBasis(BasisFamily):
    """Hermite-function expansions on R^d by the rule of ``psi_weighted_rule``.

    f_hat(n) = integral f h_n is the rule's sum of f(x) prod_a h_(n_a)(x_a),
    read off the rule's own table, one axis a at a time.  The rule size Q
    defaults to max(40, 2 n_max + 10) per axis, exact for h_j h_k with
    j + k < 2Q; n_max is at most 495, and ``quad_size`` may set Q in
    n_max + 1..1000.  Orders above n_max on any axis are refused.
    """

    name = "hermite"
    field = "real"
    coefficient_tol = 1e-8

    def __init__(self, d=1, n_max=64, quad_size=None):
        self.d = _int_in("dimension d", d, 1, 3)
        self.n_max = _int_in("n_max", n_max, 0, HERMITE_MAX_ORDER)
        # biorthogonality through n_max needs at least n_max + 1 nodes
        self.quad_size = max(40, 2 * self.n_max + 10) if quad_size is None \
            else _int_in("quad_size", quad_size, self.n_max + 1, HERMITE_MAX_SIZE)
        self.index_set = IndexSet("linear", origin=0) if self.d == 1 else IndexSet("multi", dim=self.d)
        _, self._weights, table = psi_weighted_rule(self.quad_size)
        self._table = table[:self.n_max + 1]

    @functools.cached_property
    def _grid(self):
        """The Q^d nodes of the coefficients, built on first use."""
        return tensor_grid(psi_weighted_rule(self.quad_size)[0], self.d)

    def element(self, n):
        ns = _as_multi(self.index_set.validate_member(n), self.d)
        return functools.partial(hermite_function, ns, d=self.d)

    def element_table(self, idxs, pts, order=0):
        """Every element on every point, on the points ``hermite_function``
        reads: one ``_hermite_rows`` table per axis, up to that axis's
        largest order, whose rows are multiplied in from the left, so row
        i is what the handle of ``idxs[i]`` computes.  The elements have no
        derivatives."""
        if order:
            raise InputError("Hermite elements have no derivative support")
        cols = _hermite_points(pts, self.d)
        orders = self.index_set.check(idxs).reshape(-1, self.d)
        table = _hermite_rows(int(orders[:, 0].max(initial=0)), cols[:, 0])[orders[:, 0]]
        for a in range(1, self.d):
            table *= _hermite_rows(int(orders[:, a].max(initial=0)), cols[:, a])[orders[:, a]]
        lo = np.zeros(len(orders), dtype=np.intp)
        return lo, lo + len(cols), table.reshape(-1)

    coefficient = BasisFamily.coefficient

    def coefficients(self, f, idxs):
        """One evaluation of ``f`` on the Q^d grid, then one ``node_major`` pass
        per axis (sum factorisation; Orszag, J. Comput. Phys. 37, 1980) with
        the other axes and the components as columns: each leading axis
        against the rows of its distinct orders, the last against those of
        the requested orders, where index k reads its leading orders off."""
        orders = self.index_set.check(idxs).reshape(-1, self.d)
        top = int(orders.max(initial=0))
        if top > self.n_max:
            # past n_max the rule no longer integrates h_n f: refuse, do not guess
            raise InputError(f"Hermite order {top} exceeds n_max = {self.n_max}; "
                             f"raise n_max (and quad_size) to expand that far")
        samples = samples_of(f, self._grid)
        work = samples.reshape((self.quad_size,) * self.d + samples.shape[1:])
        picks = ()
        for a in range(self.d - 1):
            distinct, pos = np.unique(orders[:, a], return_inverse=True)
            # grid axis a sits at position a, behind the a order axes in front
            work = node_major(self._weights, np.moveaxis(work, a, 0), self._table[distinct])
            picks = (pos,) + picks
        out = node_major(self._weights, np.moveaxis(work, self.d - 1, 0), self._table[orders[:, -1]])
        return out[(np.arange(len(out)),) + picks] if picks else out

    def sample_points(self):
        if self.d == 1:
            return np.linspace(-8.0, 8.0, 321)
        return tensor_grid(np.linspace(-5.0, 5.0, 41), self.d)


# -- weighted tail bound for truncated Hermite integrals ---------------------


@dataclass(frozen=True)
class TailBoundReport:
    """Comparison of a box-truncation gap against its closed-form bound."""

    lhs: np.ndarray
    rhs: np.ndarray
    inner: float
    outer: float

    def passed(self):
        """Whether every gap is within its bound, up to a relative 1e-6."""
        return bool(np.all(self.lhs <= self.rhs * (1.0 + 1e-6)))


def _abs_coeff_sum(n):
    """Sum of the absolute power-basis coefficients of h_n(x) e^{x^2/2}.

    The recurrence of ``_hermite_rows`` run on coefficient vectors (lowest
    power first), so the sum carries the normalization constant.
    """
    prev, cur = np.zeros(n + 1), np.zeros(n + 1)
    cur[0] = math.pi ** -0.25
    for j in range(n):
        nxt = np.zeros(n + 1)
        nxt[1:] = math.sqrt(2.0 / (j + 1)) * cur[:-1]
        prev, cur = cur, nxt - math.sqrt(j / (j + 1)) * prev
    return float(np.sum(np.abs(cur)))


def hermite_tail_bound_check(f, n, inner, outer, d=1, space=None,
                             grid_points=None, order=8, panels_per_unit=4):
    """Check |integral over box(outer) - integral over box(inner) of f h_n|
    against the closed-form tail bound.

    The bound multiplies the polynomial-growth constant of h_n e^{|x|^2/2}
    (sum of absolute coefficients, growth exponent j = |n|), a weighted sup
    of f on a grid over [-10, 10]^d (an under-approximation, which only
    tightens the check), and the difference of the box terms
    2^d [(1 - e^{-outer^2/2})^d - (1 - e^{-inner^2/2})^d].  Each box
    integral is ``weighted_sum`` over ``box_rule``, bit for bit, and the sup
    is folded block by block, the rows of each block built from the 1-D
    grid, so f sees at most ``NODE_BLOCK`` points per call.  The seminorms
    are those of ``space``, by default the sup norm.  Bad radii, panel
    densities, dimensions, grid sizes and orders (an entry above
    ``HERMITE_MAX_ORDER``, 495) are refused before f runs.
    """
    d = _int_in("box dimension", d, 1)
    for name, value in (("inner", inner), ("outer", outer), ("panels_per_unit", panels_per_unit)):
        _finite_at_least(name, value, 0)
    if not 0 < inner < outer or not panels_per_unit > 0:
        raise InputError("need 0 < inner < outer box half-widths and panels_per_unit > 0")
    default = 2001 if d == 1 else 201
    grid_points = _int_in("grid_points", default if grid_points is None else grid_points, 1)
    ns = _hermite_orders(n, d)
    j = sum(ns)

    def integrand(pts):
        fv = np.asarray(f(pts))
        hv = hermite_function(ns, pts, d=d)
        return fv * hv if fv.ndim == 1 else fv * hv[:, None]

    vals = {}
    for c in (inner, outer):
        panels = max(4, int(math.ceil(2.0 * c * panels_per_unit)))
        line = gauss_legendre_rule(-float(c), float(c), panels=panels, order=order)
        vals[c] = np.atleast_1d(_tensor_sum(integrand, line, d))
    gap = vals[outer] - vals[inner]
    # no space: the sup norm of f's values, whatever their field
    space = ValueSpace(len(gap)) if space is None else space
    lhs = space.seminorm_values(gap)

    axis = np.linspace(-10.0, 10.0, grid_points)
    sups = []
    for pts, _ in _tensor_blocks(QuadratureRule(axis, np.ones(grid_points)), d):
        sq = np.sum(np.reshape(pts * pts, (len(pts), -1)), axis=1)
        weight = (1.0 + sq) ** (0.5 * j)
        sups.append(np.max(space.seminorm_table(_rows(f(pts))) * weight[:, None], axis=0))
    fnorm = np.max(sups, axis=0)

    cgrow = math.prod(map(_abs_coeff_sum, ns))
    boxes = (1.0 - math.exp(-0.5 * outer * outer)) ** d \
        - (1.0 - math.exp(-0.5 * inner * inner)) ** d
    rhs = (2.0 ** d) * cgrow * fnorm * boxes
    return TailBoundReport(lhs=lhs, rhs=np.asarray(rhs), inner=float(inner),
                           outer=float(outer))


# ---------------------------------------------------------------------------
# Fourier exponentials on the torus
# ---------------------------------------------------------------------------


def fourier_coefficient(f, n):
    """f_hat(n) on [-pi, pi] by the 64-point rectangle rule (see ``FourierBasis``)."""
    return FourierBasis(grid_size=64).coefficient(f, n)


def _phase(x, ns):
    """<n, x> per point: x * n_0 for d = 1, else sum_a n_a x[..., a] folded
    from the left over the coordinate columns, the same bits in any layout."""
    if len(ns) == 1:
        return x * ns[0]
    phase = x[..., 0] * ns[0]
    for a in range(1, len(ns)):
        phase = phase + x[..., a] * ns[a]
    return phase


class FourierBasis(BasisFamily):
    """Exponential modes e^{i<n, x>} on [-pi, pi]^d, Euclidean-graded.

    f_hat(n) = (2 pi)^{-d} integral over [-pi, pi]^d of f(x) e^{-i<n, x>}
    by the rectangle rule of ``grid_size`` points per axis (default
    max(64, 4 n_max + 1)), which is exact for trigonometric polynomials
    with every mode gap below the grid size; modes beyond ``max_mode`` =
    (grid_size - 1) // 2 alias and are rejected.
    """

    name = "fourier"
    field = "complex"
    coefficient_tol = 1e-8

    def __init__(self, d=1, n_max=32, grid_size=None):
        self.n_max = _int_in("n_max", n_max, 0)
        self.d = _int_in("dimension d", d, 1, 3)
        self.grid_size = max(64, 4 * self.n_max + 1) if grid_size is None \
            else _int_in("grid_size", grid_size, 1)
        self.max_mode = (self.grid_size - 1) // 2
        self.index_set = IndexSet("lattice", dim=self.d)

    @functools.cached_property
    def rule(self):
        """The rectangle rule of the coefficients, built on first use."""
        return periodic_rule(self.grid_size, d=self.d)

    def element(self, n):
        ns = _as_multi(self.index_set.validate_member(n), self.d, signed=True)

        def e(x, ns=ns):
            return np.exp(1j * _phase(_real_points(x), ns))

        return e

    coefficient = BasisFamily.coefficient

    def coefficients(self, f, idxs):
        """One evaluation of ``f`` on the rectangle rule, then one FFT of the
        samples on their (N,) * d grid, last axis fastest as ``tensor_grid``
        lays them out, scaled by N^-d.  Node j of an axis sits at -pi + 2 pi
        j / N, so mode n is the entry at n mod N times (-1)^(n_1 + ... + n_d)."""
        idxs = list(idxs)
        ns = self.index_set.check(idxs)
        aliased = np.flatnonzero(np.any((ns < -self.max_mode) | (ns > self.max_mode), axis=1))
        if aliased.size:
            raise InputError(f"mode {idxs[aliased[0]]!r} exceeds the aliasing guard "
                             f"{self.max_mode} of a size-{self.grid_size} grid")
        size, axes = self.grid_size, tuple(range(self.d))
        samples = samples_of(f, self.rule.nodes)
        grid = samples.reshape((size,) * self.d + samples.shape[1:])
        spectrum = _overflow_checked(len(samples), lambda: np.fft.fftn(grid, axes=axes, norm="forward"))
        sign = np.where(ns.sum(axis=1) % 2, -1.0, 1.0).reshape((-1,) + (1,) * (samples.ndim - 1))
        return spectrum[tuple((ns % size).T)] * sign

    def indices(self, k):
        idxs = self.index_set.up_to(k)
        if self.d == 1:
            return [n[0] for n in idxs]
        return idxs

    def sample_points(self):
        if self.d == 1:
            return periodic_rule(256).nodes
        return periodic_rule(24, d=self.d).nodes


# ---------------------------------------------------------------------------
# Taylor coefficients by uniform contour averaging
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscContext:
    """Expansion disc |z - center| < radius with an averaging contour inside
    it: a finite complex center, a real radius (inf included), a finite real
    contour radius; a bool or a string is refused as any of them."""

    center: complex = 0.0
    radius: float = math.inf
    contour_radius: float = 1.0
    contour_points: int = 64

    def __post_init__(self):
        center = self.center
        if isinstance(center, bool) or not isinstance(center, numbers.Complex) or not cmath.isfinite(center):
            raise InputError(f"disc center must be finite (a number, not a bool or a string), got {center!r}")
        if self.radius != math.inf:
            _finite_at_least("disc radius", self.radius, 0)
        _finite_at_least("contour_radius", self.contour_radius, 0)
        for key, kind in (("center", complex), ("radius", float), ("contour_radius", float)):
            object.__setattr__(self, key, kind(getattr(self, key)))
        if not 0.0 < self.contour_radius < self.radius:
            raise InputError(f"need 0 < contour_radius < radius (got {self.contour_radius}, {self.radius})")
        npts = self.contour_points
        if not _is_int(npts) or npts < 4 or npts & (npts - 1):
            raise InputError(f"contour_points must be a power of two, >= 4, got {npts!r}")


def taylor_coefficients(f, n_max, ctx=None):
    """Derivative coefficients c_0..c_{n_max} at the disc center.

    c_n = (N rho^n)^{-1} sum_j f(z_0 + rho w^j) w^{-jn} with w the primitive
    N-th root of unity; one function evaluation pass on the contour, then
    one FFT of the samples, whose entry n is the sum.  The contour size must
    be at least 4 n_max (aliasing margin); the residual alias error scales
    like (rho / radius-of-validity)^N.

    The FFT transforms each column of a vector-valued handle on its own, so
    each column gets the bits of its scalar component.  A non-integer
    ``n_max``, and an order whose 1 / (N rho^n) is not a finite nonzero
    float, are refused before f runs; a transform that overflows raises
    ``NumericError``, as in ``quadrature.accumulate``.
    """
    n_max = _int_in("n_max", n_max, 0)
    return list(_contour_average(f, range(n_max + 1), ctx or DiscContext())[0])


def _contour_average(f, orders, ctx):
    """The contour averages of the nonempty integer ``orders``, with the
    contour samples and the scales 1 / (N rho^n), n = 0..max(orders), it read."""
    npts, n_max = ctx.contour_points, int(np.max(orders))
    if npts < max(4, 4 * n_max):
        raise InputError(f"contour of {npts} points is too small for order {n_max}; "
                         f"need at least {max(4, 4 * n_max)}")
    scales = _contour_scales(ctx, n_max)
    angles = 2.0 * math.pi * np.arange(npts) / npts
    zs = ctx.center + ctx.contour_radius * np.exp(1j * angles)
    samples = samples_of(f, zs)
    return _contour_sums(samples, orders, scales), samples, scales


def _check_rounding(ctx, samples, scales, orders, tol):
    """Refuse the lowest of ``orders`` whose contour average may lose more
    than ``tol`` to rounding, with a ``NumericError`` naming it.

    The estimate is sqrt(N) eps max_j |f(z_j)| / rho^n: the sum of N samples
    of size up to M rounds with an error of about sqrt(N) eps M (Higham and
    Mary, SIAM J. Sci. Comput. 41, 2019), and the average divides it by
    rho^n, so a large contour whose samples cancel to a small coefficient
    is caught (the condition number of Bornemann, Found. Comput. Math. 11,
    2011).  ``scales[n]`` is 1 / (N rho^n).
    """
    npts = ctx.contour_points
    with np.errstate(over="ignore"):  # |re + i im| past the float range is inf: refused
        top = float(np.max(np.abs(samples)))
    rounding = math.sqrt(npts) * float(np.finfo(float).eps) * top * npts
    for n in sorted(set(orders)):
        est = rounding * scales[n]
        if est > tol:
            raise NumericError(
                f"contour_radius {ctx.contour_radius!r}: the order-{n} contour average "
                f"may be off by {est:.1e} from rounding, above the tolerance {tol:g}")


def _contour_scales(ctx, n_max):
    """1 / (N rho^n) for n = 0..n_max, each a finite nonzero float or refused."""
    rho, npts, scales = ctx.contour_radius, ctx.contour_points, []
    for n in range(n_max + 1):
        try:
            scales.append(1.0 / (npts * rho ** n))
        except (OverflowError, ZeroDivisionError):  # rho^n overflows, or underflows to 0
            scales.append(0.0)
        if not 0.0 < scales[-1] < math.inf:
            raise InputError(f"contour_radius {rho!r} is out of range for order {n}: "
                             f"1 / ({npts} rho^{n}) is not a finite nonzero number")
    return scales


def _contour_sums(samples, orders, scales):
    """scales[n] times sum_j samples[j] w^(-jn), entry n of the samples' FFT,
    per order n of ``orders``."""
    ns = np.asarray(orders, dtype=np.intp)
    scale = np.asarray(scales)[ns].reshape((-1,) + (1,) * (samples.ndim - 1))
    return _overflow_checked(len(samples), lambda: np.fft.fft(samples, axis=0)[ns] * scale)


class TaylorBasis(BasisFamily):
    """Monomials (z - z_0)^n with contour-average coefficient functionals."""

    name = "taylor"
    field = "complex"
    coefficient_tol = 1e-10

    def __init__(self, center=0.0, radius=math.inf, contour_radius=1.0,
                 n_max=16, contour_points=None):
        self.n_max = _int_in("n_max", n_max, 0)
        # the least power of two at or above 4 n_max, and at least 64
        npts = max(64, 1 << (4 * max(self.n_max, 1) - 1).bit_length()) \
            if contour_points is None else _int_in("contour_points", contour_points, 1)
        self.ctx = DiscContext(center, radius, contour_radius, npts)
        self.index_set = IndexSet("linear", origin=0)

    def element(self, n):
        n = int(self.index_set.validate_member(n))

        def mono(z, n=n, z0=self.ctx.center):
            z = np.asarray(z)
            if z.dtype.kind not in "iufc" or not np.isfinite(z).all():
                raise InputError("Taylor monomials need finite real or complex points")
            return (z - z0) ** n

        return mono

    coefficient = BasisFamily.coefficient

    def coefficients(self, f, idxs):
        idxs = self.index_set.check(idxs)
        if not idxs.size:
            return np.zeros(0)
        coeffs, samples, scales = _contour_average(f, idxs, self.ctx)
        _check_rounding(self.ctx, samples, scales, idxs, self.coefficient_tol)
        return coeffs

    def sample_points(self):
        angles = 2.0 * math.pi * np.arange(64) / 64
        return self.ctx.center + self.ctx.contour_radius * np.exp(1j * angles)


# ---------------------------------------------------------------------------
# bridge into weighted sequence spaces
# ---------------------------------------------------------------------------


def to_s_space(basis, f, n_max):
    """Truncated coefficient sequence of ``f`` in the rapid-decay weighting.

    Supported for the Hermite and Fourier families (their index sets carry
    the Euclidean weights (1 + |k|^2)^{j/2}).  Returns a TruncatedSequence
    tagged "s".
    """
    if not isinstance(basis, (HermiteBasis, FourierBasis)):
        raise InputError("s-space bridge supports Hermite and Fourier families")
    idxs = basis.indices(n_max)
    return TruncatedSequence(tuple(idxs), basis.coefficients(f, idxs), limit=None, space="s")
