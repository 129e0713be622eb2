"""Spectral basis families: Hermite functions, Fourier exponentials, Taylor
monomials, plus the weighted tail bound for Hermite integrals and the bridge
of Hermite/Fourier coefficients into the rapid-decay sequence space.

Coefficients are quadrature-backed: the rule of ``psi_weighted_rule`` on the
line, the uniform rectangle rule on the torus, and uniform contour averaging
on a circle.  All three inherit the fixed accumulation order of
``quadrature.accumulate`` or reproduce it literally (the contour average), so
repeated runs are byte-stable and vector components match scalar runs bit for bit.
"""

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .basis_core import BasisFamily
from .errors import InputError
from .indexing import IndexSet
from .quadrature import (
    HERMITE_MAX_SIZE,
    QuadratureRule,
    _hermite_rows,
    _overflow_checked,
    accumulate,
    box_rule,
    periodic_rule,
    psi_weighted_rule,
    require_finite,
    samples_of,
    tensor_grid,
    tensor_rule,
    weighted_sum,
)
from .sequence_spaces import TruncatedSequence

__all__ = [
    "hermite_function",
    "HermiteBasis",
    "hermite_tail_bound_check",
    "TailBoundReport",
    "PeriodicContext",
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


def _n_max(n_max, top=math.inf):
    """``n_max`` as an int, refused unless it is an integer in 0..top."""
    if not isinstance(n_max, (int, np.integer)) or not 0 <= n_max <= top:
        raise InputError(f"n_max must be an integer in 0..{top}, got {n_max!r}")
    return int(n_max)


def _as_multi(n, d, signed=False):
    """Index ``n`` as a d-tuple of ints; negative entries only if ``signed``."""
    if isinstance(n, (int, np.integer)):
        if d != 1:
            raise InputError(f"scalar index {n} for a {d}-dimensional family")
        ns = (int(n),)
    else:
        ns = tuple(int(c) for c in n)
        if len(ns) != d:
            raise InputError(f"index {n!r} has length {len(ns)}, expected {d}")
    if not signed and any(c < 0 for c in ns):
        raise InputError(f"Hermite indices must be nonnegative, got {n!r}")
    return ns


def hermite_function(n, x, d=1):
    """L^2-normalized Hermite function, tensorized over axes for d > 1.

    h_n(x) = (2^n n! sqrt(pi))^(-1/2) H_n(x) e^(-x^2/2), the last row of
    ``_hermite_rows``; for multi-indices the product over coordinates, taken
    from the left.  ``x`` has shape (k,) for d = 1 and (k, d) otherwise.
    """
    ns = _as_multi(n, d)
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0 and d == 1
    pts = np.atleast_1d(x)
    if d == 1:
        cols = pts[:, None] if pts.ndim == 1 else pts
    else:
        if pts.ndim != 2 or pts.shape[1] != d:
            raise InputError(f"points must have shape (k, {d}), got {pts.shape}")
        cols = pts
    vals = _hermite_rows(ns[0], cols[:, 0])[ns[0]]
    for axis, ni in enumerate(ns[1:], start=1):
        vals = vals * _hermite_rows(ni, cols[:, axis])[ni]
    return vals[0] if scalar else vals


class HermiteBasis(BasisFamily):
    """Hermite-function expansions on R^d by the rule of ``psi_weighted_rule``.

    f_hat(n) = integral f h_n is the rule's sum of f(x) times the product over
    axes of h_(n_a)(x_a), read off the rule's own table.  The rule size Q
    defaults to max(40, 2 n_max + 10) per axis, exact for h_j h_k with
    j + k < 2Q; n_max is at most 495, and ``quad_size`` may set Q in
    n_max + 1..1000.  Orders above n_max on any axis are refused.
    """

    name = "hermite"
    field = "real"
    coefficient_tol = 1e-8

    def __init__(self, d=1, n_max=64, quad_size=None):
        if not isinstance(d, (int, np.integer)) or not 1 <= d <= 3:
            raise InputError(f"Hermite family supports d in 1..3, got {d!r}")
        self.n_max = _n_max(n_max, (HERMITE_MAX_SIZE - 10) // 2)
        if quad_size is None:
            quad_size = max(40, 2 * self.n_max + 10)
        elif not self.n_max < quad_size <= HERMITE_MAX_SIZE:
            # biorthogonality through n_max needs at least n_max + 1 nodes
            raise InputError(f"quad_size must be in n_max + 1 = {self.n_max + 1}.."
                             f"{HERMITE_MAX_SIZE}, got {quad_size}")
        self.d = int(d)
        self.quad_size = int(quad_size)
        self.index_set = IndexSet("linear", origin=0) if d == 1 else IndexSet("multi", dim=d)
        self._table = psi_weighted_rule(self.quad_size)[2][:self.n_max + 1]

    @functools.cached_property
    def _rule(self):
        """The tensor rule of the coefficients, built on first use."""
        nodes, weights, _ = psi_weighted_rule(self.quad_size)
        line = QuadratureRule(nodes, weights)
        return line if self.d == 1 else tensor_rule(line, self.d)

    def element(self, n):
        ns = _as_multi(n, self.d)
        return functools.partial(hermite_function, ns if self.d > 1 else ns[0], d=self.d)

    coefficient = BasisFamily.coefficient

    def coefficients(self, f, idxs):
        """One evaluation of ``f`` on the tensor rule; index n reads its
        factor off the rule's table as the outer product of its axis rows,
        in the rule's node order."""
        multis = [_as_multi(n, self.d) for n in idxs]
        top = max((max(ns) for ns in multis), default=0)
        if top > self.n_max:
            # past n_max the rule no longer integrates h_n f: refuse, do not guess
            raise InputError(f"Hermite order {top} exceeds n_max = {self.n_max}; "
                             f"raise n_max (and quad_size) to expand that far")
        rule = self._rule
        fv = samples_of(f, rule.nodes)
        out = []
        for ns in multis:
            factor = self._table[ns[0]]
            for ni in ns[1:]:
                factor = np.multiply.outer(factor, self._table[ni])
            factor = factor.ravel()
            terms = fv * factor if fv.ndim == 1 else fv * factor[:, None]
            out.append(accumulate(rule.weights, terms))
        return np.array(out)

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

    def passed(self, rel_slack=1e-6):
        return bool(np.all(self.lhs <= self.rhs * (1.0 + rel_slack)))


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
                             grid_half_width=10.0, grid_points=None,
                             order=8, panels_per_unit=4):
    """Check |integral over box(outer) - integral over box(inner) of f h_n|
    against the closed-form tail bound.

    The bound multiplies the polynomial-growth constant of h_n e^{|x|^2/2}
    (sum of absolute coefficients, growth exponent j = |n|), a weighted sup
    of f on a finite grid (an under-approximation, which only tightens the
    check), and the difference of the box terms
    2^d [(1 - e^{-outer^2/2})^d - (1 - e^{-inner^2/2})^d].
    """
    if not 0 < inner < outer:
        raise InputError("need 0 < inner < outer box half-widths")
    ns = _as_multi(n, d)
    j = sum(ns)

    def integrand(pts, ns=ns, d=d):
        fv = np.asarray(f(pts))
        hv = hermite_function(ns if d > 1 else ns[0], pts, d=d)
        return fv * hv if fv.ndim == 1 else fv * hv[:, None]

    vals = {}
    for c in (inner, outer):
        panels = max(4, int(math.ceil(2.0 * c * panels_per_unit)))
        rule = box_rule(c, d, panels=panels, order=order)
        vals[c] = np.atleast_1d(weighted_sum(rule.nodes, rule.weights, integrand))
    gap = vals[outer] - vals[inner]
    if space is None:
        lhs = np.array([float(np.max(np.abs(gap)))])
    else:
        lhs = space.seminorm_values(gap)

    if grid_points is None:
        grid_points = 2001 if d == 1 else 201
    axis = np.linspace(-grid_half_width, grid_half_width, grid_points)
    if d == 1:
        pts = axis
        sq = axis * axis
    else:
        pts = tensor_grid(axis, d)
        sq = np.sum(pts * pts, axis=1)
    weight = (1.0 + sq) ** (0.5 * j)
    fv = np.asarray(f(pts))
    rows = fv[:, None] if fv.ndim == 1 else fv
    if space is None:
        weighted = np.max(np.abs(rows), axis=1) * weight
        fnorm = np.array([float(np.max(weighted))])
    else:
        table = space.seminorm_table(rows)
        fnorm = np.max(table * weight[:, None], axis=0)

    cgrow = 1.0
    for ni in ns:
        cgrow *= _abs_coeff_sum(ni)
    boxes = (1.0 - math.exp(-0.5 * outer * outer)) ** d \
        - (1.0 - math.exp(-0.5 * inner * inner)) ** d
    rhs = (2.0 ** d) * cgrow * fnorm * boxes
    return TailBoundReport(lhs=lhs, rhs=np.asarray(rhs), inner=float(inner),
                           outer=float(outer))


# ---------------------------------------------------------------------------
# Fourier exponentials on the torus
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PeriodicContext:
    """Dimension and rectangle-rule size for torus expansions."""

    d: int = 1
    grid_size: int = 64

    def __post_init__(self):
        if not 1 <= self.d <= 3:
            raise InputError(f"periodic dimension must be 1..3, got {self.d}")
        if self.grid_size < 1:
            raise InputError("grid size must be >= 1")

    @property
    def max_mode(self):
        return (self.grid_size - 1) // 2


def fourier_coefficient(f, n, ctx=None):
    """f_hat(n) on the torus of ``ctx`` (see ``FourierBasis``)."""
    ctx = ctx or PeriodicContext()
    return FourierBasis(d=ctx.d, grid_size=ctx.grid_size).coefficient(f, n)


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
    by the rectangle rule, which is exact for trigonometric polynomials
    with every mode gap below the grid size; modes beyond
    (grid_size - 1) / 2 alias and are rejected.
    """

    name = "fourier"
    field = "complex"
    coefficient_tol = 1e-8

    def __init__(self, d=1, n_max=32, grid_size=None):
        self.n_max = _n_max(n_max)
        self.ctx = PeriodicContext(d=d, grid_size=grid_size or max(64, 4 * self.n_max + 1))
        self.index_set = IndexSet("lattice", dim=d)

    @property
    def d(self):
        return self.ctx.d

    @functools.cached_property
    def rule(self):
        """The rectangle rule of the coefficients, built on first use."""
        return periodic_rule(self.ctx.grid_size, d=self.ctx.d)

    def element(self, n):
        ns = _as_multi(n, self.d, signed=True)

        def e(x, ns=ns):
            return np.exp(1j * _phase(np.asarray(x, dtype=float), ns))

        return e

    coefficient = BasisFamily.coefficient

    def coefficients(self, f, idxs):
        """One evaluation of ``f`` on the rectangle rule, then one integrand
        and one accumulation per mode."""
        ctx = self.ctx
        modes = [_as_multi(n, ctx.d, signed=True) for n in idxs]
        for n, ns in zip(idxs, modes):
            if max(abs(c) for c in ns) > ctx.max_mode:
                raise InputError(
                    f"mode {n!r} exceeds the aliasing guard {ctx.max_mode} "
                    f"of a size-{ctx.grid_size} grid"
                )
        rule = self.rule
        fv = samples_of(f, rule.nodes)
        out = []
        for ns in modes:
            ph = np.exp(-1j * _phase(rule.nodes, ns))
            terms = fv * ph if fv.ndim == 1 else fv * ph[:, None]
            require_finite(rule.nodes, terms)
            out.append(accumulate(rule.weights, terms) / (2.0 * math.pi) ** ctx.d)
        return np.array(out)

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
    """Expansion disc |z - center| < radius with an averaging contour inside it."""

    center: complex = 0.0
    radius: float = math.inf
    contour_radius: float = 1.0
    contour_points: int = 64

    def __post_init__(self):
        if not cmath.isfinite(self.center):
            raise InputError(f"disc center must be finite, got {self.center}")
        if not 0.0 < self.contour_radius < self.radius:
            raise InputError(
                "need 0 < contour_radius < radius "
                f"(got {self.contour_radius}, {self.radius})"
            )
        npts = self.contour_points
        if npts < 4 or npts & (npts - 1):
            raise InputError("contour_points must be a power of two, >= 4")


TAYLOR_BLOCK = 4096


def taylor_coefficients(f, n_max, ctx=None):
    """Derivative coefficients c_0..c_{n_max} at the disc center.

    c_n = (N rho^n)^{-1} sum_j f(z_0 + rho w^j) w^{-jn} with w the primitive
    N-th root of unity; one function evaluation pass on the contour, then an
    ascending-j accumulation per coefficient.  The contour size must be at
    least 4 n_max (aliasing margin); the residual alias error scales like
    (rho / radius-of-validity)^N.

    Products are formed in real arithmetic, (pr sr - pi si) + i (pr si +
    pi sr), as the scalar complex product does (numpy's array complex
    multiply may fuse multiply-adds), so each column of a vector-valued
    handle gets the bits of its scalar component.  Orders are done in
    blocks of about ``TAYLOR_BLOCK`` products.  An order whose 1 / (N rho^n) is
    not a finite nonzero float is refused before f runs; products and sums
    that overflow raise ``NumericError``, as in ``quadrature.accumulate``.
    """
    ctx = ctx or DiscContext()
    if n_max < 0:
        raise InputError("n_max must be >= 0")
    if ctx.contour_points < max(4, 4 * n_max):
        raise InputError(
            f"contour of {ctx.contour_points} points is too small for order "
            f"{n_max}; need at least {max(4, 4 * n_max)}"
        )
    npts = ctx.contour_points
    scales = _contour_scales(ctx, n_max)
    angles = 2.0 * math.pi * np.arange(npts) / npts
    zs = ctx.center + ctx.contour_radius * np.exp(1j * angles)
    return _overflow_checked(npts, _contour_sums, samples_of(f, zs), angles, scales)


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


def _contour_sums(samples, angles, scales):
    """scales[n] times the ascending-j sum of samples[j] w^(-jn), per order n."""
    npts = len(angles)
    col = (slice(None), slice(None)) + (None,) * (samples.ndim - 1)
    sr, si = samples.real[None], samples.imag[None]
    step = max(1, TAYLOR_BLOCK // max(samples.size, 1))
    out = []
    for start in range(0, len(scales), step):
        orders = np.arange(start, min(start + step, len(scales)))
        phase = np.exp(-1j * (orders[:, None] * angles[None, :]))
        pr, pi = phase.real[col], phase.imag[col]
        terms = np.zeros((len(orders), npts + 1) + samples.shape[1:], dtype=complex)
        terms.real[:, 1:] = pr * sr - pi * si
        terms.imag[:, 1:] = pr * si + pi * sr
        acc = np.add.accumulate(terms, axis=1, out=terms)[:, -1]
        for i, n in enumerate(orders):
            row = acc[i, ...] * scales[n]
            out.append(row[()] if row.ndim == 0 else row)
    return out


class TaylorBasis(BasisFamily):
    """Monomials (z - z_0)^n with contour-average coefficient functionals."""

    name = "taylor"
    field = "complex"
    coefficient_tol = 1e-10

    def __init__(self, center=0.0, radius=math.inf, contour_radius=1.0,
                 n_max=16, contour_points=None):
        self.n_max = _n_max(n_max)
        # the least power of two at or above 4 n_max, and at least 64
        npts = contour_points or max(64, 1 << (4 * max(self.n_max, 1) - 1).bit_length())
        self.ctx = DiscContext(complex(center), float(radius),
                               float(contour_radius), int(npts))
        self.index_set = IndexSet("linear", origin=0)

    def element(self, n):
        n = int(n)
        self.index_set.validate_member(n)

        def mono(z, n=n, z0=self.ctx.center):
            return (np.asarray(z) - z0) ** n

        return mono

    coefficient = BasisFamily.coefficient

    def coefficients(self, f, idxs):
        idxs = [int(n) for n in idxs]
        for n in idxs:
            self.index_set.validate_member(n)
        coeffs = taylor_coefficients(f, max(idxs), self.ctx)
        return np.array([coeffs[n] for n in idxs])

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
