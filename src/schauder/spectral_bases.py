"""Spectral basis families: Hermite functions, Fourier exponentials, Taylor
monomials, plus the analytic side checks (Cauchy-Riemann residual, weighted
tail bound for Hermite integrals, Schwartz-type seminorms).

Coefficients are quadrature-backed: Gauss-Hermite on the line, the uniform
rectangle rule on the torus, and uniform contour averaging on a circle.  All
three inherit the fixed accumulation order of ``quadrature.accumulate`` or
reproduce it literally (the contour average), so repeated runs are
byte-stable and vector components match scalar runs bit for bit.
"""

import math
from dataclasses import dataclass

import numpy as np

from .basis_core import BasisFamily
from .errors import InputError
from .indexing import IndexSet
from .quadrature import (
    accumulate,
    box_rule,
    gauss_hermite_rule,
    periodic_rule,
    require_finite,
    samples_of,
    weighted_sum,
)
from .sequence_spaces import TruncatedSequence

__all__ = [
    "hermite_polynomial",
    "hermite_function",
    "HermiteBasis",
    "hermite_tail_bound_check",
    "TailBoundReport",
    "schwartz_seminorm",
    "PeriodicContext",
    "fourier_coefficient",
    "FourierBasis",
    "DiscContext",
    "taylor_coefficients",
    "TaylorBasis",
    "cr_residual",
    "to_s_space",
]


# ---------------------------------------------------------------------------
# Hermite polynomials and Hermite functions
# ---------------------------------------------------------------------------


def hermite_polynomial(n, x):
    """Physicists' Hermite polynomial H_n by the three-term recursion.

    H_{n+1}(x) = 2 x H_n(x) - 2 n H_{n-1}(x).
    """
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise InputError(f"Hermite degree must be a nonnegative integer, got {n!r}")
    x = np.asarray(x, dtype=float)
    prev = np.ones_like(x)
    if n == 0:
        return prev
    cur = 2.0 * x
    for j in range(1, n):
        prev, cur = cur, 2.0 * x * cur - 2.0 * j * prev
    return cur


def _norm_constant(n):
    # (2^n n! sqrt(pi))^(-1/2), built multiplicatively to avoid overflow
    c = math.pi ** -0.25
    for j in range(1, n + 1):
        c /= math.sqrt(2.0 * j)
    return c


def _as_multi(n, d):
    if isinstance(n, (int, np.integer)):
        if d != 1:
            raise InputError(f"scalar index {n} for a {d}-dimensional family")
        ns = (int(n),)
    else:
        ns = tuple(int(c) for c in n)
        if len(ns) != d:
            raise InputError(f"index {n!r} has length {len(ns)}, expected {d}")
    if any(c < 0 for c in ns):
        raise InputError(f"Hermite indices must be nonnegative, got {n!r}")
    return ns


def hermite_function(n, x, d=1):
    """L^2-normalized Hermite function, tensorized over axes for d > 1.

    h_n(x) = (2^n n! sqrt(pi))^(-1/2) H_n(x) e^(-x^2/2); for multi-indices
    the product over coordinates.  ``x`` has shape (k,) for d = 1 and
    (k, d) otherwise.
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
    vals = np.ones(cols.shape[0])
    for axis, ni in enumerate(ns):
        xi = cols[:, axis]
        vals = vals * (_norm_constant(ni) * hermite_polynomial(ni, xi)
                       * np.exp(-0.5 * xi * xi))
    return vals[0] if scalar else vals


# numpy's hermgauss returns non-finite weights from size 372 on
_MAX_QUAD = 300


class HermiteBasis(BasisFamily):
    """Hermite-function expansions on R^d via Gauss-Hermite quadrature.

    The coefficient integral f_hat(n) = integral f h_n is evaluated against
    the e^{-|x|^2} weight by writing the integrand as
    f(x) c_n H_n(x) e^{+|x|^2/2}; the quadrature size defaults to
    max(40, 2 n_max + 10) per axis, exact for the polynomial part through
    degree 2M - 1.  Sizes are capped at 300, so n_max <= 145 unless
    ``quad_size`` is given.
    """

    name = "hermite"
    field = "real"
    coefficient_tol = 1e-8
    default_truncation = 32

    def __init__(self, d=1, n_max=64, quad_size=None):
        if not isinstance(d, (int, np.integer)) or not 1 <= d <= 3:
            raise InputError(f"Hermite family supports d in 1..3, got {d!r}")
        if not isinstance(n_max, (int, np.integer)) or n_max < 0:
            raise InputError(f"n_max must be a nonnegative integer, got {n_max!r}")
        if quad_size is None and 2 * n_max + 10 > _MAX_QUAD:
            raise InputError(
                f"n_max {n_max} needs a Gauss-Hermite rule of size 2*n_max+10 = "
                f"{2 * n_max + 10} > {_MAX_QUAD}; n_max must be in "
                f"0..{(_MAX_QUAD - 10) // 2} unless quad_size is given"
            )
        if quad_size is not None and not 1 <= quad_size <= _MAX_QUAD:
            raise InputError(f"quad_size must be in 1..{_MAX_QUAD}")
        self.d = int(d)
        self.n_max = int(n_max)
        self.quad_size = int(quad_size) if quad_size else max(40, 2 * self.n_max + 10)
        self.index_set = (
            IndexSet("linear", origin=0) if d == 1 else IndexSet("multi", dim=d)
        )
        self._rule = gauss_hermite_rule(self.quad_size, d=self.d)

    def element(self, n):
        ns = _as_multi(n, self.d)

        def h(x, ns=ns, d=self.d):
            return hermite_function(ns if d > 1 else ns[0], x, d=d)

        return h

    coefficient = BasisFamily.coefficient

    def coefficients(self, f, idxs):
        nodes, weights = self._rule.nodes, self._rule.weights
        cols = nodes[:, None] if self.d == 1 else nodes
        fv = samples_of(f, nodes)
        sq = np.zeros(cols.shape[0])
        for axis in range(self.d):
            sq = sq + cols[:, axis] * cols[:, axis]
        growth = np.exp(0.5 * sq)
        out = []
        for n in idxs:
            factor = np.ones(cols.shape[0])
            for axis, ni in enumerate(_as_multi(n, self.d)):
                factor = factor * (_norm_constant(ni) * hermite_polynomial(ni, cols[:, axis]))
            factor = factor * growth
            terms = fv * factor if fv.ndim == 1 else fv * factor[:, None]
            require_finite(nodes, terms)
            out.append(accumulate(weights, terms))
        return np.array(out)

    def sample_points(self):
        if self.d == 1:
            return np.linspace(-8.0, 8.0, 321)
        axis = np.linspace(-5.0, 5.0, 41)
        grids = np.meshgrid(*([axis] * self.d), indexing="ij")
        return np.stack([g.reshape(-1) for g in grids], axis=1)


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
    """Sum of absolute power-basis coefficients of H_n (exact small integers)."""
    prev = np.array([1.0])
    if n == 0:
        return 1.0
    cur = np.array([0.0, 2.0])
    for j in range(1, n):
        nxt = np.zeros(j + 2)
        nxt[1:] += 2.0 * cur
        nxt[: j] -= 2.0 * j * prev
        prev, cur = cur, nxt
    return float(np.sum(np.abs(cur)))


def hermite_tail_bound_check(f, n, inner, outer, d=1, space=None,
                             grid_half_width=10.0, grid_points=None,
                             order=8, panels_per_unit=4):
    """Check |integral over box(outer) - integral over box(inner) of f h_n|
    against the closed-form tail bound.

    The bound multiplies the polynomial-growth constant of H_n (sum of
    absolute coefficients, growth exponent j = |n|), the normalization
    constant, a weighted sup of f on a finite grid (an under-approximation,
    which only tightens the check), and the difference of the box terms
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
        grids = np.meshgrid(*([axis] * d), indexing="ij")
        pts = np.stack([g.reshape(-1) for g in grids], axis=1)
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

    cn = 1.0
    cgrow = 1.0
    for ni in ns:
        cn *= _norm_constant(ni)
        cgrow *= _abs_coeff_sum(ni)
    boxes = (1.0 - math.exp(-0.5 * outer * outer)) ** d \
        - (1.0 - math.exp(-0.5 * inner * inner)) ** d
    rhs = (2.0 ** d) * cn * cgrow * fnorm * boxes
    return TailBoundReport(lhs=lhs, rhs=np.asarray(rhs), inner=float(inner),
                           outer=float(outer))


def schwartz_seminorm(f, l, derivative_handles=None, grid=None, space=None):
    """Grid approximation of the decay seminorm
    sup over |beta| <= l, x of p(d^beta f(x)) (1 + |x|^2)^{l/2}.

    ``derivative_handles`` lists handles of orders 0..l on the line (order 0
    defaults to ``f`` itself; a FunctionBundle's handles are picked up
    automatically).  The sup over a finite grid under-approximates the true
    seminorm; callers comparing against it must treat it as a lower bound.
    """
    if l < 0:
        raise InputError("seminorm order must be >= 0")
    if derivative_handles is None:
        deriv = getattr(f, "derivative", None)
        if l > 0 and deriv is None:
            raise InputError("need derivative handles up to order l")
        handles = [f] + [deriv(o) for o in range(1, l + 1)] if l else [f]
    else:
        handles = list(derivative_handles)
        if len(handles) < l + 1:
            raise InputError(f"need {l + 1} handles (orders 0..{l}), got {len(handles)}")
        handles = handles[: l + 1]
    pts = np.linspace(-10.0, 10.0, 2001) if grid is None else np.asarray(grid)
    weight = (1.0 + pts * pts) ** (0.5 * l)
    best = None
    for h in handles:
        rows = np.asarray(h(pts))
        rows = rows[:, None] if rows.ndim == 1 else rows
        if space is None:
            vals = np.array([float(np.max(np.max(np.abs(rows), axis=1) * weight))])
        else:
            vals = np.max(space.seminorm_table(rows) * weight[:, None], axis=0)
        best = vals if best is None else np.maximum(best, vals)
    return best if space is not None else float(best[0])


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


def _as_lattice(n, d):
    if isinstance(n, (int, np.integer)):
        if d != 1:
            raise InputError(f"scalar mode {n} for a {d}-dimensional torus")
        return (int(n),)
    ns = tuple(int(c) for c in n)
    if len(ns) != d:
        raise InputError(f"mode {n!r} has length {len(ns)}, expected {d}")
    return ns


def fourier_coefficient(f, n, ctx=None):
    """f_hat(n) on the torus of ``ctx`` (see ``FourierBasis``)."""
    ctx = ctx or PeriodicContext()
    return FourierBasis(d=ctx.d, grid_size=ctx.grid_size).coefficient(f, n)


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
    default_truncation = 32

    def __init__(self, d=1, n_max=32, grid_size=None):
        self.ctx = PeriodicContext(
            d=d, grid_size=grid_size or max(64, 4 * int(n_max) + 1)
        )
        self.n_max = int(n_max)
        self.index_set = IndexSet("lattice", dim=d)
        self._rule = None

    @property
    def d(self):
        return self.ctx.d

    @property
    def rule(self):
        """The rectangle rule of the coefficients, built on first use."""
        if self._rule is None:
            self._rule = periodic_rule(self.ctx.grid_size, d=self.ctx.d)
        return self._rule

    def element(self, n):
        ns = _as_lattice(n, self.d)

        def e(x, ns=ns, d=self.d):
            x = np.asarray(x, dtype=float)
            phase = x * ns[0] if d == 1 else x @ np.asarray(ns, dtype=float)
            return np.exp(1j * phase)

        return e

    coefficient = BasisFamily.coefficient

    def coefficients(self, f, idxs):
        """One evaluation of ``f`` on the rectangle rule, then one integrand
        and one accumulation per mode."""
        ctx = self.ctx
        modes = [_as_lattice(n, ctx.d) for n in idxs]
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
            phase = rule.nodes * ns[0] if ctx.d == 1 else rule.nodes @ np.asarray(ns, dtype=float)
            ph = np.exp(-1j * phase)
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


def _next_pow2(n):
    p = 1
    while p < n:
        p *= 2
    return p


@dataclass(frozen=True)
class DiscContext:
    """Expansion disc |z - center| < radius with an averaging contour inside it."""

    center: complex = 0.0
    radius: float = math.inf
    contour_radius: float = 1.0
    contour_points: int = 64

    def __post_init__(self):
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
    blocks of about ``TAYLOR_BLOCK`` products.
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
    angles = 2.0 * math.pi * np.arange(npts) / npts
    ring = np.exp(1j * angles)
    zs = ctx.center + ctx.contour_radius * ring
    samples = samples_of(f, zs)
    col = (slice(None), slice(None)) + (None,) * (samples.ndim - 1)
    sr, si = samples.real[None], samples.imag[None]
    step = max(1, TAYLOR_BLOCK // max(samples.size, 1))
    out = []
    for start in range(0, n_max + 1, step):
        orders = np.arange(start, min(start + step, n_max + 1))
        phase = np.exp(-1j * (orders[:, None] * angles[None, :]))
        pr, pi = phase.real[col], phase.imag[col]
        terms = np.zeros((len(orders), npts + 1) + samples.shape[1:], dtype=complex)
        terms.real[:, 1:] = pr * sr - pi * si
        terms.imag[:, 1:] = pr * si + pi * sr
        acc = np.add.accumulate(terms, axis=1)[:, -1]
        for i, n in enumerate(orders):
            row = acc[i, ...] * (1.0 / (npts * ctx.contour_radius ** int(n)))
            out.append(row[()] if row.ndim == 0 else row)
    return out


class TaylorBasis(BasisFamily):
    """Monomials (z - z_0)^n with contour-average coefficient functionals."""

    name = "taylor"
    field = "complex"
    coefficient_tol = 1e-10
    default_truncation = 16

    def __init__(self, center=0.0, radius=math.inf, contour_radius=1.0,
                 n_max=16, contour_points=None):
        npts = contour_points or max(64, _next_pow2(4 * max(int(n_max), 1)))
        self.ctx = DiscContext(complex(center), float(radius),
                               float(contour_radius), int(npts))
        self.n_max = int(n_max)
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
# Cauchy-Riemann residual
# ---------------------------------------------------------------------------


def cr_residual(f, z, h=1e-4):
    """Central-difference d-bar operator (1/2)(d/dx + i d/dy) applied to f.

    O(h^2) truncation; ~1e-12 and below for holomorphic handles at the
    default step, order-one for genuinely non-holomorphic ones (conj(z)
    gives exactly 1).
    """
    if not h > 0:
        raise InputError("step h must be positive")
    z = np.asarray(z, dtype=complex)
    scalar = z.ndim == 0
    pts = z[None] if scalar else z
    fx = (np.asarray(f(pts + h)) - np.asarray(f(pts - h))) / (2.0 * h)
    fy = (np.asarray(f(pts + 1j * h)) - np.asarray(f(pts - 1j * h))) / (2.0 * h)
    vals = 0.5 * (fx + 1j * fy)
    return vals[0] if scalar else vals


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
