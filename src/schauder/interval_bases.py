"""Interval basis families: Haar system, Faber-Schauder hats, C^k iterated hats.

All three live on a compact interval and share the ``PiecewisePolynomial``
representation: hats are piecewise degree-1, the C^k elements are k-fold
exact antiderivatives of hats, and Haar partial sums report their dyadic
breakpoints so that L^p quadrature can split on the jumps.

Dyadic arithmetic note: the default dense point sequence is the dyadic one
(0, 1, 1/2, 1/4, 3/4, 1/8, ...).  All its points, hat slopes at those points,
and Haar jump locations are exactly representable, which is what makes the
hat surpluses reproduce interpolation values without rounding noise.
"""

import functools
import math

import numpy as np

from .basis_core import BasisFamily
from .errors import InputError
from .indexing import IndexSet
from .quadrature import accumulate, samples_of, segment_rules
from .value_space import ValueSpace

__all__ = [
    "PiecewisePolynomial",
    "DenseSequence",
    "haar_constancy_intervals",
    "schauder_hat",
    "hat_coefficients",
    "ck_basis_element",
    "lp_error",
    "HaarBasis",
    "HatBasis",
    "CkBasis",
]


# ---------------------------------------------------------------------------
# piecewise polynomials
# ---------------------------------------------------------------------------


class PiecewisePolynomial:
    """Polynomial pieces on consecutive intervals of a breakpoint grid.

    Piece i covers [breakpoints[i], breakpoints[i+1]] and stores local
    monomial coefficients c so that the value at x is
    sum_p c[i, p] * (x - breakpoints[i])**p.  Derivative and antiderivative
    are exact (no quadrature).
    """

    def __init__(self, breakpoints, coefficients):
        bp = np.asarray(breakpoints, dtype=float)
        if bp.ndim != 1 or bp.size < 2:
            raise InputError("need at least two breakpoints")
        if np.any(np.diff(bp) <= 0):
            raise InputError("breakpoints must be strictly increasing")
        co = np.atleast_2d(np.asarray(coefficients, dtype=float))
        if co.shape[0] != bp.size - 1:
            raise InputError(
                f"{co.shape[0]} coefficient rows for {bp.size - 1} pieces"
            )
        bp.flags.writeable = False
        co.flags.writeable = False
        self.breakpoints = bp
        self.coefficients = co

    @property
    def npieces(self):
        return self.breakpoints.size - 1

    @property
    def degree(self):
        return self.coefficients.shape[1] - 1

    @property
    def domain(self):
        return float(self.breakpoints[0]), float(self.breakpoints[-1])

    @functools.cached_property
    def support(self):
        """Closed hull (lo, hi) of the pieces that are not identically zero
        (None for the zero polynomial, which then counts as global)."""
        live = np.flatnonzero(self.coefficients.any(axis=1))
        if not live.size:
            return None
        return float(self.breakpoints[live[0]]), float(self.breakpoints[live[-1] + 1])

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        pts = x[None] if scalar else x
        lo, hi = self.domain
        if pts.size and (pts.min() < lo or pts.max() > hi):
            raise InputError(f"evaluation outside domain [{lo}, {hi}]")
        piece = np.clip(
            np.searchsorted(self.breakpoints, pts, side="right") - 1,
            0, self.npieces - 1,
        )
        u = pts - self.breakpoints[piece]
        co = self.coefficients
        vals = co[piece, co.shape[1] - 1]
        for p in range(co.shape[1] - 2, -1, -1):
            vals = vals * u + co[piece, p]
        return vals[0] if scalar else vals

    def derivative(self, order=1):
        if order < 0:
            raise InputError("derivative order must be >= 0")
        out = self
        for _ in range(order):
            co = out.coefficients
            if co.shape[1] == 1:
                dco = np.zeros((out.npieces, 1))
            else:
                powers = np.arange(1, co.shape[1])
                dco = co[:, 1:] * powers[None, :]
            out = PiecewisePolynomial(out.breakpoints, dco)
        return out

    def antiderivative(self):
        """The antiderivative vanishing at the left end, pieced continuously."""
        co = self.coefficients
        powers = np.arange(1, co.shape[1] + 1, dtype=float)
        body = co / powers[None, :]
        newco = np.zeros((self.npieces, co.shape[1] + 1))
        newco[:, 1:] = body
        widths = np.diff(self.breakpoints)
        running = 0.0
        for i in range(self.npieces):
            newco[i, 0] = running
            u = widths[i]
            v = newco[i, newco.shape[1] - 1]
            for p in range(newco.shape[1] - 2, -1, -1):
                v = v * u + newco[i, p]
            running = v
        return PiecewisePolynomial(self.breakpoints, newco)

    def __repr__(self):
        lo, hi = self.domain
        return (
            f"PiecewisePolynomial([{lo}, {hi}], pieces={self.npieces}, "
            f"degree={self.degree})"
        )


# ---------------------------------------------------------------------------
# dense point sequences
# ---------------------------------------------------------------------------


# at most 2^20 + 1 points, whose neighbour search holds 21 window-minimum
# tables of 4-byte indices
MAX_DYADIC_LEVELS = 20


class DenseSequence:
    """A sequence of distinct points t_0 = a, t_1 = b, t_2, t_3, ... in [a, b].

    The enumeration order matters: hat number n is the hat of the partition
    {t_0, ..., t_n} peaking at the newest point t_n.  For n >= 2 the point
    t_n splits a cell of T_{n-1} = {t_0, ..., t_{n-1}}; the cell's ends are
    its flanking neighbours, stored once at construction as index arrays:
    t_n lies strictly between points[left[n]] and points[right[n]] (entries
    0 and 1 are -1: the endpoints have no neighbours).  The neighbours are
    the support of hat n and the chord ends of its hierarchical surplus (see
    ``HatBasis``).  Instances are immutable.
    """

    def __init__(self, points):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 1 or pts.size < 2:
            raise InputError("dense sequence needs at least the two endpoints")
        a, b = pts[0], pts[1]
        if not a < b:
            raise InputError("first two points must be the interval ends a < b")
        if np.any(pts < a) or np.any(pts > b):
            raise InputError("all points must lie in [a, b]")
        if np.unique(pts).size != pts.size:
            raise InputError("points must be pairwise distinct")
        pts.flags.writeable = False
        self.points = pts
        left = np.full(pts.size, -1, dtype=np.intp)
        right = np.full(pts.size, -1, dtype=np.intp)
        # in sorted order, t_n's neighbours in T_{n-1} are the nearest
        # positions on either side holding a smaller index; a is first and
        # b is last, so every interior position has both
        order = np.argsort(pts, kind="stable").astype(np.int32)
        inner = order[1:-1]
        left[inner], right[inner] = _nearest_smaller(order)
        left.flags.writeable = False
        right.flags.writeable = False
        self.left = left
        self.right = right

    @property
    def a(self):
        return float(self.points[0])

    @property
    def b(self):
        return float(self.points[1])

    def __len__(self):
        return self.points.size

    @classmethod
    def dyadic(cls, levels=11, a=0.0, b=1.0):
        """0, 1, 1/2, 1/4, 3/4, 1/8, 3/8, ... down to the given level, mapped to [a, b].

        At most ``MAX_DYADIC_LEVELS`` levels: 2^levels + 1 points are built.
        """
        if not 1 <= levels <= MAX_DYADIC_LEVELS:
            raise InputError(
                f"dyadic levels must be in 1..{MAX_DYADIC_LEVELS}, got {levels}"
            )
        pts = [np.array([0.0, 1.0])]
        for lev in range(1, levels + 1):
            pts.append(np.arange(1, 2 ** lev, 2) / 2.0 ** lev)
        return cls(a + (b - a) * np.concatenate(pts))


def _nearest_smaller(order):
    """For each interior position p of ``order``, a permutation of 0..N-1
    with 0 first and 1 last, the values at the nearest positions q < p and
    q > p with order[q] < order[p].

    This is the all-nearest-smaller-values problem (Berkman, Schieber and
    Vishkin, J. Algorithms 14, 1993), solved here by binary lifting over a
    table of window minima, table[k][i] = min(order[i : i + 2^k]), in about
    log2 N vectorized passes.
    """
    size = order.size
    table, width = [order], 1
    while 2 * width < size:
        table.append(np.minimum(table[-1][:-width], table[-1][width:]))
        width *= 2
    value = order[1:-1]
    # [lo, p) and (p, hi) hold no smaller value; pass k widens each by 2^k
    # where the next window holds none.  A window clamped into range holds
    # order[0] = 0 or order[-1] = 1, smaller than every interior value, so it
    # stops the search just as a window past the end would.
    lo = np.arange(1, size - 1, dtype=np.int32)
    hi = lo + 1
    for k in range(len(table) - 1, -1, -1):
        mins, step = table[k], 1 << k
        start = np.maximum(lo - step, 0)
        lo = np.where(mins[start] > value, start, lo)
        hi = np.where(mins[np.minimum(hi, mins.size - 1)] > value, hi + step, hi)
    return order[lo - 1], order[hi]


# ---------------------------------------------------------------------------
# Haar system on [0, 1]
# ---------------------------------------------------------------------------


def _haar_split(n):
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise InputError(f"Haar index must be a positive integer, got {n!r}")
    if n == 1:
        return None
    k = int(n - 1).bit_length() - 1
    j = int(n) - (1 << k)
    return k, j


def haar_constancy_intervals(n):
    """[(lo, hi, sign)] where the n-th Haar function is constant and nonzero."""
    split = _haar_split(n)
    if split is None:
        return [(0.0, 1.0, 1)]
    k, j = split
    denom = 2.0 ** (k + 1)
    lo = (2 * j - 2) / denom
    mid = (2 * j - 1) / denom
    hi = (2 * j) / denom
    return [(lo, mid, 1), (mid, hi, -1)]


def _haar_values(steps, x):
    """The Haar function with constancy intervals ``steps`` at ``x``, in [0, 1].

    The steps are half-open, so h_n(1) = 0 for n >= 2."""
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    pts = x[None] if scalar else x
    if pts.size and (pts.min() < 0.0 or pts.max() > 1.0):
        raise InputError("Haar functions are defined on [0, 1]")
    if len(steps) == 1:
        vals = np.ones_like(pts)
    else:
        (lo, mid, _), (_, hi, _) = steps
        vals = np.where(
            (lo <= pts) & (pts < mid), 1.0,
            np.where((mid <= pts) & (pts < hi), -1.0, 0.0),
        )
    return vals[0] if scalar else vals


# Gauss-Legendre order of every Haar coefficient panel
HAAR_ORDER = 8


def _haar_piece_panels(lo, hi):
    # panel edges align with dyadic jumps down to level 6 (enough for rank 64)
    level = int(round(-math.log2(hi - lo))) if hi - lo < 1.0 else 0
    return max(4, 2 ** max(0, 6 - level))


class HaarBasis(BasisFamily):
    """The Haar system, enumerated from 1 in the classical level order.

    Elements are the unnormalized step functions; coefficient functionals
    are the L^2-normalized integrals lambda_n(f) = 2^k integral f h_n for
    n = 2^k + j (factor 1 for n = 1), which makes lambda_m(h_n) = delta_nm
    and rank-2^m partial sums exactly the dyadic cell averages.
    """

    name = "haar"
    field = "real"
    coefficient_tol = 1e-8

    def __init__(self):
        self.index_set = IndexSet("linear", origin=1)

    def element(self, n):
        self.index_set.validate_member(int(n))
        steps = haar_constancy_intervals(int(n))

        def h(x, steps=steps):
            return _haar_values(steps, x)

        h.support = steps[0][0], steps[-1][1]
        return h

    coefficient = BasisFamily.coefficient

    def coefficients(self, f, idxs):
        """2^k times the raw integral of f h_n, ``f`` evaluated once.

        Each constancy interval gets its own composite rule, so jump
        locations never sit inside a quadrature panel; intervals with the
        same panel count are built and accumulated together, then each index
        adds its signed interval sums in interval order.
        """
        idxs = [int(n) for n in idxs]
        for n in idxs:
            self.index_set.validate_member(n)
        pieces = [(i, lo, hi, sign) for i, n in enumerate(idxs)
                  for lo, hi, sign in haar_constancy_intervals(n)]
        counts = [_haar_piece_panels(lo, hi) for _, lo, hi, _ in pieces]
        lo = np.array([p[1] for p in pieces])
        hi = np.array([p[2] for p in pieces])
        groups = []
        for c in sorted(set(counts)):
            sel = [j for j, cj in enumerate(counts) if cj == c]
            groups.append((sel,) + segment_rules(lo[sel], hi[sel], panels=c, order=HAAR_ORDER))
        samples = samples_of(f, np.concatenate([nodes.ravel() for _, nodes, _ in groups]))
        sums, start = [None] * len(pieces), 0
        for sel, nodes, weights in groups:
            block = samples[start:start + nodes.size].reshape(nodes.shape + samples.shape[1:])
            start += nodes.size
            for j, piece in zip(sel, accumulate(weights.T, block.swapaxes(0, 1))):
                sums[j] = piece
        acc = [None] * len(idxs)
        for (i, _, _, sign), piece in zip(pieces, sums):
            contrib = sign * piece
            acc[i] = contrib if acc[i] is None else acc[i] + contrib
        raw = np.array(acc)
        scale = np.array([float(2 ** _haar_split(n)[0]) if n > 1 else 1.0 for n in idxs])
        return raw * scale.reshape(scale.shape + (1,) * (raw.ndim - 1))

    def sample_points(self):
        return np.linspace(0.0, 1.0, 1001)

    def segment_breakpoints(self, k):
        """Dyadic grid fine enough to isolate every jump and kink of rank-k sums."""
        k = max(int(k), 1)
        level = (int(k) - 1).bit_length() if k >= 2 else 0
        m = 2 ** (level + 2)
        return np.arange(m + 1) / m


# ---------------------------------------------------------------------------
# Faber-Schauder hats
# ---------------------------------------------------------------------------


def schauder_hat(seq, n):
    """Hat number n of a dense sequence: the hat of T_n peaking at t_n.

    n = 0 and n = 1 are the one-sided boundary hats of the coarsest
    partition {a, b}.  The result is compact: zero pieces outside the hat's
    support instead of one piece per partition cell.
    """
    if not isinstance(seq, DenseSequence):
        raise InputError("schauder_hat expects a DenseSequence")
    if not 0 <= n < len(seq):
        raise InputError(f"hat index {n} out of range for this sequence")
    a, b = seq.a, seq.b
    if n == 0:
        return PiecewisePolynomial([a, b], [[1.0, -1.0 / (b - a)]])
    if n == 1:
        return PiecewisePolynomial([a, b], [[0.0, 1.0 / (b - a)]])
    peak = float(seq.points[n])
    left, right = float(seq.points[seq.left[n]]), float(seq.points[seq.right[n]])
    bps = [a]
    rows = []
    if left > a:
        bps.append(left)
        rows.append((0.0, 0.0))
    bps.append(peak)
    rows.append((0.0, 1.0 / (peak - left)))
    bps.append(right)
    rows.append((1.0, -1.0 / (right - peak)))
    if right < b:
        bps.append(b)
        rows.append((0.0, 0.0))
    return PiecewisePolynomial(bps, rows)


def hat_coefficients(seq, f, n):
    """The full coefficient prefix lambda_0(f), ..., lambda_n(f) (see ``HatBasis``)."""
    # a negative n is passed on alone, to be reported as out of range
    return list(HatBasis(seq).coefficients(f, np.arange(n + 1) if n >= 0 else [n]))


class HatBasis(BasisFamily):
    """Piecewise-linear interpolation system over a dense point sequence.

    lambda_0 = f(a), lambda_1 = f(b), and for n >= 2 the hierarchical
    surplus lambda_n = f(t_n) - (w_l f(t_left) + w_r f(t_right)): f at the
    new point minus the chord through its flanking neighbours, which is
    P_{n-1} f(t_n) because the rank n-1 interpolant is affine on the cell
    that t_n splits.  Chord weights w_l = (t_right - t_n) / (t_right -
    t_left) and w_r = (t_n - t_left) / (t_right - t_left).
    """

    name = "hat"
    field = "real"
    coefficient_tol = 1e-12

    def __init__(self, seq=None):
        self.seq = seq if seq is not None else DenseSequence.dyadic()
        if not isinstance(self.seq, DenseSequence):
            raise InputError("hat coefficients need a DenseSequence")
        self.index_set = IndexSet("linear", origin=0)
        self._elements = {}

    def element(self, n):
        n = int(n)
        if n not in self._elements:
            self._elements[n] = schauder_hat(self.seq, n)
        return self._elements[n]

    coefficient = BasisFamily.coefficient

    def coefficients(self, f, idxs):
        """``f`` is evaluated once, in ascending index order, on just the points
        the requested coefficients read: each t_n and its flanking neighbours;
        then one vectorized step.  Vector-valued handles get componentwise
        identical arithmetic."""
        seq = self.seq
        idx = np.asarray(idxs, dtype=np.intp)
        outside = (idx < 0) | (idx >= len(seq))
        if outside.any():
            raise InputError(
                f"coefficient index {int(idx[outside][0])} out of range for this sequence"
            )
        interior = idx >= 2
        inner = idx[interior]
        lft, rgt = seq.left[inner], seq.right[inner]
        need = np.unique(np.concatenate([idx, lft, rgt]))
        fv = samples_of(f, seq.points[need])
        t, tl, tr = seq.points[inner], seq.points[lft], seq.points[rgt]
        col = (slice(None),) + (None,) * (fv.ndim - 1)
        wl, wr = ((tr - t) / (tr - tl))[col], ((t - tl) / (tr - tl))[col]

        def at(i):
            return fv[np.searchsorted(need, i)]

        out = at(idx)
        out[interior] = at(inner) - (wl * at(lft) + wr * at(rgt))
        return out

    def sample_points(self):
        a, b = self.seq.a, self.seq.b
        return np.linspace(a, b, 1001)

    def segment_breakpoints(self, k):
        # h_0 already spans [a, b], so rank 0 needs both ends too
        return np.sort(self.seq.points[: max(int(k), 1) + 1])


# ---------------------------------------------------------------------------
# C^k interval basis: polynomials then k-fold antiderivatives of hats
# ---------------------------------------------------------------------------


def ck_basis_element(seq, k, n):
    """Element n of the C^k family on [a, b].

    For n < k: the monomial (x - a)^n / n!.  For n >= k: the k-fold
    antiderivative (from a) of hat number n - k, an exact piecewise
    polynomial of degree k + 1.
    """
    if k < 0:
        raise InputError("smoothness order k must be >= 0")
    if n < 0:
        raise InputError("element index must be >= 0")
    a, b = seq.a, seq.b
    if n < k:
        co = np.zeros(n + 1)
        co[n] = 1.0 / math.factorial(n)
        return PiecewisePolynomial([a, b], [co])
    pp = schauder_hat(seq, n - k)
    for _ in range(k):
        pp = pp.antiderivative()
    return pp


def _derivatives(f, top):
    """[f, f', ..., f^(top)] from ``f.derivative(j)``, every handle fetched
    before any is evaluated, so a missing order is refused before f runs."""
    if top and not hasattr(f, "derivative"):
        raise InputError(
            "this operation needs derivative handles; pass a FunctionBundle "
            f"with derivatives up to order {top}"
        )
    return [f] + [f.derivative(j) for j in range(1, top + 1)]


class CkBasis(BasisFamily):
    """C^k functions on an interval: jets at a, then smoothed hats.

    The family's own topology controls derivatives up to order k, so error
    rows stack derivative residuals.
    """

    name = "ck"
    field = "real"
    coefficient_tol = 1e-12

    def __init__(self, k=2, seq=None):
        if k < 0:
            raise InputError("smoothness order k must be >= 0")
        self.k = int(k)
        self._hats = HatBasis(seq)
        self.seq = self._hats.seq
        self.index_set = IndexSet("linear", origin=0)
        self._elements = {}

    def element(self, n):
        n = int(n)
        if n not in self._elements:
            self._elements[n] = ck_basis_element(self.seq, self.k, n)
        return self._elements[n]

    coefficient = BasisFamily.coefficient

    def coefficients(self, f, idxs):
        """mu_n(f) = f^(n)(a) for n < k, and the hat coefficient
        lambda_{n-k}(f^(k)) otherwise.  The derivatives come from
        ``f.derivative(j)`` (a FunctionBundle, a PiecewisePolynomial, or a
        materialized sum of such terms); a bare callable serves index 0
        only.  Each jet f^(n)(a) is read once, and f^(k) is evaluated once
        for all the hat coefficients."""
        idx = np.asarray([int(n) for n in idxs], dtype=np.intp)
        if (idx < 0).any():
            raise InputError("coefficient index must be >= 0")
        k = self.k
        derivs = _derivatives(f, min(int(idx.max()), k))
        out = [None] * idx.size
        for pos in np.flatnonzero(idx < k):
            out[pos] = np.asarray(derivs[idx[pos]](np.array([self.seq.a])))[0]
        smooth = np.flatnonzero(idx >= k)
        if smooth.size:
            for pos, value in zip(smooth, self._hats.coefficients(derivs[k], idx[smooth] - k)):
                out[pos] = value
        return np.array(out)

    def sample_points(self):
        return np.linspace(self.seq.a, self.seq.b, 513)

    def value_rows(self, f, pts):
        """Value rows of f, f', ..., f^(k), stacked in that order."""
        rows = [np.asarray(h(pts)) for h in _derivatives(f, self.k)]
        return np.concatenate([v[:, None] if v.ndim == 1 else v for v in rows], axis=0)


# ---------------------------------------------------------------------------
# L^p error on explicit segments
# ---------------------------------------------------------------------------


def lp_error(f, g, p, breakpoints, panels=2, order=8, space=None):
    """(integral of p_alpha(f - g)^p over each segment, summed)^(1/p).

    ``breakpoints`` split the domain so that the integrand is smooth on each
    segment (place them on jumps and kinks); within a segment a small
    composite Gauss-Legendre rule is exact for piecewise-polynomial
    residuals.  ``f`` and ``g`` are evaluated once on the nodes of every
    segment; each segment's integral is accumulated in node order, then the
    segments in ascending order.  Returns a scalar for scalar handles
    without a space, else one value per seminorm of ``space``.
    """
    if p < 1:
        raise InputError("p must be >= 1")
    bps = np.asarray(breakpoints, dtype=float)
    if bps.ndim != 1 or bps.size < 2 or np.any(np.diff(bps) <= 0):
        raise InputError("breakpoints must be a strictly increasing 1-D array")
    sp = space if space is not None else ValueSpace(1)

    def integrand(pts):
        # scalar values as one column, so a zero g (rank 0) meets a vector f
        fv, gv = np.asarray(f(pts)), np.asarray(g(pts))
        rows = (fv[:, None] if fv.ndim == 1 else fv) - (gv[:, None] if gv.ndim == 1 else gv)
        return sp.seminorm_table(rows) ** p

    nodes, weights = segment_rules(bps[:-1], bps[1:], panels=panels, order=order)
    table = samples_of(integrand, nodes.ravel())
    pieces = accumulate(weights.T, table.reshape(nodes.shape + table.shape[1:]).swapaxes(0, 1))
    acc = accumulate(np.ones(len(pieces)), pieces)
    vals = np.maximum(np.asarray(acc), 0.0) ** (1.0 / p)
    if space is None:
        return float(vals[0])
    return vals
