"""Interval basis families: Haar system, C^k iterated hats, Faber-Schauder hats.

All three live on a compact interval and share the ``PiecewisePolynomial``
representation: the C^k elements are jets at a and then k-fold exact
antiderivatives of hats, the hats are the C^k family at k = 0 (piecewise
degree 1, one implementation: ``HatBasis`` subclasses ``CkBasis``), and
Haar partial sums report their dyadic breakpoints so that L^p quadrature
can split on the jumps.

Dyadic arithmetic note: the default dense point sequence is the dyadic one
(0, 1, 1/2, 1/4, 3/4, 1/8, ...).  All its points, hat slopes at those points,
and Haar jump locations are exactly representable, which is what makes the
hat surpluses reproduce interpolation values without rounding noise.
"""

import functools
import math

import numpy as np

from .basis_core import BasisFamily, _real_points, _rows
from .errors import InputError
from .indexing import IndexSet, _finite_at_least, _int_in, _numbers
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
        (None for the zero polynomial)."""
        live = np.flatnonzero(self.coefficients.any(axis=1))
        if not live.size:
            return None
        return float(self.breakpoints[live[0]]), float(self.breakpoints[live[-1] + 1])

    def __call__(self, x):
        x = _real_points(x, *self.domain)
        scalar = x.ndim == 0
        pts = x[None] if scalar else x
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
        order = _int_in("derivative order", order, 0)
        if not order:
            return self
        return PiecewisePolynomial(self.breakpoints, _derivative_columns(self.coefficients, order))

    def antiderivative(self):
        """The antiderivative vanishing at the left end, pieced continuously."""
        widths = np.diff(self.breakpoints)[None]
        present = np.ones(widths.shape, dtype=bool)
        co = _antiderivative_columns(widths, present, self.coefficients[None])
        return PiecewisePolynomial(self.breakpoints, co[0])

    def __repr__(self):
        lo, hi = self.domain
        return (
            f"PiecewisePolynomial([{lo}, {hi}], pieces={self.npieces}, "
            f"degree={self.degree})"
        )


def _derivative_columns(co, order):
    """Local coefficients (last axis) of the ``order``-th derivative of every piece."""
    for _ in range(order):
        last = co.shape[-1] - 1
        co = co[..., 1:] * np.arange(1, last + 1) if last else np.zeros(co.shape)
    return co


def _antiderivative_columns(widths, present, co):
    """Local coefficients of the antiderivatives, vanishing at the left end
    and pieced continuously, of piecewise polynomials given piece by piece:
    element i's piece in slot s, where ``present[i, s]``, has width
    ``widths[i, s]`` and coefficients ``co[i, s]``.  Absent pieces stay
    zero.  Slots run left to right, each carrying the value at the end of
    the piece before it, for every element at once."""
    powers = np.arange(1, co.shape[-1] + 1, dtype=float)
    new = np.zeros(co.shape[:-1] + (co.shape[-1] + 1,))
    new[..., 1:] = co / powers
    running = np.zeros(len(co))
    for s in range(co.shape[1]):
        new[:, s, 0] = np.where(present[:, s], running, 0.0)
        v = new[:, s, -1]
        for p in range(new.shape[-1] - 2, -1, -1):
            v = v * widths[:, s] + new[:, s, p]
        running = np.where(present[:, s], v, running)
    return new


def _slot_ends(starts, present, b):
    """Where each piece slot ends: at the next present slot's start, the last at b."""
    ends, nxt = np.empty_like(starts), np.full(len(starts), b)
    for s in range(starts.shape[1] - 1, -1, -1):
        ends[:, s] = nxt
        nxt = np.where(present[:, s], starts[:, s], nxt)
    return ends


def _piece_table(starts, present, co, b, pts):
    """``element_table`` of piecewise polynomials on [a, b] given piece by piece.

    Element i's piece in slot s, where ``present[i, s]``, starts at
    ``starts[i, s]`` and has local coefficients ``co[i, s]``; slots run left
    to right and the first present one starts at a.  Values follow
    ``PiecewisePolynomial.__call__`` operation for operation: x lies in the
    last piece starting at or before it, and Horner's rule runs in u = x -
    start.  Element i's range is the hull of its pieces that are not
    identically zero, its ``support``; an element without one is zero and
    gets every point.  On the ascending points each piece holds one run of
    the range, so the coefficients are repeated run by run.
    """
    nslots = present.shape[1]
    ends = _slot_ends(starts, present, b)
    live = present & co.any(axis=2)
    rows = np.arange(len(starts))
    first_live, last_live = np.argmax(live, axis=1), nslots - 1 - np.argmax(live[:, ::-1], axis=1)
    lo = np.searchsorted(pts, starts[rows, first_live], side="left")
    hi = np.searchsorted(pts, ends[rows, last_live], side="right")
    zero = ~live.any(axis=1)
    lo[zero], hi[zero] = 0, len(pts)
    # run of slot s: from its first point to the next present slot's (the last to hi)
    first = np.searchsorted(pts, starts, side="left")
    runs, nxt = np.empty_like(first), hi
    for s in range(nslots - 1, -1, -1):
        begin = np.where(present[:, s], first[:, s], nxt)
        runs[:, s] = np.clip(nxt, lo, hi) - np.clip(begin, lo, hi)
        nxt = begin
    runs = runs.reshape(-1)
    u = _table_points(lo, hi, pts) - np.repeat(starts.reshape(-1), runs)
    vals = np.repeat(co[:, :, -1].reshape(-1), runs)
    for p in range(co.shape[2] - 2, -1, -1):
        vals = vals * u + np.repeat(co[:, :, p].reshape(-1), runs)
    return lo, hi, vals


def _line_points(pts, lo, hi):
    """``_real_points`` of [lo, hi] for an element table, which reads a 1-D array."""
    if np.ndim(pts) != 1:
        raise InputError(f"element tables need a 1-D array of points, got shape {np.shape(pts)}")
    return _real_points(pts, lo, hi)


def _table_points(lo, hi, pts):
    """The points of every entry of a table whose term i covers
    ``pts[lo[i]:hi[i]]``, term-major."""
    lens = hi - lo
    return pts[np.arange(lens.sum()) - np.repeat(np.cumsum(lens) - lens - lo, lens)]


# ---------------------------------------------------------------------------
# dense point sequences
# ---------------------------------------------------------------------------


# at most 2^20 + 1 points, whose neighbours come from their dyadic parents
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
    ``_hat_surpluses``).  ``dyadic`` reads them off the dyadic parents;
    any other sequence gets them from ``_nearest_smaller``.  Points must be
    finite.  Instances are immutable.
    """

    def __init__(self, points):
        self._build(points)

    def _build(self, points, order=None, neighbours=None):
        """Check ``points`` and store them with their neighbours.  ``order``
        sorts the points, and ``neighbours`` are the left and right arrays of
        its interior positions; both default to the general search."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 1 or pts.size < 2:
            raise InputError("dense sequence needs at least the two endpoints")
        if not np.isfinite(pts).all():
            raise InputError("dense sequence points must be finite")
        a, b = pts[0], pts[1]
        if not a < b:
            raise InputError("first two points must be the interval ends a < b")
        if np.any(pts < a) or np.any(pts > b):
            raise InputError("all points must lie in [a, b]")
        if order is None:
            order = np.argsort(pts, kind="stable").astype(np.int32)
        # strictly ascending in ``order``: distinct, and ``order`` sorts them
        if np.any(np.diff(pts[order]) <= 0):
            raise InputError("points must be pairwise distinct")
        pts.flags.writeable = False
        self.points = pts
        left = np.full(pts.size, -1, dtype=np.intp)
        right = np.full(pts.size, -1, dtype=np.intp)
        # in sorted order, t_n's neighbours in T_{n-1} are the nearest
        # positions on either side holding a smaller index; a is first and
        # b is last, so every interior position has both
        inner = order[1:-1]
        left[inner], right[inner] = _nearest_smaller(order) if neighbours is None else neighbours
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
        Sorted position q = odd * 2^e, 0 < q < 2^levels, holds hat n =
        2^(levels-e-1) + (odd + 1) / 2, and its neighbours are its dyadic
        parents at positions q -/+ 2^e.
        """
        levels = _int_in("dyadic levels", levels, 1, MAX_DYADIC_LEVELS)
        top = 1 << levels
        q = np.arange(1, top, dtype=np.int32)
        low = q & -q  # 2^e
        order = np.concatenate([[0], top // (2 * low) + (q // low + 1) // 2, [1]]).astype(np.int32)
        unit = np.empty(top + 1)
        unit[order] = np.arange(top + 1) / top
        seq = cls.__new__(cls)
        seq._build(a + (b - a) * unit, order, (order[q - low], order[q + low]))
        return seq


def _nearest_smaller(order):
    """For each interior position p of ``order``, a permutation of 0..N-1
    with 0 first and 1 last, the values at the nearest positions q < p and
    q > p with order[q] < order[p].

    This is the all-nearest-smaller-values problem (Berkman, Schieber and
    Vishkin, J. Algorithms 14, 1993), solved here on one min tree over
    ``order`` (4-byte entries, about 2N of them up to 4N): from its leaf,
    each position climbs while the sibling on the searched side holds no
    smaller value, then descends to the nearest leaf that does, preferring
    the child nearer to it.  Each step is one vectorized pass over the
    positions still moving, so a side takes at most 2 log2 N passes on any
    order.  Leaf 0 holds 0 and leaf N-1 holds 1, smaller than every
    interior value, so every climb stops below the root.
    """
    size = order.size
    leaves = 1 << (size - 1).bit_length()
    tree = np.full(2 * leaves, size, dtype=np.int32)  # padding: larger than every value
    tree[leaves:leaves + size] = order
    width = leaves
    while width > 1:
        width //= 2
        tree[width:2 * width] = np.minimum(tree[2 * width:4 * width:2], tree[2 * width + 1:4 * width:2])
    value = order[1:-1]
    found = []
    for side in (0, 1):  # left: a right child looks at its sibling; right: a left child
        node = np.arange(leaves + 1, leaves + size - 1, dtype=np.int32)
        moving = np.arange(size - 2, dtype=np.int32)
        while moving.size:
            at = node[moving]
            hit = ((at & 1) != side) & (tree[at ^ 1] < value[moving])
            node[moving] = np.where(hit, at ^ 1, at >> 1)
            moving = moving[~hit]
        moving = np.flatnonzero(node < leaves)
        while moving.size:
            near = 2 * node[moving] + 1 - side
            node[moving] = np.where(tree[near] < value[moving], near, near ^ 1)
            moving = moving[node[moving] < leaves]
        found.append(order[node - leaves])
    return found[0], found[1]


# ---------------------------------------------------------------------------
# Haar system on [0, 1]
# ---------------------------------------------------------------------------


def _haar_split(n):
    n = _int_in("Haar index", n, 1)
    if n == 1:
        return None
    k = (n - 1).bit_length() - 1
    j = n - (1 << k)
    return k, j


def _floor_log2(m):
    """floor(log2 m) for a positive int64 array, exact also where float(m)
    rounds up to a power of two."""
    e = np.minimum(np.frexp(m.astype(float))[1] - 1, 62).astype(np.int64)
    return e - ((1 << e) > m)


def _haar_steps(n):
    """``(two, k, lo, mid, hi)`` of the int64 Haar indices ``n``, by the float
    operations of ``haar_constancy_intervals``: h_n is +1 on [lo, mid) and -1
    on [mid, hi) where ``two`` (n = 2^k + j), and h_1 is 1 on [lo, hi] = [0, 1]."""
    two = n > 1
    k = _floor_log2(np.maximum(n - 1, 1))
    j = n - (1 << k)
    denom = np.ldexp(1.0, k + 1)
    lo, mid, hi = (2 * j - 2) / denom, (2 * j - 1) / denom, (2 * j) / denom
    return two, k, np.where(two, lo, 0.0), mid, np.where(two, hi, 1.0)


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
    x = _real_points(x, 0.0, 1.0)
    scalar = x.ndim == 0
    pts = x[None] if scalar else x
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
        steps = haar_constancy_intervals(self.index_set.validate_member(n))

        def h(x, steps=steps):
            return _haar_values(steps, x)

        h.support = steps[0][0], steps[-1][1]
        return h

    coefficient = BasisFamily.coefficient

    def coefficients(self, f, idxs):
        """2^k times the raw integral of f h_n, ``f`` evaluated once.

        Each constancy interval gets its own composite rule, so jump
        locations never sit inside a quadrature panel.  The intervals,
        panel counts and scales of all indices come from one index array, by
        the float operations of ``haar_constancy_intervals``; intervals with
        the same panel count are built and accumulated together, then each
        index takes its second interval sum from its first, p0 - p1.
        """
        n = self.index_set.check(idxs)
        if not n.size:
            return np.zeros(0)
        two, k, lo, mid, hi = _haar_steps(n)  # n = 2^k + j has two pieces; n = 1 one, [0, 1]
        keep = np.stack([np.ones_like(two), two], axis=1)  # pieces in index order
        starts = np.stack([lo, mid], axis=1)[keep]
        ends = np.stack([np.where(two, mid, hi), hi], axis=1)[keep]
        # a piece of h_(2^k + j) has width 2^-(k+1); panel edges align with
        # dyadic jumps down to level 6 (enough for rank 128)
        level = np.repeat(np.where(two, k + 1, 0), 1 + two)
        counts = np.maximum(4, 1 << np.maximum(0, 6 - level))
        groups = []
        for c in np.unique(counts):
            sel = np.flatnonzero(counts == c)
            groups.append((sel,) + segment_rules(starts[sel], ends[sel], panels=int(c), order=HAAR_ORDER))
        samples = samples_of(f, np.concatenate([nodes.ravel() for _, nodes, _ in groups]))
        sums = np.empty((len(starts),) + samples.shape[1:], dtype=np.result_type(float, samples))
        start = 0
        for sel, nodes, weights in groups:
            block = samples[start:start + nodes.size].reshape(nodes.shape + samples.shape[1:])
            start += nodes.size
            sums[sel] = accumulate(weights.T, block.swapaxes(0, 1))
        first = np.cumsum(1 + two) - (1 + two)
        raw = sums[first]
        raw[two] -= sums[first[two] + 1]
        col = (slice(None),) + (None,) * (sums.ndim - 1)
        return raw * np.where(two, np.ldexp(1.0, k), 1.0)[col]

    def element_table(self, idxs, pts, order=0):
        """The steps of ``_haar_steps`` on the ascending points of [lo, hi]:
        a run of 1 below mid, of -1 below hi and of 0 at hi, the values the
        handles give there.  The elements have no derivatives, and points
        that are not ascending finite points of [0, 1] are refused."""
        if order:
            raise InputError("Haar elements have no derivative support")
        pts = _line_points(pts, 0.0, 1.0)
        n = self.index_set.check(idxs)
        two, _, start, mid, end = _haar_steps(n)
        lo, hi = np.searchsorted(pts, start, side="left"), np.searchsorted(pts, end, side="right")
        cuts = np.stack([lo, np.where(two, np.searchsorted(pts, mid, side="left"), hi),
                         np.where(two, np.searchsorted(pts, end, side="left"), hi), hi], axis=1)
        values = np.repeat(np.tile([1.0, -1.0, 0.0], len(n)), np.diff(cuts, axis=1).reshape(-1))
        return lo, hi, values

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
    support instead of one piece per partition cell (see ``_hat_pieces``).
    """
    if not isinstance(seq, DenseSequence):
        raise InputError("schauder_hat expects a DenseSequence")
    _int_in("hat index", n, 0, len(seq) - 1)
    starts, present, co = _hat_pieces(seq, np.array([n]))
    keep = present[0]
    return PiecewisePolynomial(np.append(starts[0, keep], seq.b), co[0, keep])


def _hat_pieces(seq, idx):
    """Hats ``idx`` of ``seq`` in four piece slots: ``(starts, present, co)``.

    Hat n >= 2 is zero on [a, left] (a piece only when left > a), rises
    from 0 to 1 on [left, peak], falls back on [peak, right] and is zero on
    [right, b] (a piece only when right < b); hats 0 and 1 are one line on
    [a, b], in the rising slot.
    """
    a, b = seq.a, seq.b
    inner = idx >= 2
    peak = seq.points[idx]
    left = np.where(inner, seq.points[seq.left[idx]], a)
    right = np.where(inner, seq.points[seq.right[idx]], b)
    starts = np.stack([np.full(len(idx), a), left, peak, right], axis=1)
    present = np.stack([inner & (left > a), np.ones_like(inner), inner, inner & (right < b)],
                       axis=1)
    co = np.zeros((len(idx), 4, 2))
    co[idx == 0, 1] = 1.0, -1.0 / (b - a)
    co[idx == 1, 1, 1] = 1.0 / (b - a)
    co[inner, 1, 1] = 1.0 / (peak[inner] - left[inner])
    co[inner, 2, 0] = 1.0
    co[inner, 2, 1] = -1.0 / (right[inner] - peak[inner])
    return starts, present, co


def _hat_surpluses(seq, f, idx):
    """The hat coefficients ``idx`` (checked indices) of ``f``: lambda_0 = f(a),
    lambda_1 = f(b), and for n >= 2 the hierarchical surplus lambda_n =
    f(t_n) - (w_l f(t_left) + w_r f(t_right)), f at the new point minus the
    chord through its flanking neighbours, which is P_{n-1} f(t_n) because
    the rank n-1 interpolant is affine on the cell that t_n splits.  Chord
    weights w_l = (t_right - t_n) / (t_right - t_left) and w_r = (t_n -
    t_left) / (t_right - t_left).

    ``f`` is evaluated once, in ascending index order, on just the points
    the requested coefficients read: each t_n and its flanking neighbours;
    then one vectorized step.  Vector-valued handles get componentwise
    identical arithmetic."""
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


def hat_coefficients(seq, f, n):
    """The full coefficient prefix lambda_0(f), ..., lambda_n(f) (see ``HatBasis``)."""
    return list(HatBasis(seq).coefficients(f, np.arange(_int_in("hat index", n, 0) + 1)))


# ---------------------------------------------------------------------------
# C^k interval basis: polynomials then k-fold antiderivatives of hats
# ---------------------------------------------------------------------------


def ck_basis_element(seq, k, n):
    """Element n of the C^k family on [a, b].

    For n < k: the monomial (x - a)^n / n!.  For n >= k: the k-fold
    antiderivative (from a) of hat number n - k, an exact piecewise
    polynomial of degree k + 1.
    """
    k = _int_in("smoothness order k", k, 0)
    _int_in("element index", n, 0)
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
    """C^k functions on an interval over a dense point sequence: jets at a,
    then smoothed hats.

    Elements 0..k-1 are the monomials (x - a)^n / n!, with functionals
    mu_n(f) = f^(n)(a); element n >= k is the k-fold antiderivative of hat
    n - k, with functional lambda_{n-k}(f^(k)), the hat coefficient of the
    k-th derivative (``_hat_surpluses``).  At k = 0 there are no jets and
    no antiderivatives: the family is the hat system, ``HatBasis``.  The
    family's own topology controls derivatives up to order k, so error rows
    stack derivative residuals.  Elements are made when asked for, never
    kept; ``element_table`` keeps the pieces of its last index list.
    """

    name = "ck"
    field = "real"
    coefficient_tol = 1e-12
    _pieces = None  # (index array, starts, present, co) of the last table's index list

    def __init__(self, k=2, seq=None):
        self.k = _int_in("smoothness order k", k, 0)
        self.seq = seq if seq is not None else DenseSequence.dyadic()
        if not isinstance(self.seq, DenseSequence):
            raise InputError("hat and C^k bases need a DenseSequence")
        self.index_set = IndexSet("linear", origin=0)

    def element(self, n):
        return ck_basis_element(self.seq, self.k, int(self.index_set.validate_member(n)))

    def element_table(self, idxs, pts, order=0):
        """The hats of ``_hat_pieces`` lifted by k antiderivative passes, all
        at once, and the jet monomials (x - a)^n / n! as one piece on [a, b]:
        the float operations of ``ck_basis_element`` and its handles.  The
        monomials' coefficients are padded with leading zeros to degree
        k + 1, which Horner's rule passes through exactly.  The pieces of
        the last index list read are kept, read-only, so every derivative
        order and point set read for that list reuses them.  Points that
        are not ascending finite points of [a, b] are refused."""
        k, seq = self.k, self.seq
        pts = _line_points(pts, seq.a, seq.b)
        idx = self.index_set.check(idxs, below=len(seq) + k)
        kept = self._pieces
        if kept is None or not np.array_equal(kept[0], idx):
            jets = np.flatnonzero(idx < k)
            starts, present, co = _hat_pieces(seq, np.maximum(idx - k, 0))  # hat 0's pattern for jets
            widths = _slot_ends(starts, present, seq.b) - starts
            for _ in range(k):
                co = _antiderivative_columns(widths, present, co)
            co[jets] = 0.0
            co[jets, 1, idx[jets]] = [1.0 / math.factorial(n) for n in idx[jets].tolist()]
            kept = idx, starts, present, co
            for arr in kept:
                arr.flags.writeable = False
            self._pieces = kept  # one swap: a reader sees the old entry or the new one
        _, starts, present, co = kept
        return _piece_table(starts, present, _derivative_columns(co, order), seq.b, pts)

    coefficient = BasisFamily.coefficient

    def coefficients(self, f, idxs):
        """mu_n(f) = f^(n)(a) for n < k, and the hat coefficient
        lambda_{n-k}(f^(k)) otherwise.  The derivatives come from
        ``f.derivative(j)`` (a FunctionBundle, a PiecewisePolynomial, or a
        materialized sum of such terms); a bare callable serves index 0
        only.  Each requested jet order is read once at a, checked finite
        like every other sample, and f^(k) is evaluated once for all the hat
        coefficients; the rows are then picked in request order from the
        jet rows and the hat rows."""
        k, seq = self.k, self.seq
        idx = self.index_set.check(idxs, below=len(seq) + k)
        derivs = _derivatives(f, min(int(idx.max(initial=0)), k))
        orders, hats = np.unique(idx[idx < k]), idx >= k
        blocks = [samples_of(derivs[n], np.array([seq.a])) for n in orders.tolist()]
        if hats.any():
            blocks.append(_hat_surpluses(seq, derivs[k], idx[hats] - k))
        rows = np.searchsorted(orders, idx)
        rows[hats] = len(orders) + np.arange(np.count_nonzero(hats))
        return np.concatenate(blocks)[rows] if blocks else np.zeros(0)

    def sample_points(self):
        return np.linspace(self.seq.a, self.seq.b, 513)

    def _checked_points(self, x):
        """``BasisFamily._checked_points`` by the rule of the element tables,
        finite reals of [a, b] in a 1-D array, without building a piece set,
        so the one kept stays."""
        x = _numbers("points", x, "iufc")
        _line_points(np.atleast_1d(x), self.seq.a, self.seq.b)
        return x

    def _value_rows(self, f, pts):
        """Value rows of f, f', ..., f^(k), stacked in that order."""
        return np.concatenate([_rows(h(pts)) for h in _derivatives(f, self.k)], axis=0)


class HatBasis(CkBasis):
    """The Faber-Schauder hats of a dense point sequence: ``CkBasis`` at k = 0.

    Element n is hat n (``schauder_hat``) and its functional the
    hierarchical surplus lambda_n (``_hat_surpluses``), so the rank-n partial
    sum is the piecewise-linear interpolant of f at t_0, ..., t_n.  Only the
    name, the denser sup-norm grid and the L^p mode differ from the C^k
    family.
    """

    name = "hat"

    def __init__(self, seq=None):
        super().__init__(0, seq)

    coefficient = BasisFamily.coefficient

    def sample_points(self):
        return np.linspace(self.seq.a, self.seq.b, 1001)

    def segment_breakpoints(self, k):
        # h_0 already spans [a, b], so rank 0 needs both ends too
        return np.sort(self.seq.points[: max(int(k), 1) + 1])


# ---------------------------------------------------------------------------
# L^p error on explicit segments
# ---------------------------------------------------------------------------


def lp_error(f, g, p, breakpoints, space=None):
    """(integral of p_alpha(f - g)^p over each segment, summed)^(1/p).

    ``breakpoints`` split the domain so that the integrand is smooth on each
    segment (place them on jumps and kinks); within a segment a small
    composite Gauss-Legendre rule (2 panels of order 8) is exact for
    piecewise-polynomial residuals.  ``f`` and ``g`` are evaluated once on
    the nodes of every segment; each segment's integral is accumulated in
    node order, then the segments in ascending order.  Returns a scalar for scalar handles
    without a space, else one value per seminorm of ``space``.  Breakpoints
    that are not strictly increasing finite reals (a bool is not one) are
    refused before ``f`` runs.
    """
    _finite_at_least("exponent p", p, 1)
    # segment_rules refuses non-finite ends, still before f runs
    bps = np.asarray(_numbers("breakpoints", breakpoints), dtype=float)
    if bps.ndim != 1 or bps.size < 2 or np.any(np.diff(bps) <= 0):
        raise InputError("breakpoints must be a strictly increasing 1-D array of reals")
    sp = space if space is not None else ValueSpace(1)

    def integrand(pts):
        # scalar values as one column, so a zero g (rank 0) meets a vector f
        fv, gv = np.asarray(f(pts)), np.asarray(g(pts))
        rows = (fv[:, None] if fv.ndim == 1 else fv) - (gv[:, None] if gv.ndim == 1 else gv)
        return sp.seminorm_table(rows) ** p

    nodes, weights = segment_rules(bps[:-1], bps[1:], panels=2, order=8)
    table = samples_of(integrand, nodes.ravel())
    pieces = accumulate(weights.T, table.reshape(nodes.shape + table.shape[1:]).swapaxes(0, 1))
    acc = accumulate(np.ones(len(pieces)), pieces)
    vals = np.maximum(np.asarray(acc), 0.0) ** (1.0 / p)
    if space is None:
        return float(vals[0])
    return vals
