"""Deterministic quadrature with a fixed accumulation order.

Every integral in this package reduces to one kernel, ``accumulate``: the
handle is evaluated once on the whole node array, then ``acc = acc + w_i *
f(x_i)`` runs from zero in ascending node order.  The kernel does this with
``np.add.accumulate`` over a zero-prefixed stack of terms, which adds
strictly left to right (never pairwise), one fixed-size block at a time so
memory does not grow with the rule.  Two consequences are load bearing for
the rest of the package:

* coordinate functionals commute with integration bit for bit -- component i
  of the vector accumulation performs exactly the IEEE operations the scalar
  accumulation of that component performs;
* repeated runs produce identical bytes (no pairwise/BLAS reassociation).

Gauss-Legendre tables come from numpy, every Gauss-Hermite node and weight
from ``psi_weighted_rule``; composition into panels, tensorization, and the
bound checks are local.  A d-dimensional tensor rule lists its nodes in
lexicographic order (last coordinate fastest) as one column-major (N, d)
array, so each coordinate column ``x[:, a]`` an integrand reads is
contiguous; node (i_1, ..., i_d) weighs w_i1 * w_i2 * ... * w_id, from the
left.  No node array goes through BLAS: the Fourier phase <n, x> is folded
from the left over the columns, ((n_1 x_1 + n_2 x_2) + n_3 x_3), so its bits
do not depend on the layout.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import InputError, NumericError

DEFAULT_PANELS = 64
DEFAULT_ORDER = 8


@functools.cache
def _leggauss(order):
    if not isinstance(order, (int, np.integer)) or order < 1:
        raise InputError(f"quadrature order must be a positive integer, got {order!r}")
    return leggauss(order)


@dataclass(frozen=True)
class QuadratureRule:
    """An immutable node/weight table."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes)
        weights = np.asarray(self.weights, dtype=float)
        if weights.ndim != 1 or weights.size == 0:
            raise InputError("weights must be a nonempty 1-D array")
        if nodes.shape[0] != weights.shape[0]:
            raise InputError(
                f"{nodes.shape[0]} nodes vs {weights.shape[0]} weights"
            )
        if not (np.all(np.isfinite(weights)) and np.all(np.isfinite(nodes.real))):
            raise InputError("rule contains non-finite nodes or weights")
        nodes.flags.writeable = False
        weights.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    def __len__(self):
        return self.weights.shape[0]


def weighted_sum(nodes, weights, f):
    """sum_i w_i f(x_i) accumulated in ascending node-index order.

    ``f`` is evaluated once on the full node array and must return one value
    row per node: shape (k,) for scalar integrands, (k, m) for vector ones.
    Non-finite samples raise ``NumericError`` carrying the first offending
    node.
    """
    return accumulate(weights, samples_of(f, np.asarray(nodes)))


def samples_of(f, nodes):
    """``f`` evaluated once on ``nodes``: (k,) or (k, m) inexact rows, all finite."""
    npts = len(nodes)
    samples = np.asarray(f(nodes))
    if samples.shape[:1] != (npts,) or samples.ndim > 2:
        raise InputError(
            f"handle returned shape {samples.shape} for {npts} nodes; "
            "expected (k,) or (k, m)"
        )
    if not np.issubdtype(samples.dtype, np.inexact):
        samples = samples.astype(float)
    require_finite(nodes, samples)
    return samples


ACCUMULATE_BLOCK = 4096
ACCUMULATE_ENTRIES = 64 * ACCUMULATE_BLOCK


def accumulate(weights, terms):
    """sum_i weights[i] * terms[i] over axis 0, added left to right from zero.

    Bit for bit the loop ``acc = acc + weights[i] * terms[i]`` started at
    ``acc = 0``: every entry of the result is its own sequential sum, so a
    column of a stacked ``terms`` equals the sum of that column alone.
    ``weights`` has shape (n,) or (n, s); it broadcasts against the leading
    axes of ``terms``.  The products are formed one block at a time, at
    most ``ACCUMULATE_BLOCK`` rows and, past one row, at most
    ``ACCUMULATE_ENTRIES`` entries, and the running sum is carried across
    blocks into the first row of the next one.  A 0-d result is returned as
    a numpy scalar.  A non-finite result, from finite terms whose products
    or sum overflow, raises ``NumericError`` instead of a numpy warning.
    """
    weights = np.asarray(weights, dtype=float)
    terms = np.asarray(terms)
    if terms.shape[:weights.ndim] != weights.shape:
        raise InputError(f"weights of shape {weights.shape} for terms of shape {terms.shape}")
    acc = _overflow_checked(terms.shape[0], _accumulate_blocks, weights, terms)
    return acc[()] if acc.ndim == 0 else acc


def _accumulate_blocks(weights, terms):
    col = (slice(None),) * weights.ndim + (None,) * (terms.ndim - weights.ndim)
    acc = np.zeros(terms.shape[1:], dtype=np.result_type(weights, terms))
    step = min(ACCUMULATE_BLOCK, max(1, ACCUMULATE_ENTRIES // max(acc.size, 1)))
    for start in range(0, terms.shape[0], step):
        block = weights[start:start + step][col] * terms[start:start + step]
        block[0] = acc + block[0]
        # in place, and only the last row kept: no table of running sums outlives the call
        acc = np.add.accumulate(block, axis=0, out=block)[-1].copy()
    return acc


def _overflow_checked(count, kernel, *args):
    """``kernel(*args)``, a numpy overflow or invalid operation raised as ``NumericError``:
    a sum of ``count`` finite terms turns non-finite only through an overflow."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            return kernel(*args)
    except FloatingPointError as exc:
        raise NumericError(f"weighted sum of {count} finite terms overflows") from exc


def require_finite(nodes, samples):
    """Raise ``NumericError`` carrying the first node whose sample row is non-finite."""
    finite = np.isfinite(samples)
    if finite.all():
        return
    bad = int(np.argwhere(~finite.reshape(len(samples), -1).all(axis=1))[0, 0])
    node = nodes[bad]
    node = node.tolist() if isinstance(node, np.ndarray) else complex(node) if np.iscomplexobj(nodes) else float(node)
    raise NumericError(f"non-finite sample at node {node!r}", node=node)


# -- interval rules ----------------------------------------------------------


def gauss_legendre_rule(a, b, panels=DEFAULT_PANELS, order=DEFAULT_ORDER):
    """Composite Gauss-Legendre rule on [a, b]: ``panels`` equal panels.

    Nodes are strictly ascending across the whole interval; weights are
    positive.  Exact for polynomials of degree <= 2*order - 1 on each panel.
    """
    nodes, weights = segment_rules([a], [b], panels=panels, order=order)
    return QuadratureRule(nodes[0], weights[0])


def segment_rules(a, b, panels=DEFAULT_PANELS, order=DEFAULT_ORDER):
    """The composite Gauss-Legendre rules of many segments [a_s, b_s] at once.

    Returns (nodes, weights), each of shape (s, panels * order); row s is the
    rule ``gauss_legendre_rule(a_s, b_s, panels, order)`` would build, bit
    for bit, since every node is formed by the same operations.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    bad = ~(np.isfinite(a) & np.isfinite(b) & (a < b))
    if bad.any():
        i = int(np.argmax(bad))
        raise InputError(f"bad interval [{float(a[i])!r}, {float(b[i])!r}]")
    if not isinstance(panels, (int, np.integer)) or panels < 1:
        raise InputError(f"panels must be a positive integer, got {panels!r}")
    base_x, base_w = _leggauss(order)
    width = ((b - a) / panels)[:, None]
    half = 0.5 * width
    mid = (a[:, None] + np.arange(panels) * width) + half
    nodes = mid[:, :, None] + half[:, :, None] * base_x
    weights = np.broadcast_to(half[:, :, None] * base_w, nodes.shape)
    return nodes.reshape(a.size, -1), weights.reshape(a.size, -1)


def box_rule(c, d, panels=DEFAULT_PANELS, order=DEFAULT_ORDER):
    """Tensor composite Gauss-Legendre rule on the box [-c, c]^d.

    For d == 1 nodes have shape (k,); otherwise (k, d) with lexicographic
    node order (last axis fastest).
    """
    if not isinstance(d, (int, np.integer)) or d < 1:
        raise InputError(f"box dimension must be a positive integer, got {d!r}")
    line = gauss_legendre_rule(-float(c), float(c), panels=panels, order=order)
    if d == 1:
        return line
    return tensor_rule(line, d)


def tensor_rule(line_rule, d):
    """Tensorize a 1-D rule to d dimensions with lexicographic node order."""
    weights = line_rule.weights
    for _ in range(d - 1):
        weights = np.multiply.outer(weights, line_rule.weights)
    return QuadratureRule(tensor_grid(line_rule.nodes, d), weights.reshape(-1))


def tensor_grid(axis, d):
    """The (q**d, d) grid of ``axis`` in lexicographic order, last coordinate
    fastest, column-major: each coordinate column is one contiguous row of
    the (d, q**d) array it transposes."""
    cols = np.empty((d,) + (len(axis),) * d, dtype=axis.dtype)
    for i in range(d):
        cols[i] = axis.reshape((-1,) + (1,) * (d - 1 - i))
    return cols.reshape(d, -1).T


# -- Hermite functions and the Gauss-Hermite rule ---------------------------

# the default rule of n_max = 495; higher orders lose accuracy at this size
HERMITE_MAX_SIZE = 1000


def _hermite_rows(n, x):
    """h_0(x), ..., h_n(x) as the rows of one (n + 1,) + x.shape table.

    h_0 = pi^(-1/4) e^(-x^2/2) and h_(j+1) = sqrt(2/(j+1)) x h_j -
    sqrt(j/(j+1)) h_(j-1), the normalized three-term recurrence (Bunck,
    BIT 49, 2009): no Hermite polynomial or norm constant is ever formed.
    """
    x = np.asarray(x, dtype=float)
    rows = np.empty((n + 1,) + x.shape)
    rows[0] = math.pi ** -0.25 * np.exp(-0.5 * x * x)
    if n:
        rows[1] = math.sqrt(2.0) * x * rows[0]
    for j in range(1, n):
        rows[j + 1] = math.sqrt(2.0 / (j + 1)) * x * rows[j] - math.sqrt(j / (j + 1)) * rows[j - 1]
    return rows


# the table holds m^2 floats, 8 MB at m = 1000
@functools.lru_cache(maxsize=8)
def psi_weighted_rule(m):
    """Read-only (nodes, weights, table) of the size-m Gauss rule for dx on the line.

    The nodes are the eigenvalues of the Jacobi matrix, off-diagonal sqrt(k/2)
    (Golub-Welsch, Math. Comp. 23, 1969), ``table[k]`` is h_k on them, and node
    x weighs 1 / sum_k h_k(x)^2, the Gauss-Hermite weight times e^{x^2}, or 0
    where every h_k underflows.  So sum_i w_i g(x_i) is exact when g e^{x^2}
    is a polynomial of degree below 2m.  Entries are at most pi^(-1/4) but
    where h_0 is subnormal (outer nodes, m >= 729): there the rounding of h_0,
    a factor below 2, cancels in w_i h_j(x_i) h_k(x_i).
    """
    if not isinstance(m, (int, np.integer)) or not 1 <= m <= HERMITE_MAX_SIZE:
        raise InputError(f"Gauss-Hermite size must be an integer in 1..{HERMITE_MAX_SIZE}, got {m!r}")
    nodes = np.linalg.eigvalsh(np.diag(np.sqrt(0.5 * np.arange(1, m)), -1))
    table = _hermite_rows(m - 1, nodes)
    total = np.einsum("ki,ki->i", table, table)
    weights = np.divide(1.0, total, out=np.zeros(m), where=total > 0)
    for a in (nodes, weights, table):
        a.flags.writeable = False
    return nodes, weights, table


def gauss_hermite_rule(m, d=1):
    """Gauss-Hermite rule: sum w_i g(x_i) ~ integral of g e^{-|x|^2}, with
    the weights of ``psi_weighted_rule(m)`` times e^{-x_i^2}."""
    if not isinstance(d, (int, np.integer)) or d < 1:
        raise InputError(f"Gauss-Hermite dimension must be a positive integer, got {d!r}")
    x, w, _ = psi_weighted_rule(m)
    line = QuadratureRule(x, w * np.exp(-x * x))
    if d == 1:
        return line
    return tensor_rule(line, d)


def integrate_gauss_hermite(g, m, d=1):
    """integral over R^d of g(x) e^{-|x|^2} dx by the size-m tensor rule."""
    rule = gauss_hermite_rule(m, d=d)
    return weighted_sum(rule.nodes, rule.weights, g)


# -- periodic rectangle rule -------------------------------------------------


def periodic_rule(n, d=1):
    """Uniform rectangle rule on [-pi, pi)^d with n points per axis.

    Exact for trigonometric polynomials of degree < n per axis, which is the
    aliasing guard behind Fourier coefficient accuracy.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise InputError(f"periodic rule size must be a positive integer, got {n!r}")
    if not isinstance(d, (int, np.integer)) or not 1 <= d <= 3:
        raise InputError(f"periodic rule supports d in 1..3, got {d!r}")
    x = -np.pi + 2.0 * np.pi * np.arange(n) / n
    w = np.full(n, 2.0 * np.pi / n)
    line = QuadratureRule(x, w)
    if d == 1:
        return line
    return tensor_rule(line, d)


def integrate_periodic(f, n, d=1):
    """Integral of ``f`` over [-pi, pi]^d by the uniform rectangle rule."""
    rule = periodic_rule(n, d=d)
    return weighted_sum(rule.nodes, rule.weights, f)


# -- the discrete integral bound ---------------------------------------------


@dataclass(frozen=True)
class IntegralBoundReport:
    """Per-seminorm comparison p(sum w_i f(x_i)) <= (sum w_i) * sup_i p(f(x_i))."""

    lhs: np.ndarray
    rhs: np.ndarray
    total_weight: float
    slack: float

    @property
    def passed(self):
        return bool(np.all(self.lhs <= self.rhs + self.slack))


def integral_bound_check(f, nodes, weights, space, slack=1e-12):
    """Check the triangle-inequality bound for a positive-weight rule.

    For each seminorm p of ``space``::

        p(sum_i w_i f(x_i))  <=  (sum_i w_i) * max_i p(f(x_i)) + slack

    Negative or non-finite weights void the bound, and like a node/weight
    count mismatch raise ``InputError`` before ``f`` runs.
    """
    weights = np.asarray(weights, dtype=float)
    nodes = np.asarray(nodes)
    if weights.shape != (len(nodes),):
        raise InputError(f"{len(nodes)} nodes vs weights of shape {weights.shape}")
    if not np.all(np.isfinite(weights) & (weights >= 0)):
        raise InputError("bound check requires finite nonnegative weights")
    samples = samples_of(f, nodes)
    integral = accumulate(weights, samples)
    table = space.seminorm_table(samples)
    sup = np.max(table, axis=0)
    total = float(np.sum(weights))
    lhs = space.seminorm_values(np.atleast_1d(integral))
    return IntegralBoundReport(lhs=lhs, rhs=total * sup, total_weight=total,
                               slack=float(slack))
