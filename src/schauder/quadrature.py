"""Deterministic quadrature with a fixed accumulation order.

Every integral of this module reduces to one kernel, ``accumulate``: ``acc
= acc + w_i * f(x_i)`` runs from zero in ascending node order.  The kernel
does this with ``np.add.accumulate`` over a zero-prefixed stack of terms,
which adds strictly left to right (never pairwise), one fixed-size block at
a time.  The integrals evaluate the handle once per node, in consecutive
blocks of at most ``NODE_BLOCK`` nodes, and carry the running sum from
block to block, so neither the samples nor the integrand's temporaries
grow with the rule.  Two consequences are load bearing for the rest of the
package:

* coordinate functionals commute with integration bit for bit -- component i
  of the vector accumulation performs exactly the IEEE operations the scalar
  accumulation of that component performs;
* repeated runs produce identical bytes (no pairwise/BLAS reassociation).

A coefficient sweep, many functionals against one sample table, runs the
same sums through ``node_major``, the loop interchange of ``accumulate``:
for node i in ascending order, ``acc[k] = acc[k] + w_i * (f(x_i) *
table[k, i])`` for every row k of a (count, n) table at once, over tiles
of rows and columns whose running sums stay in cache.  Each entry is still
its own sequential sum from zero, of the same products in the same operand
order, so row k has the bits of ``accumulate(w, f(x) * table[k])`` and a
column of a vector sample table equals the scalar run of that column.
Hermite runs its sweep this way, one tensor axis at a time.  The Fourier and
Taylor functionals are discrete Fourier transforms of equispaced samples,
so ``spectral_bases`` takes them from one ``numpy.fft`` transform instead,
which also treats each column on its own.

Gauss-Legendre tables come from numpy, every Gauss-Hermite node and weight
from ``psi_weighted_rule``; composition into panels, tensorization, and the
bound checks are local.  A d-dimensional tensor rule lists its nodes in
lexicographic order (last coordinate fastest) as one column-major (N, d)
array, so each coordinate column ``x[:, a]`` an integrand reads is
contiguous; node (i_1, ..., i_d) weighs w_i1 * w_i2 * ... * w_id, from the
left; d = 1 is the one-axis case, with (N,) nodes and the bits of the 1-D
rule.  One builder, ``_grid_rows``, lays out every tensor grid, and
``integrate_*`` and the tail-bound check build it block by block from the
1-D grid, so they never form a tensor rule or grid whole.  No node array
goes through BLAS: the
phase <n, x> of a Fourier element is folded from the left over the columns,
((n_1 x_1 + n_2 x_2) + n_3 x_3), so its bits do not depend on the layout.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import InputError, NumericError
from .indexing import _finite_at_least, _int_in, _numbers

DEFAULT_PANELS = 64
DEFAULT_ORDER = 8


# typed: True and 2.0 are keys of their own, refused instead of hitting 1 and 2
@functools.lru_cache(maxsize=None, typed=True)
def _leggauss(order):
    return leggauss(_int_in("quadrature order", order, 1))


@dataclass(frozen=True)
class QuadratureRule:
    """An immutable node/weight table."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes, weights = _checked_rule(self.nodes, self.weights)
        if not len(weights):
            raise InputError("a rule needs at least one node")
        nodes.flags.writeable = False
        weights.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    def __len__(self):
        return self.weights.shape[0]


def weighted_sum(nodes, weights, f):
    """sum_i w_i f(x_i) accumulated in ascending node-index order.

    ``f`` is evaluated once per node, on consecutive blocks of at most
    ``NODE_BLOCK`` nodes, and must return one value row per node: shape
    (k,) for scalar integrands, (k, m) for vector ones, the same (m,) in
    every block.  A node/weight count mismatch, weights that are not 1-D
    and non-finite nodes or weights raise ``InputError`` before ``f`` runs;
    an empty rule calls ``f`` once, on no nodes, for the shape of its zero.
    Non-finite samples raise ``NumericError`` carrying the first offending
    node.
    """
    nodes, weights = _checked_rule(nodes, weights)
    return _block_sum(f, _slices(nodes, weights), len(weights))


def _checked_rule(nodes, weights):
    """``nodes`` and float ``weights`` as arrays, refused with ``InputError``
    unless both are numbers (``indexing._numbers``: no bool, string or None
    among them), the weights real and 1-D, one per node, and both finite."""
    weights = np.asarray(_numbers("weights", weights), dtype=float)
    nodes = _numbers("nodes", nodes, "iufc")
    if weights.ndim != 1 or nodes.shape[:1] != weights.shape:
        raise InputError(f"nodes of shape {nodes.shape} vs weights of shape {weights.shape}")
    if not (np.isfinite(weights).all() and np.isfinite(nodes).all()):
        raise InputError("rule contains non-finite nodes or weights")
    return nodes, weights


def _slices(nodes, weights):
    """A rule given whole, in the blocks ``_block_sum`` takes: consecutive
    slices of at most ``NODE_BLOCK`` nodes, one empty slice if it is empty."""
    for start in range(0, max(len(weights), 1), NODE_BLOCK):
        yield nodes[start:start + NODE_BLOCK], weights[start:start + NODE_BLOCK]


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
# nodes per call of an integrand: of 4,096 to 65,536 rows and the whole rule,
# 16,384 and 32,768 ran the bench's integrate jobs fastest, within noise of
# each other (ROADMAP); the larger makes half as many calls
NODE_BLOCK = 8 * ACCUMULATE_BLOCK


def accumulate(weights, terms):
    """sum_i weights[i] * terms[i] over axis 0, added left to right from zero.

    Bit for bit the loop ``acc = acc + weights[i] * terms[i]`` started at
    ``acc = 0``: every entry of the result is its own sequential sum, so a
    column of a stacked ``terms`` equals the sum of that column alone.
    ``weights`` has shape (n,) or (n, s); it broadcasts against the leading
    axes of ``terms``.  The products are formed one block at a time, at
    most ``ACCUMULATE_BLOCK`` rows and, past one row, at most
    ``ACCUMULATE_ENTRIES`` entries, and the running sum is carried across
    blocks into the first row of the next one.  ``weighted_sum`` and the
    integrals evaluate f once per node, in blocks of ``NODE_BLOCK`` nodes,
    and continue this running sum on each block, so they add the same
    products in the same order.  A 0-d result is returned as a numpy
    scalar.  A non-finite result, from finite terms whose products or sum
    overflow, raises ``NumericError`` instead of a numpy warning.
    """
    weights = np.asarray(weights, dtype=float)
    terms = np.asarray(terms)
    if terms.shape[:weights.ndim] != weights.shape:
        raise InputError(f"weights of shape {weights.shape} for terms of shape {terms.shape}")
    acc = _overflow_checked(terms.shape[0], _accumulate_blocks, weights, terms)
    return acc[()] if acc.ndim == 0 else acc


def _accumulate_blocks(weights, terms, acc=None):
    """The running sum of ``accumulate``, continued from ``acc`` (zero when None)."""
    col = (slice(None),) * weights.ndim + (None,) * (terms.ndim - weights.ndim)
    if acc is None:
        acc = np.zeros(terms.shape[1:], dtype=np.result_type(weights, terms))
    # a complex block after real ones makes the sum complex from there on
    dtype = np.result_type(acc, weights, terms)
    step = min(ACCUMULATE_BLOCK, max(1, ACCUMULATE_ENTRIES // max(acc.size, 1)))
    for start in range(0, terms.shape[0], step):
        block = np.multiply(weights[start:start + step][col], terms[start:start + step], dtype=dtype)
        block[0] = acc + block[0]
        # in place, and only the last row kept: no table of running sums outlives the call
        acc = np.add.accumulate(block, axis=0, out=block)[-1].copy()
    return acc


def _block_sum(f, blocks, n, fold=None):
    """sum_i w_i f(x_i) over the n nodes of ``blocks``, (nodes, weights)
    pairs of at most ``NODE_BLOCK`` rows in node order: ``f`` is evaluated
    once per block, the running sum of ``accumulate`` is carried from block
    to block, and ``fold``, when given, sees each block's samples.  A block
    whose value rows change shape raises ``InputError``."""
    acc = None
    for nodes, weights in blocks:
        samples = samples_of(f, nodes)
        if acc is not None and samples.shape[1:] != acc.shape:
            raise InputError(
                f"handle returned rows of shape {samples.shape[1:]} after rows of shape {acc.shape}"
            )
        acc = _overflow_checked(n, _accumulate_blocks, weights, samples, acc)
        if fold is not None:
            fold(samples)
    return acc[()] if acc.ndim == 0 else acc


# node_major tiles: accumulator entries per index and column tile, products
# per node block, and the tile width from which each node's products are
# added as one row instead of by a running sum along the node axis
NODE_MAJOR_INDICES = 128
NODE_MAJOR_COLUMNS = 512
NODE_MAJOR_ENTRIES = 1 << 16
NODE_MAJOR_ROW_WIDTH = 512


def node_major(weights, samples, table):
    """Row k is sum_i weights[i] * (samples[i] * table[k, i]) for each row of
    a real (count, n) ``table``, added left to right from zero: bit for bit
    ``accumulate(weights, samples * table[k])``, table[k] broadcast over the
    columns of (n, ...) samples, so a column of vector samples equals its
    scalar run.  The result has shape (count,) + samples.shape[1:].

    Tiles of at most ``NODE_MAJOR_INDICES`` table rows by
    ``NODE_MAJOR_COLUMNS`` columns keep their running sums in cache; each
    forms blocks of at most ``NODE_MAJOR_ENTRIES`` products from its slice
    of ``table[ks].T`` and adds them in node order.  An overflow raises
    ``NumericError``, as in ``accumulate``.
    """
    weights = np.asarray(weights, dtype=float)
    samples = np.asarray(samples)
    cols = samples.reshape(len(samples), -1)
    out = np.empty((len(table), cols.shape[1]), dtype=np.result_type(weights, samples))
    _overflow_checked(len(weights), _node_major_tiles, weights, cols, table, out)
    return out.reshape((len(table),) + samples.shape[1:])


def _node_major_tiles(weights, samples, table, out):
    n, width = samples.shape
    for k0 in range(0, len(out), NODE_MAJOR_INDICES):
        ks = slice(k0, min(k0 + NODE_MAJOR_INDICES, len(out)))
        rows = table[ks].T
        for c0 in range(0, width, NODE_MAJOR_COLUMNS):
            cs = slice(c0, min(c0 + NODE_MAJOR_COLUMNS, width))
            tile = (cs.stop - c0, ks.stop - k0)  # acc[c, k] sums column c of index k
            step = max(1, min(n, NODE_MAJOR_ENTRIES // (tile[0] * tile[1])))
            buf = np.empty(step * tile[0] * tile[1], dtype=out.dtype)
            acc = np.zeros(tile, dtype=out.dtype)
            for start in range(0, n, step):
                stop = min(start + step, n)
                block = buf[:(stop - start) * acc.size].reshape((stop - start,) + tile)
                np.multiply(samples[start:stop, cs, None], rows[start:stop, None, :], out=block)
                np.multiply(weights[start:stop, None, None], block, out=block)
                if acc.size < NODE_MAJOR_ROW_WIDTH:
                    np.add(acc, block[0], out=block[0])
                    acc[...] = np.add.accumulate(block, axis=0, out=block)[-1]
                else:
                    for row in block:
                        np.add(acc, row, out=acc)
            out[ks, cs] = acc.T


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
    panels = _int_in("panels", panels, 1)
    base_x, base_w = _leggauss(order)
    width = ((b - a) / panels)[:, None]
    half = 0.5 * width
    mid = (a[:, None] + np.arange(panels) * width) + half
    nodes = mid[:, :, None] + half[:, :, None] * base_x
    weights = np.broadcast_to(half[:, :, None] * base_w, nodes.shape)
    return nodes.reshape(a.size, -1), weights.reshape(a.size, -1)


def box_rule(c, d, panels=DEFAULT_PANELS, order=DEFAULT_ORDER):
    """Tensor composite Gauss-Legendre rule on the box [-c, c]^d, in the
    layout of ``tensor_rule``."""
    d = _int_in("box dimension", d, 1)
    return tensor_rule(gauss_legendre_rule(-float(c), float(c), panels=panels, order=order), d)


def tensor_rule(line_rule, d):
    """Tensorize a 1-D rule to d dimensions, its nodes laid out by ``_grid_rows``."""
    size = _tensor_size(line_rule, d)
    return QuadratureRule(*next(_tensor_blocks(line_rule, d, size)))


def _tensor_size(line_rule, d):
    """len(line_rule)**d, refused with ``InputError`` past ``np.intp``."""
    size = len(line_rule) ** d
    if size > np.iinfo(np.intp).max:
        raise InputError(f"a {len(line_rule)}-node rule in {d} dimensions has too many nodes")
    return size


def _tensor_blocks(line_rule, d, block=NODE_BLOCK):
    """The rows of ``tensor_rule(line_rule, d)`` in blocks of at most
    ``block``, each built from the 1-D rule.  The ``lead`` first axes are the
    fewest whose remaining grid fits a block: each block takes a range of
    their index tuples, with the whole remaining grid under each tuple.
    Nodes are those of ``_grid_rows``; weights are multiplied from the left,
    (w_i1 * w_i2) * w_i3, as in the outer products of the whole rule."""
    x, w = line_rule.nodes, line_rule.weights
    q = len(w)
    lead = next(a for a in range(d + 1) if q ** (d - a) <= block)
    step = block // q ** (d - lead)
    for start in range(0, q ** lead, step):
        stop = min(start + step, q ** lead)
        heads = np.unravel_index(np.arange(start, stop), (q,) * lead) if lead else ()
        weights = np.ones(stop - start)
        for head in heads:
            weights = weights * w[head]
        for _ in range(lead, d):
            weights = np.multiply.outer(weights, w)
        yield _grid_rows(x, d, heads), weights.reshape(-1)


def _tensor_sum(f, line_rule, d):
    """``_block_sum`` over the blocks of ``_tensor_blocks``: the tensor rule
    is never formed whole."""
    return _block_sum(f, _tensor_blocks(line_rule, d), _tensor_size(line_rule, d))


def tensor_grid(axis, d):
    """The q**d rows of ``axis``^d, laid out by ``_grid_rows``."""
    return _grid_rows(axis, d)


def _grid_rows(axis, d, heads=()):
    """Rows of ``axis``^d, last coordinate fastest: the whole grid, or under
    each index tuple of ``heads`` (index arrays of the leading axes) the grid
    of the other axes.  Column-major (k, d) nodes, each coordinate column one
    contiguous row of the (d, k) array they transpose; (k,) for d = 1."""
    trail = (len(axis),) * (d - len(heads))
    cols = np.empty((d, len(heads[0]) if heads else 1) + trail, dtype=axis.dtype)
    for a, head in enumerate(heads):
        cols[a] = axis[head].reshape((-1,) + (1,) * len(trail))
    for a in range(len(heads), d):
        cols[a] = axis.reshape((-1,) + (1,) * (d - 1 - a))
    cols = cols.reshape(d, -1)
    return cols[0] if d == 1 else cols.T


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
@functools.lru_cache(maxsize=8, typed=True)
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
    m = _int_in("Gauss-Hermite size", m, 1, HERMITE_MAX_SIZE)
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
    d = _int_in("Gauss-Hermite dimension", d, 1)
    return tensor_rule(_gauss_hermite_line(m), d)


def _gauss_hermite_line(m):
    x, w, _ = psi_weighted_rule(m)
    return QuadratureRule(x, w * np.exp(-x * x))


def integrate_gauss_hermite(g, m, d=1):
    """integral over R^d of g(x) e^{-|x|^2} dx by the size-m tensor rule:
    ``weighted_sum`` over ``gauss_hermite_rule(m, d)``, bit for bit, with g
    evaluated once per node, in blocks built from the 1-D rule."""
    d = _int_in("Gauss-Hermite dimension", d, 1)
    return _tensor_sum(g, _gauss_hermite_line(m), d)


# -- periodic rectangle rule -------------------------------------------------


def periodic_rule(n, d=1):
    """Uniform rectangle rule on [-pi, pi)^d with n points per axis.

    Exact for trigonometric polynomials of degree < n per axis, which is the
    aliasing guard behind Fourier coefficient accuracy.
    """
    line = _periodic_line(n)
    return tensor_rule(line, _int_in("periodic rule dimension", d, 1, 3))


def _periodic_line(n):
    n = _int_in("periodic rule size", n, 1)
    x = -np.pi + 2.0 * np.pi * np.arange(n) / n
    return QuadratureRule(x, np.full(n, 2.0 * np.pi / n))


def integrate_periodic(f, n, d=1):
    """Integral of ``f`` over [-pi, pi]^d by the uniform rectangle rule:
    ``weighted_sum`` over ``periodic_rule(n, d)``, bit for bit, with f
    evaluated once per node, in blocks built from the 1-D rule."""
    line = _periodic_line(n)
    return _tensor_sum(f, line, _int_in("periodic rule dimension", d, 1, 3))


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

    An empty rule, a non-finite node, negative or non-finite weights (which
    void the bound), a node/weight count mismatch and a slack that is not a
    finite real >= 0 raise ``InputError`` before ``f`` runs.  ``f`` is
    evaluated once per node, in the blocks of ``weighted_sum``, and the sup
    is folded block by block, so no table of n rows is formed.
    """
    slack = _finite_at_least("slack", slack, 0)
    nodes, weights = _checked_rule(nodes, weights)
    if not len(weights):
        raise InputError("bound check needs at least one node")
    if not np.all(weights >= 0):
        raise InputError("bound check requires finite nonnegative weights")
    sups = []
    integral = _block_sum(f, _slices(nodes, weights), len(weights),
                          lambda samples: sups.append(space.seminorm_table(samples).max(axis=0)))
    total = float(np.sum(weights))
    lhs, rhs = _bound_sides(space, np.reshape(integral, (1, -1)), np.max(sups, axis=0)[None], [total])
    return IntegralBoundReport(lhs=lhs[0], rhs=rhs[0], total_weight=total,
                               slack=float(slack))


def _bound_sides(space, integrals, sups, totals):
    """Both sides of p(sum_i w_i f(x_i)) <= (sum_i w_i) * max_i p(f(x_i)) for
    many rules at once: from (r, m) integrals, (r, A) sups of the seminorm
    table and r total weights, the (r, A) tables lhs and rhs."""
    return space.seminorm_table(integrals), np.asarray(totals)[:, None] * sups
