"""The array coefficient kernels against the per-index loops they replaced.

The Hermite and Haar references restate, literally, the loop an earlier
version ran: one ``accumulate(w, fv * factor)`` per Hermite index over the
tensor rule and one composite rule per Haar piece added index by index.
Haar and Hermite at d = 1 must reproduce them bit for bit
(``np.array_equal`` and dtype).  Hermite at d = 2, 3 sums one axis at a
time, and Fourier coefficients come from an FFT; both sum in another order,
so they must be close to a per-index ``math.fsum`` of the products, within
a stated rounding bound, and each column of a vector handle must equal its
scalar run bit for bit.
"""

import math

import numpy as np
import pytest

import schauder.quadrature as quadrature
from schauder import FourierBasis, HaarBasis, HermiteBasis, InputError, NumericError
from schauder.interval_bases import HAAR_ORDER, _haar_split, haar_constancy_intervals
from schauder.quadrature import (
    QuadratureRule,
    accumulate,
    node_major,
    psi_weighted_rule,
    samples_of,
    segment_rules,
    tensor_rule,
)
from schauder.registry import corpus, vector_stack
from schauder.spectral_bases import _as_multi


def _same(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert np.array_equal(got, want)


# -- the replaced loops ------------------------------------------------------


def _hermite_rule(basis):
    nodes, weights, _ = psi_weighted_rule(basis.quad_size)
    line = QuadratureRule(nodes, weights)
    return line if basis.d == 1 else tensor_rule(line, basis.d)


def _hermite_factors(basis, idxs):
    """Per index, h_n on the tensor nodes: the product of its axis rows from the left."""
    for n in idxs:
        ns = _as_multi(n, basis.d)
        factor = basis._table[ns[0]]
        for ni in ns[1:]:
            factor = np.multiply.outer(factor, basis._table[ni])
        yield factor.ravel()


def _hermite_loop(basis, f, idxs):
    """One sequential ``accumulate`` over all Q^d nodes per index."""
    rule = _hermite_rule(basis)
    fv = samples_of(f, rule.nodes)
    out = []
    for factor in _hermite_factors(basis, idxs):
        terms = fv * factor if fv.ndim == 1 else fv * factor[:, None]
        out.append(accumulate(rule.weights, terms))
    return np.array(out)


def _hermite_terms(basis, f, idxs):
    """Per index, the (Q^d, m) products w_i (f(x_i) h_n(x_i)) of the loop."""
    rule = _hermite_rule(basis)
    cols = samples_of(f, rule.nodes).reshape(len(rule), -1)
    for factor in _hermite_factors(basis, idxs):
        yield rule.weights[:, None] * (cols * factor[:, None])


def _fsum(terms):
    """``math.fsum`` down each column of a (N, m) table, real and imaginary parts apart."""
    if np.iscomplexobj(terms):
        return np.array([complex(math.fsum(t.real), math.fsum(t.imag)) for t in terms.T])
    return np.array([math.fsum(t) for t in terms.T])


def _fourier_fsum(basis, f, idxs):
    """The per-mode mean of f(x) e^{-i<n, x>} over the grid, each sum by
    ``math.fsum``: node j of an axis sits at -pi + 2 pi j / N, so the phase
    is (-1)^(n_1 + ... + n_d) w^(-<j, n>), read from one table of w^-k."""
    size, d = basis.grid_size, basis.d
    table = np.exp(-2j * math.pi * np.arange(size) / size)
    grid = np.indices((size,) * d).reshape(d, -1).T  # lexicographic, last axis fastest
    fv = samples_of(f, basis.rule.nodes)
    cols = fv.reshape(len(fv), -1)
    out = []
    for n in idxs:
        ns = np.array(_as_multi(n, d, signed=True))
        terms = cols * ((-1.0) ** ns.sum() * table[grid @ ns % size])[:, None]
        out.append([complex(math.fsum(t.real), math.fsum(t.imag)) / len(fv) for t in terms.T])
    return np.array(out).reshape((len(idxs),) + fv.shape[1:])


def _haar_piece_panels(lo, hi):
    level = int(round(-math.log2(hi - lo))) if hi - lo < 1.0 else 0
    return max(4, 2 ** max(0, 6 - level))


def _haar_loop(basis, f, idxs):
    idxs = [int(n) for n in idxs]
    for n in idxs:
        basis.index_set.validate_member(n)
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


# -- handles -------------------------------------------------------------------


def _line_handles(name):
    funcs = [f for _, f in corpus(name)]
    return [funcs[1], funcs[4], vector_stack(funcs[:3])]


def _wide(x):
    # more columns than one column tile, complex in half of them
    cols = quadrature.NODE_MAJOR_COLUMNS + 37
    freq = np.linspace(0.1, 3.0, cols)
    vals = np.cos(np.multiply.outer(np.asarray(x, dtype=float), freq)) / (1.0 + x[:, None] ** 2)
    return vals + 1j * np.where(np.arange(cols) % 2, vals, 0.0)


def _box_functions(d):
    def g(x):
        return np.exp(-0.5 * np.sum(x * x, axis=1)) * (1.0 + x[:, 0] - 0.3 * x[:, -1] ** 2)

    def h(x):
        return np.cos(x[:, 0]) * np.sin(2.0 * x[:, -1]) + 0.1

    return [g, h, lambda x: np.exp(1j * x[:, 0]) * g(x)]


def _box_handles(d):
    funcs = _box_functions(d)
    return [funcs[0], vector_stack(funcs)]


# -- the kernel itself ---------------------------------------------------------


def _kernel_case(rng, count, n, width, dtype):
    weights = rng.uniform(0.0, 1.0, n)
    shape = (n, width) if width else (n,)
    samples = rng.standard_normal(shape).astype(dtype)
    if np.iscomplexobj(samples):
        samples += 1j * rng.standard_normal(shape)
    table = rng.standard_normal((count, n))
    want = [accumulate(weights, samples * (table[k] if samples.ndim == 1 else table[k][:, None]))
            for k in range(count)]
    return weights, samples, table, np.array(want)


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("width", [0, 1, 3, quadrature.NODE_MAJOR_COLUMNS + 5])
def test_node_major_equals_the_per_index_accumulate(width, dtype):
    rng = np.random.default_rng(width)
    count = quadrature.NODE_MAJOR_INDICES + 3  # two index tiles
    weights, samples, table, want = _kernel_case(rng, count, 23, width, dtype)
    _same(node_major(weights, samples, table), want)


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("width", [0, 1, 5])
def test_node_major_tiles_and_blocks_do_not_move_bits(monkeypatch, width, dtype):
    # tiny tiles: ragged index and column tiles, node blocks of a few rows,
    # and both the running-sum and the row-by-row additions
    rng = np.random.default_rng(7 + width)
    weights, samples, table, want = _kernel_case(rng, 11, 41, width, dtype)
    for entries, row_width in ((7, 4), (40, 100), (1, 1)):
        monkeypatch.setattr(quadrature, "NODE_MAJOR_INDICES", 4)
        monkeypatch.setattr(quadrature, "NODE_MAJOR_COLUMNS", 2)
        monkeypatch.setattr(quadrature, "NODE_MAJOR_ENTRIES", entries)
        monkeypatch.setattr(quadrature, "NODE_MAJOR_ROW_WIDTH", row_width)
        _same(node_major(weights, samples, table), want)


def test_node_major_refuses_an_overflowing_sum():
    samples = np.full(8, 1e308)
    table = np.ones((2, 8))
    with pytest.raises(NumericError, match="overflows"):
        node_major(np.ones(8), samples, table)


# -- the families ------------------------------------------------------------


@pytest.mark.parametrize("d,n_max,grade", [(1, 200, 200), (2, 10, 8), (3, 4, 4)])
def test_hermite_coefficients_equal_the_per_index_loop(d, n_max, grade):
    basis = HermiteBasis(d=d, n_max=n_max)
    idxs = basis.indices(grade)
    if d == 1:
        assert len(idxs) > quadrature.NODE_MAJOR_INDICES
        for f in _line_handles("hermite") + [_wide]:
            _same(basis.coefficients(f, idxs), _hermite_loop(basis, f, idxs))
        return
    # one axis at a time: d sums of Q terms and 2 d products per term, each
    # rounding once, against the fsum of products rounded 2 d times, so the
    # gap is below (d (Q + 2) + 2 d) u sum |terms| (Higham, Accuracy and
    # Stability, 2002, section 4.2); eps = 2u leaves room for the (1 - k u).
    # The flat loop over all Q^d nodes is further from the fsum (3.1e-14 at
    # d = 3, against at most 1.3e-15 here), and no closer for any handle
    funcs = _box_functions(d)
    eps = np.finfo(float).eps
    for f in _box_handles(d):
        got = basis.coefficients(f, idxs)
        assert got.shape[0] == len(idxs)
        terms = list(_hermite_terms(basis, f, idxs))
        exact = np.array([_fsum(t) for t in terms])
        bound = d * (basis.quad_size + 4) * eps * np.array([_fsum(np.abs(t)) for t in terms])
        gap = np.abs(got.reshape(exact.shape) - exact)
        flat = np.abs(_hermite_loop(basis, f, idxs).reshape(exact.shape) - exact)
        assert np.all(gap <= bound)
        assert gap.max() <= flat.max()
    stack = basis.coefficients(vector_stack(funcs), idxs)
    for i, f in enumerate(funcs):
        assert np.array_equal(stack[:, i], basis.coefficients(f, idxs))


@pytest.mark.parametrize("d,n_max,grid", [(1, 80, None), (2, 4, 16), (3, 2, 10)])
def test_fourier_coefficients_equal_the_per_mode_loop(d, n_max, grid):
    # close to the fsum loop within sqrt(N) eps max|f| per column, and every
    # column of a stack the bits of its scalar run
    basis = FourierBasis(d=d, n_max=n_max, grid_size=grid)
    idxs = basis.indices(n_max)
    npts = len(basis.rule)
    eps = np.finfo(float).eps
    if d == 1:
        funcs = [f for _, f in corpus("fourier")][:3]
        handles = _line_handles("fourier")
    else:
        funcs = _box_functions(d)
        handles = _box_handles(d)
    for f in handles:
        got = basis.coefficients(f, idxs)
        assert got.dtype == complex and got.shape[0] == len(idxs)
        fv = samples_of(f, basis.rule.nodes)
        bound = math.sqrt(npts) * eps * np.max(np.abs(fv.reshape(npts, -1)), axis=0)
        gap = np.abs(got - _fourier_fsum(basis, f, idxs)).reshape(len(idxs), -1)
        assert np.all(gap <= bound)
    stack = basis.coefficients(vector_stack(funcs), idxs)
    assert stack.shape == (len(idxs), len(funcs))
    for i, f in enumerate(funcs):
        _same(stack[:, i], basis.coefficients(f, idxs))


def test_haar_coefficients_equal_the_per_piece_loop():
    basis = HaarBasis()
    rng = np.random.default_rng(4096)
    batches = [list(range(1, 4097)),
               [int(n) for n in rng.permutation(4096)[:700] + 1] + [1, 1, 2, 4096, 2, 3]]
    for f in _line_handles("haar"):
        for idxs in batches:
            _same(basis.coefficients(f, idxs), _haar_loop(basis, f, idxs))


def test_haar_refuses_the_first_bad_index():
    basis = HaarBasis()
    f = corpus("haar")[1][1]
    with pytest.raises(InputError, match="index 0 not in linear"):
        basis.coefficients(f, [3, 0, -2])
    with pytest.raises(InputError, match="index -2 not in linear"):
        basis.coefficients(f, [3, -2, 2 ** 70])
    with pytest.raises(InputError, match="past the int64 range"):
        basis.coefficients(f, [3, 2 ** 70])
