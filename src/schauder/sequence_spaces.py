"""Weighted sequence spaces over a value space: Koethe echelon c_0(A, E),
rapid-decay s(Omega, E), convergent sequences c(N, E), and the product E^N.

All data is truncated: a ``TruncatedSequence`` holds finitely many indexed
entries (plus a declared limit for c(N)).  Unit-vector decompositions and
projection-error profiles -- the weighted seminorms of the tails x - P_k x --
are computed by finite scans in a fixed index order, so results are deterministic and the c(N) reassembly
x_inf + (x_n - x_inf) performs exactly two IEEE additions per entry.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .indexing import _finite_at_least, _int_in
from .value_space import ValueSpace

__all__ = [
    "TruncatedSequence",
    "KotheMatrix",
    "unit_decomposition",
    "reassemble",
    "projection_error_profile",
]

SPACE_KINDS = ("c0", "c", "s", "en")


@dataclass(frozen=True)
class TruncatedSequence:
    """Finitely many entries of a sequence, optionally with a declared limit.

    ``indices`` are positive integers (c_0, c, E^N), nonnegative integers or
    multi-indices (s over N_0^d), or signed integers / lattice points (s over
    Z^d).  ``values`` is (K,) for scalar entries or (K, m) for vector ones.
    ``limit`` must be present exactly for the convergent-sequence space.
    """

    indices: tuple
    values: np.ndarray
    limit: object = None
    space: str = ""

    def __post_init__(self):
        idx = tuple(self.indices)
        if not idx:
            raise InputError("truncated sequence needs at least one entry")
        if len(set(idx)) != len(idx):
            raise InputError("indices must be distinct")
        vals = np.asarray(self.values)
        if vals.shape[0] != len(idx) or vals.ndim not in (1, 2):
            raise InputError(
                f"values shape {vals.shape} does not match {len(idx)} indices"
            )
        vals.flags.writeable = False
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "values", vals)
        if self.limit is not None:
            lim = np.asarray(self.limit)
            want = vals.shape[1:] or ()
            if lim.shape != want:
                raise InputError(
                    f"limit shape {lim.shape} does not match entry shape {want}"
                )

    @property
    def width(self):
        return self.values.shape[1] if self.values.ndim == 2 else 1

    def rows(self):
        v = self.values
        return v[:, None] if v.ndim == 1 else v


def _grade(idx):
    """Euclidean grade of an index (|n| for ints, |n|_2 for tuples)."""
    if isinstance(idx, tuple):
        return math.sqrt(sum(float(c) * float(c) for c in idx))
    return abs(float(idx))


def _sort_key(idx):
    return (_grade(idx), idx if isinstance(idx, tuple) else (idx,))


def _space_for(x, space):
    if space is not None:
        if space.dimension != x.width:
            raise InputError(
                f"value space dimension {space.dimension} vs entry width {x.width}"
            )
        return space
    field_ = "complex" if np.iscomplexobj(x.values) else "real"
    return ValueSpace(x.width, field=field_)


# ---------------------------------------------------------------------------
# Koethe matrices
# ---------------------------------------------------------------------------


class KotheMatrix:
    """A nonnegative weight table a(k, j), k = 1..K rows, j = 1..J columns.

    The echelon conditions (every row has a positive entry, rows are
    nondecreasing in j) are not enforced, so ill-formed tables can be
    examined.
    """

    def __init__(self, table):
        t = np.asarray(table, dtype=float)
        if t.ndim != 2 or t.size == 0:
            raise InputError("weight table must be a nonempty 2-D array")
        if not np.all(np.isfinite(t)) or np.any(t < 0):
            raise InputError("weight entries must be finite and nonnegative")
        t.flags.writeable = False
        self.table = t

    @classmethod
    def from_function(cls, fn, rows, cols):
        rows, cols = _int_in("rows", rows, 1), _int_in("cols", cols, 1)
        return cls([[fn(k, j) for j in range(1, cols + 1)]
                    for k in range(1, rows + 1)])

    @property
    def rows(self):
        return self.table.shape[0]

    @property
    def cols(self):
        return self.table.shape[1]

    def entry(self, k, j):
        if not 1 <= k <= self.rows:
            raise InputError(f"row index {k} out of range 1..{self.rows}")
        if not 1 <= j <= self.cols:
            raise InputError(f"column index {j} out of range 1..{self.cols}")
        return float(self.table[k - 1, j - 1])


# ---------------------------------------------------------------------------
# seminorm weights
# ---------------------------------------------------------------------------


def _weights(x, kind, matrix=None, j=None, l=None):
    """Per-entry weights of the c0, s or en seminorm, in the order of x.indices.

    c0 -> a(n, j) of the Koethe matrix; s -> (1 + |n|^2)^{j/2}; en -> the
    indicator of n <= l.  c0 and en take positive integer indices only.
    """
    if kind == "s":
        return [(1.0 + _grade(idx) ** 2) ** (0.5 * j) for idx in x.indices]
    for idx in x.indices:
        if isinstance(idx, tuple) or idx < 1:
            raise InputError(
                "c_0(A) indices must be positive integers (rows of A)" if kind == "c0"
                else "E^N indices must be positive integers"
            )
    if kind == "c0":
        return [matrix.entry(int(idx), j) for idx in x.indices]
    return [1.0 if idx <= l else 0.0 for idx in x.indices]


# ---------------------------------------------------------------------------
# unit-vector decompositions
# ---------------------------------------------------------------------------


def _check_kind(kind):
    if kind not in SPACE_KINDS:
        raise InputError(f"unknown sequence space kind {kind!r}")


def unit_decomposition(x, kind):
    """Expansion of ``x`` over unit vectors, as ordered (index, coefficient) pairs.

    For c_0, s and E^N the coefficients are the entries themselves.  For the
    convergent-sequence space the constant direction comes first:
    x = x_inf * ones + sum (x_n - x_inf) e_n, encoded with index "inf".
    """
    _check_kind(kind)
    order = sorted(range(len(x.indices)), key=lambda i: _sort_key(x.indices[i]))
    if kind == "c":
        if x.limit is None:
            raise InputError("convergent-sequence decomposition needs a declared limit")
        lim = np.asarray(x.limit)
        lim_val = lim[()] if lim.ndim == 0 else lim
        terms = [("inf", lim_val)]
        for i in order:
            terms.append((x.indices[i], x.values[i] - lim_val))
        return terms
    if x.limit is not None:
        raise InputError(f"space kind {kind!r} does not declare a limit")
    return [(x.indices[i], x.values[i]) for i in order]


def reassemble(terms, indices, kind):
    """Sum the decomposition back at the given indices, in term order.

    The accumulation per index is the literal term order: the constant
    direction first (if any), then the unit coordinates.  With exact
    coefficient subtractions (see ``unit_decomposition``) this reproduces
    the original entries bit for bit.
    """
    _check_kind(kind)
    pos = {idx: i for i, idx in enumerate(indices)}
    shape = None
    for _, coeff in terms:
        shape = np.shape(coeff)
        break
    acc = np.zeros((len(indices),) + tuple(shape or ()),
                   dtype=complex if any(np.iscomplexobj(c) for _, c in terms) else float)
    for idx, coeff in terms:
        if idx == "inf":
            for i in range(len(indices)):
                acc[i] = acc[i] + coeff
        elif idx in pos:
            i = pos[idx]
            acc[i] = acc[i] + coeff
    return acc


# ---------------------------------------------------------------------------
# projection tails
# ---------------------------------------------------------------------------


def projection_error_profile(x, kind, ranks, matrix=None, j=None, l=None,
                             space=None):
    """Seminorm of x - P_k x for each rank k: the weighted sup over the tail.

    P_k keeps the entries of grade <= k, so the error is the sup of the same
    weighted seminorm over indices of grade > k -- computed by a literal
    finite scan.  Empty tails give exactly 0.0 (in particular the product
    space E^N for k >= l).

    Weight per kind: c0 -> a(n, j) (needs ``matrix`` and ``j``); s -> the
    polynomial weight of order ``j``; en -> the indicator of n <= ``l``;
    c -> 1 applied to the centered entries x_n - x_inf.
    """
    _check_kind(kind)
    sp = _space_for(x, space)
    if kind == "c0":
        if matrix is None:
            raise InputError("c0 profile needs the weight matrix")
        _int_in("c0 profile column j", j, 1, matrix.cols)
    elif kind == "s":
        _finite_at_least("s profile weight order j", j, 0)
    elif kind == "en":
        _int_in("E^N profile coordinate cutoff l", l, 1)
    ranks = [_finite_at_least("rank", k, 0) for k in ranks]
    if kind == "c":
        if x.limit is None:
            raise InputError("convergent-sequence profile needs a declared limit")
        weights = np.ones(len(x.indices))
        lim = np.atleast_1d(np.asarray(x.limit))
        rows = x.rows() - lim[None, :]
    else:
        weights = np.array(_weights(x, kind, matrix=matrix, j=j, l=l))
        rows = x.rows()
    table = sp.seminorm_table(rows) * weights[:, None]
    grades = np.array([_grade(i) for i in x.indices])
    out = []
    for k in ranks:
        mask = grades > k
        errs = (np.max(table[mask], axis=0) if np.any(mask)
                else np.zeros(table.shape[1]))
        out.append((k, errs if space is not None else float(errs[0])))
    return out
