"""Index sets and graded enumeration orders for basis families.

Three shapes of index set occur:

* ``linear``  -- an integer ray {origin, origin+1, ...} graded by n itself,
* ``multi``   -- d-tuples of nonnegative integers graded by the l1 sum,
* ``lattice`` -- d-tuples of signed integers graded by the Euclidean norm.

``up_to(k)`` enumerates all indices of grade <= k sorted by (grade, lex); that
order is the accumulation order of every partial sum in the package, so it is
part of the reproducibility contract.
"""

import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InputError


def _is_int(n):
    """An integer index entry: a Python or numpy integer, not a bool."""
    return isinstance(n, (int, np.integer)) and not isinstance(n, bool)


def _int_in(name, value, low, high=math.inf):
    """``value`` as an int, refused unless it is an integer in low..high."""
    if not _is_int(value) or not low <= value <= high:
        raise InputError(f"{name} must be an integer in {low}..{high}, got {value!r}")
    return int(value)


def _finite_at_least(name, value, low):
    """``value``, refused unless it is a finite real number >= low; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not low <= value < math.inf:
        raise InputError(f"{name} must be a finite real >= {low}, got {value!r}")
    return value


def _numbers(name, values, kinds="iuf"):
    """``values`` as an array, refused unless its entries are integers or
    floats, or complex numbers too with ``kinds`` "iufc"; a bool, a string
    or None is not a number, and neither is a ragged nesting.  numpy makes
    ``[0.25, True]`` floats, so entries not in an ndarray are scanned for bools."""
    try:
        arr = np.asarray(values)
    except ValueError as exc:  # a ragged nesting
        raise InputError(f"{name} must be an array of numbers") from exc
    if arr.dtype.kind not in kinds:
        raise InputError(f"{name} must be numbers, got an array of dtype {arr.dtype}")
    if not isinstance(values, np.ndarray) and any(
            isinstance(v, (bool, np.bool_)) for v in np.asarray(values, dtype=object).flat):
        raise InputError(f"{name} must be numbers, got a bool among them")
    return arr


@dataclass(frozen=True)
class IndexSet:
    kind: str  # 'linear' | 'multi' | 'lattice'
    dim: int = 1
    origin: int = 0

    def __post_init__(self):
        if self.kind not in ("linear", "multi", "lattice"):
            raise InputError(f"unknown index set kind {self.kind!r}")
        if self.dim < 1:
            raise InputError("index set dimension must be >= 1")
        if self.kind == "linear" and self.origin not in (0, 1):
            raise InputError("linear index origin must be 0 or 1")

    def _tuplize(self, n):
        if _is_int(n) and self.dim == 1:
            return (int(n),)
        return n

    def grade(self, n):
        """The grading |n| used for truncation thresholds."""
        if self.kind == "linear":
            return float(n)
        n = self._tuplize(n)
        if self.kind == "multi":
            return float(sum(n))
        return math.sqrt(sum(c * c for c in n))

    def up_to(self, k):
        """All indices of grade <= k, sorted by (grade, lex)."""
        _finite_at_least("truncation threshold", k, 0)
        if self.kind == "linear":
            return list(range(self.origin, int(math.floor(k)) + 1))
        bound = int(math.floor(k))
        if self.kind == "multi":
            out = [
                n
                for n in itertools.product(range(bound + 1), repeat=self.dim)
                if sum(n) <= k
            ]
        else:
            rng = range(-bound, bound + 1)
            out = [
                n
                for n in itertools.product(rng, repeat=self.dim)
                if sum(c * c for c in n) <= k * k
            ]
        out.sort(key=lambda n: (self.grade(n), n))
        return out

    def validate_member(self, n):
        """``n`` itself if it is a member, else an ``InputError`` naming it."""
        self._coords(n)
        return n

    def _coords(self, n, below=None):
        """The coordinates of ``n`` as a tuple of ints, refused with an
        ``InputError`` naming ``n`` unless it is a member, every coordinate
        is in the int64 range and, given ``below``, below it."""
        m = (n,) if self.kind == "linear" else self._tuplize(n)
        low = {"linear": self.origin, "multi": 0}.get(self.kind, -math.inf)
        if not (isinstance(m, tuple) and len(m) == (1 if self.kind == "linear" else self.dim)
                and all(_is_int(c) and c >= low for c in m)):
            raise InputError(f"index {n!r} not in {self.kind} index set (dim {self.dim})")
        if not all(-2 ** 63 <= c < 2 ** 63 for c in m):
            raise InputError(f"index {n!r} is past the int64 range")
        if below is not None and max(m) >= below:
            raise InputError(f"index {n!r} is out of range: entries must be below {below}")
        return tuple(map(int, m))

    def check(self, idxs, below=None):
        """``idxs`` as one int64 array, (k,) for a linear set and (k, dim)
        otherwise, refusing the first entry that is not a member, is past
        the int64 range, or has an entry ``below`` or more, with an
        ``InputError`` naming it.  Entries are integers (tuples of them for
        multi-indices); a bool, a float or a string never is one, even where
        ``int()`` would take it."""
        idxs = list(idxs)
        shape = (len(idxs),) if self.kind == "linear" else (len(idxs), self.dim)
        arr = self._plain_array(idxs)
        low = {"linear": self.origin, "multi": 0}.get(self.kind)
        if arr is None or arr.size and (low is not None and arr.min() < low
                                        or below is not None and arr.max() >= below):
            arr = np.array([self._coords(n, below) for n in idxs], dtype=np.int64)
        return arr.reshape(shape)

    def _plain_array(self, idxs):
        """``idxs`` flattened into an int64 array by a few whole-list passes,
        when they are Python ints for a one-dimensional set, tuples of them of
        length ``dim`` otherwise, all in the int64 range; else None, which
        leaves the verdict to ``_coords``, index by index.  Bounds are not
        checked here."""
        kinds = set(map(type, idxs))
        if kinds <= {int} and (self.kind == "linear" or self.dim == 1):
            entries = idxs
        elif self.kind != "linear" and kinds <= {tuple} and set(map(len, idxs)) <= {self.dim}:
            entries = list(itertools.chain.from_iterable(idxs))
            if not set(map(type, entries)) <= {int}:
                return None
        else:
            return None
        try:
            return np.array(entries, dtype=np.int64)
        except OverflowError:
            return None
