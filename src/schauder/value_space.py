"""Finite-dimensional value spaces with explicit seminorm families.

A ``ValueSpace`` models K^m (K real or complex) together with a finite family
of seminorms p_0, ..., p_{A-1} that jointly separate points.  Vectors are plain
1-D numpy arrays; the space object only validates and evaluates.  All
operations are pure and spaces are immutable after construction, so instances
can be shared freely across threads.

Supported seminorm kinds
------------------------
``sup``                     max_i |v_i|
``weighted-sup``            max_i w_i |v_i|          (w_i >= 0, given per axis)
``euclidean``               sqrt(sum_i |v_i|^2)
``coordinate-subset-sup``   max over {i : w_i > 0} of |v_i|

``seminorm_table`` fills one contiguous (A, k) row per seminorm, folding the
m coordinate columns from the left (the Euclidean sum adds the squares from
the first coordinate to the last), and returns its (k, A) transpose.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InputError

# each seminorm kind, with its short label for CSV headers and reports
_KIND_LABEL = {"sup": "sup", "weighted-sup": "wsup", "euclidean": "eucl",
               "coordinate-subset-sup": "csup"}
SEMINORM_KINDS = tuple(_KIND_LABEL)


@dataclass(frozen=True)
class SeminormSpec:
    """One member of a seminorm family: a kind plus optional per-axis weights."""

    kind: str
    weights: tuple = None

    def __post_init__(self):
        # weight shape depends on the space dimension and is checked in
        # validated(); the kind can and should fail fast
        if self.kind not in SEMINORM_KINDS:
            raise InputError(
                f"unknown seminorm kind {self.kind!r}; known: {', '.join(SEMINORM_KINDS)}"
            )

    def validated(self, dimension):
        if self.kind in ("sup", "euclidean"):
            if self.weights is not None:
                raise InputError(f"seminorm kind {self.kind!r} takes no weights")
            return self
        if self.weights is None:
            raise InputError(f"seminorm kind {self.kind!r} requires weights")
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (dimension,):
            raise InputError(
                f"weights must have length {dimension}, got shape {w.shape}"
            )
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise InputError("seminorm weights must be finite and nonnegative")
        if self.kind == "coordinate-subset-sup" and not np.any(w > 0):
            raise InputError("coordinate-subset-sup needs at least one positive weight")
        return SeminormSpec(self.kind, tuple(float(x) for x in w))


class ValueSpace:
    """K^m with a separating finite family of seminorms.

    Parameters
    ----------
    dimension : int
        m >= 1.
    field : str
        ``"real"`` or ``"complex"``.
    seminorms : sequence of SeminormSpec, optional
        Defaults to the single sup seminorm.  The family must separate
        points: for every basis vector some member must be positive on it.
    """

    def __init__(self, dimension, field="real", seminorms=None):
        if not isinstance(dimension, (int, np.integer)) or dimension < 1:
            raise InputError(f"dimension must be a positive integer, got {dimension!r}")
        if field not in ("real", "complex"):
            raise InputError(f"field must be 'real' or 'complex', got {field!r}")
        if seminorms is None:
            seminorms = (SeminormSpec("sup"),)
        seminorms = tuple(s.validated(dimension) for s in seminorms)
        if not seminorms:
            raise InputError("seminorm family must be nonempty")
        self.dimension = int(dimension)
        self.field = field
        self.seminorms = seminorms
        self._check_separation()

    def seminorm_values(self, v):
        """All seminorms of ``v`` as a float array of length len(seminorms)."""
        v = np.asarray(v)
        if v.shape != (self.dimension,):
            raise InputError(
                f"vector has shape {v.shape}, space dimension is {self.dimension}"
            )
        return self.seminorm_table(v[None, :])[0]

    def seminorm_labels(self):
        """Stable short labels, used for CSV headers and reports."""
        return [
            f"p{i}_{_KIND_LABEL[s.kind]}" for i, s in enumerate(self.seminorms)
        ]

    def seminorm_table(self, rows):
        """Seminorms of many vectors at once: (k, m) rows -> (k, A) table.

        Up to m = 7 coordinates the Euclidean column equals numpy's row sum
        bit for bit; numpy sums pairwise from 8 entries up.
        """
        rows = np.asarray(rows)
        if rows.ndim == 1 and self.dimension == 1:
            rows = rows[:, None]
        if rows.ndim != 2 or rows.shape[1] != self.dimension:
            raise InputError(
                f"row table has shape {rows.shape}, space dimension is {self.dimension}"
            )
        cols = np.abs(rows.T, order="C")
        table = np.empty((len(self.seminorms), rows.shape[0]))
        for out, s in zip(table, self.seminorms):
            if s.kind == "euclidean":
                terms = (c * c for c in cols)
            elif s.kind == "weighted-sup":
                terms = (w * c for w, c in zip(s.weights, cols))
            elif s.kind == "coordinate-subset-sup":
                terms = (c for w, c in zip(s.weights, cols) if w > 0)
            else:
                terms = iter(cols)
            fold = np.add if s.kind == "euclidean" else np.maximum
            out[...] = next(terms)
            for t in terms:
                fold(out, t, out=out)
            if s.kind == "euclidean":
                np.sqrt(out, out=out)
        return table.T

    def _check_separation(self):
        # row i holds every seminorm of the unit vector e_i
        for i, row in enumerate(self.seminorm_table(np.eye(self.dimension))):
            if not np.any(row):
                raise InputError(
                    f"seminorm family does not separate coordinate {i}"
                )

    def __repr__(self):
        kinds = ",".join(s.kind for s in self.seminorms)
        return f"ValueSpace(dim={self.dimension}, field={self.field}, [{kinds}])"
