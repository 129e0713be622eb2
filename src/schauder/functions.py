"""Function handles: the calling convention and small adapters.

Every function handle in this package is vectorized over evaluation points:

* scalar-valued handles map an array of points of shape (k,) (or (k, d) for
  d > 1 domains) to values of shape (k,),
* vector-valued handles map the same points to values of shape (k, m).

A handle must accept every point of its domain: a ``FiniteRankElement``
built from explicit handles evaluates each of them on every point it is
called at, and no attribute of a handle (a ``support``, say) narrows that.

``FunctionBundle`` pairs a handle with its derivative handles so bases whose
coefficient functionals differentiate (the C^k family) can ask for exact
derivatives instead of finite differences.
"""

import numpy as np

from .errors import InputError
from .indexing import _int_in


class FunctionBundle:
    """A callable together with derivative handles of orders 1..len(derivatives).

    The bundle itself is callable and delegates to the order-zero handle.
    """

    def __init__(self, func, derivatives=(), name=None):
        self.func = func
        self.derivatives = tuple(derivatives)
        self.name = name

    def __call__(self, x):
        return self.func(x)

    def derivative(self, order=1):
        """Handle for the derivative of the given order (0 returns func);
        the order is an integer >= 0, refused past the orders carried."""
        order = _int_in("derivative order", order, 0)
        if not order:
            return self.func
        if order > len(self.derivatives):
            raise InputError(
                f"derivative of order {order} not available "
                f"(bundle carries {len(self.derivatives)})"
            )
        return self.derivatives[order - 1]

    def __repr__(self):
        tag = self.name or "<anonymous>"
        return f"FunctionBundle({tag}, orders<= {len(self.derivatives)})"


class SampledFunction:
    """Piecewise-linear interpolant of tabulated samples on an interval.

    Used by the command-line layer to accept measured data in place of a
    registry function.  Scalar tables give a scalar handle, (k, m) tables a
    vector handle.
    """

    def __init__(self, points, values):
        pts = np.asarray(points, dtype=float)
        vals = np.asarray(values, dtype=float)
        if pts.ndim != 1 or pts.size < 2:
            raise InputError("sampled function needs at least two sample points")
        if not np.isfinite(pts).all():
            raise InputError("sample points must be finite")
        if np.any(np.diff(pts) <= 0):
            raise InputError("sample points must be strictly increasing")
        if vals.ndim not in (1, 2):
            raise InputError("value table must be 1-D (scalar) or 2-D (vector)")
        if vals.shape[0] != pts.size:
            raise InputError(
                f"value table has {vals.shape[0]} rows for {pts.size} points"
            )
        self.points = pts
        self.values = vals

    @property
    def domain(self):
        return float(self.points[0]), float(self.points[-1])

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        lo, hi = self.domain
        if np.any(x < lo) or np.any(x > hi):
            raise InputError(f"evaluation outside sampled domain [{lo}, {hi}]")
        if self.values.ndim == 1:
            return np.interp(x, self.points, self.values)
        cols = [np.interp(x, self.points, self.values[:, i])
                for i in range(self.values.shape[1])]
        return np.stack(cols, axis=-1)
