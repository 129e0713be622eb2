"""Spans recorded from outside the program, at schauder's module boundaries.

``Tracer.install`` replaces the public functions and methods listed in
``FUNCTIONS`` and ``METHODS``
with wrappers that record a span (name, start, end, parent, job, work count)
and call through. Module functions are replaced in every ``schauder``
module that imported them, so internal calls pass through the wrappers too.
Objects are never replaced: the registry's FunctionBundles keep their
identity and only their ``func``/``derivatives`` handles are wrapped, once
per install, so caches keyed by ``id(f)`` hit and miss as in an untraced run.
``uninstall`` puts every original back.

Spans stay in memory; ``layer_totals`` reduces them to per-name call
counts, work counts, self time (duration minus the children's durations)
and inclusive time.
"""

import contextlib
import sys
import time

import numpy as np


def _npoints(x):
    return int(np.shape(x)[0]) if np.ndim(x) else 1


# (span name, module, attribute, work count from the call's positional args)
FUNCTIONS = (
    ("quadrature.weighted_sum", "quadrature", "weighted_sum", lambda a: len(a[1])),
    ("quadrature.rule_build", "quadrature", "gauss_legendre_rule", None),
    ("quadrature.rule_build", "quadrature", "box_rule", None),
    ("quadrature.rule_build", "quadrature", "tensor_rule", None),
    ("quadrature.rule_build", "quadrature", "gauss_hermite_rule", None),
    ("quadrature.rule_build", "quadrature", "periodic_rule", None),
    ("basis_core.semigroup", "basis_core", "semigroup_max_discrepancy", None),
    ("basis_core.biorthogonality", "basis_core", "biorthogonality_matrix", None),
    ("basis_core.vector_scalar", "basis_core", "vector_scalar_consistency", None),
    ("basis_core.materialize", "basis_core", "materialize", None),
    ("interval_bases.hat_coefficients", "interval_bases", "hat_coefficients", None),
    ("interval_bases.lp_error", "interval_bases", "lp_error", lambda a: len(a[3]) - 1),
    ("spectral_bases.taylor_coefficients", "spectral_bases", "taylor_coefficients", None),
    ("spectral_bases.hermite_tail_bound", "spectral_bases", "hermite_tail_bound_check", None),
    ("cli.build_basis", "cli", "build_basis", None),
    ("cli.emit", "cli", "_emit", None),
)

# (span name, module, class, method, work count)
METHODS = (
    ("basis_core.coefficient.haar", "interval_bases", "HaarBasis", "coefficient", None),
    ("basis_core.coefficient.hat-dyadic", "interval_bases", "HatBasis", "coefficient", None),
    ("basis_core.coefficient.ck-dyadic", "interval_bases", "CkBasis", "coefficient", None),
    ("basis_core.coefficient.hermite", "spectral_bases", "HermiteBasis", "coefficient", None),
    ("basis_core.coefficient.fourier", "spectral_bases", "FourierBasis", "coefficient", None),
    ("basis_core.coefficient.taylor", "spectral_bases", "TaylorBasis", "coefficient", None),
    ("basis_core.synthesis", "basis_core", "FiniteRankElement", "__call__",
     lambda a: len(a[0].terms) * _npoints(a[1])),
    ("interval_bases.piecewise", "interval_bases", "PiecewisePolynomial", "__call__",
     lambda a: int(np.size(a[1]))),
    ("value_space.seminorm_table", "value_space", "ValueSpace", "seminorm_table",
     lambda a: _npoints(a[1])),
)

HANDLE = "functions.handle"
EMIT = "cli.emit"
JOB = "bench.job"


class Tracer:
    """Span recorder. Each span is [parent, name, start, end, work, job]."""

    def __init__(self):
        self.spans = []
        self.job = -1
        self._stack = []
        self._undo = []

    def wrap(self, name, fn, work=None, meter=None):
        """A wrapper that records one span per call of ``fn``.

        ``work(args)`` counts work from the arguments; ``meter()`` is read
        before and after the call and the difference is the work.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [stack[-1] if stack else -1, name, 0.0, 0.0, 0, self.job]
            stack.append(len(spans))
            spans.append(rec)
            if work is not None:
                rec[4] = work(args)
            m0 = meter() if meter is not None else 0
            rec[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
                if meter is not None:
                    rec[4] = meter() - m0

        traced.__wrapped__ = fn
        return traced

    def handle(self, f):
        """Wrap a user function handle (points evaluated are its work)."""
        return self.wrap(HANDLE, f, work=lambda a: _npoints(a[0]))

    def install(self, schauder):
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "schauder" or n.startswith("schauder."))]
        for name, mod, attr, work in FUNCTIONS:
            orig = getattr(getattr(schauder, mod), attr)
            meter = (lambda: sys.stdout.tell()) if name == EMIT else None
            new = self.wrap(name, orig, work=work, meter=meter)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, new)
                        self._undo.append((m, key, orig))
        for name, mod, cls_name, meth, work in METHODS:
            cls = getattr(getattr(schauder, mod), cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, self.wrap(name, orig, work=work))
            self._undo.append((cls, meth, orig))
        registry = schauder.registry
        for fn in registry.names():
            bundle = registry.get(fn)
            self._undo.append((bundle, "func", bundle.func))
            self._undo.append((bundle, "derivatives", bundle.derivatives))
            bundle.func = self.handle(bundle.func)
            bundle.derivatives = tuple(self.handle(h) for h in bundle.derivatives)

    def uninstall(self):
        while self._undo:
            obj, attr, orig = self._undo.pop()
            setattr(obj, attr, orig)

    @contextlib.contextmanager
    def job_span(self, job_index):
        """The root span of one job; spans inside it carry its index."""
        rec = [-1, JOB, 0.0, 0.0, 0, job_index]
        self.job = job_index
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[2] = time.perf_counter()
        try:
            yield
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()
            self.job = -1


def layer_totals(spans):
    """name -> [calls, work, self_s, total_s] over a list of spans.

    ``total_s`` sums the durations of the outermost spans of each name, so
    it includes the children's time and never counts an interval twice.
    """
    child = [0.0] * len(spans)
    for parent, _, t0, t1, _, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out = {}
    for i, (parent, name, t0, t1, work, _) in enumerate(spans):
        row = out.setdefault(name, [0, 0, 0.0, 0.0])
        row[0] += 1
        row[1] += work
        row[2] += (t1 - t0) - child[i]
        while parent >= 0 and spans[parent][1] != name:
            parent = spans[parent][0]
        if parent < 0:
            row[3] += t1 - t0
    return out


def counts(table):
    """The deterministic columns (calls, work) of a ``layer_totals`` table."""
    return {name: row[:2] for name, row in table.items()}
