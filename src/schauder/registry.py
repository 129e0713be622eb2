"""Named test functions with exact derivative handles.

Each entry is a FunctionBundle (vectorized, numpy in / numpy out) tagged
with the domains it makes sense on.  The registry feeds the CLI (``--fn``)
and the verification corpora; every basis family can draw at least eight
suitable functions from it.
"""

import math

import numpy as np

from .errors import InputError
from .functions import FunctionBundle
from .spectral_bases import hermite_function

__all__ = ["get", "names", "describe", "corpus", "vector_stack"]


_REGISTRY = {}


def _bundle(name, f, d1=None, d2=None, domains=(), doc=""):
    """Register the FunctionBundle of f and its derivatives under ``name``."""
    derivs = tuple(h for h in (d1, d2) if h is not None)
    b = FunctionBundle(f, derivs, name=name)
    b.domains = frozenset(domains)
    b.doc = doc
    _REGISTRY[name] = b
    return b


def _hermite_entry(n):
    def h(x, n=n):
        return hermite_function(n, np.asarray(x, dtype=float))

    def h1(x, n=n):
        # h_n' = sqrt(n/2) h_{n-1} - sqrt((n+1)/2) h_{n+1}
        x = np.asarray(x, dtype=float)
        lower = math.sqrt(n / 2.0) * hermite_function(n - 1, x) if n else 0.0
        return lower - math.sqrt((n + 1) / 2.0) * hermite_function(n + 1, x)

    def h2(x, n=n):
        # second derivative from (x^2 - 2n - 1) h_n
        x = np.asarray(x, dtype=float)
        return (x * x - 2.0 * n - 1.0) * hermite_function(n, x)

    return _bundle(f"h{n}", h, h1, h2, domains=("line",),
                   doc=f"normalized Hermite function of degree {n}")


def _zeros(x):
    return np.zeros(np.shape(np.asarray(x))[0])


_bundle("zero", _zeros, _zeros, _zeros, domains=("interval", "line", "periodic"),
        doc="the zero function")
_bundle("one", lambda x: np.ones(np.shape(np.asarray(x))[0]), _zeros, _zeros,
        domains=("interval", "periodic"), doc="the constant 1")
_bundle("x", lambda x: np.asarray(x, dtype=float),
        lambda x: np.ones(np.shape(np.asarray(x))[0]), _zeros,
        domains=("interval",), doc="identity x")
_bundle("x2", lambda x: np.asarray(x, dtype=float) ** 2,
        lambda x: 2.0 * np.asarray(x, dtype=float),
        lambda x: np.full(np.shape(np.asarray(x))[0], 2.0),
        domains=("interval",), doc="x squared")
_bundle("cubic", lambda x: np.asarray(x, dtype=float) ** 3
        - np.asarray(x, dtype=float),
        lambda x: 3.0 * np.asarray(x, dtype=float) ** 2 - 1.0,
        lambda x: 6.0 * np.asarray(x, dtype=float),
        domains=("interval",), doc="x^3 - x")
_bundle("sin-pi", lambda x: np.sin(np.pi * np.asarray(x, dtype=float)),
        lambda x: np.pi * np.cos(np.pi * np.asarray(x, dtype=float)),
        lambda x: -np.pi ** 2 * np.sin(np.pi * np.asarray(x, dtype=float)),
        domains=("interval",), doc="sin(pi x)")
_bundle("sin", np.sin, np.cos, lambda x: -np.sin(np.asarray(x)),
        domains=("interval", "periodic"), doc="sin x")
_bundle("cos", np.cos, lambda x: -np.sin(np.asarray(x)),
        lambda x: -np.cos(np.asarray(x)),
        domains=("interval", "periodic"), doc="cos x")
_bundle("sin2", lambda x: np.sin(2.0 * np.asarray(x, dtype=float)),
        lambda x: 2.0 * np.cos(2.0 * np.asarray(x, dtype=float)),
        lambda x: -4.0 * np.sin(2.0 * np.asarray(x, dtype=float)),
        domains=("periodic",), doc="sin 2x")
_bundle("cos2", lambda x: np.cos(2.0 * np.asarray(x, dtype=float)),
        lambda x: -2.0 * np.sin(2.0 * np.asarray(x, dtype=float)),
        lambda x: -4.0 * np.cos(2.0 * np.asarray(x, dtype=float)),
        domains=("periodic",), doc="cos 2x")
_bundle("trig3",
        lambda x: np.cos(np.asarray(x, dtype=float))
        + 0.5 * np.sin(2.0 * np.asarray(x, dtype=float))
        - 0.25 * np.cos(3.0 * np.asarray(x, dtype=float)),
        domains=("periodic",),
        doc="cos x + sin(2x)/2 - cos(3x)/4")
_bundle("esin", lambda x: np.exp(np.sin(np.asarray(x, dtype=float))),
        lambda x: np.cos(np.asarray(x, dtype=float))
        * np.exp(np.sin(np.asarray(x, dtype=float))),
        lambda x: (np.cos(np.asarray(x, dtype=float)) ** 2
                   - np.sin(np.asarray(x, dtype=float)))
        * np.exp(np.sin(np.asarray(x, dtype=float))),
        domains=("periodic",), doc="e^{sin x}")
_bundle("invcos", lambda x: 1.0 / (2.0 + np.cos(np.asarray(x, dtype=float))),
        domains=("periodic",), doc="1 / (2 + cos x)")


def _runge(x):
    x = np.asarray(x, dtype=float)
    return 1.0 / (1.0 + 25.0 * x * x)


def _runge1(x):
    x = np.asarray(x, dtype=float)
    return -50.0 * x * _runge(x) ** 2


def _runge2(x):
    x = np.asarray(x, dtype=float)
    r = _runge(x)
    return -50.0 * r ** 2 + 5000.0 * x * x * r ** 3


_bundle("runge", _runge, _runge1, _runge2,
        domains=("interval",), doc="1 / (1 + 25 x^2)")


def _gauss(x):
    x = np.asarray(x, dtype=float)
    return np.exp(-0.5 * x * x)


_bundle("gauss", _gauss,
        lambda x: -np.asarray(x, dtype=float) * _gauss(x),
        lambda x: (np.asarray(x, dtype=float) ** 2 - 1.0) * _gauss(x),
        domains=("interval", "line"), doc="e^{-x^2/2}")
_bundle("xgauss", lambda x: np.asarray(x, dtype=float) * _gauss(x),
        lambda x: (1.0 - np.asarray(x, dtype=float) ** 2) * _gauss(x),
        lambda x: (np.asarray(x, dtype=float) ** 3
                   - 3.0 * np.asarray(x, dtype=float)) * _gauss(x),
        domains=("line",), doc="x e^{-x^2/2}")

for _n in range(6):
    _hermite_entry(_n)

_bundle("exp-z", lambda z: np.exp(np.asarray(z, dtype=complex)),
        domains=("disc",), doc="e^z (entire)")
_bundle("geo-z", lambda z: 1.0 / (1.0 - np.asarray(z, dtype=complex)),
        domains=("disc-unit",), doc="1 / (1 - z), radius 1")
_bundle("sin-z", lambda z: np.sin(np.asarray(z, dtype=complex)),
        domains=("disc",), doc="sin z (entire)")
_bundle("cos-z", lambda z: np.cos(np.asarray(z, dtype=complex)),
        domains=("disc",), doc="cos z (entire)")
_bundle("poly-z", lambda z: np.asarray(z, dtype=complex) ** 3
        + 2.0 * np.asarray(z, dtype=complex) + 1.0,
        domains=("disc",), doc="z^3 + 2z + 1")
_bundle("zexp-z", lambda z: np.asarray(z, dtype=complex)
        * np.exp(np.asarray(z, dtype=complex)),
        domains=("disc",), doc="z e^z (entire)")
_bundle("gauss-z", lambda z: np.exp(-0.5 * np.asarray(z, dtype=complex) ** 2),
        domains=("disc",), doc="e^{-z^2/2} (entire)")
_bundle("inv2-z", lambda z: 1.0 / (2.0 - np.asarray(z, dtype=complex)),
        domains=("disc",), doc="1 / (2 - z), radius 2")


def get(name):
    """Look up a registry function by name."""
    if name not in _REGISTRY:
        raise InputError(
            f"unknown function {name!r}; known: {', '.join(sorted(_REGISTRY))}"
        )
    return _REGISTRY[name]


def names():
    return sorted(_REGISTRY)


def describe():
    """name -> one-line description, for the CLI listing."""
    return {n: _REGISTRY[n].doc for n in sorted(_REGISTRY)}


_INTERVAL_CORPUS = ["one", "x", "x2", "cubic", "sin-pi", "cos", "runge", "gauss"]
_CORPUS = {
    "haar": _INTERVAL_CORPUS, "hat": _INTERVAL_CORPUS, "ck": _INTERVAL_CORPUS,
    "hermite": ["gauss", "xgauss", "h0", "h1", "h2", "h3", "h4", "h5"],
    "fourier": ["one", "sin", "cos", "sin2", "cos2", "trig3", "esin", "invcos"],
    "taylor": ["exp-z", "sin-z", "cos-z", "poly-z", "zexp-z", "gauss-z",
               "inv2-z", "one-z"],
}

_bundle("one-z", lambda z: np.ones(np.shape(np.asarray(z))[0],
                                   dtype=complex),
        domains=("disc",), doc="the constant 1 on the disc")


def corpus(basis_name):
    """The named verification corpus (>= 8 functions) for a basis family."""
    if basis_name not in _CORPUS:
        raise InputError(f"no corpus for basis {basis_name!r}")
    return [(n, get(n)) for n in _CORPUS[basis_name]]


class vector_stack:
    """Stack scalar bundles into one vector-valued handle (with derivatives)."""

    def __init__(self, bundles):
        self.bundles = list(bundles)
        if not self.bundles:
            raise InputError("need at least one component")

    def __call__(self, pts):
        return np.stack([np.asarray(b(pts)) for b in self.bundles], axis=-1)

    def derivative(self, order=1):
        if order == 0:
            return self
        handles = [b.derivative(order) for b in self.bundles]
        return lambda pts: np.stack([np.asarray(h(pts)) for h in handles], axis=-1)
