import numpy as np
import pytest

from schauder import CkBasis, FunctionBundle, InputError, SampledFunction


def test_bundle_derivative_access():
    f = FunctionBundle(np.sin, derivatives=(np.cos,), name="sin")
    assert f.derivative(0)(0.0) == np.sin(0.0)
    assert f.derivative(1)(0.0) == 1.0
    with pytest.raises(InputError):
        f.derivative(2)


class _Counting:
    """A handle that counts the points it is evaluated on."""

    def __init__(self, func):
        self.func = func
        self.points = 0

    def __call__(self, x):
        self.points += np.size(x)
        return self.func(np.asarray(x, dtype=float))


def test_ck_takes_derivatives_from_the_handle():
    basis = CkBasis(k=2)
    # a bare callable serves index 0, the value at a
    f = _Counting(lambda x: 2.0 * x + 1.0)
    assert basis.coefficients(f, [0])[0] == 1.0
    assert f.points == 1
    # past index 0 it has no derivative to give: refused before f runs
    f = _Counting(lambda x: 2.0 * x + 1.0)
    with pytest.raises(InputError, match="derivative handles"):
        basis.coefficients(f, [0, 1])
    assert f.points == 0
    # a bundle one derivative short of k is refused before any handle runs
    f, df = _Counting(np.sin), _Counting(np.cos)
    with pytest.raises(InputError, match="order 2 not available"):
        basis.coefficients(FunctionBundle(f, derivatives=(df,)), [0, 1, 2, 3])
    assert f.points == df.points == 0


def test_sampled_function_interpolates_and_guards_domain():
    xs = np.linspace(0.0, 1.0, 11)
    f = SampledFunction(xs, xs ** 2)
    # linear interpolation is exact at the samples, chordal between them
    assert f(0.5) == 0.25
    assert abs(f(0.55) - (0.25 + 0.36) / 2.0) <= 1e-15
    with pytest.raises(InputError):
        f(1.5)
