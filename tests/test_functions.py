import numpy as np
import pytest

from schauder import CkBasis, FunctionBundle, InputError, SampledFunction, materialize
from schauder.registry import get as reg


def test_bundle_derivative_access():
    f = FunctionBundle(np.sin, derivatives=(np.cos,), name="sin")
    assert f.derivative(0)(0.0) == np.sin(0.0)
    assert f.derivative(1)(0.0) == 1.0
    with pytest.raises(InputError):
        f.derivative(2)


@pytest.mark.parametrize("bad", [-1, 1.5, "1", True, np.bool_(True), None, 1.0, np.float64(1.0)])
def test_derivative_orders_are_integers(bad):
    # -1 once gave a C^k element's own values, 1.5 and "1" a bare TypeError
    # when called, and True the first derivative
    elem = materialize(CkBasis(2), reg("cos"), 4)
    f, df = _Counting(np.sin), _Counting(np.cos)
    handles = (elem, elem.partial_sums([2, 4]), CkBasis(2).element(5), FunctionBundle(f, (df,)))
    for handle in handles:
        with pytest.raises(InputError, match="derivative order must be an integer"):
            handle.derivative(bad)
    assert f.points == df.points == 0
    # numpy integers are orders, and past what a bundle carries keeps its message
    x = np.linspace(0.0, 1.0, 9)
    for handle in handles:
        assert handle.derivative(np.int64(1))(x).tobytes() == handle.derivative(1)(x).tobytes()
    with pytest.raises(InputError, match="order 2 not available"):
        FunctionBundle(f, (df,)).derivative(np.int64(2))


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
