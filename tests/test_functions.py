import numpy as np
import pytest

from schauder import (
    FunctionBundle,
    InputError,
    SampledFunction,
    as_bundle,
)


def test_bundle_derivative_access():
    f = FunctionBundle(np.sin, derivatives=(np.cos,), name="sin")
    assert f.derivative(0)(0.0) == np.sin(0.0)
    assert f.derivative(1)(0.0) == 1.0
    with pytest.raises(InputError):
        f.derivative(2)


def test_as_bundle_passthrough_and_wrap():
    f = FunctionBundle(np.sin, derivatives=(np.cos,))
    assert as_bundle(f, 1) is f
    g = as_bundle(np.exp)
    assert g(1.5) == np.exp(1.5)
    with pytest.raises(InputError):
        as_bundle(lambda x: x, max_order=1)


def test_sampled_function_interpolates_and_guards_domain():
    xs = np.linspace(0.0, 1.0, 11)
    f = SampledFunction(xs, xs ** 2)
    # linear interpolation is exact at the samples, chordal between them
    assert f(0.5) == 0.25
    assert abs(f(0.55) - (0.25 + 0.36) / 2.0) <= 1e-15
    with pytest.raises(InputError):
        f(1.5)
