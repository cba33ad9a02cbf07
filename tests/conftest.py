import importlib
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from ellreg.grid import GridSpec, _multiplier_chunks

mollify = importlib.import_module("ellreg.mollify")  # the package's `mollify` is the function

settings.register_profile(
    "ci", max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("ci")


@pytest.fixture
def grid1d():
    return GridSpec(1, 64, math.pi)


@pytest.fixture
def grid2d():
    return GridSpec(2, 32, math.pi)


@pytest.fixture
def rng():
    return np.random.Generator(np.random.PCG64(12345))


@pytest.fixture
def transform_calls(monkeypatch):
    """Grows by one per np.fft.fft or np.fft.ifft call: one transform of a 1-D grid field.

    The mollifier symbol memo starts empty, so that a count does not depend on test order.
    """
    mollify._symbol.cache_clear()
    calls = []
    for name in ("fft", "ifft"):

        def counted(*args, _transform=getattr(np.fft, name), **kwargs):
            calls.append(_transform.__name__)
            return _transform(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls


def apply_multipliers(f, build, params, factor=None):
    """The sample stacks of _multiplier_chunks under the one factor `factor`, chunk by chunk."""
    for stacks in _multiplier_chunks(f, build, params, [factor]):
        yield from stacks
