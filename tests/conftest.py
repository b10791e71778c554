import numpy as np
import pytest

from nonlocal_spectra.bernstein_kernels import BernsteinSymbol
from nonlocal_spectra.spectral_core import Grid

from helpers import field_from_function


@pytest.fixture(scope="session")
def s01():
    return BernsteinSymbol.relativistic(0.0, 1.0)


@pytest.fixture(scope="session")
def s11():
    return BernsteinSymbol.relativistic(1.0, 1.0)


@pytest.fixture(scope="session")
def grid128():
    return Grid(d=1, n=128, L=40.0)


@pytest.fixture(scope="session")
def gaussian128(grid128):
    return field_from_function(grid128, lambda x: np.exp(-x * x))


def l2_distance(u, v):
    return float(np.sqrt(u.grid.cell_volume * np.sum((u.values - v.values) ** 2)))
