"""Functions that only the tests call, built from the library's public
names (criteria 5 and 13 test the last two)."""

import itertools
import json
import math
from pathlib import Path

import numpy as np

from nonlocal_spectra.bernstein_kernels import (BernsteinSymbol, kernel_moment,
                                                massless_constant, sphere_surface)
from nonlocal_spectra.spectral_core import (Field, Grid, check_gagliardo_order,
                                            seminorm_direct)


def field_from_function(grid, fn):
    """Sample a callable of the space variables onto the grid."""
    return Field(grid=grid, values=np.asarray(fn(*grid.meshgrid()), dtype=float))


def read_field(path_base):
    """The Field that io_utils.write_field wrote to <base>.bin and <base>.json."""
    base = Path(path_base)
    header = json.loads(base.with_suffix(".json").read_text())
    grid = Grid(d=header["d"], n=header["n"], L=header["L"])
    values = np.frombuffer(base.with_suffix(".bin").read_bytes(), dtype="<f8")
    return Field(grid=grid, values=values.reshape(grid.shape).copy())


def gagliardo_seminorm(s, field):
    """[[u]]_s = sqrt(2 / c(d, 2s)) [u]_{Phi_{0,2s}}, by seminorm_direct."""
    check_gagliardo_order(s)
    return math.sqrt(2.0 / massless_constant(field.grid.d, 2.0 * s)) \
        * seminorm_direct(BernsteinSymbol.relativistic(0.0, 2.0 * s), field)


def second_moment_decay(symbol, d, r_list):
    """M(R) = R^-2 int_{B_R} |x|^2 j_Phi(|x|) dx for an increasing list of R,
    from cumulative kernel moments."""
    r_list = list(r_list)
    if len(r_list) < 2 or any(b <= a for a, b in zip(r_list, r_list[1:])):
        raise ValueError("r_list must be increasing with at least 2 entries")
    totals = itertools.accumulate(kernel_moment(symbol, d, 2, a, b)
                                  for a, b in zip([0.0] + r_list, r_list))
    return [sphere_surface(d) * t / b ** 2 for t, b in zip(totals, r_list)]
