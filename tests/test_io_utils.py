import math

import numpy as np

from nonlocal_spectra.bernstein_kernels import KernelTable
from nonlocal_spectra.io_utils import (fmt, radial_profile, write_csv,
                                       write_kernel_table,
                                       write_radial_profile)
from nonlocal_spectra.spectral_core import Field, Grid


def cell_by_cell(header, rows):
    """The CSV text of rows with every cell formatted by fmt on its own."""
    return ("\n".join([",".join(header)]
                      + [",".join(fmt(x) for x in row) for row in rows]) + "\n").encode()


def test_write_csv_matches_cell_by_cell_formatting(tmp_path):
    # Float64 arrays go through .tolist(); every column must read as if each
    # cell had been formatted by fmt on its own.
    values = np.array([0.1, -0.0, np.nan, np.inf, -np.inf, 1e-300, 2.0 / 3.0])
    rows = [(np.float64(v), float(v), v, i, f"s{i}", np.float32(v), True)
            for i, v in enumerate(values)]
    rows.append((1.5, 2, "x", -0.0, math.inf, 3, np.float64(-1e22)))
    header = ["a", "b", "c", "d", "e", "f", "g"]
    path = write_csv(tmp_path / "mixed.csv", header, list(zip(*rows)))
    assert path.read_bytes() == cell_by_cell(header, rows)
    lines = path.read_text().splitlines()
    assert lines[2] == "-0.0,-0.0,-0.0,1,s1,-0.0,True"
    assert lines[-1] == "1.5,2,x,-0.0,inf,3,-1e+22"
    assert write_csv(tmp_path / "empty.csv", header, []).read_text() == "a,b,c,d,e,f,g\n"


def test_array_columns_match_cell_by_cell_formatting(tmp_path):
    # float64 (the .tolist() path), float32 and int arrays (cell by cell).
    rng = np.random.default_rng(0)
    f64 = np.r_[rng.standard_normal(50) * 10.0 ** rng.integers(-300, 300, 50),
                0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324]
    f32 = (rng.standard_normal(f64.size) * 1e30).astype(np.float32)
    columns = [f64, f32, np.arange(f64.size)]
    path = write_csv(tmp_path / "arrays.csv", ["x", "y", "k"], columns)
    assert path.read_bytes() == cell_by_cell(["x", "y", "k"], zip(*columns))


def test_kernel_table_csv_matches_cell_by_cell_formatting(tmp_path):
    radii = np.geomspace(0.05, 20.0, 400)
    values = np.exp(-radii) / radii
    table = KernelTable(kernel_id="j", dimension=2, radii=radii, values=values,
                        error_estimates=1e-14 * values, params={"m": 1.0})
    csv_path, _ = write_kernel_table(table, tmp_path / "table")
    assert csv_path.read_bytes() == cell_by_cell(
        ["r", "value", "error_estimate"], zip(radii, values, 1e-14 * values))


def test_radial_profile_csv_matches_cell_by_cell_formatting(tmp_path):
    grid = Grid(d=2, n=32, L=8.0)
    field = Field(grid=grid, values=np.exp(-grid.radius() ** 2))
    path = write_radial_profile(field, tmp_path / "profile.csv")
    assert path.read_bytes() == cell_by_cell(["r", "phi(r)"], zip(*radial_profile(field)))
