import math

import numpy as np

from nonlocal_spectra.io_utils import fmt, write_csv


def test_write_csv_matches_cell_by_cell_formatting(tmp_path):
    # Float columns go through .tolist(); every column must read as if each
    # cell had been formatted by fmt on its own.
    values = np.array([0.1, -0.0, np.nan, np.inf, -np.inf, 1e-300, 2.0 / 3.0])
    rows = [(np.float64(v), float(v), v, i, f"s{i}", np.float32(v), True)
            for i, v in enumerate(values)]
    rows.append((1.5, 2, "x", -0.0, math.inf, 3, np.float64(-1e22)))
    header = ["a", "b", "c", "d", "e", "f", "g"]
    expected = "\n".join([",".join(header)]
                         + [",".join(fmt(x) for x in row) for row in rows]) + "\n"
    path = write_csv(tmp_path / "mixed.csv", header, iter(rows))
    assert path.read_bytes() == expected.encode()
    lines = path.read_text().splitlines()
    assert lines[2] == "-0.0,-0.0,-0.0,1,s1,-0.0,True"
    assert lines[-1] == "1.5,2,x,-0.0,inf,3,-1e+22"
    assert write_csv(tmp_path / "empty.csv", header, []).read_text() == "a,b,c,d,e,f,g\n"
