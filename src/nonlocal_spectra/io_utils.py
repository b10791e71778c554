"""File formats: CSV tables, flat binary fields, JSON sidecars, manifests.

CSV numeric cells use repr(), the shortest representation that round-trips
a 64-bit float, so identical runs produce byte-identical files.
"""

import hashlib
import json
from pathlib import Path

import numpy as np


def fmt(x):
    """Shortest round-trip representation of a float (or pass-through str/int)."""
    if isinstance(x, (np.floating, float)):
        return repr(float(x))
    return str(x)


def write_csv(path, header, columns):
    """Columns of equal length under a header.  A float64 array is formatted
    from its .tolist() values, without a numpy scalar per cell, any other
    column cell by cell by fmt; both give fmt's text."""
    path = Path(path)
    cells = [map(repr, column.tolist())
             if isinstance(column, np.ndarray) and column.dtype == np.float64
             else map(fmt, column) for column in columns]
    lines = [",".join(header), *map(",".join, zip(*cells, strict=True))]
    path.write_text("\n".join(lines) + "\n")
    return path


def write_json(path, payload):
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def config_hash(config):
    """Stable hash of a JSON-serializable configuration."""
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def write_manifest(path, config, seed, extra=None):
    import scipy

    from . import __version__
    payload = {
        "config": config,
        "config_sha256": config_hash(config),
        "seed": seed,
        "versions": {"nonlocal_spectra": __version__,
                     "numpy": np.__version__,
                     "scipy": scipy.__version__},
    }
    if extra:
        payload.update(extra)
    return write_json(path, payload)


# --- Field binary format: little-endian float64, row-major, JSON header ---

def write_field(path_base, field):
    """Write <base>.bin (raw values) and <base>.json (grid header)."""
    base = Path(path_base)
    values = np.ascontiguousarray(field.values, dtype="<f8")
    base.with_suffix(".bin").write_bytes(values.tobytes(order="C"))
    header = {"d": field.grid.d, "n": field.grid.n, "L": field.grid.L,
              "dtype": "<f8", "order": "C"}
    write_json(base.with_suffix(".json"), header)
    return base.with_suffix(".bin"), base.with_suffix(".json")


def write_kernel_table(table, path_base):
    """KernelTable -> CSV `r,value,error_estimate` + JSON sidecar."""
    base = Path(path_base)
    csv_path = write_csv(base.with_suffix(".csv"), ["r", "value", "error_estimate"],
                         [table.radii, table.values, table.error_estimates])
    sidecar = {"kernel_id": table.kernel_id, "d": table.dimension}
    sidecar.update({k: v for k, v in table.params.items()})
    json_path = write_json(base.with_suffix(".json"), sidecar)
    return csv_path, json_path


def radial_profile(field):
    """Shell-average a field: returns (radii, mean values) over |x| bins
    of width h."""
    grid = field.grid
    idx = np.floor(grid.radius().ravel() / grid.h + 0.5).astype(int)
    sums = np.bincount(idx, weights=field.values.ravel())
    counts = np.bincount(idx)
    radii = np.arange(len(sums)) * grid.h
    keep = counts > 0
    return radii[keep], sums[keep] / counts[keep]


def write_radial_profile(field, path):
    radii, values = radial_profile(field)
    return write_csv(path, ["r", "phi(r)"], [radii, values])
