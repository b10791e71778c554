"""Potential constructors: spherical wells, mollified wells, anharmonic
oscillators, and the moving-plane reflection of a field.

The mollified well is V_eps = -v eta_eps with eta_eps = rho_{eps/2} * 1_{B_{a+eps/2}},
where rho is the standard smooth bump

    rho(x) = C_rho exp(-1/(1-|x|^2)) on |x| <= 1,  0 outside,

normalized to unit mass.  eta_eps equals 1 on B_a, vanishes outside
B_{a+eps}, and is radially non-increasing, so V_eps is a C_c^infinity
approximation of the sharp well V = -v 1_{B_a} from the outside.
"""

from dataclasses import dataclass

import numpy as np

from .spectral_core import Field

# |x|^(2k) is clamped here.  An uncapped V reaches 3.4e38 at k = 16 on a
# box of side 32, far beyond what an eigensolver resolves next to
# ||Phi(-Delta)||.  At this cap the ground-state eigenvalues of k = 8 and 16
# sit 1.2e-8 and 5.3e-8 (relative) below those of a 1e8 cap.
ANHARMONIC_CAP = 1e6


class BoxTooSmallError(ValueError):
    """The requested potential or ball does not fit inside the periodic box."""


def check_fits(extent, grid, what="a + eps"):
    """BoxTooSmallError unless the radius extent (a + eps, a ball's) lies in
    (0, L/2)."""
    if not 0.0 < extent < grid.L / 2.0:
        raise BoxTooSmallError(f"{what} = {extent} does not fit in "
                               f"(0, L/2) with L={grid.L}")


def check_resolvable(eps, grid):
    """ValueError unless the mollification width eps is at least 2h, the
    narrowest transition the grid resolves."""
    if eps < 2.0 * grid.h:
        raise ValueError(f"eps = {eps} is below the resolvable floor "
                         f"2h = {2.0 * grid.h}")


@dataclass(frozen=True)
class WellSpec:
    """Spherical well of radius a, depth v, mollification width eps.

    eps = 0 denotes the sharp well V = -v 1_{B_a}.
    """

    a: float
    v: float
    eps: float = 0.0

    def __post_init__(self):
        if not self.a > 0:
            raise ValueError("well radius a must be > 0")
        if not 0 < self.v < np.inf:
            raise ValueError(f"well depth v must be finite and > 0, "
                             f"got {self.v}")
        if self.eps < 0:
            raise ValueError("mollification width eps must be >= 0")


@dataclass
class PotentialField(Field):
    """A potential sampled on a grid plus its provenance record."""

    meta: dict


def _bump(r):
    out = np.zeros_like(r)
    inside = r < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - r[inside] ** 2))
    return out


def sharp_well(spec, grid):
    """V = -v 1_{B_a} sampled at grid points (|x| <= a decides membership)."""
    if spec.eps != 0.0:
        raise ValueError("sharp_well requires eps = 0; use mollified_well")
    check_fits(spec.a, grid, "well radius a")
    values = np.where(grid.radius() <= spec.a, -spec.v, 0.0)
    meta = {"kind": "sharp_well", "a": spec.a, "v": spec.v, "eps": 0.0}
    return PotentialField(grid=grid, values=values, meta=meta)


def mollified_well(spec, grid):
    """V_eps = -v (rho_{eps/2} * 1_{B_{a+eps/2}}), evaluated by FFT convolution.

    eps must be at least 2h (check_resolvable): a narrower mollifier samples
    to the sharp well of radius a + eps/2.  The sampled mollifier, positive at
    the origin (a grid point), is renormalized to unit discrete mass, which
    makes the plateau value on B_a exactly -v and keeps eta in [0, 1].
    """
    if not spec.eps > 0.0:
        raise ValueError("mollified_well requires eps > 0; use sharp_well")
    check_resolvable(spec.eps, grid)
    check_fits(spec.a + spec.eps, grid)
    r = grid.radius()
    rho = _bump(2.0 / spec.eps * r)
    rho /= rho.sum()
    indicator = (r <= spec.a + spec.eps / 2.0).astype(float)
    eta = np.fft.irfftn(np.fft.rfftn(np.fft.ifftshift(rho))
                        * np.fft.rfftn(indicator), s=grid.shape,
                        axes=tuple(range(grid.d)))
    eta = np.clip(eta, 0.0, 1.0)
    # In exact arithmetic the convolution is exactly 1 on B_a (whole bump
    # support inside the indicator) and exactly 0 outside B_{a+eps}; snap
    # those regions to remove FFT roundoff.
    eta[r <= spec.a] = 1.0
    eta[r > spec.a + spec.eps] = 0.0
    meta = {"kind": "mollified_well", "a": spec.a, "v": spec.v, "eps": spec.eps}
    return PotentialField(grid=grid, values=-spec.v * eta, meta=meta)


def anharmonic_exponent(k):
    """k as an int, or ValueError unless it is an integer >= 1 (2.0 is)."""
    if not (float(k).is_integer() and k >= 1):
        raise ValueError(f"anharmonic exponent k must be an integer >= 1, "
                         f"got {k!r}")
    return int(k)


def anharmonic(k, grid):
    """Anharmonic oscillator V(x) = min(|x|^(2k), ANHARMONIC_CAP)."""
    k = anharmonic_exponent(k)
    cap = ANHARMONIC_CAP
    with np.errstate(over="ignore"):
        values = grid.radius() ** (2 * k)
    clamped = bool(np.any(values > cap))
    values = np.minimum(values, cap)
    meta = {"kind": "anharmonic", "k": k, "clamped": clamped, "cap": cap}
    return PotentialField(grid=grid, values=values, meta=meta)


def reflected_values(field, mu):
    """Values of a Field at x^mu = (2 mu - x_1, x'), nearest-grid-point
    version: exact whenever 2 mu is a multiple of the grid spacing."""
    n = field.grid.n
    shift = int(round(2.0 * mu / field.grid.h))
    return field.values[(shift + n - np.arange(n)) % n, ...]