"""Potential constructors: spherical wells, mollified wells, anharmonic
oscillators, and moving-plane reflections.

The mollified well is V_eps = -v eta_eps with eta_eps = rho_{eps/2} * 1_{B_{a+eps/2}},
where rho is the standard smooth bump

    rho(x) = C_rho exp(-1/(1-|x|^2)) on |x| <= 1,  0 outside,

normalized to unit mass.  eta_eps equals 1 on B_a, vanishes outside
B_{a+eps}, and is radially non-increasing, so V_eps is a C_c^infinity
approximation of the sharp well V = -v 1_{B_a} from the outside.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import integrate

from .bernstein_kernels import sphere_surface
from .spectral_core import Field, Grid

# |x|^(2k) is clamped here.  An uncapped V reaches 3.4e38 at k = 16 on a
# box of side 32, far beyond what an eigensolver resolves next to
# ||Phi(-Delta)||.  At this cap the ground-state eigenvalues of k = 8 and 16
# sit 1.2e-8 and 5.3e-8 (relative) below those of a 1e8 cap.
ANHARMONIC_CAP = 1e6


class BoxTooSmallError(ValueError):
    """The requested potential does not fit inside the periodic box."""


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
        if not self.v > 0:
            raise ValueError("well depth v must be > 0")
        if self.eps < 0:
            raise ValueError("mollification width eps must be >= 0")


@dataclass
class PotentialField:
    """A potential sampled on a grid plus its provenance record."""

    field: Field
    meta: dict

    @property
    def grid(self):
        return self.field.grid

    @property
    def values(self):
        return self.field.values


def _bump(r):
    out = np.zeros_like(r)
    inside = r < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - r[inside] ** 2))
    return out


@lru_cache(maxsize=8)
def mollifier_normalization(d):
    """C_rho with int_{B_1} rho = 1, computed once per dimension."""
    val, _ = integrate.quad(
        lambda r: r ** (d - 1) * math.exp(-1.0 / (1.0 - r * r)),
        0.0, 1.0, epsabs=1e-14, epsrel=1e-12, limit=200)
    return 1.0 / (sphere_surface(d) * val)


def sharp_well(spec, grid):
    """V = -v 1_{B_a} sampled at grid points (|x| <= a decides membership)."""
    if spec.eps != 0.0:
        raise ValueError("sharp_well requires eps = 0; use mollified_well")
    if not spec.a < grid.L / 2.0:
        raise BoxTooSmallError(f"well radius a={spec.a} does not fit in "
                               f"[-L/2, L/2) with L={grid.L}")
    values = np.where(grid.radius() <= spec.a, -spec.v, 0.0)
    meta = {"kind": "sharp_well", "a": spec.a, "v": spec.v, "eps": 0.0}
    return PotentialField(field=Field(grid=grid, values=values), meta=meta)


def mollified_well(spec, grid):
    """V_eps = -v (rho_{eps/2} * 1_{B_{a+eps/2}}), evaluated by FFT convolution.

    The sampled mollifier is renormalized to unit discrete mass, which makes
    the plateau value on B_a exactly -v and keeps eta in [0, 1] regardless of
    how coarsely the bump is resolved.
    """
    if not spec.eps > 0.0:
        raise ValueError("mollified_well requires eps > 0; use sharp_well")
    if not spec.a + spec.eps < grid.L / 2.0:
        raise BoxTooSmallError(f"a + eps = {spec.a + spec.eps} does not fit in "
                               f"[-L/2, L/2) with L={grid.L}")
    r = grid.radius()
    scale = 2.0 / spec.eps
    rho = _bump(scale * r)
    total = rho.sum()
    if total == 0.0:
        raise BoxTooSmallError("mollifier width eps/2 is below the grid "
                               "resolution; refine the grid or enlarge eps")
    rho /= total
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
    return PotentialField(field=Field(grid=grid, values=-spec.v * eta), meta=meta)


def eta_direct(spec, x, d=1):
    """Direct-quadrature evaluation of eta_eps at a point (d = 1 spot check)."""
    if d != 1:
        raise ValueError("direct mollifier check implemented for d = 1")
    C = mollifier_normalization(1)
    half = spec.eps / 2.0
    b = spec.a + half
    lo = max(-b, x - half)
    hi = min(b, x + half)
    if hi <= lo:
        return 0.0
    scale = 2.0 / spec.eps
    val, _ = integrate.quad(
        lambda y: C * scale * _bump(np.array([scale * abs(x - y)]))[0],
        lo, hi, epsabs=1e-13, epsrel=1e-11, limit=200)
    return val


def anharmonic(k, grid):
    """Anharmonic oscillator V(x) = min(|x|^(2k), ANHARMONIC_CAP)."""
    if int(k) != k or k < 1:
        raise ValueError("anharmonic exponent k must be an integer >= 1")
    cap = ANHARMONIC_CAP
    with np.errstate(over="ignore"):
        values = grid.radius() ** (2 * int(k))
    clamped = bool(np.any(values > cap))
    values = np.minimum(values, cap)
    meta = {"kind": "anharmonic", "k": int(k), "clamped": clamped, "cap": cap}
    return PotentialField(field=Field(grid=grid, values=values), meta=meta)


def reflect_potential(potential, mu):
    """V^mu(x) = V(x^mu), x^mu = (2 mu - x_1, x'), nearest-grid-point version.

    Exact whenever 2 mu is a multiple of the grid spacing.
    """
    if mu > 0:
        raise ValueError("moving-plane offset mu must be <= 0")
    grid = potential.grid
    meta = potential.meta
    if "a" in meta:
        extent = meta.get("a", 0.0) + meta.get("eps", 0.0)
        if not abs(2.0 * mu) + extent < grid.L / 2.0:
            raise BoxTooSmallError("reflected support leaves the box: "
                                   f"|2 mu| + a + eps >= L/2 (mu={mu})")
    n = grid.n
    shift = int(round(2.0 * mu / grid.h))
    idx = (shift + n - np.arange(n)) % n
    values = potential.values[idx, ...]
    new_meta = dict(meta)
    new_meta.update({"kind": f"reflected({meta.get('kind', '?')})", "mu": mu})
    return PotentialField(field=Field(grid=grid, values=values), meta=new_meta)
