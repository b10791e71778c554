"""Ground states of H = Phi(-Delta) + V on the periodic grid.

Potential problems use imaginary time.  The semigroup e^(-tau H) is
applied in Strang split form; the kinetic factor is the Fourier multiplier
e^(-tau Phi(|xi|^2)), the potential factor acts pointwise.  Renormalizing
after every step drives the iterate to the ground state (the semigroup is
positivity improving, so any nonnegative seed overlaps it).  The
eigenvalue is extracted variationally from the Rayleigh quotient A(u, u),
which is the min-max characterization evaluated at the current iterate and
is second-order accurate in the eigenfunction error.

Dirichlet eigenvalues of balls need no time step.  Phi(-Delta) restricted
to the grid points inside the ball is a dense symmetric matrix whose
entries are the circulant's first column irfftn(Phi(|xi|^2)) at the
wrapped index differences (Toeplitz in 1D, block Toeplitz in 2D and 3D);
one dense eigh gives its lowest eigenpair.

Work per solve: one SpectralOperator is built, so the multiplier
Phi(|xi|^2) is evaluated once per solve, not once per iteration.  Each
splitting iteration does exactly three transforms: the forward and inverse
transform of the kinetic step, and one forward transform of the normalized
iterate for the Rayleigh quotient.
"""

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np
from scipy import linalg

from .spectral_core import CostGuardError, Field, SpectralOperator

_MIN_ITERS_BEFORE_STOP = 5
# The dense Dirichlet matrix holds 8 N^2 bytes for N points in the ball:
# 128 MB at this cap.
MAX_BALL_POINTS = 4096
# A Dirichlet eigenpair is converged when its residual is at most this
# multiple of max Phi(|xi|^2), which bounds ||Phi(-Delta)|| on the grid.
_DENSE_RESIDUAL_FACTOR = 1e-10


@dataclass(frozen=True)
class SolverConfig:
    tau: float = 0.05
    tol: float = 1e-11
    max_iters: int = 20_000
    seed: int = 12345
    min_iters: int = 0

    def __post_init__(self):
        if not self.tau > 0:
            raise ValueError("imaginary time step tau must be > 0")
        if not self.tol > 0:
            raise ValueError("stagnation tolerance tol must be > 0")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.min_iters < 0:
            raise ValueError("min_iters must be >= 0")


@dataclass
class EigenResult:
    lam: float
    phi: Field
    residual: float
    iters: int
    history: list
    converged: bool
    method: str
    meta: dict = dataclass_field(default_factory=dict)


def initial_field(grid, symbol, cfg):
    """Deterministic positive random seed field with one smoothing pass."""
    op = SpectralOperator(symbol, grid)
    return _seed_field(op, cfg.seed, np.exp(-cfg.tau * op.multiplier))


def _seed_field(op, seed, kinetic_factor):
    # The filter keeps the zero mode, so the smoothed seed has a positive mean.
    rng = np.random.default_rng(seed)
    values = op.filter(rng.uniform(0.5, 1.5, size=op.grid.shape), kinetic_factor)
    return Field(grid=op.grid, values=_unit(values, op.cell_volume))


def _unit(values, cell_volume):
    """values scaled to unit L^2 norm, or None if the norm is 0 or not finite."""
    n = math.sqrt(cell_volume * float(np.sum(values ** 2)))
    if n == 0.0 or not math.isfinite(n):
        return None
    return values / n


def ground_state(symbol, potential, cfg):
    """Ground state of Phi(-Delta) + V by normalized imaginary-time Strang
    splitting.

    potential: a PotentialField; it also fixes the grid, so the free
    operator takes an explicit zero potential.
    """
    if potential is None:
        raise ValueError("ground_state needs a potential to fix the grid; "
                         "pass an explicit zero potential for the free operator")
    grid = potential.grid
    V = potential.values
    if not np.all(np.isfinite(V)):
        raise ValueError("potential must be finite (bounded below)")

    op = SpectralOperator(symbol, grid)
    kinetic_factor = np.exp(-cfg.tau * op.multiplier)
    with np.errstate(over="ignore", under="ignore"):
        half_step = np.exp(-0.5 * cfg.tau * V)

    u = _seed_field(op, cfg.seed, kinetic_factor).values
    cell_volume = grid.cell_volume
    history = []
    lam_prev = np.inf
    converged = False
    iters = 0
    for iters in range(1, cfg.max_iters + 1):
        vals = op.filter(u * half_step, kinetic_factor)
        vals *= half_step
        u = _unit(vals, cell_volume)
        if u is None:
            if not np.all(np.isfinite(vals)):
                raise RuntimeError(f"NaN/Inf in iterate at iteration {iters}; "
                                   f"tau={cfg.tau} may be too large for this V")
            raise RuntimeError("iterate collapsed to zero or diverged")
        lam = op.kinetic_energy(u) + cell_volume * float(np.sum(V * u * u))
        history.append(lam)
        if iters > max(_MIN_ITERS_BEFORE_STOP, cfg.min_iters) \
                and abs(lam - lam_prev) < cfg.tol:
            converged = True
            break
        lam_prev = lam

    phi = Field(grid=grid, values=u)
    residual = op.residual(phi, history[-1], potential)
    return EigenResult(lam=history[-1], phi=phi, residual=residual, iters=iters,
                       history=history, converged=converged, method="splitting",
                       meta={"potential": getattr(potential, "meta", {})})


def fourier_residual(symbol, potential, result):
    """L^2 norm of Phi(|xi|^2) phi_hat - lam phi_hat - F[V phi] (Plancherel),
    inside the ball for a Dirichlet result."""
    grid = result.phi.grid
    radius = result.meta.get("ball_radius")
    mask = None if radius is None else grid.radius() <= radius
    return SpectralOperator(symbol, grid).residual(result.phi, result.lam,
                                                   potential, mask)


def dirichlet_ground_state(symbol, radius, grid):
    """Principal Dirichlet eigenvalue/eigenfunction of Phi(-Delta) on B_radius,
    from one dense eigh of the operator restricted to the ball's points.

    phi is exactly 0 outside the ball, positive in sum and of unit L^2
    norm.  converged means the Fourier-route residual, which does not use
    the restricted matrix, is at most 1e-10 max Phi(|xi|^2).
    """
    if not 0.0 < radius < grid.L / 2.0:
        raise ValueError(f"ball radius {radius} does not fit in the box")
    inside = grid.radius() <= radius
    points = int(np.count_nonzero(inside))
    if points > MAX_BALL_POINTS:
        raise CostGuardError(f"the ball holds {points} grid points; the dense "
                             f"Dirichlet solve allows {MAX_BALL_POINTS}")

    op = SpectralOperator(symbol, grid)
    column = np.fft.irfftn(op.multiplier, s=grid.shape, axes=op.axes)
    # Flat index of the wrapped multi-index difference, one axis at a time.
    flat = np.zeros((points, points), dtype=np.intp)
    for idx in np.nonzero(inside):
        flat *= grid.n
        flat += np.subtract.outer(idx, idx) % grid.n
    matrix = column.ravel()[flat]
    del flat
    lams, vecs = linalg.eigh(matrix, subset_by_index=[0, 0], overwrite_a=True)

    lam, vec = float(lams[0]), vecs[:, 0]
    values = np.zeros(grid.shape)
    values[inside] = vec if vec.sum() > 0 else -vec
    phi = Field(grid=grid, values=_unit(values, grid.cell_volume))
    residual = op.residual(phi, lam, mask=inside)
    converged = residual <= _DENSE_RESIDUAL_FACTOR * float(np.max(op.multiplier))
    return EigenResult(lam=lam, phi=phi, residual=residual, iters=0,
                       history=[lam], converged=converged,
                       method="dense-eigh", meta={"ball_radius": radius})


def existence_criterion(symbol, a, v, grid):
    """(lambda_a, satisfied): Dirichlet eigenvalue of B_a and the test
    lambda_a - v < 0 which guarantees a bound state of the depth-v well."""
    lam_a = dirichlet_ground_state(symbol, a, grid).lam
    return lam_a, bool(lam_a - v < 0.0)
