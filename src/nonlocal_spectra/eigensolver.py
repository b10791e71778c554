"""Ground states of H = Phi(-Delta) + V on the periodic grid.

Potential problems take one LOBPCG solve (Knyazev 2001) of H as a
LinearOperator on the full grid: a matvec is one rfftn/irfftn pair plus a
pointwise V.  The preconditioner D (c + Phi(-Delta))^(-1) D, another pair,
has c = 1 + max(0, -min V) and the Jacobi scaling
D = sqrt((c + t0) / (c + t0 + V_+)), t0 the diagonal of Phi(-Delta), so
its diagonal is about that of (H + c)^(-1); for wells D = 1.  The start
vector is the seed's uniform field times e^(-(V - min V)).  lambda is the
Rayleigh quotient of the returned phi, and converged means the Fourier-route
residual ||(H - lambda) phi||_2 is at most max(tol, 100 eps ||H||), with
||H|| <= max Phi + max |V|: absolute, so lambda = 0 is covered.  LOBPCG is
asked for a tenth of that, as the recomputed residual can exceed its own.

Dirichlet eigenvalues of balls take one dense eigh of Phi(-Delta)
restricted to the ball's grid points: the circulant's first column
irfftn(Phi(|xi|^2)) at the wrapped index differences.

Both evaluate the multiplier once per solve and record the convergence
threshold and the stop reason in meta.
"""

import math
import warnings
from dataclasses import dataclass, field as dataclass_field

import numpy as np
from scipy import linalg
from scipy.sparse.linalg import LinearOperator, lobpcg

from .spectral_core import CostGuardError, Field, SpectralOperator

# The dense Dirichlet matrix holds 8 N^2 bytes for N points in the ball:
# 128 MB at this cap.
MAX_BALL_POINTS = 4096
# A Dirichlet eigenpair is converged when its residual is at most this
# multiple of max Phi(|xi|^2), which bounds ||Phi(-Delta)|| on the grid.
_DENSE_RESIDUAL_FACTOR = 1e-10
# An iterative eigenpair is converged at residual max(tol, this * ||H||).
_ROUNDOFF_FACTOR = 100.0 * float(np.finfo(float).eps)


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-11
    max_iters: int = 20_000
    seed: int = 12345

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("residual tolerance tol must be > 0")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


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


def _unit(values, cell_volume):
    """values scaled to unit L^2 norm and a positive sum."""
    norm = math.sqrt(cell_volume * float(np.sum(values ** 2)))
    return values / (norm if values.sum() > 0 else -norm)


def ground_state(symbol, potential, cfg):
    """Ground state of Phi(-Delta) + V by one preconditioned LOBPCG solve.

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
    shape, size = grid.shape, V.size
    v_min = float(np.min(V))
    c = 1.0 + max(0.0, -v_min)
    t0 = float(np.sum(op.weighted_multiplier)) / size
    # None for a well (D = 1), saving a full-grid array and a copy per call.
    jacobi = (np.sqrt((c + t0) / (c + t0 + np.maximum(V, 0.0)))
              if np.max(V) > 0.0 else None)
    inverse = 1.0 / (c + op.multiplier)
    applications = 0

    def apply_H(x):
        u = x.reshape(shape)
        out = op.filter(u, op.multiplier)
        out += V * u
        return out.reshape(x.shape)

    def precondition(x):
        nonlocal applications
        applications += 1
        u = x.reshape(shape)
        if jacobi is None:
            return op.filter(u, inverse).reshape(x.shape)
        return (jacobi * op.filter(jacobi * u, inverse)).reshape(x.shape)

    threshold = max(cfg.tol, _ROUNDOFF_FACTOR * (float(np.max(op.multiplier))
                                                 + float(np.max(np.abs(V)))))
    with np.errstate(under="ignore"):
        start = (np.random.default_rng(cfg.seed).uniform(0.5, 1.5, size=shape)
                 * np.exp(v_min - V))
    H = LinearOperator((size, size), apply_H, dtype=float)
    M = LinearOperator((size, size), precondition, dtype=float)
    with warnings.catch_warnings():
        # A miss of the tolerance is reported through converged and stop.
        warnings.simplefilter("ignore", UserWarning)
        _, vecs, lam_hist, res_hist = lobpcg(
            H, start.reshape(size, 1), M=M, tol=0.1 * threshold,
            maxiter=cfg.max_iters - 1, largest=False, retLambdaHistory=True,
            retResidualNormsHistory=True)

    phi = Field(grid=grid, values=_unit(vecs[:, 0].reshape(shape),
                                        grid.cell_volume))
    lam = op.form(phi, phi, potential).total
    residual = op.residual(phi, lam, potential)
    stop = ("residual" if min(res_hist) <= 0.1 * threshold else
            "budget" if applications == cfg.max_iters else "breakdown")
    return EigenResult(lam=lam, phi=phi, residual=residual, iters=applications,
                       history=[float(h) for h in lam_hist],
                       converged=residual <= threshold, method="lobpcg",
                       meta={"potential": getattr(potential, "meta", {}),
                             "stop": stop, "threshold": threshold})


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

    lam = float(lams[0])
    values = np.zeros(grid.shape)
    values[inside] = vecs[:, 0]
    phi = Field(grid=grid, values=_unit(values, grid.cell_volume))
    residual = op.residual(phi, lam, mask=inside)
    threshold = _DENSE_RESIDUAL_FACTOR * float(np.max(op.multiplier))
    return EigenResult(lam=lam, phi=phi, residual=residual, iters=0,
                       history=[lam], converged=residual <= threshold,
                       method="dense-eigh",
                       meta={"ball_radius": radius, "stop": "direct",
                             "threshold": threshold})


def existence_criterion(symbol, a, v, grid):
    """(lambda_a, satisfied): Dirichlet eigenvalue of B_a and the test
    lambda_a - v < 0 which guarantees a bound state of the depth-v well."""
    lam_a = dirichlet_ground_state(symbol, a, grid).lam
    return lam_a, bool(lam_a - v < 0.0)
