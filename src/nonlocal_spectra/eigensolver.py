"""Imaginary-time ground states of H = Phi(-Delta) + V on the periodic grid.

The semigroup e^(-tau H) is applied in split form; the kinetic factor is
the Fourier multiplier e^(-tau Phi(|xi|^2)), the potential factor acts
pointwise.  Renormalizing after every step drives the iterate to the
ground state (the semigroup is positivity improving, so any nonnegative
seed overlaps it).  The eigenvalue is extracted variationally from the
Rayleigh quotient A(u, u), which is the min-max characterization evaluated
at the current iterate and is second-order accurate in the eigenfunction
error.

Dirichlet eigenvalues of balls use the same iteration with a hard support
projection after every sub-step, which keeps the iterate exactly inside
the discrete analogue of the constrained subspace.

Work per solve: one SpectralOperator is built, so the multiplier
Phi(|xi|^2) is evaluated once per solve, not once per iteration.  Each
iteration does exactly three transforms: the forward and inverse transform
of the kinetic step, and one forward transform of the normalized iterate
for the Rayleigh quotient.  The ball projection is folded into the
pointwise factors on either side of the kinetic step.
"""

import math
from dataclasses import dataclass, field as dataclass_field, replace

import numpy as np

from .spectral_core import Field, SpectralOperator, _require_same_grid

_MIN_ITERS_BEFORE_STOP = 5


@dataclass(frozen=True)
class SolverConfig:
    tau: float = 0.05
    tol: float = 1e-11
    max_iters: int = 20_000
    splitting: str = "strang"
    seed: int = 12345
    projection_radius: float = None
    min_iters: int = 0

    def __post_init__(self):
        if not self.tau > 0:
            raise ValueError("imaginary time step tau must be > 0")
        if not self.tol > 0:
            raise ValueError("stagnation tolerance tol must be > 0")
        if self.splitting not in ("strang", "lie"):
            raise ValueError(f"unknown splitting {self.splitting!r}")
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
    config: SolverConfig
    meta: dict = dataclass_field(default_factory=dict)


def initial_field(grid, symbol, cfg):
    """Deterministic positive random seed field with one smoothing pass."""
    op = SpectralOperator(symbol, grid)
    return _seed_field(op, cfg.seed, np.exp(-cfg.tau * op.multiplier))


def _seed_field(op, seed, kinetic_factor):
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.5, 1.5, size=op.grid.shape)
    return _normalized(Field(grid=op.grid, values=op.filter(values, kinetic_factor)))


def _unit(values, cell_volume):
    """values scaled to unit L^2 norm, or None if the norm is 0 or not finite."""
    n = math.sqrt(cell_volume * float(np.sum(values ** 2)))
    if n == 0.0 or not math.isfinite(n):
        return None
    return values / n


def _normalized(u):
    values = _unit(u.values, u.grid.cell_volume)
    if values is None:
        raise RuntimeError("iterate collapsed to zero or diverged")
    return Field(grid=u.grid, values=values)


def _projection_mask(grid, radius):
    return (grid.radius() <= radius).astype(float)


def ground_state(symbol, potential, cfg, u0=None):
    """Ground state of Phi(-Delta) + V by normalized imaginary-time splitting.

    potential: a PotentialField; it also fixes the grid, so the free
    operator takes an explicit zero potential.  When cfg.projection_radius
    is set, every sub-step is followed by the hard restriction to the
    ball, which computes the Dirichlet problem instead.
    """
    if potential is None:
        raise ValueError("ground_state needs a potential to fix the grid; "
                         "pass an explicit zero potential for the free operator")
    grid = potential.grid
    V = potential.values
    if not np.all(V > -np.inf) or not np.all(np.isfinite(V)):
        raise ValueError("potential must be finite (bounded below)")

    mask = None
    if cfg.projection_radius is not None:
        if not cfg.projection_radius < grid.L / 2.0:
            raise ValueError("projection radius must fit inside the box")
        mask = _projection_mask(grid, cfg.projection_radius)

    op = SpectralOperator(symbol, grid)
    kinetic_factor = np.exp(-cfg.tau * op.multiplier)
    with np.errstate(over="ignore", under="ignore"):
        if cfg.splitting == "strang":
            pre = post = np.exp(-0.5 * cfg.tau * V)
        else:
            pre, post = np.exp(-cfg.tau * V), None
    if mask is not None:
        # mask is 0/1, so folding it into the factors changes no bit of
        # the masked iterate.
        pre = pre * mask
        post = mask if post is None else post * mask

    if u0 is not None:
        _require_same_grid(u0.grid, grid)
        start = _normalized(u0)
    else:
        start = _seed_field(op, cfg.seed, kinetic_factor)
    if mask is not None:
        start = _normalized(Field(grid=grid, values=start.values * mask))

    u = start.values
    cell_volume = grid.cell_volume
    history = []
    lam_prev = np.inf
    converged = False
    iters = 0
    for iters in range(1, cfg.max_iters + 1):
        vals = op.filter(u * pre, kinetic_factor)
        if post is not None:
            vals *= post
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
    residual = op.residual(phi, history[-1], potential, mask)
    meta = {"potential": getattr(potential, "meta", {}),
            "projection_radius": cfg.projection_radius}
    return EigenResult(lam=history[-1], phi=phi, residual=residual, iters=iters,
                       history=history, converged=converged, config=cfg,
                       meta=meta)


def fourier_residual(symbol, potential, result):
    """L^2 norm of Phi(|xi|^2) phi_hat - lam phi_hat - F[V phi] (Plancherel)."""
    grid = result.phi.grid
    mask = None
    if result.config.projection_radius is not None:
        mask = _projection_mask(grid, result.config.projection_radius)
    return SpectralOperator(symbol, grid).residual(result.phi, result.lam,
                                                   potential, mask)


def dirichlet_ground_state(symbol, radius, grid, cfg, u0=None):
    """Principal Dirichlet eigenvalue/eigenfunction of Phi(-Delta) on B_radius."""
    if not radius < grid.L / 2.0:
        raise ValueError(f"ball radius {radius} does not fit in the box")
    zero_pot = _zero_potential(grid)
    return ground_state(symbol, zero_pot, replace(cfg, projection_radius=radius),
                        u0=u0)


def _zero_potential(grid):
    from .potentials import PotentialField
    return PotentialField(field=Field(grid=grid, values=np.zeros(grid.shape)),
                          meta={"kind": "zero"})


def existence_criterion(symbol, a, v, grid, cfg):
    """(lambda_a, satisfied): Dirichlet eigenvalue of B_a and the test
    lambda_a - v < 0 which guarantees a bound state of the depth-v well."""
    res = dirichlet_ground_state(symbol, a, grid, cfg)
    lam_a = res.lam
    return lam_a, bool(lam_a - v < 0.0)
