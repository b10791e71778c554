"""Ground states of H = Phi(-Delta) + V on the periodic grid, and of
Phi(-Delta) on a ball with Dirichlet exterior condition.

Both take one single-vector LOBPCG solve (Knyazev, SIAM J. Sci. Comput. 23,
2001) whose matvec is one rfftn/irfftn pair plus a pointwise factor.  The
basis [x, w, p] is kept orthonormal (Hetmaniuk & Lehoucq, J. Comput. Phys.
218, 2006), so each Rayleigh-Ritz step is a plain eigh of the 3 x 3 matrix
S^T H S with no Gram matrix to factor.

Potential problems solve H on the full grid, with c = 1 + max(0, -min V),
t0 the diagonal of Phi(-Delta) and chi = 1[V_+ <= t0].  V_+ is the part of
V above max(0, min V), so a constant added to V >= 0, which moves no
eigenvector, moves no point out of chi.  The preconditioner has two blocks
whose diagonals are about that of (H + c)^(-1):
  - inner, chi D (c + Phi(-Delta))^(-1) D chi, another pair, with the Jacobi
    scaling D = sqrt((c + t0) / (c + t0 + V_+));
  - outer, the exact diagonal (1 - chi) / (c + t0 + V_+), where V_+ > t0
    makes H nearly diagonal and the Fourier inverse would smear over points.
For wells and constants V_+ = 0, so chi = D = 1 and the preconditioner is
(c + Phi(-Delta))^(-1).
The start vector is the seed's uniform field times e^(-(V - min V)).

A ball B solves chi Phi(-Delta) chi, chi = 1_B, with the preconditioner
chi (1 + Phi(-Delta))^(-1) chi and the start chi, so every iterate is
exactly 0 outside B; memory is a fixed number of full-grid arrays.

lambda is the Rayleigh quotient of the returned phi, and converged means the
Fourier-route residual ||(H - lambda) phi||_2 (restricted to B for a ball)
is at most max(tol, 100 eps ||H||), with ||H|| <= max Phi + max |V|:
absolute, so lambda = 0 is covered.  LOBPCG is asked for a tenth of that,
as the recomputed residual can exceed its own.  Each solve evaluates the
multiplier once and records the threshold and the stop reason in meta.
"""

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .spectral_core import Field, SpectralOperator

# An eigenpair is converged at residual max(tol, this * ||H||).
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


def _lobpcg(apply_H, precondition, x, tol, max_iters):
    """Lowest eigenpair of H by LOBPCG with one vector, from start x.

    Each step orthogonalizes w = M (H x - lam x) against x and p twice and
    normalizes it; H w is its one matvec.  With c the lowest eigenvector of
    S^T H S, S = [x, w, p] (no p at first), x becomes S c and p becomes
    S q / |q|, q = e - c (c . e) with e = (0, c1, c2), orthogonal to S c.
    Returns (x, lam history, preconditioner applications, stop): "residual"
    at ||H x - lam x||_2 <= tol, "budget" after max_iters applications, or
    "breakdown" when w has a zero or non-finite norm.
    """
    x /= math.sqrt(np.vdot(x, x))
    Hx = apply_H(x)
    lam = float(np.vdot(x, Hx))
    history, iters, p, Hp = [lam], 0, None, None
    while True:
        r = Hx - lam * x
        if math.sqrt(np.vdot(r, r)) <= tol:
            return x, history, iters, "residual"
        if iters == max_iters:
            return x, history, iters, "budget"
        w = precondition(r)
        iters += 1
        basis = (x,) if p is None else (x, p)
        for b in basis + basis:
            w -= np.vdot(b, w) * b
        norm = math.sqrt(np.vdot(w, w))
        if not 0.0 < norm < math.inf:
            return x, history, iters, "breakdown"
        w /= norm
        Hw = apply_H(w)
        S, HS = (x, w) + basis[1:], (Hx, Hw, Hp)[:len(basis) + 1]
        gram = np.array([[np.vdot(a, Hb) if j >= i else 0.0
                          for j, Hb in enumerate(HS)] for i, a in enumerate(S)])
        vals, vecs = np.linalg.eigh(gram, UPLO="U")
        lam, c = float(vals[0]), vecs[:, 0]
        history.append(lam)
        # With t = c1 w + c2 p and s = |t|^2: S c = c0 x + t, and S q / |q|
        # is (c0 t - s x) / sqrt(s) up to sign; the same for H x and H p.
        s = float(c[1:] @ c[1:])
        new_p = []
        for v, t, q in ((x, w, p), (Hx, Hw, Hp)):
            t *= c[1]
            if q is not None:
                t += c[2] * q
            if s > 0.0:
                q = np.multiply(t, c[0] / math.sqrt(s), out=q)
                q -= math.sqrt(s) * v
            v *= c[0]
            v += t
            new_p.append(q if s > 0.0 else None)
        p, Hp = new_p


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
    # None where V_+ = 0 (D = 1), saving full-grid arrays and a copy per
    # call.  Points with V_+ > t0 leave the Fourier block for the diagonal.
    jacobi = outer = None
    floor = max(v_min, 0.0)
    if np.max(V) > floor:
        v_plus = np.maximum(V - floor, 0.0)
        diagonal = c + t0 + v_plus
        inner = v_plus <= t0
        jacobi = np.where(inner, np.sqrt((c + t0) / diagonal), 0.0)
        outer = np.where(inner, 0.0, 1.0 / diagonal)
    inverse = 1.0 / (c + op.multiplier)

    def apply_H(u):
        out = op.filter(u, op.multiplier)
        out += V * u
        return out

    def precondition(r):
        if jacobi is None:
            return op.filter(r, inverse)
        out = jacobi * op.filter(jacobi * r, inverse)
        out += outer * r
        return out

    threshold = max(cfg.tol, _ROUNDOFF_FACTOR * (float(np.max(op.multiplier))
                                                 + float(np.max(np.abs(V)))))
    with np.errstate(under="ignore"):
        start = (np.random.default_rng(cfg.seed).uniform(0.5, 1.5, size=shape)
                 * np.exp(v_min - V))
    x, history, iters, stop = _lobpcg(apply_H, precondition, start,
                                      0.1 * threshold, cfg.max_iters)

    phi = Field(grid=grid, values=_unit(x, grid.cell_volume))
    lam = op.form(phi, phi, potential).total
    residual = op.residual(phi, lam, potential)
    return EigenResult(lam=lam, phi=phi, residual=residual, iters=iters,
                       history=history + [lam],
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


def dirichlet_ground_state(symbol, radius, grid, cfg):
    """Principal Dirichlet eigenvalue/eigenfunction of Phi(-Delta) on B_radius,
    from one LOBPCG solve of chi Phi(-Delta) chi, chi = 1_B, started at chi.

    phi is exactly 0 outside the ball, positive in sum and of unit L^2 norm.
    """
    if not 0.0 < radius < grid.L / 2.0:
        raise ValueError(f"ball radius {radius} does not fit in the box")
    chi = (grid.radius() <= radius).astype(float)
    op = SpectralOperator(symbol, grid)
    inverse = 1.0 / (1.0 + op.multiplier)

    def apply_H(u):
        out = op.filter(u, op.multiplier)
        out *= chi
        return out

    def precondition(r):
        out = op.filter(r, inverse)
        out *= chi
        return out

    threshold = max(cfg.tol, _ROUNDOFF_FACTOR * float(np.max(op.multiplier)))
    x, history, iters, stop = _lobpcg(apply_H, precondition, chi.copy(),
                                      0.1 * threshold, cfg.max_iters)

    phi = Field(grid=grid, values=_unit(x, grid.cell_volume))
    lam = op.form(phi, phi).total
    residual = op.residual(phi, lam, mask=chi)
    return EigenResult(lam=lam, phi=phi, residual=residual, iters=iters,
                       history=history + [lam],
                       converged=residual <= threshold, method="lobpcg",
                       meta={"ball_radius": radius, "stop": stop,
                             "threshold": threshold})
