"""Ground states of H = Phi(-Delta) + V on the periodic grid, and of
Phi(-Delta) on a ball with Dirichlet exterior condition.

Both take one single-vector LOBPCG solve (Knyazev, SIAM J. Sci. Comput. 23,
2001) whose matvec is one rfftn/irfftn pair plus a pointwise factor.  The
basis [x, w, p] is kept orthonormal (Hetmaniuk & Lehoucq, J. Comput. Phys.
218, 2006), so each Rayleigh-Ritz step is a plain eigh of the 3 x 3 matrix
S^T H S with no Gram matrix to factor.  The basis and its images are the
rows of one preallocated block, and the matvec and the preconditioner
write into those rows through out= transforms and one scratch array, so
an iteration allocates no grid-sized array.

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


def _lobpcg(apply_H, precondition, start, tol, max_iters):
    """Lowest eigenpair of H by LOBPCG with one vector, from start.

    apply_H(u, out) and precondition(r, out) write H u and M r into out.
    S = [x, w, p] and HS = [H x, H w, H p] are the two halves of one
    preallocated block whose row i pairs S[i] with HS[i], and the residual
    has a reused buffer, so a step allocates no grid-sized array.  Each step
    orthogonalizes w = M (H x - lam x) against x and p by two Gram-Schmidt
    passes and normalizes it; H w is its one matvec.  With c the lowest
    eigenvector of S^T H S (no p at first), x becomes S c and p becomes
    S q / |q|, q = e - c (c . e) with e = (0, c1, c2), orthogonal to S c.
    Returns (a fresh x, lam history, preconditioner applications, stop):
    "residual" at ||H x - lam x||_2 <= tol, "budget" after max_iters
    applications, or "breakdown" when w has a zero or non-finite norm.
    """
    block = np.empty((3, 2, start.size))
    S, HS = block[:, 0], block[:, 1]
    # Row 0 is the residual and the projections' scratch; both rows are the
    # update's scratch for a vector and its image.
    scratch = np.empty((2, start.size))
    # The operator takes grid-shaped views of the flat rows.
    x, w, Hx, Hw, r = (row.reshape(start.shape)
                       for row in (S[0], S[1], HS[0], HS[1], scratch[0]))
    np.divide(start, math.sqrt(np.vdot(start, start)), out=x)
    apply_H(x, Hx)
    lam = float(np.vdot(x, Hx))
    history, iters, m = [lam], 0, 2
    while True:
        np.subtract(Hx, np.multiply(x, lam, out=r), out=r)
        if math.sqrt(np.vdot(r, r)) <= tol:
            return x.copy(), history, iters, "residual"
        if iters == max_iters:
            return x.copy(), history, iters, "budget"
        precondition(r, w)
        iters += 1
        basis = S[:m:2]  # x, and p after the first step
        for _ in range(2):
            S[1] -= np.matmul(basis @ S[1], basis, out=scratch[0])
        norm = math.sqrt(np.vdot(w, w))
        if not 0.0 < norm < math.inf:
            return x.copy(), history, iters, "breakdown"
        w /= norm
        apply_H(w, Hw)
        vals, vecs = np.linalg.eigh(S[:m] @ HS[:m].T, UPLO="U")
        lam, c = float(vals[0]), vecs[:, 0]
        history.append(lam)
        # With t = c1 w + c2 p and s = |t|^2: S c = c0 x + t, and S q / |q|
        # is (c0 t - s x) / sqrt(s) up to sign; each line updates a vector
        # and its image, so H x and H p follow x and p.
        s = float(c[1:] @ c[1:])
        v, t, q = block
        t *= c[1]
        if m == 3:
            t += np.multiply(q, c[2], out=scratch)
        if s > 0.0:
            np.multiply(t, c[0] / math.sqrt(s), out=q)
            q -= np.multiply(v, math.sqrt(s), out=scratch)
        v *= c[0]
        v += t
        m = 3 if s > 0.0 else 2


def _solve(op, apply_H, precondition, start, v_max, cfg, meta, potential=None,
           mask=None):
    """One LOBPCG solve from start and its check: threshold
    max(tol, 100 eps (max Phi + v_max)), LOBPCG at a tenth of it, and the
    unit phi's Rayleigh quotient and Fourier-route residual (inside mask)."""
    threshold = max(cfg.tol, _ROUNDOFF_FACTOR * (float(np.max(op.multiplier))
                                                 + v_max))
    x, history, iters, stop = _lobpcg(apply_H, precondition, start,
                                      0.1 * threshold, cfg.max_iters)

    phi = Field(grid=op.grid, values=_unit(x, op.cell_volume))
    lam = op.form(phi, phi, potential).total
    residual = op.residual(phi, lam, potential, mask)
    return EigenResult(lam=lam, phi=phi, residual=residual, iters=iters,
                       history=history + [lam],
                       converged=residual <= threshold, method="lobpcg",
                       meta={**meta, "stop": stop, "threshold": threshold})


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
    # V u in apply_H, the Jacobi and outer products in precondition; neither
    # keeps it across calls.
    scratch = np.empty(shape)

    def apply_H(u, out):
        op.filter(u, op.multiplier, out)
        out += np.multiply(V, u, out=scratch)

    def precondition(r, out):
        if jacobi is None:
            op.filter(r, inverse, out)
        else:
            op.filter(np.multiply(jacobi, r, out=scratch), inverse, out)
            out *= jacobi
            out += np.multiply(outer, r, out=scratch)

    with np.errstate(under="ignore"):
        start = (np.random.default_rng(cfg.seed).uniform(0.5, 1.5, size=shape)
                 * np.exp(v_min - V))
    return _solve(op, apply_H, precondition, start, float(np.max(np.abs(V))),
                  cfg, {"potential": getattr(potential, "meta", {})}, potential)


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

    def apply_H(u, out):
        op.filter(u, op.multiplier, out)
        out *= chi

    def precondition(r, out):
        op.filter(r, inverse, out)
        out *= chi

    return _solve(op, apply_H, precondition, chi.copy(), 0.0, cfg,
                  {"ball_radius": radius}, mask=chi)
