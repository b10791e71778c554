"""Ground states of H = Phi(-Delta) + V on the periodic grid, and of
Phi(-Delta) on a ball with Dirichlet exterior condition.

Both take one single-vector LOBPCG solve (Knyazev, SIAM J. Sci. Comput. 23,
2001).  The basis [x, w, p] is kept orthonormal (Hetmaniuk & Lehoucq,
J. Comput. Phys. 218, 2006), so each Rayleigh-Ritz step is a plain eigh of
the 3 x 3 matrix S^T H S with no Gram matrix to factor.  The basis and its
images are a window of rows in one preallocated pool of five; the matvec
and the preconditioner write into its rows through out= transforms and one
scratch array, and one small-matrix product per step writes the next x and
p with their images, so an iteration allocates no vector-sized array.  LOBPCG
does not depend on the orthonormal basis it runs in, so each solve picks
the one where its step is cheapest:

  - potentials with V_+ = 0 (wells, constants and wells shifted down) run
    on the modes, x~ = sqrt(w_k / N) rfftn(x) viewed as reals, whose
    Euclidean norm is the grid 2-norm (SpectralOperator.to_modes).  H x~
    is Phi x~ plus the modes of V irfftn(x~), one rfftn/irfftn pair; the
    preconditioner (c + Phi)^(-1) is a product.  2 transforms per step.
  - other potentials run on the grid, where H u is one pair and the split
    preconditioner below another: 4 transforms per step.
  - a ball runs on the grid, which keeps its exact zeros outside B: 4
    transforms per step.

c = 1 + max(0, -min V), t0 is the diagonal of Phi(-Delta) and
chi = 1[V_+ <= t0].  V_+ is the part of V above max(0, min V), so a
constant added to V >= 0, which moves no eigenvector, moves no point out
of chi.  The preconditioner has two blocks whose diagonals are about that
of (H + c)^(-1):
  - inner, chi D (c + Phi(-Delta))^(-1) D chi, a pair, with the Jacobi
    scaling D = sqrt((c + t0) / (c + t0 + V_+));
  - outer, the exact diagonal (1 - chi) / (c + t0 + V_+), where V_+ > t0
    makes H nearly diagonal and the Fourier inverse would smear over points.
Where V_+ = 0, chi = D = 1 and it is (c + Phi(-Delta))^(-1), diagonal on
the modes.  The start vector is the seed's uniform field times
e^(-(V - min V)), transformed once on the modes; the result is turned back
into a grid field once.

A ball B solves chi Phi(-Delta) chi, chi = 1_B, with the preconditioner
chi (1 + Phi(-Delta))^(-1) chi and the start chi, so every iterate is
exactly 0 outside B; memory is a fixed number of full-grid arrays.

H is applied once to the returned unit phi (one filter and V phi): lambda is
h^d <phi, H phi>, and converged means that ||(H - lambda) phi||_2 is at
most max(tol, 100 eps ||H||), with ||H|| <= max Phi + max |V|: absolute,
so lambda = 0 is covered.  LOBPCG is asked for a tenth of that, as the
recomputed residual can exceed its own, and stops early on "floor" when
its recurrence residual stalls within the threshold.  Each solve
evaluates the multiplier once and records the threshold, the stop reason
and the loop's residual history in meta.
"""

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .potentials import check_fits
from .spectral_core import Field, SpectralOperator

# An eigenpair is converged at residual max(tol, this * ||H||).
_ROUNDOFF_FACTOR = 100.0 * float(np.finfo(float).eps)
# Steps without a new minimum residual after which a residual within 10
# times the ask counts as the recurrence's rounding floor.
_FLOOR_STEPS = 10


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-11
    max_iters: int = 20_000
    seed: int = 12345

    def __post_init__(self):
        if not 0.0 < self.tol < math.inf:
            raise ValueError(f"residual tolerance tol must be finite and > 0, "
                             f"got {self.tol}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


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


def _lobpcg(apply_H, precondition, start, tol, max_iters):
    """Lowest eigenpair of H by LOBPCG with one vector, from start.

    apply_H(u, out) and precondition(r, out) write H u and M r into out;
    start is read before the first apply_H, so it may be the operator's
    scratch.
    A preallocated pool holds five rows, each a vector and its image: w in
    row 2, x and p in rows 1 and 0 or in rows 3 and 4, so S = [p, x, w] or
    [w, x, p] (no p at first) is one window of rows.  The two free rows
    hold the residual and the Gram-Schmidt temporary, so a step allocates
    no vector-sized array.  Each step orthogonalizes w = M (H x - lam x)
    against x and p by two Gram-Schmidt passes and normalizes it; H w is
    its one matvec.  With c the lowest eigenvector of S^T H S and s its
    squared weight off x, x becomes S c and p S (c_x c - e_x) / sqrt(s),
    orthogonal to it: one product C @ window writes both, and their
    images, into the free rows.  Returns (a fresh x, lam history, residual
    history, preconditioner applications, stop): "residual" at
    ||H x - lam x||_2 <= tol; "floor" at a residual <= 10 tol that has set
    no new minimum for _FLOOR_STEPS steps, where the recurrence's rounding
    keeps it from reaching tol; "budget" after max_iters applications; or
    "breakdown" when w has a zero or non-finite norm.
    """
    pool = np.empty((5, 2, start.size))
    flat = pool.reshape(5, -1)
    # The operator takes views of the rows shaped like start.  For x in row
    # 1 or 3: x, H x, and the residual and the temporary in a free row.
    w, Hw = (row.reshape(start.shape) for row in pool[2])
    views = {i: [row.reshape(start.shape) for row in (*pool[i], pool[f, 0])]
             + [pool[f, 1]] for i, f in ((1, 3), (3, 0))}
    x, Hx, r, tmp = views[3]
    np.divide(start, math.sqrt(np.vdot(start, start)), out=x)
    apply_H(x, Hx)
    lam = float(np.vdot(x, Hx))
    history, residuals, iters, i, m = [lam], [], 0, 3, 2
    best, best_at = math.inf, 0
    while True:
        x, Hx, r, tmp = views[i]
        np.subtract(Hx, np.multiply(x, lam, out=r), out=r)
        norm_r = math.sqrt(np.vdot(r, r))
        residuals.append(norm_r)
        if norm_r <= tol:
            return x.copy(), history, residuals, iters, "residual"
        if norm_r < best:
            best, best_at = norm_r, iters
        elif norm_r <= 10.0 * tol and iters - best_at >= _FLOOR_STEPS:
            return x.copy(), history, residuals, iters, "floor"
        if iters == max_iters:
            return x.copy(), history, residuals, iters, "budget"
        precondition(r, w)
        iters += 1
        lo = 2 if i == 3 else 3 - m  # the window is rows lo to lo + m
        basis = pool[3:lo + m, 0] if i == 3 else pool[lo:2, 0]  # x and p
        for _ in range(2):
            pool[2, 0] -= np.matmul(basis @ pool[2, 0], basis, out=tmp)
        norm = math.sqrt(np.vdot(w, w))
        if not 0.0 < norm < math.inf:
            return x.copy(), history, residuals, iters, "breakdown"
        w /= norm
        apply_H(w, Hw)
        window = pool[lo:lo + m]
        vals, vecs = np.linalg.eigh(window[:, 0] @ window[:, 1].T, UPLO="U")
        lam, c = float(vals[0]), vecs[:, 0].tolist()
        history.append(lam)
        j, i = i - lo, 4 - i  # x's place in the window, and its next row
        s = sum(t * t for k, t in enumerate(c) if k != j)
        # C's rows are c and, for p, c c_x / sqrt(s) with -sqrt(s) at x, in
        # the free rows' order.  At s = 0, p is 0 and left out of the basis.
        q = [t * (c[j] / math.sqrt(s)) if s > 0.0 else 0.0 for t in c]
        q[j] = -math.sqrt(s)
        np.matmul(np.array((c, q) if i == 3 else (q, c)), flat[lo:lo + m],
                  out=flat[3:5] if i == 3 else flat[0:2])
        m = 3 if s > 0.0 else 2


def _solve(op, apply_H, precondition, start, v_max, cfg, meta, potential=None,
           mask=None, to_grid=None):
    """One LOBPCG solve from start and its check: threshold
    max(tol, 100 eps (max Phi + v_max)), LOBPCG at a tenth of it, and from
    one image H phi of phi, x at unit norm and positive sum, its Rayleigh
    quotient and residual; a ball's H is mask Phi(-Delta) mask.  to_grid
    maps LOBPCG's x to its grid values when the loop runs on another basis."""
    threshold = max(cfg.tol, _ROUNDOFF_FACTOR * (float(np.max(op.multiplier))
                                                 + v_max))
    x, history, residuals, iters, stop = _lobpcg(
        apply_H, precondition, start, 0.1 * threshold, cfg.max_iters)
    if to_grid is not None:
        x = to_grid(x)
    norm = math.sqrt(op.cell_volume * float(np.sum(x ** 2)))
    phi = x / (norm if x.sum() > 0 else -norm)
    Hphi = op.filter(phi, op.multiplier)
    if potential is not None:
        Hphi += potential.values * phi
    if mask is not None:
        Hphi *= mask  # phi is 0 outside the mask already
    lam = op.cell_volume * float(np.sum(phi * Hphi))
    residual = Field(grid=op.grid, values=Hphi - lam * phi).l2_norm()
    return EigenResult(lam=lam, phi=Field(grid=op.grid, values=phi),
                       residual=residual, iters=iters, history=history + [lam],
                       converged=residual <= threshold, method="lobpcg",
                       meta={**meta, "stop": stop, "threshold": threshold,
                             "residuals": residuals})


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
    shape = grid.shape
    v_min = float(np.min(V))
    c = 1.0 + max(0.0, -v_min)
    inverse = 1.0 / (c + op.multiplier)
    # e^(v_min - V) for the start, then V u in apply_H, the Jacobi and
    # outer products in precondition and, on the modes, phi; nothing keeps
    # it across calls.
    scratch = np.empty(shape)
    start = np.random.default_rng(cfg.seed).uniform(0.5, 1.5, size=shape)
    with np.errstate(under="ignore"):
        start *= np.exp(np.subtract(v_min, V, out=scratch), out=scratch)
    meta = {"potential": getattr(potential, "meta", {})}
    v_max = float(np.max(np.abs(V)))
    floor = max(v_min, 0.0)

    if np.max(V) <= floor:
        # V_+ = 0: the loop runs on the modes, where the preconditioner is
        # diagonal and H u takes one transform pair.  The start's modes live
        # in the spectrum buffer, which _lobpcg reads before its first
        # matvec overwrites it, and the grid start is freed.
        modes = op.to_modes(start, op.spectrum)
        del start

        def apply_H(u, out):
            u, out = u.view(complex), out.view(complex)
            op.from_modes(u, scratch)
            np.multiply(scratch, V, out=scratch)
            op.to_modes(scratch, out)
            out += np.multiply(op.multiplier, u, out=op.spectrum)

        def precondition(r, out):
            np.multiply(r.view(complex), inverse, out=out.view(complex))

        return _solve(op, apply_H, precondition, modes.view(float), v_max, cfg,
                      meta, potential,
                      to_grid=lambda x: op.from_modes(x.view(complex), scratch))

    # Points with V_+ > t0 leave the Fourier block for the diagonal; t0 is
    # the value at a unit spike of the spike's image.
    scratch.fill(0.0)
    scratch.flat[0] = 1.0
    t0 = float(op.filter(scratch, op.multiplier, scratch).flat[0])
    v_plus = np.maximum(V - floor, 0.0)
    diagonal = c + t0 + v_plus
    inner = v_plus <= t0
    jacobi = np.where(inner, np.sqrt((c + t0) / diagonal), 0.0)
    outer = np.where(inner, 0.0, 1.0 / diagonal)

    def apply_H(u, out):
        op.filter(u, op.multiplier, out)
        out += np.multiply(V, u, out=scratch)

    def precondition(r, out):
        op.filter(np.multiply(jacobi, r, out=scratch), inverse, out)
        out *= jacobi
        out += np.multiply(outer, r, out=scratch)

    return _solve(op, apply_H, precondition, start, v_max, cfg, meta, potential)


def dirichlet_ground_state(symbol, radius, grid, cfg):
    """Principal Dirichlet eigenvalue/eigenfunction of Phi(-Delta) on B_radius,
    from one LOBPCG solve of chi Phi(-Delta) chi, chi = 1_B, started at chi.

    phi is exactly 0 outside the ball, positive in sum and of unit L^2 norm.
    """
    check_fits(radius, grid, "ball radius")
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
