"""Periodic-box discretization and the operator Phi(-Delta) on it.

The torus [-L/2, L/2)^d with n points per axis stands in for R^d; the
frequency lattice is xi_k = 2 pi k / L.  All norms carry the measure
weight h^d.  Fourier-side operations use the real-to-real transform path
(rfftn/irfftn), which enforces conjugate symmetry structurally.

SpectralOperator(symbol, grid) is Phi(-Delta) on one grid: it evaluates
the multiplier Phi(|xi|^2) once and provides apply, form, seminorm and
residual, plus the unchecked array-level filter that the eigensolver's
matvec and preconditioner use.  The module-level apply_multiplier,
dirichlet_form and seminorm_fourier are one-shot calls into it.

Two independent routes to the kinetic seminorm are provided:

  * seminorm_fourier:  [u]_Phi^2 = sum_k Phi(|xi_k|^2) |u_hat(xi_k)|^2
  * seminorm_direct:   [u]_Phi^2 = (1/2) iint |u(x+h)-u(x)|^2 j(|h|) dx dh

with the double integral taken over the torus against the periodized
kernel J(h) = sum_m j(|h + mL|).  At lattice frequencies the periodization
is exact for the multiplier, so the two routes must agree up to quadrature
error; their agreement is the discrete form of the kernel <-> symbol
correspondence and is enforced by the acceptance suite.  The direct route
takes the x-integral from the Fourier modes, so only h is integrated: on
[0, h0] as a Taylor series against kernel_moment, beyond by tanh-sinh.
The images m != 0 of J are one windowed lattice sum plus its continuum,
the same rule for every kernel and d (_lattice_images).

pointwise_nonlocal is a grid-free oracle for Phi(-Delta)u(x): one radial
quadrature of sphere-rule shell sums, the same path for d = 1, 2 and 3.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special

from .bernstein_kernels import (BernsteinSymbol, kernel_moment,
                                massless_constant, sphere_surface,
                                tanh_sinh_quadrature)
from .special_functions import ABS_TOL, QuadratureError

class CostGuardError(ValueError):
    """A requested computation exceeds its cost guard: a direct seminorm on
    too fine a grid (use the Fourier route), or a dense Dirichlet solve on
    a ball of too many grid points."""


@dataclass(frozen=True)
class Grid:
    """Uniform periodic box: d dimensions, n points per axis, side length L."""

    d: int
    n: int
    L: float

    def __post_init__(self):
        if self.d not in (1, 2, 3):
            raise ValueError(f"dimension must be 1, 2 or 3, got {self.d}")
        if self.n < 16 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"n must be a power of two >= 16, got {self.n}")
        if not self.L > 0:
            raise ValueError(f"box side must be positive, got {self.L}")

    @property
    def h(self):
        return self.L / self.n

    def axis(self):
        return -self.L / 2.0 + self.h * np.arange(self.n)

    def meshgrid(self):
        return np.meshgrid(*([self.axis()] * self.d), indexing="ij")

    def radius(self):
        mesh = self.meshgrid()
        return np.sqrt(sum(m * m for m in mesh))

    @property
    def shape(self):
        return (self.n,) * self.d

    @property
    def cell_volume(self):
        return self.h ** self.d


@lru_cache(maxsize=32)
def _freq_sq_rfft(d, n, L):
    """|xi|^2 on the rfftn frequency layout."""
    full = 2.0 * math.pi * np.fft.fftfreq(n, d=L / n)
    half = 2.0 * math.pi * np.fft.rfftfreq(n, d=L / n)
    axes = [full] * (d - 1) + [half]
    mesh = np.meshgrid(*axes, indexing="ij")
    return sum(m * m for m in mesh)


@lru_cache(maxsize=32)
def _rfft_weights(d, n):
    """Multiplicity of each rfftn mode in the full spectrum (1 or 2)."""
    shape = (n,) * (d - 1) + (n // 2 + 1,)
    w = np.full(shape, 2.0)
    w[..., 0] = 1.0
    w[..., -1] = 1.0
    return w


@dataclass
class Field:
    """Real grid function; values has shape (n,)*d."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise ValueError(f"values shape {self.values.shape} does not match "
                             f"grid shape {self.grid.shape}")

    def l2_norm(self):
        return math.sqrt(self.grid.cell_volume * float(np.sum(self.values ** 2)))

    def inner(self, other):
        _require_same_grid(self.grid, other.grid)
        return self.grid.cell_volume * float(np.sum(self.values * other.values))


def field_from_function(grid, fn):
    """Sample a callable of the space variables onto the grid."""
    mesh = grid.meshgrid()
    return Field(grid=grid, values=np.asarray(fn(*mesh), dtype=float))


def _require_same_grid(g1, g2):
    if g1 != g2:
        raise ValueError(f"grid mismatch: {g1} vs {g2}")


@dataclass
class FormValue:
    """Kinetic + potential split of the quadratic form A(u, v)."""

    kinetic: float
    potential: float

    @property
    def total(self):
        return self.kinetic + self.potential


def multiplier_values(symbol, grid):
    """Phi(|xi|^2) on the rfftn layout with the zero mode pinned to 0."""
    z = _freq_sq_rfft(grid.d, grid.n, grid.L)
    return symbol.evaluate(z)


class SpectralOperator:
    """Phi(-Delta) on one grid, with the multiplier evaluated once.

    The array-level ``filter`` takes a plain value array of the grid's
    shape and does no checks, so an iterative solver can call it in its
    inner loop; ``apply``, ``form``, ``seminorm`` and ``residual`` are the
    checked Field-level operations.
    """

    def __init__(self, symbol, grid):
        self.grid = grid
        self.multiplier = multiplier_values(symbol, grid)
        self.weighted_multiplier = _rfft_weights(grid.d, grid.n) * self.multiplier
        self.cell_volume = grid.cell_volume
        self.measure = grid.cell_volume / grid.n ** grid.d
        self.axes = tuple(range(grid.d))

    def filter(self, values, factor):
        """irfftn(factor * rfftn(values)): one forward, one inverse transform."""
        spec = np.fft.rfftn(values)
        spec *= factor
        return np.fft.irfftn(spec, s=self.grid.shape, axes=self.axes)

    def apply(self, u):
        """Phi(-Delta) u as a Field."""
        _require_same_grid(u.grid, self.grid)
        out = self.filter(u.values, self.multiplier)
        if not np.all(np.isfinite(out)):
            raise OverflowError("multiplier application produced non-finite values")
        return Field(grid=self.grid, values=out)

    def form(self, u, v, V=None):
        """A(u,v) = E_Phi(u,v) + <Vu,v>; transforms once when v is u."""
        _require_same_grid(u.grid, self.grid)
        _require_same_grid(v.grid, self.grid)
        su = np.fft.rfftn(u.values)
        sv = su if v is u else np.fft.rfftn(v.values)
        kinetic = self.measure * float(
            np.sum(self.weighted_multiplier * (su * np.conj(sv)).real))
        potential = 0.0
        if V is not None:
            potential = self.cell_volume * float(
                np.sum(V.values * u.values * v.values))
        return FormValue(kinetic=kinetic, potential=potential)

    def seminorm(self, u):
        """[u]_Phi from the Fourier side."""
        _require_same_grid(u.grid, self.grid)
        _, power, measure = _spectral_weights(u)
        sq = measure * float(np.sum(self.multiplier * power))
        return math.sqrt(max(sq, 0.0))

    def residual(self, u, lam, V=None, mask=None):
        """||(Phi(-Delta) + V - lam) u||_2, restricted to mask if given."""
        Hu = self.apply(u).values
        if V is not None:
            Hu = Hu + V.values * u.values
        vals = Hu - lam * u.values
        if mask is not None:
            # The Dirichlet eigen-equation holds inside the ball only.
            vals = vals * mask
        return Field(grid=self.grid, values=vals).l2_norm()


def apply_multiplier(symbol, field):
    """Phi(-Delta) u via transform, multiply by Phi(|xi|^2), inverse transform."""
    return SpectralOperator(symbol, field.grid).apply(field)


def _spectral_weights(field):
    """(|u_hat|^2, weights * |u_hat|^2, lattice measure) for seminorm-type
    sums, from one forward transform."""
    grid = field.grid
    spec_sq = np.abs(np.fft.rfftn(field.values)) ** 2
    power = _rfft_weights(grid.d, grid.n) * spec_sq
    measure = grid.cell_volume / grid.n ** grid.d
    return spec_sq, power, measure


def seminorm_fourier(symbol, field):
    """[u]_Phi computed from the Fourier side (the symbol route)."""
    return SpectralOperator(symbol, field.grid).seminorm(field)


def dirichlet_form(symbol, u, v, V=None):
    """A(u,v) = E_Phi(u,v) + <Vu,v>, computed spectrally / pointwise."""
    return SpectralOperator(symbol, u.grid).form(u, v, V)


# ---------------------------------------------------------------------------
# Direct (kernel-side) seminorms
# ---------------------------------------------------------------------------

_COST_GUARD = {1: 256, 2: 64}


def _check_cost_guard(grid):
    limit = _COST_GUARD.get(grid.d)
    if limit is None:
        raise CostGuardError("direct seminorms support d <= 2 only; "
                             "use the Fourier route for d = 3")
    if grid.n > limit:
        raise CostGuardError(
            f"direct seminorm cost guard: n = {grid.n} exceeds {limit} for "
            f"d = {grid.d}; use the Fourier route")


def _series_moment(symbol, d, coefs, h0):
    """int_0^h0 (sum_n coefs[n-1] r^(2n)) j(r) r^(d-1) dr, term by term."""
    return sum(c * kernel_moment(symbol, d, 2 * n, 0.0, h0)
               for n, c in enumerate(coefs, start=1))


def _origin_piece(symbol, d, q, pw):
    """(h0, int_0^h0 |S^(d-1)| sum pw (1 - A_d(q r)) j(r) r^(d-1) dr).

    1 - A_d(q r) is the mean of 1 - cos(xi . h) over |h| = r, |xi| = q
    (A_1 = cos, A_2 = J_0); its Taylor coefficients are
    (-1)^(n+1) Gamma(d/2) / (4^n n! Gamma(n + d/2)) q^(2n).  With
    h0 = min(1e-2, 1 / (4 max q)) the eighth term is below rounding.
    """
    h0 = min(1e-2, 0.25 / float(q.max()))
    coefs = [(-1.0) ** (n + 1) * math.gamma(d / 2.0) * float(pw @ q ** (2 * n))
             / (4.0 ** n * math.factorial(n) * math.gamma(n + d / 2.0))
             for n in range(1, 9)]
    return h0, sphere_surface(d) * _series_moment(symbol, d, coefs, h0)


def _direct_core_1d(field, symbol, images):
    """(1/2) iint_T |u(x+h)-u(x)|^2 J(h) dx dh on the torus, d = 1.

    The x-integral is done exactly in the mode representation:
    int_T |u(x+h)-u(x)|^2 dx = 4 sum_k sin^2(xi_k h/2) |u_hat(xi_k)|^2.
    On [0, h0] only the smooth images are left to tanh-sinh.
    """
    grid = field.grid
    _, power, measure = _spectral_weights(field)
    xi = np.sqrt(_freq_sq_rfft(grid.d, grid.n, grid.L))
    pw = power * measure

    def shifted_sq(hs):
        return 4.0 * np.sin(0.5 * np.outer(hs, xi)) ** 2 @ pw

    h0, origin = _origin_piece(symbol, 1, xi, pw)
    near, _ = tanh_sinh_quadrature(lambda hs: shifted_sq(hs) * images(hs), 0.0, h0)
    far, _ = tanh_sinh_quadrature(
        lambda hs: shifted_sq(hs) * (symbol.jump_kernel(1, hs) + images(hs)),
        h0, grid.L / 2.0)
    return origin + near + far


def _smoothstep(r, r0, r1):
    """C-infinity ramp 0 -> 1 on [r0, r1]; all derivatives vanish at the
    ends, which keeps the tanh-sinh rule exponentially convergent."""
    t = np.clip((np.asarray(r, dtype=float) - r0) / (r1 - r0), 0.0, 1.0)
    a = np.zeros_like(t)
    b = np.zeros_like(t)
    pos = t > 0.0
    a[pos] = np.exp(-1.0 / t[pos])
    neg = t < 1.0
    b[neg] = np.exp(-1.0 / (1.0 - t[neg]))
    return a / (a + b)


def _direct_core_2d(field, symbol, images_offset):
    """Torus double integral in d = 2, split by a smooth radial partition.

    * Inner part (weight 1-w, supported in |h| < L/2): the x-integral and
      the angular h-integral are done exactly in the mode representation
      (the angular average of 1 - cos(xi . h) over the circle is
      1 - J_0(|xi| r)), leaving a radial integral against the singular
      kernel: _origin_piece on [0, h0], tanh-sinh beyond.
    * Outer part (weight w) and the periodization images: cell sums over
      the lattice of roll offsets.  The smooth partition makes every
      summand a smooth periodic function of the offset, so the midpoint
      sum is spectrally accurate; a hard disk/corner split would leave an
      O(h) cell-classification error at the circle.  The ramp spans
      [L/8, L/2 - h], so the lattice resolves it with the box, not with a
      fixed number of cells.
    """
    grid = field.grid
    spec_sq, power, measure = _spectral_weights(field)
    # 1 - J_0(|xi| r) depends on |xi| alone: one column per distinct |xi|
    # (498 of the 2112 modes at n = 64), carrying their summed power.
    mod_xi, where = np.unique(np.sqrt(_freq_sq_rfft(grid.d, grid.n, grid.L)),
                              return_inverse=True)
    pw = np.bincount(where.ravel(), weights=power.ravel()) * measure
    r0 = grid.L / 8.0
    r1 = grid.L / 2.0 - grid.h

    def angular_average(rs):
        # Blocks of about 2^18 Bessel values bound the memory of a level.
        rows = max(1, (1 << 18) // mod_xi.size)
        out = np.empty(rs.size)
        for i in range(0, rs.size, rows):
            bess = special.j0(np.outer(rs[i:i + rows], mod_xi))
            out[i:i + rows] = (1.0 - bess) @ pw
        return 2.0 * math.pi * 2.0 * out

    def f(rs):
        return 0.5 * angular_average(rs) * symbol.jump_kernel(2, rs) * rs \
            * (1.0 - _smoothstep(rs, r0, r1))

    h0, origin = _origin_piece(symbol, 2, mod_xi, pw)
    inner, _ = tanh_sinh_quadrature(f, h0, r1)

    # Lattice autocorrelation gives S at every lattice shift at once; entry
    # (i, j) corresponds to the roll offset (i h, j h) wrapped into the
    # torus, so the kernel factors use the same wrapped offsets.
    corr = np.fft.irfftn(spec_sq, s=grid.shape,
                         axes=tuple(range(grid.d)))
    S_lattice = 2.0 * grid.cell_volume * (corr.flat[0] - corr)

    off = (grid.h * np.arange(grid.n) + grid.L / 2.0) % grid.L - grid.L / 2.0
    hx, hy = np.meshgrid(off, off, indexing="ij")
    shift_r = np.sqrt(hx * hx + hy * hy)
    w = _smoothstep(shift_r, r0, r1)
    outer_vals = np.zeros_like(shift_r)
    sel = w > 0.0
    outer_vals[sel] = symbol.jump_kernel(2, shift_r[sel]) * w[sel] * S_lattice[sel]
    outer_sum = 0.5 * grid.cell_volume * float(np.sum(outer_vals))

    image_sum = 0.5 * grid.cell_volume * float(
        np.sum(S_lattice * images_offset(hx, hy)))

    return origin + inner + outer_sum + image_sum


def _lattice_images(symbol, L, d):
    """images(*offsets): sum_{m != 0} j(|h + m L|) at the offsets h (one
    array per axis), from the Ewald-type split j = j (1 - w) + j w.

    w is 0 on [0, R0 = 2L], 1 beyond R1 = 18L and ndtr((r - 10L) / s) between,
    s = sqrt((R1 - R0) L / (4 pi)).  j (1 - w) is summed over the images with
    |m| L <= R1 + sqrt(d) L/2 and j >= 1e-20 j(L/2) at their nearest point;
    the lattice sum of j w is L^-d times its integral over R^d, up to Fourier
    coefficients e^(-(2 pi s/L)^2/2) and clipped ends e^(-(8L/s)^2/2), both
    about e^-22.  Axis flips and permutations map the images onto themselves,
    so the sum depends on h only through its sorted |h_k|: it is evaluated
    once per such class (561 of 4096 roll offsets at n = 64) and scattered back.
    """
    r0, r1 = 2.0 * L, 18.0 * L
    mid, s = 0.5 * (r0 + r1), math.sqrt((r1 - r0) * L / (4.0 * math.pi))
    reach = r1 / L + 0.5 * math.sqrt(d)
    axis = np.arange(-int(reach), int(reach) + 1)
    m = np.stack(np.meshgrid(*[axis] * d, indexing="ij"), axis=-1).reshape(-1, d)
    m = m[(np.sum(m * m, axis=1) <= reach * reach) & np.any(m != 0, axis=1)]
    nearest = L * np.sqrt(np.sum(np.maximum(np.abs(m) - 0.5, 0.0) ** 2, axis=1))
    j_half = symbol.jump_kernel(d, 0.5 * L)
    shifts = L * m[symbol.jump_kernel(d, nearest) >= 1e-20 * j_half]
    # In units of j(L/2), so that tanh-sinh's absolute tolerance scales with j.
    ramp, _ = tanh_sinh_quadrature(lambda r: symbol.jump_kernel(d, r) / j_half
                                   * r ** (d - 1) * special.ndtr((r - mid) / s), r0, r1)
    tail = sphere_surface(d) * (j_half * ramp + kernel_moment(symbol, d, 0, r1, np.inf)) \
        / L ** d

    def images(*offsets):
        h = np.sort(np.abs(np.stack([np.ravel(o) for o in offsets], axis=1)), axis=1)
        h, where = np.unique(h, axis=0, return_inverse=True)
        total = np.full(len(h), tail)
        # Blocks of about 2^16 kernel values bound the memory.
        rows = max(1, (1 << 16) // len(h))
        for i in range(0, len(shifts), rows):
            block = shifts[i:i + rows].T
            r = np.sqrt(sum((sk[:, None] + hk) ** 2 for sk, hk in zip(block, h.T)))
            z = (mid - r) / s
            near = np.where(np.abs(z) < (mid - r0) / s, special.ndtr(z), z > 0.0)
            total += np.sum(symbol.jump_kernel(d, r) * near, axis=0)
        return total[where.ravel()].reshape(np.shape(offsets[0]))

    return images


def seminorm_direct(symbol, field):
    """[u]_Phi from the kernel side (double quadrature on the torus)."""
    grid = field.grid
    _check_cost_guard(grid)
    core = _direct_core_1d if grid.d == 1 else _direct_core_2d
    images = _lattice_images(symbol, grid.L, grid.d)
    return math.sqrt(max(core(field, symbol, images), 0.0))


def gagliardo_seminorm(s, field):
    """Gagliardo seminorm [[u]]_s of order s in (0,1) (direct route).

    [[u]]_s = sqrt(2 / c(d, 2s)) [u]_{Phi_{0,2s}}, through seminorm_direct,
    so the massless ratio [u]_{Phi_{0,alpha}} / [[u]]_{alpha/2} =
    sqrt(c(d,alpha)/2) is reproduced exactly.
    """
    if not 0.0 < s < 1.0:
        raise ValueError(f"gagliardo order s must lie in (0,1), got {s}")
    return math.sqrt(2.0 / massless_constant(field.grid.d, 2.0 * s)) \
        * seminorm_direct(BernsteinSymbol.relativistic(0.0, 2.0 * s), field)


# ---------------------------------------------------------------------------
# Pointwise nonlocal operator (quadrature oracle)
# ---------------------------------------------------------------------------

def _wynn_epsilon(partial_sums):
    """Limit of an oscillating-decaying sequence via Wynn's epsilon algorithm."""
    s = [float(x) for x in partial_sums]
    eps_prev = [0.0] * (len(s) + 1)
    eps_curr = s[:]
    best = s[-1]
    for _k in range(min(12, len(s) - 1)):
        eps_next = []
        for i in range(len(eps_curr) - 1):
            diff = eps_curr[i + 1] - eps_curr[i]
            if diff == 0.0:
                return eps_curr[i + 1], 0.0
            eps_next.append(eps_prev[i + 1] + 1.0 / diff)
        eps_prev, eps_curr = eps_curr, eps_next
        if len(eps_curr) >= 2 and _k % 2 == 1:
            best = eps_curr[-1]
    err = abs(eps_curr[-1] - eps_curr[-2]) if len(eps_curr) >= 2 else np.inf
    return best, err


_GL20 = np.polynomial.legendre.leggauss(20)


def _oscillatory_tail(f, a, panel, abs_tol):
    """int_a^inf f dh for f = (bounded oscillation) x (monotone decaying kernel).

    Panel-by-panel summation; if plain summation has not converged once the
    panels stop shrinking fast, the cumulative sums are extrapolated with
    Wynn's epsilon algorithm (partition extrapolation).
    """
    x, w = _GL20
    half = 0.5 * panel
    sums = []
    total = 0.0
    small = 0
    for k in range(600):
        piece = half * float(np.dot(w, f(a + (k + 0.5) * panel + half * x)))
        total += piece
        sums.append(total)
        if abs(piece) < abs_tol:
            small += 1
            if small >= 3:
                return total, abs(piece)
        else:
            small = 0
    value, err = _wynn_epsilon(sums[-48:])
    return value, err


def _far_constant(samples):
    """Limit of the outer shell totals at infinity if they visibly have one:
    left in, it would make the panel sums converge only like the kernel
    tail, while its own kernel integral is known."""
    if np.max(np.abs(samples - samples[0])) <= 1e-9 * (1.0 + np.max(np.abs(samples))):
        return float(samples[0])
    return 0.0


def _sphere_rule(d):
    """(directions, weights) of the angular rule on S^(d-1): S^0 = {+1, -1}
    with weights (1, 1), 64 equispaced points on the circle, 24 Gauss-Legendre
    latitudes x 48 longitudes on the sphere.  Each rule is symmetric under
    omega -> -omega, and its weights sum to |S^(d-1)|."""
    if d == 1:
        return np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
    if d == 2:
        theta = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
        omegas = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        return omegas, np.full(len(theta), 2.0 * math.pi / len(theta))
    nodes, wts = np.polynomial.legendre.leggauss(24)
    phi = np.linspace(0.0, 2.0 * math.pi, 48, endpoint=False)
    ct, ph = np.meshgrid(nodes, phi, indexing="ij")
    st = np.sqrt(1.0 - ct ** 2)
    omegas = np.stack([st * np.cos(ph), st * np.sin(ph), ct],
                      axis=-1).reshape(-1, 3)
    return omegas, np.repeat(wts, len(phi)) * (2.0 * math.pi / len(phi))


def pointwise_nonlocal(symbol, u, x):
    """Phi(-Delta)u(x) = -(1/2) int (u(x+h) - 2u(x) + u(x-h)) j(|h|) dh.

    u is a bounded C^2 function on R^d, d = len(x) <= 3, called like the
    callable of field_from_function: u(*coords), one array per axis.  In
    polar form this is -(1/2) int_0^inf S(r) j(r) r^(d-1) dr with the shell
    sum S(r) = 2 (sum_w w u(x + r w) - |S^(d-1)| u(x)) over the symmetric
    rule of _sphere_rule, so every d takes one path and u is called once
    per batch of radii.  On [0, h0], h0 = 1e-2, S is cancellation noise
    that the singular kernel would amplify, so there S(r) = a r^2 + b r^4,
    a = (16 S(delta) - S(2 delta)) / (12 delta^2) and
    b = (S(2 delta) - 4 S(delta)) / (12 delta^4), delta = h0/2, is
    integrated against the kernel moments (in d = 1 this is the five-point
    stencil for u'' and u'''').  Tanh-sinh covers [h0, 1], and panel
    summation, accelerated for oscillatory integrands, covers [1, inf).
    u is rejected as unbounded if |u| > 1e6 (1 + |u(x)|) at a distance
    10 to 1e4 from x along one rule direction.
    """
    eps_cut = 1.0
    x = np.atleast_1d(np.asarray(x, dtype=float))
    d = x.size
    if d > 3:
        raise ValueError("pointwise_nonlocal supports d <= 3")
    omegas, weights = _sphere_rule(d)
    surf = float(np.sum(weights))

    def u_on(points):
        return np.asarray(u(*points), dtype=float)

    u_x = float(u_on(x[:, None])[0])
    far = np.array([10.0, 100.0, 1000.0, 1e4])
    probe = u_on(x[:, None] + np.outer(omegas[0], np.concatenate([-far, far])))
    if np.any(np.abs(probe) > 1e6 * (1.0 + abs(u_x))):
        raise ValueError("u appears unbounded; pointwise_nonlocal "
                         "requires a bounded C^2 function")

    def shell_total(rs):
        # 2 sum_w w u(x + r w) for every radius r, from one call of u.
        points = x[:, None, None] + rs[None, :, None] * omegas.T[:, None, :]
        return 2.0 * (u_on(points) @ weights)

    def shell_sum(rs):
        return shell_total(rs) - 2.0 * surf * u_x

    def radial(values, rs):
        return values * np.asarray(symbol.jump_kernel(d, rs)) * rs ** (d - 1)

    h0 = 1e-2
    delta = h0 / 2.0
    s1, s2 = shell_sum(np.array([delta, 2.0 * delta]))
    taylor = _series_moment(symbol, d, [(16.0 * s1 - s2) / (12.0 * delta ** 2),
                                        (s2 - 4.0 * s1) / (12.0 * delta ** 4)], h0)
    mid_val, _ = tanh_sinh_quadrature(lambda rs: radial(shell_sum(rs), rs),
                                      h0, eps_cut,
                                      abs_floor=1e-13 * (1.0 + abs(u_x)) * surf)

    tail_mass = kernel_moment(symbol, d, 0, eps_cut, np.inf)
    c_far = _far_constant(shell_total(np.array([1e5, 2.3e5, 5.1e5])))
    outer_val, outer_err = _oscillatory_tail(
        lambda rs: radial(shell_total(rs) - c_far, rs), eps_cut, 1.0,
        ABS_TOL * surf)
    if not np.isfinite(outer_val) or outer_err > 1e-5 * (1.0 + abs(outer_val)):
        raise QuadratureError("outer nonlocal integral did not converge",
                              value=None, error_estimate=outer_err)
    return -0.5 * (taylor + mid_val + outer_val
                   + (c_far - 2.0 * surf * u_x) * tail_mass)
