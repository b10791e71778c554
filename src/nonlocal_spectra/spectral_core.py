"""Periodic-box discretization and the operator Phi(-Delta) on it.

The torus [-L/2, L/2)^d with n points per axis stands in for R^d; the
frequency lattice is xi_k = 2 pi k / L.  All norms carry the measure
weight h^d.  Fourier-side operations use the real-to-real transform path
(rfftn/irfftn), which enforces conjugate symmetry structurally.

SpectralOperator(symbol, grid) is the one interface to Phi(-Delta) on a
grid, on plain arrays: the multiplier Phi(|xi|^2), evaluated once, filter,
one rfftn/irfftn pair, and to_modes / from_modes, the mode coordinates,
which alone encode each rfftn mode's multiplicity in the full spectrum.
The module-level apply_multiplier, dirichlet_form and seminorm_fourier are
checked one-shot Field-level calls built on it.

Two independent routes to the kinetic seminorm are provided:

  * seminorm_fourier:  [u]_Phi^2 = h^d sum_k Phi(|xi_k|^2) |to_modes(u)_k|^2
  * seminorm_direct:   [u]_Phi^2 = (1/2) iint |u(x+h)-u(x)|^2 j(|h|) dx dh

with the double integral taken over the torus against the periodized
kernel J(h) = sum_m j(|h + mL|).  At lattice frequencies the periodization
is exact for the multiplier, so the two routes must agree up to quadrature
error; their agreement is the discrete form of the kernel <-> symbol
correspondence and is enforced by the acceptance suite.  The direct route
takes the x-integral from the Fourier modes, so only h is integrated,
by one core for d = 1 and 2 (_direct_core).  One Gaussian-smoothed step
(_step) splits J twice: near the origin j (1 - w) is a radial integral,
a Taylor series against kernel_moment on [0, h0] and tanh-sinh beyond,
and the smooth rest, j w plus the images, is a lattice sum taken as one
transform; the images m != 0 are a windowed lattice sum plus its
continuum, the same rule for every kernel and d (_lattice_images).

pointwise_nonlocal is a grid-free oracle for Phi(-Delta)u(x) in d = 1 for a
C^2 u that vanishes at infinity: one radial quadrature of the second
difference u(x+r) - 2u(x) + u(x-r).
"""

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .bernstein_kernels import (kernel_moment, sphere_surface,
                                tanh_sinh_quadrature)
from .special_functions import REL_TOL, QuadratureError

# scipy.special and scipy.integrate are imported inside the functions that
# call them, so that importing the package, which every CLI call does, does
# not load them.


class CostGuardError(ValueError):
    """A direct seminorm was asked for on too fine a grid or in d = 3 (use
    the Fourier route)."""


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
        if not 0 < self.L < math.inf:
            raise ValueError(f"box side must be finite and positive, "
                             f"got {self.L}")

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


def multiplier_values(symbol, grid):
    """Phi(|xi|^2) on the rfftn layout with the zero mode pinned to 0."""
    z = _freq_sq_rfft(grid.d, grid.n, grid.L)
    return symbol.evaluate(z)


class SpectralOperator:
    """Phi(-Delta) on one grid, with the multiplier evaluated once.

    filter, to_modes and from_modes take plain arrays of the grid's shape
    or of the multiplier's and do no checks, so an iterative solver can
    call them in its inner loop.
    """

    def __init__(self, symbol, grid):
        self.grid = grid
        self.multiplier = multiplier_values(symbol, grid)
        self.cell_volume = grid.cell_volume
        self.axes = tuple(range(grid.d))
        # Scratch that filter and from_modes overwrite on every call.
        self.spectrum = np.empty(self.multiplier.shape, dtype=complex)

    def filter(self, values, factor, out=None):
        """irfftn(factor * rfftn(values)): one forward, one inverse transform.

        The spectrum lives in a buffer of the operator's own and the result
        is written into out when given, so a call with out allocates no
        grid-sized array in d = 1; in d >= 2 irfftn's axis passes take one
        spectrum-sized temporary.
        """
        spec = np.fft.rfftn(values, out=self.spectrum)
        spec *= factor
        return np.fft.irfftn(spec, s=self.grid.shape, axes=self.axes, out=out)

    def to_modes(self, values, out):
        """sqrt(w_k / N) rfftn(values), written into the complex array out.

        w_k is the multiplicity of rfftn mode k in the full spectrum: 1 on
        the planes k_d = 0 and k_d = n/2, 2 elsewhere.  N is the number of
        grid points.  By Parseval the real view of out then has the
        Euclidean norm of values.  In d >= 2 those planes hold each mode k
        and its mirror -k, conjugate only to rounding after the transform;
        they are replaced by their Hermitian part, which is exactly
        conjugate.  Real combinations of such spectra stay exactly
        conjugate, so no component that irfftn cannot see ever appears.
        """
        n = self.grid.n
        np.fft.rfftn(values, out=out)
        out *= math.sqrt(2.0 / n ** self.grid.d)
        planes = out[..., ::n // 2]
        if self.grid.d > 1:
            planes += np.conj(planes[self._mirror])
            planes *= 0.5
        planes *= math.sqrt(0.5)
        return out

    def from_modes(self, modes, out):
        """The grid field whose to_modes is modes, written into out; modes
        are rescaled in the operator's spectrum buffer."""
        n = self.grid.n
        spec = np.multiply(modes, math.sqrt(0.5 * n ** self.grid.d),
                           out=self.spectrum)
        spec[..., ::n // 2] *= math.sqrt(2.0)
        return np.fft.irfftn(spec, s=self.grid.shape, axes=self.axes, out=out)

    @cached_property
    def _mirror(self):
        """Index of -k on the first d - 1 axes of a plane of modes."""
        return np.ix_(*[-np.arange(self.grid.n) % self.grid.n] * (self.grid.d - 1))


def apply_multiplier(symbol, field):
    """Phi(-Delta) u as a Field, by one filter; OverflowError if it is not
    finite."""
    op = SpectralOperator(symbol, field.grid)
    out = op.filter(field.values, op.multiplier)
    if not np.all(np.isfinite(out)):
        raise OverflowError("multiplier application produced non-finite values")
    return Field(grid=field.grid, values=out)


def _mode_power(op, values):
    """h^d |to_modes(values)|^2, which sums to ||values||_2^2."""
    modes = op.to_modes(values, op.spectrum)
    return op.cell_volume * (modes.real ** 2 + modes.imag ** 2)


def seminorm_fourier(symbol, field):
    """[u]_Phi computed from the Fourier side (the symbol route)."""
    op = SpectralOperator(symbol, field.grid)
    return math.sqrt(float(np.sum(op.multiplier * _mode_power(op, field.values))))


def dirichlet_form(symbol, u, v, V=None):
    """A(u,v) = h^d <v, (Phi(-Delta) + V) u>, from one filter; ValueError
    unless u and v share a grid."""
    if u.grid != v.grid:
        raise ValueError(f"grid mismatch: {u.grid} vs {v.grid}")
    op = SpectralOperator(symbol, u.grid)
    Hu = op.filter(u.values, op.multiplier)
    if V is not None:
        Hu += V.values * u.values
    return op.cell_volume * float(np.sum(v.values * Hu))


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


def _step(r, r0, r1, spacing):
    """Gaussian-smoothed step: 0 on [0, r0], 1 beyond r1, ndtr((r - mid)/s)
    between, mid = (r0 + r1)/2 and s = sqrt((r1 - r0) spacing / (4 pi)).

    That s balances the two errors of summing the step on a lattice of that
    spacing: the clipped ends, ndtr(-(r1 - r0)/(2s)), and the first Fourier
    coefficient at 2 pi / spacing, e^(-(2 pi s / spacing)^2 / 2), are both
    about e^(-pi (r1 - r0) / (2 spacing)).  1 - step(r) = step(r0 + r1 - r)
    without cancellation.
    """
    from scipy import special

    r = np.asarray(r, dtype=float)
    mid, s = 0.5 * (r0 + r1), math.sqrt((r1 - r0) * spacing / (4.0 * math.pi))
    return np.where(r <= r0, 0.0, np.where(r >= r1, 1.0, special.ndtr((r - mid) / s)))


# Points per axis of the lattice that carries the outer part and the images:
# the core's step spans (3/8) 64 - 1 = 23 spacings, an error of e^-36.
_LATTICE = 64


def _direct_core(field, symbol, images):
    """(1/2) iint_T |u(x+h)-u(x)|^2 J(h) dx dh on the torus, d <= 2.

    The x-integral is done in the mode representation: with pw the power
    of mode xi, S(h) = int_T |u(x+h)-u(x)|^2 dx = 2 sum pw (1 - cos(xi . h)),
    whose mean over |h| = r is 2 sum pw (1 - A_d(|xi| r)), A_1 = cos and
    A_2 = J_0.  The step w = _step(r, L/8, L/2 - spacing, spacing) splits J:
    * j (1 - w), supported in |h| < L/2: the radial integral of
      |S^(d-1)| sum pw (1 - A_d) j (1 - w) r^(d-1), _origin_piece on
      [0, h0] and tanh-sinh on [h0, L/8] and [L/8, L/2 - spacing], with
      1 - A_1 = 2 sin^2(x/2) and one column per distinct |xi|.
    * G = j w + images, smooth, periodic and even in every axis: the cell
      integral of S G / 2 is its lattice sum at spacing = L / max(n, 64),
      spacing^d sum pw (G^(0) - G^(xi)) with G^ = rfftn(G) read at the
      field's modes.  d = 1 takes 2n for n, so that G^ does not alias at
      the field's Nyquist index n/2.
    """
    from scipy import special

    grid = field.grid
    d, n, L = grid.d, grid.n, grid.L
    power = _mode_power(SpectralOperator(symbol, grid), field.values)
    # 1 - A_d(|xi| r) depends on |xi| alone: one column per distinct |xi|
    # (498 of the 2112 modes at n = 64, d = 2), carrying their summed power.
    mod_xi, where = np.unique(np.sqrt(_freq_sq_rfft(d, n, L)), return_inverse=True)
    pw = np.bincount(where.ravel(), weights=power.ravel())
    size = max(2 * n if d == 1 else n, _LATTICE)
    spacing = L / size
    r0, r1 = L / 8.0, L / 2.0 - spacing

    def inner(rs):
        # Blocks of about 2^18 values bound the memory of a level.
        rows = max(1, (1 << 18) // mod_xi.size)
        shell = np.empty(rs.size)
        for i in range(0, rs.size, rows):
            x = np.outer(rs[i:i + rows], mod_xi)
            shell[i:i + rows] = (2.0 * np.sin(0.5 * x) ** 2 if d == 1
                                 else 1.0 - special.j0(x)) @ pw
        return (sphere_surface(d) * shell * symbol.jump_kernel(d, rs)
                * _step(r0 + r1 - rs, r0, r1, spacing) * rs ** (d - 1))

    h0, origin = _origin_piece(symbol, d, mod_xi, pw)
    near = sum(tanh_sinh_quadrature(inner, a, b)[0] for a, b in ((h0, r0), (r0, r1)))

    offsets = np.meshgrid(*[L * np.fft.fftfreq(size)] * d, indexing="ij")
    r = np.sqrt(sum(o * o for o in offsets))
    w = _step(r, r0, r1, spacing)
    G = images(*offsets)
    outer = w > 0.0
    G[outer] += symbol.jump_kernel(d, r[outer]) * w[outer]
    G_hat = np.fft.rfftn(G).real
    modes = np.fft.fftfreq(n, 1.0 / n).astype(int)
    G_hat = G_hat[np.ix_(*[modes] * (d - 1) + [np.arange(n // 2 + 1)])]
    return origin + near + spacing ** d * float(np.sum(power * (G_hat.flat[0] - G_hat)))


def _lattice_images(symbol, L, d):
    """images(*offsets): sum_{m != 0} j(|h + m L|) at the offsets h (one
    array per axis), from the Ewald-type split j = j (1 - w) + j w.

    w = _step(r, R0, R1, L) on [R0, R1] = [2L, 18L].  j (1 - w) is summed
    over the images with |m| L <= R1 + sqrt(d) L/2 and j > 1e-20 j(L/2) at
    their nearest point; the lattice sum of j w is L^-d times its integral
    over R^d, up to the step's two errors at spacing L, e^(-8 pi) ~ 1e-11
    relative to j w.  Axis flips and permutations map the images onto
    themselves, so the sum depends on h only through its sorted |h_k|: it
    is evaluated once per such class (561 of 4096 roll offsets at n = 64)
    and scattered back.
    """
    r0, r1 = 2.0 * L, 18.0 * L
    reach = r1 / L + 0.5 * math.sqrt(d)
    axis = np.arange(-int(reach), int(reach) + 1)
    m = np.stack(np.meshgrid(*[axis] * d, indexing="ij"), axis=-1).reshape(-1, d)
    m = m[(np.sum(m * m, axis=1) <= reach * reach) & np.any(m != 0, axis=1)]
    nearest = L * np.sqrt(np.sum(np.maximum(np.abs(m) - 0.5, 0.0) ** 2, axis=1))
    shifts = L * m[symbol.jump_kernel(d, nearest)
                   > 1e-20 * symbol.jump_kernel(d, 0.5 * L)]
    ramp, _ = tanh_sinh_quadrature(lambda r: symbol.jump_kernel(d, r) * r ** (d - 1)
                                   * _step(r, r0, r1, L), r0, r1)
    tail = sphere_surface(d) * (ramp + kernel_moment(symbol, d, 0, r1, np.inf)) / L ** d

    def images(*offsets):
        h = np.sort(np.abs(np.stack([np.ravel(o) for o in offsets], axis=1)), axis=1)
        # A sorted row has d <= 2 entries: one complex key per class.
        _, first, where = np.unique(h[:, 0] + 1j * h[:, -1], return_index=True,
                                    return_inverse=True)
        h = h[first]
        total = np.full(len(h), tail)
        # Blocks of about 2^16 kernel values bound the memory.
        rows = max(1, (1 << 16) // len(h))
        for i in range(0, len(shifts), rows):
            block = shifts[i:i + rows].T
            r = np.sqrt(sum((sk[:, None] + hk) ** 2 for sk, hk in zip(block, h.T)))
            total += np.sum(symbol.jump_kernel(d, r) * _step(r0 + r1 - r, r0, r1, L),
                            axis=0)
        return total[where.ravel()].reshape(np.shape(offsets[0]))

    return images


def seminorm_direct(symbol, field):
    """[u]_Phi from the kernel side (double quadrature on the torus)."""
    grid = field.grid
    _check_cost_guard(grid)
    images = _lattice_images(symbol, grid.L, grid.d)
    return math.sqrt(max(_direct_core(field, symbol, images), 0.0))


def check_gagliardo_order(s):
    """s, or ValueError unless the Gagliardo order s lies in (0, 1)."""
    if not 0.0 < s < 1.0:
        raise ValueError(f"gagliardo order s must lie in (0,1), got {s}")
    return s


# ---------------------------------------------------------------------------
# Pointwise nonlocal operator (quadrature oracle)
# ---------------------------------------------------------------------------

def pointwise_nonlocal(symbol, u, x):
    """Phi(-Delta)u(x) = -(1/2) int (u(x+h) - 2u(x) + u(x-h)) j(|h|) dh in d = 1.

    u is a C^2 function of one variable that takes arrays and vanishes at
    infinity: ValueError if |u(x +- 1e4)| > 1e-6 (1 + |u(x)|).  x is a float.
    Folded onto the half-line this is -(1/2) int_0^inf S(r) j(r) dr with the
    shell sum S(r) = 2 (u(x + r) + u(x - r)) - 4 u(x).  On [0, h0], h0 = 1e-2,
    S is cancellation noise that the singular kernel would amplify, so there
    S(r) = a r^2 + b r^4, a = (16 S(delta) - S(2 delta)) / (12 delta^2) and
    b = (S(2 delta) - 4 S(delta)) / (12 delta^4), delta = h0/2, is integrated
    against the kernel moments (the five-point stencil for u'' and u'''').
    QUADPACK's quad takes [h0, inf) at REL_TOL.  At a zero of Phi(-Delta)u, S
    is rounding noise that no relative test meets: there quad's estimate is
    accepted up to 10 REL_TOL times the integral of the terms of |S|, and
    QuadratureError is raised beyond it.
    """
    from scipy import integrate

    x = float(x)

    def u_on(points):
        return np.asarray(u(points), dtype=float)

    u_x = float(u_on(np.array([x]))[0])
    if np.any(np.abs(u_on(np.array([x - 1e4, x + 1e4]))) > 1e-6 * (1.0 + abs(u_x))):
        raise ValueError("pointwise_nonlocal requires u to vanish at infinity: "
                         "|u(x +- 1e4)| > 1e-6 (1 + |u(x)|)")

    def shell(rs, centre=4.0 * u_x, g=np.positive):
        # 2 (g(u(x + r)) + g(u(x - r))) - centre for every radius r, from one call of u.
        plus, minus = g(u_on(np.stack([x + rs, x - rs])))
        return 2.0 * (plus + minus) - centre

    def past_origin(*terms):
        # quad of shell(r, *terms) j(r) over [h0, inf): value, error, details
        # and, only where it did not converge, its message.
        return integrate.quad(lambda r: float(shell(np.array([r]), *terms)[0]
                                              * symbol.jump_kernel(1, r)),
                              h0, np.inf, epsabs=0.0, epsrel=REL_TOL, full_output=1)

    h0, delta = 1e-2, 5e-3
    s1, s2 = shell(np.array([delta, 2.0 * delta]))
    taylor = _series_moment(symbol, 1, [(16.0 * s1 - s2) / (12.0 * delta ** 2),
                                        (s2 - 4.0 * s1) / (12.0 * delta ** 4)], h0)
    value, error, _, *failed = past_origin()
    if failed and error > 10.0 * REL_TOL * past_origin(-4.0 * abs(u_x), np.abs)[0]:
        raise QuadratureError("nonlocal integral past the origin did not converge",
                              value=value, error_estimate=error)
    return -0.5 * (taylor + value)
