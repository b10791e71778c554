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
correspondence and is enforced by the acceptance suite.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import integrate, special

from .bernstein_kernels import massless_constant, tanh_sinh_quadrature
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


def _potential_values(V):
    """Values of a Field or of a PotentialField."""
    return V.values if isinstance(V, Field) else V.field.values


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
                np.sum(_potential_values(V) * u.values * v.values))
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
            Hu = Hu + _potential_values(V) * u.values
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


def _power_kernel_images(exponent, L, h):
    """sum_{m != 0} |h + mL|^-exponent for scalar/array h in [0, L/2] (d=1)."""
    t = np.asarray(h, dtype=float) / L
    return (special.zeta(exponent, 1.0 + t)
            + special.zeta(exponent, 1.0 - t)) / L ** exponent


def _generic_kernel_images(kernel, L, h):
    """Direct image sum for kernels with fast decay (d=1)."""
    h = np.asarray(h, dtype=float)
    total = np.zeros_like(h)
    for m in range(1, 10000):
        term = kernel(m * L + h) + kernel(m * L - h)
        total += term
        if np.all(term <= 1e-16 * (1.0 + np.abs(total))):
            break
    return total


def _direct_core_1d(field, kernel, images):
    """(1/2) iint_T |u(x+h)-u(x)|^2 J(h) dx dh on the torus, d = 1."""
    grid = field.grid
    spec = np.fft.rfft(field.values)
    xi = 2.0 * math.pi * np.fft.rfftfreq(grid.n, d=grid.h)

    def shifted_sq_sum(hs):
        phase = np.exp(1j * np.outer(hs, xi))
        shifted = np.fft.irfft(phase * spec[None, :], n=grid.n, axis=1)
        return grid.h * np.sum((shifted - field.values[None, :]) ** 2, axis=1)

    def f(hs):
        return shifted_sq_sum(hs) * (kernel(hs) + images(hs))

    val, _err = tanh_sinh_quadrature(f, 0.0, grid.L / 2.0)
    return val


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


def _direct_core_2d(field, kernel, images_offset):
    """Torus double integral in d = 2, split by a smooth radial partition.

    * Inner part (weight 1-w, supported in |h| < L/2): the x-integral and
      the angular h-integral are done exactly in the mode representation
      (the angular average of 1 - cos(xi . h) over the circle is
      1 - J_0(|xi| r)), leaving a radial quadrature against the singular
      kernel.
    * Outer part (weight w) and the periodization images: cell sums over
      the lattice of roll offsets.  The smooth partition makes every
      summand a smooth periodic function of the offset, so the midpoint
      sum is spectrally accurate; a hard disk/corner split would leave an
      O(h) cell-classification error at the circle.
    """
    grid = field.grid
    spec_sq, power, measure = _spectral_weights(field)
    z = _freq_sq_rfft(grid.d, grid.n, grid.L)
    mod_xi = np.sqrt(z).ravel()
    pw = (power.ravel() * measure)
    r0 = grid.L / 2.0 - 6.0 * grid.h
    r1 = grid.L / 2.0 - grid.h

    def angular_average(rs):
        bess = special.j0(np.outer(rs, mod_xi))
        return 2.0 * math.pi * 2.0 * ((1.0 - bess) @ pw)

    def f(rs):
        return 0.5 * angular_average(rs) * kernel(rs) * rs \
            * (1.0 - _smoothstep(rs, r0, r1))

    scale = float(np.sum(pw)) + 1.0
    inner, _ = tanh_sinh_quadrature(f, 0.0, r1, levels=7,
                                    abs_floor=1e-9 * scale)

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
    outer_vals[sel] = kernel(shift_r[sel]) * w[sel] * S_lattice[sel]
    outer_sum = 0.5 * grid.cell_volume * float(np.sum(outer_vals))

    image_sum = 0.5 * grid.cell_volume * float(
        np.sum(S_lattice * images_offset(hx, hy)))

    return inner + outer_sum + image_sum


def _power_images_2d(exponent, L, hx, hy):
    """sum over m in Z^2 \\ {0} of |h + mL|^-exponent at lattice offsets."""
    m_max = 24
    total = np.zeros_like(hx)
    for mx in range(-m_max, m_max + 1):
        for my in range(-m_max, m_max + 1):
            if mx == 0 and my == 0:
                continue
            total += ((hx + mx * L) ** 2 + (hy + my * L) ** 2) ** (-exponent / 2.0)
    # Far lattice ~ cell-averaged integral beyond radius (m_max - 1/2) L.
    R = (m_max - 0.5) * L
    tail = 2.0 * math.pi * R ** (2.0 - exponent) / ((exponent - 2.0) * L ** 2)
    return total + tail


def _radial_power_direct(field, constant, exponent):
    """Shared direct route for kernels constant * r^-exponent."""
    grid = field.grid
    if grid.d == 1:
        kernel = lambda h: constant * h ** (-exponent)
        images = lambda h: constant * _power_kernel_images(exponent, grid.L, h)
        return _direct_core_1d(field, kernel, images)
    kernel = lambda r: constant * r ** (-exponent)
    images = lambda hx, hy: constant * _power_images_2d(exponent, grid.L, hx, hy)
    return _direct_core_2d(field, kernel, images)


def seminorm_direct(symbol, field):
    """[u]_Phi from the kernel side (double quadrature on the torus)."""
    _check_cost_guard(field.grid)
    if not symbol.kernel_available:
        raise ValueError("seminorm_direct requires a symbol with a kernel")
    grid = field.grid
    if symbol.has_closed_kernel and symbol.m == 0.0:
        c = massless_constant(grid.d, symbol.alpha)
        sq = _radial_power_direct(field, c, grid.d + symbol.alpha)
        return math.sqrt(max(sq, 0.0))
    kernel = lambda r: symbol.jump_kernel(grid.d, r)
    if grid.d == 1:
        images = lambda h: _generic_kernel_images(kernel, grid.L, h)
        sq = _direct_core_1d(field, kernel, images)
    else:
        # Exponentially decaying kernels: nearest images only, no far tail.
        def images2(hx, hy):
            total = np.zeros_like(hx)
            for mx in range(-3, 4):
                for my in range(-3, 4):
                    if mx == 0 and my == 0:
                        continue
                    total += kernel(np.sqrt((hx + mx * grid.L) ** 2
                                            + (hy + my * grid.L) ** 2))
            return total
        sq = _direct_core_2d(field, kernel, images2)
    return math.sqrt(max(sq, 0.0))


def gagliardo_seminorm(s, field):
    """Gagliardo seminorm [[u]]_s of order s in (0,1) (direct route).

    Shares the integration path of seminorm_direct so that the massless
    ratio [u]_{Phi_{0,alpha}} / [[u]]_{alpha/2} = sqrt(c(d,alpha)/2) is
    reproduced exactly.
    """
    if not 0.0 < s < 1.0:
        raise ValueError(f"gagliardo order s must lie in (0,1), got {s}")
    _check_cost_guard(field.grid)
    sq = 2.0 * _radial_power_direct(field, 1.0, field.grid.d + 2.0 * s)
    return math.sqrt(max(sq, 0.0))


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


def _panel_integral(f, a, b):
    x, w = _GL20
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return half * float(np.dot(w, f(mid + half * x)))


def _oscillatory_tail(f, a, panel, abs_tol):
    """int_a^inf f dh for f = (bounded oscillation) x (monotone decaying kernel).

    Panel-by-panel summation; if plain summation has not converged once the
    panels stop shrinking fast, the cumulative sums are extrapolated with
    Wynn's epsilon algorithm (partition extrapolation).
    """
    sums = []
    total = 0.0
    small = 0
    for k in range(600):
        piece = _panel_integral(f, a + k * panel, a + (k + 1) * panel)
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


def _u_vectorized(u, probe):
    try:
        out = u(np.asarray([probe, probe]))
        if np.shape(out) == (2,):
            return u
    except Exception:
        pass
    return np.vectorize(u, otypes=[float])


def _range_probe(u, x, scale):
    for R in (10.0, 100.0, 1000.0, 1e4):
        for sgn in (-1.0, 1.0):
            if abs(u(x + sgn * R)) > 1e6 * (1.0 + scale):
                raise ValueError("u appears unbounded; pointwise_nonlocal "
                                 "requires a bounded C^2 function")


def _far_constant(g, scale):
    """Limit of g at infinity if it visibly has one, else 0.

    A non-oscillating component of the outer integrand that tends to a
    constant would make the panel sums converge only like the kernel tail;
    subtracting the constant (whose kernel integral is known analytically)
    removes it.
    """
    samples = np.asarray([g(r) for r in (1e5, 2.3e5, 5.1e5)], dtype=float)
    if np.max(np.abs(samples - samples[0])) <= 1e-9 * (1.0 + np.max(np.abs(samples))):
        return float(samples[0])
    return 0.0


def _kernel_tail_mass(symbol, d, a):
    """int_a^inf j(r) r^(d-1) dr (analytic for the massless power law)."""
    if symbol.has_closed_kernel and symbol.m == 0.0:
        c = massless_constant(d, symbol.alpha)
        return c * a ** (-symbol.alpha) / symbol.alpha
    val, _ = integrate.quad(
        lambda r: float(symbol.jump_kernel(d, r)) * r ** (d - 1),
        a, np.inf, epsabs=ABS_TOL, epsrel=1e-10, limit=200)
    return val


def _kernel_moment(symbol, d, k, h0):
    """int_0^h0 r^(k+d-1) j(r) dr; positive-power singular integrand."""
    if symbol.has_closed_kernel and symbol.m == 0.0:
        c = massless_constant(d, symbol.alpha)
        return c * h0 ** (k - symbol.alpha) / (k - symbol.alpha)
    val, _ = tanh_sinh_quadrature(
        lambda r: np.asarray(symbol.jump_kernel(d, r)) * r ** (k + d - 1),
        0.0, h0)
    return val


def pointwise_nonlocal(symbol, u, x):
    """Phi(-Delta)u(x) = -(1/2) int (u(x+h) - 2u(x) + u(x-h)) j(|h|) dh.

    u is a bounded C^2 callable on R^d (d inferred from x, d <= 3).  The
    second-difference form makes the kernel singularity integrable, so no
    principal value is needed; the integral is split at |h| = 1 into an
    inner part (tanh-sinh, graded at 0) and an outer part (panel summation
    with series acceleration for oscillatory integrands).
    """
    eps_cut = 1.0
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    d = x_arr.size
    if d > 3:
        raise ValueError("pointwise_nonlocal supports d <= 3")
    if not symbol.kernel_available:
        raise ValueError("pointwise_nonlocal requires a symbol with a kernel")

    if d == 1:
        x0 = float(x_arr[0])
        uv = _u_vectorized(u, x0)
        u_x = float(uv(np.array([x0]))[0])
        _range_probe(lambda y: float(uv(np.array([y]))[0]), x0, abs(u_x))

        def second_diff(hs):
            return uv(x0 + hs) + uv(x0 - hs) - 2.0 * u_x

        # On [0, h0] the second difference is pure cancellation noise at the
        # scale the singular kernel amplifies, so that piece is evaluated
        # through its Taylor form u'' h^2 + u'''' h^4/12 against analytic
        # kernel moments; quadrature covers [h0, eps_cut].
        h0 = 1e-2
        delta = h0 / 2.0
        st = uv(x0 + delta * np.array([-2.0, -1.0, 0.0, 1.0, 2.0]))
        d2u = (-st[0] + 16.0 * st[1] - 30.0 * st[2] + 16.0 * st[3] - st[4]) \
            / (12.0 * delta ** 2)
        d4u = (st[0] - 4.0 * st[1] + 6.0 * st[2] - 4.0 * st[3] + st[4]) \
            / delta ** 4
        taylor = d2u * _kernel_moment(symbol, 1, 2, h0) \
            + (d4u / 12.0) * _kernel_moment(symbol, 1, 4, h0)

        def inner(hs):
            return second_diff(hs) * np.asarray(symbol.jump_kernel(1, hs))

        mid_val, _ = tanh_sinh_quadrature(inner, h0, eps_cut,
                                          abs_floor=1e-13 * (1.0 + abs(u_x)))
        inner_val = taylor + mid_val

        tail_mass = _kernel_tail_mass(symbol, 1, eps_cut)
        pair = lambda h: float(uv(np.array([x0 + h]))[0]
                               + uv(np.array([x0 - h]))[0])
        c_far = _far_constant(pair, abs(u_x))

        def outer(hs):
            return (uv(x0 + hs) + uv(x0 - hs) - c_far) \
                * np.asarray(symbol.jump_kernel(1, hs))

        outer_val, outer_err = _oscillatory_tail(outer, eps_cut, 1.0, ABS_TOL)
        if not np.isfinite(outer_val) or outer_err > 1e-5 * (1.0 + abs(outer_val)):
            raise QuadratureError(
                "outer nonlocal integral did not converge",
                value=None, error_estimate=outer_err)
        return -(inner_val + outer_val + (c_far - 2.0 * u_x) * tail_mass)

    # d >= 2: radial reduction with a fixed angular rule.
    if d == 2:
        theta = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
        omegas = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        ang_w = np.full(len(theta), 2.0 * math.pi / len(theta))
    else:
        nodes, wts = np.polynomial.legendre.leggauss(24)
        phi = np.linspace(0.0, 2.0 * math.pi, 48, endpoint=False)
        ct, ph = np.meshgrid(nodes, phi, indexing="ij")
        st = np.sqrt(1.0 - ct ** 2)
        omegas = np.stack([st * np.cos(ph), st * np.sin(ph), ct],
                          axis=-1).reshape(-1, 3)
        ang_w = np.repeat(wts, len(phi)) * (2.0 * math.pi / len(phi))

    u_x = float(u(x_arr))
    surf = float(np.sum(ang_w))

    def sphere_second_diff(r):
        pts_p = x_arr[None, None, :] + r[:, None, None] * omegas[None, :, :]
        pts_m = x_arr[None, None, :] - r[:, None, None] * omegas[None, :, :]
        vals = np.array([[u(p) for p in row] for row in pts_p]) \
            + np.array([[u(p) for p in row] for row in pts_m])
        return (vals - 2.0 * u_x) @ ang_w

    def inner_nd(rs):
        return sphere_second_diff(rs) * np.asarray(
            symbol.jump_kernel(d, rs)) * rs ** (d - 1)

    # Taylor-corrected origin, as in d = 1: the angular average of the
    # second difference is (sigma_d/d) Lap(u) r^2 + O(r^4).
    h0 = 1e-2
    delta = 1e-3
    lap = 0.0
    for axis in range(d):
        e = np.zeros(d)
        e[axis] = delta
        lap += (float(u(x_arr + e)) - 2.0 * u_x + float(u(x_arr - e))) / delta ** 2
    surf_over_d = surf / d
    taylor = lap * surf_over_d * _kernel_moment(symbol, d, 2, h0)
    mid_val, _ = tanh_sinh_quadrature(inner_nd, h0, eps_cut,
                                      abs_floor=1e-12 * (1.0 + abs(u_x)) * surf)
    inner_val = taylor + mid_val
    tail_mass = _kernel_tail_mass(symbol, d, eps_cut)
    pair_sum = lambda r: float(sphere_second_diff(np.array([r]))[0]) \
        + 2.0 * u_x * surf
    c_far = _far_constant(pair_sum, abs(u_x) * surf)

    def outer_nd(rs):
        return (sphere_second_diff(rs) + 2.0 * u_x * surf - c_far) * np.asarray(
            symbol.jump_kernel(d, rs)) * rs ** (d - 1)

    outer_val, outer_err = _oscillatory_tail(outer_nd, eps_cut, 1.0,
                                             ABS_TOL * surf)
    if not np.isfinite(outer_val) or outer_err > 1e-5 * (1.0 + abs(outer_val)):
        raise QuadratureError("outer nonlocal integral did not converge",
                              value=None, error_estimate=outer_err)
    return -0.5 * (inner_val + outer_val + (c_far - 2.0 * u_x * surf) * tail_mass)
