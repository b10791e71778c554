"""Bernstein symbols and their radial jump kernels.

The relativistic family is

    Phi_{m,alpha}(z) = (z + m^(2/alpha))^(alpha/2) - m,   alpha in (0,2), m >= 0,

with closed-form kernels (xi := (d+alpha)/2 throughout):

    j_{0,alpha}(r) = c(d,alpha) r^-(d+alpha),
        c(d,alpha) = 2^alpha Gamma((d+alpha)/2) / (pi^(d/2) |Gamma(-alpha/2)|),

    j_{m,alpha}(r) = A(d,m,alpha) r^-xi K_xi(m^(1/alpha) r),
        A(d,m,alpha) = alpha 2^((alpha-d)/2) m^(xi/alpha) / (pi^(d/2) Gamma(1-alpha/2)),

and the nonnegative defect kernel sigma_{m,alpha} with

    j_{0,alpha} = j_{m,alpha} + sigma_{m,alpha},   int_R^d sigma(|x|) dx = m.

sigma is evaluated through its finite-integral form

    sigma(r) = C1(d,alpha) r^-(d+alpha) int_0^(m^(1/alpha) r) w^xi K_(xi-1)(w) dw,
        C1(d,alpha) = alpha 2^((alpha-d)/2) / (pi^(d/2) Gamma(1-alpha/2)),

which is free of the cancellation that the equivalent difference form
(j0 - jm written out) suffers at small r; the test suite keeps the
difference form as a cross-check oracle.  The C1 normalization is the one
that makes the decomposition and the total-mass identity hold exactly;
both are enforced by the test suite.

The heat kernel p_t is evaluated by radial Fourier reduction for d <= 3 on
Gauss panels.  In d = 1 and 3 the phase e^(i r xi) factors into a
per-panel and a per-node part, with the panel product r m_p kept exact
because its rounding would not average out; d = 2 evaluates J_0(r xi) at
every node (see heat_kernel_profile).  The 1-resolvent kernel G_1 is a
positive Stieltjes mixture of Yukawa kernels (see resolvent_kernel).
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate, special

from .special_functions import (ABS_TOL, KV_REL_ERR, REL_TOL, QuadratureError,
                                bessel_k_grid)


class AssumptionViolationError(Exception):
    """A standing integrability assumption failed its numerical check."""


def _check_dim(d):
    if int(d) != d or d < 1:
        raise ValueError(f"dimension must be a positive integer, got {d}")
    return int(d)


def _check_alpha(alpha):
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"alpha must lie in (0, 2), got {alpha}")
    return float(alpha)


def sphere_surface(d):
    """Surface measure of the unit sphere S^(d-1) in R^d."""
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def massless_constant(d, alpha):
    """c(d, alpha) in j_{0,alpha}(r) = c(d,alpha) / r^(d+alpha)."""
    d = _check_dim(d)
    alpha = _check_alpha(alpha)
    return (2.0 ** alpha * math.gamma((d + alpha) / 2.0)
            / (math.pi ** (d / 2.0) * abs(math.gamma(-alpha / 2.0))))


def relativistic_prefactor(d, alpha, mass_factor):
    """alpha 2^((alpha-d)/2) mass_factor / (pi^(d/2) Gamma(1-alpha/2)).

    mass_factor is 1 for C1 and sigma, m^(xi/alpha) for A(d,m,alpha) and
    m^((d+alpha+2)/(2 alpha)) for j' and C3.
    """
    return (alpha * 2.0 ** ((alpha - d) / 2.0) * mass_factor
            / (math.pi ** (d / 2.0) * math.gamma(1.0 - alpha / 2.0)))


def j_massless(d, alpha, r):
    """Massless jump kernel j_{0,alpha}(r); exact closed form, r may be an array."""
    d = _check_dim(d)
    alpha = _check_alpha(alpha)
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise ValueError("j_massless requires r > 0")
    out = massless_constant(d, alpha) * r ** (-(d + alpha))
    return float(out) if out.ndim == 0 else out


def j_massive(d, alpha, m, r):
    """Massive jump kernel j_{m,alpha}(r) for m > 0; r may be an array."""
    d = _check_dim(d)
    alpha = _check_alpha(alpha)
    if not m > 0:
        raise ValueError("j_massive requires m > 0")
    scalar = np.isscalar(r)
    r = np.atleast_1d(np.asarray(r, dtype=float))
    if np.any(r <= 0):
        raise ValueError("j_massive requires r > 0")
    xi = (d + alpha) / 2.0
    z = m ** (1.0 / alpha) * r
    out = (relativistic_prefactor(d, alpha, m ** (xi / alpha)) * r ** (-xi)
           * bessel_k_grid(xi, z))
    return float(out[0]) if scalar else out.reshape(r.shape)


def j_prime_massive(d, alpha, m, r):
    """Radial derivative j'_{m,alpha}(r); strictly negative."""
    d = _check_dim(d)
    alpha = _check_alpha(alpha)
    if not m > 0:
        raise ValueError("j_prime_massive requires m > 0")
    scalar = np.isscalar(r)
    r = np.atleast_1d(np.asarray(r, dtype=float))
    if np.any(r <= 0):
        raise ValueError("j_prime_massive requires r > 0")
    xi = (d + alpha) / 2.0
    pref = relativistic_prefactor(d, alpha, m ** ((d + alpha + 2.0) / (2.0 * alpha)))
    z = m ** (1.0 / alpha) * r
    out = -pref * bessel_k_grid(xi + 1.0, z) / r ** xi
    return float(out[0]) if scalar else out


def tanh_sinh_quadrature(f, a, b, abs_floor=0.0, levels=6):
    """Tanh-sinh rule on [a, b] for a vectorized integrand.

    Node clustering at the endpoints makes the rule spectrally accurate for
    integrands with algebraic (integrable) endpoint behaviour, which is how
    the graded-mesh requirement near kernel singularities is met.  Endpoints
    themselves are never evaluated.  Nodes are mid + half tanh(.), so those
    within ~1e-16 (b-a) of an endpoint round onto it and are dropped: an
    integrable singularity loses the mass below that distance (about 1e-8
    relative for x^(-1/2) on [0, 1]), and integrands that turn into
    roundoff noise near an endpoint, such as the direct seminorms', stay
    finite.  The step halves on each of the `levels` passes until two
    passes agree to within 10 max(ABS_TOL, REL_TOL |value|, abs_floor);
    callers with such noisy integrands supply the abs_floor it allows.
    """
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    value = None
    h = 0.45
    for _ in range(levels):
        u = np.arange(-3.6, 3.6 + h, h)
        su = 0.5 * math.pi * np.sinh(u)
        x = mid + half * np.tanh(su)
        w = h * half * 0.5 * math.pi * np.cosh(u) / np.cosh(su) ** 2
        # tanh saturates to +-1 in float64 at the extreme nodes; their
        # weights are ~1e-24, so dropping them is below roundoff.
        keep = (x > a) & (x < b)
        refined = float(np.dot(w[keep], f(x[keep])))
        if value is not None:
            err = abs(refined - value)
            value = refined
            if err <= max(ABS_TOL, REL_TOL * abs(refined), abs_floor) * 10.0:
                return refined, err
        else:
            value = refined
        h /= 2.0
    raise QuadratureError("tanh-sinh quadrature did not converge",
                          value=value, error_estimate=err)


def _sigma_profile(d, alpha, m, r):
    """sigma at the radii r > 0 (flattened) and its error estimate.

    The integrand of int_0^(m^(1/alpha) r) w^xi K_(xi-1)(w) dw behaves like
    a*w + b*w^(2 xi - 1) at the origin (mixed non-integer powers), so
    tanh-sinh is used rather than Gauss panels.  The estimate is the scaled
    tanh-sinh difference plus KV_REL_ERR |value|: the positive integrand
    carries kv's relative error, which the difference misses.
    """
    d = _check_dim(d)
    alpha = _check_alpha(alpha)
    if not m > 0:
        raise ValueError("sigma requires m > 0")
    r = np.atleast_1d(np.asarray(r, dtype=float)).ravel()
    if np.any(r <= 0):
        raise ValueError("sigma requires r > 0")
    xi = (d + alpha) / 2.0
    pref = relativistic_prefactor(d, alpha, 1.0)

    def f(w):
        return w ** xi * bessel_k_grid(xi - 1.0, w)

    values, errs = np.empty_like(r), np.empty_like(r)
    for i, ri in enumerate(r):
        scale = pref * ri ** (-(d + alpha))
        # Beyond w ~ 60 the integrand is below 1e-18 of its peak for xi <= 4.
        upper = min(m ** (1.0 / alpha) * ri, max(60.0, 4.0 * xi))
        val, diff = tanh_sinh_quadrature(f, 0.0, upper)
        values[i], errs[i] = scale * val, scale * diff
    return values, errs + KV_REL_ERR * values


def sigma(d, alpha, m, r):
    """Defect kernel sigma_{m,alpha}(r) >= 0 via the finite-integral form."""
    out = _sigma_profile(d, alpha, m, r)[0]
    return float(out[0]) if np.isscalar(r) else out.reshape(np.shape(r))


@dataclass
class BernsteinSymbol:
    """A Bernstein function z -> Phi(z) acting as the kinetic symbol.

    kind is "relativistic" (parameters m >= 0, alpha in (0,2), closed-form
    kernel) or "custom" (user callable; kernel-level operations require a
    user-supplied Levy density and are disabled otherwise, since recovering
    the density from Phi alone is an inverse problem out of scope here).
    """

    kind: str
    m: float = 0.0
    alpha: float = 1.0
    phi: object = None
    levy_density: object = None
    label: str = field(default="", compare=False)

    def __post_init__(self):
        if self.kind == "relativistic":
            _check_alpha(self.alpha)
            if self.m < 0:
                raise ValueError("mass m must be >= 0")
        elif self.kind == "custom":
            if self.phi is None:
                raise ValueError("custom symbol requires a callable phi")
            probe = np.asarray(self.phi(np.geomspace(1e-6, 1e6, 25)))
            if np.any(probe < 0.0) or np.any(np.diff(probe) < 0.0):
                raise ValueError("custom phi must be nonnegative and "
                                 "non-decreasing on (0, inf)")
        else:
            raise ValueError(f"unknown symbol kind {self.kind!r}")
        if not self.label:
            if self.kind == "relativistic":
                self.label = f"relativistic(m={self.m:g}, alpha={self.alpha:g})"
            else:
                self.label = "custom"

    @classmethod
    def relativistic(cls, m, alpha):
        return cls(kind="relativistic", m=float(m), alpha=float(alpha))

    @classmethod
    def custom(cls, phi, levy_density=None, label="custom"):
        return cls(kind="custom", phi=phi, levy_density=levy_density, label=label)

    def evaluate(self, z):
        """Phi(z) for z >= 0 (vectorized); Phi(0) = 0 for this class."""
        z = np.asarray(z, dtype=float)
        if self.kind == "relativistic":
            out = (z + self.m ** (2.0 / self.alpha)) ** (self.alpha / 2.0) - self.m
            # Guard the z=0 roundoff of m^(2/alpha)^(alpha/2) - m.
            out = np.where(z == 0.0, 0.0, out)
        else:
            out = np.where(z == 0.0, 0.0, self.phi(z))
        return float(out) if out.ndim == 0 else out

    __call__ = evaluate

    @property
    def has_closed_kernel(self):
        return self.kind == "relativistic"

    @property
    def kernel_available(self):
        return self.has_closed_kernel or self.levy_density is not None

    def jump_kernel(self, d, r):
        """Radial jump kernel j_Phi(r) in dimension d; r may be an array."""
        if self.kind == "relativistic":
            if self.m == 0.0:
                return j_massless(d, self.alpha, r)
            return j_massive(d, self.alpha, self.m, r)
        if self.levy_density is None:
            raise ValueError("custom symbol has no Levy density; "
                             "kernel-level operations are disabled")
        return _subordination_kernel(self.levy_density, d, r)


def _subordination_kernel(density, d, r):
    """j(r) = int_0^inf (4 pi t)^(-d/2) exp(-r^2/(4t)) density(t) dt."""
    scalar = np.isscalar(r)
    r = np.atleast_1d(np.asarray(r, dtype=float))
    out = np.empty_like(r)
    for i, ri in enumerate(r):
        def f(t):
            return (4.0 * math.pi * t) ** (-d / 2.0) * math.exp(
                -ri * ri / (4.0 * t)) * density(t)
        val, abserr = integrate.quad(f, 0.0, np.inf, epsabs=ABS_TOL,
                                     epsrel=REL_TOL, limit=400)
        if abserr > max(ABS_TOL, REL_TOL * abs(val)) * 100.0:
            raise QuadratureError("subordination kernel quadrature failed",
                                  value=val, error_estimate=abserr)
        out[i] = val
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# Heat kernel (radial Fourier reduction, d <= 3) and resolvent kernel
# ---------------------------------------------------------------------------

def _frequency_cutoff(symbol, d, t):
    """Xi with exp(-t Phi(Xi^2)) Xi^(d-1) below 1e-18; checks integrability."""
    xi = 1.0
    for _ in range(64):
        decay = -t * symbol.evaluate(xi * xi) + (d - 1) * math.log(xi)
        if decay < math.log(1e-18):
            return xi
        xi *= 2.0
    raise AssumptionViolationError(
        "exp(-t Phi(|xi|^2)) does not appear to be integrable; "
        "the heat kernel is undefined for this symbol")


# Entries of one radii x nodes block in heat_kernel_profile (8 MB of float64;
# a complex radii x panels block takes an eighth), so memory stays bounded
# however many radii a table asks for.
_BLOCK_ENTRIES = 1 << 20

# Veltkamp's splitting constant 2^27 + 1 for float64.
_SPLITTER = 134217729.0


def _split(a):
    """Veltkamp split a = hi + lo, each half holding at most 26 bits."""
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def _exact_phase(r, mid):
    """e^(i r mid) for every (radius, midpoint) pair, with r mid kept exact.

    Dekker's two-product writes r mid = p + e exactly, so the phase is
    e^(ip) (1 + ie) to within |e|^2 / 2 ~ 1e-25.
    """
    rh, rl = _split(r[:, None])
    mh, ml = _split(mid)
    p = r[:, None] * mid
    e = ((rh * mh - p) + rh * ml + rl * mh) + rl * ml
    phase = np.exp(1j * p)
    phase += 1j * e * phase
    return phase


def heat_kernel_profile(symbol, d, t, radii):
    """Vectorized p_t over an array of radii: (values, error estimates).

    p_t(r) is a sum over Gauss nodes xi in [0, Xi] of D(xi) A_d(r, xi): D is
    the node weight times e^(-t Phi(xi^2)) times 1/pi, xi/(2 pi) or
    xi/(2 pi^2), and A_d is cos(r xi), J_0(r xi) or sin(r xi)/r (xi at
    r = 0) for d = 1, 2, 3.  Uniform panels carry a 12- and a 24-point
    rule; their difference is the convergence test.

    In d = 1 and 3 the phase of a node xi = m_p + h x_j factors per panel,
    e^(i r xi) = e^(i r m_p) e^(i r h x_j), so each rule's sum is
    sum_j e^(i r h x_j) (E D)_(r, j) with E_(r, p) = e^(i r m_p): one panel
    phase per radius and panel, shared by both rules, and one matmul, in
    place of one cosine per radius and node.  J_0 has no finite addition
    formula, so d = 2 evaluates J_0(r xi) at every node.

    Two roundings would each move all nodes of a panel together, an error
    that does not average out over the panel: that of the midpoint m_p
    (the panels would no longer tile [0, Xi]; a 32-bit width makes every
    midpoint exact) and that of the product r m_p, which reaches ~1e4
    (_exact_phase keeps it exact).  On the 1201-radius Cauchy table at
    t = 0.1 the largest relative error is 9.7e-14 with both exact,
    2.9e-12 with linspace midpoints and 8.3e-12 with a rounded r m_p.

    The estimate is |I_24 - I_12| plus the roundoff floor
    10 eps sum |D A_d(0, xi)|; A_d(0, xi) bounds |A_d(r, xi)|, and the
    difference alone falls below the actual error wherever the two rules
    agree to roundoff.
    """
    if not t > 0:
        raise ValueError("heat_kernel requires t > 0")
    if d not in (1, 2, 3):
        raise ValueError("the heat kernel is restricted to d <= 3")
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    cut = _frequency_cutoff(symbol, d, t)
    # Panel count resolves both the decay scale and the fastest oscillation.
    oscillations = float(radii.max()) * cut / math.pi
    n_panels = int(max(32, min(4000, 4 * oscillations + 32)))
    # A 32-bit width makes every midpoint (p + 1/2) width exact (p < 2^12),
    # so the panels tile [0, n_panels width] without gaps or overlaps.
    mant, expo = math.frexp(cut / n_panels)
    width = math.ldexp(round(math.ldexp(mant, 32)), expo - 32)
    mid = (np.arange(n_panels) + 0.5) * width
    # Columns 0..11 hold the 12-point rule, 12..35 the 24-point rule.
    x12, w12 = np.polynomial.legendre.leggauss(12)
    x24, w24 = np.polynomial.legendre.leggauss(24)
    x, w = np.concatenate([x12, x24]), np.concatenate([w12, w24])
    offsets = 0.5 * width * x
    nodes = mid[:, None] + offsets
    damped = 0.5 * width * w * np.exp(-t * symbol.evaluate(nodes * nodes))
    if d == 1:
        damped /= math.pi
        at_zero = damped
    elif d == 2:
        damped *= nodes / (2.0 * math.pi)
        at_zero = damped
    else:
        damped *= nodes / (2.0 * math.pi ** 2)
        at_zero = damped * nodes
    floor = 10.0 * np.finfo(float).eps * float(np.abs(at_zero[:, 12:]).sum())
    sums = np.empty((radii.size, x.size))
    if d == 2:
        rows = max(1, _BLOCK_ENTRIES // nodes.size)
        for i in range(0, radii.size, rows):
            r = radii[i:i + rows]
            sums[i:i + rows] = np.einsum(
                "rpj,pj->rj", special.j0(np.multiply.outer(r, nodes)), damped)
    else:
        rows = max(1, _BLOCK_ENTRIES // 8 // n_panels)
        for i in range(0, radii.size, rows):
            r = radii[i:i + rows]
            phased = np.exp(1j * np.outer(r, offsets)) \
                * (_exact_phase(r, mid) @ damped)
            if d == 1:
                sums[i:i + rows] = phased.real
            else:
                sums[i:i + rows] = phased.imag / np.where(r > 0.0, r, 1.0)[:, None]
                sums[i:i + rows][r == 0.0] = at_zero.sum(axis=0)
    coarse, fine = sums[:, :12].sum(axis=1), sums[:, 12:].sum(axis=1)
    diff = np.abs(fine - coarse)
    if np.any(diff > np.maximum(ABS_TOL * 10.0, 1e-8 * np.abs(fine) + 1e-13)):
        raise QuadratureError("heat kernel quadrature did not converge",
                              value=fine, error_estimate=diff + floor)
    return fine, diff + floor


def heat_kernel(symbol, d, t, x):
    """Heat kernel p_t(x) of Phi(-Delta) at a single point x (d <= 3)."""
    r = float(np.linalg.norm(np.atleast_1d(np.asarray(x, dtype=float))))
    return float(heat_kernel_profile(symbol, d, t, [r])[0][0])


def resolvent_kernel(symbol, d, radii):
    """1-resolvent kernel G_1 at radii > 0 (d <= 3): (values, error estimates).

    1/(1 + Phi) is a Stieltjes function for relativistic Phi (Schilling, Song
    & Vondracek, Bernstein Functions, ch. 6-7), so G_1(r) = int sigma(ds)
    Y_d(s, r) with the Yukawa kernels Y_d = e^(-k r)/(2k), K_0(k r)/(2 pi),
    e^(-k r)/(4 pi r), k = sqrt(s).  For s = M + u^2, M = m^(2/alpha), sigma
    has the density (2u/pi) Im 1/(1 - m + u^alpha e^(-i pi alpha/2)) and, if
    m > 1, the atom (m-1)^(2/alpha-1)/(alpha/2) at s* = M - (m-1)^(2/alpha).
    The estimate adds to quad's abserr the rounding it cannot see, in the
    atom and in the exponent sqrt(s) r: (10 + 2 sqrt(s_min) r) eps |value|.
    """
    if symbol.kind != "relativistic" or d not in (1, 2, 3):
        raise ValueError("resolvent_kernel requires a relativistic symbol, d <= 3")
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    if np.any(radii <= 0):
        raise ValueError("resolvent_kernel requires r > 0")
    m, alpha = symbol.m, symbol.alpha
    M, c, phase = m ** (2.0 / alpha), 1.0 - m, (-1j) ** alpha
    # u = v^q makes the m = 1 density (2/pi) sin(pi alpha/2) u^(1-alpha)
    # flat in v.
    q = max(1.0, 1.0 / (2.0 - alpha))
    yukawa = (lambda k, r: np.exp(-k * r) / (2.0 * k),
              lambda k, r: special.k0(k * r) / (2.0 * math.pi),
              lambda k, r: np.exp(-k * r) / (4.0 * math.pi * r))[d - 1]

    def integrand(v, r):
        u = v ** q
        return (2.0 * q * u * u / (math.pi * v) * (1.0 / (c + u ** alpha * phase)).imag
                * yukawa(math.sqrt(M + u * u), r))

    # epsrel sits well above QUADPACK's floor of 50 eps.
    values, errs = np.array([integrate.quad(integrand, 0.0, np.inf, args=(r,),
                                            epsabs=0.0, epsrel=1e-13, limit=200)
                             for r in radii]).T
    s_min = M  # the smallest s that sigma charges
    if m > 1.0:
        gap = (m - 1.0) ** (2.0 / alpha)
        s_min = M - gap
        values += gap / (m - 1.0) / (0.5 * alpha) * yukawa(math.sqrt(s_min), radii)
    # Rounding sqrt(s) r moves e^(-sqrt(s) r) by up to sqrt(s) r eps relative.
    errs += (10.0 + 2.0 * math.sqrt(s_min) * radii) * np.finfo(float).eps * values
    if np.any(errs > REL_TOL * values):
        raise QuadratureError("resolvent quadrature did not converge",
                              value=values, error_estimate=errs)
    return values, errs


def second_moment_decay(symbol, d, r_list):
    """M(R) = R^-2 int_{B_R} |x|^2 j_Phi(|x|) dx for an increasing list of R.

    The inner singularity r^(1-alpha) (power-law blow-up of the kernel) is
    handled by QUADPACK's algebraic endpoint weight.
    """
    r_list = list(r_list)
    if len(r_list) < 2 or any(b <= a for a, b in zip(r_list, r_list[1:])):
        raise ValueError("r_list must be increasing with at least 2 entries")
    if not getattr(symbol, "kernel_available", False):
        raise ValueError("second_moment_decay requires a symbol with a kernel")
    surf = sphere_surface(d)

    # Exponent of the kernel blow-up at 0; relativistic symbols pin it at
    # d + alpha, custom densities are probed numerically.
    if symbol.has_closed_kernel:
        alpha_eff = symbol.alpha
    else:
        probe = symbol.jump_kernel(d, np.array([1e-4, 2e-4]))
        alpha_eff = max(0.1, min(1.9, math.log(probe[0] / probe[1]) / math.log(2.0) - d))

    def smooth_part(r):
        return float(r ** (d + alpha_eff) * symbol.jump_kernel(d, r))

    pieces = []
    prev = 0.0
    total = 0.0
    for R in r_list:
        try:
            if prev == 0.0:
                val, _ = integrate.quad(smooth_part, 0.0, R,
                                        weight="alg", wvar=(1.0 - alpha_eff, 0.0),
                                        epsabs=ABS_TOL, epsrel=1e-9, limit=200)
            else:
                val, _ = integrate.quad(
                    lambda r: float(r ** (d + 1) * symbol.jump_kernel(d, r)),
                    prev, R, epsabs=ABS_TOL, epsrel=1e-9, limit=200)
        except Exception as exc:
            raise QuadratureError(
                f"second-moment quadrature failed on [{prev}, {R}]; the "
                f"singularity at 0 is integrable (r^(d+1) j ~ r^(1-alpha)) "
                f"but the kernel evaluation did not converge") from exc
        total += val
        pieces.append(surf * total / R ** 2)
        prev = R
    return pieces


# ---------------------------------------------------------------------------
# Kernel tables
# ---------------------------------------------------------------------------

KERNEL_IDS = ("j", "sigma", "j_prime", "heat", "resolvent")


@dataclass
class KernelTable:
    """Radial samples of one kernel with per-entry error estimates."""

    kernel_id: str
    dimension: int
    radii: np.ndarray
    values: np.ndarray
    error_estimates: np.ndarray
    params: dict

    def __post_init__(self):
        if self.kernel_id not in KERNEL_IDS:
            raise ValueError(f"unknown kernel_id {self.kernel_id!r}")
        self.radii = np.asarray(self.radii, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        self.error_estimates = np.asarray(self.error_estimates, dtype=float)
        if self.radii.ndim != 1 or np.any(np.diff(self.radii) <= 0) \
                or np.any(self.radii <= 0):
            raise ValueError("radii must be strictly increasing and positive")
        if len(self.values) != len(self.radii):
            raise ValueError("values and radii length mismatch")
        if self.kernel_id == "j":
            if np.any(self.values < 0) or np.any(np.diff(self.values) > 0):
                raise ValueError("jump kernel table must be >= 0 and non-increasing")
        if self.kernel_id == "sigma" and np.any(self.values < 0):
            raise ValueError("sigma table must be >= 0")


def build_kernel_table(symbol, kernel_id, d, radii, t=None):
    """Sample one radial kernel on the given radii into a KernelTable."""
    radii = np.asarray(radii, dtype=float)
    params = {"alpha": getattr(symbol, "alpha", None),
              "m": getattr(symbol, "m", None),
              "t": t,
              "quadrature": {"abs_tol": ABS_TOL, "rel_tol": REL_TOL}}
    if kernel_id == "j":
        values = np.atleast_1d(symbol.jump_kernel(d, radii))
        errs = np.abs(values) * KV_REL_ERR
    elif kernel_id == "sigma":
        values, errs = _sigma_profile(d, symbol.alpha, symbol.m, radii)
    elif kernel_id == "j_prime":
        values = np.atleast_1d(j_prime_massive(d, symbol.alpha, symbol.m, radii))
        errs = np.abs(values) * KV_REL_ERR
    elif kernel_id == "heat":
        if t is None:
            raise ValueError("heat table requires t")
        values, errs = heat_kernel_profile(symbol, d, t, radii)
    elif kernel_id == "resolvent":
        values, errs = resolvent_kernel(symbol, d, radii)
    else:
        raise ValueError(f"unknown kernel_id {kernel_id!r}")
    return KernelTable(kernel_id=kernel_id, dimension=d, radii=radii,
                       values=values, error_estimates=errs, params=params)
