"""The relativistic Bernstein symbols and their radial jump kernels.

The one symbol family, BernsteinSymbol, is

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
difference form as a cross-check oracle.  A trapezoid rule of gammainc in
t (_sigma_rule) gives it at all radii at once, and the sigma moments of
kernel_moment, the one integral of j through r = 0, in closed form.  The
C1 normalization makes the decomposition and the total-mass identity hold
exactly; both are enforced by the test suite.

The heat kernel p_t is evaluated by radial Fourier reduction for d <= 3 on
Gauss panels.  In d = 1 and 3 the phase e^(i r xi) factors into a
per-node part and a panel part, which splits again over two levels of
about sqrt(P) of the P panels, with every panel product kept exact
because its rounding would not average out; d = 2 evaluates J_0(r xi) at
every node (see heat_kernel_profile).  The 1-resolvent kernel G_1 is a
positive Stieltjes mixture of Yukawa kernels (see resolvent_kernel).
"""

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar

import numpy as np
from scipy import integrate, special

from .special_functions import (ABS_TOL, GAMMAINC_REL_ERR, KV_REL_ERR, REL_TOL,
                                QuadratureError, bessel_k_grid)


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


def _check_massive(name, d, alpha, m, r):
    """(d, alpha, r as a float array) for a massive kernel at radii r > 0."""
    if not m > 0:
        raise ValueError(f"{name} requires m > 0")
    r = np.atleast_1d(np.asarray(r, dtype=float))
    if np.any(r <= 0):
        raise ValueError(f"{name} requires r > 0")
    return _check_dim(d), _check_alpha(alpha), r


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
    scalar = np.isscalar(r)
    d, alpha, r = _check_massive("j_massive", d, alpha, m, r)
    xi = (d + alpha) / 2.0
    z = m ** (1.0 / alpha) * r
    out = (relativistic_prefactor(d, alpha, m ** (xi / alpha)) * r ** (-xi)
           * bessel_k_grid(xi, z))
    return float(out[0]) if scalar else out.reshape(r.shape)


def j_prime_massive(d, alpha, m, r):
    """Radial derivative j'_{m,alpha}(r); strictly negative."""
    scalar = np.isscalar(r)
    d, alpha, r = _check_massive("j_prime_massive", d, alpha, m, r)
    xi = (d + alpha) / 2.0
    pref = relativistic_prefactor(d, alpha, m ** ((d + alpha + 2.0) / (2.0 * alpha)))
    z = m ** (1.0 / alpha) * r
    out = -pref * bessel_k_grid(xi + 1.0, z) / r ** xi
    return float(out[0]) if scalar else out


@lru_cache(maxsize=None)
def _unit_tanh_sinh(level):
    """Tanh-sinh rule of step 0.45 / 2^level on [0, 1]: (upper, gap, weight).

    gap is a node's distance 1/(1 + e^(2|s|)) from the nearer end,
    s = (pi/2) sinh(u), computed without the cancellation of
    (1 - tanh |s|) / 2; upper marks the nodes nearer 1.
    """
    h = 0.45 / 2 ** level
    u = np.arange(-3.6, 3.6 + h, h)
    su = 0.5 * math.pi * np.sinh(u)
    gap = 1.0 / (1.0 + np.exp(2.0 * np.abs(su)))
    weight = h * 0.25 * math.pi * np.cosh(u) / np.cosh(su) ** 2
    return u > 0.0, gap, weight


def tanh_sinh_quadrature(f, a, b, abs_floor=0.0):
    """Tanh-sinh rule on [a, b] for a vectorized integrand.

    Node clustering at the endpoints makes the rule spectrally accurate for
    integrands with algebraic (integrable) endpoint behaviour.  Nodes are
    placed by their distance from the nearer end (_unit_tanh_sinh), so from
    a = 0 they reach ~1e-25 b and x^(-1/2) on [0, 1] is integrated to
    roundoff; the kernel's singular origin is kernel_moment's, not this
    rule's.  A node that rounds onto a nonzero end is skipped (weight below
    1e-24 (b - a)): endpoints are never evaluated.  The step halves on each
    of 7 passes until two passes agree to within
    10 max(ABS_TOL, REL_TOL |value|, abs_floor); callers whose integrands
    turn into roundoff noise supply the abs_floor it allows.
    """
    width = b - a
    value = None
    for level in range(7):
        upper, gap, weight = _unit_tanh_sinh(level)
        x = np.where(upper, b - width * gap, a + width * gap)
        keep = (x > a) & (x < b)
        refined = float(np.dot(width * weight[keep], f(x[keep])))
        if value is not None:
            err = abs(refined - value)
            if err <= max(ABS_TOL, REL_TOL * abs(refined), abs_floor) * 10.0:
                return refined, err
        value = refined
    raise QuadratureError("tanh-sinh quadrature did not converge",
                          value=value, error_estimate=err)


def _sigma_rule(xi, x_min):
    """(cosh t, weights) with I(x) = sum weights P(xi+1, x cosh t) for
    I(x) = int_0^x w^xi K_(xi-1)(w) dw, x >= x_min, P = gammainc.

    K_nu(w) = int_0^inf e^(-w cosh t) cosh(nu t) dt (DLMF 10.32.9) gives
    I(x) = Gamma(xi+1) int_0^inf cosh((xi-1) t) cosh(t)^(-xi-1) P(xi+1, x cosh t) dt,
    a positive integrand, even in t and analytic in |Im t| < pi/2: the
    rule of step 0.1 errs by ~e^(-pi^2/0.1), below rounding even at twice
    the step.  Past x cosh t = xi + 1 it decays like e^(-2 min(xi,1) t), so
    T = log+(2 (xi+1) / x_min) + 20 / min(xi, 1) cuts a tail below e^-40.
    """
    T = math.log(max(2.0 * (xi + 1.0) / x_min, 1.0)) + 20.0 / min(xi, 1.0)
    t = 0.1 * np.arange(int(T / 0.1) + 1)
    cosh_t = np.cosh(t)
    w = 0.1 * math.gamma(xi + 1.0) * np.cosh((xi - 1.0) * t) / cosh_t ** (xi + 1.0)
    w[0] *= 0.5
    return cosh_t, w


def sigma(d, alpha, m, r):
    """Defect kernel sigma_{m,alpha} >= 0 at radii r > 0 (flattened):
    (values, error estimates).

    The estimate is the difference to _sigma_rule at twice the step, which
    can be exactly 0, plus GAMMAINC_REL_ERR |value|: every term of the
    positive sum carries gammainc's relative error.
    """
    d, alpha, r = _check_massive("sigma", d, alpha, m, r)
    r = r.ravel()
    xi = (d + alpha) / 2.0
    x = m ** (1.0 / alpha) * r
    cosh_t, w = _sigma_rule(xi, float(x.min()))
    fine, coarse = np.empty(r.size), np.empty(r.size)
    # Blocks of 2^16 gammainc values (512 KB) bound the memory.
    rows = max(1, (1 << 16) // w.size)
    for i in range(0, r.size, rows):
        P = special.gammainc(xi + 1.0, np.outer(x[i:i + rows], cosh_t))
        fine[i:i + rows], coarse[i:i + rows] = P @ w, 2.0 * P[:, ::2] @ w[::2]
    scale = relativistic_prefactor(d, alpha, 1.0) * r ** (-(d + alpha))
    values = scale * fine
    return values, scale * np.abs(fine - coarse) + GAMMAINC_REL_ERR * values


def kernel_moment(symbol, d, k, a, b):
    """int_a^b r^(k+d-1) j(r) dr for 0 <= a < b <= inf (k > alpha if a = 0).

    Massless moments are closed-form.  From a = 0 a massive moment is that
    closed form minus the sigma moment (j_m = j_0 - sigma) on [0, c],
    c = min(b, m^(-1/alpha)), summed over _sigma_rule in the closed form
    int_0^c r^(p-1) P(xi+1, z r / c) dr
        = (c^p / p) [P(xi+1, z) - z^-p Gamma(q) / Gamma(xi+1) P(q, z)],
    p = k - alpha, q = p + xi + 1, z = m^(1/alpha) c cosh t.  Beyond c,
    where j_0 - sigma would cancel, and for a > 0, QUADPACK takes j.
    """
    alpha, m = symbol.alpha, symbol.m
    p = k - alpha
    c0 = massless_constant(d, alpha)
    if m == 0.0:
        return c0 * (b ** p - a ** p) / p
    total = 0.0
    if a == 0.0:
        mu, xi = m ** (1.0 / alpha), (d + alpha) / 2.0
        a = min(b, 1.0 / mu)
        cosh_t, w = _sigma_rule(xi, mu * a)
        z = mu * a * cosh_t
        q = p + xi + 1.0
        inner = (special.gammainc(xi + 1.0, z) - z ** -p * special.gammainc(q, z)
                 * math.exp(math.lgamma(q) - math.lgamma(xi + 1.0)))
        total = a ** p / p * (c0 - relativistic_prefactor(d, alpha, 1.0)
                              * float(w @ inner))
    if b > a:
        total += integrate.quad(
            lambda r: r ** (k + d - 1) * symbol.jump_kernel(d, r), a, b,
            epsabs=ABS_TOL, epsrel=1e-10, limit=200)[0]
    return total


@dataclass(frozen=True)
class BernsteinSymbol:
    """The relativistic symbol Phi_{m,alpha}(z) = (z + m^(2/alpha))^(alpha/2) - m,
    m >= 0, alpha in (0, 2), the kinetic symbol of every operator here.

    m = 0 is the fractional Laplacian (-Delta)^(alpha/2); its jump kernel is
    the power law j_massless, and for m > 0 the Bessel-K kernel j_massive.
    """

    m: float = 0.0
    alpha: float = 1.0
    kind: ClassVar[str] = "relativistic"

    def __post_init__(self):
        _check_alpha(self.alpha)
        if self.m < 0:
            raise ValueError("mass m must be >= 0")

    @classmethod
    def relativistic(cls, m, alpha):
        return cls(m=float(m), alpha=float(alpha))

    @property
    def label(self):
        return f"relativistic(m={self.m:g}, alpha={self.alpha:g})"

    def evaluate(self, z):
        """Phi(z) for z >= 0 (vectorized); Phi(0) = 0."""
        z = np.asarray(z, dtype=float)
        out = (z + self.m ** (2.0 / self.alpha)) ** (self.alpha / 2.0) - self.m
        # Guard the z=0 roundoff of m^(2/alpha)^(alpha/2) - m.
        out = np.where(z == 0.0, 0.0, out)
        return float(out) if out.ndim == 0 else out

    __call__ = evaluate

    def jump_kernel(self, d, r):
        """Radial jump kernel j_Phi(r) in dimension d; r may be an array."""
        if self.m == 0.0:
            return j_massless(d, self.alpha, r)
        return j_massive(d, self.alpha, self.m, r)


# ---------------------------------------------------------------------------
# Heat kernel (radial Fourier reduction, d <= 3) and resolvent kernel
# ---------------------------------------------------------------------------

def _frequency_cutoff(symbol, d, t):
    """Xi = 2^k with exp(-t Phi(Xi^2)) Xi^(d-1) below 1e-18.

    e^(-t Phi) is integrable for every relativistic symbol, since Phi grows
    like |xi|^alpha, but when t and alpha are both small (Phi_{0,0.1} at
    t = 0.1) the cutoff lies beyond 2^63, the last Xi tried, and
    AssumptionViolationError is raised.
    """
    xi = 1.0
    for _ in range(64):
        decay = -t * symbol.evaluate(xi * xi) + (d - 1) * math.log(xi)
        if decay < math.log(1e-18):
            return xi
        xi *= 2.0
    raise AssumptionViolationError(
        "exp(-t Phi(|xi|^2)) |xi|^(d-1) is still above 1e-18 at |xi| = 2^63: "
        "t Phi grows too slowly for a frequency cutoff in double range")


# Entries of one radii x nodes block in heat_kernel_profile (8 MB of float64;
# a complex radii x (outer phases x nodes) block takes an eighth), so memory
# stays bounded however many radii a table asks for.
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
    e^(i r xi) = e^(i r m_p) e^(i r h x_j), and the panel phase factors
    again: numbering the P panels p = a B + b, B = ceil(sqrt(P)),
    m_p = a B w + (b + 1/2) w for the panel width w.  Each rule's sum is
    then sum_j e^(i r h x_j) sum_a e^(i r a B w) H_(r, a, j), with H one
    matmul of the B inner phases e^(i r (b + 1/2) w) against D (padded
    with zero panels to A B, A = ceil(P / B)): A + B ~ 2 sqrt(P)
    exponentials per radius in place of P, or of one cosine per node.
    J_0 has no finite addition formula, so d = 2 evaluates J_0(r xi) at
    every node.

    Two roundings would each move all nodes of a panel together, an error
    that does not average out over the panel: that of m_p (the panels would
    no longer tile [0, Xi]) and that of the product r m_p, which reaches
    ~1e4.  A 32-bit w makes a B w and (b + 1/2) w exact (a B < 2^13), and
    _exact_phase multiplies r by each exactly.  On the 1201-radius Cauchy
    table at t = 0.1 the largest relative error is 9.6e-14 with both
    exact, 2.9e-12 with linspace midpoints and 8.3e-12 with a rounded r m_p.

    The estimate is |I_24 - I_12| plus the roundoff floor
    10 eps sum |D| max |A_d(r, xi)|, which is sum |D| in d = 1 and 2 and
    sum |D| min(xi, 1/r) per radius in d = 3; the difference alone falls
    below the actual error wherever the two rules agree to roundoff.
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
    if d == 3:
        # F(x) = sum |D| min(xi, x) is linear between the nodes, which the
        # ravelled panels list in increasing order; the floor is 10 eps F(1/r).
        xi, weight = nodes[:, 12:].ravel(), np.abs(damped[:, 12:]).ravel()
        F = np.cumsum(weight * xi) + xi * (np.cumsum(weight[::-1])[::-1] - weight)
        inv = np.divide(1.0, radii, out=np.full(radii.size, np.inf), where=radii > 0.0)
        floor = 10.0 * np.finfo(float).eps * np.interp(
            inv, np.r_[0.0, xi], np.r_[0.0, F])
    sums = np.empty((radii.size, x.size))
    if d == 2:
        rows = max(1, _BLOCK_ENTRIES // nodes.size)
        for i in range(0, radii.size, rows):
            r = radii[i:i + rows]
            sums[i:i + rows] = np.einsum(
                "rpj,pj->rj", special.j0(np.multiply.outer(r, nodes)), damped)
    else:
        B = math.isqrt(n_panels - 1) + 1
        A = -(-n_panels // B)
        inner = (np.arange(B) + 0.5) * width
        outer = np.arange(A) * B * width
        padded = np.zeros((A * B, x.size))
        padded[:n_panels] = damped
        # Row b, columns (a, j): D_(aB+b, j), made complex once.
        padded = np.ascontiguousarray(padded.reshape(A, B, x.size).transpose(1, 0, 2),
                                      dtype=complex).reshape(B, -1)
        rows = max(1, _BLOCK_ENTRIES // 8 // padded.shape[1])
        for i in range(0, radii.size, rows):
            r = radii[i:i + rows]
            # (E D)_(r, j); the r x (A 36) block is not kept past this line.
            panel_sums = np.matmul(_exact_phase(r, outer)[:, None, :], (
                _exact_phase(r, inner) @ padded).reshape(r.size, A, x.size))[:, 0]
            phased = np.exp(1j * np.outer(r, offsets)) * panel_sums
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

    G_1 decays like e^(-k_min r), k_min^2 the bottom of sigma's support,
    and leaves the double range for large M (Phi_{2,0.1}: e^(-717) at
    r = 0.7).  So quad integrates e^(k_min r) Y_d, through
    e^(-(k - k_min) r) and scipy's k0e, and the tolerance is tested before
    the values and estimates are scaled back, to subnormal or 0 where G_1
    underflows.  The estimate adds to quad's abserr the rounding it cannot
    see, in the atom and in the exponent k_min r: (10 + 2 k_min r) eps |value|.
    """
    if d not in (1, 2, 3):
        raise ValueError("resolvent_kernel requires d <= 3")
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    if np.any(radii <= 0):
        raise ValueError("resolvent_kernel requires r > 0")
    m, alpha = symbol.m, symbol.alpha
    M, c, phase = m ** (2.0 / alpha), 1.0 - m, (-1j) ** alpha
    gap = (m - 1.0) ** (2.0 / alpha) if m > 1.0 else 0.0
    k_min = math.sqrt(M - gap)
    # u = v^q makes the m = 1 density (2/pi) sin(pi alpha/2) u^(1-alpha)
    # flat in v.
    q = max(1.0, 1.0 / (2.0 - alpha))
    # e^(k_min r) Y_d as a function of k and of (k - k_min) r >= 0.
    scaled = (lambda k, r, x: np.exp(-x) / (2.0 * k),
              lambda k, r, x: special.k0e(k * r) * np.exp(-x) / (2.0 * math.pi),
              lambda k, r, x: np.exp(-x) / (4.0 * math.pi * r))[d - 1]

    def integrand(v, r):
        u = v ** q
        k = math.sqrt(M + u * u)
        return (2.0 * q * u * u / (math.pi * v) * (1.0 / (c + u ** alpha * phase)).imag
                * scaled(k, r, (gap + u * u) / (k + k_min) * r))

    # epsrel sits well above QUADPACK's floor of 50 eps.
    values, errs = np.array([integrate.quad(integrand, 0.0, np.inf, args=(r,),
                                            epsabs=0.0, epsrel=1e-13, limit=200)
                             for r in radii]).T
    if m > 1.0:
        values += gap / (m - 1.0) / (0.5 * alpha) * scaled(k_min, radii, 0.0)
    errs += (10.0 + 2.0 * k_min * radii) * np.finfo(float).eps * values
    unscale = np.exp(-k_min * radii)
    if np.any(errs > REL_TOL * values):
        raise QuadratureError("resolvent quadrature did not converge",
                              value=values * unscale, error_estimate=errs * unscale)
    # Below the normal range, scaling back rounds to whole units of the
    # smallest subnormal, at most values / 2 + 1 of them; values + 2 units
    # also cover the rounding of that product itself.
    unit = np.finfo(float).smallest_subnormal
    return values * unscale, errs * unscale + (values + 2.0) * unit


def second_moment_decay(symbol, d, r_list):
    """M(R) = R^-2 int_{B_R} |x|^2 j_Phi(|x|) dx for an increasing list of R,
    from cumulative kernel moments."""
    r_list = list(r_list)
    if len(r_list) < 2 or any(b <= a for a, b in zip(r_list, r_list[1:])):
        raise ValueError("r_list must be increasing with at least 2 entries")
    totals = itertools.accumulate(kernel_moment(symbol, d, 2, a, b)
                                  for a, b in zip([0.0] + r_list, r_list))
    return [sphere_surface(d) * t / b ** 2 for t, b in zip(totals, r_list)]


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
    params = {"alpha": symbol.alpha,
              "m": symbol.m,
              "t": t,
              "quadrature": {"abs_tol": ABS_TOL, "rel_tol": REL_TOL}}
    if kernel_id == "j":
        values = np.atleast_1d(symbol.jump_kernel(d, radii))
        errs = np.abs(values) * KV_REL_ERR
    elif kernel_id == "sigma":
        values, errs = sigma(d, symbol.alpha, symbol.m, radii)
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
