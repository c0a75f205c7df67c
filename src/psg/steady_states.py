"""Complete toolkit for bounded 1D steady states of kappa^2*u'' + sin(u) = 0.

Multiplying the steady equation by u' and integrating gives the first
integral (1/2)*kappa^2*(u')^2 = C + cos(u) with C >= -1, and the constant
C classifies every bounded solution:

    C > 1        no bounded solution (u' bounded away from zero)
    C = -1       u identically 0
    C = 1        the separatrix family: kinks +-2*arcsin(tanh(x/kappa + c))
                 and the constants +-pi
    -1 < C < 1   periodic orbits with amplitude arccos(-C) < pi

Periodic orbits are the pendulum's closed form
sin(u/2) = sqrt(m)*sn(x/kappa - K(m) | m) with m = (1+C)/2 = sin^2(A/2),
A = arccos(-C), and period 4*kappa*K(m). The complete elliptic integral K
and the Jacobi sn come from the arithmetic-geometric mean and its
descending Landen recurrence, in numpy alone. The increasing half orbit is
sampled on a uniform x grid and mirrored about its turning point; even/odd
reflection of caller-supplied branches is checked by reflect_extend.
Shifts u(.+x0) + 2*m*pi of any solution are again solutions, so profiles
are emitted in the normalization |u(0)| <= pi with the left turning point
at x = 0.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .grid import (Field, TorusGrid, _apply_multiplier, _check_count, _check_finite, _check_kappa, _check_positive,
                   _real, _scalar)

__all__ = [
    "Regime",
    "Reflection",
    "FirstIntegralError",
    "RegimeError",
    "ReflectionError",
    "SteadyStateCase",
    "PeriodicOrbit",
    "classify",
    "first_integral",
    "kink_eval",
    "kink_derivative",
    "build_periodic_orbit",
    "reflect_extend",
    "residual",
]

# C values within this tolerance of +-1 are snapped to the separatrix /
# zero case so roundoff cannot misclassify an orbit.
SEPARATRIX_TOL = 1e-12
_REFLECT_TOL = 1e-8  # reflect_extend's tolerance on a branch's endpoint condition, in the units of u


class Regime(enum.Enum):
    NO_BOUNDED = "no_bounded"
    ZERO = "zero"
    KINK = "kink"
    CONSTANT_PI = "constant_pi"
    PERIODIC = "periodic"


class Reflection(enum.Enum):
    EVEN = "even"
    ODD = "odd"


class FirstIntegralError(ValueError):
    """C < -1 is impossible for real u'."""


class RegimeError(ValueError):
    """Requested construction is incompatible with the regime of C."""


class ReflectionError(ValueError):
    """Profile endpoint does not satisfy the reflection precondition."""


def classify(C: float) -> Regime:
    """Regime of the first-integral constant C.

    C = 1 returns the kink regime; the same level set also contains the
    constants +-pi (CONSTANT_PI), which classify alone cannot distinguish.
    """
    C = _scalar(C, "C")
    if math.isnan(C):
        raise ValueError(f"C must be a number, got {C}")
    if C < -1.0 - SEPARATRIX_TOL:
        raise FirstIntegralError(f"C = {C} < -1 violates the first integral for real profiles")
    if C <= -1.0 + SEPARATRIX_TOL:
        return Regime.ZERO
    if C < 1.0 - SEPARATRIX_TOL:
        return Regime.PERIODIC
    if C <= 1.0 + SEPARATRIX_TOL:
        return Regime.KINK
    return Regime.NO_BOUNDED


def first_integral(u, du, kappa: float):
    """C = (1/2)*kappa^2*(u')^2 - cos(u); constant along exact orbits."""
    kappa = _check_kappa(kappa)
    u, du = _real(u, "u"), _real(du, "du")
    out = 0.5 * kappa**2 * du**2 - np.cos(u)
    return float(out) if out.ndim == 0 else out


def _check_kink(kappa: float, sign: int, c: float) -> tuple[float, float, float]:
    """kappa, sign and c as floats, or ValueError unless sign is +-1, kappa passes _check_kappa and c is finite."""
    sign = _scalar(sign, "sign")
    if sign not in (1.0, -1.0):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    kappa, c = _check_kappa(kappa), _scalar(c, "c")
    if not math.isfinite(c):
        raise ValueError(f"c must be finite, got {c}")
    return kappa, sign, c


def kink_eval(kappa: float, sign: int, c: float, x):
    """Separatrix profile sign * 2*arcsin(tanh(x/kappa + c)); values in (-pi, pi)."""
    kappa, sign, c = _check_kink(kappa, sign, c)
    x = _real(x, "x")
    with np.errstate(over="ignore"):  # tanh(+-inf) = +-1 is the exact limit
        out = sign * 2.0 * np.arcsin(np.tanh(x / kappa + c))
    return float(out) if out.ndim == 0 else out


def kink_derivative(kappa: float, sign: int, c: float, x):
    """Closed-form derivative of kink_eval: sign * (2/kappa) * sech(x/kappa + c)."""
    kappa, sign, c = _check_kink(kappa, sign, c)
    x = _real(x, "x")
    with np.errstate(over="ignore"):  # 1/cosh(+-inf) = 0 is the exact limit
        out = sign * 2.0 / (kappa * np.cosh(x / kappa + c))
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class SteadyStateCase:
    """Classification record: regime, first-integral constant and parameters.

    amplitude is sup|u|: 0 for the zero solution, arccos(-C) for periodic
    orbits, pi for the separatrix family.
    """

    regime: Regime
    C: float
    kappa: float

    def __post_init__(self) -> None:
        self.__dict__.update(kappa=_check_kappa(self.kappa), C=_scalar(self.C, "C"))
        by_c = classify(self.C)
        if self.regime is Regime.NO_BOUNDED:
            raise RegimeError(f"no bounded solution exists for C = {self.C}")
        if self.regime is Regime.CONSTANT_PI:
            if by_c is not Regime.KINK:
                raise RegimeError(f"constant +-pi requires C = 1, got C = {self.C}")
        elif by_c is not self.regime:
            raise RegimeError(f"regime {self.regime} inconsistent with C = {self.C} ({by_c})")

    @property
    def amplitude(self) -> float:
        if self.regime is Regime.ZERO:
            return 0.0
        return float(np.arccos(-self.C)) if self.regime is Regime.PERIODIC else math.pi


@dataclass(frozen=True)
class PeriodicOrbit:
    """Closed-form periodic orbit, normalized to the left turning point.

    half_x/half_u sample the increasing branch on [0, period/2], from
    u = -amplitude (u' = 0) up to u = +amplitude (u' = 0). Even reflection
    about either endpoint continues it to the full orbit.
    """

    case: SteadyStateCase
    period: float
    half_x: np.ndarray
    half_u: np.ndarray

    def full_profile(self) -> tuple[np.ndarray, np.ndarray]:
        """One full period on [-period/2, period/2], even-reflected about the turning point x = 0."""
        return (np.concatenate((-self.half_x[:0:-1], self.half_x)),
                np.concatenate((self.half_u[:0:-1], self.half_u)))

    def periodic_samples(self) -> tuple[np.ndarray, np.ndarray]:
        """Uniform samples of one period (duplicate right endpoint dropped)."""
        x, u = self.full_profile()
        return x[:-1], u[:-1]

    def residual_max(self) -> float:
        """Max-norm of kappa^2*u'' + sin(u) over the orbit, u'' spectral."""
        x, u = self.periodic_samples()
        return residual(u, self.case.kappa, spacing=x[1] - x[0], periodic=True)

    def first_integral_drift(self) -> float:
        """Max deviation of the first integral from C along the orbit, u' spectral."""
        x, u = self.periodic_samples()
        du = _periodic_derivative(u, x[1] - x[0], order=1, kappa=self.case.kappa)  # kappa*u'
        return float(np.max(np.abs(first_integral(u, du, 1.0) - self.case.C)))


def _jacobi_sn(s: np.ndarray, m: float) -> tuple[float, np.ndarray]:
    """K(m) and sn(s*K(m) | m) by the arithmetic-geometric mean and the descending Landen recurrence.

    The argument s counts quarter periods. c_{n+1} = c_n^2/(4*a_{n+1}) avoids
    the cancellation in (a_n - b_n)/2, so c falls below eps*a at every m.
    """
    a, b, c = 1.0, math.sqrt(1.0 - m), math.sqrt(m)
    ratios = []
    while c > np.finfo(np.float64).eps * a:
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        c = c * c / (4.0 * a)
        ratios.append(c / a)
    phi = 2.0 ** (len(ratios) - 1) * math.pi * s  # 2^N * a_N * s*K with K = pi/(2*a_N)
    for r in reversed(ratios):
        phi = 0.5 * (phi + np.arcsin(r * np.sin(phi)))
    return math.pi / (2.0 * a), np.sin(phi)


def build_periodic_orbit(C: float, kappa: float, samples: int = 257) -> PeriodicOrbit:
    """Construct the periodic orbit with first integral C on a uniform x grid.

    Closed form of the pendulum: sin(u/2) = sqrt(m)*sn(x/kappa - K(m) | m)
    with m = (1+C)/2 and period 4*kappa*K(m), sampled on [0, period/2].
    """
    C = _scalar(C, "C")
    if classify(C) is not Regime.PERIODIC:
        raise RegimeError(f"C = {C} is not in the periodic regime -1 + {SEPARATRIX_TOL} < C < 1 - {SEPARATRIX_TOL} "
                          f"(within {SEPARATRIX_TOL} of -1 or 1, C is the zero or separatrix case)")
    kappa, samples = _check_kappa(kappa), _check_count("samples", samples, 5)
    case = SteadyStateCase(Regime.PERIODIC, C, kappa)
    m = (1.0 + C) / 2.0  # = sin^2(amplitude/2)
    # x/kappa - K runs over [-K, K] on the uniform grid: s = -1 .. 1 quarter periods
    K, sn = _jacobi_sn(np.linspace(-1.0, 1.0, samples), m)
    period = float(4.0 * kappa * K)
    u = 2.0 * np.arcsin(math.sqrt(m) * sn)
    u[0] = -case.amplitude  # turning points are exact by construction
    u[-1] = case.amplitude
    return PeriodicOrbit(case, period, np.linspace(0.0, period / 2.0, samples), u)


def reflect_extend(x: np.ndarray, u: np.ndarray, mode: Reflection) -> tuple[np.ndarray, np.ndarray]:
    """Mirror a sampled branch about its left endpoint, extending leftward.

    EVEN requires h*u'(x[0]) ~ 0 at sample spacing h and produces
    u(x0 - s) = u(x0 + s); ODD requires u(x[0]) ~ 0 and produces
    u(x0 - s) = -u(x0 + s). Both endpoint conditions are in the units of u,
    checked to tolerance 1e-8; a violation raises ReflectionError. Returns
    the extended (x, u), 2*len(x) - 1 points.
    """
    x, u = _real(x, "x", ndim=1), _real(u, "u", ndim=1)
    if x.shape != u.shape or len(x) < 5:
        raise ValueError("x and u must be equal-length 1D arrays with >= 5 samples")
    if mode is Reflection.EVEN:
        # 4th-order one-sided estimate of h*u'(x0), with no division by h: a slope grows as 1/h on
        # narrow orbits, and a 2nd-order estimate cannot certify a ~zero change to 1e-8 on moderate grids.
        endpoint_change = (-25.0 * u[0] + 48.0 * u[1] - 36.0 * u[2] + 16.0 * u[3] - 3.0 * u[4]) / 12.0
        if not abs(endpoint_change) <= _REFLECT_TOL:  # NaN fails too
            raise ReflectionError(f"even reflection needs h*u'(x0) ~ 0, got {endpoint_change:.3e}")
        mirrored = u[:0:-1]
    elif mode is Reflection.ODD:
        if not abs(u[0]) <= _REFLECT_TOL:
            raise ReflectionError(f"odd reflection needs u(x0) ~ 0, got {u[0]:.3e}")
        mirrored = -u[:0:-1]
    else:
        raise ValueError(f"unknown reflection mode {mode!r}")
    _check_finite(np.stack((x, u)))  # NonFiniteError past the endpoint checks, which NaN fails as ReflectionError
    x_ext = np.concatenate((2.0 * x[0] - x[:0:-1], x))
    u_ext = np.concatenate((mirrored, u))
    return x_ext, u_ext


def _periodic_derivative(u: np.ndarray, spacing: float, order: int, kappa: float = 1.0) -> np.ndarray:
    """kappa^order times the spectral derivative (order 1 or 2) of one period of samples: the grid's
    operator times (kappa * grid spacing / spacing)^order, O(1) where the spacing ratio alone overflows."""
    grid = TorusGrid(1, len(u))
    d = _apply_multiplier(grid, u, grid._rfft_deriv[0] if order == 1 else -grid._squared_wavenumbers())[0]
    return d * (kappa * grid.spacing / spacing) ** order


def residual(u, kappa: float, *, spacing: float | None = None, periodic: bool | None = None) -> float:
    """Max-norm of kappa^2*u'' + sin(u) on uniform samples.

    Accepts a 1D Field (spacing implied, periodic by default) or a plain
    array with explicit spacing (a non-periodic window by default). u'' is
    spectral for periodic samples, which must be an even count >= 4, and
    4th-order centered finite differences on the interior for windows.
    """
    kappa = _check_kappa(kappa)
    if isinstance(u, Field):
        if spacing is not None:
            raise ValueError("a Field carries its own spacing; pass spacing only with a plain array")
        spacing = u.grid.spacing
        u = u.values
        periodic = True if periodic is None else periodic
    else:
        if spacing is None:
            raise ValueError("plain arrays need an explicit spacing")
        spacing = _check_positive("spacing", spacing)
        periodic = False if periodic is None else periodic
    values = _real(u, "u", ndim=1)
    _check_finite(values)  # NonFiniteError on both paths: NaN samples would give a NaN window residual

    if periodic:
        if len(values) < 4 or len(values) % 2:
            raise ValueError(f"periodic samples must be an even count >= 4, got {len(values)}")
        d2 = _periodic_derivative(values, spacing, order=2, kappa=kappa)  # kappa^2*u''
        return float(np.max(np.abs(d2 + np.sin(values))))

    if len(values) < 5:
        raise ValueError("need >= 5 samples for the finite-difference window")
    interior = slice(2, -2)
    d2 = (
        -values[:-4] + 16.0 * values[1:-3] - 30.0 * values[2:-2] + 16.0 * values[3:-1] - values[4:]
    ) / (12.0 * spacing**2)
    return float(np.max(np.abs(kappa**2 * d2 + np.sin(values[interior]))))
