"""Complete toolkit for bounded 1D steady states of kappa^2*u'' + sin(u) = 0.

Multiplying the steady equation by u' and integrating gives the first
integral (1/2)*kappa^2*(u')^2 = C + cos(u) with C >= -1, and the constant
C classifies every bounded solution:

    C > 1        no bounded solution (u' bounded away from zero)
    C = -1       u identically 0
    C = 1        the separatrix family: kinks +-2*arcsin(tanh(x/kappa + c))
                 and the constants +-pi
    -1 < C < 1   periodic orbits with amplitude arccos(-C) < pi

Periodic orbits are built by quadrature of u' = (sqrt(2)/kappa)*
sqrt(C + cos u) between turning points. The substitution
sin(u/2) = sin(A/2)*sin(theta), A = arccos(-C), removes the
inverse-square-root endpoint singularity, leaving the smooth integrand
1/sqrt(1 - m*sin^2(theta)) with m = (1+C)/2 on theta in [-pi/2, pi/2].
The half profile is then recovered on a uniform x grid by Newton
inversion of the accumulated quadrature, and extended by even/odd
reflection. Shifts u(.+x0) + 2*m*pi of any solution are again solutions,
so profiles are emitted in the normalization |u(0)| <= pi with the left
turning point at x = 0.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .grid import Field

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
    C = float(C)
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
    u = np.asarray(u, dtype=np.float64)
    du = np.asarray(du, dtype=np.float64)
    out = 0.5 * kappa**2 * du**2 - np.cos(u)
    return float(out) if out.ndim == 0 else out


def _check_sign(sign: int) -> int:
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    return sign


def _check_kappa(kappa: float) -> None:
    if not 0.0 < kappa < np.inf:
        raise ValueError(f"kappa must be finite and > 0, got {kappa}")


def kink_eval(kappa: float, sign: int, c: float, x):
    """Separatrix profile sign * 2*arcsin(tanh(x/kappa + c)); values in (-pi, pi)."""
    _check_sign(sign)
    _check_kappa(kappa)
    if not np.isfinite(c):
        raise ValueError(f"c must be finite, got {c}")
    x = np.asarray(x, dtype=np.float64)
    out = sign * 2.0 * np.arcsin(np.tanh(x / kappa + c))
    return float(out) if out.ndim == 0 else out


def kink_derivative(kappa: float, sign: int, c: float, x):
    """Closed-form derivative of kink_eval: sign * (2/kappa) * sech(x/kappa + c)."""
    _check_sign(sign)
    _check_kappa(kappa)
    x = np.asarray(x, dtype=np.float64)
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
    sign: int = 1
    shift_c: float = 0.0
    amplitude: float = 0.0

    def __post_init__(self) -> None:
        _check_kappa(self.kappa)
        _check_sign(self.sign)
        by_c = classify(self.C)
        if self.regime is Regime.NO_BOUNDED:
            raise RegimeError(f"no bounded solution exists for C = {self.C}")
        if self.regime is Regime.CONSTANT_PI:
            if by_c is not Regime.KINK:
                raise RegimeError(f"constant +-pi requires C = 1, got C = {self.C}")
        elif by_c is not self.regime:
            raise RegimeError(f"regime {self.regime} inconsistent with C = {self.C} ({by_c})")
        if self.regime is Regime.PERIODIC:
            expected = float(np.arccos(-self.C))
            if abs(self.amplitude - expected) > 1e-12:
                raise ValueError(f"amplitude {self.amplitude} != arccos(-C) = {expected}")


@dataclass(frozen=True)
class PeriodicOrbit:
    """Quadrature-built periodic orbit, normalized to the left turning point.

    half_x/half_u sample the increasing branch on [0, period/2], from
    u = -amplitude (u' = 0) up to u = +amplitude (u' = 0). Even reflection
    about either endpoint continues it to the full orbit.
    """

    case: SteadyStateCase
    period: float
    half_x: np.ndarray
    half_u: np.ndarray

    def full_profile(self) -> tuple[np.ndarray, np.ndarray]:
        """One full period on [-period/2, period/2], even-reflected about x = 0."""
        return reflect_extend(self.half_x, self.half_u, Reflection.EVEN)

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
        du = _periodic_derivative(u, x[1] - x[0], order=1)
        return float(np.max(np.abs(first_integral(u, du, self.case.kappa) - self.case.C)))


def _pendulum_integrand(theta: np.ndarray, m: float) -> np.ndarray:
    return 1.0 / np.sqrt(1.0 - m * np.sin(theta) ** 2)


def _panel_quadrature(lo: np.ndarray, hi: np.ndarray, m: float, nodes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Gauss-Legendre integral of the pendulum integrand over each [lo_i, hi_i]."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    theta = mid[..., None] + half[..., None] * nodes
    return half * np.sum(weights * _pendulum_integrand(theta, m), axis=-1)


def build_periodic_orbit(C: float, kappa: float, quad_points: int = 64, samples: int = 257) -> PeriodicOrbit:
    """Construct the periodic orbit with first integral C on a uniform x grid.

    quad_points is the Gauss-Legendre order used for every quadrature
    panel; the half period is accumulated over a fixed fine partition of
    theta, and the uniform-in-x profile is obtained by Newton inversion of
    the accumulated map x(theta) (the monotone integrand makes this
    globally convergent from a linear-interpolation start).
    """
    if classify(C) is not Regime.PERIODIC:
        raise RegimeError(f"C = {C} is not in the periodic regime (-1 < C < 1)")
    _check_kappa(kappa)
    if quad_points < 16:
        raise ValueError(f"quad_points must be >= 16, got {quad_points}")
    if samples < 5:
        raise ValueError(f"samples must be >= 5, got {samples}")

    amplitude = float(np.arccos(-C))
    m = (1.0 + C) / 2.0  # = sin^2(amplitude/2)
    s = np.sqrt(m)
    nodes, weights = np.polynomial.legendre.leggauss(quad_points)

    n_panels = 512
    edges = np.linspace(-np.pi / 2, np.pi / 2, n_panels + 1)
    panel = kappa * _panel_quadrature(edges[:-1], edges[1:], m, nodes, weights)
    x_edges = np.concatenate(([0.0], np.cumsum(panel)))
    half_period = float(x_edges[-1])
    period = 2.0 * half_period

    # Invert x(theta) at the uniform targets by Newton iteration; x is
    # evaluated from the nearest accumulated edge plus one local panel.
    x_target = np.linspace(0.0, half_period, samples)
    theta = np.interp(x_target, x_edges, edges)
    for _ in range(60):
        idx = np.clip(np.searchsorted(x_edges, x_target, side="right") - 1, 0, n_panels - 1)
        x_at = x_edges[idx] + kappa * _panel_quadrature(edges[idx], theta, m, nodes, weights)
        step = (x_at - x_target) * np.sqrt(1.0 - m * np.sin(theta) ** 2) / kappa
        theta = np.clip(theta - step, -np.pi / 2, np.pi / 2)
        if np.max(np.abs(step)) < 1e-15:
            break

    u = 2.0 * np.arcsin(s * np.sin(theta))
    u[0] = -amplitude  # turning points are exact by construction
    u[-1] = amplitude

    case = SteadyStateCase(Regime.PERIODIC, float(C), float(kappa), 1, 0.0, amplitude)
    return PeriodicOrbit(case, period, x_target, u)


def reflect_extend(
    x: np.ndarray,
    u: np.ndarray,
    mode: Reflection,
    tol: float = 1e-8,
) -> tuple[np.ndarray, np.ndarray]:
    """Mirror a sampled branch about its left endpoint, extending leftward.

    EVEN requires u'(x[0]) ~ 0 and produces u(x0 - s) = u(x0 + s); ODD
    requires u(x[0]) ~ 0 and produces u(x0 - s) = -u(x0 + s). The input
    endpoint condition is checked to tolerance tol and a violation raises
    ReflectionError. Returns the extended (x, u), 2*len(x) - 1 points.
    """
    x = np.asarray(x, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    if x.ndim != 1 or x.shape != u.shape or len(x) < 5:
        raise ValueError("x and u must be equal-length 1D arrays with >= 5 samples")
    h = x[1] - x[0]
    if mode is Reflection.EVEN:
        # 4th-order one-sided estimate; a 2nd-order one cannot certify a
        # ~zero slope to tol on moderate grids.
        endpoint_slope = (-25.0 * u[0] + 48.0 * u[1] - 36.0 * u[2] + 16.0 * u[3] - 3.0 * u[4]) / (12.0 * h)
        if abs(endpoint_slope) > tol:
            raise ReflectionError(f"even reflection needs u'(x0) ~ 0, got {endpoint_slope:.3e}")
        mirrored = u[:0:-1]
    elif mode is Reflection.ODD:
        if abs(u[0]) > tol:
            raise ReflectionError(f"odd reflection needs u(x0) ~ 0, got {u[0]:.3e}")
        mirrored = -u[:0:-1]
    else:
        raise ValueError(f"unknown reflection mode {mode!r}")
    x_ext = np.concatenate((2.0 * x[0] - x[:0:-1], x))
    u_ext = np.concatenate((mirrored, u))
    return x_ext, u_ext


def _periodic_derivative(u: np.ndarray, spacing: float, order: int) -> np.ndarray:
    """Spectral derivative treating the samples as one full period."""
    n = len(u)
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=spacing)
    if order == 1:
        mult = 1j * k
        if n % 2 == 0:
            mult[n // 2] = 0.0  # Nyquist zeroed to keep the derivative real
    elif order == 2:
        mult = -(k**2)
    else:
        raise ValueError(f"order must be 1 or 2, got {order}")
    return np.fft.ifft(mult * np.fft.fft(u)).real


def residual(u, kappa: float, *, spacing: float | None = None, periodic: bool | None = None) -> float:
    """Max-norm of kappa^2*u'' + sin(u) on uniform samples.

    Accepts a 1D Field (spacing implied, periodic by default) or a plain
    array with explicit spacing (a non-periodic window by default). u'' is
    spectral for periodic samples and 4th-order centered finite differences
    on the interior for windows.
    """
    _check_kappa(kappa)
    if isinstance(u, Field):
        if u.grid.dim != 1:
            raise ValueError("residual expects 1D samples")
        values = u.values
        spacing = u.grid.spacing
        periodic = True if periodic is None else periodic
    else:
        values = np.asarray(u, dtype=np.float64)
        if values.ndim != 1:
            raise ValueError("residual expects 1D samples")
        if spacing is None:
            raise ValueError("spacing is required for plain arrays")
        periodic = False if periodic is None else periodic

    if periodic:
        d2 = _periodic_derivative(values, spacing, order=2)
        return float(np.max(np.abs(kappa**2 * d2 + np.sin(values))))

    if len(values) < 5:
        raise ValueError("need >= 5 samples for the finite-difference window")
    interior = slice(2, -2)
    d2 = (
        -values[:-4] + 16.0 * values[1:-3] - 30.0 * values[2:-2] + 16.0 * values[3:-1] - values[4:]
    ) / (12.0 * spacing**2)
    return float(np.max(np.abs(kappa**2 * d2 + np.sin(values[interior]))))
