"""Workload definitions and seeded input generation.

Shared by the harness (which hands the generated arrays to psg as
snapshots) and by the independent oracle (which regenerates the same
arrays from the same seed), so neither needs the other's process.
"""

from __future__ import annotations

import math

import numpy as np

N = 256

# run2d: the paper's 2D reference configuration, shortened to T = 2 so a
# pass is ~2-3 s and a run holds enough passes for a steady median.
RUN2D = dict(model="sg", scheme="bdf2", dim=2, kappa=0.2, tau=0.01, tfinal=2.0,
             steps=200, init="pi_sin_sin", snap_every=50)

# sweep1d: criterion-2/3 ensemble; each dataset is swept under both schemes.
SWEEP1D_DATASETS = 10
SWEEP1D_KAPPAS = (0.1, 0.25, 0.5, 1.0)
SWEEP1D_TAUS = {"imex1": (0.25, 0.5, 1.0), "bdf2": (0.1, 0.5)}
SWEEP1D_STEPS = 200

# sweep2d: `psg sweep` in 2D from one seeded snapshot.
SWEEP2D = dict(scheme="imex1", kappa=0.2, steps=100, taus=(0.1, 0.25, 0.5, 1.0))

# converge2d: self-convergence fits for both schemes plus a steady-state pass.
CONVERGE2D = dict(kappa=0.2, tau_base=0.1, levels=4, t_final=1.0, schemes=("imex1", "bdf2"))
STEADY_KAPPA = 0.5
STEADY_ORBIT_C = (-0.5, 0.0, 0.5)
STEADY_KINK_SIGNS = (1, -1)
STEADY_KINK_POINTS = 4001


def convergence_taus(tau_base: float, levels: int) -> tuple[list[float], float]:
    """Tested taus and the reference tau, as psg.convergence_order chooses them."""
    return [tau_base / 2**level for level in range(levels)], tau_base / 2 ** (levels + 2)


def convergence_steps() -> int:
    """Time steps one convergence fit advances (levels plus reference)."""
    taus, tau_ref = convergence_taus(CONVERGE2D["tau_base"], CONVERGE2D["levels"])
    return sum(round(CONVERGE2D["t_final"] / t) for t in taus + [tau_ref])


def point_steps_per_pass(workload: str) -> int:
    """Grid points x time steps advanced in one pass, summed over its runs."""
    if workload == "run2d":
        return N * N * RUN2D["steps"]
    if workload == "sweep1d":
        members = SWEEP1D_DATASETS * sum(len(t) for t in SWEEP1D_TAUS.values())
        return N * SWEEP1D_STEPS * members
    if workload == "sweep2d":
        return N * N * SWEEP2D["steps"] * len(SWEEP2D["taus"])
    if workload == "converge2d":
        return N * N * convergence_steps() * len(CONVERGE2D["schemes"])
    raise ValueError(f"unknown workload {workload!r}")


def steps_per_pass(workload: str) -> int:
    dim = 1 if workload == "sweep1d" else 2
    return point_steps_per_pass(workload) // N**dim


def smooth_field(rng: np.random.Generator, dim: int, n: int = N) -> np.ndarray:
    """Random low-frequency trigonometric polynomial with sup-norm in [0.5*pi, 0.95*pi].

    The sup-norm stays clear of pi so that max-principle verdicts are far
    from the monitor's 1e-12 slack and cannot flip under roundoff.
    """
    x = -math.pi + (2.0 * math.pi / n) * np.arange(n)
    if dim == 1:
        u = np.zeros(n)
        for m in range(8):
            amp = math.exp(-0.35 * m * m)
            u += amp * (rng.standard_normal() * np.cos(m * x) + rng.standard_normal() * np.sin(m * x))
    else:
        xx, yy = np.meshgrid(x, x, indexing="ij")
        u = np.zeros((n, n))
        for mx in range(4):
            for my in range(4):
                amp = math.exp(-0.35 * (mx * mx + my * my))
                u += amp * (
                    rng.standard_normal() * np.cos(mx * xx) * np.cos(my * yy)
                    + rng.standard_normal() * np.sin(mx * xx) * np.sin(my * yy)
                    + rng.standard_normal() * np.cos(mx * xx) * np.sin(my * yy)
                )
    target = rng.uniform(0.5, 0.95) * math.pi
    return u * (target / np.max(np.abs(u)))


def sweep1d_data(seed: int) -> list[tuple[np.ndarray, float]]:
    """(u0, kappa) per dataset; kappa cycles through SWEEP1D_KAPPAS."""
    rng = np.random.default_rng([seed, 1])
    return [(smooth_field(rng, 1), SWEEP1D_KAPPAS[i % len(SWEEP1D_KAPPAS)])
            for i in range(SWEEP1D_DATASETS)]


def sweep2d_data(seed: int) -> np.ndarray:
    return smooth_field(np.random.default_rng([seed, 2]), 2)


def converge2d_data(seed: int) -> np.ndarray:
    return smooth_field(np.random.default_rng([seed, 3]), 2)


def kink_shift(seed: int) -> float:
    """Seeded kink shift constant c in [-0.5, 0.5]."""
    return float(np.random.default_rng([seed, 4]).uniform(-0.5, 0.5))
